"""Deterministic, seeded sample generation and empirical distributions.

Randomness comes from the Philox counter-based 64-bit generator, which
``seeded_generator`` alone builds, for streams and every other caller.
Streams are split explicitly: ``stream.split(i)`` derives an independent
child via the seed sequence spawn key, so every stage and Monte Carlo
trial owns its own reproducible randomness regardless of execution order.
A stream's generator is seeded on its first draw and shared with its
capped views, so a stream whose draws all go through its splits never
builds one.

All draws follow one law, deterministic given the stream and the call
sequence: ``draw_histogram(k)`` returns the per-symbol counts of k i.i.d.
samples (one multinomial draw), ``draw_poissonized(k)`` the same counts
for a Poisson(k) sample size, and ``draw(k)`` the multinomial counts of
``draw_histogram(k)`` expanded into k samples put in random order.  Given
the counts every order is equally likely, so these are i.i.d. samples.
``draw_poissonized(k, within=(a, b))`` draws its Poisson(k) total K
first and then those K samples coarsened to [a, b]: the counts on its
points and one count of the samples outside it, as one multinomial on
those b - a + 2 categories with the outside lump last, so that numpy
gives it the remainder and no 1 - sum(p) is rounded; the b - a + 2
counts are independent Poisson variables.  A stream over a file pool
hands out the pool's samples in file order, and its coarse draw is
exactly its full histogram coarsened.

A ``SampleHistogram`` is its counts, their offset ``lo`` and the count
``outside`` of samples it does not place (0 but for a coarse draw): a
Poissonized draw's rate stays with the caller that chose it.  A full
histogram drawn from a stream spans exactly its observed range, from the
smallest sample to the largest, so every later stage works on the points
drawn rather than the source's whole array; a coarse one covers its
interval, whatever was observed.  A distribution stream normalises its
source once, when it is built, and keeps only the stretch that carries
mass; when that stretch has zeros inside, it keeps only its points with
mass and its last point, since numpy's multinomial draws a
zero-probability category as 0 without reading a random number.  A full
draw of k samples also skips the lead of points with k p <= 2^-55, which
numpy's multinomial would draw as zeros, and advances the generator past
the raw numbers it would read on them instead; so draws are the same as
from the whole array, and cost time in the points kept from the first
one past that lead to the largest sample, plus one pass over the
observed range.  A coarse draw costs time in the interval's points alone.
``draw`` refuses more samples than ``MAX_WIDTH`` before drawing anything.
Every draw refuses a k that is not a nonnegative integer (a bool is not
one), ``draw_poissonized`` a rate that is not a positive finite real, and
``capped`` a budget that is not a nonnegative integer, before anything is
counted.

A root stream and all its splits share one count of samples drawn
(``samples_drawn``, also the cursor of a file pool), which
``capped(budget)`` bounds; a draw past the cap or the end of the pool
raises ``StreamExhausted`` before drawing anything.  Because of the shared
count, never use splits of one stream on parallel threads.

A root stream also knows the smallest and largest value it can draw, and
its splits carry them; ``require_within(n)`` is the one check that a
source lies in [0, n].
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .distributions import MAX_WIDTH, ExplicitDistribution, _on_interval

__all__ = [
    "seeded_generator",
    "StreamExhausted",
    "SampleHistogram",
    "SampleStream",
]


# A category of probability p with k p at most this is skipped by a draw of
# k samples (see ``SampleStream._counts``).
_NEGLIGIBLE = 2.0**-55


def _require_count(k, what: str = "k") -> int:
    """k as an int; ``ValueError`` unless it is a nonnegative integer (a bool is not one)."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {k!r}")
    return int(k)


def seeded_generator(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """The Philox generator of ``SeedSequence(seed, spawn_key=spawn_key)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class StreamExhausted(RuntimeError):
    """A sample pool ran out, or a draw would pass the stream's sample cap."""


@dataclass(frozen=True)
class SampleHistogram:
    """Per-symbol counts from one sampling stage.

    ``counts[i]`` is the number of samples equal to ``lo + i``,
    ``outside`` the number of samples not placed in ``counts``, and
    ``total`` the sample count, ``outside`` included.  A full histogram
    drawn from a stream spans its observed range: ``counts[0]`` and
    ``counts[-1]`` are nonzero, or, for zero samples, ``counts`` is one
    zero bin.  A coarse one (``draw_poissonized(k, within=(a, b))``) covers
    exactly [a, b], whatever was observed, and counts the rest in
    ``outside``; it cannot give moments or an empirical law.
    """

    lo: int
    counts: np.ndarray
    outside: int = 0

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a 1-D array with at least one entry")
        if counts.min(initial=0) < 0 or self.outside < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "outside", int(self.outside))

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.outside

    @property
    def hi(self) -> int:
        return self.lo + len(self.counts) - 1

    def _require_full(self, what: str) -> None:
        if self.outside:
            raise ValueError(f"a coarse histogram ({self.outside} samples outside) has no {what}")

    def moments(self) -> tuple[float, float]:
        """Sample mean and unbiased sample variance."""
        self._require_full("moments")
        k = self.total
        if k == 0:
            raise ValueError("empty histogram has no moments")
        xs = self.lo + np.arange(len(self.counts), dtype=np.float64)
        mu = float((xs * self.counts).sum() / k)
        if k == 1:
            return mu, 0.0
        var = float((self.counts * (xs - mu) ** 2).sum() / (k - 1))
        return mu, var

    def to_empirical(self) -> ExplicitDistribution:
        """Empirical PMF on the histogram's range [lo, hi]."""
        self._require_full("empirical distribution")
        k = self.total
        if k == 0:
            raise ValueError("cannot form an empirical distribution from zero samples")
        return ExplicitDistribution(self.lo, self.counts / k)


class SampleStream:
    """Single-owner source of i.i.d. samples from a distribution or a file pool."""

    def __init__(self, *, _law, _seed, _spawn_key, _support, _pool=None):
        # (lo, pvals, running max, categories kept or None) of a distribution,
        # shared by all splits
        self._law = _law
        self._support = _support  # (smallest, largest) drawable value; None if none
        self._seed = _seed
        self._spawn_key = tuple(_spawn_key)
        self._pool = _pool
        self._drawn = [0]  # shared by a root stream and all its splits
        self._ceiling = None
        self._rng = [None]  # built on first draw; shared with capped views

    # -- construction -----------------------------------------------------

    @classmethod
    def from_distribution(
        cls, dist: ExplicitDistribution, seed: int, spawn_key: tuple[int, ...] = ()
    ) -> "SampleStream":
        mass = np.flatnonzero(dist.probs)
        if mass.size == 0:
            raise ValueError("distribution has no mass to sample")
        first, last = int(mass[0]), int(mass[-1])
        # Normalised on the whole array, then cut to the mass plus one
        # trailing zero: the multinomial draws a binomial for every category
        # but the last and none for a leading zero, so the cut law consumes
        # the same random numbers and gives the same counts.
        pvals = (dist.probs / dist.probs.sum())[first : last + 2]
        cats = None
        if mass.size < last - first + 1:
            # Zeros inside the mass: numpy draws a p = 0 category as 0 without
            # reading a random number, and takes 0.0 off the rest exactly, so
            # the law keeps only its categories with mass and its last one,
            # which takes the remainder; ``cats`` maps them back.
            cats = mass - first
            if cats[-1] < len(pvals) - 1:
                cats = np.append(cats, len(pvals) - 1)
            pvals = pvals[cats]
        law = (dist.lo + first, pvals, np.maximum.accumulate(pvals), cats)
        support = (dist.lo + first, dist.lo + last)
        return cls(_law=law, _seed=seed, _spawn_key=spawn_key, _support=support)

    @classmethod
    def from_samples(cls, samples, seed: int = 0) -> "SampleStream":
        """A stream over a pool of integer samples, handed out in order.

        Integer-valued floats are accepted; any other value raises
        ``ValueError``, as does a pool whose histogram, from its smallest
        to its largest sample, would span more than ``MAX_WIDTH`` points.
        """
        raw = np.asarray(samples)
        if raw.dtype.kind == "f":
            integral = np.isfinite(raw) & (raw == np.trunc(raw))
            if not integral.all():
                bad = raw.flat[int(np.argmin(integral))]
                raise ValueError(f"sample pool holds {bad}; samples must be integers")
        pool = np.ascontiguousarray(raw, dtype=np.int64)
        if pool.ndim != 1:
            raise ValueError("sample pool must be 1-D")
        support = (int(pool.min()), int(pool.max())) if pool.size else None
        if support is not None and support[0] < 0:
            raise ValueError(f"sample pool holds {support[0]}; samples must be nonnegative")
        if support is not None and support[1] - support[0] + 1 > MAX_WIDTH:
            raise ValueError(f"sample pool spans [{support[0]}, {support[1]}], too wide to count")
        return cls(_law=None, _seed=seed, _spawn_key=(), _support=support, _pool=pool)

    def split(self, index: int) -> "SampleStream":
        """Child stream with its own randomness, sharing this stream's count and cap.

        Distribution-backed children get independent randomness via the
        spawn key; pool-backed children consume disjoint, consecutive slices
        in call order.  All splits of a root share one count, so they must
        not run on parallel threads.
        """
        child = copy.copy(self)
        child._spawn_key = self._spawn_key + (index,)
        child._rng = [None]
        return child

    def capped(self, budget: int) -> "SampleStream":
        """This stream, with at most ``budget`` more samples for it and its splits.

        The view shares this stream's generator, built on whichever of the
        two draws first, so their draws continue one sequence.  A budget
        that is not a nonnegative integer (NaN, 2.5, True) raises
        ``ValueError``.
        """
        budget = _require_count(budget, "sample budget")
        view = copy.copy(self)
        ceiling = self.samples_drawn + budget
        view._ceiling = ceiling if self._ceiling is None else min(ceiling, self._ceiling)
        return view

    def require_within(self, n: int) -> None:
        """Raise ``ValueError`` unless every value this stream can draw lies in [0, n]."""
        if self._support is None:
            return
        lo, hi = self._support
        if lo < 0 or hi > n:
            raise ValueError(f"source lies outside [0, {n}]: its support is [{lo}, {hi}]")

    @property
    def samples_drawn(self) -> int:
        """Samples drawn so far by the root stream and all its splits."""
        return self._drawn[0]

    # -- internals ----------------------------------------------------------

    def _generator(self) -> np.random.Generator:
        if self._rng[0] is None:
            self._rng[0] = seeded_generator(self._seed, self._spawn_key)
        return self._rng[0]

    def _take(self, k: int) -> np.ndarray | None:
        """Count k draws, refusing past the cap or the pool; the pool's next k, if any."""
        start = self._drawn[0]
        if self._ceiling is not None and start + k > self._ceiling:
            raise StreamExhausted(
                f"sample cap reached: need {k}, have {self._ceiling - start} left"
            )
        if self._pool is not None and start + k > len(self._pool):
            raise StreamExhausted(
                f"sample pool exhausted: need {k}, have {len(self._pool) - start} left"
            )
        self._drawn[0] = start + k
        return None if self._pool is None else self._pool[start : start + k]

    def _counts(self, k: int) -> tuple[int, np.ndarray]:
        """(lo, per-symbol counts) of k fresh samples, cut to their observed range."""
        xs = self._take(k)
        if k == 0:
            return 0, np.zeros(1, dtype=np.int64)
        if xs is None:
            lo, pvals, peak, cats = self._law
            # numpy draws category j as Binomial(remaining, p_j / rest), rest
            # starting at exactly 1.0.  Over the lead where k p_j <= 2^-55,
            # 1 - p_j rounds to 1.0, so rest stays 1.0, and the inversion
            # sampler's q^k, exp(k log1p(-p_j)) >= exp(-2^-55), rounds to
            # exactly 1.0: it reads one raw number and gives 0, and a zero
            # p_j reads nothing.  So the lead's raw numbers are skipped
            # instead.  A lead fixed in p alone would not do: q^k falls below
            # 1.0 once k p_j passes about 2^-54.  The lead ends before the
            # largest p, hence before the last category.
            lead = int(peak.searchsorted(_NEGLIGIBLE / k, side="right"))
            rng = self._generator()
            rng.bit_generator.random_raw(np.count_nonzero(pvals[:lead]), output=False)
            counts = rng.multinomial(k, pvals[lead:])
            seen = np.flatnonzero(counts)
            if cats is None:
                return lo + lead + int(seen[0]), counts[seen[0] : seen[-1] + 1]
            at = cats[lead + seen]
            observed = np.zeros(at[-1] - at[0] + 1, dtype=np.int64)
            observed[at - at[0]] = counts[seen]
            return lo + int(at[0]), observed
        lo = int(xs.min())
        return lo, np.bincount(xs - lo)

    def _law_on(self, a: int, b: int) -> np.ndarray:
        """The source's probabilities on [a, b], then a 0.0 for the outside lump."""
        lo, pvals, _, cats = self._law
        out = np.zeros(b - a + 2)
        if cats is None:
            out[:-1] = _on_interval(pvals, lo, a, b)
        else:
            at = lo + cats
            i, j = at.searchsorted(a), at.searchsorted(b, side="right")
            out[at[i:j] - a] = pvals[i:j]
        return out

    # -- draws ---------------------------------------------------------------

    def draw(self, k: int) -> np.ndarray:
        """k i.i.d. samples as an int64 array.

        From a distribution: the multinomial counts of ``draw_histogram(k)``
        in random order.  From a pool: its next k samples in file order.
        A k that is not a nonnegative integer, or is above ``MAX_WIDTH``,
        raises ``ValueError`` before anything is drawn or counted.
        """
        k = _require_count(k)
        if k > MAX_WIDTH:
            raise ValueError(f"{k} samples are too many to hold; the limit is {MAX_WIDTH}")
        if self._pool is not None:
            return self._take(k).copy()
        lo, counts = self._counts(k)
        xs = np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts)
        return self._generator().permutation(xs)

    def draw_histogram(self, k: int) -> SampleHistogram:
        """Counts of k fresh i.i.d. samples (one multinomial draw).

        A k that is not a nonnegative integer raises ``ValueError`` before
        anything is drawn or counted.
        """
        return SampleHistogram(*self._counts(_require_count(k)))

    def draw_poissonized(
        self, k: float, *, within: tuple[int, int] | None = None
    ) -> SampleHistogram:
        """Histogram of K ~ Poisson(k) fresh samples.

        Under this draw the per-symbol counts are independent Poisson
        variables with means k * P(i); tests check that equivalence.  With
        ``within=(a, b)``, the counts cover exactly [a, b] and ``outside``
        counts the rest of the K samples, so the interval's counts and the
        outside count are independent Poisson variables too.  A total K past
        the cap raises ``StreamExhausted`` before any sample is drawn.  A
        rate that is not a positive finite real (0, NaN, inf, True), an
        empty interval (b < a), or one wider than ``MAX_WIDTH`` raises
        ``ValueError`` before anything is drawn.
        """
        real = isinstance(k, (int, float, np.integer, np.floating)) and not isinstance(k, bool)
        if not (real and 0 < k < math.inf):
            raise ValueError(f"k must be a positive finite rate, got {k!r}")
        if within is None:
            return SampleHistogram(*self._counts(int(self._generator().poisson(k))))
        a, b = within
        if b < a:
            raise ValueError(f"interval [{a}, {b}] is empty")
        if b - a + 1 > MAX_WIDTH:
            raise ValueError(f"interval [{a}, {b}] is too wide to count")
        total = int(self._generator().poisson(k))
        xs = self._take(total)
        if xs is None:
            counts = self._generator().multinomial(total, self._law_on(a, b))
            return SampleHistogram(a, counts[:-1], int(counts[-1]))
        inside = xs[(xs >= a) & (xs <= b)]
        return SampleHistogram(a, np.bincount(inside - a, minlength=b - a + 1), total - inside.size)
