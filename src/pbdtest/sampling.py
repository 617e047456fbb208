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
A stream over a file pool hands out the pool's samples in file order.

A ``SampleHistogram`` is only its counts and their offset ``lo``: a
Poissonized draw's rate stays with the caller that chose it.  A histogram
drawn from a stream spans exactly its observed range, from the smallest
sample to the largest, so every later stage works on the points drawn
rather than the source's whole array.  A distribution stream
normalises its source once, when it is built, and keeps only the stretch
that carries mass; draws from it are the same as from the whole array.

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
from dataclasses import dataclass

import numpy as np

from .distributions import MAX_WIDTH, ExplicitDistribution

__all__ = [
    "seeded_generator",
    "StreamExhausted",
    "SampleHistogram",
    "SampleStream",
]


def seeded_generator(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """The Philox generator of ``SeedSequence(seed, spawn_key=spawn_key)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class StreamExhausted(RuntimeError):
    """A sample pool ran out, or a draw would pass the stream's sample cap."""


@dataclass(frozen=True)
class SampleHistogram:
    """Per-symbol counts from one sampling stage.

    ``counts[i]`` is the number of samples equal to ``lo + i``, and
    ``total`` the sample count.  A histogram drawn from a stream spans its
    observed range: ``counts[0]`` and ``counts[-1]`` are nonzero, or, for
    zero samples, ``counts`` is one zero bin.
    """

    lo: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a 1-D array with at least one entry")
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def hi(self) -> int:
        return self.lo + len(self.counts) - 1

    def moments(self) -> tuple[float, float]:
        """Sample mean and unbiased sample variance."""
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
        k = self.total
        if k == 0:
            raise ValueError("cannot form an empirical distribution from zero samples")
        return ExplicitDistribution(self.lo, self.counts / k)


class SampleStream:
    """Single-owner source of i.i.d. samples from a distribution or a file pool."""

    def __init__(self, *, _law, _seed, _spawn_key, _support, _pool=None):
        self._law = _law  # (lo, pvals) of a distribution, shared by all splits
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
        pvals = dist.probs / dist.probs.sum()
        law = (dist.lo + first, pvals[first : last + 2])
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
        two draws first, so their draws continue one sequence.
        """
        if budget < 0:
            raise ValueError(f"sample budget must be nonnegative, got {budget}")
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
            lo, pvals = self._law
            counts = self._generator().multinomial(k, pvals)
            seen = np.flatnonzero(counts)
            return lo + int(seen[0]), counts[seen[0] : seen[-1] + 1]
        lo = int(xs.min())
        return lo, np.bincount(xs - lo)

    # -- draws ---------------------------------------------------------------

    def draw(self, k: int) -> np.ndarray:
        """k i.i.d. samples as an int64 array.

        From a distribution: the multinomial counts of ``draw_histogram(k)``
        in random order.  From a pool: its next k samples in file order.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self._pool is not None:
            return self._take(k).copy()
        lo, counts = self._counts(k)
        xs = np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts)
        return self._generator().permutation(xs)

    def draw_histogram(self, k: int) -> SampleHistogram:
        """Counts of k fresh i.i.d. samples (one multinomial draw)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return SampleHistogram(*self._counts(k))

    def draw_poissonized(self, k: float) -> SampleHistogram:
        """Histogram of K ~ Poisson(k) fresh samples.

        Under this draw the per-symbol counts are independent Poisson
        variables with means k * P(i); tests check that equivalence.  A
        total K past the cap raises ``StreamExhausted`` before any draw.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        return SampleHistogram(*self._counts(int(self._generator().poisson(k))))
