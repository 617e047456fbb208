"""Deterministic, seeded sample generation and empirical distributions.

Randomness comes from the Philox counter-based 64-bit generator.  Streams
are split explicitly: ``stream.split(i)`` derives an independent child via
the seed sequence spawn key, so every stage and Monte Carlo trial owns its
own reproducible randomness regardless of execution order.

All draws follow one law, deterministic given the stream and the call
sequence: ``draw_histogram(k)`` returns the per-symbol counts of k i.i.d.
samples (one multinomial draw), ``draw_poissonized(k)`` the same counts
for a Poisson(k) sample size, and ``draw(k)`` the multinomial counts of
``draw_histogram(k)`` expanded into k samples put in random order.  Given
the counts every order is equally likely, so these are i.i.d. samples.
A stream over a file pool hands out the pool's samples in file order.

A root stream and all its splits share one count of samples drawn
(``samples_drawn``, also the cursor of a file pool), which
``capped(budget)`` bounds; a draw past the cap or the end of the pool
raises ``StreamExhausted`` before drawing anything.  Because of the shared
count, never use splits of one stream on parallel threads.

A root stream also knows its support, the smallest and largest value it
can draw, and its splits carry it; ``require_within(n)`` is the one check
that a source lies in [0, n].
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .distributions import ExplicitDistribution, MASS_TOL

__all__ = [
    "StreamExhausted",
    "SampleHistogram",
    "SampleStream",
]


class StreamExhausted(RuntimeError):
    """A sample pool ran out, or a draw would pass the stream's sample cap."""


@dataclass(frozen=True)
class SampleHistogram:
    """Per-symbol counts from one sampling stage.

    ``counts[i]`` is the number of samples equal to ``lo + i``; ``total``
    is the realized sample count K and ``nominal_rate`` the requested k
    (the Poisson mean when ``poissonized``).
    """

    lo: int
    counts: np.ndarray
    nominal_rate: float
    poissonized: bool = False

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a 1-D array with at least one entry")
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        if not self.poissonized and self.total != round(self.nominal_rate):
            raise ValueError("fixed-size histogram must contain round(k) samples")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def hi(self) -> int:
        return self.lo + len(self.counts) - 1

    def counts_map(self) -> dict[int, int]:
        nz = np.nonzero(self.counts)[0]
        return {int(self.lo + i): int(self.counts[i]) for i in nz}

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

    def to_empirical(self, support: tuple[int, int] | None = None) -> ExplicitDistribution:
        """Empirical PMF on ``support`` (default: the observed range).

        Samples outside ``support`` go to the overflow sentinel, as a
        restricted test treats out-of-interval mass.
        """
        k = self.total
        if k == 0:
            raise ValueError("cannot form an empirical distribution from zero samples")
        lo, hi = (self.lo, self.hi) if support is None else support
        if hi < lo:
            raise ValueError("support interval is empty")
        probs = np.zeros(hi - lo + 1)
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        inside = 0
        if b >= a:
            seg = self.counts[a - self.lo : b - self.lo + 1]
            probs[a - lo : b - lo + 1] = seg / k
            inside = int(seg.sum())
        return ExplicitDistribution(lo, probs, overflow=(k - inside) / k)


class SampleStream:
    """Single-owner source of i.i.d. samples from a distribution or a file pool."""

    def __init__(self, *, _source, _seed, _spawn_key, _support, _pool=None):
        self._source = _source
        self._support = _support
        self._seed = _seed
        self._spawn_key = tuple(_spawn_key)
        self._pool = _pool
        self._drawn = [0]  # shared by a root stream and all its splits
        self._ceiling = None
        self._rng = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_distribution(
        cls, dist: ExplicitDistribution, seed: int, spawn_key: tuple[int, ...] = ()
    ) -> "SampleStream":
        if dist.overflow > MASS_TOL:
            raise ValueError("cannot sample a distribution with sentinel mass")
        mass = np.flatnonzero(dist.probs)
        support = (dist.lo + int(mass[0]), dist.lo + int(mass[-1]))
        return cls(_source=dist, _seed=seed, _spawn_key=spawn_key, _support=support)

    @classmethod
    def from_samples(cls, samples, seed: int = 0) -> "SampleStream":
        pool = np.ascontiguousarray(samples, dtype=np.int64)
        if pool.ndim != 1:
            raise ValueError("sample pool must be 1-D")
        support = (int(pool.min()), int(pool.max())) if pool.size else None
        if support is not None and support[0] < 0:
            raise ValueError(f"sample pool holds {support[0]}; samples must be nonnegative")
        return cls(_source=None, _seed=seed, _spawn_key=(), _support=support, _pool=pool)

    def split(self, index: int) -> "SampleStream":
        """Child stream with its own randomness, sharing this stream's count and cap.

        Distribution-backed children get independent randomness via the
        spawn key; pool-backed children consume disjoint, consecutive slices
        in call order.  All splits of a root share one count, so they must
        not run on parallel threads.
        """
        child = copy.copy(self)
        child._spawn_key = self._spawn_key + (index,)
        child._rng = None
        return child

    def capped(self, budget: int) -> "SampleStream":
        """This stream, with at most ``budget`` more samples for it and its splits."""
        if budget < 0:
            raise ValueError(f"sample budget must be nonnegative, got {budget}")
        self._generator()  # built before the copy, so the view continues this stream
        view = copy.copy(self)
        ceiling = self.samples_drawn + budget
        view._ceiling = ceiling if self._ceiling is None else min(ceiling, self._ceiling)
        return view

    @property
    def support(self) -> tuple[int, int] | None:
        """(smallest, largest) value this stream can draw; None for an empty pool.

        The ends of a distribution's nonzero mass, or the min and max of a pool.
        """
        return self._support

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
        if self._rng is None:
            ss = np.random.SeedSequence(entropy=self._seed, spawn_key=self._spawn_key)
            self._rng = np.random.Generator(np.random.Philox(ss))
        return self._rng

    def _pvals(self) -> np.ndarray:
        p = self._source.probs
        return p / p.sum()

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
        """(lo, per-symbol counts) of k fresh samples."""
        xs = self._take(k)
        if xs is None:
            return self._source.lo, self._generator().multinomial(k, self._pvals())
        if k == 0:
            return 0, np.zeros(1, dtype=np.int64)
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
        lo, counts = self._counts(k)
        return SampleHistogram(lo, counts, nominal_rate=float(k))

    def draw_poissonized(self, k: float) -> SampleHistogram:
        """Histogram of K ~ Poisson(k) fresh samples.

        Under this draw the per-symbol counts are independent Poisson
        variables with means k * P(i); tests check that equivalence.  A
        total K past the cap raises ``StreamExhausted`` before any draw.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        lo, counts = self._counts(int(self._generator().poisson(k)))
        return SampleHistogram(lo, counts, nominal_rate=k, poissonized=True)
