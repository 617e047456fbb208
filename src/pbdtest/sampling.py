"""Deterministic, seeded sample generation and empirical distributions.

Randomness comes from the Philox counter-based 64-bit generator.  Streams
are split explicitly: ``stream.split(i)`` derives an independent child via
the seed sequence spawn key, so every stage and Monte Carlo trial owns its
own reproducible randomness regardless of execution order.

Two draw paths exist and are deterministic given the stream and the call
sequence:

* ``draw(k)`` materializes k individual samples through an alias table
  (inverse CDF below 64 symbols).  All sampling *decisions* are integer
  comparisons against precomputed 53-bit thresholds.
* ``draw_histogram(k)`` / ``draw_poissonized(k)`` produce per-symbol counts
  directly (multinomial, and Poisson for the sample size), which is the
  same law as binning ``draw(k)`` but orders of magnitude faster when only
  counts matter.

A root stream and all its splits share one count of samples drawn
(``samples_drawn``, also the cursor of a file pool), which
``capped(budget)`` bounds; a draw past the cap or the end of the pool
raises ``StreamExhausted`` before drawing anything.  Because of the shared
count, never use splits of one stream on parallel threads.
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
    "empirical_distribution",
]

_FRAC_BITS = 53
_FRAC_ONE = 1 << _FRAC_BITS


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

    def to_empirical(self) -> ExplicitDistribution:
        k = self.total
        if k == 0:
            raise ValueError("cannot form an empirical distribution from zero samples")
        return ExplicitDistribution(self.lo, self.counts / k)


class _AliasTable:
    """Vose alias table with 53-bit integer acceptance thresholds."""

    def __init__(self, probs: np.ndarray):
        m = len(probs)
        if m >= 1 << 20:
            raise ValueError("alias table supports fewer than 2^20 symbols")
        weights = probs * (m / probs.sum())
        prob = np.ones(m)
        alias = np.arange(m, dtype=np.int64)
        small = [i for i in range(m) if weights[i] < 1.0]
        large = [i for i in range(m) if weights[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = weights[s]
            alias[s] = g
            weights[g] -= 1.0 - weights[s]
            (small if weights[g] < 1.0 else large).append(g)
        self.m = m
        self.threshold = np.minimum(np.round(prob * _FRAC_ONE), _FRAC_ONE).astype(np.uint64)
        self.alias = alias

    def draw(self, raw: np.ndarray) -> np.ndarray:
        """Map 2k raw 64-bit words to k symbols (indices into the support)."""
        u1 = raw[0::2]
        u2 = raw[1::2]
        idx = (((u1 >> np.uint64(20)) * np.uint64(self.m)) >> np.uint64(44)).astype(np.int64)
        accept = (u2 >> np.uint64(64 - _FRAC_BITS)) < self.threshold[idx]
        return np.where(accept, idx, self.alias[idx])


class _CdfTable:
    """Inverse-CDF table for small supports, again integer thresholds."""

    def __init__(self, probs: np.ndarray):
        cum = np.cumsum(probs / probs.sum())
        cum_int = np.minimum(np.round(cum * _FRAC_ONE), _FRAC_ONE).astype(np.uint64)
        cum_int[-1] = _FRAC_ONE
        self.cum = cum_int

    def draw(self, raw: np.ndarray) -> np.ndarray:
        u = raw >> np.uint64(64 - _FRAC_BITS)
        return np.searchsorted(self.cum, u, side="right").astype(np.int64)


_CDF_CUTOVER = 64


class SampleStream:
    """Single-owner source of i.i.d. samples from a distribution or a file pool."""

    def __init__(self, *, _source, _seed, _spawn_key, _pool=None):
        self._source = _source
        self._seed = _seed
        self._spawn_key = tuple(_spawn_key)
        self._pool = _pool
        self._drawn = [0]  # shared by a root stream and all its splits
        self._ceiling = None
        self._rng = None
        self._table = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_distribution(
        cls, dist: ExplicitDistribution, seed: int, spawn_key: tuple[int, ...] = ()
    ) -> "SampleStream":
        if dist.overflow > MASS_TOL:
            raise ValueError("cannot sample a distribution with sentinel mass")
        return cls(_source=dist, _seed=seed, _spawn_key=spawn_key)

    @classmethod
    def from_samples(cls, samples, seed: int = 0) -> "SampleStream":
        pool = np.ascontiguousarray(samples, dtype=np.int64)
        if pool.ndim != 1:
            raise ValueError("sample pool must be 1-D")
        return cls(_source=None, _seed=seed, _spawn_key=(), _pool=pool)

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
        self._generator()  # built before the copy, so the view continues this stream
        view = copy.copy(self)
        ceiling = self.samples_drawn + budget
        view._ceiling = ceiling if self._ceiling is None else min(ceiling, self._ceiling)
        return view

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

    def _sampler(self):
        if self._table is None:
            p = self._pvals()
            self._table = _CdfTable(p) if len(p) < _CDF_CUTOVER else _AliasTable(p)
        return self._table

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
        """k i.i.d. samples as an int64 array."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        xs = self._take(k)
        if xs is not None:
            return xs.copy()
        table = self._sampler()
        words = 2 * k if isinstance(table, _AliasTable) else k
        raw = self._generator().bit_generator.random_raw(words)
        return table.draw(np.asarray(raw, dtype=np.uint64)) + self._source.lo

    def draw_histogram(self, k: int) -> SampleHistogram:
        """Counts of k fresh i.i.d. samples (multinomial fast path)."""
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


def empirical_distribution(samples, support: tuple[int, int] | None = None) -> ExplicitDistribution:
    """Empirical PMF of the samples on a contiguous support interval.

    Samples falling outside ``support`` are parked on the overflow
    sentinel, matching how coarsened tests treat out-of-interval mass.
    """
    xs = np.ascontiguousarray(samples, dtype=np.int64)
    if xs.size == 0:
        raise ValueError("empirical distribution needs at least one sample")
    if support is None:
        support = (int(xs.min()), int(xs.max()))
    lo, hi = support
    if hi < lo:
        raise ValueError("support interval is empty")
    inside = (xs >= lo) & (xs <= hi)
    counts = np.bincount(xs[inside] - lo, minlength=hi - lo + 1)
    k = xs.size
    return ExplicitDistribution(lo, counts / k, overflow=float((~inside).sum()) / k)
