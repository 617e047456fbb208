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

A stream is single-owner: never share one across threads.  Independent
children from ``split`` may run in parallel.
"""

from __future__ import annotations

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
    """A sample pool ran out, or a draw would exceed the cap its caller set."""


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

    def __init__(self, *, _source, _seed, _spawn_key, _pool=None, _cursor=None):
        self._source = _source
        self._seed = _seed
        self._spawn_key = tuple(_spawn_key)
        self._pool = _pool
        self._cursor = _cursor  # shared single-element list for pool streams
        self._rng = None
        self._table = None
        self.samples_drawn = 0

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
        return cls(_source=None, _seed=seed, _spawn_key=(), _pool=pool, _cursor=[0])

    def split(self, index: int) -> "SampleStream":
        """Independent child stream.

        Distribution-backed streams get genuinely independent randomness via
        the spawn key.  Pool-backed streams share the cursor, so children
        consume disjoint, consecutive slices in call order.
        """
        if self._pool is not None:
            child = SampleStream(
                _source=None,
                _seed=self._seed,
                _spawn_key=self._spawn_key + (index,),
                _pool=self._pool,
                _cursor=self._cursor,
            )
            return child
        return SampleStream(
            _source=self._source, _seed=self._seed, _spawn_key=self._spawn_key + (index,)
        )

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

    def _take_pool(self, k: int) -> np.ndarray:
        start = self._cursor[0]
        if start + k > len(self._pool):
            raise StreamExhausted(
                f"sample pool exhausted: need {k}, have {len(self._pool) - start} left"
            )
        self._cursor[0] = start + k
        return self._pool[start : start + k]

    # -- draws ---------------------------------------------------------------

    def draw(self, k: int) -> np.ndarray:
        """k i.i.d. samples as an int64 array; advances the cursor by k."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        self.samples_drawn += k
        if self._pool is not None:
            return self._take_pool(k).copy()
        table = self._sampler()
        words = 2 * k if isinstance(table, _AliasTable) else k
        raw = self._generator().bit_generator.random_raw(words)
        return table.draw(np.asarray(raw, dtype=np.uint64)) + self._source.lo

    def draw_histogram(self, k: int) -> SampleHistogram:
        """Counts of k fresh i.i.d. samples (multinomial fast path)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if self._pool is not None:
            xs = self.draw(k)
            lo = int(xs.min()) if k else 0
            counts = np.bincount(xs - lo) if k else np.zeros(1, dtype=np.int64)
            return SampleHistogram(lo, counts, nominal_rate=float(k))
        self.samples_drawn += k
        counts = self._generator().multinomial(k, self._pvals())
        return SampleHistogram(self._source.lo, counts, nominal_rate=float(k))

    def draw_poissonized(self, k: float, cap: int | None = None) -> SampleHistogram:
        """Histogram of K ~ Poisson(k) fresh samples.

        Under this draw the per-symbol counts are independent Poisson
        variables with means k * P(i); tests check that equivalence.  A
        total K above ``cap`` raises ``StreamExhausted`` before any draw.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        rng = self._generator()
        total = int(rng.poisson(k))
        if cap is not None and total > cap:
            raise StreamExhausted(f"Poisson total {total} exceeds the cap of {cap} samples")
        if self._pool is not None:
            hist = self.draw_histogram(total)
            return SampleHistogram(hist.lo, hist.counts, nominal_rate=k, poissonized=True)
        self.samples_drawn += total
        counts = rng.multinomial(total, self._pvals())
        return SampleHistogram(self._source.lo, counts, nominal_rate=k, poissonized=True)


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
