"""Exact distribution machinery: PMFs, moments, distances and support intervals.

Besides the Bernoulli-sum, binomial and shifted-Poisson PMFs this holds
the sign-perturbed fair binomial behind the lower-bound family, and the
unimodal certificate: a lower bound on the TV distance to every unimodal
law, hence to every Bernoulli-sum law, which the learner reads on its
learning sample.  The lower-bound experiment only asks whether each family
member's certificate exceeds eps; ``unimodal_distance_exceeds`` answers
that exactly, with prefix passes that stop once their cost passes 2 eps.
It first tries the window's mass core, the shortest stretch holding all
but eps of the window's mass: the certificate on the core is at most the
window's, and the window's at most the core's plus half the mass outside
the core.  On the c = 8 members at n = 4096 the core is about a fifth of
the centre window and decides alone.  Every form of the certificate runs
its forward and backward passes to the split at the mode, and on past it
only while a later split can still win: 1.16-1.35 m heap steps on the
m-point learning histograms of Binomial(n, 1/2) and the c = 8 members,
against 2 m for two full passes, with every cost the float a full pass
computes.

Everything here is a pure function of immutable values; no global state,
safe to call concurrently.  All PMFs live in linear space.  The binomial
and shifted-Poisson PMFs are computed from log-space terms in time linear
in the points they build.  The shifted Poisson always, and the binomial
given ``tail_cut > 0``, build only a window of O(sigma sqrt(log(1/tail_cut)))
points around the mean: 673 of the 10^4 + 1 points of Binomial(10^4, 1/2)
at ``tail_cut=1e-9``.  Their log-space sums lose about 1e-9 of relative
accuracy by n = 10^6, where the mass check rejects the full-support
``binomial_pmf(10**6, 0.5)``; they are checked up to n = 10^5.  The
Bernoulli-sum PMF is a blocked product tree whose cost grows about as n
times the realized support (25-35 ms for 10^5 coins at ``tail_cut=1e-9`` on
2 vCPUs with numpy 2.4.6).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from heapq import heappush, heapreplace
from operator import add

import numpy as np
from scipy.special import gammaln

__all__ = [
    "MASS_TOL",
    "MAX_WIDTH",
    "ExplicitDistribution",
    "Pbd",
    "TranslatedPoissonParams",
    "truncated_log",
    "pbd_pmf",
    "binomial_pmf",
    "translated_poisson_pmf",
    "tv_distance",
    "effective_support_interval",
    "unimodal_distance_lb",
    "unimodal_distance_exceeds",
    "merged_unimodal_distance_lb",
    "PerturbedBinomial",
    "construct_perturbed_binomial",
]

# Mass-conservation tolerance beyond any declared truncation slack.
MASS_TOL = 1e-9

# The widest array of points the package builds from outside input: a
# binomial or shifted-Poisson PMF, a sample pool's histogram, a coarse
# draw's interval, two laws aligned on their union, or an array of drawn
# samples.  Each is refused before it is allocated.
MAX_WIDTH = 1 << 26

# Coins per leaf of the product tree in ``pbd_pmf``.
_PBD_BLOCK = 64


@dataclass(frozen=True)
class ExplicitDistribution:
    """A PMF on the contiguous integer interval ``[lo, lo + len(probs) - 1]``.

    ``tail_slack`` is mass that a truncated construction dropped outright.
    It is reported, never folded back into the endpoints, and callers that
    care about exactness must budget for it.
    """

    lo: int
    probs: np.ndarray
    tail_slack: float = 0.0

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a 1-D array with at least one entry")
        if probs.min(initial=0.0) < -1e-12:
            raise ValueError("probs must be nonnegative")
        probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "lo", int(self.lo))
        if self.tail_slack < 0:
            raise ValueError("tail_slack must be nonnegative")
        total = float(probs.sum())
        if not (1.0 - self.tail_slack - MASS_TOL <= total <= 1.0 + MASS_TOL):
            raise ValueError(
                f"total mass {total} outside [1 - {self.tail_slack} - {MASS_TOL}, 1 + {MASS_TOL}]"
            )

    @property
    def hi(self) -> int:
        return self.lo + len(self.probs) - 1

    def variance(self) -> float:
        xs = self.lo + np.arange(len(self.probs))
        total = float(self.probs.sum())
        mu = float((xs * self.probs).sum() / total)
        return float(((xs - mu) ** 2 * self.probs).sum() / total)


@dataclass(frozen=True)
class Pbd:
    """Parameter vector of independent Bernoulli means; n = 0 is the point mass at 0."""

    ps: np.ndarray

    def __post_init__(self):
        ps = np.ascontiguousarray(self.ps, dtype=np.float64)
        if ps.ndim != 1:
            raise ValueError("ps must be 1-D")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not np.all((ps >= 0.0) & (ps <= 1.0)):
            raise ValueError("all p_i must lie in [0, 1]")
        object.__setattr__(self, "ps", ps)

    @property
    def n(self) -> int:
        return len(self.ps)

    def mean(self) -> float:
        return float(self.ps.sum())

    def variance(self) -> float:
        return float((self.ps * (1.0 - self.ps)).sum())


@dataclass(frozen=True)
class TranslatedPoissonParams:
    """Mean/variance pair defining a Poisson shifted to match both moments.

    The realised law is ``floor(mu - sigma2) + Poisson(sigma2 + frac)`` with
    ``frac`` the fractional part of ``mu - sigma2``.
    """

    mu: float
    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma2)):
            raise ValueError("mu and sigma2 must be finite")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        # Then the shift is an integer and the rate, sigma2 plus a fraction
        # in [0, 1), is positive and finite.
        if not math.isfinite(self.mu - self.sigma2):
            raise ValueError("mu - sigma2 must be finite")

    @property
    def shift(self) -> int:
        return math.floor(self.mu - self.sigma2)

    @property
    def rate(self) -> float:
        return self.sigma2 + ((self.mu - self.sigma2) - math.floor(self.mu - self.sigma2))


def truncated_log(x: float) -> float:
    """max(1, ln x); keeps logarithmic factors in thresholds away from zero."""
    if x <= 0.0:
        raise ValueError("truncated_log requires x > 0")
    return max(1.0, math.log(x))


def _trim_ends(probs: np.ndarray, budget: float) -> tuple[int, np.ndarray, float]:
    """Greedily drop end mass up to ``budget``, low end first, keeping one point.

    Returns the number of points dropped at the low end, the kept points and
    the dropped mass.  A zero budget drops exact zeros only.
    """
    # The array methods skip the np.* wrappers; the tree trims once per node.
    head = probs[:-1].cumsum()
    start = int(head.searchsorted(budget, side="right"))
    low = float(head[start - 1]) if start else 0.0
    tail = probs[:start:-1].cumsum()
    cut = int(tail.searchsorted(budget - low, side="right"))
    high = float(tail[cut - 1]) if cut else 0.0
    return start, probs[start : len(probs) - cut], low + high


def pbd_pmf(pbd: Pbd, tail_cut: float = 0.0) -> ExplicitDistribution:
    """Exact PMF of a Bernoulli sum as a product of the factors (1 - p_i + p_i x).

    The coins are split into blocks of ``_PBD_BLOCK``, the last one padded
    with p = 0 (the identity factor).  All block PMFs are built at once by
    the coin-by-coin recurrence ``new[k] = v[k] (1 - p) + v[k-1] p`` on a
    ``(steps + 1, blocks)`` array, steps = min(n, ``_PBD_BLOCK``), holding
    one block per column.  The interpreter takes ``steps`` steps instead
    of n, each on contiguous rows, and up to ``_PBD_BLOCK`` coins this is
    the sequential convolution, bit for bit.  One transpose makes each
    block PMF a contiguous row, and the block PMFs are then multiplied
    pairwise up a tree with direct
    ``np.convolve``: a sum of nonnegative terms keeps its relative accuracy,
    so underflowed tails stay exact zeros and are trimmed (FFT round-off
    would fill them).  The convolutions cost about n times the realized
    support.

    ``tail_cut`` is a global budget for mass dropped off the two ends; what
    is actually dropped is reported via ``tail_slack`` (the sum of the drops,
    an upper bound on the missing mass, never above ``tail_cut``) and never
    folded into the endpoints.  Over the L levels of the tree, a product of
    m coins may drop up to ``tail_cut * m / (n * L)``, and the root then
    spends whatever is left.
    """
    if not 0.0 <= tail_cut <= 1e-6:
        raise ValueError("tail_cut must lie in [0, 1e-6]")
    n = pbd.n
    if n == 0:
        return ExplicitDistribution(0, np.array([1.0]))
    blocks = -(-n // _PBD_BLOCK)
    steps = min(n, _PBD_BLOCK)
    ps = np.zeros(blocks * steps)
    ps[:n] = pbd.ps
    # Row j holds coin j of every block, so each step reads contiguous rows.
    ps = ps.reshape(blocks, steps).T.copy()
    leaves = np.zeros((steps + 1, blocks))
    leaves[0] = 1.0
    for j in range(steps):
        # Rows past j + 1 are still zero.
        p = ps[j]
        moved = leaves[: j + 1] * p
        leaves[: j + 1] *= 1.0 - p
        leaves[1 : j + 2] += moved
    leaves = leaves.T.copy()
    # Each node is (lo, probs, coins).  A zero budget still drops the exact
    # zeros that p = 0 and p = 1 coins leave at the ends.
    nodes = [(0, leaves[b], steps) for b in range(blocks)]
    nodes[-1] = (0, leaves[-1], n - (blocks - 1) * steps)
    levels = math.ceil(math.log2(blocks))
    dropped = 0.0
    while len(nodes) > 1:
        paired = []
        for (lo_a, a, m_a), (lo_b, b, m_b) in zip(nodes[::2], nodes[1::2]):
            m = m_a + m_b
            start, probs, mass = _trim_ends(np.convolve(a, b), tail_cut * m / (n * levels))
            dropped += mass
            paired.append((lo_a + lo_b + start, probs, m))
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    lo, probs, _ = nodes[0]
    start, probs, mass = _trim_ends(probs, tail_cut - dropped)
    return ExplicitDistribution(lo + start, probs, tail_slack=dropped + mass)


def binomial_pmf(n: int, p: float, tail_cut: float = 0.0) -> ExplicitDistribution:
    """Binomial(n, p) PMF on a window missing at most ``tail_cut`` mass.

    With ``tail_cut = 0`` the window is the full support [0, n].  Otherwise
    it is the Bernstein window [n p - t, n p + t] widened by one point on
    each side, with t = L/3 + sqrt(L^2/9 + 2 sigma^2 L), L = ln(2/tail_cut)
    and sigma^2 = n p (1 - p): the two-sided Bernstein bound puts at most
    ``tail_cut`` mass outside it.  The dropped mass is reported as
    ``tail_slack = max(0, 1 - sum)``.  Every kept point has the same value
    as on the full support, and at p = 1/2 the window is symmetric.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 <= tail_cut <= 1e-6:
        raise ValueError("tail_cut must lie in [0, 1e-6]")
    lo, hi = 0, n
    if tail_cut > 0.0:
        level = math.log(2.0 / tail_cut)
        t = level / 3.0 + math.sqrt(level * level / 9.0 + 2.0 * n * p * (1.0 - p) * level)
        # The upper end is the lower end of the mirror law Binomial(n, 1 - p),
        # so at p = 1/2 the two ends are computed from the same float.
        lo = max(0, math.floor(n * p - t) - 1)
        hi = n - max(0, math.floor(n * (1.0 - p) - t) - 1)
    if hi - lo + 1 > MAX_WIDTH:
        raise ValueError(f"binomial window of width {hi - lo + 1} is too large to build")
    if p == 0.0 or p == 1.0:
        probs = np.zeros(hi - lo + 1)
        probs[int(n * p) - lo] = 1.0
        return ExplicitDistribution(lo, probs)
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    # On a symmetric window gammaln(n - k + 1) is gammaln(k + 1) read
    # backwards: the arguments are the same exact integers.  Grouping the two
    # factorial terms keeps the expression, hence the PMF, bit-exactly
    # symmetric under i <-> n - i.
    log_fact = gammaln(ks + 1.0)
    log_rest = log_fact[::-1] if lo == n - hi else gammaln(n - ks + 1.0)
    log_binom = gammaln(n + 1.0) - (log_fact + log_rest)
    if p == 0.5:
        # Constant term keeps P(i) == P(n-i) bit-exact.
        log_pmf = log_binom - n * math.log(2.0)
    else:
        log_pmf = log_binom + ks * math.log(p) + (n - ks) * math.log1p(-p)
    probs = np.exp(log_pmf)
    slack = max(0.0, 1.0 - float(probs.sum())) if tail_cut > 0.0 else 0.0
    return ExplicitDistribution(lo, probs, tail_slack=slack)


def translated_poisson_pmf(
    tp: TranslatedPoissonParams, tail_cut: float = 1e-9
) -> ExplicitDistribution:
    """PMF of the shifted Poisson on an interval missing at most ``tail_cut`` mass."""
    if not 0.0 < tail_cut <= 1e-6:
        raise ValueError("tail_cut must lie in (0, 1e-6]")
    lam = tp.rate
    level = math.log(2.0 / tail_cut)
    z_lo = max(0, math.floor(lam - math.sqrt(2.0 * lam * level)) - 1)
    z_hi = math.ceil(lam + level + math.sqrt(level * level + 2.0 * lam * level)) + 1
    if z_hi - z_lo + 1 > MAX_WIDTH:
        raise ValueError(f"shifted-Poisson window of width {z_hi - z_lo + 1} is too large to build")
    zs = np.arange(z_lo, z_hi + 1, dtype=np.float64)
    log_pmf = zs * math.log(lam) - lam - gammaln(zs + 1.0)
    probs = np.exp(log_pmf)
    slack = max(0.0, 1.0 - float(probs.sum()))
    return ExplicitDistribution(tp.shift + z_lo, probs, tail_slack=slack)


def _on_interval(values: np.ndarray, lo: int, a: int, b: int) -> np.ndarray:
    """``values``, whose first entry sits at ``lo``, placed on [a, b] with zero padding."""
    out = np.zeros(b - a + 1, dtype=values.dtype)
    start, end = max(a, lo), min(b, lo + len(values) - 1)
    if start <= end:
        out[start - a : end - a + 1] = values[start - lo : end - lo + 1]
    return out


def _on_union(
    a_lo: int, a: np.ndarray, b_lo: int, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b``, whose first entries sit at ``a_lo`` and ``b_lo``, zero-padded
    onto the union of their ranges; a union wider than ``MAX_WIDTH`` raises."""
    lo = min(a_lo, b_lo)
    hi = max(a_lo + len(a), b_lo + len(b)) - 1
    if hi - lo + 1 > MAX_WIDTH:
        raise ValueError(f"union support of width {hi - lo + 1} is too large to align")
    return _on_interval(a, a_lo, lo, hi), _on_interval(b, b_lo, lo, hi)


def tv_distance(p: ExplicitDistribution, q: ExplicitDistribution) -> float:
    """Total variation distance: half the sum of absolute differences over the union."""
    a, b = _on_union(p.lo, p.probs, q.lo, q.probs)
    return 0.5 * float(np.abs(a - b).sum())


def effective_support_interval(p: ExplicitDistribution, eps: float) -> tuple[int, int]:
    """Smallest contiguous interval holding at least ``1 - eps`` mass.

    Ties go to the smallest left endpoint.  Raises when no interval can
    reach the target, as when ``tail_slack`` leaves less than ``1 - eps``
    on the support.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    target = 1.0 - eps
    cs = np.concatenate(([0.0], np.cumsum(p.probs)))
    if cs[-1] < target:
        raise ValueError("no contiguous interval reaches 1 - eps mass")
    start, end = _shortest_stretch(p.probs, cs, target)
    return p.lo + start, p.lo + end - 1


def _shortest_stretch(probs: np.ndarray, cs: np.ndarray, target: float) -> tuple[int, int]:
    """``[start, end)`` of the shortest stretch of ``probs`` holding ``target``
    mass, the first of equal ones.  ``cs`` is ``probs``' cumulative sum after
    a leading 0.0, and ``0 < target <= cs[-1]``."""
    # A shortest stretch starts on mass: one starting on a zero ends where
    # the next start with mass ends, so it is longer.
    starts = np.flatnonzero(probs)
    ends = np.searchsorted(cs, cs[starts] + target, side="left")
    lengths = np.where(ends <= len(probs), ends - starts, np.iinfo(np.int64).max)
    best = int(np.argmin(lengths))
    return int(starts[best]), int(ends[best])


class _PrefixPass:
    """The least l1 distances from the prefixes of y to nondecreasing sequences.

    ``costs[t]`` is the distance for y[:t].  One pass with a max-heap of
    kept values (Stout, *Unimodal regression via prefix isotonic
    regression*, CSDA 2008): a new value below the largest kept one pays
    the gap, and that kept value is lowered to it.  heapq is a min-heap, so
    the heap holds negated values.  The pass is resumable: ``run`` takes it
    on from where it stopped, heap and cost included, so every cost is the
    float a single pass over y computes.
    """

    def __init__(self, y: np.ndarray):
        self._xs = (-y).tolist()
        self._heap: list[float] = []
        self.costs = [0.0]

    def run(self, end: int, stop_above: float = math.inf) -> None:
        """Take the pass on to ``costs[end]``, but no step past a cost above
        ``stop_above``."""
        heap, costs = self._heap, self.costs
        cost = costs[-1]
        for x in self._xs[len(costs) - 1 : end]:
            if cost > stop_above:
                return
            if heap and x > heap[0]:
                # The largest kept value exceeds the new one: pay the gap and lower it.
                cost += x - heapreplace(heap, x)
            heappush(heap, x)
            costs.append(cost)


def _in_window(q: ExplicitDistribution, window: tuple[int, int] | None) -> np.ndarray:
    p = q.probs
    if window is None:
        return p
    a = max(window[0] - q.lo, 0)
    b = min(window[1] - q.lo + 1, len(p))
    return p[a:b] if a < b else p[:0]


def _half_unimodal_l1(p: np.ndarray, level: float = math.inf) -> float:
    """Half the least l1 distance from p to a unimodal sequence, up to ``level``.

    A split at t fits p[:t] nondecreasing and p[t:] nonincreasing, at cost
    f[t] + g[t] from a forward and a backward prefix pass.  The forward
    cost f[t] never falls as t grows, nor the backward cost g[t] as t
    falls, and adding a nonnegative float never lowers a sum, so a pass can
    stop after its first cost above the least sum found so far, or above
    2 * level: no split past that stop gives a smaller sum, nor one at most
    2 * level.  The passes first run to the split at the mode, the first
    largest entry, where they meet after m steps in all; then the forward
    pass runs on while its cost is at most the least sum and 2 * level, and
    the backward pass after it.  On histograms close to unimodal that is
    1.16-1.35 m steps, against 2 m for two full passes.  The value is exact
    when it is at most ``level`` and above ``level`` otherwise; it is inf
    when no split was reached by both.  Since a sum above 2 * level never
    lowers the stops, the value is bit for bit that of two passes each
    stopped only by 2 * level.  Doubling the level and halving a sum above
    it are exact once the level is at least the smallest normal float;
    below that, and at the default level, only the least sum stops a pass.
    """
    bound = 2.0 * level if level >= sys.float_info.min else math.inf
    m = len(p)
    f = _PrefixPass(p)  # f[t] = f.costs[t]
    h = _PrefixPass(p[::-1])  # g[t] = h.costs[m - t]

    def least_sum() -> float:
        # Over the splits t in [m - j, i] that both passes reached.
        i, j = len(f.costs) - 1, len(h.costs) - 1
        if m - j > i:
            return math.inf
        return min(map(add, f.costs[m - j : i + 1], reversed(h.costs[m - i : j + 1])))

    mode = int(p.argmax()) if m else 0
    f.run(mode, bound)
    h.run(m - mode, bound)
    f.run(m, min(least_sum(), bound))
    h.run(m, min(least_sum(), bound))
    return 0.5 * least_sum()


def unimodal_distance_lb(
    q: ExplicitDistribution, window: tuple[int, int] | None = None
) -> float:
    """Half the least l1 distance from q, inside ``window``, to a unimodal sequence.

    A unimodal distribution restricted to the window is a nonnegative
    unimodal sequence there, and dropping the unit-mass constraint only
    lowers the minimum, so this is a certified lower bound on TV(q, U)
    over all unimodal U.  ``window`` is in absolute coordinates; None
    takes the whole support.  Cost is O(w log w) in the window's width w.
    A caller that only compares the value with a level should call
    ``unimodal_distance_exceeds``, which decides it with less work.
    """
    return _half_unimodal_l1(_in_window(q, window))


def unimodal_distance_exceeds(
    q: ExplicitDistribution, level: float, window: tuple[int, int] | None = None
) -> bool:
    """Exactly ``unimodal_distance_lb(q, window) > level``, with less work.

    Write cert(X) for the certificate on a stretch X, W for the window and
    S for its mass core: the shortest stretch of W holding all but
    ``level`` of W's mass.  Two facts hold: cert(S) <= cert(W), since a
    unimodal sequence stays unimodal on a stretch, and cert(W) <= cert(S)
    + r / 2, with r the mass of W outside S, since S's best fit padded
    with zeros stays unimodal.  So the answer is True when cert(S) exceeds
    ``level``, and False when cert(S) + r / 2 falls short of it, each by a
    relative margin of 4 (w + 2) 2^-53 on a w-point window: every cost,
    and r, is a float sum of at most w + 1 rounded nonnegative terms, so
    it lies within a quarter of that margin of its exact value.
    Otherwise, and for a level below the smallest normal float or a window
    wider than ``MAX_WIDTH``, it decides on W.  Each decision comes from
    passes that stop once their cost exceeds twice the level they are
    held to (see ``_half_unimodal_l1``).
    """
    p = _in_window(q, window)
    if level >= sys.float_info.min and len(p) <= MAX_WIDTH:
        cs = np.concatenate(([0.0], np.cumsum(p)))
        target = cs[-1] - level
        if target > 0.0:
            start, end = _shortest_stretch(p, cs, target)
            margin = (len(p) + 2) * 2.0**-51
            high = level * (1.0 + margin)
            core = _half_unimodal_l1(p[start:end], high)
            if core > high:
                return True
            outside = float(p[:start].sum()) + float(p[end:].sum())
            if core + 0.5 * outside < level * (1.0 - margin):
                return False
    return bool(_half_unimodal_l1(p, level) > level)


def merged_unimodal_distance_lb(q: ExplicitDistribution) -> float:
    """``unimodal_distance_lb`` on q's support after merging each run of zeros into one zero.

    Block sums of a unimodal sequence are unimodal and cannot raise an l1
    distance, so the merged value is still a certified lower bound on
    TV(q, U) over all unimodal U.  It can be smaller than the unmerged
    value, but its cost is O(m log m) in the m points with mass plus one
    pass over the support: an empirical law with mass only at 0 and n
    costs three points, not n + 1.
    """
    nonzero = q.probs != 0.0
    # Keep every point with mass and the first zero of every zero run.
    keep = nonzero.copy()
    keep[0] = True
    keep[1:] |= nonzero[:-1]
    return _half_unimodal_l1(q.probs[keep])


@dataclass(frozen=True)
class PerturbedBinomial:
    """Sign-perturbed fair binomial; requires c * eps < 1 so masses stay positive."""

    n: int
    c: float
    eps: float
    z: np.ndarray

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError("n must be a positive even integer")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (0.0 <= self.c < math.inf and 0.0 <= self.eps < math.inf):
            raise ValueError("c and eps must be finite and nonnegative")
        if not self.c * self.eps < 1.0:
            raise ValueError("need c * eps < 1 for nonnegative masses")
        z = np.asarray(self.z)
        if z.shape != (self.n // 2,):
            raise ValueError("z must have length n/2")
        # Checked before the int8 cast, which would wrap 257 to 1.
        if not np.all((z == 1) | (z == -1)):
            # Names the field as a spec's errors do: distspec has no z check of its own.
            raise ValueError("z entries must be +1 or -1 (field 'z')")
        object.__setattr__(self, "z", np.ascontiguousarray(z, dtype=np.int8))


def construct_perturbed_binomial(pb: PerturbedBinomial) -> ExplicitDistribution:
    """Exact PMF of the perturbed binomial on [0, n]."""
    return _perturb_fair_binomial(pb, binomial_pmf(pb.n, 0.5))


def _perturb_fair_binomial(
    pb: PerturbedBinomial, base: ExplicitDistribution
) -> ExplicitDistribution:
    # ``base`` is binomial_pmf(pb.n, 0.5): callers drawing many members of
    # one family build it once.
    q = base.probs.copy()
    half = pb.n // 2
    a = pb.c * pb.eps
    scale = a * pb.z.astype(np.float64)
    q[:half] *= 1.0 - scale
    # Point n - i mirrors point i with the opposite sign of the same z_i.
    q[half + 1 :] *= 1.0 + scale[::-1]
    return ExplicitDistribution(0, q)
