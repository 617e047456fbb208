"""Moment estimation and a proper-learning stage for Bernoulli-sum laws.

``learn_pbd`` mirrors the interface of the cited Õ(1/eps^2) learner: it
returns either a sparse explicit hypothesis on a short interval or a
binomial fit, and when the source really is a Bernoulli sum the hypothesis
is eps-close in TV with high frequency (checked by Monte Carlo, not
guaranteed per call).

The sparse hypothesis is the empirical distribution projected onto the
unimodal cone.  The projection is what keeps the downstream membership
test sound: every Bernoulli-sum law is log-concave hence unimodal, so a
source far from all of them stays far from any unimodal hypothesis, while
for true sources the projection moves the empirical by at most the order
of its own estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import isotonic_regression

from .calibrated import TestConfig
from .distributions import (
    ExplicitDistribution,
    binomial_pmf,
    effective_support_interval,
    truncated_log,
    tv_distance,
)
from .sampling import SampleStream

__all__ = [
    "MomentEstimates",
    "SparseHypothesis",
    "BinomialHypothesis",
    "LearnedPbd",
    "estimate_mean_var",
    "fit_binomial_by_moments",
    "unimodal_projection",
    "learn_pbd",
]

FIT_CHECK_MULT = 3.0  # binomial fit accepted within this many noise widths


@dataclass(frozen=True)
class MomentEstimates:
    mu_hat: float
    sigma2_hat: float
    eps_prime: float
    samples_used: int


@dataclass(frozen=True)
class SparseHypothesis:
    dist: ExplicitDistribution


@dataclass(frozen=True)
class BinomialHypothesis:
    n: int
    p: float


@dataclass(frozen=True)
class LearnedPbd:
    """Learner output: a sparse explicit hypothesis or a binomial fit."""

    hypothesis: SparseHypothesis | BinomialHypothesis
    samples_used: int
    mu_hat: float
    sigma2_hat: float
    tail_cut: float = 0.0  # mass the binomial fit's PMF may drop off its ends

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.hypothesis, SparseHypothesis)

    def to_explicit(self) -> ExplicitDistribution:
        if self.is_sparse:
            return self.hypothesis.dist
        return self._binomial_pmf

    @cached_property
    def _binomial_pmf(self) -> ExplicitDistribution:
        # Built once: the fit check and the tester's stage share it.
        return binomial_pmf(self.hypothesis.n, self.hypothesis.p, tail_cut=self.tail_cut)

    def variance(self) -> float:
        if self.is_sparse:
            return self.hypothesis.dist.variance()
        return self.hypothesis.n * self.hypothesis.p * (1.0 - self.hypothesis.p)


def estimate_mean_var(
    stream: SampleStream, eps_prime: float, sample_const: float
) -> MomentEstimates:
    """Empirical mean and unbiased variance from ceil(sample_const / eps'^2) samples.

    For Bernoulli-sum sources the estimates satisfy |mu - mu_hat| < eps' * sigma
    and |sigma^2 - sigma2_hat| < eps' * sigma^2 * sqrt(4 + 1/sigma^2) with
    frequency >= 0.99 at the default ``TestConfig.moment_sample_const``
    (Monte Carlo checked).
    """
    if not 0.0 < eps_prime < 1.0:
        raise ValueError("eps_prime must lie in (0, 1)")
    k = math.ceil(sample_const / eps_prime**2)
    hist = stream.draw_histogram(k)
    mu, var = hist.moments()
    return MomentEstimates(mu, var, eps_prime, k)


def fit_binomial_by_moments(mu_hat: float, sigma2_hat: float, n: int) -> BinomialHypothesis:
    """Method-of-moments binomial fit, clamped to a valid parameterization.

    After rounding and clamping the trial count, p is re-solved against it
    so the fitted mean tracks mu_hat exactly; a mean offset costs far more
    TV than the slight variance mismatch this leaves behind.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu_hat <= 0.0 or n == 1:
        # One trial leaves nothing to fit: its p is the mean itself.
        return BinomialHypothesis(1, min(max(0.0, mu_hat), 1.0))
    p = 1.0 - sigma2_hat / mu_hat
    p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    n_fit = int(round(mu_hat / p))
    n_fit = min(max(n_fit, 1), n)
    p = min(max(mu_hat / n_fit, 0.0), 1.0)
    return BinomialHypothesis(n_fit, p)


def unimodal_projection(probs: np.ndarray) -> np.ndarray:
    """Project a nonnegative vector onto the unimodal cone and renormalize.

    Mode candidate is the argmax; each side gets a pool-adjacent-violators
    fit (least squares), the mode takes the larger of the two boundary
    values, and the result is rescaled to total mass 1.
    """
    m = len(probs)
    if m <= 2:
        return probs / probs.sum()
    j = int(np.argmax(probs))
    left = isotonic_regression(probs[: j + 1], increasing=True).x if j > 0 else probs[:1].copy()
    right = (
        isotonic_regression(probs[j:], increasing=False).x if j < m - 1 else probs[-1:].copy()
    )
    out = np.empty(m)
    out[:j] = left[:-1]
    out[j + 1 :] = right[1:]
    out[j] = max(left[-1], right[0])
    out = np.maximum(out, 0.0)
    return out / out.sum()


def learn_pbd(
    stream: SampleStream, n: int, eps: float, config: TestConfig, max_samples: int | None = None
) -> LearnedPbd:
    """Learn a Bernoulli-sum hypothesis from one seeded sample pool.

    The constants come from ``config``, whose own eps is not read: the
    tester learns at eps/10 of the eps it tests at.  One histogram of
    ceil(A_L * logt^2(1/eps) / eps^2) samples, capped at ``max_samples``,
    feeds the moment estimates, the binomial goodness check and, on the
    sparse route, the empirical distribution; a single pool keeps the
    total inside the advertised sample budget.

    Routing: variance at or above A_t / eps^6 forces a binomial fit;
    otherwise the moment fit is kept when it explains the empirical within
    noise, and the fallback is the empirical distribution on at most
    ceil(A_s / eps^3) points, projected onto the unimodal cone.  Both
    routes are safe for the downstream membership test - a binomial is
    itself a Bernoulli-sum law, and far sources stay far from any unimodal
    hypothesis.

    A binomial fit's PMF is built on the window missing at most
    ``config.tail_cut`` mass (see ``binomial_pmf``).

    Always returns a well-formed hypothesis; distance guarantees are
    conditional on the source being a Bernoulli-sum law.  A stream that
    can draw a value outside [0, n] raises ``ValueError`` before any draw.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    stream.require_within(n)
    budget = math.ceil(config.learn_sample_const * truncated_log(1.0 / eps) ** 2 / eps**2)
    if max_samples is not None:
        budget = min(budget, max_samples)
    if budget < 1:
        # Degenerate budget: fall back to the point mass at 0 so callers
        # never see a half-built hypothesis.
        hyp = SparseHypothesis(ExplicitDistribution(0, np.array([1.0])))
        return LearnedPbd(hyp, 0, 0.0, 0.0)
    hist = stream.draw_histogram(budget)
    mu_hat, sigma2_hat = hist.moments()

    if sigma2_hat >= config.learn_sparse_threshold_const / eps**6:
        fit = fit_binomial_by_moments(mu_hat, sigma2_hat, max(n, 1))
        return LearnedPbd(fit, budget, mu_hat, sigma2_hat, config.tail_cut)

    emp = hist.to_empirical()
    if sigma2_hat >= 1.0:
        fit = fit_binomial_by_moments(mu_hat, sigma2_hat, max(n, 1))
        learned = LearnedPbd(fit, budget, mu_hat, sigma2_hat, config.tail_cut)
        noise = 0.4 * math.sqrt(emp.support_len / budget)
        tolerance = max(eps / 8.0, FIT_CHECK_MULT * noise)
        if tv_distance(emp, learned.to_explicit()) <= tolerance:
            return learned

    lo, hi = effective_support_interval(emp, eps / 10.0)
    cap = math.ceil(config.sparse_len_const / eps**3)
    if hi - lo + 1 > cap:
        lo, hi = _densest_window(emp, cap)
    window = emp.probs[lo - emp.lo : hi - emp.lo + 1]
    projected = unimodal_projection(window)
    hyp = SparseHypothesis(ExplicitDistribution(lo, projected))
    return LearnedPbd(hyp, budget, mu_hat, sigma2_hat)


def _densest_window(dist: ExplicitDistribution, length: int) -> tuple[int, int]:
    """Length-capped window of maximal mass (first such window)."""
    p = dist.probs
    if len(p) <= length:
        return dist.lo, dist.hi
    cs = np.concatenate(([0.0], np.cumsum(p)))
    masses = cs[length:] - cs[: len(p) - length + 1]
    start = int(np.argmax(masses))
    return dist.lo + start, dist.lo + start + length - 1
