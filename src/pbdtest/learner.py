"""Moment estimation and a learning stage for Bernoulli-sum laws.

``learn_pbd`` mirrors the interface of the cited Õ(1/eps^2) learner: its
hypothesis is either a binomial fit or a sparse explicit distribution on a
short interval, and when the source really is a Bernoulli sum the
hypothesis is eps-close in TV with high frequency (checked by Monte Carlo,
not guaranteed per call).  Either way it is handed on as one explicit PMF.
One check picks the route: the moment-matched binomial is kept when it
explains the learning sample within noise, and the sparse route takes
every other sample, however large its variance.

The sparse hypothesis is the empirical distribution projected onto the
unimodal cone.  Unimodality keeps the downstream membership test sound in
two ways, since every Bernoulli-sum law is log-concave hence unimodal.
On the sparse route the learner reads the unimodal certificate
(``distributions.merged_unimodal_distance_lb``) of its own learning
sample, and flags the draw as not unimodal when the certificate clears
``FIT_CHECK_MULT`` plug-in noise widths: the tester then rejects on that
sample alone.  Otherwise the projection keeps a source that is far from
every unimodal law far from the hypothesis, while for true sources it
moves the empirical by at most the order of its own estimation error.
That is the whole guarantee: the projection is unimodal, not a
Bernoulli-sum law, so a unimodal source far from every Bernoulli-sum law,
such as the uniform law on {0, 1, 2} at n = 3, can be learned closely and
then accepted.  The learner is proper on the binomial route only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .calibrated import TestConfig
from .distributions import (
    ExplicitDistribution,
    binomial_pmf,
    effective_support_interval,
    merged_unimodal_distance_lb,
    tv_distance,
)
from .sampling import SampleStream

__all__ = [
    "LearnedPbd",
    "estimate_mean_var",
    "fit_binomial_by_moments",
    "unimodal_projection",
    "learn_pbd",
]

FIT_CHECK_MULT = 3.0  # binomial fit accepted, unimodality refused, at this many noise widths


@dataclass(frozen=True)
class LearnedPbd:
    """Learner output: the hypothesis as one explicit PMF.

    ``binomial`` is the (trials, p) of a binomial fit, whose PMF ``dist``
    is built on the window missing at most ``config.tail_cut`` mass; it is
    ``None`` for a sparse hypothesis, which ``dist`` holds as it is.
    """

    dist: ExplicitDistribution
    binomial: tuple[int, float] | None
    mu_hat: float
    sigma2_hat: float
    # Sparse route only: the learning sample's unimodal certificate and the
    # limit above which the sample is certifiably not from a unimodal law.
    unimodal_lb: float | None = None
    unimodal_lb_threshold: float | None = None

    @property
    def not_unimodal(self) -> bool:
        return self.unimodal_lb is not None and self.unimodal_lb > self.unimodal_lb_threshold

    def variance(self) -> float:
        """The hypothesis variance; exact n p (1 - p) for a binomial fit."""
        if self.binomial is None:
            return self.dist.variance()
        n, p = self.binomial
        return n * p * (1.0 - p)


def estimate_mean_var(stream: SampleStream, k: int) -> tuple[float, float]:
    """``(mu_hat, sigma2_hat)``: the empirical mean and unbiased variance of k samples.

    At the heavy branch's k, ``config.moment_samples(n)``, the estimates
    for a Bernoulli-sum source satisfy |mu - mu_hat| < eps' * sigma and
    |sigma^2 - sigma2_hat| < eps' * sigma^2 * sqrt(4 + 1/sigma^2) with
    frequency >= 0.99 at the default ``moment_sample_const`` (Monte Carlo
    checked).
    """
    return stream.draw_histogram(k).moments()


def fit_binomial_by_moments(mu_hat: float, sigma2_hat: float, n: int) -> tuple[int, float]:
    """Method-of-moments binomial fit (trials, p), clamped to a valid parameterization.

    After rounding and clamping the trial count, p is re-solved against it
    so the fitted mean tracks mu_hat exactly; a mean offset costs far more
    TV than the slight variance mismatch this leaves behind.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mu_hat <= 0.0 or n == 1:
        # One trial leaves nothing to fit: its p is the mean itself.
        return 1, min(max(0.0, mu_hat), 1.0)
    p = 1.0 - sigma2_hat / mu_hat
    p = min(max(p, 1.0 / n), 1.0 - 1.0 / n)
    n_fit = int(round(mu_hat / p))
    n_fit = min(max(n_fit, 1), n)
    p = min(max(mu_hat / n_fit, 0.0), 1.0)
    return n_fit, p


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
    tester learns at eps / D of the eps it tests at, D being
    ``config.learn_accuracy_const``.  One histogram of
    ``config.learn_samples(eps)`` samples, capped at ``max_samples``, feeds
    the moment estimates, the binomial goodness check and, on the sparse
    route, the empirical distribution; a single pool keeps the total inside
    the advertised sample budget.

    Routing: at a sample variance of at least 1 the moment fit is kept
    when it explains the empirical within max(eps / 8, ``FIT_CHECK_MULT``
    noise widths); otherwise the hypothesis is the empirical distribution
    on at most ceil(A_s / eps^3) points, projected onto the unimodal cone.
    This check is the only route to the fit: a source so wide that its
    samples rarely repeat passes it, since ``FIT_CHECK_MULT`` noise widths
    then pass 1, the largest TV.  A
    binomial is itself a Bernoulli-sum law, but the projection keeps only
    sources far from every unimodal law far from the hypothesis: a unimodal
    source far from every Bernoulli-sum law can pass the downstream
    membership test (a known gap).  The sparse route also records the
    zero-merged unimodal certificate of the histogram and its threshold,
    ``FIT_CHECK_MULT`` plug-in noise widths; ``not_unimodal`` is set when
    the certificate exceeds it.

    The result's ``dist`` is the hypothesis either way: a binomial fit's
    PMF is built here, once, on the window missing at most
    ``config.tail_cut`` mass (see ``binomial_pmf``), and ``binomial``
    keeps its (trials, p).

    Always returns a well-formed hypothesis; distance guarantees are
    conditional on the source being a Bernoulli-sum law.  A stream that
    can draw a value outside [0, n] raises ``ValueError`` before any draw.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    stream.require_within(n)
    budget = config.learn_samples(eps)
    if max_samples is not None:
        budget = min(budget, max_samples)
    if budget < 1:
        # Degenerate budget: fall back to the point mass at 0 so callers
        # never see a half-built hypothesis.
        return LearnedPbd(ExplicitDistribution(0, np.array([1.0])), None, 0.0, 0.0)
    hist = stream.draw_histogram(budget)
    mu_hat, sigma2_hat = hist.moments()
    emp = hist.to_empirical()
    # Plug-in width of E TV(empirical, source) ~ sum_i sqrt(p_i / (2 pi k)):
    # points never drawn add nothing, however far the histogram is padded.
    noise = 0.4 * float(np.sqrt(emp.probs).sum()) / math.sqrt(budget)
    if sigma2_hat >= 1.0:
        fit = fit_binomial_by_moments(mu_hat, sigma2_hat, max(n, 1))
        dist = binomial_pmf(*fit, tail_cut=config.tail_cut)
        if tv_distance(emp, dist) <= max(eps / 8.0, FIT_CHECK_MULT * noise):
            return LearnedPbd(dist, fit, mu_hat, sigma2_hat)

    lo, hi = effective_support_interval(emp, eps / 10.0)
    cap = math.ceil(config.sparse_len_const / eps**3)
    if hi - lo + 1 > cap:
        lo, hi = _densest_window(emp, cap)
    window = emp.probs[lo - emp.lo : hi - emp.lo + 1]
    projected = unimodal_projection(window)
    # Every Bernoulli-sum law P is unimodal, so the certificate is at most
    # TV(empirical, P), which stays within a few noise widths.
    return LearnedPbd(
        ExplicitDistribution(lo, projected),
        None,
        mu_hat,
        sigma2_hat,
        unimodal_lb=merged_unimodal_distance_lb(emp),
        unimodal_lb_threshold=FIT_CHECK_MULT * noise,
    )


def _densest_window(dist: ExplicitDistribution, length: int) -> tuple[int, int]:
    """Length-capped window of maximal mass (first such window)."""
    p = dist.probs
    if len(p) <= length:
        return dist.lo, dist.hi
    cs = np.concatenate(([0.0], np.cumsum(p)))
    masses = cs[length:] - cs[: len(p) - length + 1]
    start = int(np.argmax(masses))
    return dist.lo + start, dist.lo + start + length - 1
