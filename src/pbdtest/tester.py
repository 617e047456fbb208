"""The membership test: is the sampled distribution a Bernoulli-sum law?

The base test learns a hypothesis, then branches on its variance:

* sparse branch - coarsen both the unknown and the hypothesis to a short
  high-mass interval and run the simple tolerant identity test there;
* heavy branch - pivot through the shifted Poisson matched to estimated
  moments, reject on an impossible variance or a hypothesis that sits far
  from the pivot, otherwise decide with the unbiased squared-l2 count
  statistic under Poissonized sampling.

``test_pbd`` amplifies the base test by majority over independent
sub-streams and stops once the majority is decided.  Every stage draws
from its own split of the caller's stream, so verdicts replay bit-for-bit
from (seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibrated import TestConfig
from .distributions import (
    ExplicitDistribution,
    TranslatedPoissonParams,
    effective_support_interval,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
)
from .learner import MomentEstimates, estimate_mean_var, learn_pbd
from .sampling import SampleHistogram, SampleStream, StreamExhausted

__all__ = [
    "Verdict",
    "Branch",
    "Closeness",
    "TestConfig",
    "TestVerdict",
    "truncated_log",
    "simple_tolerant_identity_test",
    "l2_statistic",
    "l2_statistic_counts",
    "heavy_case_test",
    "run_budgeted_test",
    "test_pbd",
]


class Verdict(str, Enum):
    YES_PBD = "yes_pbd"
    NO_PBD = "no_pbd"


class Branch(str, Enum):
    SPARSE = "sparse"
    HEAVY = "heavy"


class Closeness(str, Enum):
    CLOSE = "close"
    FAR = "far"


# Stage indices for stream splitting inside one base run.
_STAGE_LEARN = 0
_STAGE_TOLERANT = 1
_STAGE_MOMENTS = 2
_STAGE_L2 = 3


@dataclass(frozen=True)
class TestVerdict:
    __test__ = False

    verdict: Verdict
    branch: Branch
    samples_used: int
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "branch": self.branch.value,
            "samples_used": self.samples_used,
            "diagnostics": self.diagnostics,
        }


def simple_tolerant_identity_test(
    q: ExplicitDistribution,
    hist: SampleHistogram,
    eps: float,
    sample_const: float,
) -> tuple[Closeness, float]:
    """Close iff the empirical distribution on q's support sits within 0.25 eps of q.

    Samples outside q's support count on the overflow sentinel.  Returns the
    outcome and the TV distance.  Distinguishes TV <= eps/10 from TV > 2 eps/5
    with frequency >= 0.99 given ceil(sample_const * m / eps^2) samples on a
    support of size m.
    """
    required = math.ceil(sample_const * q.support_len / eps**2)
    if hist.total < required:
        raise ValueError(f"need at least {required} samples, got {hist.total}")
    tv = tv_distance(hist.to_empirical((q.lo, q.hi)), q)
    return (Closeness.CLOSE if tv < 0.25 * eps else Closeness.FAR), tv


def l2_statistic_counts(counts: np.ndarray, lo: int, q: ExplicitDistribution, k: float) -> float:
    """The unbiased squared-l2 statistic from raw per-symbol counts.

    Sums (K_i - k Q(i))^2 - K_i over the union of the observed range and
    q's support; q is 0 outside its support.  May be negative.
    """
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    u_lo = min(lo, q.lo)
    u_hi = max(lo + len(counts) - 1, q.hi)
    width = u_hi - u_lo + 1
    c = np.zeros(width)
    c[lo - u_lo : lo - u_lo + len(counts)] = counts
    lam_p = np.zeros(width)
    lam_p[q.lo - u_lo : q.lo - u_lo + q.support_len] = k * q.probs
    return float((((c - lam_p) ** 2) - c).sum() / (k * k))


def l2_statistic(hist: SampleHistogram, q: ExplicitDistribution) -> float:
    """Statistic for a Poissonized histogram against a known q; E = l2^2(P, q)."""
    if not hist.poissonized:
        raise ValueError("the statistic requires Poissonized sampling")
    return l2_statistic_counts(hist.counts, hist.lo, q, hist.nominal_rate)


def heavy_case_test(
    stream: SampleStream,
    n: int,
    config: TestConfig,
    moments: MomentEstimates,
    hypothesis: ExplicitDistribution,
    diag: dict | None = None,
) -> TestVerdict:
    """Heavy-branch decision given moment estimates and the learned hypothesis.

    Rejects when the pivot sits far from the hypothesis or the variance
    estimate exceeds n/2; otherwise thresholds the Poissonized statistic.
    A tie at the threshold resolves to acceptance.  Diagnostics go into
    ``diag`` as they are known, so a caller whose stream runs out at the
    Poissonized draw still holds the earlier ones.
    """
    eps = config.eps
    diag = {} if diag is None else diag
    diag.update(
        mu_hat=moments.mu_hat, sigma2_hat=moments.sigma2_hat, moment_samples=moments.samples_used
    )
    if moments.sigma2_hat <= 0.0:
        diag["reason"] = "nonpositive variance estimate in heavy branch"
        return TestVerdict(Verdict.NO_PBD, Branch.HEAVY, moments.samples_used, diag)
    if moments.sigma2_hat > n / 2.0:
        # No Bernoulli-sum law on [0, n] has variance beyond n/4.
        diag["reason"] = "variance above n/2"
        return TestVerdict(Verdict.NO_PBD, Branch.HEAVY, moments.samples_used, diag)
    # Pivot and hypothesis are both explicit, so their TV costs no samples.
    # Each may drop up to tail_cut off its ends (the pivot here, a binomial
    # fit in the learner), which moves the TV by at most 2 tail_cut, far
    # inside the eps/5 budget.
    pivot = translated_poisson_pmf(
        TranslatedPoissonParams(moments.mu_hat, moments.sigma2_hat), tail_cut=config.tail_cut
    )
    d_tv = tv_distance(pivot, hypothesis)
    diag["d_tv_pivot_vs_hypothesis"] = d_tv
    if d_tv > eps / 2.0:
        diag["reason"] = "pivot far from hypothesis"
        return TestVerdict(Verdict.NO_PBD, Branch.HEAVY, moments.samples_used, diag)
    sigma_hat = math.sqrt(moments.sigma2_hat)
    k = math.ceil(config.l2_sample_rate(sigma_hat))
    diag["k_poissonized"] = k
    hist = stream.draw_poissonized(float(k))
    t_n = l2_statistic(hist, pivot)
    threshold = config.l2_threshold(sigma_hat)
    diag.update({"realized_count": hist.total, "t_n": t_n, "t_n_threshold": threshold})
    verdict = Verdict.YES_PBD if t_n <= threshold else Verdict.NO_PBD
    return TestVerdict(verdict, Branch.HEAVY, moments.samples_used + hist.total, diag)


def _sparse_case(
    stream: SampleStream, config: TestConfig, hypothesis: ExplicitDistribution, diag: dict
) -> Verdict:
    eps = config.eps
    # The interval comes from exact hypothesis quantiles rather than the
    # worst-case length bound; the bound is recorded only as a sanity
    # ceiling for genuinely binomial hypotheses.
    i_lo, i_hi = effective_support_interval(hypothesis, eps / 5.0)
    q = hypothesis.restrict(i_lo, i_hi)
    k_tol = math.ceil(config.tolerant_sample_const * q.support_len / eps**2)
    diag["interval"] = [i_lo, i_hi]
    diag["interval_len_ceiling"] = config.logt**2.5 / eps**4
    diag["tolerant_samples"] = k_tol
    hist = stream.draw_histogram(k_tol)
    closeness, tv = simple_tolerant_identity_test(q, hist, eps, config.tolerant_sample_const)
    diag["tv_empirical_vs_hypothesis"] = tv
    diag["tolerant_outcome"] = closeness.value
    return Verdict.YES_PBD if closeness is Closeness.CLOSE else Verdict.NO_PBD


def run_budgeted_test(
    stream: SampleStream, n: int, config: TestConfig, sample_budget: int | None = None
) -> TestVerdict:
    """One unamplified run; ``sample_budget`` is a hard cap on the samples it draws.

    Learning gets at most half the budget and may degrade; every later stage
    asks for its full count.  A stage that does not fit what is left draws
    nothing, and the run returns ``YES_PBD`` with ``budget_exhausted`` (a
    starved run has no evidence against membership).  Without a budget, a
    stream that runs out, such as a short sample file, raises ``StreamExhausted``.
    A stream that can draw a value outside [0, n] raises ``ValueError`` from
    the learning stage, before any draw.
    """
    eps = config.eps
    start = stream.samples_drawn
    if sample_budget is not None:
        stream = stream.capped(sample_budget)
    learn_cap = None if sample_budget is None else sample_budget // 2
    learned = learn_pbd(stream.split(_STAGE_LEARN), n, eps / 10.0, config, learn_cap)
    hyp_var = learned.variance()
    diag: dict = {
        "hypothesis_kind": "sparse" if learned.is_sparse else "binomial",
        "hypothesis_variance": hyp_var,
        "variance_threshold": config.variance_threshold(),
        "learn_samples": learned.samples_used,
    }
    branch = Branch.SPARSE if hyp_var < config.variance_threshold() else Branch.HEAVY
    hypothesis = learned.to_explicit()
    try:
        if branch is Branch.SPARSE:
            verdict = _sparse_case(stream.split(_STAGE_TOLERANT), config, hypothesis, diag)
        else:
            eps_prime = eps / max(n / 4.0, 1.0) ** 0.125
            moments = estimate_mean_var(
                stream.split(_STAGE_MOMENTS),
                min(eps_prime, 0.999),
                sample_const=config.moment_sample_const,
            )
            stage = heavy_case_test(stream.split(_STAGE_L2), n, config, moments, hypothesis, diag)
            verdict = stage.verdict
    except StreamExhausted:
        if sample_budget is None:
            raise
        diag["budget_exhausted"] = True
        verdict = Verdict.YES_PBD
    return TestVerdict(verdict, branch, stream.samples_drawn - start, diag)


def test_pbd(stream: SampleStream, n: int, config: TestConfig) -> TestVerdict:
    """Majority-amplified membership test, stopped once the majority is decided.

    Plans ceil(B ln(1/delta)) runs of the base test on fresh sub-streams
    and returns their majority verdict (a tie counts as rejection).  Run
    ``r`` always reads ``stream.split(r)``, so stopping as soon as the
    remaining runs cannot change the majority gives the verdict of all
    planned runs, for every seed.  ``repetitions`` is the planned count and
    ``repetitions_run`` the number run; ``runs``, ``yes_votes``,
    ``branch_counts`` and ``samples_used`` cover the runs made.  A stream
    with values outside [0, n] raises ``ValueError`` before any draw.
    """
    reps = config.repetitions()
    runs = []
    yes_votes = 0
    samples = 0
    branches = {Branch.SPARSE: 0, Branch.HEAVY: 0}
    for r in range(reps):
        res = run_budgeted_test(stream.split(r), n, config)
        runs.append(res)
        samples += res.samples_used
        branches[res.branch] += 1
        if res.verdict is Verdict.YES_PBD:
            yes_votes += 1
        # The runs left cannot change a decided majority; a tie rejects.
        if yes_votes * 2 > reps or (len(runs) - yes_votes) * 2 >= reps:
            break
    verdict = Verdict.YES_PBD if yes_votes * 2 > reps else Verdict.NO_PBD
    branch = Branch.SPARSE if branches[Branch.SPARSE] >= branches[Branch.HEAVY] else Branch.HEAVY
    diag = {
        "repetitions": reps,
        "repetitions_run": len(runs),
        "yes_votes": yes_votes,
        "branch_counts": {b.value: c for b, c in branches.items()},
        "runs": [r.to_dict() for r in runs],
        "config": config.to_dict(),
    }
    return TestVerdict(verdict, branch, samples, diag)
