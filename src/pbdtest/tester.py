"""The membership test: is the sampled distribution a Bernoulli-sum law?

The base test learns a hypothesis.  It rejects at once when the learner
returns none, having certified its learning sample not unimodal (every
Bernoulli-sum law is unimodal): such a run reports no
``hypothesis_variance``, and its branch is the one its learning sample's
variance picks.  Otherwise it branches on the hypothesis's variance:

* sparse branch - coarsen both the unknown and the hypothesis to a short
  high-mass interval and run the simple tolerant identity test there;
* heavy branch - pivot through the binomial matched to the learning
  sample's mean and variance, reject on an impossible variance or a
  hypothesis that sits far from the pivot, otherwise decide with the
  unbiased squared-l2 count statistic under Poissonized sampling.  The
  pivot is itself a Bernoulli-sum law, so a source the statistic accepts
  is l2-close to one.  ``l2_statistic`` reads plain counts and the rate
  they were drawn at, so ``pbdtest stat`` computes the same number from a
  sample file.

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
    _on_interval,
    _on_union,
    binomial_pmf,
    effective_support_interval,
    tv_distance,
)
from .learner import fit_binomial_by_moments, learn_pbd
from .sampling import SampleHistogram, SampleStream, StreamExhausted

__all__ = [
    "Verdict",
    "Branch",
    "TestConfig",
    "TestVerdict",
    "simple_tolerant_identity_test",
    "l2_statistic",
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


# Stage indices for stream splitting inside one base run.
_STAGE_LEARN = 0
_STAGE_TOLERANT = 1
# Split 2 fed a separate moments draw, which the learning sample's moments
# replaced; the l2 stage keeps split 3 so that its stream does not move.
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
    q: ExplicitDistribution, interval: tuple[int, int], hist: SampleHistogram, config: TestConfig
) -> tuple[bool, float]:
    """Close iff the empirical law, coarsened to ``interval``, sits within 0.25 eps of q's.

    Coarsening keeps the m points of ``interval`` and lumps everything
    outside it into one point: q's outside mass is ``1 - tail_slack`` less
    its mass inside, the empirical's the share of samples outside.  ``hist``
    may be a full histogram, which is coarsened here, or one already drawn
    on ``interval`` (``draw_histogram(k, within=interval)``), whose
    ``outside`` is that share's count; both give the same result.  Returns
    whether it is close and the TV distance between the two (m + 1)-point
    laws, eps being ``config.eps``.  It needs ``config.tolerant_samples(m)``
    samples, k = A_tol m / eps^2; a histogram of fewer raises
    ``ValueError``.

    The two sides rest on different ground.  Far side: TV is convex in the
    empirical law, so by Jensen's inequality the statistic's mean is at
    least the source's coarsened TV to q; above 2 eps/5 that mean clears
    the threshold at any A_tol, and a smaller A_tol only widens the spread
    about it.  Close side: sampling noise adds up to about
    eps / sqrt(2 pi A_tol) to the mean (all m + 1 points equally likely),
    0.178 eps at A_tol = 5, so a law at eps/10 from q may average above
    0.25 eps, and no rate follows from k.  The close-side rate is measured.

    In ``run_budgeted_test`` q is learned at eps / D (D = 3 by default), so
    no argument puts a member within eps/10 of q either.  In the learning
    sweep at D = 3 and A_tol = 5 (``pbdtest oracle --suite learning --seed
    0``: n = 10^4, 200 base runs per source), the statistic on the two
    binomials and the heterogeneous member had a median of about 0.17 eps
    and a maximum of 0.21 eps.  The sparse branch rejected no member but
    the 0.05/0.95 coins (17 runs in 200 at eps = 0.1, 12 at eps = 0.05)
    and the 16 fair coins (9 and 3), and it rejected the zigzag on every
    run.
    """
    a, b = interval
    if b < a:
        raise ValueError(f"interval [{a}, {b}] is empty")
    required = config.tolerant_samples(b - a + 1)
    k = hist.total
    if k < required:
        raise ValueError(f"need at least {required} samples, got {k}")
    q_in = _on_interval(q.probs, q.lo, a, b)
    counts_in = _on_interval(hist.counts, hist.lo, a, b)
    q_out = max(0.0, 1.0 - q.tail_slack - float(q_in.sum()))
    emp_out = (k - int(counts_in.sum())) / k
    tv = 0.5 * (float(np.abs(counts_in / k - q_in).sum()) + abs(emp_out - q_out))
    return tv < 0.25 * config.eps, tv


def l2_statistic(counts: np.ndarray, lo: int, q: ExplicitDistribution, k: float) -> float:
    """The unbiased squared-l2 statistic of per-symbol counts against a known q.

    ``counts[i]`` counts the samples equal to ``lo + i`` and ``k`` is the
    Poisson rate they were drawn at; under that Poissonized sampling its
    mean is l2^2(P, q).  Sums (K_i - k Q(i))^2 - K_i over the union of the
    observed range and q's support, over k^2; q is 0 outside its support.
    May be negative.  A union too wide to align raises ``ValueError``.
    """
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    c, q_on = _on_union(lo, np.ascontiguousarray(counts, dtype=np.float64), q.lo, q.probs)
    lam_p = k * q_on
    return float((((c - lam_p) ** 2) - c).sum() / (k * k))


def heavy_case_test(
    stream: SampleStream,
    n: int,
    config: TestConfig,
    moments: tuple[float, float],
    hypothesis: ExplicitDistribution,
    diag: dict,
) -> Verdict:
    """Heavy-branch decision given the ``(mu_hat, sigma2_hat)`` moment
    estimates and the learned hypothesis.

    The pivot is the binomial matched to the moments
    (``fit_binomial_by_moments``), on at most n trials.  Rejects when the
    pivot sits more than eps/2 from the hypothesis or the variance estimate
    exceeds n/2; otherwise thresholds the Poissonized statistic against the
    pivot.  A tie at the threshold resolves to acceptance.  Diagnostics go
    into ``diag`` as they are known, so a caller whose stream runs out at
    the Poissonized draw still holds the earlier ones.  The samples drawn
    are counted by the stream, not returned.
    """
    mu_hat, sigma2_hat = moments
    diag.update(mu_hat=mu_hat, sigma2_hat=sigma2_hat)
    if sigma2_hat <= 0.0:
        diag["reason"] = "nonpositive variance estimate in heavy branch"
        return Verdict.NO_PBD
    if sigma2_hat > n / 2.0:
        # No Bernoulli-sum law on [0, n] has variance beyond n/4.
        diag["reason"] = "variance above n/2"
        return Verdict.NO_PBD
    # Pivot and hypothesis are both explicit, so their TV costs no samples.
    # A binomial hypothesis is the learner's fit to these same moments, so
    # the two are one PMF and the TV is 0.  A sparse one is the projected
    # empirical; each side may drop up to tail_cut off its ends, which
    # moves the TV by at most 2 tail_cut, far inside the eps/2 limit.
    pivot = binomial_pmf(*fit_binomial_by_moments(mu_hat, sigma2_hat, n), tail_cut=config.tail_cut)
    d_tv = tv_distance(pivot, hypothesis)
    diag["d_tv_pivot_vs_hypothesis"] = d_tv
    if d_tv > config.eps / 2.0:
        diag["reason"] = "pivot far from hypothesis"
        return Verdict.NO_PBD
    sigma_hat = math.sqrt(sigma2_hat)
    k = config.l2_sample_rate(sigma_hat)
    diag["k_poissonized"] = k
    hist = stream.draw_poissonized(float(k))
    t_n = l2_statistic(hist.counts, hist.lo, pivot, float(k))
    threshold = config.l2_threshold(sigma_hat)
    diag.update({"realized_count": hist.total, "t_n": t_n, "t_n_threshold": threshold})
    return Verdict.YES_PBD if t_n <= threshold else Verdict.NO_PBD


def _sparse_case(
    stream: SampleStream, config: TestConfig, hypothesis: ExplicitDistribution, diag: dict
) -> Verdict:
    i_lo, i_hi = effective_support_interval(hypothesis, config.eps / 5.0)
    k_tol = config.tolerant_samples(i_hi - i_lo + 1)
    diag["interval"] = [i_lo, i_hi]
    diag["tolerant_samples"] = k_tol
    hist = stream.draw_histogram(k_tol, within=(i_lo, i_hi))
    close, tv = simple_tolerant_identity_test(hypothesis, (i_lo, i_hi), hist, config)
    diag["tv_empirical_vs_hypothesis"] = tv
    diag["tolerant_outcome"] = "close" if close else "far"
    return Verdict.YES_PBD if close else Verdict.NO_PBD


def run_budgeted_test(
    stream: SampleStream, n: int, config: TestConfig, sample_budget: int | None = None
) -> TestVerdict:
    """One unamplified run; ``sample_budget`` is a hard cap on the samples it draws.

    A budget that is not a nonnegative integer raises ``ValueError`` before
    the first draw.

    Each stage draws the count ``config`` plans for it: learning
    ``learn_samples(eps / D)``, capped at half the budget (it may degrade),
    then ``tolerant_samples(m)`` on the sparse branch, or a Poisson total
    at ``l2_sample_rate(sigma_hat)`` on the heavy one, whose pivot and
    sigma_hat come from the learning sample's mean and variance: the heavy
    branch draws no separate moments sample.  When the learner certifies
    its sample not unimodal and so returns no hypothesis (see
    ``learn_pbd``), the run returns ``NO_PBD`` on that sample alone, with
    the certificate and its threshold in the diagnostics; no later stage
    runs, so ``samples_used`` is the learning draw.  Its diagnostics hold
    no ``hypothesis_variance``, and its branch is the one the learning
    sample's variance ``sigma2_hat`` picks against ``variance_threshold``,
    as the hypothesis variance does for every other run.  A later stage
    that does not fit what is left draws nothing, and
    the run returns ``YES_PBD`` with ``budget_exhausted`` (a starved run
    has no evidence against membership): a run may reject on its learning
    sample, but it never decides on a clipped later stage.  Without a
    budget, a stream that runs out, such as a short sample file, raises
    ``StreamExhausted``.  A stream that can draw a value outside [0, n]
    raises ``ValueError`` from the learning stage, before any draw.
    """
    start = stream.samples_drawn
    if sample_budget is not None:
        stream = stream.capped(sample_budget)
    learn_cap = None if sample_budget is None else sample_budget // 2
    learned = learn_pbd(
        stream.split(_STAGE_LEARN), n, config.eps / config.learn_accuracy_const, config, learn_cap
    )
    rejected = learned.not_unimodal
    # A rejected run has no hypothesis, so the learning sample's own
    # variance picks its branch.
    var = learned.sigma2_hat if rejected else learned.variance()
    diag: dict = {"hypothesis_kind": "sparse" if learned.binomial is None else "binomial"}
    if not rejected:
        diag["hypothesis_variance"] = var
    diag["variance_threshold"] = config.variance_threshold()
    diag["learn_samples"] = stream.samples_drawn - start
    branch = Branch.SPARSE if var < config.variance_threshold() else Branch.HEAVY
    if learned.unimodal_lb is not None:
        diag["unimodal_lb"] = learned.unimodal_lb
        diag["unimodal_lb_threshold"] = learned.unimodal_lb_threshold
    if rejected:
        diag["reason"] = "learning sample not unimodal"
        return TestVerdict(Verdict.NO_PBD, branch, stream.samples_drawn - start, diag)
    try:
        if branch is Branch.SPARSE:
            verdict = _sparse_case(stream.split(_STAGE_TOLERANT), config, learned.dist, diag)
        else:
            moments = (learned.mu_hat, learned.sigma2_hat)
            verdict = heavy_case_test(
                stream.split(_STAGE_L2), n, config, moments, learned.dist, diag
            )
    except StreamExhausted:
        if sample_budget is None:
            raise
        diag["budget_exhausted"] = True
        verdict = Verdict.YES_PBD
    return TestVerdict(verdict, branch, stream.samples_drawn - start, diag)


def test_pbd(stream: SampleStream, n: int, config: TestConfig) -> TestVerdict:
    """Majority-amplified membership test, stopped once the majority is decided.

    Plans ``config.repetitions()`` runs of the base test on fresh
    sub-streams (the smallest odd count whose exact binomial tail at base
    error 1/3 is at most delta: 15 at delta = 0.1) and returns their
    majority verdict (a tie counts as rejection).  Run ``r`` always
    reads ``stream.split(r)``, so stopping as soon as the
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
