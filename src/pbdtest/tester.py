"""The membership test: is the sampled distribution a Bernoulli-sum law?

The base test learns a hypothesis.  It rejects at once when the learner
returns none, having certified its learning sample not unimodal (every
Bernoulli-sum law is unimodal): such a run reports no
``hypothesis_variance``, and its branch is the one its learning sample's
variance picks.  Otherwise it branches on the hypothesis's variance:

* sparse branch - coarsen both the unknown and the hypothesis to a short
  high-mass interval of m points plus one point for the mass outside it,
  and decide with the Poissonized chi^2 count statistic against the
  coarsened hypothesis mixed with a little uniform mass
  (``chi2_closeness_test``), at a rate that grows as sqrt(m);
* heavy branch - pivot through the binomial matched to the learning
  sample's mean and variance (on the binomial route, the learner's own
  hypothesis), reject on an impossible variance or a hypothesis that sits
  far from the pivot, otherwise decide with the same chi^2 stage against
  the pivot.  The pivot is itself a Bernoulli-sum law, so a source the
  stage accepts is, coarsened to the pivot's interval and the lump outside
  it, close to one.

The chi^2 statistic and ``l2_statistic``, which ``pbdtest stat`` computes
from a sample file, share one count statistic, sum_i w_i [(N_i - k q_i)^2 -
N_i] / k^2 over Poissonized counts N_i at rate k: w = 1 gives the
squared-l2 statistic, w = 1/q the chi^2 one.

``test_pbd`` amplifies the base test by a vote over independent
sub-streams that stops once one side leads by a planned margin or the
majority is decided.  Every stage draws
from its own split of the caller's stream, so verdicts replay bit-for-bit
from (seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibrated import TestConfig, vote_outcome
from .distributions import (
    ExplicitDistribution,
    _on_interval,
    _on_union,
    binomial_pmf,
    effective_support_interval,
    tv_distance,
)
from .learner import LearnedPbd, fit_binomial_by_moments, learn_pbd
from .sampling import SampleHistogram, SampleStream, StreamExhausted

__all__ = [
    "Verdict",
    "Branch",
    "TestConfig",
    "TestVerdict",
    "chi2_closeness_test",
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
_STAGE_CHI2 = 1


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


def _count_statistic(counts: np.ndarray, q: np.ndarray, k: float, weight=1.0) -> float:
    """sum_i w_i [(c_i - k q_i)^2 - c_i] / k^2 over aligned counts and probabilities.

    Under Poissonized sampling at rate k, E[(c_i - k q_i)^2 - c_i] is
    k^2 (p_i - q_i)^2, so the mean is sum_i w_i (p_i - q_i)^2: l2^2(p, q) at
    w = 1 and chi^2(p || q) at w = 1/q.
    """
    return float((weight * ((counts - k * q) ** 2 - counts)).sum() / (k * k))


def _chi2_threshold(eps: float) -> float:
    """The chi^2 stage's acceptance threshold, 2 (2 eps/5)^2 = 0.32 eps^2."""
    return 2.0 * (2.0 * eps / 5.0) ** 2


def chi2_closeness_test(
    q: ExplicitDistribution,
    interval: tuple[int, int],
    hist: SampleHistogram,
    k: float,
    eps: float,
) -> tuple[bool, float]:
    """Close iff the Poissonized chi^2 statistic of ``hist`` against q, both
    coarsened to ``interval``, is at most 0.32 eps^2.

    Coarsening keeps the m points of ``interval`` and lumps everything
    outside it into one point: q's outside mass is ``1 - tail_slack`` less
    its mass inside, the histogram's count there its samples outside.
    ``hist`` may be a full histogram, which is coarsened here, or one
    already drawn on ``interval`` (``draw_poissonized(k, within=interval)``),
    whose ``outside`` is that count; both give the same result.  ``k`` is
    the Poisson rate the counts were drawn at.  The coarsened q is mixed
    with uniform mass, q' = (1 - gamma) q + gamma / (m + 1) with gamma =
    eps/50, so that no point is 0, and the statistic is
    Z = sum_i [(N_i - k q'_i)^2 - N_i] / (k^2 q'_i).  Returns whether it is
    close and Z.

    Its mean is chi^2(p || q') (Chan, Diakonikolas, Valiant & Valiant, SODA
    2014; Acharya, Daskalakis & Kamath, NeurIPS 2015).  Far side: a
    coarsened TV above 2 eps/5 from q puts the source at least 0.38 eps
    from q' (mixing moves q by at most gamma), and chi^2 >= 4 TV^2, so its
    mean is at least 0.58 eps^2, 1.8 times the threshold.  Close side: at
    p = q' the spread is sd(Z) = sqrt(2 (m + 1)) / k, which is about
    sqrt(2) eps^2 / A_chi at the stage's rate k = ``chi2_sample_rate(m)``,
    whatever m.
    """
    a, b = interval
    if b < a:
        raise ValueError(f"interval [{a}, {b}] is empty")
    if not 0.0 < k < math.inf:
        raise ValueError("k must be positive and finite")
    threshold = _chi2_threshold(eps)
    m = b - a + 1
    # One float64 array of m + 1 points each: the interval, then the lump.
    counts = np.empty(m + 1)
    counts_in = _on_interval(hist.counts, hist.lo, a, b)
    counts[:m] = counts_in
    counts[m] = hist.total - counts_in.sum()
    q_mix = np.empty(m + 1)
    q_in = _on_interval(q.probs, q.lo, a, b)
    q_mix[:m] = q_in
    q_mix[m] = max(0.0, 1.0 - q.tail_slack - float(q_in.sum()))
    gamma = eps / 50.0
    q_mix *= 1.0 - gamma
    q_mix += gamma / (m + 1)
    z = _count_statistic(counts, q_mix, k, 1.0 / q_mix)
    return z <= threshold, z


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
    return _count_statistic(c, q_on, k)


def heavy_case_test(
    stream: SampleStream, n: int, config: TestConfig, learned: LearnedPbd, diag: dict
) -> Verdict:
    """Heavy-branch decision on the learner's output, which holds a hypothesis.

    The pivot is the binomial matched to the learning sample's
    ``(mu_hat, sigma2_hat)`` (``fit_binomial_by_moments``), on at most n
    trials; on the binomial route that fit is the learner's hypothesis, so
    its PMF is handed on rather than built again.  Rejects when the variance
    estimate is not positive or exceeds n/2, or when the pivot sits more
    than eps/2 from the hypothesis; otherwise decides with the chi^2 stage
    against the pivot, as the sparse branch does against its hypothesis.
    Diagnostics go into ``diag`` as they are known, so a caller whose
    stream runs out at the Poissonized draw still holds the earlier ones.
    The samples drawn are counted by the stream, not returned.
    """
    mu_hat, sigma2_hat = learned.mu_hat, learned.sigma2_hat
    diag.update(mu_hat=mu_hat, sigma2_hat=sigma2_hat)
    if sigma2_hat <= 0.0:
        diag["reason"] = "nonpositive variance estimate in heavy branch"
        return Verdict.NO_PBD
    if sigma2_hat > n / 2.0:
        # No Bernoulli-sum law on [0, n] has variance beyond n/4.
        diag["reason"] = "variance above n/2"
        return Verdict.NO_PBD
    # A binomial hypothesis is the pivot itself, so the TV is 0.  A sparse
    # one is the projected empirical, and both are explicit, so their TV
    # costs no samples; each side may drop up to tail_cut off its ends,
    # which moves the TV by at most 2 tail_cut, far inside the eps/2 limit.
    if learned.binomial is None:
        fit = fit_binomial_by_moments(mu_hat, sigma2_hat, n)
        pivot = binomial_pmf(*fit, tail_cut=config.tail_cut)
        d_tv = tv_distance(pivot, learned.dist)
    else:
        pivot, d_tv = learned.dist, 0.0
    diag["d_tv_pivot_vs_hypothesis"] = d_tv
    if d_tv > config.eps / 2.0:
        diag["reason"] = "pivot far from hypothesis"
        return Verdict.NO_PBD
    return _chi2_stage(stream, config, pivot, diag)


def _chi2_stage(
    stream: SampleStream, config: TestConfig, q: ExplicitDistribution, diag: dict
) -> Verdict:
    """Both branches' deciding stage: a Poisson total at
    ``chi2_sample_rate(m)`` on q's eps/5 interval of m points, and
    ``chi2_closeness_test`` against q."""
    i_lo, i_hi = effective_support_interval(q, config.eps / 5.0)
    k = config.chi2_sample_rate(i_hi - i_lo + 1)
    diag["interval"] = [i_lo, i_hi]
    diag["k_poissonized"] = k
    hist = stream.draw_poissonized(float(k), within=(i_lo, i_hi))
    close, z = chi2_closeness_test(q, (i_lo, i_hi), hist, float(k), config.eps)
    diag.update(
        realized_count=hist.total,
        chi2=z,
        chi2_threshold=_chi2_threshold(config.eps),
        tolerant_outcome="close" if close else "far",
    )
    return Verdict.YES_PBD if close else Verdict.NO_PBD


def run_budgeted_test(
    stream: SampleStream, n: int, config: TestConfig, sample_budget: int | None = None
) -> TestVerdict:
    """One unamplified run; ``sample_budget`` is a hard cap on the samples it draws.

    A budget that is not a nonnegative integer raises ``ValueError`` before
    the first draw.

    Each stage draws the count ``config`` plans for it: learning
    ``learn_samples(eps / D)``, capped at half the budget (it may degrade),
    then a Poisson total at ``chi2_sample_rate(m)`` on the eps/5 interval
    of m points of the sparse branch's hypothesis or of the heavy branch's
    pivot, which comes from the learning sample's mean and variance: the
    heavy branch draws no separate moments sample.  When
    the learner certifies its sample not unimodal and so returns no
    hypothesis (see
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
            verdict = _chi2_stage(stream.split(_STAGE_CHI2), config, learned.dist, diag)
        else:
            verdict = heavy_case_test(stream.split(_STAGE_CHI2), n, config, learned, diag)
    except StreamExhausted:
        if sample_budget is None:
            raise
        diag["budget_exhausted"] = True
        verdict = Verdict.YES_PBD
    return TestVerdict(verdict, branch, stream.samples_drawn - start, diag)


def test_pbd(stream: SampleStream, n: int, config: TestConfig) -> TestVerdict:
    """Amplified membership test, stopped once one side leads by a planned
    margin or the majority is decided.

    Runs the base test on fresh sub-streams, run ``r`` always on
    ``stream.split(r)``, under ``config.vote_plan()``: R runs at most (the
    smallest odd count whose exact binomial tail at base error 1/3 is at
    most delta: 15 at delta = 0.1) and a decisive lead A (the smallest
    whose exact error at base error 1/3 is at most delta: 4 at delta = 0.1).
    The vote stops at the first run after which one side leads the other by
    A, or the runs left cannot change R's majority (a tie rejects), and
    returns that side (``vote_outcome``).  So it never makes more runs than
    the majority alone, and may end on a verdict the majority of all R runs
    would not give, with probability inside delta.  With
    ``amplification_reps`` set, the vote is a plain majority of that many
    runs, stopped once decided, and its diagnostics have no ``lead``.
    ``repetitions`` is R, ``lead`` is A and ``repetitions_run`` the number
    run; ``runs``, ``yes_votes``, ``branch_counts`` and ``samples_used``
    cover the runs made.  A stream with values outside [0, n] raises
    ``ValueError`` before any draw.
    """
    reps, lead = config.vote_plan()
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
        accepted = vote_outcome(yes_votes, len(runs) - yes_votes, reps, lead)
        if accepted is not None:
            break
    verdict = Verdict.YES_PBD if accepted else Verdict.NO_PBD
    branch = Branch.SPARSE if branches[Branch.SPARSE] >= branches[Branch.HEAVY] else Branch.HEAVY
    diag = {
        "repetitions": reps,
        "repetitions_run": len(runs),
        "yes_votes": yes_votes,
        "branch_counts": {b.value: c for b, c in branches.items()},
        "runs": [r.to_dict() for r in runs],
        "config": config.to_dict(),
    }
    if lead is not None:
        diag["lead"] = lead
    return TestVerdict(verdict, branch, samples, diag)
