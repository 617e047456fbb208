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
  sample's mean and variance, reject on an impossible variance or a
  hypothesis that sits far from the pivot, otherwise decide with the
  unbiased squared-l2 count statistic under Poissonized sampling.  The
  pivot is itself a Bernoulli-sum law, so a source the statistic accepts
  is l2-close to one.  ``l2_statistic`` reads plain counts and the rate
  they were drawn at, so ``pbdtest stat`` computes the same number from a
  sample file.

Both branches end in one count statistic, sum_i w_i [(N_i - k q_i)^2 -
N_i] / k^2 over Poissonized counts N_i at rate k: w = 1 gives the
squared-l2 statistic, w = 1/q the chi^2 one.

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
    counts_in = _on_interval(hist.counts, hist.lo, a, b)
    counts = np.append(counts_in, hist.total - counts_in.sum()).astype(np.float64)
    q_in = _on_interval(q.probs, q.lo, a, b)
    q_coarse = np.append(q_in, max(0.0, 1.0 - q.tail_slack - float(q_in.sum())))
    gamma = eps / 50.0
    q_mix = (1.0 - gamma) * q_coarse + gamma / q_coarse.size
    z = _count_statistic(counts, q_mix, k, 1.0 / q_mix)
    return z <= _chi2_threshold(eps), z


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
    k = config.chi2_sample_rate(i_hi - i_lo + 1)
    diag["interval"] = [i_lo, i_hi]
    diag["k_poissonized"] = k
    hist = stream.draw_poissonized(float(k), within=(i_lo, i_hi))
    close, z = chi2_closeness_test(hypothesis, (i_lo, i_hi), hist, float(k), config.eps)
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
    then a Poisson total at ``chi2_sample_rate(m)`` on the sparse branch's
    interval of m points, or at ``l2_sample_rate(sigma_hat)`` on the heavy
    branch, whose pivot and sigma_hat come from the learning sample's mean
    and variance: the heavy branch draws no separate moments sample.  When
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
            verdict = _sparse_case(stream.split(_STAGE_CHI2), config, learned.dist, diag)
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
