"""Adversarial near-binomial family and its two certified properties.

The family perturbs a fair binomial by a sign pattern: mass below the
midpoint is scaled by ``1 - c * eps * z_i``, the mirror point above by
``1 + c * eps * z_i``, the midpoint untouched.  Antisymmetry conserves
mass exactly for every sign vector.  The family's PMF lives in
``distributions`` (the spec format realizes it) and is re-exported here.

Two certificates matter:

* ``unimodal_distance_lb`` - a lower bound on the TV distance to *every*
  unimodal distribution (hence to every Bernoulli-sum law, which is
  log-concave and unimodal): half the exact l1 distance, inside a window,
  to unimodal sequences.  It lives in ``distributions``, below the
  learner, which reads its zero-merged form on every learning sample that
  falls to the sparse route; it is re-exported here.  The detection
  experiment decides ``certified_far_rate`` with its decision form,
  ``distributions.unimodal_distance_exceeds``.
* ``chi2_indistinguishability_bound`` - an upper bound on the TV distance
  between the Poissonized sample processes of the fair binomial and a
  uniformly drawn member of the family, so no tester on that few samples
  can tell them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calibrated import TestConfig
from .distributions import (
    PerturbedBinomial,
    _perturb_fair_binomial,
    binomial_pmf,
    construct_perturbed_binomial,
    unimodal_distance_exceeds,
    unimodal_distance_lb,
)
from .sampling import SampleStream, seeded_generator
from .tester import Verdict, run_budgeted_test

__all__ = [
    "PerturbedBinomial",
    "construct_perturbed_binomial",
    "random_sign_vector",
    "unimodal_distance_lb",
    "chi2_indistinguishability_bound",
    "half_square_sum",
    "DetectionRow",
    "detection_experiment",
]


def random_sign_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform +-1 vector of length n/2 for drawing family members."""
    return (2 * rng.integers(0, 2, size=n // 2) - 1).astype(np.int8)


@lru_cache(maxsize=64)
def half_square_sum(n: int) -> float:
    """S = sum_{i < n/2} P0(i)^2 for the fair binomial; S <= max_i P0(i) <= 1/sqrt(n)."""
    if n <= 0 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    probs = binomial_pmf(n, 0.5).probs
    return float((probs[: n // 2] ** 2).sum())


def chi2_indistinguishability_bound(n: int, c: float, eps: float, k: float) -> float:
    """Upper bound on TV between the two k-Poissonized sample processes.

    The likelihood-ratio expectation is at most exp(2 c^4 eps^4 k^2 S) with
    S the exact half square sum (not the 1/sqrt(n) cap); inverting through
    the Pinsker-style inequality 2 TV^2 <= log E[Q/P] and capping at 1
    gives the bound.  Monotone nondecreasing in k; a negative or non-finite
    k raises ``ValueError``.
    """
    _check_budget(k)
    s = half_square_sum(n)
    return min(1.0, c * c * eps * eps * k * math.sqrt(s))


def _check_budget(k: float) -> float:
    # Written so that NaN, which fails every comparison, is refused too.
    if not 0.0 <= k < math.inf:
        raise ValueError(f"sample budget k must be nonnegative and finite, got {k!r}")
    return k


@dataclass(frozen=True)
class DetectionRow:
    """One budget point of the detection experiment."""

    k: float
    detect_rate: float
    false_reject_rate: float
    advantage: float
    chi2_bound: float
    certified_far_rate: float
    trials: int


def detection_experiment(
    n: int,
    c: float,
    eps: float,
    k_grid,
    trials: int,
    config: TestConfig,
    seed: int = 0,
    threads: int = 1,
) -> tuple[list[DetectionRow], dict]:
    """Empirical detectability of the perturbed family versus the fair binomial.

    For each sample budget ``k`` the tester runs once (no amplification)
    against the fair binomial and against a fresh random family member,
    with its total consumption capped by a Poisson(k) draw so the analytic
    chi-squared bound applies verbatim.  A run rejects on its learning
    sample (at most k/2) when that sample is certifiably not unimodal;
    otherwise a run whose next stage does not fit its cap stops and accepts
    (``budget_exhausted``).  So the false-reject rate is 0 until the cap
    covers the chi^2 stage, while members whose learning sample shows
    their extra modes are detected from well below it.  Rates are NoPbd
    frequencies over ``trials`` runs per arm; ``advantage = detect -
    false_reject``; ``certified_far_rate`` is the share of members whose
    ``unimodal_distance_lb`` on the centre window exceeds eps, decided
    exactly by ``unimodal_distance_exceeds`` without the value.  The runs
    test at ``eps``, the family's own, whatever ``config.eps`` says; of
    ``config`` only the constants are read otherwise, since each run is a
    single ``run_budgeted_test``, which neither amplifies nor reads the
    seed.  The trials run one after another on the calling thread:
    ``threads`` takes only the value 1 and any other raises.  A budget in
    ``k_grid`` that is negative or not finite raises ``ValueError`` before
    the first trial.

    The asymptotic regime wants c > 200 and eps > 100 / sqrt(n); at desk
    scale that forces c * eps >= 1, so the harness scales c down to keep
    masses positive and reports ``regime_met`` accordingly.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if threads != 1:
        raise ValueError("the detection experiment runs on one thread")
    k_grid = [_check_budget(float(k)) for k in k_grid]
    config = config.replace(eps=eps)
    c_used = c
    scaled = False
    if c * eps >= 1.0:
        c_used = 0.99 / eps
        scaled = True
    regime_met = (not scaled) and c_used > 200.0 and eps > 100.0 / math.sqrt(n)
    meta = {
        "n": n,
        "c_requested": c,
        "c_used": c_used,
        "eps": eps,
        "regime_met": regime_met,
        "c_scaled_down": scaled,
        "trials": trials,
        "seed": seed,
    }
    p0 = binomial_pmf(n, 0.5)
    rows: list[DetectionRow] = []
    if trials == 0:
        return rows, meta
    window = _center_window(n)
    for k_idx, k in enumerate(k_grid):
        false_rej = detect = cert = 0
        for trial in range(trials):
            # Arm indices 0/1 drive the budget and sign draws, 2/3 the two
            # sample streams; keeping them disjoint keeps every stream independent.
            budget_rng = seeded_generator(seed, (k_idx, trial, 0))
            sign_rng = seeded_generator(seed, (k_idx, trial, 1))
            pb = PerturbedBinomial(n, c_used, eps, random_sign_vector(n, sign_rng))
            q = _perturb_fair_binomial(pb, p0)
            cert += unimodal_distance_exceeds(q, eps, window)
            s0 = SampleStream.from_distribution(p0, seed, spawn_key=(k_idx, trial, 2))
            v0 = run_budgeted_test(s0, n, config, sample_budget=int(budget_rng.poisson(k)))
            false_rej += v0.verdict is Verdict.NO_PBD
            sq = SampleStream.from_distribution(q, seed, spawn_key=(k_idx, trial, 3))
            vq = run_budgeted_test(sq, n, config, sample_budget=int(budget_rng.poisson(k)))
            detect += vq.verdict is Verdict.NO_PBD
        detect_rate, false_reject_rate = detect / trials, false_rej / trials
        rows.append(
            DetectionRow(
                k=k,
                detect_rate=detect_rate,
                false_reject_rate=false_reject_rate,
                advantage=detect_rate - false_reject_rate,
                chi2_bound=chi2_indistinguishability_bound(n, c_used, eps, k),
                certified_far_rate=cert / trials,
                trials=trials,
            )
        )
    return rows, meta


def _center_window(n: int) -> tuple[int, int]:
    # The certificate looks only where the fair binomial is flat enough
    # that sign flips force local modes.
    half_width = int(4 * math.sqrt(n))
    return n // 2 - half_width, n // 2 + half_width
