"""Brute-force ground truth used to validate the fast paths.

Every oracle takes an independent arithmetic route from the code it
checks: the Bernoulli-sum PMF enumerates outcome vectors instead of
convolving, the statistic moments are simulated from raw per-symbol
Poisson counts with their own accumulation, and the unimodal distance is
a per-mode linear program rather than the l1 isotonic certificate of
``distributions.unimodal_distance_lb``.

Caps are enforced so each oracle finishes in well under a minute.

It also holds acceptance criterion 03's closed-form shifted-Poisson
approximation bounds (Röllin, *Translated Poisson approximation using
exchangeable pair couplings*, 2007) and the l2 and l_inf distances they
are checked with.  They justify the heavy branch; no run reads them.

``learning_calibration_report`` is the Monte-Carlo sweep that fixes the
learning constants (the learner's sample constant and the accuracy the
tester learns at) and the chi^2 stage's sample constant: it runs the base
test itself, seeded, on a corpus of sources whose membership is known.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement

import numpy as np

from .calibrated import TestConfig
from .distributions import (
    ExplicitDistribution,
    Pbd,
    PerturbedBinomial,
    TranslatedPoissonParams,
    _on_union,
    binomial_pmf,
    construct_perturbed_binomial,
    effective_support_interval,
    pbd_pmf,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
)
from .learner import learn_pbd
from .lowerbound import random_sign_vector
from .sampling import SampleStream, seeded_generator
from .tester import Verdict, run_budgeted_test

__all__ = [
    "OracleReport",
    "brute_force_pbd_pmf",
    "exact_tv_to_pbd_class",
    "exact_tv_to_unimodal",
    "tn_closed_form_moments",
    "ell2_sq_distance",
    "ell_inf_distance",
    "tp_approx_bounds",
    "tp_pair_tv_bound",
    "monte_carlo_moment_check",
    "paired_perturbation",
    "calibration_report",
    "LEARNING_SWEEPS",
    "learning_calibration_report",
]


@dataclass(frozen=True)
class OracleReport:
    """One oracle-vs-fast-path comparison."""

    case: str
    oracle_value: float
    fast_value: float
    std_error: float = 0.0

    @property
    def abs_error(self) -> float:
        return abs(self.oracle_value - self.fast_value)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.oracle_value), abs(self.fast_value))
        return 0.0 if scale == 0.0 else self.abs_error / scale

    def to_dict(self) -> dict:
        return {**asdict(self), "abs_error": self.abs_error, "rel_error": self.rel_error}


def brute_force_pbd_pmf(ps) -> ExplicitDistribution:
    """Exact Bernoulli-sum PMF by summing over all 2^n outcome vectors (n <= 20)."""
    ps = np.asarray(ps, dtype=np.float64)
    if len(ps) > 20:
        raise ValueError("brute force enumeration is capped at n = 20")
    return ExplicitDistribution(0, _enumerated_pmf_rows(ps[None, :])[0])


def _enumerated_pmf_rows(grid: np.ndarray) -> np.ndarray:
    """PMF rows, shape (K, n + 1), of the Bernoulli sums whose p-vectors are
    the rows of ``grid`` (shape (K, n)), summed over all 2^n outcome vectors.

    Each chunk of outcome vectors is summed per outcome count in mask
    order into a zeroed buffer, which is then added to the total: one
    summation order, so a p-vector's row is the same floats in any grid.
    """
    k, n = grid.shape
    out = np.zeros((k, n + 1))
    chunk = 1 << 16
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
        weights = np.where(bits[:, None, :], grid, 1.0 - grid).prod(axis=2)
        part = np.zeros((n + 1, k))
        np.add.at(part, bits.sum(axis=1), weights)
        out += part.T
    return out


def exact_tv_to_pbd_class(p: ExplicitDistribution, n: int, grid_step: float) -> float:
    """Min TV from p to any Bernoulli-sum law over [0, n], by exhaustive grid.

    The grid on [0, 1] has step 1/m with m = ceil(1/grid_step), never above
    ``grid_step``, so the value is an upper bound on the true infimum
    within Lipschitz slack n * grid_step.  Capped at n <= 3 and grid_step
    in [0.01, 1].
    """
    if n > 3 or n < 0:
        raise ValueError("grid search is capped at n <= 3")
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.01 <= grid_step <= 1.0:
        raise ValueError("grid_step must lie in [0.01, 1]")
    # The 1e-9 keeps a step that divides 1, such as 0.05, at m = 1/step.
    m = math.ceil(1.0 / grid_step - 1e-9)
    pts = np.arange(m + 1) / m
    pmfs = _enumerated_pmf_rows(np.array(list(combinations_with_replacement(pts, n))))
    lo = min(p.lo, 0)
    hi = max(p.hi, n)
    target = np.zeros(hi - lo + 1)
    target[p.lo - lo : p.lo - lo + len(p.probs)] = p.probs
    cand = np.zeros((len(pmfs), hi - lo + 1))
    cand[:, -lo : -lo + n + 1] = pmfs
    return float(0.5 * np.abs(cand - target).sum(axis=1).min())


def exact_tv_to_unimodal(p: ExplicitDistribution) -> float:
    """Exact TV projection distance onto unimodal distributions (support <= 60).

    For each candidate mode the projection is a linear program: minimize
    half the l1 residual over distributions rising up to the mode and
    falling after.  The reported distance is the minimum over modes.
    """
    # Imported here, not at module level: scipy.optimize costs 130-185 ms and 22 MB.
    from scipy.optimize import linprog

    m = len(p.probs)
    if m > 60:
        raise ValueError("exact unimodal projection is capped at support 60")
    q = p.probs
    # Variables [r_0..r_{m-1}, t_0..t_{m-1}]; minimize 0.5 * sum t.
    cost = np.concatenate([np.zeros(m), 0.5 * np.ones(m)])
    # Rows 2i and 2i + 1 bound the residual: r_i - t_i <= q_i and
    # -r_i - t_i <= -q_i.  Row 2m + i orders r_i and r_{i+1} by the mode.
    i = np.arange(m)
    a_ub = np.zeros((3 * m - 1, 2 * m))
    a_ub[2 * i, i] = 1.0
    a_ub[2 * i + 1, i] = -1.0
    a_ub[2 * i, m + i] = -1.0
    a_ub[2 * i + 1, m + i] = -1.0
    b_ub = np.zeros(3 * m - 1)
    b_ub[0 : 2 * m : 2] = q
    b_ub[1 : 2 * m : 2] = -q
    a_eq = np.zeros((1, 2 * m))
    a_eq[0, :m] = 1.0
    best = math.inf
    for mode in range(m):
        # Rising (r_i <= r_{i+1}) before the mode, falling from it on.
        rising = np.where(i[:-1] < mode, 1.0, -1.0)
        a_ub[2 * m + i[:-1], i[:-1]] = rising
        a_ub[2 * m + i[:-1], i[:-1] + 1] = -rising
        res = linprog(
            cost,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=np.array([1.0]),
            bounds=[(0, None)] * (2 * m),
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"unimodal projection LP failed at mode {mode}: {res.message}")
        best = min(best, res.fun)
    return float(best)


def ell2_sq_distance(p: ExplicitDistribution, q: ExplicitDistribution) -> float:
    """Squared l2 distance over the union of the supports."""
    a, b = _on_union(p.lo, p.probs, q.lo, q.probs)
    return float(((a - b) ** 2).sum())


def ell_inf_distance(p: ExplicitDistribution, q: ExplicitDistribution) -> float:
    """Largest pointwise gap over the union of the supports."""
    a, b = _on_union(p.lo, p.probs, q.lo, q.probs)
    return float(np.abs(a - b).max())


def tp_approx_bounds(pbd: Pbd, q_max: float | None = None) -> tuple[float, float, float]:
    """Closed-form bounds on how far a Bernoulli sum sits from its matched
    shifted Poisson: ``(tv, ell_inf, q_max_cap)``, a TV bound, an l_inf
    bound, and a cap on the mode mass.

    ``q_max`` is the distribution's largest point mass; when omitted it is
    computed from the exact PMF, truncated at ``tail_cut=1e-12`` (under
    0.1 s for 10^5 coins).
    """
    sigma2 = pbd.variance()
    if sigma2 <= 0.0:
        raise ValueError("variance must be positive")
    s3 = float((pbd.ps**3 * (1.0 - pbd.ps)).sum())
    tv = (2.0 + math.sqrt(s3)) / sigma2
    if q_max is None:
        q_max = float(pbd_pmf(pbd, tail_cut=1e-12).probs.max())
    ell_inf = (2.0 + 2.0 * math.sqrt(q_max * s3)) / sigma2
    return tv, ell_inf, tv + 1.0 / (2.3 * math.sqrt(sigma2))


def tp_pair_tv_bound(tp1: TranslatedPoissonParams, tp2: TranslatedPoissonParams) -> float:
    """TV bound between two shifted Poissons from their parameter gaps."""
    s1 = math.sqrt(tp1.sigma2)
    s2 = math.sqrt(tp2.sigma2)
    return abs(tp1.mu - tp2.mu) / min(s1, s2) + (abs(tp1.sigma2 - tp2.sigma2) + 1.0) / min(
        tp1.sigma2, tp2.sigma2
    )


def tn_closed_form_moments(
    p: ExplicitDistribution, q: ExplicitDistribution, k: float
) -> tuple[float, float]:
    """Closed-form mean and variance of the Poissonized squared-l2 statistic.

    mean = l2^2(p, q); variance = (2/k^4) sum[lam_i^2 + 2 lam_i (lam_i - lam'_i)^2].
    """
    lam, lam_p = _on_union(p.lo, k * p.probs, q.lo, k * q.probs)
    diff = lam - lam_p
    mean = float((diff**2).sum() / k**2)
    var = float((2.0 / k**4) * (lam**2 + 2.0 * lam * diff**2).sum())
    return mean, var


def monte_carlo_moment_check(
    p: ExplicitDistribution,
    q: ExplicitDistribution,
    k: float,
    trials: int,
    seed: int = 0,
) -> list[OracleReport]:
    """Empirical statistic moments from raw Poisson counts vs closed forms.

    Simulates per-symbol counts K_i ~ Poisson(k P(i)) directly (the law of
    Poissonized sampling) and accumulates the statistic with its own
    arithmetic, independent of the fast path.  Needs trials >= 10^4 for
    meaningful error bars.
    """
    if trials < 10_000:
        raise ValueError("trials must be at least 10^4")
    lam, lam_p = _on_union(p.lo, k * p.probs, q.lo, k * q.probs)
    rng = seeded_generator(seed)
    t_vals = np.empty(trials)
    chunk = max(1, min(trials, 200_000_000 // max(len(lam), 1) // 8))
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        counts = rng.poisson(lam, size=(size, len(lam)))
        t_vals[done : done + size] = (
            ((counts - lam_p) ** 2).sum(axis=1) - counts.sum(axis=1)
        ) / k**2
        done += size
    mean_cf, var_cf = tn_closed_form_moments(p, q, k)
    emp_mean = float(t_vals.mean())
    emp_var = float(t_vals.var(ddof=1))
    se_mean = float(t_vals.std(ddof=1) / math.sqrt(trials))
    centered = t_vals - emp_mean
    m4 = float((centered**4).mean())
    se_var = math.sqrt(max(m4 - emp_var**2 * (trials - 3) / (trials - 1), 0.0) / trials)
    return [
        OracleReport("tn_mean", oracle_value=emp_mean, fast_value=mean_cf, std_error=se_mean),
        OracleReport("tn_variance", oracle_value=emp_var, fast_value=var_cf, std_error=se_var),
    ]


def paired_perturbation(
    base: ExplicitDistribution, tv_target: float
) -> tuple[ExplicitDistribution, float]:
    """A distribution at exact TV ``tv_target`` from ``base``.

    Adjacent support points are paired and mass t * min(pair) moves within
    each pair in alternating directions, so totals are conserved exactly
    and TV scales linearly in t.  The target must lie in [0, movable), the
    movable mass being the sum of the pair minima.  Returns (distribution,
    exact l2^2).
    """
    p = base.probs.copy()
    m = len(p)
    mins = np.minimum(p[0 : m - 1 : 2], p[1 : m + 1 : 2][: (m // 2)])
    movable = float(mins.sum())
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 <= tv_target < movable:
        raise ValueError(f"tv_target {tv_target} must lie in [0, movable mass {movable})")
    t = tv_target / movable
    deltas = t * mins
    p[0 : 2 * len(deltas) : 2] += deltas
    p[1 : 2 * len(deltas) + 1 : 2] -= deltas
    ell2_sq = float(2.0 * (deltas**2).sum())
    return ExplicitDistribution(base.lo, p, tail_slack=base.tail_slack), ell2_sq


def calibration_report() -> dict:
    """Closed-form sweep that fixes the two statistic constants.

    The corpus pairs a shifted-Poisson pivot with its paired perturbation
    at TV = 0.35 eps, for several (sigma_hat, eps).  The threshold
    constant is the smallest implied constant on the far corpus (restricted
    squared l2 over the pivot's high-mass interval, rescaled) divided by
    ``far_margin`` and rounded down to the grid.  The sample constant is
    the smallest grid value that keeps the far-corpus spread Var/E^2 at or
    under ``spread_cap`` while the acceptance threshold clears the
    close-case statistic noise by ``close_margin`` standard deviations.
    The report echoes the corpus and the three margins.
    """
    corpus = ((50.0, 0.1), (25.0, 0.2), (16.0, 0.15))
    sample_const_grid = (10.0, 20.0, 40.0, 80.0, 160.0)
    threshold_const_grid = (0.05, 0.1, 0.2, 0.4)
    spread_cap, close_margin, far_margin = 0.05, 2.5, 1.5
    cases = []
    for sigma_hat, eps in corpus:
        logt = truncated_log(1.0 / eps)
        pivot = translated_poisson_pmf(
            TranslatedPoissonParams(sigma_hat**2 + 7.0, sigma_hat**2), tail_cut=1e-9
        )
        far, _ = paired_perturbation(pivot, 0.35 * eps)
        i_lo, i_hi = effective_support_interval(pivot, eps / 10.0)
        a, b = i_lo - pivot.lo, i_hi - pivot.lo
        restricted = float(((far.probs - pivot.probs)[a : b + 1] ** 2).sum())
        cases.append(
            {
                "sigma_hat": sigma_hat,
                "eps": eps,
                "pivot": pivot,
                "far": far,
                "implied_threshold_const": restricted * sigma_hat * math.sqrt(logt) / eps**2,
            }
        )
    floor = min(case["implied_threshold_const"] for case in cases)
    chosen_c = max(c for c in threshold_const_grid if c <= floor / far_margin)
    chosen_c1 = None
    diagnostics = {}
    for c1 in sample_const_grid:
        ok = True
        per_case = []
        for case in cases:
            cfg = TestConfig(eps=case["eps"], l2_sample_const=c1, l2_far_const=chosen_c)
            k = cfg.l2_sample_rate(case["sigma_hat"])
            mean, var = tn_closed_form_moments(case["far"], case["pivot"], float(k))
            spread = var / mean**2
            sd_close = math.sqrt(2.0 * float((case["pivot"].probs ** 2).sum())) / k
            thr = cfg.l2_threshold(case["sigma_hat"])
            per_case.append({"k": k, "spread": spread, "close_z": thr / sd_close})
            if spread > spread_cap or thr < close_margin * sd_close:
                ok = False
        diagnostics[c1] = per_case
        if ok and chosen_c1 is None:
            chosen_c1 = c1
    return {
        "corpus": [(case["sigma_hat"], case["eps"]) for case in cases],
        "far_floor_threshold_const": floor,
        "chosen_threshold_const": chosen_c,
        "chosen_sample_const": chosen_c1,
        "spread_cap": spread_cap,
        "close_margin": close_margin,
        "far_margin": far_margin,
        "per_sample_const": {
            str(c1): [
                {k: (round(v, 6) if isinstance(v, float) else v) for k, v in entry.items()}
                for entry in per
            ]
            for c1, per in diagnostics.items()
        },
    }


def _learning_corpus(
    seed: int, n: int, eps: float
) -> list[tuple[str, ExplicitDistribution, bool, TestConfig]]:
    """The sources of the learner sweep: (name, law, is a member, config).

    Members under the default config:
    Binomial(n, 1/2), Binomial(n, 0.3), a heterogeneous Bernoulli sum with
    p_i ~ U(0.05, 0.95) drawn from ``seed``, 16 fair coins (sigma^2 = 4,
    acceptance criterion 08), and ten coins at 0.05 with ten at 0.95, a
    narrow law no binomial fits, which the learner must take down its
    sparse route.  Far sources: the half/half law on {0, n} and
    the certified c = 8 member of the perturbed family (acceptance
    criterion 07), which the learning certificate rejects.  Under
    ``var_threshold_const=1e-12``, which sends every run down the heavy
    branch: Binomial(n, 1/2), and the paired perturbation of the (n/2, n/4)
    shifted-Poisson pivot at TV 0.35 eps.  Then a far source for the
    sparse branch's chi^2 stage: the zigzag of Binomial(n, 1/2), its paired
    perturbation at TV 1.1 eps, which a binomial fits on the learning
    sample but ``unimodal_distance_lb`` certifies more than eps from every
    unimodal law (0.1051 at eps = 0.1, 0.0506 at eps = 0.05, n = 10^4).
    Then a second heavy-branch member: the heterogeneous law under the
    heavy config; and a far source for the heavy statistic that is
    certified far from every Bernoulli-sum law: the same zigzag under the
    heavy config.  Each source is appended after the earlier ones, so they
    keep their streams.
    """
    rng = seeded_generator(seed)
    default = TestConfig(eps=eps)
    heavy = default.replace(var_threshold_const=1e-12)
    bimodal = np.zeros(n + 1)
    bimodal[0] = bimodal[n] = 0.5
    z = random_sign_vector(n, seeded_generator(12))
    pivot = translated_poisson_pmf(TranslatedPoissonParams(n / 2, n / 4), tail_cut=1e-9)
    paired, _ = paired_perturbation(pivot, 0.35 * eps)
    zigzag, _ = paired_perturbation(binomial_pmf(n, 0.5), 1.1 * eps)
    heterogeneous = pbd_pmf(Pbd(rng.uniform(0.05, 0.95, size=n)), 1e-9)
    return [
        ("binomial-0.5", binomial_pmf(n, 0.5), True, default),
        ("binomial-0.3", binomial_pmf(n, 0.3), True, default),
        ("heterogeneous", heterogeneous, True, default),
        ("fair-coins-16", pbd_pmf(Pbd(np.full(16, 0.5))), True, default),
        ("skewed-20", pbd_pmf(Pbd(np.repeat([0.05, 0.95], 10))), True, default),
        ("bimodal", ExplicitDistribution(0, bimodal), False, default),
        ("perturbed-c8", construct_perturbed_binomial(PerturbedBinomial(n, 8.0, eps, z)), False,
         default),
        ("heavy-binomial-0.5", binomial_pmf(n, 0.5), True, heavy),
        ("heavy-paired", paired, False, heavy),
        ("zigzag", zigzag, False, default),
        ("heavy-heterogeneous", heterogeneous, True, heavy),
        ("heavy-zigzag", zigzag, False, heavy),
    ]


# The fields the learning sweep calibrates: (default grid, corpus points
# (n, eps), whether ``learn_pbd`` reads the field).  Only a field the
# learner reads can move its own miss rate, so only such a sweep measures it.
LEARNING_SWEEPS = {
    "learn_sample_const": (
        (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0),
        ((10_000, 0.1),),
        True,
    ),
    "learn_accuracy_const": (
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0),
        ((10_000, 0.1), (10_000, 0.05)),
        False,
    ),
    "chi2_sample_const": (
        (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
        ((10_000, 0.1), (10_000, 0.05)),
        False,
    ),
}


# Binomial standard errors that a swept rate must clear its bound by.
RATE_MARGIN_SE = 2.0


def _clears(rate: float, bound: float, runs: int) -> bool:
    """Whether ``rate``, measured on ``runs`` runs, is at most ``bound`` with
    ``RATE_MARGIN_SE`` standard errors to spare."""
    return rate + RATE_MARGIN_SE * math.sqrt(rate * (1.0 - rate) / runs) <= bound


def learning_calibration_report(
    seed: int,
    field: str = "learn_sample_const",
    grid=None,
    points=None,
    runs: int = 200,
) -> dict:
    """Monte-Carlo sweep that fixes one sample or accuracy constant of ``TestConfig``.

    ``field`` is a key of ``LEARNING_SWEEPS``: ``learn_sample_const`` (A_L),
    ``learn_accuracy_const`` (D) or ``chi2_sample_const`` (A_chi);
    ``grid`` and ``points`` default to its entry there.  At every corpus
    point (n, eps), for every value of the ascending ``grid`` and every
    source of the corpus (see
    ``_learning_corpus``), runs ``runs`` unamplified ``run_budgeted_test``
    calls with ``field`` set to the value and records the base-run error
    rate (rejections of a member, acceptances of a far source) and the mean
    samples drawn.  When ``learn_pbd`` reads ``field``, it also runs
    ``runs`` ``learn_pbd`` calls on every member at the learner's own eps
    (the point's eps, as ``pbdtest learn --eps 0.1`` does) and records the
    miss rate: the share of calls that return no hypothesis or one more
    than eps from the source in TV.
    Run ``t`` of a source reads the same split at every grid value, so the
    values are compared on common samples.

    A value passes at a point when every error rate there is at most 0.2
    and every miss rate at most 0.1 (the learner's 9/10 confidence), each
    with ``RATE_MARGIN_SE`` binomial standard errors to spare, so that a
    rate measured on ``runs`` runs clears its bound only when its excess
    over it is unlikely: r + 2 sqrt(r (1 - r) / runs) <= bound.  A value
    passes when it passes at every point.  The smallest passing value is
    the smallest from which every larger grid value passes too; the chosen
    value is the next grid value above it, as a margin (the passing value
    itself when it is the last).  Both are None when the largest value
    fails.  ``largest_failing_<field>`` is the grid value just below the
    smallest passing one; when it is None nothing failed, and the grid's
    lower end, not the error rates, placed the choice.
    """
    if field not in LEARNING_SWEEPS:
        raise ValueError(f"no learning sweep for {field!r}; choose from {sorted(LEARNING_SWEEPS)}")
    default_grid, default_points, learner_reads = LEARNING_SWEEPS[field]
    grid = tuple(float(v) for v in (default_grid if grid is None else grid))
    if list(grid) != sorted(set(grid)):
        raise ValueError("grid must be strictly ascending")
    points = default_points if points is None else points
    max_error_rate, max_miss_rate = 0.2, 0.1
    corpora = [_learning_corpus(seed, n, eps) for n, eps in points]
    sweep = []
    for value in grid:
        at_points = []
        for j, ((n, eps), corpus) in enumerate(zip(points, corpora)):
            sources = {}
            for i, (name, source, member, config) in enumerate(corpus):
                root = SampleStream.from_distribution(source, seed, spawn_key=(0, j, i))
                cfg = config.replace(**{field: value})
                errors = 0
                for t in range(runs):
                    res = run_budgeted_test(root.split(t), n, cfg)
                    errors += (res.verdict is Verdict.YES_PBD) != member
                row = {"error_rate": errors / runs, "mean_samples": root.samples_drawn / runs}
                if member and learner_reads:
                    learn_root = SampleStream.from_distribution(source, seed, spawn_key=(1, j, i))
                    hyps = (learn_pbd(learn_root.split(t), n, eps, cfg).dist for t in range(runs))
                    misses = sum(h is None or tv_distance(h, source) > eps for h in hyps)
                    row["learn_miss_rate"] = misses / runs
                sources[name] = row
            passes = all(
                _clears(r["error_rate"], max_error_rate, runs)
                and _clears(r.get("learn_miss_rate", 0.0), max_miss_rate, runs)
                for r in sources.values()
            )
            at_points.append({"n": n, "eps": eps, "passes": passes, "sources": sources})
        passes = all(p["passes"] for p in at_points)
        sweep.append({field: value, "passes": passes, "points": at_points})
    edge = len(sweep)
    while edge > 0 and sweep[edge - 1]["passes"]:
        edge -= 1
    smallest = grid[edge] if edge < len(grid) else None
    chosen = grid[min(edge + 1, len(grid) - 1)] if smallest is not None else None
    return {
        "field": field,
        "points": [{"n": n, "eps": eps} for n, eps in points],
        "runs": runs,
        "max_error_rate": max_error_rate,
        "max_learn_miss_rate": max_miss_rate if learner_reads else None,
        "rate_margin_se": RATE_MARGIN_SE,
        "members": {name: member for name, _, member, _ in corpora[0]},
        "sweep": sweep,
        f"largest_failing_{field}": grid[edge - 1] if edge > 0 else None,
        f"smallest_passing_{field}": smallest,
        f"chosen_{field}": chosen,
    }
