"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds, so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from pbdtest.distributions import (
    ExplicitDistribution,
    Pbd,
    TranslatedPoissonParams,
    binomial_pmf,
    pbd_pmf,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
)
from pbdtest.lowerbound import (
    PerturbedBinomial,
    chi2_indistinguishability_bound,
    construct_perturbed_binomial,
    detection_experiment,
    half_square_sum,
    random_sign_vector,
    unimodal_distance_lb,
)
from pbdtest.oracles import (
    brute_force_pbd_pmf,
    ell_inf_distance,
    monte_carlo_moment_check,
    paired_perturbation,
    tn_closed_form_moments,
    tp_approx_bounds,
    tp_pair_tv_bound,
)
from pbdtest.sampling import SampleStream
from pbdtest.tester import Branch, TestConfig, Verdict, l2_statistic
from pbdtest.tester import test_pbd as run_membership_test


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_pmf_oracle_equivalence():
    """pbd_pmf vs 2^n enumeration: 100 random cases, n <= 12, error <= 1e-12."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(101))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 13))
        ps = rng.random(n)
        fast = pbd_pmf(Pbd(ps))
        slow = brute_force_pbd_pmf(ps)
        worst = max(worst, float(np.abs(fast.probs - slow.probs).max(initial=0.0)))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report("criterion-01", f"max abs error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tn_moments():
    """Statistic moments match closed forms over 10^5 Poissonized trials."""
    t0 = time.time()
    u = np.full(20, 1.0 / 20.0)
    pbd = pbd_pmf(Pbd(np.linspace(0.1, 0.9, 15)))
    far, _ = paired_perturbation(binomial_pmf(24, 0.5), 0.04)
    triples = [
        (binomial_pmf(20, 0.5), binomial_pmf(20, 0.5), 50.0),
        (binomial_pmf(20, 0.4), binomial_pmf(20, 0.5), 50.0),
        (ExplicitDistribution(0, u), binomial_pmf(19, 0.5), 30.0),
        (far, binomial_pmf(24, 0.5), 100.0),
        (pbd, binomial_pmf(15, 0.5), 200.0),
    ]
    details = []
    for i, (p, q, k) in enumerate(triples):
        assert max(len(p.probs), len(q.probs)) <= 30
        mean_rep, var_rep = monte_carlo_moment_check(p, q, k, trials=100_000, seed=200 + i)
        assert mean_rep.abs_error <= 4.0 * mean_rep.std_error, f"triple {i} mean"
        assert var_rep.abs_error <= max(
            0.1 * var_rep.fast_value, 3.0 * var_rep.std_error
        ), f"triple {i} variance"
        details.append(f"{mean_rep.abs_error / max(mean_rep.std_error, 1e-300):.1f}SE")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("criterion-02", f"mean gaps {details}, {elapsed:.1f}s")


def _random_pbd(rng, sigma2_target: float) -> Pbd:
    style = rng.integers(0, 3)
    if style == 0:
        p = float(rng.uniform(0.25, 0.75))
        n = math.ceil(sigma2_target / (p * (1 - p)))
        ps = np.full(n, p)
    elif style == 1:
        lo, hi = sorted(rng.uniform(0.1, 0.9, size=2))
        mean_var = (lo + hi) / 2 * (1 - (lo + hi) / 2)
        n = math.ceil(sigma2_target / max(mean_var, 0.05))
        ps = rng.uniform(lo, hi, size=n)
    else:
        p1, p2 = 0.2, 0.8
        n = math.ceil(sigma2_target / 0.16)
        ps = np.where(rng.random(n) < 0.5, p1, p2)
    return Pbd(ps)


def test_criterion_03_approximation_bounds_dominate():
    """Closed-form pivot bounds dominate exact distances, zero violations."""
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(303))
    sigma2s = np.exp(rng.uniform(math.log(25.0), math.log(1e4), size=100))
    for s2 in sigma2s:
        pbd = _random_pbd(rng, float(s2))
        mean, var = pbd.mean(), pbd.variance()
        assert 20.0 <= var <= 1.2e4
        exact = pbd_pmf(pbd, tail_cut=1e-10)
        pivot = translated_poisson_pmf(TranslatedPoissonParams(mean, var), tail_cut=1e-10)
        tv, ell_inf, q_max_cap = tp_approx_bounds(pbd, q_max=exact.probs.max())
        assert tv_distance(exact, pivot) <= tv
        assert ell_inf_distance(exact, pivot) <= ell_inf
        assert exact.probs.max() <= q_max_cap
    for _ in range(100):
        s1 = float(np.exp(rng.uniform(math.log(25.0), math.log(1e4))))
        s2 = float(np.exp(rng.uniform(math.log(25.0), math.log(1e4))))
        mu1 = float(rng.uniform(1e3, 2e3))
        mu2 = mu1 + float(rng.uniform(-3.0, 3.0) * math.sqrt(min(s1, s2)))
        a, b = TranslatedPoissonParams(mu1, s1), TranslatedPoissonParams(mu2, s2)
        exact = tv_distance(translated_poisson_pmf(a, 1e-10), translated_poisson_pmf(b, 1e-10))
        assert exact <= tp_pair_tv_bound(a, b) + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("criterion-03", f"100 pivot bounds + 100 pair bounds, zero violations, {elapsed:.1f}s")


def test_criterion_04_empirical_learning_rate():
    """ceil(10 m / eps^2) samples put the empirical within eps >= 99% of the time."""
    m, eps = 100, 0.1
    uniform = ExplicitDistribution(0, np.full(m, 1.0 / m))
    k = math.ceil(10 * m / eps**2)
    root = SampleStream.from_distribution(uniform, seed=404)
    hits = 0
    trials = 1000
    for t in range(trials):
        emp = root.split(t).draw_histogram(k).to_empirical()
        hits += tv_distance(emp, uniform) <= eps
    assert hits >= 990
    report("criterion-04", f"hit rate {hits / trials:.3f} at k={k}")


def test_criterion_05_statistic_spread_in_far_regime():
    """Var/E^2 of the statistic <= 0.075 at the calibrated rate, TV = 0.35 eps."""
    eps, sigma_hat = 0.2, 25.0
    cfg = TestConfig(eps=eps, delta=0.1)
    pivot = translated_poisson_pmf(
        TranslatedPoissonParams(sigma_hat**2 + 7.0, sigma_hat**2), tail_cut=1e-9
    )
    far, _ = paired_perturbation(pivot, 0.35 * eps)
    assert tv_distance(far, pivot) == pytest.approx(0.35 * eps, rel=1e-9)
    k = cfg.l2_sample_rate(sigma_hat)
    assert k == math.ceil(
        cfg.l2_sample_const * math.sqrt(sigma_hat * truncated_log(1 / eps)) / eps**2
    )
    trials = 10_000
    rng = np.random.Generator(np.random.Philox(505))
    lam = k * far.probs
    counts = rng.poisson(lam, size=(trials, len(far.probs)))
    t_vals = np.array(
        [l2_statistic(counts[t], far.lo, pivot, float(k)) for t in range(trials)]
    )
    ratio = t_vals.var(ddof=1) / t_vals.mean() ** 2
    assert ratio <= 0.075
    report("criterion-05", f"Var/E^2 = {ratio:.4f} at k={k} over {trials} trials")


def test_criterion_06_end_to_end_completeness():
    """YesPbd rate >= 0.90 on two binomial sources, 200 amplified trials each."""
    t0 = time.time()
    n, trials = 10_000, 200
    rates = {}
    for p in (0.5, 0.3):
        src = binomial_pmf(n, p)
        cfg = TestConfig(eps=0.1, delta=0.1, seed=606)
        yes = 0
        for t in range(trials):
            res = run_membership_test(SampleStream.from_distribution(src, seed=6000 + t), n, cfg)
            yes += res.verdict is Verdict.YES_PBD
        rates[p] = yes / trials
        assert rates[p] >= 0.90, f"Binomial({n},{p}) yes rate {rates[p]}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion-06", f"yes rates {rates}, {elapsed:.0f}s")


def test_criterion_07_end_to_end_soundness():
    """NoPbd rate >= 0.90 on the bimodal source and a certified-far member."""
    n, trials = 10_000, 200
    cfg = TestConfig(eps=0.1, delta=0.1, seed=707)

    probs = np.zeros(n + 1)
    probs[0] = 0.5
    probs[n] = 0.5
    bimodal = ExplicitDistribution(0, probs)
    no = sum(
        run_membership_test(
            SampleStream.from_distribution(bimodal, seed=7000 + t), n, cfg
        ).verdict
        is Verdict.NO_PBD
        for t in range(trials)
    )
    rate_a = no / trials
    assert rate_a >= 0.90

    pb = PerturbedBinomial(
        n, 8.0, 0.1, random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
    )
    q = construct_perturbed_binomial(pb)
    window = (n // 2 - int(4 * math.sqrt(n)), n // 2 + int(4 * math.sqrt(n)))
    certificate = unimodal_distance_lb(q, window=window)
    assert certificate > cfg.eps, "far-ness certificate must exceed eps"
    no = sum(
        run_membership_test(SampleStream.from_distribution(q, seed=7500 + t), n, cfg).verdict
        is Verdict.NO_PBD
        for t in range(trials)
    )
    rate_b = no / trials
    assert rate_b >= 0.90
    report("criterion-07", f"no rates bimodal={rate_a:.2f} certified(cert={certificate:.3f})={rate_b:.2f}")


def test_criterion_08_sparse_branch():
    """sigma^2 = 4 source: sparse branch every run, YesPbd rate >= 0.90."""
    src = pbd_pmf(Pbd(np.full(16, 0.5)))
    assert src.variance() == pytest.approx(4.0)
    cfg = TestConfig(eps=0.1, delta=0.1, seed=808)
    trials = 100
    yes = 0
    for t in range(trials):
        res = run_membership_test(SampleStream.from_distribution(src, seed=8000 + t), 16, cfg)
        assert res.branch is Branch.SPARSE
        assert all(r["branch"] == "sparse" for r in res.diagnostics["runs"])
        yes += res.verdict is Verdict.YES_PBD
    assert yes / trials >= 0.90
    report("criterion-08", f"sparse in 100% of runs, yes rate {yes / trials:.2f}")


def test_criterion_09_lower_bound_arithmetic():
    """Square sums below 1/sqrt(n) for all even n <= 4096; bound monotone, small."""
    for n in range(2, 4097, 2):
        probs = binomial_pmf(n, 0.5).probs
        full = float((probs**2).sum())
        assert full <= 1.0 / math.sqrt(n)
        assert half_square_sum(n) <= full
    ks = np.geomspace(1.0, 1e6, 25)
    vals = [chi2_indistinguishability_bound(10_000, 1.0, 0.1, float(k)) for k in ks]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    k_star = 10_000**0.25 / (10 * 0.1**2)
    bound = chi2_indistinguishability_bound(10_000, 1.0, 0.1, k_star)
    assert bound <= 0.1
    report("criterion-09", f"bound at k*={k_star:.0f} is {bound:.3f}")


def test_criterion_10_indistinguishability_experiment():
    """Advantage stays below the analytic bound at every budget and reaches
    0.8 at the full budget."""
    n, eps, c = 4096, 0.1, 8.0
    cfg = TestConfig(eps=eps, delta=0.5, seed=0, amplification_reps=1)
    k_learn = cfg.learn_samples(eps / cfg.learn_accuracy_const)  # a run learns at eps / D
    p0 = binomial_pmf(n, 0.5)
    from pbdtest.distributions import effective_support_interval

    i_lo, i_hi = effective_support_interval(p0, eps / 5.0)
    k_chi2 = cfg.chi2_sample_rate(i_hi - i_lo + 1)
    # The chi^2 stage draws a Poisson total at that rate from what a Poisson
    # budget leaves: five of the stage's standard deviations are about three
    # of the two draws' combined one.
    k_full = k_learn + k_chi2 + 5.0 * math.sqrt(k_chi2)
    # Every point but the last lies below the full need: a run on the fair
    # binomial starves there, while a member's learning sample may already
    # be certified not unimodal, from k = 5e3 on.
    grid = [5.0, 100.0, 5e3, 2e4, k_full / 2, float(k_full)]
    trials = 200
    rows, meta = detection_experiment(n, c, eps, grid, trials=trials, config=cfg, seed=1010)
    assert meta["c_used"] == c
    for row in rows:
        se = math.sqrt(
            row.detect_rate * (1 - row.detect_rate) / trials
            + row.false_reject_rate * (1 - row.false_reject_rate) / trials
        )
        assert row.advantage <= row.chi2_bound + 3.0 * se, f"k={row.k}"
    assert rows[-1].advantage >= 0.8
    assert rows[-1].detect_rate >= 0.9
    assert rows[-1].certified_far_rate >= 0.95
    report(
        "criterion-10",
        f"advantages {[round(r.advantage, 2) for r in rows]} vs bounds "
        f"{[round(r.chi2_bound, 3) for r in rows]}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    """Same seed, same artifacts, byte for byte."""
    from pbdtest.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "binomial", "n": 400, "p": 0.5}))
    pairs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        code = main(
            [
                "test", "--spec", str(spec), "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "42", "--out", str(out),
            ]
        )
        assert code == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]
    for name in ("lb1.csv", "lb2.csv"):
        out = tmp_path / name
        code = main(
            [
                "lowerbound", "--n", "128", "--c", "2.0", "--eps", "0.2",
                "--k-grid", "50,5000", "--trials", "5", "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        pairs.append(out.read_bytes())
    assert pairs[2] == pairs[3]
    report("criterion-11", "test and lowerbound artifacts byte-identical")
