"""Unit tests for the membership test and its pieces."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import pbdtest
import pbdtest.learner as learner
import pbdtest.tester as tester
from pbdtest.distributions import (
    ExplicitDistribution,
    Pbd,
    PerturbedBinomial,
    TranslatedPoissonParams,
    binomial_pmf,
    construct_perturbed_binomial,
    effective_support_interval,
    pbd_pmf,
    translated_poisson_pmf,
    tv_distance,
    unimodal_distance_lb,
)
from pbdtest.learner import estimate_mean_var, fit_binomial_by_moments
from pbdtest.lowerbound import random_sign_vector
from pbdtest.oracles import (
    LEARNING_SWEEPS,
    _learning_corpus,
    ell2_sq_distance,
    exact_tv_to_pbd_class,
    paired_perturbation,
    tn_closed_form_moments,
)
from pbdtest.sampling import SampleHistogram, SampleStream, StreamExhausted, seeded_generator
from pbdtest.tester import (
    Branch,
    TestConfig,
    Verdict,
    chi2_closeness_test,
    heavy_case_test,
    l2_statistic,
    run_budgeted_test,
)
from pbdtest.tester import test_pbd as run_membership_test

# A heavy run at n = 4096, eps = 0.1 stops at its l2 draw on this budget: it
# pays for learning at eps / D, not for the l2 stage's Poisson total (about
# 69,000).
_CFG = TestConfig(eps=0.1, delta=0.5)
STOPS_AT_L2 = _CFG.learn_samples(0.1 / _CFG.learn_accuracy_const) + 30_000


# The learner's deleted forced-binomial threshold, spelled in two parts so
# that a search for the field name finds no reader of it.
REMOVED_THRESHOLD = "learn_sparse_" "threshold_const"
# Likewise the deleted moments stage's sample constant.
REMOVED_MOMENT_CONST = "moment_" "sample_const"
# And the deleted TV tolerant stage's.
REMOVED_TOLERANT_CONST = "tolerant_" "sample_const"


def heavy_inputs(src, n, eps, seed):
    """The learning sample's moments and hypothesis, as a heavy base run
    gets them: learned at eps / D from a fresh stream split."""
    root = SampleStream.from_distribution(src, seed=seed)
    cfg = TestConfig(eps=eps, delta=0.1)
    learned = learner.learn_pbd(root.split(0), n, eps / cfg.learn_accuracy_const, cfg)
    return root, (learned.mu_hat, learned.sigma2_hat), learned.dist


def exact_majority_runs(delta):
    """Reference: the smallest R at which a member loses the vote
    (P[Bin(R, 1/3) >= ceil(R/2)], a tie rejects) and a far source wins it
    (P[Bin(R, 1/3) > R/2]) each with probability at most delta, scanning
    every R and summing each tail in exact rationals."""

    def tail(r, k):  # P[Bin(r, 1/3) >= k]
        return Fraction(sum(math.comb(r, j) * 2 ** (r - j) for j in range(k, r + 1)), 3**r)

    r = 1
    while tail(r, -(-r // 2)) > Fraction(delta) or tail(r, r // 2 + 1) > Fraction(delta):
        r += 1
    return r


class TestConfigValidation:
    def test_repetition_formula(self):
        cfg = TestConfig(eps=0.1, delta=0.1)
        assert cfg.repetitions() == 15
        assert TestConfig(eps=0.1, delta=0.1, amplification_reps=3).repetitions() == 3

    # delta: the exact-tail run count at base error 1/3.  7/27 is the tail at
    # R = 3 and 1/3 the tail at R = 1, each rounded by its float.
    EXACT_REPS = {
        0.9: 1, 0.5: 1, 1 / 3: 3, 0.3: 3, 7 / 27: 5, 0.2: 7, 0.1: 15,
        0.05: 23, 0.01: 47, 1e-3: 81, 1e-6: 193,
    }

    @pytest.mark.parametrize("delta", list(EXACT_REPS))
    def test_repetitions_match_exact_tail_scan(self, delta):
        expected = exact_majority_runs(delta)
        assert expected == self.EXACT_REPS[delta]
        assert TestConfig(eps=0.1, delta=delta).repetitions() == expected

    def test_repetitions_nonincreasing_in_delta(self):
        reps = [TestConfig(eps=0.1, delta=d).repetitions() for d in np.geomspace(1e-6, 0.99, 300)]
        assert all(a >= b for a, b in zip(reps, reps[1:]))
        assert reps[0] == 193 and reps[-1] == 1

    @pytest.mark.parametrize("delta", [1e-6, 0.1, 0.9])
    def test_explicit_repetitions_win(self, delta):
        for reps in (1, 2, 22, 300):
            assert TestConfig(eps=0.1, delta=delta, amplification_reps=reps).repetitions() == reps

    def test_delta_is_needed_only_to_plan_the_majority(self):
        # A config that learns or runs single base tests sets no delta.
        cfg = TestConfig(eps=0.1)
        assert cfg.delta is None
        with pytest.raises(ValueError, match="needs delta or amplification_reps"):
            cfg.repetitions()
        assert cfg.replace(amplification_reps=3).repetitions() == 3
        stream = SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=0)
        with pytest.raises(ValueError, match="needs delta or amplification_reps"):
            run_membership_test(stream, 100, cfg)
        assert stream.samples_drawn == 0

    def test_hoeffding_constant_is_gone(self):
        with pytest.raises(TypeError, match="amplification_const"):
            TestConfig(eps=0.1, delta=0.1, amplification_const=18.0)

    @pytest.mark.parametrize(
        "eps, delta, field",
        [(0.0, 0.1, "eps"), (1.0, 0.1, "eps"), (math.nan, 0.1, "eps"), (0.1, 0.0, "delta"),
         (0.1, 1.5, "delta")],
    )
    def test_eps_and_delta_lie_in_the_open_unit_interval(self, eps, delta, field):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, 1\)$"):
            TestConfig(eps=eps, delta=delta)

    def test_forced_binomial_threshold_is_gone(self):
        with pytest.raises(TypeError, match=REMOVED_THRESHOLD):
            TestConfig(eps=0.1, delta=0.1, **{REMOVED_THRESHOLD: 16.0})
        assert len(dataclasses.fields(TestConfig)) == 12

    def test_moments_stage_constant_is_gone(self):
        # The heavy branch reads the learning sample's moments: no moments
        # draw, so no constant to size it.
        with pytest.raises(TypeError, match=REMOVED_MOMENT_CONST):
            TestConfig(eps=0.1, delta=0.1, **{REMOVED_MOMENT_CONST: 20.0})
        assert not hasattr(TestConfig, "moment_" "samples")

    def test_tolerant_stage_constant_is_gone(self):
        # The chi^2 stage's rate constant replaced the TV tolerant stage's.
        with pytest.raises(TypeError, match=REMOVED_TOLERANT_CONST):
            TestConfig(eps=0.1, delta=0.1, **{REMOVED_TOLERANT_CONST: 5.0})
        assert not hasattr(TestConfig, "tolerant_" "samples")

    def test_truncated_log_reexport(self):
        assert pbdtest.truncated_log(0.5) == 1.0
        assert not hasattr(tester, "truncated_log")  # the package root is its one re-export

    @pytest.mark.parametrize(
        "field, value",
        [
            (f.name, v)
            for v in [0, -1.0, math.nan, math.inf, "4", True]
            for f in dataclasses.fields(TestConfig)
            if f.name.endswith("_const")
        ]
        + [
            ("amplification_reps", 2.5),
            ("amplification_reps", True),
            ("amplification_reps", 0),
            ("tail_cut", "x"),
            ("tail_cut", None),
            ("tail_cut", True),
            ("tail_cut", 0.0),
            ("learn_accuracy_const", 0.5),
            ("learn_accuracy_const", 0.999),
        ],
    )
    def test_bad_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestConfig(eps=0.1, delta=0.1, **{field: value})


class TestSampleCounts:
    # n: (chi^2 rate on Binomial(n, 1/2)'s eps/5 interval, l2 rate at
    # sigma_hat = sqrt(n/4)), at eps = 0.1 and the default constants.
    QUOTED = {
        10**3: (17_321, 48_271),
        4096: (24_495, 68_671),
        10**4: (30_595, 85_839),
        10**5: (54_296, 152_646),
    }

    def test_counts_match_the_quoted_figures(self):
        """The per-stage counts that README and ROADMAP quote come from the
        config's methods, the one place each formula is written."""
        cfg = TestConfig(eps=0.1, delta=0.1)
        assert cfg.learn_samples(0.1 / 3) == 20_823
        assert cfg.l2_sample_rate(32.0) == 68_671
        assert cfg.l2_sample_rate(math.sqrt(10**6 / 4)) == 271_446
        for n, (chi2, heavy) in self.QUOTED.items():
            lo, hi = effective_support_interval(binomial_pmf(n, 0.5), cfg.eps / 5.0)
            assert cfg.chi2_sample_rate(hi - lo + 1) == chi2, n
            assert cfg.l2_sample_rate(math.sqrt(n / 4)) == heavy, n

    def test_sparse_need_grows_as_the_fourth_root_of_n(self):
        # The interval holds about sqrt(n) points and the rate grows as the
        # root of its length.  The full-support binomial_pmf fails its mass
        # check at n = 10^6 (ROADMAP item 3), so both n use the tail_cut window.
        cfg = TestConfig(eps=0.1, delta=0.1)
        rates = {}
        for n in (10**4, 10**6):
            law = binomial_pmf(n, 0.5, tail_cut=1e-9)
            lo, hi = effective_support_interval(law, cfg.eps / 5.0)
            rates[n] = cfg.chi2_sample_rate(hi - lo + 1)
        assert rates == {10**4: 30_595, 10**6: 96_499}
        assert rates[10**6] / rates[10**4] == pytest.approx(math.sqrt(10), rel=0.05)


# The chi^2 stage at the default constants.
CHI2_CFG = TestConfig(eps=0.2, delta=0.1)


def reference_chi2(q, interval, hist, k, eps):
    """Reference: both (m + 1)-point laws built point by point, q mixed with
    eps/50 of uniform mass, and the statistic summed exactly."""
    a, b = interval
    q_pts = [q.probs[i - q.lo] if q.lo <= i <= q.hi else 0.0 for i in range(a, b + 1)]
    c_pts = [int(hist.counts[i - hist.lo]) if hist.lo <= i <= hist.hi else 0
             for i in range(a, b + 1)]
    q_pts.append(max(0.0, 1.0 - q.tail_slack - math.fsum(q_pts)))
    c_pts.append(hist.total - sum(c_pts))
    gamma = eps / 50.0
    q_mix = [(1.0 - gamma) * x + gamma / len(q_pts) for x in q_pts]
    return math.fsum(((c - k * x) ** 2 - c) / (k * k * x) for c, x in zip(c_pts, q_mix))


def coarse_chi2_divergence(p, q, interval, eps):
    """chi^2(p_I || q'): the statistic's mean, from the two explicit laws."""
    a, b = interval
    p_in = [p.probs[i - p.lo] if p.lo <= i <= p.hi else 0.0 for i in range(a, b + 1)]
    q_in = [q.probs[i - q.lo] if q.lo <= i <= q.hi else 0.0 for i in range(a, b + 1)]
    p_pts = p_in + [max(0.0, 1.0 - math.fsum(p_in))]
    q_pts = q_in + [max(0.0, 1.0 - q.tail_slack - math.fsum(q_in))]
    gamma = eps / 50.0
    q_mix = [(1.0 - gamma) * x + gamma / len(q_pts) for x in q_pts]
    return math.fsum((x - y) ** 2 / y for x, y in zip(p_pts, q_mix))


class TestChi2ClosenessTest:
    def test_exact_match_is_close(self):
        q = ExplicitDistribution(0, np.array([0.5, 0.5]))
        hist = SampleHistogram(0, np.array([500, 500]))
        close, z = chi2_closeness_test(q, (q.lo, q.hi), hist, 1000.0, CHI2_CFG.eps)
        assert close is True
        assert z == pytest.approx(reference_chi2(q, (0, 1), hist, 1000.0, CHI2_CFG.eps))
        assert z < 0.32 * CHI2_CFG.eps**2

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_must_be_positive_and_finite(self, k):
        q = ExplicitDistribution(0, np.array([0.5, 0.5]))
        hist = SampleHistogram(0, np.array([2, 1]))
        with pytest.raises(ValueError, match="k must be positive and finite"):
            chi2_closeness_test(q, (q.lo, q.hi), hist, k, CHI2_CFG.eps)

    def test_rate_uses_the_interval_length(self):
        q = binomial_pmf(100, 0.5)
        cfg = TestConfig(eps=0.5, delta=0.1, chi2_sample_const=0.25)
        rate = cfg.chi2_sample_rate(10)  # 10 of q's 101 points, and the lump
        assert rate == math.ceil(0.25 * math.sqrt(11) / 0.5**2)
        assert rate < cfg.chi2_sample_rate(len(q.probs))
        hist = SampleHistogram(50, np.array([rate]))
        chi2_closeness_test(q, (45, 54), hist, float(rate), cfg.eps)
        with pytest.raises(ValueError, match="empty"):
            chi2_closeness_test(q, (54, 45), hist, float(rate), cfg.eps)

    def test_statistic_matches_reference(self):
        rng = np.random.Generator(np.random.Philox(41))
        slacked = 0
        for trial in range(300):
            if trial % 2:
                n = int(rng.integers(50, 3000))
                q = binomial_pmf(n, float(rng.uniform(0.05, 0.95)), tail_cut=1e-9)
            else:
                m = int(rng.integers(1, 80))
                probs = np.where(rng.random(m) < 0.7, rng.random(m), 0.0)
                probs[int(rng.integers(len(probs)))] = 1.0
                q = ExplicitDistribution(int(rng.integers(-20, 20)), probs / probs.sum())
            slacked += q.tail_slack > 0.0
            # Intervals inside q's support, as the sparse stage forms them,
            # and intervals that reach past it.
            a = q.lo + int(rng.integers(-3, len(q.probs)))
            b = a + 1 + int(rng.integers(0, min(len(q.probs), 60) + 3))
            r1, r2 = (int(r) for r in rng.integers(0, 5, size=2))
            placement = ("cover", "overlap", "miss")[trial % 3]
            if placement == "cover":
                h_lo, h_hi = a - r1, b + r2
            elif placement == "overlap":
                h_lo, h_hi = (a - r1, b - 1) if trial % 2 else (a + 1, b + r2)
            else:
                h_lo, h_hi = (a - 1 - r1 - 30, a - 1 - r1) if trial % 2 else (b + 1 + r2, b + 9)
            counts = rng.integers(0, 50, size=h_hi - h_lo + 1)
            counts[[0, -1]] += 1
            hist = SampleHistogram(h_lo, counts)
            covers = h_lo <= a and h_hi >= b
            misses = h_hi < a or h_lo > b
            assert placement == ("cover" if covers else "miss" if misses else "overlap")
            k = float(rng.uniform(0.5, 2.0) * hist.total)
            eps = float(rng.uniform(0.05, 0.5))
            _, z = chi2_closeness_test(q, (a, b), hist, k, eps)
            assert z == pytest.approx(reference_chi2(q, (a, b), hist, k, eps), rel=1e-12, abs=1e-12)
        assert slacked >= 100

    @pytest.mark.parametrize("interval", [(45, 54), (30, 70), (0, 44), (101, 110)])
    def test_a_coarse_histogram_gives_the_full_histogram_statistic(self, interval):
        # Twin pools drawn whole and drawn on the interval take the same
        # Poisson total and the same samples: bit-equal results.
        q = binomial_pmf(100, 0.5)
        xs = SampleStream.from_distribution(q, seed=4).draw(3_000)
        full = SampleStream.from_samples(xs, seed=4).draw_poissonized(2_000.0)
        coarse = SampleStream.from_samples(xs, seed=4).draw_poissonized(2_000.0, within=interval)
        assert coarse.lo == interval[0] and full.lo != coarse.lo
        assert coarse.total == full.total
        assert chi2_closeness_test(q, interval, coarse, 2_000.0, 0.5) == (
            chi2_closeness_test(q, interval, full, 2_000.0, 0.5)
        )

    def test_close_and_far_rates(self):
        m, eps = 50, CHI2_CFG.eps
        probs = np.linspace(1.0, 2.0, m)
        q = ExplicitDistribution(0, probs / probs.sum())
        k = float(CHI2_CFG.chi2_sample_rate(m))
        interval = (q.lo, q.hi)
        close_hits = 0
        far_hits = 0
        trials = 60
        root_q = SampleStream.from_distribution(q, seed=8)
        # A far source: TV > 2 eps / 5 by construction.
        far_probs = probs.copy()
        far_probs[: m // 2] *= 1.0 - 0.5
        far_probs[m // 2 :] *= 1.0 + 0.5 * (probs[: m // 2].sum() / probs[m // 2 :].sum())
        far = ExplicitDistribution(0, far_probs / far_probs.sum())
        assert tv_distance(far, q) > 2 * eps / 5
        root_far = SampleStream.from_distribution(far, seed=9)
        for t in range(trials):
            xs = root_q.split(t).draw_poissonized(k, within=interval)
            close_hits += chi2_closeness_test(q, interval, xs, k, eps)[0]
            ys = root_far.split(t).draw_poissonized(k, within=interval)
            far_hits += not chi2_closeness_test(q, interval, ys, k, eps)[0]
        assert close_hits >= 0.95 * trials
        assert far_hits >= 0.95 * trials

    @pytest.mark.parametrize("source", ["member", "zigzag"])
    def test_statistic_is_unbiased(self, source):
        # Over Poissonized coarse draws its mean is chi^2(p_I || q'), for a
        # source equal to q and for the zigzag, certified far from q.
        n, eps = 1_000, 0.1
        q = binomial_pmf(n, 0.5)
        p = q if source == "member" else paired_perturbation(q, 1.1 * eps)[0]
        interval = effective_support_interval(q, eps / 5.0)
        k = float(TestConfig(eps=eps).chi2_sample_rate(interval[1] - interval[0] + 1))
        root = SampleStream.from_distribution(p, seed=21)
        trials = 2_000
        zs = np.array([
            chi2_closeness_test(q, interval, root.split(t).draw_poissonized(k, within=interval),
                                k, eps)[1]
            for t in range(trials)
        ])
        expected = coarse_chi2_divergence(p, q, interval, eps)
        se = zs.std(ddof=1) / math.sqrt(trials)
        assert abs(zs.mean() - expected) <= 4.0 * se
        if source == "zigzag":
            assert expected > 0.32 * eps**2

    def test_sparse_stage_runs_it_once_per_sparse_run(self, monkeypatch):
        calls = []

        def counting(*args, _orig=tester.chi2_closeness_test, **kw):
            out = _orig(*args, **kw)
            calls.append(out)
            return out

        monkeypatch.setattr(tester, "chi2_closeness_test", counting)
        cfg = TestConfig(eps=0.2, delta=0.3, seed=5, amplification_reps=3)
        stream = SampleStream.from_distribution(binomial_pmf(2_000, 0.5), seed=5)
        res = run_membership_test(stream, 2_000, cfg)
        runs = res.diagnostics["runs"]
        assert res.diagnostics["branch_counts"] == {"sparse": len(runs), "heavy": 0}
        assert len(calls) == len(runs) == res.diagnostics["repetitions_run"]
        for (close, z), run in zip(calls, runs):
            diag = run["diagnostics"]
            lo, hi = diag["interval"]
            assert diag["k_poissonized"] == cfg.chi2_sample_rate(hi - lo + 1)
            assert diag["chi2"] == z
            assert diag["chi2_threshold"] == pytest.approx(0.32 * cfg.eps**2)
            assert diag["tolerant_outcome"] == ("close" if close else "far")


class TestTolerantStageOnACertifiedFarSource:
    def test_zigzag_binomial_is_rejected_by_the_tolerant_stage(self):
        # Binomial(10^4, 1/2) with mass moved within each pair of adjacent
        # points, in alternating directions: certified 0.105 > eps from every
        # unimodal law, hence from every PBD.  A binomial fits its learning
        # sample, so the run reaches the sparse branch's chi^2 stage, whose
        # coarse draw sees the zigzag.
        n, cfg = 10**4, TestConfig(eps=0.1)
        far, _ = paired_perturbation(binomial_pmf(n, 0.5), 0.11)
        assert unimodal_distance_lb(far) > cfg.eps
        root = SampleStream.from_distribution(far, seed=11)
        for r in range(20):
            res = run_budgeted_test(root.split(r), n, cfg)
            assert (res.verdict, res.branch) == (Verdict.NO_PBD, Branch.SPARSE)
            assert res.diagnostics["tolerant_outcome"] == "far"
            assert res.diagnostics["chi2"] > res.diagnostics["chi2_threshold"]


def deciding_stage(res) -> str:
    """The stage whose decision a base run returned."""
    diag = res.diagnostics
    if diag.get("reason") == "learning sample not unimodal":
        return "learning certificate"
    if "tolerant_outcome" in diag:
        return "tolerant"
    if "t_n" in diag:
        return "heavy statistic"
    return diag["reason"]  # a heavy-branch check that reads no constant


class TestEveryDecidingStageHasAFarSource:
    """Each stage that can reject a run and reads a calibrated constant has a
    certified far source in the learning corpus that it rejects, so the
    sweep of that constant is bounded by a far-side error rate and not by
    member false rejects alone."""

    # The constants each stage reads.  The learning sweep calibrates its own
    # fields, and ``oracles.calibration_report`` the heavy statistic's C1 and c.
    STAGE_CONSTANTS = {
        "learning certificate": ("learn_sample_const", "learn_accuracy_const"),
        "tolerant": ("chi2_sample_const",),
        # The heavy pivot's moments and sigma_hat come from the learning sample.
        "heavy statistic": (
            "learn_sample_const", "learn_accuracy_const", "l2_sample_const", "l2_far_const"
        ),
    }
    CALIBRATED = set(LEARNING_SWEEPS) | {"l2_sample_const", "l2_far_const"}
    EXPECTED = {
        "bimodal": "learning certificate",
        "perturbed-c8": "learning certificate",
        "heavy-paired": "heavy statistic",
        "zigzag": "tolerant",
        "heavy-zigzag": "heavy statistic",
    }

    def test_far_sources_of_the_seed_0_corpus(self):
        # The learning sweep's own first 20 runs per far source at eps = 0.1.
        n = 10_000
        stages = {}
        for i, (name, source, member, cfg) in enumerate(_learning_corpus(0, n, 0.1)):
            if member:
                continue
            root = SampleStream.from_distribution(source, 0, spawn_key=(0, 0, i))
            runs = [run_budgeted_test(root.split(t), n, cfg) for t in range(20)]
            assert all(res.verdict is Verdict.NO_PBD for res in runs), name
            stages[name] = {deciding_stage(res) for res in runs}
        assert stages == {name: {stage} for name, stage in self.EXPECTED.items()}
        decided = set(self.EXPECTED.values())
        for stage, constants in self.STAGE_CONSTANTS.items():
            if self.CALIBRATED.intersection(constants):
                assert stage in decided, f"no far source is decided by the {stage} stage"

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_heavy_zigzag_is_certified_far(self, eps):
        # The heavy statistic's certified far source: more than eps from
        # every unimodal law, hence from every Bernoulli-sum law.
        corpus = {row[0]: row for row in _learning_corpus(0, 10_000, eps)}
        _, source, member, cfg = corpus["heavy-zigzag"]
        assert not member and cfg.var_threshold_const == 1e-12
        assert unimodal_distance_lb(source) > eps


class TestCoarsen:
    def test_point_mass_interval(self):
        d = ExplicitDistribution(4, np.array([1.0]))
        assert effective_support_interval(d, 0.2 / 5) == (4, 4)

    def test_binomial_interval_mass(self):
        d = binomial_pmf(100, 0.5)
        lo, hi = effective_support_interval(d, 0.5 / 5)
        assert d.probs[lo - d.lo : hi - d.lo + 1].sum() >= 0.9
        assert lo + hi == pytest.approx(100, abs=3)  # near-symmetric around the mean
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coarsened_histogram_outside_mass(self):
        d = binomial_pmf(10, 0.5)
        lo, hi = effective_support_interval(d, 0.5 / 5)
        assert 0 < lo and hi < 10
        hist = SampleHistogram(0, np.array([2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]))
        # Every sample lands on the lumped outside point, so each interval
        # point adds its mixed mass q'_i, and the lump its own term.
        eps, k = 0.5, 4.0
        _, z = chi2_closeness_test(d, (lo, hi), hist, k, eps)
        gamma, m = eps / 50.0, hi - lo + 1
        q_in = (1.0 - gamma) * d.probs[lo : hi + 1] + gamma / (m + 1)
        q_out = 1.0 - q_in.sum()
        expected = q_in.sum() + ((4 - k * q_out) ** 2 - 4) / (k * k * q_out)
        assert z == pytest.approx(expected, rel=1e-12)


class TestL2Statistic:
    def test_single_symbol_plugin(self):
        q = ExplicitDistribution(0, np.array([1.0]))
        assert l2_statistic(np.array([100]), 0, q, 100.0) == pytest.approx(-0.01)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_must_be_positive_and_finite(self, k):
        q = ExplicitDistribution(0, np.array([1.0]))
        with pytest.raises(ValueError, match="k must be positive and finite"):
            l2_statistic(np.array([3]), 0, q, k)

    def test_counts_route_matches_independent_arithmetic(self):
        rng = np.random.Generator(np.random.Philox(3))
        q_probs = rng.random(12)
        q = ExplicitDistribution(3, q_probs / q_probs.sum())
        k = 40.0
        counts = rng.poisson(5.0, size=17)
        lo = 0
        # Oracle arithmetic on the union support, written out directly.
        tn = 0.0
        for i in range(lo, lo + 40):
            ci = counts[i - lo] if 0 <= i - lo < len(counts) else 0
            qi = q.probs[i - q.lo] if q.lo <= i <= q.hi else 0.0
            tn += (ci - k * qi) ** 2 - ci
        tn /= k * k
        assert l2_statistic(counts, lo, q, k) == pytest.approx(tn, rel=1e-12)

    def test_unbiasedness_quick(self):
        # Full-scale moment validation lives in the acceptance suite.
        p = binomial_pmf(20, 0.5)
        trials = 20_000
        k = 50.0
        rng = np.random.Generator(np.random.Philox(5))
        counts = rng.poisson(k * p.probs, size=(trials, len(p.probs)))
        vals = np.array([l2_statistic(c, 0, p, k) for c in counts[:2000]])
        mean_cf, var_cf = tn_closed_form_moments(p, p, k)
        assert mean_cf == 0.0
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 4.0 * se


class TestNumericTv:
    def test_pivot_against_itself(self):
        tp = TranslatedPoissonParams(30.0, 25.0)
        pmf = translated_poisson_pmf(tp, tail_cut=1e-9)
        assert tv_distance(translated_poisson_pmf(tp), pmf) <= 1e-8

    def test_disjoint_supports(self):
        tp = TranslatedPoissonParams(1000.0, 25.0)
        point = ExplicitDistribution(0, np.array([1.0]))
        assert tv_distance(translated_poisson_pmf(tp), point) == pytest.approx(1.0, abs=1e-6)

    def test_binomial_vs_matched_pivot(self):
        tp = TranslatedPoissonParams(5000.0, 2500.0)
        assert tv_distance(translated_poisson_pmf(tp), binomial_pmf(10_000, 0.5)) < 0.05


class TestHeavyCase:
    def test_nonpositive_variance_rejects_without_drawing(self):
        src = binomial_pmf(100, 0.5)
        stream = SampleStream.from_distribution(src, seed=0)
        diag = {}
        cfg = TestConfig(eps=0.1, delta=0.1)
        verdict = heavy_case_test(stream, 100, cfg, (5.0, 0.0), src, diag)
        assert verdict is Verdict.NO_PBD
        assert diag["reason"] == "nonpositive variance estimate in heavy branch"
        assert stream.samples_drawn == 0

    def test_variance_above_half_n_rejects(self):
        src = binomial_pmf(100, 0.5)
        stream = SampleStream.from_distribution(src, seed=0)
        moments = (50.0, 60.0)
        diag = {}
        verdict = heavy_case_test(stream, 100, TestConfig(eps=0.1, delta=0.1), moments, src, diag)
        assert verdict is Verdict.NO_PBD
        assert diag["reason"] == "variance above n/2"

    def test_pivot_far_from_hypothesis_rejects(self):
        n = 10_000
        hyp = binomial_pmf(n, 0.5)
        moments = (2000.0, 1600.0)
        stream = SampleStream.from_distribution(hyp, seed=0)
        diag = {}
        verdict = heavy_case_test(stream, n, TestConfig(eps=0.1, delta=0.1), moments, hyp, diag)
        assert verdict is Verdict.NO_PBD
        assert diag["reason"] == "pivot far from hypothesis"

    def test_binomial_source_accepted(self):
        n, eps = 10_000, 0.1
        src = binomial_pmf(n, 0.5)
        cfg = TestConfig(eps=eps, delta=0.1)
        hits = 0
        trials = 40
        for t in range(trials):
            root, moments, hyp = heavy_inputs(src, n, eps, seed=400 + t)
            hits += heavy_case_test(root.split(2), n, cfg, moments, hyp, {}) is Verdict.YES_PBD
        assert hits >= 0.9 * trials

    def test_perturbed_source_rejected_through_statistic(self):
        # Source at TV 0.35 eps from the shifted Poisson matched to
        # Binomial(n, 1/2): the distance gate passes and the count statistic
        # has to do the rejecting.
        n, eps = 10_000, 0.1
        pivot = translated_poisson_pmf(TranslatedPoissonParams(5000.0, 2500.0), tail_cut=1e-9)
        far, _ = paired_perturbation(pivot, 0.35 * eps)
        cfg = TestConfig(eps=eps, delta=0.1)
        hits = 0
        trials = 40
        stat_path = 0
        for t in range(trials):
            root, moments, hyp = heavy_inputs(far, n, eps, seed=800 + t)
            diag = {}
            hits += heavy_case_test(root.split(2), n, cfg, moments, hyp, diag) is Verdict.NO_PBD
            stat_path += "t_n" in diag
        assert stat_path >= 0.9 * trials  # gate must not be doing the work
        assert hits >= 0.9 * trials

    def test_close_case_l2_ceiling(self):
        # For Bernoulli-sum sources in the heavy regime, the exact squared-l2
        # gap to the pivot, the binomial matched to the learning sample's
        # moments, stays under (5.3/sigma)(2 eps^2 / (C' sqrt(logt))).
        n, eps = 10_000, 0.1
        src = binomial_pmf(n, 0.5)
        cfg = TestConfig(eps=eps, delta=0.1)
        root = SampleStream.from_distribution(src, seed=31)
        k = cfg.learn_samples(eps / cfg.learn_accuracy_const)
        hits = 0
        trials = 40
        for t in range(trials):
            mu_hat, sigma2_hat = estimate_mean_var(root.split(t), k)
            pivot = binomial_pmf(*fit_binomial_by_moments(mu_hat, sigma2_hat, n), tail_cut=1e-9)
            sigma_hat = math.sqrt(sigma2_hat)
            # 10.0 is the paper's pivot closeness constant C'.
            ceiling = (5.3 / sigma_hat) * (2.0 * eps**2 / (10.0 * math.sqrt(cfg.logt)))
            hits += ell2_sq_distance(src, pivot) <= ceiling
        assert hits >= 0.95 * trials

    def test_far_corpus_clears_threshold_constant(self):
        # Whenever the pivot is far (TV > 0.3 eps), the restricted squared-l2
        # over the pivot's high-mass interval exceeds c eps^2/(sigma sqrt(logt)).
        for sigma_hat, eps in [(50.0, 0.1), (25.0, 0.2), (16.0, 0.15)]:
            cfg = TestConfig(eps=eps, delta=0.1)
            pivot = translated_poisson_pmf(
                TranslatedPoissonParams(sigma_hat**2 + 3.0, sigma_hat**2), tail_cut=1e-9
            )
            far, _ = paired_perturbation(pivot, 0.35 * eps)
            assert tv_distance(far, pivot) > 0.3 * eps
            from pbdtest.distributions import effective_support_interval

            lo, hi = effective_support_interval(pivot, eps / 10.0)
            a, b = lo - far.lo, hi - far.lo
            restricted = float(((far.probs - pivot.probs)[a : b + 1] ** 2).sum())
            floor = cfg.l2_far_const * eps**2 / (sigma_hat * math.sqrt(cfg.logt))
            assert restricted > floor

    def test_spread_in_far_regime(self):
        # Var/E^2 of the statistic stays below 1.5x the 1/20 target at the
        # calibrated sampling rate (closed form; empirical check in acceptance).
        sigma_hat, eps = 25.0, 0.2
        cfg = TestConfig(eps=eps, delta=0.1)
        pivot = translated_poisson_pmf(
            TranslatedPoissonParams(sigma_hat**2, sigma_hat**2), tail_cut=1e-9
        )
        far, _ = paired_perturbation(pivot, 0.35 * eps)
        k = cfg.l2_sample_rate(sigma_hat)
        mean, var = tn_closed_form_moments(far, pivot, float(k))
        assert var / mean**2 <= 1.5 / 20.0


class TestHeavyBranchPivot:
    """The heavy pivot is the binomial matched to the learning sample's
    moments, itself a Bernoulli-sum law."""

    @pytest.mark.parametrize("n", [1_000, 4096])
    def test_fair_binomial_is_accepted_at_eps_0_05(self, n):
        # Where a shifted-Poisson pivot sat too far from the member in l2
        # (at n = 10^3 its own error was 1.63x the threshold), most forced
        # heavy runs rejected it.
        cfg = TestConfig(eps=0.05, var_threshold_const=1e-12)
        root = SampleStream.from_distribution(binomial_pmf(n, 0.5), seed=0)
        runs = [run_budgeted_test(root.split(t), n, cfg) for t in range(100)]
        assert all(res.branch is Branch.HEAVY for res in runs)
        assert sum(res.verdict is Verdict.NO_PBD for res in runs) <= 10

    def test_binomial_route_pivot_is_the_hypothesis(self, monkeypatch):
        built = []

        def recording(trials, p, _orig=tester.binomial_pmf, **kw):
            built.append((trials, p))
            return _orig(trials, p, **kw)

        monkeypatch.setattr(tester, "binomial_pmf", recording)
        n = 1_000
        cfg = TestConfig(eps=0.1, var_threshold_const=1e-12)
        root = SampleStream.from_distribution(binomial_pmf(n, 0.3), seed=2)
        for t in range(10):
            res = run_budgeted_test(root.split(t), n, cfg)
            diag = res.diagnostics
            assert (res.branch, diag["hypothesis_kind"]) == (Branch.HEAVY, "binomial")
            assert diag["d_tv_pivot_vs_hypothesis"] == 0.0
            # The pivot is fitted to the moments the run reports, on at most n trials.
            trials, p = built[-1]
            assert (trials, p) == fit_binomial_by_moments(diag["mu_hat"], diag["sigma2_hat"], n)
            assert 1 <= trials <= n
            assert res.samples_used == diag["learn_samples"] + diag["realized_count"]
        assert len(built) == 10


class TestTestPbd:
    def test_point_mass_is_yes_via_sparse(self):
        d = ExplicitDistribution(0, np.array([1.0]))
        cfg = TestConfig(eps=0.2, delta=0.2, seed=0, amplification_reps=3)
        res = run_membership_test(SampleStream.from_distribution(d, seed=0), 10, cfg)
        assert res.verdict is Verdict.YES_PBD
        assert res.branch is Branch.SPARSE

    def test_replay_identical(self):
        src = binomial_pmf(500, 0.4)
        cfg = TestConfig(eps=0.15, delta=0.3, seed=7, amplification_reps=5)
        a = run_membership_test(SampleStream.from_distribution(src, seed=7), 500, cfg)
        b = run_membership_test(SampleStream.from_distribution(src, seed=7), 500, cfg)
        assert a == b

    def test_interval_within_ceiling(self):
        src = binomial_pmf(500, 0.4)
        cfg = TestConfig(eps=0.15, delta=0.3, seed=7, amplification_reps=1)
        res = run_membership_test(SampleStream.from_distribution(src, seed=7), 500, cfg)
        run = res.diagnostics["runs"][0]["diagnostics"]
        lo, hi = run["interval"]
        assert 0 < hi - lo + 1 <= cfg.logt**2.5 / cfg.eps**4
        assert "interval_len_ceiling" not in run

    def test_budgeted_run_consumes_at_most_budget(self):
        src = binomial_pmf(500, 0.4)
        cfg = TestConfig(eps=0.15, delta=0.3, seed=7, amplification_reps=1)
        for budget in (0, 10, 1_000, 50_000):
            res = run_budgeted_test(SampleStream.from_distribution(src, seed=7), 500, cfg, budget)
            assert res.samples_used <= budget

    def test_zero_budget_accepts_by_default(self):
        src = binomial_pmf(500, 0.4)
        cfg = TestConfig(eps=0.15, delta=0.3, seed=7, amplification_reps=1)
        res = run_budgeted_test(SampleStream.from_distribution(src, seed=7), 500, cfg, 0)
        assert res.verdict is Verdict.YES_PBD


class TestSampleAccounting:
    """``samples_used`` equals the samples the streams drew: unbudgeted
    ``test_pbd`` on both branches, and budgeted runs on both branches,
    which also stay within their budget."""

    N, EPS = 2_000, 0.2

    @pytest.fixture()
    def drawn(self, monkeypatch):
        counted = []
        for name in ("draw_histogram", "draw_poissonized"):
            def counting(stream, k, _draw=getattr(SampleStream, name), **kw):
                hist = _draw(stream, k, **kw)
                counted.append(hist.total)
                return hist

            monkeypatch.setattr(SampleStream, name, counting)
        return counted

    @pytest.fixture()
    def poisson_rates(self, drawn, monkeypatch):
        """The rates the Poissonized draws asked for, on top of ``drawn``."""
        rates = []

        def asking(stream, k, _draw=SampleStream.draw_poissonized, **kw):
            rates.append(k)
            return _draw(stream, k, **kw)

        monkeypatch.setattr(SampleStream, "draw_poissonized", asking)
        return rates

    def _source(self, name):
        if name == "binomial":
            return binomial_pmf(self.N, 0.5)
        if name == "bimodal":  # every run stops after its learning draw
            probs = np.zeros(self.N + 1)
            probs[0] = probs[self.N] = 0.5
            return ExplicitDistribution(0, probs)
        pivot = translated_poisson_pmf(TranslatedPoissonParams(self.N / 2, self.N / 4))
        far, _ = paired_perturbation(pivot, 0.35 * self.EPS)
        return far

    def _planned_draws(self, cfg, diag):
        """The draws a run's config plans for it, given what its diagnostics
        say it learned: the learning draw, then the Poisson total at the
        rate planned for the sparse branch's interval or the heavy branch's
        sigma_hat."""
        plan = [cfg.learn_samples(cfg.eps / cfg.learn_accuracy_const)]
        if diag.get("reason") == "learning sample not unimodal":
            return plan
        if "interval" in diag:
            lo, hi = diag["interval"]
            assert diag["k_poissonized"] == cfg.chi2_sample_rate(hi - lo + 1)
            plan.append(diag["realized_count"])
        elif "k_poissonized" in diag:
            assert diag["k_poissonized"] == cfg.l2_sample_rate(math.sqrt(diag["sigma2_hat"]))
            plan.append(diag["realized_count"])
        return plan

    @pytest.mark.parametrize("branch", [Branch.SPARSE, Branch.HEAVY])
    @pytest.mark.parametrize("source", ["binomial", "far", "bimodal"])
    def test_samples_used_matches_draws(self, drawn, poisson_rates, branch, source):
        cfg = TestConfig(eps=self.EPS, delta=0.3, seed=5, amplification_reps=3)
        if branch is Branch.HEAVY:
            cfg = cfg.replace(var_threshold_const=1e-12)
        stream = SampleStream.from_distribution(self._source(source), seed=5)
        res = run_membership_test(stream, self.N, cfg)
        runs = [run["diagnostics"] for run in res.diagnostics["runs"]]
        runs_made = res.diagnostics["repetitions_run"]
        assert runs_made == len(runs)
        assert res.diagnostics["branch_counts"][branch.value] == runs_made
        assert res.samples_used == sum(drawn) == stream.samples_drawn
        # Draw by draw, each run drew exactly what its config planned, and its
        # diagnostics report the planned counts.
        plans = [self._planned_draws(cfg, diag) for diag in runs]
        assert drawn == [k for plan in plans for k in plan]
        assert poisson_rates == [diag["k_poissonized"] for diag in runs if "k_poissonized" in diag]
        for diag, plan in zip(runs, plans):
            assert diag["learn_samples"] == plan[0]
            assert diag.get("realized_count") == (plan[1] if len(plan) > 1 else None)
            assert "moment_samples" not in diag
        if source == "bimodal":
            assert all(len(plan) == 1 for plan in plans)
        else:
            assert all(len(plan) > 1 for plan in plans)

    def test_pool_cursor_stops_with_the_vote(self):
        # A decided 3-0 vote of 5 planned runs reads the pool only up to its
        # third run; the next sample drawn is the first one the vote left.
        src = binomial_pmf(200, 0.5)
        cfg = TestConfig(eps=0.5, delta=0.3, amplification_reps=5, learn_sample_const=2.0)
        xs = SampleStream.from_distribution(src, seed=3).draw(300_000)
        pool = SampleStream.from_samples(xs)
        res = run_membership_test(pool, 200, cfg)
        assert res.verdict is Verdict.YES_PBD
        assert res.diagnostics["repetitions_run"] == 3
        assert res.samples_used == pool.samples_drawn < len(xs)
        np.testing.assert_array_equal(pool.draw(1), xs[res.samples_used : res.samples_used + 1])

    # Budgets below every testing stage's full count (the chi^2 stage
    # alone draws about 24,500 samples here).  Such a run may reject on its
    # learning sample, but it must never decide on a clipped later stage:
    # it stops and accepts instead.
    STARVED = (1, 5, 100, 5_000, 10**4)
    # From these budgets on, the half that learning gets certifies the
    # c = 8 member not unimodal.
    LEARNING_REJECTS = (5_000, 10**4)

    def _assert_starved(self, res, budget, source):
        if budget not in self.STARVED:
            return
        if source == "member" and budget in self.LEARNING_REJECTS:
            assert res.verdict is Verdict.NO_PBD
            assert "budget_exhausted" not in res.diagnostics
            assert res.samples_used == res.diagnostics["learn_samples"] <= budget // 2
        else:
            assert res.verdict is Verdict.YES_PBD
            assert res.diagnostics["budget_exhausted"] is True

    @pytest.mark.parametrize(
        "budget", [0, 1, 5, 100, 5_000, 10**4, 500_000, 5_000_000, 42_564_185]
    )
    @pytest.mark.parametrize("source", ["binomial", "member"])
    def test_budgeted_sparse_run_stays_within_budget(self, drawn, budget, source):
        # The lower-bound experiment's operating point: n = 4096, eps = 0.1,
        # one unamplified run per arm, against the fair binomial or a c = 8
        # family member.
        n = 4096
        src = binomial_pmf(n, 0.5)
        if source == "member":
            z = random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
            src = construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, z))
        cfg = TestConfig(eps=0.1, delta=0.5, seed=7, amplification_reps=1)
        res = run_budgeted_test(SampleStream.from_distribution(src, seed=7), n, cfg, budget)
        assert res.branch is Branch.SPARSE
        assert res.samples_used <= budget
        assert res.samples_used == sum(drawn)
        self._assert_starved(res, budget, source)

    @pytest.mark.parametrize(
        "budget",
        [0, 1, 5, 100, 5_000, 10**4, 10**5, STOPS_AT_L2, 5 * 10**6, 42_564_185, 10**8],
    )
    def test_budgeted_heavy_run_stays_within_budget(self, drawn, budget):
        # The same operating point forced heavy; the l2 stage's Poisson
        # total (about 69,000 here) must fit what learning (at most half the
        # budget) left.
        n = 4096
        cfg = TestConfig(
            eps=0.1, delta=0.5, seed=1, amplification_reps=1, var_threshold_const=1e-12
        )
        stream = SampleStream.from_distribution(binomial_pmf(n, 0.5), seed=1)
        res = run_budgeted_test(stream, n, cfg, budget)
        assert res.samples_used <= budget
        assert res.samples_used == sum(drawn)
        if budget >= 5:
            assert res.branch is Branch.HEAVY
        self._assert_starved(res, budget, "binomial")
        if budget == STOPS_AT_L2:
            # Out at the l2 draw: the pivot check before it still reports.
            assert res.diagnostics["budget_exhausted"] is True
            for key in ("mu_hat", "d_tv_pivot_vs_hypothesis", "k_poissonized"):
                assert key in res.diagnostics
            assert "t_n" not in res.diagnostics
        if budget == 10**8:
            assert "t_n" in res.diagnostics

    @pytest.mark.parametrize("branch", [Branch.SPARSE, Branch.HEAVY])
    def test_exhausted_run_accepts_on_either_branch(self, branch):
        n = 4096
        cfg = TestConfig(eps=0.1, delta=0.5, seed=1, amplification_reps=1)
        # Budget 0 leaves nothing after learning; budget 10^4 leaves the
        # heavy l2 stage too little for its Poisson total.
        budget = 0
        if branch is Branch.HEAVY:
            cfg, budget = cfg.replace(var_threshold_const=1e-12), 10**4
        stream = SampleStream.from_distribution(binomial_pmf(n, 0.5), seed=1)
        res = run_budgeted_test(stream, n, cfg, budget)
        assert res.branch is branch
        assert res.verdict is Verdict.YES_PBD
        assert res.diagnostics["budget_exhausted"] is True

    def test_unbudgeted_run_raises_when_its_pool_runs_out_after_learning(self, drawn):
        # The pool holds the learning draw and nothing more: without a budget
        # there is no starved-run rule, so the chi^2 stage's refusal surfaces.
        cfg = TestConfig(eps=self.EPS, delta=0.5, amplification_reps=1)
        need = cfg.learn_samples(self.EPS / cfg.learn_accuracy_const)
        pool = SampleStream.from_distribution(binomial_pmf(self.N, 0.5), seed=2).draw(need)
        stream = SampleStream.from_samples(pool)
        with pytest.raises(StreamExhausted, match="sample pool exhausted"):
            run_budgeted_test(stream, self.N, cfg)
        assert drawn == [need] and stream.samples_drawn == need

    @pytest.mark.parametrize("accuracy", [1.0, 3.0, 10.0])
    def test_learning_stage_runs_at_eps_over_d(self, drawn, accuracy):
        # The learning stage asks for A_L logt^2(D/eps) D^2 / eps^2 samples
        # and draws them as the run's first histogram.
        cfg = TestConfig(eps=self.EPS, delta=0.3, learn_accuracy_const=accuracy)
        stream = SampleStream.from_distribution(binomial_pmf(self.N, 0.5), seed=2)
        res = run_budgeted_test(stream, self.N, cfg)
        need = cfg.learn_samples(self.EPS / accuracy)
        assert res.diagnostics["learn_samples"] == need == drawn[0]

    def test_negative_budget_is_refused(self, drawn):
        # So is any budget that is not an integer: a NaN budget used to give
        # a cap that refused nothing (the run drew 44,823 samples and
        # accepted), and 2.5 a float samples_used.
        cfg = TestConfig(eps=0.1, delta=0.5, seed=1, amplification_reps=1)
        stream = SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=1)
        for budget in (-5, math.nan, 2.5):
            with pytest.raises(ValueError, match="sample budget must be a nonnegative integer"):
                run_budgeted_test(stream, 100, cfg, sample_budget=budget)
        assert drawn == [] and stream.samples_drawn == 0


def full_majority(stream, n, config):
    """Reference: the majority over every planned run, with no early stop."""
    reps = config.repetitions()
    runs = [run_budgeted_test(stream.split(r), n, config) for r in range(reps)]
    yes_votes = sum(r.verdict is Verdict.YES_PBD for r in runs)
    return (Verdict.YES_PBD if 2 * yes_votes > reps else Verdict.NO_PBD), runs


class TestEarlyStoppedMajority:
    """The stopped vote gives the full majority's verdict from a prefix of its runs."""

    N, EPS = 2_000, 0.2

    def _sources(self):
        n, eps = self.N, self.EPS
        bimodal = np.zeros(n + 1)
        bimodal[0] = bimodal[n] = 0.5
        z = random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
        pivot = translated_poisson_pmf(TranslatedPoissonParams(n / 2, n / 4))
        near, _ = paired_perturbation(binomial_pmf(n, 0.5), 0.15 * eps)
        return {
            "binomial": (binomial_pmf(n, 0.5), False),
            "bimodal": (ExplicitDistribution(0, bimodal), False),
            "criterion-07-member": (
                construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, z)),
                False,
            ),
            "heavy-far": (paired_perturbation(pivot, 0.35 * eps)[0], True),
            # About half of its heavy runs accept, so votes stay open late.
            "heavy-boundary": (near, True),
        }

    @pytest.mark.parametrize(
        "name", ["binomial", "bimodal", "criterion-07-member", "heavy-far", "heavy-boundary"]
    )
    def test_verdict_and_runs_match_full_majority(self, name):
        src, heavy = self._sources()[name]
        for seed in range(50):
            # Odd and even planned counts, 22 for votes that stay open over
            # many runs; None is the exact-tail count at delta = 0.3, 3.
            reps = (1, 2, 5, 22, None)[seed % 5]
            cfg = TestConfig(eps=self.EPS, delta=0.3, seed=seed, amplification_reps=reps)
            if heavy:
                cfg = cfg.replace(var_threshold_const=1e-12)
            res = run_membership_test(SampleStream.from_distribution(src, seed=seed), self.N, cfg)
            verdict, full_runs = full_majority(
                SampleStream.from_distribution(src, seed=seed), self.N, cfg
            )
            assert res.verdict is verdict
            runs = res.diagnostics["runs"]
            made = len(runs)
            assert runs == [r.to_dict() for r in full_runs[:made]]
            assert res.diagnostics["repetitions"] == len(full_runs)
            assert res.diagnostics["repetitions_run"] == made
            assert res.samples_used == sum(r.samples_used for r in full_runs[:made])
            # Stopped at the first decided prefix: one run fewer left both outcomes open.
            planned = len(full_runs)
            yes_before = sum(r["verdict"] == "yes_pbd" for r in runs[:-1])
            left = planned - (made - 1)
            assert 2 * (yes_before + left) > planned and 2 * yes_before <= planned


class TestSourceSupport:
    """A source with values outside [0, n] is refused before anything is drawn."""

    @pytest.mark.parametrize(
        "stream, n",
        [
            (SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=0), 1),
            (SampleStream.from_distribution(ExplicitDistribution(-3, np.full(4, 0.25)), 0), 10),
            (SampleStream.from_samples([3, 11, 4]), 10),
        ],
        ids=["binomial-above-n", "explicit-below-0", "pool-above-n"],
    )
    @pytest.mark.parametrize("entry", ["test_pbd", "run_budgeted_test", "budgeted", "learn_pbd"])
    def test_refused_by_every_entry_point(self, stream, n, entry):
        cfg = TestConfig(eps=0.1, delta=0.1, amplification_reps=3)
        call = {
            "test_pbd": lambda: run_membership_test(stream, n, cfg),
            "run_budgeted_test": lambda: run_budgeted_test(stream, n, cfg),
            # A zero budget skips learning's draw, not the check.
            "budgeted": lambda: run_budgeted_test(stream, n, cfg, sample_budget=0),
            "learn_pbd": lambda: learner.learn_pbd(stream, n, 0.1, cfg),
        }[entry]
        with pytest.raises(ValueError, match=rf"outside \[0, {n}\]"):
            call()
        assert stream.samples_drawn == 0


class TestHypothesisPmfBuiltOnce:
    def test_binomial_fit_route_builds_one_pmf(self, monkeypatch):
        calls = []

        def counting(n, p, _orig=learner.binomial_pmf, **kw):
            calls.append((n, p))
            return _orig(n, p, **kw)

        monkeypatch.setattr(learner, "binomial_pmf", counting)
        src = binomial_pmf(2_000, 0.5)
        cfg = TestConfig(eps=0.2, delta=0.3, seed=5)
        res = run_budgeted_test(SampleStream.from_distribution(src, seed=5), 2_000, cfg)
        assert res.diagnostics["hypothesis_kind"] == "binomial"
        # The fit check and the sparse stage share one build.
        assert len(calls) == 1


class TestLearningSampleCertificate:
    """The learner's unimodal check on its own sample: no member of the
    learning sweep's corpus trips it, and the two far sources the default
    config sends down the sparse route reject on the learning draw alone."""

    RUNS = 100

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_no_member_is_refused(self, eps):
        # 100 learns per member at the tester's learning accuracy eps / D,
        # seed 1, apart from the learning sweep's seed 0.
        n = 10_000
        checked = {}
        for i, (name, source, member, cfg) in enumerate(_learning_corpus(1, n, eps)):
            if not member:
                continue
            root = SampleStream.from_distribution(source, 1, spawn_key=(2, i))
            learns = [
                learner.learn_pbd(root.split(t), n, eps / cfg.learn_accuracy_const, cfg)
                for t in range(self.RUNS)
            ]
            assert not any(learned.not_unimodal for learned in learns), name
            checked[name] = sum(learned.unimodal_lb is not None for learned in learns)
        # No binomial fits the 0.05/0.95 coins, so every one of their learns
        # reaches the check and the guard is not vacuous.
        assert checked["skewed-20"] == self.RUNS

    @pytest.mark.parametrize("name", ["bimodal", "perturbed-c8"])
    def test_far_source_rejects_on_its_learning_draw(self, name):
        # perturbed-c8 at eps = 0.1 is criterion 07's certified member.
        n = 10_000
        corpus = {row[0]: row for row in _learning_corpus(1, n, 0.1)}
        _, source, member, cfg = corpus[name]
        assert not member
        root = SampleStream.from_distribution(source, seed=3)
        for t in range(10):
            res = run_budgeted_test(root.split(t), n, cfg)
            diag = res.diagnostics
            assert res.verdict is Verdict.NO_PBD
            assert diag["reason"] == "learning sample not unimodal"
            assert diag["unimodal_lb"] > diag["unimodal_lb_threshold"]
            assert res.samples_used == diag["learn_samples"]
            assert "k_poissonized" not in diag and "mu_hat" not in diag
        # The corpus configs set no delta: the majority is planned at 0.1.
        amplified = run_membership_test(
            SampleStream.from_distribution(source, seed=4), n, cfg.replace(delta=0.1)
        )
        assert amplified.verdict is Verdict.NO_PBD
        learned = [r["diagnostics"]["learn_samples"] for r in amplified.diagnostics["runs"]]
        assert amplified.samples_used == sum(learned)

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_half_half_law_rejects_on_its_learning_draws(self, seed):
        # Half/half on {0, 10^4} at eps = 0.3: its variance is far above any
        # member's, yet no binomial fits the learning draw, so every run
        # rejects on the certificate and the vote ends after 8 of them,
        # 1,061 samples each.
        n = 10_000
        probs = np.zeros(n + 1)
        probs[0] = probs[n] = 0.5
        stream = SampleStream.from_distribution(ExplicitDistribution(0, probs), seed=seed)
        res = run_membership_test(stream, n, TestConfig(eps=0.3, delta=0.1))
        assert res.verdict is Verdict.NO_PBD
        assert res.samples_used == 8 * 1061 == 8488
        reasons = {run["diagnostics"]["reason"] for run in res.diagnostics["runs"]}
        assert reasons == {"learning sample not unimodal"}

    def test_binomial_fit_route_skips_the_check(self):
        cfg = TestConfig(eps=0.1, delta=0.1, seed=2)
        stream = SampleStream.from_distribution(binomial_pmf(10_000, 0.5), seed=2)
        res = run_budgeted_test(stream, 10_000, cfg)
        assert res.diagnostics["hypothesis_kind"] == "binomial"
        assert "unimodal_lb" not in res.diagnostics


def _half_half_law(n):
    probs = np.zeros(n + 1)
    probs[0] = probs[n] = 0.5
    return ExplicitDistribution(0, probs)


def _c8_member(n):
    # Criterion 07's certified-far member.
    z = random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
    return construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, z))


class TestRejectedRunBuildsNoHypothesis:
    """The learner projects a sparse hypothesis for every sample it does not
    certify as not unimodal, and never for one it does."""

    @pytest.fixture()
    def projections(self, monkeypatch):
        calls = []

        def counting(probs, _orig=learner.unimodal_projection):
            calls.append(len(probs))
            return _orig(probs)

        monkeypatch.setattr(learner, "unimodal_projection", counting)
        return calls

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("law", [_half_half_law, _c8_member], ids=["half-half", "c8"])
    def test_far_source_projects_nothing(self, projections, law, seed):
        n = 10_000
        stream = SampleStream.from_distribution(law(n), seed=seed)
        res = run_membership_test(stream, n, TestConfig(eps=0.1, delta=0.1, seed=seed))
        assert res.verdict is Verdict.NO_PBD
        reasons = {run["diagnostics"]["reason"] for run in res.diagnostics["runs"]}
        assert reasons == {"learning sample not unimodal"}
        assert projections == []

    def test_each_tolerant_run_projects_once(self, projections):
        # Ten 0.05 coins and ten 0.95 coins: no binomial fits them, so every
        # run takes the sparse route, passes the certificate and reads its
        # hypothesis in the chi^2 stage.
        source = pbd_pmf(Pbd(np.array([0.05] * 10 + [0.95] * 10)))
        cfg = TestConfig(eps=0.1, delta=0.1)
        root = SampleStream.from_distribution(source, seed=6)
        for t in range(10):
            before = len(projections)
            res = run_budgeted_test(root.split(t), 20, cfg)
            assert res.diagnostics["hypothesis_kind"] == "sparse"
            assert "chi2" in res.diagnostics
            assert len(projections) == before + 1

    def test_flagged_sample_gets_no_hypothesis(self, projections):
        n = 10_000
        stream = SampleStream.from_distribution(_half_half_law(n), seed=0)
        cfg = TestConfig(eps=0.1, delta=0.1)
        learned = learner.learn_pbd(stream, n, 0.1 / cfg.learn_accuracy_const, cfg)
        assert learned.not_unimodal and learned.dist is None
        assert projections == []

    @pytest.mark.parametrize("var_const, branch", [(None, Branch.SPARSE), (1e-12, Branch.HEAVY)])
    def test_rejected_run_reports_its_sample_variance_branch(self, var_const, branch):
        # A rejected run holds no hypothesis variance; its learning sample's
        # variance, about n^2 / 4, picks its branch against the threshold.
        n = 10_000
        cfg = TestConfig(eps=0.1, delta=0.1)
        if var_const is not None:
            cfg = cfg.replace(var_threshold_const=var_const)
        root = SampleStream.from_distribution(_half_half_law(n), seed=1)
        for t in range(3):
            res = run_budgeted_test(root.split(t), n, cfg)
            diag = res.diagnostics
            assert res.verdict is Verdict.NO_PBD
            assert diag["reason"] == "learning sample not unimodal"
            assert "hypothesis_variance" not in diag
            assert diag["hypothesis_kind"] == "sparse"
            assert diag["unimodal_lb"] > diag["unimodal_lb_threshold"]
            assert res.branch is branch


class TestReadmeOperatingPoint:
    """eps = 0.4, delta = 0.3, the README's example and the benchmark's
    ``pbdtest test --spec`` workload, plans a vote of only 3 runs, so the
    base runs must almost never reject a member."""

    def test_heterogeneous_member_is_almost_never_rejected(self):
        # At A_chi = 10 these runs, continued to 2,000, rejected 58; at the
        # shipped 20, 1 in 2,000, and 8 in 12,000 over three laws and two
        # other stream seeds.
        n = 10_000
        law = pbd_pmf(Pbd(seeded_generator(0).uniform(0.05, 0.95, size=n)), tail_cut=1e-9)
        cfg = TestConfig(eps=0.4, delta=0.3)
        assert cfg.repetitions() == 3
        root = SampleStream.from_distribution(law, seed=0)
        runs = [run_budgeted_test(root.split(t), n, cfg) for t in range(1_000)]
        assert all(res.branch is Branch.SPARSE for res in runs)
        assert sum(res.verdict is Verdict.NO_PBD for res in runs) <= 2


class TestUniformLawsFarFromEveryPbd:
    """ROADMAP item 15: unimodal laws far from every PBD pass the sparse route.

    Uniform laws on W points centred at n/2 (the first on all of {0, 1, 2}).
    Every PBD on [0, n] has variance at most n/4, so by Chebyshev it puts at
    least 1 - n/(4 t^2) of its mass on a 2t-point window, where a uniform law
    on W points puts at most 2t/W: the three wide laws sit at least 0.42,
    0.32 and 0.25 from every PBD.
    """

    LAWS = ((3, 3), (1000, 200), (4096, 300), (10_000, 400))

    def test_uniform_on_three_points_is_far_at_eps_0_1(self):
        uniform = ExplicitDistribution(0, np.full(3, 1.0 / 3.0))
        tv = exact_tv_to_pbd_class(uniform, 3, 0.01)
        assert tv == pytest.approx(0.1378, abs=5e-5)
        # The grid value is within n * grid_step = 0.03 of the true infimum.
        assert tv - 3 * 0.01 > 0.1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
    def test_far_uniform_laws_are_rejected(self):
        cfg = TestConfig(eps=0.1, delta=0.1)
        rejections = 0
        for n, width in self.LAWS:
            lo = n // 2 - width // 2
            law = ExplicitDistribution(lo, np.full(width, 1.0 / width))
            for seed in range(5):
                stream = SampleStream.from_distribution(law, seed=seed)
                res = run_membership_test(stream, n, cfg.replace(seed=seed))
                rejections += res.verdict is Verdict.NO_PBD
        # At delta = 0.1 each run rejects a far law with frequency >= 0.9.
        assert rejections >= 18
