"""Unit tests for the brute-force oracles themselves."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
# Skips under numpy/scipy versions other than those the golden hashes pin.
from test_golden import pytestmark as pinned_versions

from pbdtest import distributions, oracles
from pbdtest.calibrated import TestConfig
from pbdtest.distributions import (
    ExplicitDistribution,
    Pbd,
    TranslatedPoissonParams,
    binomial_pmf,
    pbd_pmf,
    translated_poisson_pmf,
    tv_distance,
)
from pbdtest.learner import LearnedPbd
from pbdtest.oracles import (
    OracleReport,
    _enumerated_pmf_rows,
    brute_force_pbd_pmf,
    ell2_sq_distance,
    ell_inf_distance,
    exact_tv_to_pbd_class,
    exact_tv_to_unimodal,
    learning_calibration_report,
    monte_carlo_moment_check,
    paired_perturbation,
    tn_closed_form_moments,
    tp_approx_bounds,
    tp_pair_tv_bound,
)
from pbdtest.tester import Verdict


class TestBruteForcePmf:
    def test_two_fair_coins(self):
        d = brute_force_pbd_pmf([0.5, 0.5])
        np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_all_ones(self):
        d = brute_force_pbd_pmf([1.0, 1.0, 1.0])
        assert d.probs[3 - d.lo] == pytest.approx(1.0)

    def test_cap(self):
        with pytest.raises(ValueError, match="n = 20"):
            brute_force_pbd_pmf(np.full(21, 0.5))

    def test_agrees_with_convolution(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(20):
            ps = rng.random(int(rng.integers(0, 13)))
            a = brute_force_pbd_pmf(ps)
            b = pbd_pmf(Pbd(ps))
            assert np.abs(a.probs - b.probs).max(initial=0.0) <= 1e-12

    def test_enumerated_rows_match_convolution(self):
        """The enumeration shared with the grid search, on random (K, n) grids."""
        rng = np.random.Generator(np.random.Philox(4))
        for n in range(4):
            grid = rng.random((int(rng.integers(1, 40)), n))
            rows = _enumerated_pmf_rows(grid)
            assert rows.shape == (len(grid), n + 1)
            for ps, row in zip(grid, rows):
                assert np.abs(row - pbd_pmf(Pbd(ps)).probs).max() <= 1e-12


class TestTvToPbdClass:
    def test_exact_member_hits_zero(self):
        d = binomial_pmf(2, 0.5)
        assert exact_tv_to_pbd_class(d, 2, 0.05) == pytest.approx(0.0, abs=1e-12)

    def test_two_spikes_value(self):
        # Mass at both endpoints cannot be matched: the grid minimum sits at
        # p = (0.29, 0.29) with TV ~ 0.416, comfortably above the 0.25
        # unimodal certificate for the same target.
        d = ExplicitDistribution(0, np.array([0.5, 0.0, 0.5]))
        v = exact_tv_to_pbd_class(d, 2, 0.01)
        assert v == pytest.approx(0.4159, abs=0.005)

    def test_monotone_in_grid(self):
        d = ExplicitDistribution(0, np.array([0.4, 0.1, 0.5]))
        coarse = exact_tv_to_pbd_class(d, 2, 0.05)
        fine = exact_tv_to_pbd_class(d, 2, 0.01)
        assert fine <= coarse + 1e-12

    def test_caps(self):
        d = binomial_pmf(2, 0.5)
        with pytest.raises(ValueError):
            exact_tv_to_pbd_class(d, 4, 0.05)
        with pytest.raises(ValueError):
            exact_tv_to_pbd_class(d, 2, 0.001)

    @pytest.mark.parametrize("grid_step", [2.0, math.inf, math.nan, 1.0001, 0.0099, 0.0, -0.5])
    def test_grid_step_outside_the_cap_is_refused(self, grid_step):
        # 2.0 and inf used to give a zero-point grid and return nan.
        with pytest.raises(ValueError, match=r"grid_step must lie in \[0.01, 1\]"):
            exact_tv_to_pbd_class(binomial_pmf(2, 0.5), 2, grid_step)

    def test_grid_never_coarser_than_its_step(self):
        # 0.7 used to search {0, 1} alone, a step of 1, and put Binomial(2,
        # 1/2) at 0.5 from the class it belongs to; its grid is now {0, 1/2, 1}.
        d = binomial_pmf(2, 0.5)
        assert exact_tv_to_pbd_class(d, 2, 0.7) == exact_tv_to_pbd_class(d, 2, 0.5) == 0.0
        assert exact_tv_to_pbd_class(d, 2, 1.0) == 0.5


# exact_tv_to_unimodal on ``test_values_pinned``'s laws, in order.
LP_PINS = [
    "0x1.4a95861dbe44bp-3", "0x1.3d4c605920685p-4", "0x1.694dfdf66be39p-4",
    "0x1.1c3f2ef067a61p-2", "0x1.7d80edf9c733ep-3", "0x1.21776bac73bcbp-3",
    "0x0.0p+0", "0x1.0ae7fabe7a4c3p-3", "0x1.46e0a9843fd8ep-5",
    "0x1.80ab4c4844082p-2", "0x1.18984f9f86bbdp-3", "0x1.60628ac1e9bffp-3",
    "0x1.5f85f229330fbp-3", "0x1.6a4ca31b2fb8ep-3", "0x0.0p+0",
    "0x1.0f692d367c17cp-2", "0x1.189fe005eefa6p-3", "0x1.27bc9d2a85a5bp-3",
    "0x1.236680a70aa67p-4", "0x0.0p+0",
]


class TestTvToUnimodal:
    def test_unimodal_is_zero(self):
        assert exact_tv_to_unimodal(binomial_pmf(12, 0.4)) == pytest.approx(0.0, abs=1e-7)

    def test_two_spikes_projection(self):
        d = ExplicitDistribution(0, np.array([0.5, 0.0, 0.5]))
        assert exact_tv_to_unimodal(d) == pytest.approx(0.25, abs=1e-6)

    def test_support_cap(self):
        with pytest.raises(ValueError, match="support"):
            exact_tv_to_unimodal(ExplicitDistribution(0, np.full(61, 1.0 / 61.0)))

    @pinned_versions
    def test_values_pinned(self):
        """HiGHS's value on 20 fixed Philox laws, by ``float.hex``.

        Taken while each constraint row was still built by a Python loop,
        before the matrix was built in numpy blocks: the LP handed to HiGHS
        must not change.
        """
        rng = np.random.Generator(np.random.Philox(2324))
        got = []
        for i in range(20):
            m = int(rng.integers(2, 21))
            p = rng.random(m)
            if i % 3 == 0:
                p[rng.random(m) < 0.3] = 0.0
            p[m // 2] += 0.05
            got.append(exact_tv_to_unimodal(ExplicitDistribution(0, p / p.sum())).hex())
        assert got == LP_PINS


class TestTnMoments:
    def test_identical_pair_zero_mean(self):
        p = binomial_pmf(10, 0.5)
        mean, var = tn_closed_form_moments(p, p, 50.0)
        assert mean == 0.0
        assert var > 0.0

    def test_monte_carlo_matches_closed_forms(self):
        p = binomial_pmf(20, 0.4)
        q = binomial_pmf(20, 0.5)
        reports = monte_carlo_moment_check(p, q, 50.0, trials=30_000, seed=4)
        mean_report, var_report = reports
        assert mean_report.case == "tn_mean"
        assert mean_report.abs_error <= 4.0 * mean_report.std_error
        assert var_report.abs_error <= max(0.1 * var_report.fast_value, 3.0 * var_report.std_error)

    def test_trials_floor(self):
        p = binomial_pmf(4, 0.5)
        with pytest.raises(ValueError, match="10\\^4"):
            monte_carlo_moment_check(p, p, 10.0, trials=100)


class TestPairedPerturbation:
    def test_tv_is_exact(self):
        base = binomial_pmf(60, 0.5)
        far, ell2 = paired_perturbation(base, 0.05)
        assert tv_distance(far, base) == pytest.approx(0.05, rel=1e-9)
        assert ell2_sq_distance(far, base) == pytest.approx(ell2, rel=1e-9)

    def test_target_too_large(self):
        base = binomial_pmf(6, 0.5)
        with pytest.raises(ValueError, match="movable"):
            paired_perturbation(base, 0.9)

    @pytest.mark.parametrize("tv_target", [-0.1, -1e-300, math.nan, -math.inf, math.inf])
    def test_target_outside_zero_to_movable(self, tv_target):
        # -0.1 used to return a law at TV 0.1, and NaN failed later on its mass.
        with pytest.raises(ValueError, match="movable"):
            paired_perturbation(binomial_pmf(4, 0.5), tv_target)

    def test_zero_target_is_the_base(self):
        base = binomial_pmf(4, 0.5)
        far, ell2 = paired_perturbation(base, 0.0)
        assert np.array_equal(far.probs, base.probs) and ell2 == 0.0


class _SourceStream:
    """Stands in for a corpus source's stream in the sweep: it knows the
    source's place in the corpus and draws nothing."""

    samples_drawn = 0

    def __init__(self, source, spawn_key):
        self.source = source
        self.index = spawn_key[-1]

    @classmethod
    def from_distribution(cls, source, seed, spawn_key):
        return cls(source, spawn_key)

    def split(self, t):
        return self


def stub_sweep_runs(monkeypatch, field, errs):
    """Make every run of the ``field`` sweep a fixed function of its source
    and the swept value.

    A base run on a source errs (rejects a member, accepts a far source)
    exactly when ``errs(name, eps, value)``, so it errs on every run of the
    source or on none; the learner returns the source itself, so it never
    misses.
    """
    corpus = [(name, member) for name, _, member, _ in oracles._learning_corpus(0, 10_000, 0.1)]

    def run_budgeted_test(stream, n, cfg):
        name, member = corpus[stream.index]
        accepts = member != errs(name, cfg.eps, getattr(cfg, field))
        return SimpleNamespace(verdict=Verdict.YES_PBD if accepts else Verdict.NO_PBD)

    def learn_pbd(stream, n, eps, cfg):
        return LearnedPbd(stream.source, None, 0.0, 0.0)

    monkeypatch.setattr(oracles, "SampleStream", _SourceStream)
    monkeypatch.setattr(oracles, "run_budgeted_test", run_budgeted_test)
    monkeypatch.setattr(oracles, "learn_pbd", learn_pbd)


class TestLearningCalibration:
    def test_default_learn_sample_const_keeps_every_rate(self):
        # Drift guard: 100 base runs and 100 learner runs per corpus source at
        # the calibrated A_L (seed 1, apart from the sweep's seed 0) stay
        # within the sweep's rule.
        default = TestConfig.learn_sample_const
        report = learning_calibration_report(1, grid=(default,), runs=100)
        (row,) = report["sweep"]
        (point,) = row["points"]
        sources = point["sources"]
        assert row["passes"], sources
        rates = {name: r["error_rate"] for name, r in sources.items() if "error_rate" in r}
        assert all(rate <= report["max_error_rate"] for rate in rates.values()), rates
        misses = {n: r["learn_miss_rate"] for n, r in sources.items() if "learn_miss_rate" in r}
        assert set(misses) == {name for name, member in report["members"].items() if member}
        assert all(rate <= report["max_learn_miss_rate"] for rate in misses.values()), misses

    def test_default_learn_accuracy_const_keeps_every_rate(self):
        # Drift guard: 100 base runs per corpus source at the calibrated D,
        # at both corpus points (seed 1, apart from the sweep's seed 0), stay
        # within the sweep's rule.  The A_chi sweep has the same points, so
        # these runs guard the shipped A_chi too.
        default = TestConfig.learn_accuracy_const
        report = learning_calibration_report(1, "learn_accuracy_const", grid=(default,), runs=100)
        (row,) = report["sweep"]
        assert [(p["n"], p["eps"]) for p in row["points"]] == [(10_000, 0.1), (10_000, 0.05)]
        for point in row["points"]:
            rates = {n: r["error_rate"] for n, r in point["sources"].items() if "error_rate" in r}
            assert all(rate <= report["max_error_rate"] for rate in rates.values()), rates
        assert row["passes"]

    def test_rule_takes_the_next_grid_value_above_the_edge(self, monkeypatch):
        # Every source errs below A_L = 1 and none from there up.
        stub_sweep_runs(monkeypatch, "learn_sample_const", lambda name, eps, value: value < 1.0)
        report = learning_calibration_report(0, grid=(0.01, 2.0, 5.0), runs=4)
        assert [row["passes"] for row in report["sweep"]] == [False, True, True]
        assert all(len(row["points"][0]["sources"]) == 12 for row in report["sweep"])
        assert report["largest_failing_learn_sample_const"] == 0.01
        assert report["smallest_passing_learn_sample_const"] == 2.0
        assert report["chosen_learn_sample_const"] == 5.0
        # A passing last value is its own choice: the grid has nothing above it.
        report = learning_calibration_report(0, grid=(0.01, 2.0), runs=4)
        assert report["chosen_learn_sample_const"] == 2.0
        report = learning_calibration_report(0, grid=(0.01,), runs=4)
        assert report["smallest_passing_learn_sample_const"] is None
        assert report["chosen_learn_sample_const"] is None
        # A failing value above a passing one moves the edge above it.
        stub_sweep_runs(
            monkeypatch, "learn_sample_const", lambda name, eps, value: value in (0.01, 2.0)
        )
        report = learning_calibration_report(0, grid=(0.01, 1.0, 2.0, 5.0, 10.0), runs=4)
        assert [row["passes"] for row in report["sweep"]] == [False, True, False, True, True]
        assert report["largest_failing_learn_sample_const"] == 2.0
        assert report["chosen_learn_sample_const"] == 10.0

    def test_accuracy_sweep_passes_only_where_every_point_passes(self, monkeypatch):
        # At D = 1 every source errs at both points; below D = 2 the twenty
        # skewed coins are rejected at eps = 0.1 alone, so the D = 1.4 row's
        # two points disagree.
        def errs(name, eps, value):
            return value < 1.2 or (name == "skewed-20" and eps == 0.1 and value < 2.0)

        stub_sweep_runs(monkeypatch, "learn_accuracy_const", errs)
        report = learning_calibration_report(
            0, "learn_accuracy_const", grid=(1.0, 1.4, 3.0, 10.0), runs=4
        )
        assert report["field"] == "learn_accuracy_const"
        assert report["points"] == [{"n": 10_000, "eps": 0.1}, {"n": 10_000, "eps": 0.05}]
        for row in report["sweep"]:
            assert [p["eps"] for p in row["points"]] == [0.1, 0.05]
            assert row["passes"] == all(p["passes"] for p in row["points"])
            for point in row["points"]:
                assert len(point["sources"]) == 12
                # learn_pbd does not read D, so the learner's own miss rate is not run.
                assert all("learn_miss_rate" not in r for r in point["sources"].values())
        assert report["max_learn_miss_rate"] is None
        assert [p["passes"] for p in report["sweep"][1]["points"]] == [False, True]
        assert [row["passes"] for row in report["sweep"]] == [False, False, True, True]
        assert report["largest_failing_learn_accuracy_const"] == 1.4
        assert report["smallest_passing_learn_accuracy_const"] == 3.0
        assert report["chosen_learn_accuracy_const"] == 10.0

    def test_a_rate_must_clear_its_bound_by_two_standard_errors(self, monkeypatch):
        # The skewed coins are rejected on 19 of 100 runs at D = 1: under the
        # 0.2 bound, but by less than two standard errors (0.039), so D = 1
        # fails.  At D = 2, 10 of 100 clear it (0.10 + 0.06).
        stub_sweep_runs(monkeypatch, "learn_accuracy_const", lambda name, eps, value: False)
        corpus = [(name, member) for name, _, member, _ in oracles._learning_corpus(0, 10_000, 0.1)]
        wrong = {1.0: 19, 2.0: 10, 3.0: 0}
        seen = Counter()

        def run_budgeted_test(stream, n, cfg):
            name, member = corpus[stream.index]
            key = (name, cfg.eps, cfg.learn_accuracy_const)
            errs = name == "skewed-20" and seen[key] < wrong[cfg.learn_accuracy_const]
            seen[key] += 1
            return SimpleNamespace(verdict=Verdict.YES_PBD if member != errs else Verdict.NO_PBD)

        monkeypatch.setattr(oracles, "run_budgeted_test", run_budgeted_test)
        report = learning_calibration_report(
            0, "learn_accuracy_const", grid=(1.0, 2.0, 3.0), runs=100
        )
        assert report["rate_margin_se"] == 2.0
        rates = [row["points"][0]["sources"]["skewed-20"]["error_rate"] for row in report["sweep"]]
        assert rates == [0.19, 0.1, 0.0] and rates[0] <= report["max_error_rate"]
        assert [row["passes"] for row in report["sweep"]] == [False, True, True]
        assert report["largest_failing_learn_accuracy_const"] == 1.0
        assert report["chosen_learn_accuracy_const"] == 3.0

    def test_no_hypothesis_counts_as_a_miss(self, monkeypatch):
        # A learner that certifies every sample not unimodal returns no
        # hypothesis, and the sweep counts each such call as a miss.
        monkeypatch.setattr(
            oracles, "learn_pbd", lambda *a, **kw: LearnedPbd(None, None, 0.0, 0.0)
        )
        report = learning_calibration_report(5, grid=(2.0,), runs=2)
        (row,) = report["sweep"]
        members = [name for name, member in report["members"].items() if member]
        sources = row["points"][0]["sources"]
        assert {name: sources[name]["learn_miss_rate"] for name in members} == dict.fromkeys(
            members, 1.0
        )
        assert not row["passes"]

    def test_undecided_source_is_reported_but_not_counted(self, monkeypatch):
        # heavy-paired lies about 0.35 eps from Binomial(n, 1/2), so the
        # tester may accept it: the sweep records its rejection rate and no
        # bound reads it.  Here it is accepted on every run and every other
        # source gets the right verdict, so the value passes.
        corpus = {name: member for name, _, member, _ in oracles._learning_corpus(0, 10_000, 0.1)}
        assert corpus["heavy-paired"] is None
        assert [name for name, member in corpus.items() if member is None] == ["heavy-paired"]
        stub_sweep_runs(monkeypatch, "chi2_sample_const", lambda name, eps, value: False)
        names = list(corpus)

        def run_budgeted_test(stream, n, cfg):
            accepts = corpus[names[stream.index]] is not False
            return SimpleNamespace(verdict=Verdict.YES_PBD if accepts else Verdict.NO_PBD)

        monkeypatch.setattr(oracles, "run_budgeted_test", run_budgeted_test)
        report = learning_calibration_report(0, "chi2_sample_const", grid=(20.0,), runs=4)
        assert report["members"]["heavy-paired"] is None
        (row,) = report["sweep"]
        for point in row["points"]:
            paired = point["sources"]["heavy-paired"]
            assert paired == {"rejection_rate": 0.0, "mean_samples": 0.0}
            others = [r for name, r in point["sources"].items() if name != "heavy-paired"]
            assert all(r["error_rate"] == 0.0 for r in others)
        assert row["passes"] and report["chosen_chi2_sample_const"] == 20.0

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            learning_calibration_report(0, grid=(2.0, 1.0), runs=1)

    def test_unknown_field_is_refused(self):
        with pytest.raises(ValueError, match="no learning sweep for 'sparse_len_const'"):
            learning_calibration_report(0, "sparse_len_const", runs=1)


class TestOracleReport:
    def test_error_fields(self):
        r = OracleReport("case", oracle_value=2.0, fast_value=1.0)
        assert r.abs_error == 1.0
        assert r.rel_error == 0.5
        assert r.to_dict()["case"] == "case"


class TestDistances:
    def test_ell2_and_inf_on_point_masses(self):
        d0 = ExplicitDistribution(0, np.array([1.0]))
        d1 = ExplicitDistribution(1, np.array([1.0]))
        assert ell2_sq_distance(d0, d1) == 2.0
        assert ell_inf_distance(d0, d1) == 1.0
        assert ell2_sq_distance(d0, d0) == 0.0

    def test_ell2_matches_elementwise_oracle(self):
        rng = np.random.Generator(np.random.Philox(5))
        p = rng.random(10)
        q = rng.random(10)
        a = ExplicitDistribution(0, p / p.sum())
        b = ExplicitDistribution(0, q / q.sum())
        direct = float(((a.probs - b.probs) ** 2).sum())
        assert ell2_sq_distance(a, b) == pytest.approx(direct, rel=1e-12)

    def test_shifted_supports_match_pointwise_oracle(self):
        rng = np.random.Generator(np.random.Philox(23))
        p = rng.random(8)
        q = rng.random(10)
        a = ExplicitDistribution(3, p / p.sum())
        b = ExplicitDistribution(7, q / q.sum())
        gaps = [
            (a.probs[i - a.lo] if a.lo <= i <= a.hi else 0.0)
            - (b.probs[i - b.lo] if b.lo <= i <= b.hi else 0.0)
            for i in range(3, 17)
        ]
        assert ell2_sq_distance(a, b) == pytest.approx(sum(g * g for g in gaps), rel=1e-12)
        assert ell_inf_distance(a, b) == pytest.approx(max(abs(g) for g in gaps), rel=1e-12)

    def test_symmetric_and_zero_on_self(self):
        a = binomial_pmf(30, 0.3)
        b = binomial_pmf(40, 0.6)
        for dist in (ell2_sq_distance, ell_inf_distance):
            assert dist(a, b) == dist(b, a) > 0.0
            assert dist(a, a) == 0.0

    def test_union_wider_than_max_width_raises(self, monkeypatch):
        # The distances align through ``distributions._on_union``, which
        # refuses a union wider than MAX_WIDTH before allocating it.
        monkeypatch.setattr(distributions, "MAX_WIDTH", 64)
        d0 = ExplicitDistribution(0, np.array([1.0]))
        d1 = ExplicitDistribution(100, np.array([1.0]))
        with pytest.raises(ValueError, match="too large to align"):
            ell2_sq_distance(d0, d1)


class TestApproximationBounds:
    def test_tv_bound_closed_form_hundred_fair_coins(self):
        pbd = Pbd(np.full(100, 0.5))
        bounds = tp_approx_bounds(pbd)
        assert bounds[0] == pytest.approx(0.18)
        # Without q_max the mode mass comes from the exact PMF.
        q_max = float(pbd_pmf(pbd, tail_cut=1e-12).probs.max())
        assert bounds == tp_approx_bounds(pbd, q_max=q_max)

    def test_plain_floats_with_cap_above_tv(self):
        pbd = Pbd(np.linspace(0.2, 0.8, 200))
        tv, ell_inf, q_max_cap = tp_approx_bounds(pbd, q_max=0.05)
        assert all(type(x) is float for x in (tv, ell_inf, q_max_cap))
        assert q_max_cap == pytest.approx(tv + 1.0 / (2.3 * math.sqrt(pbd.variance())))

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="variance"):
            tp_approx_bounds(Pbd(np.array([0.0, 1.0])))

    def test_bounds_dominate_exact_distances(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(10):
            n = int(rng.integers(420, 800))
            ps = rng.uniform(0.3, 0.7, size=n)
            pbd = Pbd(ps)
            mean, var = pbd.mean(), pbd.variance()
            exact = pbd_pmf(pbd, tail_cut=1e-10)
            tp = translated_poisson_pmf(TranslatedPoissonParams(mean, var), tail_cut=1e-10)
            q_max = float(exact.probs.max())
            tv, ell_inf, q_max_cap = tp_approx_bounds(pbd, q_max=q_max)
            assert tv_distance(exact, tp) <= tv
            assert ell_inf_distance(exact, tp) <= ell_inf
            assert q_max <= q_max_cap

    def test_pair_bound_identical_params(self):
        tp = TranslatedPoissonParams(10.0, 4.0)
        assert tp_pair_tv_bound(tp, tp) == pytest.approx(0.25)

    def test_pair_bound_plugin(self):
        a = TranslatedPoissonParams(0.0, 4.0)
        b = TranslatedPoissonParams(1.0, 4.0)
        assert tp_pair_tv_bound(a, b) == pytest.approx(0.75)

    def test_pair_bound_dominates_exact(self):
        rng = np.random.Generator(np.random.Philox(19))
        for _ in range(30):
            s1 = float(rng.uniform(25.0, 400.0))
            s2 = float(rng.uniform(25.0, 400.0))
            mu1 = float(rng.uniform(500.0, 600.0))
            mu2 = mu1 + float(rng.uniform(-5.0, 5.0))
            a = TranslatedPoissonParams(mu1, s1)
            b = TranslatedPoissonParams(mu2, s2)
            exact = tv_distance(
                translated_poisson_pmf(a, 1e-10), translated_poisson_pmf(b, 1e-10)
            )
            assert exact <= tp_pair_tv_bound(a, b) + 1e-9
