"""Unit tests for the brute-force oracles themselves."""

import numpy as np
import pytest

from pbdtest.calibrated import TestConfig
from pbdtest.distributions import ExplicitDistribution, Pbd, binomial_pmf, pbd_pmf
from pbdtest.oracles import (
    OracleReport,
    brute_force_pbd_pmf,
    calibration_report,
    exact_tv_to_pbd_class,
    exact_tv_to_unimodal,
    learning_calibration_report,
    monte_carlo_moment_check,
    paired_perturbation,
    tn_closed_form_moments,
)


class TestBruteForcePmf:
    def test_two_fair_coins(self):
        d = brute_force_pbd_pmf([0.5, 0.5])
        np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_all_ones(self):
        d = brute_force_pbd_pmf([1.0, 1.0, 1.0])
        assert d.prob_at(3) == pytest.approx(1.0)

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


class TestTvToUnimodal:
    def test_unimodal_is_zero(self):
        assert exact_tv_to_unimodal(binomial_pmf(12, 0.4)) == pytest.approx(0.0, abs=1e-7)

    def test_two_spikes_projection(self):
        d = ExplicitDistribution(0, np.array([0.5, 0.0, 0.5]))
        assert exact_tv_to_unimodal(d) == pytest.approx(0.25, abs=1e-6)

    def test_support_cap(self):
        with pytest.raises(ValueError, match="support"):
            exact_tv_to_unimodal(ExplicitDistribution(0, np.full(61, 1.0 / 61.0)))


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
        from pbdtest.distributions import tv_distance

        base = binomial_pmf(60, 0.5)
        far, ell2 = paired_perturbation(base, 0.05)
        assert tv_distance(far, base) == pytest.approx(0.05, rel=1e-9)
        from pbdtest.distributions import ell2_sq_distance

        assert ell2_sq_distance(far, base) == pytest.approx(ell2, rel=1e-9)

    def test_target_too_large(self):
        base = binomial_pmf(6, 0.5)
        with pytest.raises(ValueError, match="movable"):
            paired_perturbation(base, 0.9)


class TestCalibrationReport:
    def test_report_reproduces_frozen_constants(self):
        report = calibration_report()
        assert report["chosen_sample_const"] == TestConfig.l2_sample_const
        assert report["chosen_threshold_const"] == TestConfig.l2_far_const


class TestLearningCalibration:
    def test_default_learn_sample_const_keeps_every_rate(self):
        # Drift guard: 100 base runs and 100 learner runs per corpus source at
        # the calibrated A_L (seed 1, apart from the sweep's seed 0) stay
        # within the sweep's rule.
        default = TestConfig.learn_sample_const
        report = learning_calibration_report(1, grid=(default,), runs=100)
        (row,) = report["sweep"]
        sources = row["sources"]
        assert row["passes"], sources
        rates = {name: r["error_rate"] for name, r in sources.items()}
        assert all(rate <= report["max_error_rate"] for rate in rates.values()), rates
        misses = {n: r["learn_miss_rate"] for n, r in sources.items() if "learn_miss_rate" in r}
        assert set(misses) == {name for name, member in report["members"].items() if member}
        assert all(rate <= report["max_learn_miss_rate"] for rate in misses.values()), misses

    def test_rule_takes_the_next_grid_value_above_the_edge(self):
        # At A_L = 0.01 the learner sees 6 samples and misses on most runs.
        report = learning_calibration_report(5, grid=(0.01, 2.0, 5.0), runs=4)
        assert [row["passes"] for row in report["sweep"]] == [False, True, True]
        assert all(len(row["sources"]) == 9 for row in report["sweep"])
        assert report["largest_failing_learn_sample_const"] == 0.01
        assert report["smallest_passing_learn_sample_const"] == 2.0
        assert report["chosen_learn_sample_const"] == 5.0
        # A passing last value is its own choice: the grid has nothing above it.
        report = learning_calibration_report(5, grid=(0.01, 2.0), runs=4)
        assert report["chosen_learn_sample_const"] == 2.0
        report = learning_calibration_report(5, grid=(0.01,), runs=4)
        assert report["smallest_passing_learn_sample_const"] is None
        assert report["chosen_learn_sample_const"] is None

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            learning_calibration_report(0, grid=(2.0, 1.0), runs=1)


class TestOracleReport:
    def test_error_fields(self):
        r = OracleReport("case", oracle_value=2.0, fast_value=1.0)
        assert r.abs_error == 1.0
        assert r.rel_error == 0.5
        assert r.to_dict()["case"] == "case"
