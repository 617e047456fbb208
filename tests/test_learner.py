"""Unit tests for moment estimation and the hypothesis learner."""

import math

import numpy as np
import pytest

import pbdtest.tester as tester
from pbdtest.distributions import (
    ExplicitDistribution,
    Pbd,
    binomial_pmf,
    effective_support_interval,
    pbd_pmf,
    truncated_log,
    tv_distance,
)
from pbdtest.learner import (
    BinomialHypothesis,
    SparseHypothesis,
    estimate_mean_var,
    fit_binomial_by_moments,
    learn_pbd,
    unimodal_projection,
)
from pbdtest.sampling import SampleStream
from pbdtest.tester import TestConfig, run_budgeted_test

CFG = TestConfig(eps=0.1, delta=0.1)  # the learner reads its constants, not its eps
A_M = TestConfig.moment_sample_const


class TestEstimateMeanVar:
    def test_point_mass(self):
        d = ExplicitDistribution(3, np.array([1.0]))
        m = estimate_mean_var(SampleStream.from_distribution(d, seed=0), 0.1, A_M)
        assert m.mu_hat == 3.0 and m.sigma2_hat == 0.0

    def test_sample_count_formula(self):
        d = binomial_pmf(10, 0.5)
        m = estimate_mean_var(SampleStream.from_distribution(d, seed=0), 0.05, A_M)
        assert m.samples_used == math.ceil(200 / 0.05**2)

    def test_heavy_branch_sample_count(self):
        # eps' = eps / (n/4)^(1/8) turns the budget into ceil(A_m (n/4)^(1/4) / eps^2).
        n, eps = 10_000, 0.1
        eps_prime = eps / (n / 4.0) ** 0.125
        m = estimate_mean_var(
            SampleStream.from_distribution(binomial_pmf(n, 0.5), seed=1), eps_prime, A_M
        )
        assert m.samples_used == math.ceil(200.0 * (n / 4.0) ** 0.25 / eps**2)

    def test_accuracy_rate_on_binomial(self):
        # |mu - mu_hat| < eps' sigma should hold almost always at this scale.
        d = binomial_pmf(10_000, 0.5)
        root = SampleStream.from_distribution(d, seed=11)
        hits = 0
        trials = 100
        for t in range(trials):
            m = estimate_mean_var(root.split(t), 0.05, A_M)
            ok_mu = abs(m.mu_hat - 5000.0) < 0.05 * 50.0
            ok_var = abs(m.sigma2_hat - 2500.0) < 0.05 * 2500.0 * math.sqrt(4.0 + 1.0 / 2500.0)
            hits += ok_mu and ok_var
        assert hits >= 99

    def test_eps_prime_validation(self):
        d = binomial_pmf(4, 0.5)
        with pytest.raises(ValueError):
            estimate_mean_var(SampleStream.from_distribution(d, seed=0), 1.5, A_M)


class TestBinomialFit:
    def test_recovers_binomial_parameters(self):
        fit = fit_binomial_by_moments(3000.0, 2100.0, 10_000)
        assert fit.p == pytest.approx(0.3)
        assert fit.n == 10_000

    def test_clamps(self):
        fit = fit_binomial_by_moments(5000.0, 2.5e7, 10_000)
        assert 1 <= fit.n <= 10_000 and 0.0 < fit.p < 1.0

    @pytest.mark.parametrize("mu_hat, p", [(0.0, 0.0), (0.3, 0.3), (1.0, 1.0), (50.0, 1.0)])
    def test_one_trial_fits_the_mean(self, mu_hat, p):
        assert fit_binomial_by_moments(mu_hat, 0.25, 1) == BinomialHypothesis(1, p)

    def test_one_trial_run_completes(self):
        # The fit at n = 1 itself is checked above; a source on [0, 1]
        # runs end to end (a wider one is refused, see test_tester.py).
        stream = SampleStream.from_distribution(binomial_pmf(1, 0.5), seed=0)
        res = run_budgeted_test(stream, 1, CFG)
        assert res.samples_used == stream.samples_drawn


class TestUnimodalProjection:
    def test_already_unimodal_unchanged(self):
        p = np.array([0.1, 0.3, 0.4, 0.2])
        np.testing.assert_allclose(unimodal_projection(p), p, atol=1e-12)

    def test_output_is_unimodal_distribution(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(50):
            p = rng.random(int(rng.integers(1, 30)))
            p /= p.sum()
            out = unimodal_projection(p)
            assert out.sum() == pytest.approx(1.0)
            mode = int(np.argmax(out))
            assert np.all(np.diff(out[: mode + 1]) >= -1e-12)
            assert np.all(np.diff(out[mode:]) <= 1e-12)


class TestLearnPbd:
    def test_point_mass_source(self):
        d = ExplicitDistribution(0, np.array([1.0]))
        lr = learn_pbd(SampleStream.from_distribution(d, seed=0), 10, 0.1, CFG)
        assert isinstance(lr.hypothesis, SparseHypothesis)
        assert lr.to_explicit().prob_at(0) == 1.0

    def test_sample_budget_cap(self):
        d = binomial_pmf(20, 0.5)
        eps = 0.1
        lr = learn_pbd(SampleStream.from_distribution(d, seed=0), 20, eps, CFG)
        assert lr.samples_used <= math.ceil(200 * truncated_log(1 / eps) ** 2 / eps**2)

    def test_binomial_source_gets_binomial_fit(self):
        src = binomial_pmf(10_000, 0.3)
        sigma2 = 10_000 * 0.3 * 0.7
        hits = 0
        good_var = 0
        trials = 60
        for t in range(trials):
            lr = learn_pbd(SampleStream.from_distribution(src, seed=100 + t), 10_000, 0.1, CFG)
            if isinstance(lr.hypothesis, BinomialHypothesis):
                hits += 1
                good_var += sigma2 / 4.0 <= lr.variance() <= 4.0 * sigma2
        assert hits >= 0.95 * trials
        assert good_var == hits

    def test_sparse_pbd_source_learned_close(self):
        # Narrow, shifted Bernoulli sum: not binomial-shaped, variance ~ 0.95.
        ps = np.concatenate([np.full(10, 0.05), np.full(10, 0.95)])
        src = pbd_pmf(Pbd(ps))
        hits = 0
        trials = 40
        for t in range(trials):
            lr = learn_pbd(SampleStream.from_distribution(src, seed=300 + t), 20, 0.1, CFG)
            hits += isinstance(lr.hypothesis, SparseHypothesis) and (
                tv_distance(lr.to_explicit(), src) < 0.1
            )
        assert hits >= 0.95 * trials

    def test_sparse_support_cap(self):
        # A wide far source must still respect the sparse support-length cap.
        eps = 0.35
        cap = math.ceil(4.0 / eps**3)
        probs = np.ones(3 * cap)
        wide = ExplicitDistribution(0, probs / probs.sum())
        lr = learn_pbd(SampleStream.from_distribution(wide, seed=9), 3 * cap, eps, CFG)
        if isinstance(lr.hypothesis, SparseHypothesis):
            assert lr.to_explicit().support_len <= cap

    def test_far_source_still_returns_wellformed(self):
        n = 2000
        probs = np.zeros(n + 1)
        probs[0] = 0.5
        probs[n] = 0.5
        stream = SampleStream.from_distribution(ExplicitDistribution(0, probs), seed=4)
        lr = learn_pbd(stream, n, 0.1, CFG)
        hyp = lr.to_explicit()
        assert hyp.total_mass == pytest.approx(1.0, abs=1e-9)
        # The hypothesis is unimodal or binomial, so it stays far from the
        # bimodal source; the membership test's soundness rests on this.
        assert tv_distance(hyp, ExplicitDistribution(0, probs)) > 0.2

    def test_zero_budget_degenerates_gracefully(self):
        d = binomial_pmf(6, 0.5)
        lr = learn_pbd(SampleStream.from_distribution(d, seed=0), 6, 0.1, CFG, max_samples=0)
        assert lr.samples_used == 0
        assert lr.to_explicit().prob_at(0) == 1.0


class TestBinomialFitWindow:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_tester_builds_the_fit_on_its_tail_cut_window(self, monkeypatch, seed):
        learned_fits = []

        def recording(*args, _orig=tester.learn_pbd, **kw):
            learned_fits.append(_orig(*args, **kw))
            return learned_fits[-1]

        monkeypatch.setattr(tester, "learn_pbd", recording)
        n, eps = 10_000, 0.1
        cfg = TestConfig(eps=eps, delta=0.1)
        src = binomial_pmf(n, 0.5)
        res = run_budgeted_test(SampleStream.from_distribution(src, seed=seed), n, cfg)
        (learned,) = learned_fits
        assert isinstance(learned.hypothesis, BinomialHypothesis)
        hyp = learned.to_explicit()
        assert hyp.support_len < 1000
        assert hyp.tail_slack <= cfg.tail_cut
        # The sparse stage's interval is the one the full support gives.
        full = binomial_pmf(learned.hypothesis.n, learned.hypothesis.p)
        assert res.diagnostics["interval"] == list(effective_support_interval(full, eps / 5.0))
