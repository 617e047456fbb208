"""Unit tests for moment estimation and the hypothesis learner."""

import math

import numpy as np
import pytest

import pbdtest.learner as learner
import pbdtest.tester as tester
from pbdtest.distributions import (
    ExplicitDistribution,
    Pbd,
    binomial_pmf,
    effective_support_interval,
    pbd_pmf,
    tv_distance,
)
from pbdtest.learner import (
    estimate_mean_var,
    fit_binomial_by_moments,
    learn_pbd,
    unimodal_projection,
)
from pbdtest.sampling import SampleStream
from pbdtest.tester import TestConfig, run_budgeted_test

CFG = TestConfig(eps=0.1, delta=0.1)  # the learner reads its constants, not its eps
# The moments draw at eps' = 0.05: eps' is eps itself for n <= 4.
K_05 = TestConfig(eps=0.05, delta=0.1).moment_samples(4)


class TestEstimateMeanVar:
    def test_point_mass(self):
        d = ExplicitDistribution(3, np.array([1.0]))
        stream = SampleStream.from_distribution(d, seed=0)
        assert estimate_mean_var(stream, CFG.moment_samples(4)) == (3.0, 0.0)

    def test_sample_count_formula(self):
        stream = SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        estimate_mean_var(stream, K_05)
        assert stream.samples_drawn == K_05 == math.ceil(200 / 0.05**2)

    def test_heavy_branch_sample_count(self):
        # eps' = eps / (n/4)^(1/8) turns the budget into ceil(A_m (n/4)^(1/4) / eps^2).
        n, eps = 10_000, 0.1
        stream = SampleStream.from_distribution(binomial_pmf(n, 0.5), seed=1)
        estimate_mean_var(stream, TestConfig(eps=eps, delta=0.1).moment_samples(n))
        assert stream.samples_drawn == math.ceil(200.0 * (n / 4.0) ** 0.25 / eps**2)

    def test_accuracy_rate_on_binomial(self):
        # |mu - mu_hat| < eps' sigma should hold almost always at this scale.
        d = binomial_pmf(10_000, 0.5)
        root = SampleStream.from_distribution(d, seed=11)
        hits = 0
        trials = 100
        for t in range(trials):
            mu_hat, sigma2_hat = estimate_mean_var(root.split(t), K_05)
            ok_mu = abs(mu_hat - 5000.0) < 0.05 * 50.0
            ok_var = abs(sigma2_hat - 2500.0) < 0.05 * 2500.0 * math.sqrt(4.0 + 1.0 / 2500.0)
            hits += ok_mu and ok_var
        assert hits >= 99


class TestBinomialFit:
    def test_recovers_binomial_parameters(self):
        trials, p = fit_binomial_by_moments(3000.0, 2100.0, 10_000)
        assert p == pytest.approx(0.3)
        assert trials == 10_000

    def test_clamps(self):
        trials, p = fit_binomial_by_moments(5000.0, 2.5e7, 10_000)
        assert 1 <= trials <= 10_000 and 0.0 < p < 1.0

    @pytest.mark.parametrize("mu_hat, p", [(0.0, 0.0), (0.3, 0.3), (1.0, 1.0), (50.0, 1.0)])
    def test_one_trial_fits_the_mean(self, mu_hat, p):
        assert fit_binomial_by_moments(mu_hat, 0.25, 1) == (1, p)

    def test_no_trials_refused(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            fit_binomial_by_moments(1.0, 0.5, 0)

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
        assert lr.binomial is None
        d = lr.dist
        assert (d.lo, d.probs[0]) == (0, 1.0)

    @pytest.mark.parametrize("eps", [0.01, 0.04, 0.1])
    def test_draws_the_calibrated_budget(self, eps):
        # ceil(A_L logt^2(1/eps) / eps^2) samples, A_L the calibrated default.
        stream = SampleStream.from_distribution(binomial_pmf(20, 0.5), seed=0)
        learn_pbd(stream, 20, eps, CFG)
        assert stream.samples_drawn == CFG.learn_samples(eps)

    def test_sample_budget_cap(self):
        stream = SampleStream.from_distribution(binomial_pmf(20, 0.5), seed=0)
        learn_pbd(stream, 20, 0.1, CFG, max_samples=100)
        assert stream.samples_drawn == 100

    def test_binomial_source_gets_binomial_fit(self):
        src = binomial_pmf(10_000, 0.3)
        sigma2 = 10_000 * 0.3 * 0.7
        hits = 0
        good_var = 0
        trials = 60
        for t in range(trials):
            lr = learn_pbd(SampleStream.from_distribution(src, seed=100 + t), 10_000, 0.1, CFG)
            if lr.binomial is not None:
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
            hits += lr.binomial is None and tv_distance(lr.dist, src) < 0.1
        assert hits >= 0.95 * trials

    def test_pool_and_distribution_streams_learn_alike(self):
        # The same counts arrive padded to the source's support from a
        # distribution and to the observed range from a pool; the fit check
        # must not depend on the padding.
        src = pbd_pmf(Pbd(np.concatenate([np.full(10, 0.05), np.full(10, 0.95)])))
        need = CFG.learn_samples(0.1)
        for seed in range(300, 340):
            pool = SampleStream.from_distribution(src, seed=seed).draw(need)
            a = learn_pbd(SampleStream.from_distribution(src, seed=seed), 20, 0.1, CFG)
            b = learn_pbd(SampleStream.from_samples(pool), 20, 0.1, CFG)
            assert (a.binomial is None) == (b.binomial is None), seed
            assert tv_distance(a.dist, b.dist) < 1e-12, seed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_length_cap_keeps_the_densest_window(self, seed):
        # Half/half on {0, 5000}: the 1 - eps/10 interval spans both points,
        # wider than the cap, so the hypothesis sits on a capped window.
        # Seed 0 draws more 5000s than 0s, seeds 1 and 2 the reverse.
        n, eps = 5000, 0.1
        probs = np.zeros(n + 1)
        probs[0] = probs[n] = 0.5
        src = ExplicitDistribution(0, probs)
        lr = learn_pbd(SampleStream.from_distribution(src, seed=seed), n, eps, CFG)
        # The learner's one histogram, drawn again from the same seed.
        redraw = SampleStream.from_distribution(src, seed=seed)
        emp = redraw.draw_histogram(CFG.learn_samples(eps)).to_empirical()
        cap = math.ceil(CFG.sparse_len_const / eps**3)
        masses = [emp.probs[s : s + cap].sum() for s in range(len(emp.probs) - cap + 1)]
        start = emp.lo + masses.index(max(masses))
        assert lr.binomial is None
        assert len(lr.dist.probs) == cap == 4000
        assert (lr.dist.lo, lr.dist.hi) == (start, start + cap - 1)

    def test_densest_window_ties_go_to_the_first(self):
        # Its windows of length 2 hold 0.5, 0.25, 0, 0.25 and 0.5.
        law = ExplicitDistribution(10, np.array([0.25, 0.25, 0.0, 0.0, 0.25, 0.25]))
        assert learner._densest_window(law, 2) == (10, 11)
        assert learner._densest_window(law, 6) == (10, 15)

    def test_far_source_still_returns_wellformed(self):
        n = 2000
        probs = np.zeros(n + 1)
        probs[0] = 0.5
        probs[n] = 0.5
        stream = SampleStream.from_distribution(ExplicitDistribution(0, probs), seed=4)
        lr = learn_pbd(stream, n, 0.1, CFG)
        hyp = lr.dist
        assert hyp.probs.sum() == pytest.approx(1.0, abs=1e-9)
        # The hypothesis is unimodal or binomial, so it stays far from the
        # bimodal source; the membership test's soundness rests on this.
        assert tv_distance(hyp, ExplicitDistribution(0, probs)) > 0.2

    @pytest.mark.parametrize(
        "n, eps, message",
        [
            (20, 0.0, r"eps must lie in \(0, 1\)"),
            (20, 1.0, r"eps must lie in \(0, 1\)"),
            (-1, 0.1, "n must be nonnegative"),
        ],
    )
    def test_bad_arguments_refused_before_any_draw(self, n, eps, message):
        stream = SampleStream.from_distribution(binomial_pmf(20, 0.5), seed=0)
        with pytest.raises(ValueError, match=message):
            learn_pbd(stream, n, eps, CFG)
        assert stream.samples_drawn == 0

    def test_zero_budget_degenerates_gracefully(self):
        d = binomial_pmf(6, 0.5)
        stream = SampleStream.from_distribution(d, seed=0)
        lr = learn_pbd(stream, 6, 0.1, CFG, max_samples=0)
        assert stream.samples_drawn == 0
        d = lr.dist
        assert (d.lo, d.probs[0]) == (0, 1.0)


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
        assert learned.binomial is not None
        hyp = learned.dist
        assert len(hyp.probs) < 1000
        assert hyp.tail_slack <= cfg.tail_cut
        # The sparse stage's interval is the one the full support gives.
        full = binomial_pmf(*learned.binomial)
        assert res.diagnostics["interval"] == list(effective_support_interval(full, eps / 5.0))

    def test_fit_checked_route_builds_the_fit_at_tail_cut(self):
        # Binomial(200, 0.3) passes the fit check at seed 7; the hypothesis
        # PMF is the one binomial_pmf builds at the config's tail_cut.
        cfg = TestConfig(eps=0.1, delta=0.1)
        n = 200
        stream = SampleStream.from_distribution(binomial_pmf(n, 0.3), seed=7)
        learned = learn_pbd(stream, n, 0.1, cfg)
        assert learned.unimodal_lb is None and not learned.not_unimodal
        trials, p = learned.binomial
        assert trials == n and p == pytest.approx(0.29945, abs=1e-5)
        want = binomial_pmf(*learned.binomial, tail_cut=cfg.tail_cut)
        assert learned.dist.lo == want.lo
        assert learned.dist.probs.tobytes() == want.probs.tobytes()
        assert learned.dist.tail_slack == want.tail_slack
        assert learned.variance() == trials * p * (1.0 - p)
