"""Unit tests for the membership test and its pieces."""

import dataclasses
import math

import numpy as np
import pytest

import pbdtest.learner as learner
import pbdtest.tester as tester
from pbdtest.distributions import (
    ExplicitDistribution,
    PerturbedBinomial,
    TranslatedPoissonParams,
    binomial_pmf,
    construct_perturbed_binomial,
    effective_support_interval,
    ell2_sq_distance,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
)
from pbdtest.learner import MomentEstimates, estimate_mean_var, fit_binomial_by_moments
from pbdtest.lowerbound import random_sign_vector
from pbdtest.oracles import paired_perturbation, tn_closed_form_moments
from pbdtest.sampling import SampleHistogram, SampleStream
from pbdtest.tester import (
    Branch,
    Closeness,
    TestConfig,
    Verdict,
    heavy_case_test,
    l2_statistic,
    l2_statistic_counts,
    run_budgeted_test,
    simple_tolerant_identity_test,
)
from pbdtest.tester import test_pbd as run_membership_test

A_M = TestConfig.moment_sample_const
A_TOL = TestConfig.tolerant_sample_const


def heavy_inputs(src, n, eps, seed):
    """Moments and a binomial hypothesis from fresh stream splits."""
    root = SampleStream.from_distribution(src, seed=seed)
    eps_prime = eps / (n / 4.0) ** 0.125
    moments = estimate_mean_var(root.split(0), eps_prime, A_M)
    hyp_moments = estimate_mean_var(root.split(1), eps_prime, A_M)
    fit = fit_binomial_by_moments(hyp_moments.mu_hat, hyp_moments.sigma2_hat, n)
    return root, moments, binomial_pmf(fit.n, fit.p)


class TestConfigValidation:
    def test_repetition_formula(self):
        cfg = TestConfig(eps=0.1, delta=0.1)
        assert cfg.repetitions() == math.ceil(18.0 * math.log(10.0))
        assert TestConfig(eps=0.1, delta=0.1, amplification_reps=3).repetitions() == 3

    def test_truncated_log_reexport(self):
        assert truncated_log(0.5) == 1.0

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
        ],
    )
    def test_bad_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestConfig(eps=0.1, delta=0.1, **{field: value})


class TestSimpleTolerantIdentityTest:
    def test_exact_match_is_close(self):
        q = ExplicitDistribution(0, np.array([0.5, 0.5]))
        hist = SampleHistogram(0, np.array([500, 500]), nominal_rate=1000.0)
        closeness, tv = simple_tolerant_identity_test(q, hist, 0.2, A_TOL)
        assert closeness is Closeness.CLOSE
        assert tv == 0.0

    def test_sample_count_enforced(self):
        q = ExplicitDistribution(0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="samples"):
            simple_tolerant_identity_test(q, SampleHistogram(0, np.array([2, 1]), 3.0), 0.2, A_TOL)

    def test_close_and_far_rates(self):
        m, eps = 50, 0.2
        probs = np.linspace(1.0, 2.0, m)
        q = ExplicitDistribution(0, probs / probs.sum())
        k = math.ceil(10 * m / eps**2)
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
            xs = root_q.split(t).draw_histogram(k)
            close_hits += simple_tolerant_identity_test(q, xs, eps, A_TOL)[0] is Closeness.CLOSE
            ys = root_far.split(t).draw_histogram(k)
            far_hits += simple_tolerant_identity_test(q, ys, eps, A_TOL)[0] is Closeness.FAR
        assert close_hits >= 0.95 * trials
        assert far_hits >= 0.95 * trials

    def test_sparse_stage_runs_it_once_per_sparse_run(self, monkeypatch):
        calls = []

        def counting(*args, _orig=tester.simple_tolerant_identity_test, **kw):
            out = _orig(*args, **kw)
            calls.append(out)
            return out

        monkeypatch.setattr(tester, "simple_tolerant_identity_test", counting)
        cfg = TestConfig(eps=0.2, delta=0.3, seed=5, amplification_reps=3)
        stream = SampleStream.from_distribution(binomial_pmf(2_000, 0.5), seed=5)
        res = run_membership_test(stream, 2_000, cfg)
        runs = res.diagnostics["runs"]
        assert res.diagnostics["branch_counts"] == {"sparse": len(runs), "heavy": 0}
        assert len(calls) == len(runs) == res.diagnostics["repetitions_run"]
        for (closeness, tv), run in zip(calls, runs):
            assert run["diagnostics"]["tv_empirical_vs_hypothesis"] == tv
            assert run["diagnostics"]["tolerant_outcome"] == closeness.value


class TestCoarsen:
    def test_point_mass_interval(self):
        d = ExplicitDistribution(4, np.array([1.0]))
        assert effective_support_interval(d, 0.2 / 5) == (4, 4)

    def test_binomial_interval_mass(self):
        d = binomial_pmf(100, 0.5)
        lo, hi = effective_support_interval(d, 0.5 / 5)
        assert d.mass_on(lo, hi) >= 0.9
        assert lo + hi == pytest.approx(100, abs=3)  # near-symmetric around the mean
        coarse = d.restrict(lo, hi)
        assert coarse.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_coarsened_histogram_sentinel(self):
        lo, hi = effective_support_interval(binomial_pmf(10, 0.5), 0.5 / 5)
        hist = SampleHistogram(0, np.array([2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]), nominal_rate=4.0)
        emp = hist.to_empirical((lo, hi))
        assert emp.overflow > 0.0
        assert emp.total_mass == pytest.approx(1.0)


class TestL2Statistic:
    def test_single_symbol_plugin(self):
        q = ExplicitDistribution(0, np.array([1.0]))
        hist = SampleHistogram(0, np.array([100]), nominal_rate=100.0, poissonized=True)
        assert l2_statistic(hist, q) == pytest.approx(-0.01)

    def test_requires_poissonized(self):
        q = ExplicitDistribution(0, np.array([1.0]))
        hist = SampleHistogram(0, np.array([100]), nominal_rate=100.0)
        with pytest.raises(ValueError, match="Poissonized"):
            l2_statistic(hist, q)

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_must_be_positive_and_finite(self, k):
        q = ExplicitDistribution(0, np.array([1.0]))
        with pytest.raises(ValueError, match="k must be positive and finite"):
            l2_statistic_counts(np.array([3]), 0, q, k)

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
            qi = q.prob_at(i)
            tn += (ci - k * qi) ** 2 - ci
        tn /= k * k
        assert l2_statistic_counts(counts, lo, q, k) == pytest.approx(tn, rel=1e-12)

    def test_unbiasedness_quick(self):
        # Full-scale moment validation lives in the acceptance suite.
        p = binomial_pmf(20, 0.5)
        trials = 20_000
        k = 50.0
        rng = np.random.Generator(np.random.Philox(5))
        counts = rng.poisson(k * p.probs, size=(trials, p.support_len))
        vals = np.array([l2_statistic_counts(c, 0, p, k) for c in counts[:2000]])
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
    def test_variance_above_half_n_rejects(self):
        src = binomial_pmf(100, 0.5)
        stream = SampleStream.from_distribution(src, seed=0)
        moments = MomentEstimates(mu_hat=50.0, sigma2_hat=60.0, eps_prime=0.1, samples_used=10)
        verdict = heavy_case_test(stream, 100, TestConfig(eps=0.1, delta=0.1), moments, src)
        assert verdict.verdict is Verdict.NO_PBD
        assert verdict.diagnostics["reason"] == "variance above n/2"

    def test_pivot_far_from_hypothesis_rejects(self):
        n = 10_000
        hyp = binomial_pmf(n, 0.5)
        moments = MomentEstimates(mu_hat=2000.0, sigma2_hat=1600.0, eps_prime=0.1, samples_used=10)
        stream = SampleStream.from_distribution(hyp, seed=0)
        verdict = heavy_case_test(stream, n, TestConfig(eps=0.1, delta=0.1), moments, hyp)
        assert verdict.verdict is Verdict.NO_PBD
        assert verdict.diagnostics["reason"] == "pivot far from hypothesis"

    def test_binomial_source_accepted(self):
        n, eps = 10_000, 0.1
        src = binomial_pmf(n, 0.5)
        cfg = TestConfig(eps=eps, delta=0.1)
        hits = 0
        trials = 40
        for t in range(trials):
            root, moments, hyp = heavy_inputs(src, n, eps, seed=400 + t)
            res = heavy_case_test(root.split(2), n, cfg, moments, hyp)
            hits += res.verdict is Verdict.YES_PBD
        assert hits >= 0.9 * trials

    def test_perturbed_source_rejected_through_statistic(self):
        # Source at TV 0.35 eps from the moment-matched pivot: the distance
        # gate passes and the count statistic has to do the rejecting.
        n, eps = 10_000, 0.1
        pivot = translated_poisson_pmf(TranslatedPoissonParams(5000.0, 2500.0), tail_cut=1e-9)
        far, _ = paired_perturbation(pivot, 0.35 * eps)
        cfg = TestConfig(eps=eps, delta=0.1)
        hits = 0
        trials = 40
        stat_path = 0
        for t in range(trials):
            root, moments, hyp = heavy_inputs(far, n, eps, seed=800 + t)
            res = heavy_case_test(root.split(2), n, cfg, moments, hyp)
            hits += res.verdict is Verdict.NO_PBD
            stat_path += "t_n" in res.diagnostics
        assert stat_path >= 0.9 * trials  # gate must not be doing the work
        assert hits >= 0.9 * trials

    def test_close_case_l2_ceiling(self):
        # For Bernoulli-sum sources in the heavy regime, the exact squared-l2
        # gap to the estimated pivot stays under (5.3/sigma)(2 eps^2 / (C' sqrt(logt))).
        n, eps = 10_000, 0.1
        src = binomial_pmf(n, 0.5)
        cfg = TestConfig(eps=eps, delta=0.1)
        eps_prime = eps / (n / 4.0) ** 0.125
        root = SampleStream.from_distribution(src, seed=31)
        hits = 0
        trials = 40
        for t in range(trials):
            m = estimate_mean_var(root.split(t), eps_prime, A_M)
            pivot = translated_poisson_pmf(
                TranslatedPoissonParams(m.mu_hat, m.sigma2_hat), tail_cut=1e-9
            )
            sigma_hat = math.sqrt(m.sigma2_hat)
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
        k = math.ceil(cfg.l2_sample_rate(sigma_hat))
        mean, var = tn_closed_form_moments(far, pivot, float(k))
        assert var / mean**2 <= 1.5 / 20.0


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

    def test_interval_ceiling_recorded(self):
        src = binomial_pmf(500, 0.4)
        cfg = TestConfig(eps=0.15, delta=0.3, seed=7, amplification_reps=1)
        res = run_membership_test(SampleStream.from_distribution(src, seed=7), 500, cfg)
        run = res.diagnostics["runs"][0]["diagnostics"]
        assert run["interval_len_ceiling"] == pytest.approx(cfg.logt**2.5 / cfg.eps**4)

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

    def _far_source(self):
        pivot = translated_poisson_pmf(TranslatedPoissonParams(self.N / 2, self.N / 4))
        far, _ = paired_perturbation(pivot, 0.35 * self.EPS)
        return far

    @pytest.mark.parametrize("branch", [Branch.SPARSE, Branch.HEAVY])
    @pytest.mark.parametrize("source", ["binomial", "far"])
    def test_samples_used_matches_draws(self, drawn, branch, source):
        src = binomial_pmf(self.N, 0.5) if source == "binomial" else self._far_source()
        cfg = TestConfig(eps=self.EPS, delta=0.3, seed=5, amplification_reps=3)
        if branch is Branch.HEAVY:
            cfg = cfg.replace(var_threshold_const=1e-12)
        stream = SampleStream.from_distribution(src, seed=5)
        res = run_membership_test(stream, self.N, cfg)
        runs_made = res.diagnostics["repetitions_run"]
        assert runs_made == len(res.diagnostics["runs"])
        assert res.diagnostics["branch_counts"][branch.value] == runs_made
        assert res.samples_used == sum(drawn) == stream.samples_drawn

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

    # Budgets below every testing stage's full count (the tolerant stage
    # alone needs about 233,000 samples here): such a run must stop and
    # accept instead of deciding on a clipped sample.
    STARVED = (1, 5, 100, 5_000, 10**4)

    def _assert_starved(self, res, budget):
        if budget in self.STARVED:
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
        self._assert_starved(res, budget)

    @pytest.mark.parametrize(
        "budget",
        [0, 1, 5, 100, 5_000, 10**4, 10**5, 3 * 10**5, 5 * 10**6, 42_564_185, 10**8],
    )
    def test_budgeted_heavy_run_stays_within_budget(self, drawn, budget):
        # The same operating point forced heavy; the l2 stage's Poisson
        # total (about 69,000 here) must fit what learning (half the
        # budget) and the moments stage (about 113,000) left.
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
        self._assert_starved(res, budget)
        if budget == 3 * 10**5:
            # Out at the l2 draw: the finished moments stage still reports.
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

    def test_negative_budget_is_refused(self, drawn):
        cfg = TestConfig(eps=0.1, delta=0.5, seed=1, amplification_reps=1)
        stream = SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            run_budgeted_test(stream, 100, cfg, sample_budget=-5)
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
            # Odd and even planned counts; None is ceil(B ln(1/delta)) = 22.
            reps = (1, 2, 5, None)[seed % 4]
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
