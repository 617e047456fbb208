"""Unit tests for the exact distribution machinery."""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import binom
# Skips under numpy/scipy versions other than those the golden hashes pin.
from test_golden import pytestmark as pinned_versions

import pbdtest.lowerbound as lowerbound
from pbdtest.distributions import (
    MAX_WIDTH,
    ExplicitDistribution,
    Pbd,
    PerturbedBinomial,
    TranslatedPoissonParams,
    binomial_pmf,
    effective_support_interval,
    merged_unimodal_distance_lb,
    pbd_pmf,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
    unimodal_distance_exceeds,
    unimodal_distance_lb,
)
from pbdtest.distspec import realize
from pbdtest.oracles import brute_force_pbd_pmf, ell2_sq_distance, ell_inf_distance


class TestExplicitDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExplicitDistribution(0, np.array([0.5, -0.1, 0.6]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="total mass"):
            ExplicitDistribution(0, np.array([0.4, 0.4]))

    def test_tail_slack_widens_total_window(self):
        d = ExplicitDistribution(0, np.array([0.5, 0.4999999]), tail_slack=1e-6)
        assert d.probs.sum() < 1.0

    @pytest.mark.parametrize(
        "probs, tail_slack, message",
        [
            ([], 0.0, "probs must be a 1-D array with at least one entry"),
            ([[1.0]], 0.0, "probs must be a 1-D array with at least one entry"),
            ([1.0], -1e-12, "tail_slack must be nonnegative"),
        ],
    )
    def test_rejects_malformed_fields(self, probs, tail_slack, message):
        with pytest.raises(ValueError, match=message):
            ExplicitDistribution(0, np.array(probs), tail_slack=tail_slack)

    def test_overflow_field_is_gone(self):
        with pytest.raises(TypeError, match="overflow"):
            ExplicitDistribution(0, np.array([1.0]), overflow=0.0)


class TestPbdPmf:
    def test_two_fair_coins(self):
        d = pbd_pmf(Pbd(np.array([0.5, 0.5])))
        assert d.lo == 0
        np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_empty_is_point_mass_at_zero(self):
        d = pbd_pmf(Pbd(np.array([])))
        assert d.lo == 0
        np.testing.assert_array_equal(d.probs, [1.0])

    def test_matches_enumeration_oracle(self):
        # Expected values computed by the 2^n outcome enumeration.
        ps = np.array([0.1, 0.2, 0.3])
        oracle = brute_force_pbd_pmf(ps)
        fast = pbd_pmf(Pbd(ps))
        np.testing.assert_allclose(fast.probs, oracle.probs, atol=1e-12)
        # Hand-computed enumeration values for this case.
        np.testing.assert_allclose(oracle.probs, [0.504, 0.398, 0.092, 0.006], atol=1e-15)

    def test_random_cases_match_oracle(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(25):
            n = int(rng.integers(0, 13))
            ps = rng.random(n)
            fast = pbd_pmf(Pbd(ps))
            slow = brute_force_pbd_pmf(ps)
            assert fast.lo == 0 and len(fast.probs) == n + 1
            assert np.abs(fast.probs - slow.probs).max() <= 1e-12

    def test_truncation_reports_slack(self):
        d = pbd_pmf(Pbd(np.full(500, 0.5)), tail_cut=1e-7)
        assert len(d.probs) < 501
        assert 0.0 < d.tail_slack <= 1e-7
        assert d.probs.sum() >= 1.0 - 1e-7 - 1e-12

    def test_tail_cut_out_of_range(self):
        with pytest.raises(ValueError, match="tail_cut"):
            pbd_pmf(Pbd(np.array([0.5])), tail_cut=1e-3)

    def test_deterministic_p_one(self):
        d = pbd_pmf(Pbd(np.array([1.0, 1.0, 1.0])))
        assert d.probs[3 - d.lo] == pytest.approx(1.0)

    def test_rejects_a_two_dimensional_vector(self):
        with pytest.raises(ValueError, match="ps must be 1-D"):
            Pbd(np.full((2, 2), 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match=r"all p_i must lie in \[0, 1\]"):
            realize({"kind": "pbd", "ps": [0.5, bad]})
        with pytest.raises(ValueError, match=r"all p_i must lie in \[0, 1\]"):
            pbd_pmf(Pbd(np.array([bad, 0.5])))

    def test_hundred_thousand_coins_under_a_second(self):
        ps = np.random.Generator(np.random.Philox(5)).uniform(0.05, 0.95, size=100_000)
        pbd = Pbd(ps)
        t0 = time.perf_counter()
        d = pbd_pmf(pbd, tail_cut=1e-9)
        elapsed = time.perf_counter() - t0
        assert d.tail_slack <= 1e-9
        mean = float((np.arange(d.lo, d.hi + 1) * d.probs).sum())
        assert abs(mean - pbd.mean()) <= 1e-6 * pbd.mean()
        assert elapsed < 1.0


def sequential_pbd_pmf(ps, tail_cut: float = 0.0) -> ExplicitDistribution:
    """Reference: multiply the factors (1 - p + p x) in one coin at a time,
    greedily dropping end mass after every coin while the budget lasts."""
    v = np.array([1.0])
    lo = 0
    budget = float(tail_cut)
    dropped = 0.0
    for p in ps:
        new = np.empty(len(v) + 1)
        new[: len(v)] = v * (1.0 - p)
        new[len(v)] = 0.0
        new[1:] += v * p
        start = 0
        end = len(new)
        while end - start > 1 and new[start] <= budget:
            budget -= new[start]
            dropped += new[start]
            start += 1
        while end - start > 1 and new[end - 1] <= budget:
            budget -= new[end - 1]
            dropped += new[end - 1]
            end -= 1
        lo += start
        v = new[start:end]
    return ExplicitDistribution(lo, v, tail_slack=dropped if dropped > 0.0 else 0.0)


class TestPbdPmfMatchesSequentialReference:
    def test_bit_identical_up_to_one_block(self):
        rng = np.random.Generator(np.random.Philox(64))
        for _ in range(1000):
            n = int(rng.integers(0, 65))
            ps = rng.random(n)
            u = rng.random(n)
            ps[u < 0.1] = 0.0
            ps[u > 0.9] = 1.0
            fast = pbd_pmf(Pbd(ps))
            ref = sequential_pbd_pmf(ps)
            assert fast.lo == ref.lo and fast.tail_slack == ref.tail_slack
            assert np.array_equal(fast.probs, ref.probs)

    @pinned_versions
    @pytest.mark.parametrize(
        "n, tail_cut, digest",
        [
            (65, 0.0, "21b8a2ea37b5aba5"),
            (65, 1e-9, "1b1155977bf10eda"),
            (129, 0.0, "cce4b74d737dd9db"),
            (129, 1e-9, "5202e47af4c3045b"),
            (1000, 0.0, "a7a6fd563e46567e"),
            (1000, 1e-9, "6438ec6cc0c40934"),
            (20_000, 0.0, "27e2bb4410d75338"),
            (20_000, 1e-9, "26d6c19dbc2bbe45"),
        ],
    )
    def test_bit_identical_beyond_one_block(self, n, tail_cut, digest):
        """Beyond one block there is no exact reference, so the output is
        pinned by sha256 of ``(lo, tail_slack)`` and the probability bytes.

        The digests were taken while the leaf recurrence still ran on a
        ``(blocks, steps + 1)`` array, before it moved to ``(steps + 1,
        blocks)``: a layout change must not move a bit.  Up to 1000 coins
        about 10% are 0 and 10% are 1, so exact zeros are trimmed at every
        level.  ``np.convolve`` sums with numpy's (possibly BLAS) dot, so the
        pins hold for the pinned numpy build.
        """
        rng = np.random.Generator(np.random.Philox(n))
        ps = rng.random(n)
        if n <= 1000:
            u = rng.random(n)
            ps[u < 0.1] = 0.0
            ps[u > 0.9] = 1.0
        d = pbd_pmf(Pbd(ps), tail_cut=tail_cut)
        got = hashlib.sha256(repr((d.lo, d.tail_slack)).encode() + d.probs.tobytes())
        assert got.hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", [65, 127, 128, 129, 1000, 3000, 20_000])
    def test_close_to_reference_beyond_one_block(self, n):
        ps = np.random.Generator(np.random.Philox(n)).random(n)
        fast = pbd_pmf(Pbd(ps))
        ref = sequential_pbd_pmf(ps)
        assert fast.tail_slack == 0.0
        assert ell_inf_distance(fast, ref) <= 1e-15
        assert tv_distance(fast, ref) <= 1e-13

    @pytest.mark.parametrize("tail_cut", [1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("n", [40, 500, 5000])
    def test_truncation_stays_within_budget(self, n, tail_cut):
        ps = np.random.Generator(np.random.Philox(n)).uniform(0.05, 0.95, size=n)
        d = pbd_pmf(Pbd(ps), tail_cut=tail_cut)
        assert d.tail_slack <= tail_cut
        assert d.probs.sum() >= 1.0 - d.tail_slack - 1e-12
        assert tv_distance(d, sequential_pbd_pmf(ps)) <= d.tail_slack + 1e-13

    def test_budget_trims_beyond_the_per_coin_greedy(self):
        # The per-coin greedy spends the budget on far tails; the tree
        # spends it where the final law has negligible mass.
        ps = np.random.Generator(np.random.Philox(3)).uniform(0.05, 0.95, size=5000)
        assert len(pbd_pmf(Pbd(ps), 1e-9).probs) < len(sequential_pbd_pmf(ps, 1e-9).probs) / 2

    @pytest.mark.parametrize("p, point", [(0.0, 0), (1.0, 1000)])
    def test_deterministic_coins_give_point_mass(self, p, point):
        d = pbd_pmf(Pbd(np.full(1000, p)))
        assert d.lo == point
        np.testing.assert_array_equal(d.probs, [1.0])
        assert d.tail_slack == 0.0


class TestPerturbedBinomialValidation:
    @pytest.mark.parametrize(
        "c, eps",
        [(math.nan, 0.1), (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (-math.inf, 0.1)],
    )
    def test_rejects_non_finite_c_and_eps(self, c, eps):
        with pytest.raises(ValueError, match="c and eps must be finite and nonnegative"):
            realize({"kind": "perturbed_binomial", "n": 4, "c": c, "eps": eps, "z": [1, -1]})
        with pytest.raises(ValueError, match="c and eps must be finite and nonnegative"):
            PerturbedBinomial(4, c, eps, np.array([1, -1], dtype=np.int8))

    @pytest.mark.parametrize("z", [[257, -1], [1, -129], [1.5, -1], [0, 1]])
    def test_rejects_z_entries_that_int8_would_wrap(self, z):
        with pytest.raises(ValueError, match="z entries must be"):
            PerturbedBinomial(4, 1.0, 0.1, np.array(z))


class TestBinomialPmf:
    def test_two_flips(self):
        np.testing.assert_allclose(binomial_pmf(2, 0.5).probs, [0.25, 0.5, 0.25], rtol=1e-15)

    def test_p_zero_is_point_mass(self):
        d = binomial_pmf(5, 0.0)
        assert d.probs[0 - d.lo] == 1.0 and d.probs.sum() == 1.0

    def test_symmetry_exact_at_half(self):
        probs = binomial_pmf(1001, 0.5).probs
        np.testing.assert_array_equal(probs, probs[::-1])

    def test_square_sum_below_inverse_sqrt_n(self):
        # Direct summation on n = 1000: sum of squared masses stays below 1/sqrt(n).
        probs = binomial_pmf(1000, 0.5).probs
        assert (probs**2).sum() <= 1.0 / math.sqrt(1000)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.30012, 1e-3])
    @pytest.mark.parametrize("n", [1, 2, 5, 4096, 9987, 10_000])
    def test_matches_two_gammaln_formula(self, n, p):
        # Reference: both factorial terms from their own gammaln call.
        ks = np.arange(n + 1, dtype=np.float64)
        log_binom = gammaln(n + 1.0) - (gammaln(ks + 1.0) + gammaln(n - ks + 1.0))
        if p == 0.5:
            log_pmf = log_binom - n * math.log(2.0)
        else:
            log_pmf = log_binom + ks * math.log(p) + (n - ks) * math.log1p(-p)
        assert np.array_equal(binomial_pmf(n, p).probs, np.exp(log_pmf))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(3, 1.5)

    @pytest.mark.parametrize("p", [0.5, 0.0])
    def test_support_wider_than_max_width_is_refused(self, p):
        # 10^10 + 1 points would take 75 GiB; the check comes before any array.
        with pytest.raises(ValueError, match="binomial window of width 10000000001 is too large"):
            binomial_pmf(10**10, p)


class TestWindowedBinomialPmf:
    CUTS = [1e-9, 1e-6]
    PS = [0.5, 0.3, 1e-3]
    NS = [1, 5, 4096, 10_000, 100_000]

    @staticmethod
    def reference(n, p):
        ks = np.arange(n + 1, dtype=np.float64)
        log_binom = gammaln(n + 1.0) - (gammaln(ks + 1.0) + gammaln(n - ks + 1.0))
        if p == 0.5:
            return np.exp(log_binom - n * math.log(2.0))
        return np.exp(log_binom + ks * math.log(p) + (n - ks) * math.log1p(-p))

    @pytest.mark.parametrize("tail_cut", CUTS)
    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("n", NS)
    def test_window_is_a_bit_exact_slice_missing_at_most_tail_cut(self, n, p, tail_cut):
        d = binomial_pmf(n, p, tail_cut=tail_cut)
        assert 0 <= d.lo <= d.hi <= n
        assert np.array_equal(d.probs, self.reference(n, p)[d.lo : d.hi + 1])
        dropped = binom.cdf(d.lo - 1, n, p) + binom.sf(d.hi, n, p)
        assert dropped <= tail_cut
        assert 0.0 <= d.tail_slack <= tail_cut

    @pytest.mark.parametrize("tail_cut", CUTS)
    @pytest.mark.parametrize("n", NS)
    def test_fair_window_is_mirror_exact(self, n, tail_cut):
        d = binomial_pmf(n, 0.5, tail_cut=tail_cut)
        assert d.lo == n - d.hi
        assert np.array_equal(d.probs, d.probs[::-1])

    def test_window_is_short_at_large_n(self):
        # The Bernstein window at 1e-9 is about 13 sigma wide.
        assert len(binomial_pmf(10_000, 0.5, tail_cut=1e-9).probs) == 673

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_p_is_a_point_mass_inside_the_window(self, p):
        d = binomial_pmf(10_000, p, tail_cut=1e-9)
        assert d.probs[int(p * 10_000) - d.lo] == 1.0
        assert d.probs.sum() == 1.0 and d.tail_slack == 0.0

    @pytest.mark.parametrize("tail_cut", [-1e-12, 2e-6])
    def test_tail_cut_out_of_range_rejected(self, tail_cut):
        with pytest.raises(ValueError, match="tail_cut"):
            binomial_pmf(100, 0.5, tail_cut=tail_cut)


class TestTranslatedPoissonPmf:
    def test_integer_mean_variance_is_plain_poisson(self):
        d = translated_poisson_pmf(TranslatedPoissonParams(4.0, 4.0), tail_cut=1e-9)
        ks = np.arange(d.lo, d.hi + 1)
        expected = np.exp(ks * math.log(4.0) - 4.0 - [math.lgamma(k + 1) for k in ks])
        np.testing.assert_allclose(d.probs, expected, rtol=1e-12)
        assert d.lo >= 0

    def test_shift_and_rate_split(self):
        tp = TranslatedPoissonParams(5.5, 2.25)
        assert tp.shift == 3
        assert tp.rate == pytest.approx(2.5)

    def test_mass_within_tail_cut(self):
        d = translated_poisson_pmf(TranslatedPoissonParams(100.0, 81.0), tail_cut=1e-8)
        assert d.probs.sum() >= 1.0 - 1e-8
        assert d.tail_slack <= 1e-8

    def test_mode_mass_bound_large_sigma(self):
        # Flagged numeric check: mode probability <= 1.5 / sigma for sigma >= 128.
        for sigma in (128.0, 200.0, 400.0):
            d = translated_poisson_pmf(
                TranslatedPoissonParams(sigma**2 + 0.3, sigma**2), tail_cut=1e-9
            )
            assert float(d.probs.max()) <= 1.5 / sigma

    def test_requires_positive_variance(self):
        with pytest.raises(ValueError):
            TranslatedPoissonParams(3.0, 0.0)

    @pytest.mark.parametrize(
        "mu, sigma2, message",
        [
            (math.nan, 1.0, "mu and sigma2 must be finite"),
            (1.0, math.inf, "mu and sigma2 must be finite"),
            # Both finite, but mu - sigma2 overflows to -inf.
            (-1.7e308, 1.7e308, "mu - sigma2 must be finite"),
        ],
    )
    def test_rejects_non_finite_moments(self, mu, sigma2, message):
        with pytest.raises(ValueError, match=message):
            TranslatedPoissonParams(mu, sigma2)

    @pytest.mark.parametrize("tail_cut", [0.0, 2e-6])
    def test_tail_cut_out_of_range_rejected(self, tail_cut):
        with pytest.raises(ValueError, match=r"tail_cut must lie in \(0, 1e-6\]"):
            translated_poisson_pmf(TranslatedPoissonParams(4.0, 4.0), tail_cut=tail_cut)

    def test_window_wider_than_max_width_is_refused(self):
        # At sigma2 = 1e15 the window would hold about 4 * 10^8 points (3 GiB).
        with pytest.raises(ValueError, match="shifted-Poisson window of width 413921883"):
            translated_poisson_pmf(TranslatedPoissonParams(10.0, 1e15))
        assert 413921883 > MAX_WIDTH


class TestMomentsAndDistances:
    def test_pbd_moments(self):
        two = Pbd(np.array([0.5, 0.5]))
        assert (two.mean(), two.variance()) == (1.0, 0.5)
        empty = Pbd(np.array([]))
        assert (empty.mean(), empty.variance()) == (0.0, 0.0)
        three = Pbd(np.array([0.1, 0.2, 0.3]))
        assert three.mean() == pytest.approx(0.6) and three.variance() == pytest.approx(0.46)

    def test_tv_identity_and_disjoint(self):
        d = binomial_pmf(4, 0.3)
        assert tv_distance(d, d) == 0.0
        d0 = ExplicitDistribution(0, np.array([1.0]))
        d1 = ExplicitDistribution(1, np.array([1.0]))
        assert tv_distance(d0, d1) == 1.0

    def test_tv_hand_value(self):
        # 0.5 * (|0.25-0.16| + |0.5-0.48| + |0.25-0.36|) = 0.11
        assert tv_distance(binomial_pmf(2, 0.5), binomial_pmf(2, 0.6)) == pytest.approx(0.11)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(100):
            dists = []
            for _ in range(3):
                p = rng.random(8)
                dists.append(ExplicitDistribution(int(rng.integers(0, 3)), p / p.sum()))
            a, b, c = dists
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert 0.0 <= tv_distance(a, b) <= 1.0

    def test_l2_sq_bounded_by_inf_times_l1(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(50):
            p = rng.random(12)
            q = rng.random(12)
            a = ExplicitDistribution(0, p / p.sum())
            b = ExplicitDistribution(2, q / q.sum())
            l1 = 2.0 * tv_distance(a, b)
            assert ell2_sq_distance(a, b) <= ell_inf_distance(a, b) * l1 + 1e-12


class TestEffectiveSupport:
    def test_point_mass(self):
        d = ExplicitDistribution(5, np.array([1.0]))
        assert effective_support_interval(d, 0.3) == (5, 5)

    def test_uniform_tie_break(self):
        d = ExplicitDistribution(0, np.full(10, 0.1))
        assert effective_support_interval(d, 0.25) == (0, 7)

    def test_minimality_by_exhaustive_scan(self):
        rng = np.random.Generator(np.random.Philox(13))
        sizes = [int(rng.integers(1, 40)) for _ in range(30)] + [1000]
        for m in sizes:
            p = rng.random(m)
            d = ExplicitDistribution(0, p / p.sum())
            eps = float(rng.uniform(0.05, 0.5))
            lo, hi = effective_support_interval(d, eps)
            got = float(d.probs[lo - d.lo : hi - d.lo + 1].sum())
            assert got >= 1.0 - eps - 1e-12
            cs = np.concatenate(([0.0], np.cumsum(d.probs)))
            window = np.array([cs[l + (hi - lo) + 1] - cs[l] for l in range(m - (hi - lo))])
            # No window one shorter reaches the target mass.
            if hi - lo >= 1:
                shorter = np.array([cs[l + (hi - lo)] - cs[l] for l in range(m - (hi - lo) + 1)])
                assert shorter.max() < 1.0 - eps
            assert window.max() >= 1.0 - eps - 1e-12

    @staticmethod
    def _search_every_start(d, eps):
        """Reference: the same search over every start, zeros included."""
        cs = np.concatenate(([0.0], np.cumsum(d.probs)))
        if cs[-1] < 1.0 - eps:
            return None
        ends = np.searchsorted(cs, cs[:-1] + (1.0 - eps), side="left")
        m = len(d.probs)
        lengths = np.where(ends <= m, ends - np.arange(m), np.iinfo(np.int64).max)
        start = int(np.argmin(lengths))
        return d.lo + start, d.lo + int(ends[start]) - 1

    def test_mass_starts_match_every_start(self):
        rng = np.random.Generator(np.random.Philox(29))
        for trial in range(400):
            m = int(rng.integers(1, 60))
            has_mass = rng.random(m) < rng.uniform(0.1, 0.9)  # runs of zeros
            has_mass[int(rng.integers(m))] = True
            slack = [0.0, 0.125, 0.25][trial % 3]
            if trial % 2:
                # Masses and eps in 1/64ths: every window sum is exact, so
                # windows of equal mass tie exactly.
                units = rng.multinomial(64 - int(64 * slack), has_mass / has_mass.sum())
                probs = units / 64.0
                eps = int(rng.integers(1, 40)) / 64.0
            else:
                probs = np.where(has_mass, rng.random(m), 0.0)
                probs *= (1.0 - slack) / probs.sum()
                eps = float(rng.uniform(0.02, 0.6))
            d = ExplicitDistribution(int(rng.integers(-5, 5)), probs, tail_slack=slack)
            expected = self._search_every_start(d, eps)
            if expected is None:
                with pytest.raises(ValueError, match="interval"):
                    effective_support_interval(d, eps)
            else:
                assert effective_support_interval(d, eps) == expected

    def test_binomial_length_within_chernoff_ceiling(self):
        for n, eps in [(400, 0.1), (1600, 0.05)]:
            lo, hi = effective_support_interval(binomial_pmf(n, 0.5), eps)
            assert hi - lo + 1 <= 8.0 * math.sqrt(n * math.log(2.0 / eps))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_eps_out_of_range_rejected(self, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            effective_support_interval(binomial_pmf(10, 0.5), eps)

    def test_unreachable_mass_raises(self):
        d = ExplicitDistribution(0, np.array([0.5]), tail_slack=0.5)
        with pytest.raises(ValueError, match="interval"):
            effective_support_interval(d, 0.1)


class TestTruncatedLog:
    def test_values(self):
        assert truncated_log(math.e) == pytest.approx(1.0)
        assert truncated_log(math.e**2) == pytest.approx(2.0)
        assert truncated_log(0.5) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            truncated_log(0.0)


class TestUnimodalCertificateForms:
    """The exact certificate moved here unchanged; its zero-merged form is
    never above it (so never above the exact distance to the unimodal laws
    either) and equals it without zero runs."""

    def test_lowerbound_reexports_the_certificate(self):
        # tests/test_lowerbound.py checks this very object against its loop
        # reference, and perfbench times it under the lowerbound name.
        assert lowerbound.unimodal_distance_lb is unimodal_distance_lb

    @staticmethod
    def _with_zero_runs(rng, m):
        p = rng.random(m)
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.integers(0, m))
            p[a : a + int(rng.integers(2, 8))] = 0.0
        p[int(rng.integers(0, m))] += 1.0
        return ExplicitDistribution(int(rng.integers(-5, 6)), p / p.sum())

    def test_merged_never_above_unmerged(self):
        rng = np.random.Generator(np.random.Philox(41))
        below = 0
        for _ in range(500):
            d = self._with_zero_runs(rng, int(rng.integers(2, 60)))
            merged, full = merged_unimodal_distance_lb(d), unimodal_distance_lb(d)
            assert merged <= full + 1e-12
            below += merged < full - 1e-12
        # Merging does lose something on some inputs: the two forms differ.
        assert below > 0

    def test_equal_without_zero_runs(self):
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(200):
            m = int(rng.integers(1, 60))
            p = rng.random(m) + 1e-3
            # Isolated zeros are runs of length one: merging keeps them as they are.
            p[rng.random(m) < 0.2] = 0.0
            p[1:][(p[1:] == 0.0) & (p[:-1] == 0.0)] = 1e-3
            p[int(rng.integers(0, m))] += 1.0
            d = ExplicitDistribution(0, p / p.sum())
            assert merged_unimodal_distance_lb(d) == unimodal_distance_lb(d)

    def test_two_spikes_merge_to_three_points(self):
        # Half at 0 and half at n: any unimodal law pays 1/4, merged or not.
        probs = np.zeros(10_001)
        probs[0] = probs[-1] = 0.5
        d = ExplicitDistribution(0, probs)
        assert merged_unimodal_distance_lb(d) == unimodal_distance_lb(d) == 0.25
        assert merged_unimodal_distance_lb(binomial_pmf(30, 0.5)) == 0.0


def _certificate_pin_cases():
    """Eight fixed Philox laws, the odd ones with runs of exact zeros, each
    with three windows: none, an inner one, and one reaching past the low end."""
    rng = np.random.Generator(np.random.Philox(2323))
    cases = []
    for i in range(8):
        m = int(rng.integers(4, 90))
        p = rng.random(m) ** 2
        if i % 2:
            for _ in range(3):
                a = int(rng.integers(0, m))
                p[a : a + int(rng.integers(2, 9))] = 0.0
        p[m // 2] += 0.1
        d = ExplicitDistribution(int(rng.integers(0, 50)), p / p.sum())
        for window in (None, (d.lo + m // 4, d.lo + 3 * m // 4), (d.lo - 5, d.lo + m // 2)):
            cases.append((i, d, window))
    return cases


def _exceeds_levels(lb: float) -> tuple[float, ...]:
    # Two levels well below the value, so both passes stop early, the value's
    # neighbour below it, the value itself, and one above it.
    return (0.01, lb / 4, math.nextafter(lb, 0.0), lb, 2 * lb + 0.01)


# Taken at the parent of the change that merged the two unimodal splits into
# one: (unimodal_distance_lb(d, window).hex(), unimodal_distance_exceeds at
# ``_exceeds_levels`` as T/F), one entry per case; and
# merged_unimodal_distance_lb(d).hex() per law.
CERTIFICATE_PINS = [
    ("0x1.2c9ac98ae32bcp-2", "TTTFF"),
    ("0x1.1cc5dbb605a8ep-3", "TTTFF"),
    ("0x1.f72a10852465ap-4", "TTTFF"),
    ("0x1.1fac543b39e5fp-2", "TTTFF"),
    ("0x1.1dcdfe8144781p-4", "TTTFF"),
    ("0x1.d5be56823f12ap-5", "TTTFF"),
    ("0x1.5ddd175163a2cp-2", "TTTFF"),
    ("0x1.12f3862babc4dp-3", "TTTFF"),
    ("0x1.4dacefde31cf7p-3", "TTTFF"),
    ("0x1.ebdcc8f7150eap-3", "TTTFF"),
    ("0x1.7ad783e05fb47p-5", "TTTFF"),
    ("0x1.ebdcc8f7150eap-3", "TTTFF"),
    ("0x1.4f0e140fda28cp-2", "TTTFF"),
    ("0x1.014f6affc539bp-3", "TTTFF"),
    ("0x1.211d4fecf84f6p-3", "TTTFF"),
    ("0x1.31b77dae828b3p-2", "TTTFF"),
    ("0x1.34795f4003d21p-3", "TTTFF"),
    ("0x1.8a6ff3a03fc77p-4", "TTTFF"),
    ("0x1.f3d72a2522ea7p-3", "TTTFF"),
    ("0x1.108f3a53135ccp-4", "TTTFF"),
    ("0x1.0aa185a68fc0ap-3", "TTTFF"),
    ("0x1.6eeba72c6ab6ap-2", "TTTFF"),
    ("0x1.8acc51c2a2a4ep-3", "TTTFF"),
    ("0x1.352d38e63c3f7p-3", "TTTFF"),
]
MERGED_PINS = [
    "0x1.2c9ac98ae32bcp-2", "0x1.16547ec94a4cfp-2", "0x1.5ddd175163a2cp-2",
    "0x1.6474448616fe7p-3", "0x1.4f0e140fda28cp-2", "0x1.fa249edcd099ap-3",
    "0x1.f3d72a2522ea7p-3", "0x1.4d85ef1968e6fp-2",
]


@pinned_versions
class TestCertificatePins:
    """The certificate's value and decision forms, pinned bit for bit.

    The golden artifacts reach the certificate only through the detection
    experiment's decision form, and never take the learner's sparse route,
    which reads the zero-merged value; these pins hold the value, the
    zero-merged value, and the decision at levels on both sides of the value.
    """

    def test_value_and_decision(self):
        got = []
        for _, d, window in _certificate_pin_cases():
            lb = unimodal_distance_lb(d, window)
            flags = "".join(
                "T" if unimodal_distance_exceeds(d, level, window) else "F"
                for level in _exceeds_levels(lb)
            )
            got.append((lb.hex(), flags))
        assert got == CERTIFICATE_PINS

    def test_merged_value(self):
        laws = {i: d for i, d, _ in _certificate_pin_cases()}
        assert [merged_unimodal_distance_lb(d).hex() for d in laws.values()] == MERGED_PINS

    def test_window_past_the_support_is_zero(self):
        for _, d, _ in _certificate_pin_cases():
            window = (d.hi + 3, d.hi + 10)
            assert unimodal_distance_lb(d, window) == 0.0
            assert not unimodal_distance_exceeds(d, 0.0, window)
