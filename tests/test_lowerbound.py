"""Unit tests for the adversarial family and its certificates."""

import math
import sys
from heapq import heappush, heappushpop

import numpy as np
import pytest

import pbdtest.distributions as distributions
import pbdtest.lowerbound as lowerbound
from pbdtest.distributions import (
    ExplicitDistribution,
    _half_unimodal_l1,
    _perturb_fair_binomial,
    _PrefixPass,
    binomial_pmf,
    merged_unimodal_distance_lb,
    unimodal_distance_exceeds,
)
from pbdtest.lowerbound import (
    PerturbedBinomial,
    _center_window,
    chi2_indistinguishability_bound,
    construct_perturbed_binomial,
    detection_experiment,
    half_square_sum,
    random_sign_vector,
    unimodal_distance_lb,
)
from pbdtest.oracles import exact_tv_to_unimodal
from pbdtest.sampling import SampleStream
from pbdtest.tester import TestConfig, run_budgeted_test

# Supports up to this size get the exact LP distance as an upper reference.
_LP_MAX_SUPPORT = 6


def distinct_value_isotonic_l1_prefix(y):
    """Reference: the least-l1 nondecreasing prefix fit as a recurrence over
    the sorted distinct values of y (some optimal fit takes only those);
    ``cost[v]`` is the least error with the last fitted value at most ``v``."""
    values = np.unique(y)
    out = np.zeros(len(y) + 1)
    cost = np.zeros(len(values))
    for t, x in enumerate(y.tolist(), start=1):
        cost = np.minimum.accumulate(cost + np.abs(x - values))
        out[t] = cost[-1]
    return out


def distinct_value_unimodal_lb(q, window=None):
    """Reference: the certificate built on the distinct-value recurrence."""
    p = q.probs
    if window is not None:
        a = max(window[0] - q.lo, 0)
        b = min(window[1] - q.lo + 1, len(p))
        p = p[a:b] if a < b else p[:0]
    f = distinct_value_isotonic_l1_prefix(p)
    g = distinct_value_isotonic_l1_prefix(p[::-1])[::-1]
    return 0.5 * float((f + g).min())


def full_pass_isotonic_l1_prefix(y, stop_above=math.inf):
    """Reference: out[t] is the least l1 distance from y[:t] to a nondecreasing
    sequence, from one heap pass over y that stops after the first cost above
    ``stop_above``."""
    heap = []
    cost = 0.0
    out = [cost]
    for x in (-y).tolist():
        cost += x - heappushpop(heap, x)
        heappush(heap, x)
        out.append(cost)
        if cost > stop_above:
            break
    return np.array(out)


def full_pass_half_unimodal_l1(p, level=math.inf):
    """Reference: the certificate from a forward and a backward pass that each
    run until their cost passes 2 * level, summed on every split both reached."""
    bound = 2.0 * level if level >= sys.float_info.min else math.inf
    f = full_pass_isotonic_l1_prefix(p, bound)
    h = full_pass_isotonic_l1_prefix(p[::-1], bound)
    m, i, j = len(p), len(f) - 1, len(h) - 1
    if m - j > i:
        return math.inf
    both = f[m - j : i + 1] + h[m - i : j + 1][::-1]
    return 0.5 * float(both.min())


def loop_max_matching_prefix(weights):
    """Reference: the recurrence over every edge, one element at a time."""
    m = len(weights)
    out = np.zeros(m + 1)
    prev2 = 0.0
    prev1 = 0.0
    for t in range(1, m + 1):
        cur = max(prev1, prev2 + weights[t - 1])
        out[t] = cur
        prev2 = prev1
        prev1 = cur
    return out


def loop_unimodal_distance_lb(q, window=None):
    """Reference: a weaker lower bound on the same l1 distance, a max-weight
    matching of drops before a candidate mode and rises after it, with a
    per-mode Python min-max loop.  The certificate is never below it."""
    p = q.probs
    m = len(p)
    if m == 1:
        return 0.0
    drops = np.maximum(p[:-1] - p[1:], 0.0)
    rises = np.maximum(p[1:] - p[:-1], 0.0)
    if window is not None:
        w_lo, w_hi = window
        edge_left = q.lo + np.arange(m - 1)
        inside = (edge_left >= w_lo) & (edge_left + 1 <= w_hi)
        drops = np.where(inside, drops, 0.0)
        rises = np.where(inside, rises, 0.0)
    f = loop_max_matching_prefix(drops)
    g = loop_max_matching_prefix(rises[::-1])[::-1]
    best = math.inf
    for j in range(m):
        opt_a = f[j] + (g[j + 1] if j + 1 <= m - 1 else 0.0)
        opt_b = (f[j - 1] if j >= 1 else 0.0) + g[j]
        best = min(best, max(opt_a, opt_b))
    return 0.5 * float(best)


class TestConstruction:
    def test_zero_eps_reproduces_base(self):
        pb = PerturbedBinomial(8, 2.0, 0.0, np.array([1, -1, 1, 1], dtype=np.int8))
        q = construct_perturbed_binomial(pb)
        np.testing.assert_array_equal(q.probs, binomial_pmf(8, 0.5).probs)

    def test_small_case_plugin(self):
        p0 = binomial_pmf(4, 0.5).probs
        pb = PerturbedBinomial(4, 1.0, 0.5, np.array([1, -1], dtype=np.int8))
        q = construct_perturbed_binomial(pb)
        expected = [0.5 * p0[0], 1.5 * p0[1], p0[2], 0.5 * p0[3], 1.5 * p0[4]]
        np.testing.assert_allclose(q.probs, expected, rtol=1e-15)

    def test_mass_conserved_for_random_signs(self):
        rng = np.random.Generator(np.random.Philox(1))
        for _ in range(20):
            pb = PerturbedBinomial(64, 1.5, 0.3, random_sign_vector(64, rng))
            q = construct_perturbed_binomial(pb)
            assert abs(q.probs.sum() - 1.0) <= 1e-12
            assert q.probs[32] == binomial_pmf(64, 0.5).probs[32]

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            PerturbedBinomial(5, 1.0, 0.1, np.array([1, -1], dtype=np.int8))
        with pytest.raises(ValueError, match="c \\* eps"):
            PerturbedBinomial(4, 4.0, 0.5, np.array([1, -1], dtype=np.int8))
        with pytest.raises(ValueError, match="length"):
            PerturbedBinomial(4, 1.0, 0.1, np.array([1], dtype=np.int8))


class TestUnimodalCertificate:
    def test_unimodal_input_gets_zero(self):
        d = binomial_pmf(30, 0.5)
        assert unimodal_distance_lb(d) == 0.0

    def test_two_spikes_hand_value(self):
        # Half at 0 and half at 2: any unimodal law pays 1/4 in TV.
        d = ExplicitDistribution(0, np.array([0.5, 0.0, 0.5]))
        assert unimodal_distance_lb(d) == pytest.approx(0.25)

    def test_never_exceeds_exact_distance(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(25):
            m = int(rng.integers(2, 25))
            p = rng.random(m)
            d = ExplicitDistribution(0, p / p.sum())
            lb = unimodal_distance_lb(d)
            exact = exact_tv_to_unimodal(d)
            assert lb <= exact + 1e-7

    def test_window_restriction_only_reduces(self):
        rng = np.random.Generator(np.random.Philox(5))
        p = rng.random(30)
        d = ExplicitDistribution(0, p / p.sum())
        full = unimodal_distance_lb(d)
        windowed = unimodal_distance_lb(d, window=(5, 20))
        assert windowed <= full + 1e-12

    def test_positive_for_typical_family_member(self):
        n = 4096
        rng = np.random.Generator(np.random.Philox(9))
        window = (n // 2 - int(4 * math.sqrt(n)), n // 2 + int(4 * math.sqrt(n)))
        hits = 0
        trials = 50
        for _ in range(trials):
            pb = PerturbedBinomial(n, 3.0, 0.1, random_sign_vector(n, rng))
            q = construct_perturbed_binomial(pb)
            hits += unimodal_distance_lb(q, window=window) > 0.0
        assert hits >= 0.99 * trials


class TestCertificateMatchesLoopReference:
    """The certificate equals the distinct-value recurrence, is never below
    the matching bound and never above the exact LP distance."""

    @staticmethod
    def check(d, window, exact=None):
        lb = unimodal_distance_lb(d, window)
        assert lb == pytest.approx(distinct_value_unimodal_lb(d, window), rel=0.0, abs=1e-12)
        assert loop_unimodal_distance_lb(d, window) <= lb + 1e-12
        if exact is not None:
            assert lb <= exact + 1e-7

    def test_random_inputs_with_windows(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(2000):
            m = int(rng.integers(1, 41))
            lo = int(rng.integers(-50, 51))
            # Quantized masses give ties and zero-credit edges.
            p = rng.integers(0, 4, size=m).astype(float) if rng.random() < 0.5 else rng.random(m)
            p[int(rng.integers(0, m))] += 1.0
            d = ExplicitDistribution(lo, p / p.sum())
            kind = rng.integers(0, 3)
            if kind == 0:
                window = None
            elif kind == 1:  # overlaps the support, possibly partially
                a = lo + int(rng.integers(-5, m + 5))
                window = (a, a + int(rng.integers(0, m + 5)))
            else:  # disjoint from the support
                window = (lo + m + 1, lo + m + 1 + int(rng.integers(0, 10)))
            # One LP per mode makes the oracle slow beyond a few points.
            self.check(d, window, exact_tv_to_unimodal(d) if m <= _LP_MAX_SUPPORT else None)

    def test_family_members_with_and_without_window(self):
        # The distinct-value recurrence checks each member's 513-point centre
        # window.  On the whole 4097-point member it would take about 130 ms a
        # call, so there the full heap passes check the value bit for bit.
        n = 4096
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(50):
            q = construct_perturbed_binomial(
                PerturbedBinomial(n, 8.0, 0.1, random_sign_vector(n, rng))
            )
            self.check(q, _center_window(n))
            lb = unimodal_distance_lb(q)
            assert lb == full_pass_half_unimodal_l1(q.probs)
            assert loop_unimodal_distance_lb(q) <= lb + 1e-12

    def test_prebuilt_base_gives_same_member(self):
        n = 256
        z = random_sign_vector(n, np.random.Generator(np.random.Philox(2)))
        pb = PerturbedBinomial(n, 8.0, 0.1, z)
        q = _perturb_fair_binomial(pb, binomial_pmf(n, 0.5))
        np.testing.assert_array_equal(q.probs, construct_perturbed_binomial(pb).probs)


class TestDecisionMatchesValue:
    """``unimodal_distance_exceeds`` decides ``unimodal_distance_lb > level``
    exactly, ties and the float just below the value included."""

    @staticmethod
    def random_inputs_with_windows():
        # Built as in TestCertificateMatchesLoopReference.test_random_inputs_with_windows.
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(2000):
            m = int(rng.integers(1, 41))
            lo = int(rng.integers(-50, 51))
            p = rng.integers(0, 4, size=m).astype(float) if rng.random() < 0.5 else rng.random(m)
            p[int(rng.integers(0, m))] += 1.0
            d = ExplicitDistribution(lo, p / p.sum())
            kind = rng.integers(0, 3)
            if kind == 0:
                window = None
            elif kind == 1:
                a = lo + int(rng.integers(-5, m + 5))
                window = (a, a + int(rng.integers(0, m + 5)))
            else:
                window = (lo + m + 1, lo + m + 1 + int(rng.integers(0, 10)))
            yield d, window

    def test_random_inputs_at_levels_around_the_value(self):
        for d, window in self.random_inputs_with_windows():
            lb = unimodal_distance_lb(d, window)
            # The tie must give False, and the float just below lb True when lb > 0.
            for level in (0.0, lb / 2, lb, np.nextafter(lb, 0.0), 2 * lb):
                assert unimodal_distance_exceeds(d, level, window) == (lb > level)

    def test_family_members_on_the_centre_window(self):
        n = 4096
        window = _center_window(n)
        rng = np.random.Generator(np.random.Philox(29))
        decided = set()
        for c in (8.0, 2.0, 1.0, 0.5, 0.3):
            for _ in range(40):
                q = construct_perturbed_binomial(
                    PerturbedBinomial(n, c, 0.1, random_sign_vector(n, rng))
                )
                far = unimodal_distance_lb(q, window) > 0.1
                assert unimodal_distance_exceeds(q, 0.1, window) == far
                decided.add(far)
        assert decided == {True, False}

    def test_empty_and_disjoint_windows_are_not_far(self):
        d = ExplicitDistribution(3, np.array([0.5, 0.0, 0.5]))
        for window in ((5, 4), (10, 20), (-8, 2)):
            assert unimodal_distance_lb(d, window) == 0.0
            assert not unimodal_distance_exceeds(d, 0.0, window)
            assert not unimodal_distance_exceeds(d, 0.1, window)

    def test_answer_is_a_python_bool_at_a_numpy_level(self):
        # The same law as the band test below: at its value the core settles
        # nothing, so the last comparison, with the numpy level, answers.
        d = ExplicitDistribution(0, np.array([0.05, 0.4, 0.1, 0.45]))
        lb = np.float64(unimodal_distance_lb(d))
        assert unimodal_distance_exceeds(d, np.nextafter(lb, 0.0)) is True
        assert unimodal_distance_exceeds(d, lb) is False
        # And on the routes the core decides.
        assert unimodal_distance_exceeds(d, np.float64(0.01)) is True
        assert unimodal_distance_exceeds(d, np.float64(0.3)) is False


class TestMassCoreScreen:
    """``unimodal_distance_exceeds`` first decides on the window's mass core:
    each of its three routes runs and gives the value's answer."""

    @staticmethod
    def record_passes(monkeypatch) -> list[int]:
        """The lengths of the arrays the certificate runs on, in call order."""
        lengths = []
        run = distributions._half_unimodal_l1

        def recording(p, level=math.inf):
            lengths.append(len(p))
            return run(p, level)

        monkeypatch.setattr(distributions, "_half_unimodal_l1", recording)
        return lengths

    @pytest.mark.parametrize("c, far", [(8.0, True), (0.3, False)], ids=["core-far", "core-near"])
    def test_members_are_decided_on_the_core_alone(self, monkeypatch, c, far):
        n = 4096
        window = _center_window(n)
        rng = np.random.Generator(np.random.Philox(31))
        members = [
            construct_perturbed_binomial(PerturbedBinomial(n, c, 0.1, random_sign_vector(n, rng)))
            for _ in range(10)
        ]
        assert [unimodal_distance_lb(q, window) > 0.1 for q in members] == [far] * 10
        lengths = self.record_passes(monkeypatch)
        for q in members:
            lengths.clear()
            assert unimodal_distance_exceeds(q, 0.1, window) is far
            # One pass pair on a core of about +-1.65 sigma, a fifth of the window.
            assert len(lengths) == 1 and lengths[0] < (window[1] - window[0] + 1) / 4

    def test_a_level_in_the_band_is_decided_on_the_window(self, monkeypatch):
        # cert = 0.15 on the window and on its core [0.4, 0.1, 0.45], whose
        # outside mass is 0.05: at the value the core settles nothing.
        d = ExplicitDistribution(0, np.array([0.05, 0.4, 0.1, 0.45]))
        lb = unimodal_distance_lb(d)
        lengths = self.record_passes(monkeypatch)
        for level, far in ((lb, False), (np.nextafter(lb, 0.0), True)):
            lengths.clear()
            assert unimodal_distance_exceeds(d, level, None) == far
            assert lengths == [3, 4]


class TestSweepMatchesFullPasses:
    """``_half_unimodal_l1``, whose passes meet at the mode and run on only
    while a split can still win, gives bit for bit the value of two full
    passes, at every level."""

    @staticmethod
    def inputs():
        rng = np.random.Generator(np.random.Philox(53))
        # Every array of length 0 to 3 over {0, 1, 2}.
        for m in range(4):
            for values in np.ndindex(*(3,) * m):
                yield np.array(values, dtype=float)
        for _ in range(600):
            m = int(rng.integers(1, 60))
            kind = int(rng.integers(0, 5))
            if kind == 0:  # ties
                p = rng.integers(0, 4, size=m).astype(float)
            elif kind == 1:  # runs of zeros and plateaus
                p = rng.random(m)
                for _ in range(int(rng.integers(1, 4))):
                    a = int(rng.integers(0, m))
                    p[a : a + int(rng.integers(2, 9))] = 0.0 if rng.random() < 0.5 else rng.random()
            elif kind == 2:  # two equal peaks
                p = rng.random(m)
                p[rng.choice(m, size=min(m, 2), replace=False)] = 1.5
            else:  # the mode at the low or the high end
                p = np.sort(rng.random(m)) + 0.05 * rng.random(m)
                p[-1] = 2.0
                if kind == 4:
                    p = p[::-1].copy()
            yield p

    @staticmethod
    def levels(value):
        # Below the value, just below, at, just above, above, and below the
        # smallest normal float.
        return (
            0.0,
            value / 2,
            math.nextafter(value, 0.0),
            value,
            math.nextafter(value, math.inf),
            2 * value + 0.01,
            5e-324,
            sys.float_info.min / 2,
        )

    def test_values_equal_the_full_passes(self):
        for p in self.inputs():
            value = full_pass_half_unimodal_l1(p)
            assert _half_unimodal_l1(p) == value
            for level in self.levels(value):
                assert _half_unimodal_l1(p, level) == full_pass_half_unimodal_l1(p, level)

    def test_decisions_equal_the_full_passes(self):
        for p in self.inputs():
            if p.sum() == 0.0:
                continue
            p = p / p.sum()
            d = ExplicitDistribution(0, p)
            value = full_pass_half_unimodal_l1(p)
            for level in self.levels(value):
                assert unimodal_distance_exceeds(d, level) is (value > level)


class TestSweepWork:
    """The certificate on a learning histogram takes at most 1.5 m heap steps
    on m points, where two full passes take 2 m."""

    @staticmethod
    def learning_histograms():
        config = TestConfig(eps=0.1, delta=0.1)
        k = config.learn_samples(config.eps / config.learn_accuracy_const)
        for n in (10**4, 4096):
            z = random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
            member = construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, z))
            for d in (member, binomial_pmf(n, 0.5)):
                for seed in range(30):
                    stream = SampleStream.from_distribution(d, seed=seed)
                    yield stream.draw_histogram(k).to_empirical()

    def test_steps_per_call(self, monkeypatch):
        steps = [0]
        sizes = []
        step = distributions.heappush
        run = distributions._half_unimodal_l1

        def counting(heap, x):
            steps[0] += 1
            return step(heap, x)

        def recording(p, level=math.inf):
            sizes.append(len(p))
            return run(p, level)

        monkeypatch.setattr(distributions, "heappush", counting)
        monkeypatch.setattr(distributions, "_half_unimodal_l1", recording)
        calls = 0
        for emp in self.learning_histograms():
            steps[0] = 0
            sizes.clear()
            merged_unimodal_distance_lb(emp)
            assert len(sizes) == 1 and sizes[0] > 100
            assert steps[0] <= 1.5 * sizes[0]
            calls += 1
        assert calls == 120


class TestRegressionCertificate:
    """The l1-regression certificate: hand values, never below the matching
    bound nor above the exact distance, and it certifies the members the
    matching bound misses."""

    @staticmethod
    def _missed_member():
        # Trial 0 of the first budget point of detection_experiment at this
        # seed: the matching bound gives 0.0972 against eps = 0.1.
        n = 4096
        seq = np.random.SeedSequence(entropy=(3 << 32) + 100, spawn_key=(0, 0, 1))
        z = random_sign_vector(n, np.random.Generator(np.random.Philox(seq)))
        return construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, z))

    @staticmethod
    def _prefix_costs(y, *ends):
        run = _PrefixPass(np.array(y))
        for end in ends or (len(y),):
            run.run(end)
        return run.costs

    def test_isotonic_prefix_hand_values(self):
        # A decreasing run costs its distances to the median; a rising one is free.
        assert self._prefix_costs([3.0, 2.0, 1.0, 0.0]) == [0.0, 0.0, 1.0, 2.0, 4.0]
        assert self._prefix_costs([0.0, 1.0, 1.0, 5.0]) == [0.0] * 5
        assert self._prefix_costs([]) == [0.0]
        # Resumed at any point, the pass gives the same costs.
        assert self._prefix_costs([3.0, 2.0, 1.0, 0.0], 1, 3, 4) == [0.0, 0.0, 1.0, 2.0, 4.0]

    def test_isotonic_prefix_stops_past_its_bound(self):
        run = _PrefixPass(np.array([3.0, 2.0, 1.0, 0.0]))
        run.run(4, 0.5)
        # The first cost above 0.5 is the last step taken, and a stopped pass stays put.
        assert run.costs == [0.0, 0.0, 1.0]
        run.run(4, 0.5)
        assert run.costs == [0.0, 0.0, 1.0]

    def test_between_matching_bound_and_exact_distance(self):
        rng = np.random.Generator(np.random.Philox(31))
        for _ in range(40):
            m = int(rng.integers(1, 13))
            lo = int(rng.integers(-5, 6))
            p = rng.integers(0, 4, size=m).astype(float) if rng.random() < 0.5 else rng.random(m)
            p[int(rng.integers(0, m))] += 1.0
            d = ExplicitDistribution(lo, p / p.sum())
            a = lo + int(rng.integers(-3, m + 3))
            for window in (None, (a, a + int(rng.integers(0, m + 3)))):
                lb = unimodal_distance_lb(d, window)
                assert loop_unimodal_distance_lb(d, window) <= lb + 1e-12
                assert lb <= exact_tv_to_unimodal(d) + 1e-7

    def test_certifies_member_the_matching_bound_misses(self):
        q = self._missed_member()
        window = _center_window(4096)
        assert loop_unimodal_distance_lb(q, window) <= 0.1
        assert unimodal_distance_lb(q, window) > 0.2

    def test_detection_counts_that_member_certified(self):
        cfg = TestConfig(eps=0.1, delta=0.5, seed=0, amplification_reps=1)
        rows, _ = detection_experiment(
            4096, 8.0, 0.1, [5.0], trials=2, config=cfg, seed=(3 << 32) + 100
        )
        # The matching bound alone certifies only trial 1.
        assert rows[0].certified_far_rate == 1.0


class TestChi2Bound:
    def test_half_square_sum_capped(self):
        for n in (2, 8, 64, 512, 4096):
            s = half_square_sum(n)
            probs = binomial_pmf(n, 0.5).probs
            assert s <= probs.max() <= 1.0 / math.sqrt(n)

    @pytest.mark.parametrize("n", [0, -4, 7])
    def test_half_square_sum_needs_a_positive_even_n(self, n):
        with pytest.raises(ValueError, match="n must be a positive even integer"):
            half_square_sum(n)

    def test_limits(self):
        assert chi2_indistinguishability_bound(100, 1.0, 0.0, 50.0) == 0.0
        assert chi2_indistinguishability_bound(100, 1.0, 0.1, 0.0) == 0.0
        with pytest.raises(ValueError, match="k must be nonnegative"):
            chi2_indistinguishability_bound(100, 1.0, 0.1, -1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_budget_is_refused(self, k):
        # min(1.0, nan) is 1.0, so a NaN budget would otherwise pass as a bound.
        with pytest.raises(ValueError, match=f"finite, got {k!r}"):
            chi2_indistinguishability_bound(100, 1.0, 0.1, k)

    def test_monotone_in_k(self):
        ks = [1.0, 10.0, 100.0, 1e4, 1e6]
        vals = [chi2_indistinguishability_bound(10_000, 1.0, 0.1, k) for k in ks]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0  # capped

    def test_value_at_quarter_power_budget(self):
        n, eps = 10_000, 0.1
        k = n**0.25 / (10 * eps**2)
        assert chi2_indistinguishability_bound(n, 1.0, eps, k) < 0.1

    def test_bound_dominates_likelihood_ratio_advantage(self):
        # The family-vs-base likelihood-ratio test is the strongest possible
        # discriminator; even its advantage must stay under the bound.
        n, c, eps = 128, 2.5, 0.2
        a = c * eps
        p0 = binomial_pmf(n, 0.5).probs
        half = n // 2
        log_hi, log_lo = math.log1p(a), math.log1p(-a)
        rng = np.random.Generator(np.random.Philox(31))
        trials = 400

        def lr_says_family(counts):
            ki = counts[:, :half]
            kn = counts[:, n : half : -1]
            both = np.logaddexp(
                ki * log_hi + kn * log_lo, ki * log_lo + kn * log_hi
            ) - math.log(2.0)
            return both.sum(axis=1) > 0.0

        for k in (6.0, 12.0, 25.0):
            base_counts = rng.poisson(k * p0, size=(trials, n + 1))
            false_alarm = lr_says_family(base_counts).mean()
            hits = 0
            for t in range(trials):
                pb = PerturbedBinomial(n, c, eps, random_sign_vector(n, rng))
                q = construct_perturbed_binomial(pb)
                counts = rng.poisson(k * q.probs, size=(1, n + 1))
                hits += int(lr_says_family(counts)[0])
            advantage = hits / trials - false_alarm
            bound = chi2_indistinguishability_bound(n, c, eps, k)
            se = math.sqrt(2.0 * 0.25 / trials)
            assert advantage <= bound + 3.0 * se, f"k={k}: {advantage} vs {bound}"


class TestDetectionExperiment:
    def test_zero_trials_empty(self):
        cfg = TestConfig(eps=0.2, delta=0.5)
        rows, meta = detection_experiment(64, 1.0, 0.2, [10.0], trials=0, config=cfg, seed=0)
        assert rows == []
        assert meta["trials"] == 0

    def test_c_scaled_down_when_mass_would_go_negative(self):
        cfg = TestConfig(eps=0.5, delta=0.5, seed=0, amplification_reps=1)
        rows, meta = detection_experiment(64, 10.0, 0.5, [5.0], trials=2, config=cfg, seed=0)
        assert meta["c_scaled_down"] and meta["c_used"] < 10.0
        assert not meta["regime_met"]

    def test_rows_deterministic(self):
        cfg = TestConfig(eps=0.2, delta=0.5, seed=3, amplification_reps=1)
        a = detection_experiment(128, 2.0, 0.2, [50.0, 500.0], trials=5, config=cfg, seed=3)
        b = detection_experiment(128, 2.0, 0.2, [50.0, 500.0], trials=5, config=cfg, seed=3)
        assert a == b

    def test_more_than_one_thread_is_refused(self):
        cfg = TestConfig(eps=0.2, delta=0.5)
        with pytest.raises(ValueError, match="one thread"):
            detection_experiment(128, 2.0, 0.2, [500.0], trials=2, config=cfg, threads=2)

    @pytest.mark.parametrize("bad", [math.nan, -5.0, math.inf])
    def test_bad_budget_is_refused_before_the_first_trial(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(lowerbound, "run_budgeted_test", lambda *a, **kw: calls.append(a))
        cfg = TestConfig(eps=0.2)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            detection_experiment(64, 2.0, 0.2, [5.0, bad], trials=2, config=cfg, seed=0)
        assert calls == []

    def test_runs_test_at_the_family_eps(self, monkeypatch):
        tested_at = []

        def recording(stream, n, config, sample_budget):
            tested_at.append(config.eps)
            return run_budgeted_test(stream, n, config, sample_budget=sample_budget)

        monkeypatch.setattr(lowerbound, "run_budgeted_test", recording)
        cfg = TestConfig(eps=0.4, delta=0.5)
        detection_experiment(128, 2.0, 0.2, [50.0], trials=2, config=cfg, seed=3)
        assert tested_at == [0.2] * 4

    def test_advantage_bounded_at_tiny_budget(self):
        cfg = TestConfig(eps=0.2, delta=0.5, seed=1, amplification_reps=1)
        rows, _ = detection_experiment(128, 2.0, 0.2, [3.0], trials=30, config=cfg, seed=1)
        r = rows[0]
        se = math.sqrt(2.0 * 0.25 / 30)
        assert r.advantage <= r.chi2_bound + 3.0 * se

    def test_fair_binomial_built_once_per_call(self, monkeypatch):
        n = 128
        half_square_sum(n)  # warm the cache so only the experiment's own builds count
        builds = []
        for module in (lowerbound, distributions):

            def counting(n_, p_, _orig=module.binomial_pmf):
                if (n_, p_) == (n, 0.5):
                    builds.append(n_)
                return _orig(n_, p_)

            monkeypatch.setattr(module, "binomial_pmf", counting)
        cfg = TestConfig(eps=0.2, delta=0.5, seed=3, amplification_reps=1)
        detection_experiment(n, 2.0, 0.2, [50.0, 500.0], trials=5, config=cfg, seed=3)
        # A build per trial would make 1 + 2 * 5.
        assert len(builds) == 1
