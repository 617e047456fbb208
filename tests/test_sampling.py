"""Unit tests for seeded sampling, histograms and empirical distributions."""

import math

import numpy as np
import pytest
from scipy import stats

from pbdtest.distributions import MAX_WIDTH, ExplicitDistribution, binomial_pmf, tv_distance
from pbdtest.sampling import SampleHistogram, SampleStream, StreamExhausted


def make_dist(probs, lo=0):
    p = np.asarray(probs, dtype=float)
    return ExplicitDistribution(lo, p / p.sum())


def hist_of(samples):
    """Histogram of all the given samples, read back through a pool stream."""
    return SampleStream.from_samples(samples).draw_histogram(len(samples))


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        d = binomial_pmf(300, 0.4)
        a = SampleStream.from_distribution(d, seed=99).draw(5000)
        b = SampleStream.from_distribution(d, seed=99).draw(5000)
        np.testing.assert_array_equal(a, b)

    def test_different_split_different_sequence(self):
        d = binomial_pmf(300, 0.4)
        root = SampleStream.from_distribution(d, seed=99)
        a = root.split(0).draw(1000)
        b = root.split(1).draw(1000)
        assert not np.array_equal(a, b)

    def test_split_is_order_independent(self):
        d = binomial_pmf(50, 0.5)
        s1 = SampleStream.from_distribution(d, seed=5)
        s2 = SampleStream.from_distribution(d, seed=5)
        a = s1.split(3).draw(100)
        s2.split(1).draw(7)  # unrelated activity on another child
        b = s2.split(3).draw(100)
        np.testing.assert_array_equal(a, b)

    def test_histograms_replay(self):
        d = binomial_pmf(40, 0.2)
        h1 = SampleStream.from_distribution(d, seed=1).draw_histogram(10_000)
        h2 = SampleStream.from_distribution(d, seed=1).draw_histogram(10_000)
        np.testing.assert_array_equal(h1.counts, h2.counts)


class TestDrawBasics:
    def test_zero_draws(self):
        d = make_dist([1.0])
        assert SampleStream.from_distribution(d, seed=0).draw(0).size == 0

    def test_point_mass(self):
        d = ExplicitDistribution(7, np.array([1.0]))
        xs = SampleStream.from_distribution(d, seed=0).draw(5)
        np.testing.assert_array_equal(xs, [7, 7, 7, 7, 7])

    def test_clt_band_on_binomial(self):
        d = binomial_pmf(100, 0.5)
        xs = SampleStream.from_distribution(d, seed=21).draw(100_000)
        sigma = 5.0
        assert abs(xs.mean() - 50.0) < 4.0 * sigma / math.sqrt(100_000)

    def test_cursor_advances(self):
        d = binomial_pmf(10, 0.5)
        s = SampleStream.from_distribution(d, seed=0)
        s.draw(10)
        s.draw_histogram(20)
        assert s.samples_drawn == 30


class TestSamplerFidelity:
    @pytest.mark.parametrize("n, p, seed", [(100, 0.5, 1234), (30, 0.3, 77)])
    def test_draw_chi2(self, n, p, seed):
        d = binomial_pmf(n, p)
        xs = SampleStream.from_distribution(d, seed=seed).draw(200_000)
        counts = np.bincount(xs, minlength=n + 1)
        expected = 200_000 * d.probs
        mask = expected > 5
        chi2 = ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()
        p_value = 1.0 - stats.chi2.cdf(chi2, mask.sum() - 1)
        assert p_value > 1e-3

    @pytest.mark.parametrize("lo, seed", [(0, 3), (-7, 11), (40, 5)])
    def test_draw_bins_to_the_histogram_draw(self, lo, seed):
        d = make_dist(np.linspace(1.0, 3.0, 90), lo=lo)
        xs = SampleStream.from_distribution(d, seed=seed).draw(5000)
        hist = SampleStream.from_distribution(d, seed=seed).draw_histogram(5000)
        np.testing.assert_array_equal(np.bincount(xs - lo, minlength=90), hist.counts)

    def test_draw_from_a_support_past_2_to_the_20(self):
        m = (1 << 20) + 1
        d = make_dist(np.ones(m), lo=3)
        xs = SampleStream.from_distribution(d, seed=2).draw(1000)
        assert xs.size == 1000
        assert xs.min() >= 3 and xs.max() <= m + 2


class TestPoissonized:
    def test_point_mass_counts(self):
        d = ExplicitDistribution(0, np.array([1.0]))
        h = SampleStream.from_distribution(d, seed=3).draw_poissonized(10.0)
        assert (h.lo, h.hi) == (0, 0)

    def test_per_symbol_counts_are_poisson_and_independent(self):
        d = make_dist([0.5, 0.5])
        k = 100.0
        trials = 10_000
        c = np.empty((trials, 2))
        root = SampleStream.from_distribution(d, seed=77)
        for t in range(trials):
            c[t] = root.split(t).draw_poissonized(k).counts
        r = np.corrcoef(c[:, 0], c[:, 1])[0, 1]
        assert abs(r) < 0.05
        # chi2 GOF of K_0 against Poisson(50) at significance 1e-3
        lam = 50.0
        lo, hi = 25, 80
        cells = np.arange(lo, hi + 1)
        probs = np.concatenate(
            [
                [stats.poisson.cdf(lo - 1, lam)],
                stats.poisson.pmf(cells, lam),
                [1.0 - stats.poisson.cdf(hi, lam)],
            ]
        )
        obs = np.concatenate(
            [[(c[:, 0] < lo).sum()], [(c[:, 0] == v).sum() for v in cells], [(c[:, 0] > hi).sum()]]
        )
        chi2 = ((obs - trials * probs) ** 2 / (trials * probs)).sum()
        p_value = 1.0 - stats.chi2.cdf(chi2, len(probs) - 1)
        assert p_value > 1e-3

    def test_total_concentration_bound(self):
        # K <= 2k with frequency at least 1 - (e/4)^k.
        d = make_dist([0.3, 0.7])
        k = 10.0
        trials = 10_000
        root = SampleStream.from_distribution(d, seed=5)
        totals = np.array([root.split(t).draw_poissonized(k).total for t in range(trials)])
        freq = (totals <= 2 * k).mean()
        bound = 1.0 - (math.e / 4.0) ** k
        assert freq >= bound - 3.0 * math.sqrt(bound * (1 - bound) / trials) - 0.01


def halves_on_ends(n):
    probs = np.zeros(n + 1)
    probs[[0, n]] = 0.5
    return ExplicitDistribution(0, probs)


# Sources whose arrays carry zeros: at both ends, inside, or between two far points.
ZERO_ENDED = [binomial_pmf(10**4, 0.5), make_dist([0, 0, 1, 3, 0, 2, 0], lo=-2), halves_on_ends(10**4)]
ZERO_ENDED_IDS = ["binomial", "small", "halves"]


def reference_generator(seed, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def reference_counts(rng, k, d):
    """Multinomial counts of k draws over the whole array, as (lo, counts)."""
    return d.lo, rng.multinomial(k, d.probs / d.probs.sum())


def cut_to_observed(lo, counts):
    seen = np.flatnonzero(counts)
    return lo + int(seen[0]), counts[seen[0] : seen[-1] + 1]


class TestObservedRange:
    """Draws equal the multinomial over the source's whole array, cut to the samples seen."""

    @pytest.mark.parametrize("d", ZERO_ENDED, ids=ZERO_ENDED_IDS)
    @pytest.mark.parametrize("seed, index", [(3, 0), (11, 5)])
    def test_histogram_matches_whole_array_draw(self, d, seed, index):
        stream = SampleStream.from_distribution(d, seed=seed).split(index)
        rng = reference_generator(seed, (index,))
        for k in (1, 7, 5000, 5000):
            h = stream.draw_histogram(k)
            lo, counts = cut_to_observed(*reference_counts(rng, k, d))
            assert h.lo == lo
            np.testing.assert_array_equal(h.counts, counts)

    @pytest.mark.parametrize("d", ZERO_ENDED, ids=ZERO_ENDED_IDS)
    def test_draw_matches_whole_array_expand_and_permute(self, d):
        # Two draws in a row: equal second draws pin the generator state
        # the multinomial leaves behind.
        stream = SampleStream.from_distribution(d, seed=8).split(2)
        rng = reference_generator(8, (2,))
        for k in (3000, 1000):
            lo, counts = reference_counts(rng, k, d)
            xs = np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts)
            np.testing.assert_array_equal(stream.draw(k), rng.permutation(xs))

    @pytest.mark.parametrize("d", ZERO_ENDED, ids=ZERO_ENDED_IDS)
    def test_poissonized_matches_whole_array_draw(self, d):
        stream = SampleStream.from_distribution(d, seed=4)
        rng = reference_generator(4, ())
        for k in (2.5, 800.0):
            h = stream.draw_poissonized(k)
            lo, counts = cut_to_observed(*reference_counts(rng, int(rng.poisson(k)), d))
            assert h.total == counts.sum()
            assert h.lo == lo
            np.testing.assert_array_equal(h.counts, counts)

    def test_counts_end_on_samples(self):
        pools = [[4, 4, 9, 6] * 5, [0] * 20, list(range(0, 40, 3)) * 2]
        streams = [SampleStream.from_distribution(d, seed=6) for d in ZERO_ENDED]
        streams += [SampleStream.from_samples(xs) for xs in pools]
        for stream in streams:
            for h in (stream.draw_histogram(1), stream.split(1).draw_poissonized(3.0)):
                if h.total > 0:
                    assert h.counts[0] > 0 and h.counts[-1] > 0
        for stream in streams[:3]:
            for k in (2, 50, 4000):
                h = stream.draw_histogram(k)
                assert h.counts[0] > 0 and h.counts[-1] > 0

    @pytest.mark.parametrize("d", ZERO_ENDED, ids=ZERO_ENDED_IDS)
    def test_zero_draw_is_one_zero_bin(self, d):
        h = SampleStream.from_distribution(d, seed=1).draw_histogram(0)
        assert h.total == 0
        np.testing.assert_array_equal(h.counts, [0])

    def test_no_mass_to_sample(self):
        d = ExplicitDistribution(0, np.zeros(4), tail_slack=1.0)
        with pytest.raises(ValueError, match="no mass to sample"):
            SampleStream.from_distribution(d, seed=0)


class TestCapped:
    def test_refuses_poisson_total_before_drawing(self):
        d = make_dist([0.3, 0.7])
        free = SampleStream.from_distribution(d, seed=5).draw_poissonized(100.0)
        root = SampleStream.from_distribution(d, seed=5)
        capped = root.capped(free.total - 1)
        with pytest.raises(StreamExhausted, match="cap"):
            capped.draw_poissonized(100.0)
        assert capped.samples_drawn == root.samples_drawn == 0

    def test_fitting_draw_matches_uncapped(self):
        d = make_dist([0.3, 0.7])
        free = SampleStream.from_distribution(d, seed=5).draw_poissonized(100.0)
        fits = SampleStream.from_distribution(d, seed=5).capped(free.total).draw_poissonized(100.0)
        np.testing.assert_array_equal(fits.counts, free.counts)
        d = binomial_pmf(100, 0.5)
        free_xs = SampleStream.from_distribution(d, seed=8).split(2).draw(50)
        capped_xs = SampleStream.from_distribution(d, seed=8).capped(50).split(2).draw(50)
        np.testing.assert_array_equal(capped_xs, free_xs)

    def test_splits_share_the_cap(self):
        root = SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        capped = root.capped(10)
        a, b = capped.split(0), capped.split(1)
        a.draw_histogram(6)
        with pytest.raises(StreamExhausted, match="cap"):
            b.draw_histogram(5)
        b.split(3).draw_histogram(4)
        assert root.samples_drawn == capped.samples_drawn == 10
        with pytest.raises(StreamExhausted, match="cap"):
            a.draw(1)
        # A second cap never loosens the first.
        with pytest.raises(StreamExhausted, match="cap"):
            capped.capped(100).draw(1)
        assert root.draw(5).size == 5  # the uncapped stream is not limited

    def test_continues_where_the_stream_left_off(self):
        pool = SampleStream.from_samples(np.arange(10), seed=0)
        pool.draw(3)
        capped = pool.capped(4)
        np.testing.assert_array_equal(capped.split(0).draw(2), [3, 4])
        np.testing.assert_array_equal(capped.draw(2), [5, 6])
        with pytest.raises(StreamExhausted, match="cap"):
            capped.draw(1)
        np.testing.assert_array_equal(pool.draw(3), [7, 8, 9])
        d = binomial_pmf(100, 0.5)
        twin = SampleStream.from_distribution(d, seed=4)
        twin.draw(4)
        s = SampleStream.from_distribution(d, seed=4)
        s.draw(4)
        np.testing.assert_array_equal(s.capped(6).draw(6), twin.draw(6))

    def test_view_taken_before_any_draw_shares_the_generator(self):
        d = binomial_pmf(100, 0.5)
        twin = SampleStream.from_distribution(d, seed=4, spawn_key=(1, 2))
        s = SampleStream.from_distribution(d, seed=4, spawn_key=(1, 2))
        view = s.capped(10)
        got = np.concatenate([view.draw(3), s.draw(3)])
        np.testing.assert_array_equal(got, np.concatenate([twin.draw(3), twin.draw(3)]))
        assert s.samples_drawn == view.samples_drawn == 6

    def test_view_splits_match_an_uncapped_twin(self):
        d = binomial_pmf(100, 0.5)
        twin = SampleStream.from_distribution(d, seed=6, spawn_key=(3,))
        view = SampleStream.from_distribution(d, seed=6, spawn_key=(3,)).capped(100)
        for i in (0, 1, 2):
            np.testing.assert_array_equal(view.split(i).draw(20), twin.split(i).draw(20))
        view.draw(5)
        np.testing.assert_array_equal(view.split(4).draw(20), twin.split(4).draw(20))

    def test_negative_budget_is_refused(self):
        root = SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            root.capped(-5)
        assert root.capped(0).samples_drawn == 0


class TestHistogram:
    def test_moments_match_numpy(self):
        xs = np.array([0, 0, 1, 3, 3, 3])
        h = SampleHistogram(0, np.bincount(xs))
        mu, var = h.moments()
        assert mu == pytest.approx(xs.mean())
        assert var == pytest.approx(xs.var(ddof=1))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([], "counts must be a 1-D array with at least one entry"),
            ([[1, 2]], "counts must be a 1-D array with at least one entry"),
            ([3, -1], "counts must be nonnegative"),
        ],
    )
    def test_rejects_malformed_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            SampleHistogram(0, np.array(counts, dtype=np.int64))

    def test_zero_samples_have_no_moments(self):
        with pytest.raises(ValueError, match="empty histogram has no moments"):
            hist_of([]).moments()

    def test_to_empirical(self):
        h = SampleHistogram(2, np.array([2, 0, 2]))
        emp = h.to_empirical()
        assert emp.lo == 2
        np.testing.assert_allclose(emp.probs, [0.5, 0.0, 0.5])


class TestEmpiricalDistribution:
    def test_small_example(self):
        emp = hist_of([0, 0, 1]).to_empirical()
        np.testing.assert_allclose(emp.probs, [2 / 3, 1 / 3])

    def test_constant_samples(self):
        emp = hist_of([5, 5, 5]).to_empirical()
        assert emp.lo == 5 and emp.probs[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            hist_of([]).to_empirical()

    def test_learning_rate_on_uniform(self):
        # ceil(10 m / eps^2) samples put the empirical within eps, here with
        # a large margin; the tight 99% rate check lives in acceptance.
        m, eps = 100, 0.1
        d = make_dist(np.ones(m))
        k = math.ceil(10 * m / eps**2)
        root = SampleStream.from_distribution(d, seed=31)
        for t in range(20):
            hist = root.split(t).draw_histogram(k)
            assert tv_distance(hist.to_empirical(), d) <= eps


class TestExternalPool:
    def test_pool_rounds_and_exhaustion(self):
        s = SampleStream.from_samples(np.arange(10), seed=0)
        np.testing.assert_array_equal(s.draw(4), [0, 1, 2, 3])
        np.testing.assert_array_equal(s.draw(3), [4, 5, 6])
        with pytest.raises(StreamExhausted):
            s.draw(4)

    def test_splits_share_cursor(self):
        s = SampleStream.from_samples(np.arange(10), seed=0)
        a = s.split(0)
        b = s.split(1)
        np.testing.assert_array_equal(a.draw(3), [0, 1, 2])
        np.testing.assert_array_equal(b.draw(3), [3, 4, 5])

    def test_pool_histogram(self):
        s = SampleStream.from_samples([4, 4, 5, 6], seed=0)
        h = s.draw_histogram(4)
        assert h.lo == 4
        np.testing.assert_array_equal(h.counts, [2, 1, 1])

    def test_pool_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="sample pool must be 1-D"):
            SampleStream.from_samples([[1, 2], [3, 4]])

    def test_pool_wider_than_max_width_is_refused(self):
        # Its histograms would span every point from the smallest sample to
        # the largest: at 0 and 2^33 that is 64 GiB of counts.
        SampleStream.from_samples([5, 5 + MAX_WIDTH - 1])
        for top in (MAX_WIDTH, 2**33):
            with pytest.raises(ValueError, match=rf"spans \[0, {top}\], too wide to count"):
                SampleStream.from_samples([0, top])

    @pytest.mark.parametrize(
        "draw, k",
        [("draw", -1), ("draw_histogram", -1), ("draw_poissonized", 0.0),
         ("draw_poissonized", -1.0)],
    )
    def test_draw_sizes_out_of_range_are_refused(self, draw, k):
        s = SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        with pytest.raises(ValueError, match="k must be"):
            getattr(s, draw)(k)
        assert s.samples_drawn == 0


def assert_support(stream, lo, hi):
    """``require_within`` accepts [0, hi] and, refusing [0, hi - 1], names [lo, hi]."""
    stream.require_within(hi)
    with pytest.raises(ValueError, match=rf"its support is \[{lo}, {hi}\]$"):
        stream.require_within(hi - 1)


class TestSupport:
    def test_distribution_support_is_its_nonzero_mass(self):
        root = SampleStream.from_distribution(make_dist([0, 0, 1, 3, 0, 2, 0], lo=-2), seed=0)
        assert_support(root, 0, 3)
        # Splits and capped views carry the root's support.
        assert_support(root.split(4).split(1), 0, 3)
        assert_support(root.capped(10), 0, 3)

    def test_pool_support_is_its_range(self):
        assert_support(SampleStream.from_samples([7, 2, 9, 2]).split(0), 2, 9)
        # An empty pool draws nothing, so no range refuses it.
        SampleStream.from_samples([]).require_within(-1)

    def test_negative_pool_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SampleStream.from_samples([3, -1, 4])

    @pytest.mark.parametrize("bad", [1.7, 0.5, np.nan, np.inf])
    def test_non_integral_pool_refused(self, bad):
        with pytest.raises(ValueError, match=f"holds {bad}; samples must be integers"):
            SampleStream.from_samples([1.0, 2.0, bad, 2.9])

    def test_integral_pools_accepted(self):
        for pool in ([1.0, 2.0, 2.0], np.array([1, 2, 2], dtype=np.int32), [1, 2, 2]):
            stream = SampleStream.from_samples(pool)
            assert_support(stream, 1, 2)
            np.testing.assert_array_equal(stream.draw(3), [1, 2, 2])

    @pytest.mark.parametrize("n, ok", [(3, True), (10, True), (2, False)])
    def test_require_within(self, n, ok):
        root = SampleStream.from_distribution(make_dist([0, 1, 1, 1]), seed=0)
        if ok:
            root.require_within(n)
        else:
            with pytest.raises(ValueError, match=r"outside \[0, 2\]: its support is \[1, 3\]"):
                root.require_within(n)

    def test_negative_support_fails_require_within(self):
        root = SampleStream.from_distribution(make_dist([1, 1], lo=-1), seed=0)
        with pytest.raises(ValueError, match=r"outside \[0, 5\]"):
            root.require_within(5)
