"""Unit tests for seeded sampling, histograms and empirical distributions."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from pbdtest.distributions import (
    MAX_WIDTH,
    ExplicitDistribution,
    PerturbedBinomial,
    binomial_pmf,
    construct_perturbed_binomial,
    tv_distance,
)
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


class TestSampleCountsAreIntegers:
    """A draw of a count that is not a nonnegative integer is refused before
    anything is counted, so the shared count stays an int that equals the
    samples drawn."""

    BAD = [2.5, 2.0, True, np.float64(3.0), "3", None, -1]

    def streams(self):
        yield SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        yield SampleStream.from_samples(np.arange(10) % 4)

    @pytest.mark.parametrize("k", BAD)
    def test_every_draw_refuses_before_counting(self, k):
        for stream in self.streams():
            for draw in (stream.draw, stream.draw_histogram):
                with pytest.raises(ValueError, match="nonnegative integer"):
                    draw(k)
            assert stream.samples_drawn == 0 and type(stream.samples_drawn) is int

    def test_numpy_integers_are_counts(self):
        for stream in self.streams():
            assert stream.draw_histogram(np.int64(3)).total == 3
            assert len(stream.draw(np.int32(2))) == 2
            assert type(stream.samples_drawn) is int and stream.samples_drawn == 5

    @pytest.mark.parametrize("rate", [True, np.nan, np.inf, 0, -1, "3", None])
    def test_poissonized_draw_refuses_a_rate_that_is_not_positive_and_finite(self, rate):
        # At True numpy would draw at rate 1, and at NaN or inf it would
        # raise an error that does not name the rate.
        for stream in self.streams():
            with pytest.raises(ValueError, match=rf"k must be a positive finite rate, got {rate!r}$"):
                stream.draw_poissonized(rate)
            assert stream.samples_drawn == 0

    def test_poissonized_draw_takes_any_positive_real_rate(self):
        for stream in self.streams():
            for rate in (2, 1.5, np.float64(2.0), np.int64(1)):
                stream.split(0).draw_poissonized(rate)
            assert type(stream.samples_drawn) is int


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


def lead_with_zeros():
    """A law summing to exactly 1.0 whose lead below 2^-54 holds zeros
    between points from 1e-300 to 4e-17."""
    lead = [1e-300, 0.0, 30 * 2.0**-63, 0.0, 0.0, 2e-18, 0.0, 2.0**-54, 0.0, 4e-17]
    return ExplicitDistribution(-4, np.array(lead + [0.25, 0.0, 0.75]))


def binomial_on_even_points(n):
    """2 X for X ~ Binomial(n, 1/2), on [0, 2 n + 1]: zeros between every two
    points with mass and one after the last."""
    probs = np.zeros(2 * n + 2)
    probs[::2] = binomial_pmf(n, 0.5).probs
    return ExplicitDistribution(0, probs)


def c8_member():
    z = 2 * np.random.Generator(np.random.Philox(12)).integers(0, 2, 2048) - 1
    return construct_perturbed_binomial(PerturbedBinomial(4096, 8.0, 0.1, z))


# Laws with a long lead below 2^-54, and laws with none (Binomial(50, 0.1), the halves).
LEADS = [
    binomial_pmf(10**4, 0.5),
    binomial_pmf(10**4, 0.3),
    binomial_pmf(4096, 0.5),
    c8_member(),
    binomial_pmf(50, 0.1),
    halves_on_ends(10**4),
    lead_with_zeros(),
    # Drawn, 2^-52 lowers the rest below 1.0, and numpy then draws the next
    # point, 0.5 / rest > 1/2, by its mirror: skipping it would change the counts.
    make_dist([2.0**-52, 0.5, 0.5 - 2.0**-52]),
    # Zeros inside the mass, which a stream drops from its law: a lattice law
    # on the even points (a trailing zero after its last point), a last point
    # after a run of zeros, and mass ending on the array's last entry.
    binomial_on_even_points(200),
    make_dist([0, 3, 1, 4, 0, 0, 0, 0, 0, 2, 0, 0], lo=5),
    make_dist([1, 0, 2, 0, 0, 7, 1e-17, 0, 3]),
]
LEAD_IDS = [
    "binomial-1e4", "binomial-1e4-0.3", "binomial-4096", "member-c8", "binomial-50", "halves",
    "zeros-in-lead", "light-point-drawn", "even-lattice", "last-after-zeros", "mass-at-end",
]


class TestNegligibleLead:
    """A stream skips its source's lead of categories too light to be drawn,
    and every draw still equals the multinomial on the whole normalised law,
    as does the generator's next draw."""

    @pytest.mark.parametrize("d", LEADS, ids=LEAD_IDS)
    def test_draws_equal_the_whole_law_draw(self, d):
        for seed in range(40):
            stream = SampleStream.from_distribution(d, seed=seed, spawn_key=(5,))
            rng = reference_generator(seed, (5,))
            for k in (1, 2, 5, 100, 20_823, 233_000):
                h = stream.draw_histogram(k)
                lo, counts = cut_to_observed(*reference_counts(rng, k, d))
                assert (h.lo, h.counts.tolist()) == (lo, counts.tolist())
                h = stream.draw_poissonized(float(k))
                total = int(rng.poisson(k))
                lo, counts = (0, [0]) if total == 0 else cut_to_observed(
                    *reference_counts(rng, total, d)
                )
                assert (h.lo, h.counts.tolist()) == (lo, list(counts))
                if k > 10**5 and seed >= 5:
                    continue  # the expand-and-permute of 233,000 samples costs 9 ms a side
                lo, counts = reference_counts(rng, k, d)
                xs = np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts)
                np.testing.assert_array_equal(stream.draw(k), rng.permutation(xs))
            # The state each draw leaves is pinned by the next one; this pins the last.
            lo, counts = cut_to_observed(*reference_counts(rng, 7, d))
            h = stream.draw_histogram(7)
            assert (h.lo, h.counts.tolist()) == (lo, counts.tolist())

    def test_draws_of_10_to_the_18_equal_the_whole_law_draw(self):
        # At 10^18 samples only the 1e-300 point is negligible: the 2^-54
        # and 4e-17 points get dozens of samples and the lighter ones a few.
        d = lead_with_zeros()
        for seed in range(10):
            stream = SampleStream.from_distribution(d, seed=seed)
            rng = reference_generator(seed, ())
            h = stream.draw_histogram(10**18)
            lo, counts = cut_to_observed(*reference_counts(rng, 10**18, d))
            assert (h.lo, h.counts.tolist()) == (lo, counts.tolist())
            h = stream.draw_poissonized(1e18)
            lo, counts = cut_to_observed(*reference_counts(rng, int(rng.poisson(1e18)), d))
            assert (h.lo, h.counts.tolist()) == (lo, counts.tolist())


def coarsened(hist, a, b):
    """``hist`` coarsened to [a, b]: its counts there and the count of the rest."""
    inside = np.array([hist.counts[x - hist.lo] if hist.lo <= x <= hist.hi else 0
                       for x in range(a, b + 1)], dtype=np.int64)
    return inside, hist.total - int(inside.sum())


def fit_p_value(draws, law, cells=10):
    """Chi-square p-value of ``draws`` against the frozen scipy law ``law``, on
    cells cut at its deciles, so that no cell is nearly empty."""
    edges = np.unique(law.ppf(np.linspace(0.0, 1.0, cells + 1)[1:-1]))
    probs = np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
    # Cell i holds the draws in (edges[i - 1], edges[i]]; the last, those above edges[-1].
    observed = np.bincount(np.searchsorted(edges, draws), minlength=len(probs))
    expected = len(draws) * probs
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi2, len(probs) - 1))


class TestCoarsePoissonized:
    """``draw_poissonized(k, within=(a, b))``: a Poisson(k) total, then the
    counts of that many samples on [a, b] and the count outside it."""

    # sha256 of the draws in ``test_full_draws_are_unchanged``, taken before
    # ``within`` was added: the full Poissonized draw must not move.
    FULL_DRAWS_SHA256 = "c3cf821d834cdae043dde02cec2b18cfbb668af8dd459d663546bcebb593899d"

    POOL = np.array([12, 15, 15, 20, 31, 40, 12, 18, 25, 25, 40, 39, 16, 12, 33] * 10)
    # Inside the pool's range [12, 40], straddling either end, covering it,
    # and wholly below or above it.
    INTERVALS = [(15, 25), (16, 16), (0, 14), (38, 60), (5, 50), (0, 11), (41, 45)]

    def test_full_draws_are_unchanged(self):
        digest = hashlib.sha256()
        for d in ZERO_ENDED:
            root = SampleStream.from_distribution(d, seed=29)
            for t, k in enumerate((1.0, 37.5, 1000.0, 233_000.0)):
                h = root.split(t).draw_poissonized(k)
                digest.update(np.array([h.lo, h.outside], dtype=np.int64).tobytes())
                digest.update(h.counts.tobytes())
        assert digest.hexdigest() == self.FULL_DRAWS_SHA256

    @pytest.mark.parametrize("a, b", INTERVALS)
    def test_pool_draw_is_the_full_histogram_coarsened(self, a, b):
        # Twin pools on one seed draw the same totals and hand out the same
        # samples, so the coarse draw is the full one coarsened.
        full = SampleStream.from_samples(self.POOL, seed=7)
        coarse = SampleStream.from_samples(self.POOL, seed=7)
        for k in (0.5, 1.0, 7.0, 20.0, 17.0):
            drawn = coarse.samples_drawn
            h = coarse.draw_poissonized(k, within=(a, b))
            assert coarse.samples_drawn == drawn + h.total
            inside, outside = coarsened(full.draw_poissonized(k), a, b)
            assert (h.lo, h.hi) == (a, b) and full.samples_drawn == coarse.samples_drawn
            np.testing.assert_array_equal(h.counts, inside)
            assert h.outside == outside

    @pytest.mark.parametrize("d", LEADS, ids=LEAD_IDS)
    def test_draw_is_a_poisson_total_then_the_coarse_multinomial(self, d):
        # Bit for bit: K from the stream's generator, then the multinomial on
        # the source's normalised values on [a, b] and 0.0 for the lump, which
        # numpy gives the remainder; also for intervals that reach past either
        # end of the source's array.
        probs = d.probs / d.probs.sum()
        mid = (d.lo + d.hi) // 2
        for a, b in [(d.lo, d.hi), (d.lo - 3, d.lo + 2), (d.hi - 2, d.hi + 5),
                     (mid - 5, mid + 5), (d.hi + 1, d.hi + 4)]:
            stream = SampleStream.from_distribution(d, seed=17, spawn_key=(3,))
            rng = reference_generator(17, (3,))
            p = np.array([probs[x - d.lo] if d.lo <= x <= d.hi else 0.0 for x in range(a, b + 1)])
            total = 0
            for k in (0.5, 1000.0, 233_000.0):
                h = stream.draw_poissonized(k, within=(a, b))
                counts = rng.multinomial(int(rng.poisson(k)), np.append(p, 0.0))
                assert (h.lo, h.counts.tolist(), h.outside) == (a, counts[:-1].tolist(), counts[-1])
                total += h.total
            assert stream.samples_drawn == total

    # (source, interval, points whose counts are checked): Binomial(10^4, 1/2)
    # around its mode; a law on the even points, whose stream keeps only its
    # points with mass (a zero at 201); a law with zeros inside on an interval
    # past its support, and one on an interval that starts below it.
    LAW_CASES = [
        (binomial_pmf(10**4, 0.5), (4950, 5050), (4950, 5000, 5037)),
        (binomial_on_even_points(200), (190, 215), (200, 201, 210)),
        (make_dist([0, 3, 1, 4, 0, 0, 0, 0, 0, 2, 0, 0], lo=5), (10, 20), (14, 15, 20)),
        (make_dist([1, 2, 3, 4], lo=10), (5, 11), (5, 10, 11)),
    ]

    @pytest.mark.parametrize("d, interval, points", LAW_CASES,
                             ids=["binomial", "even-lattice", "past-support", "below-support"])
    def test_counts_are_poisson_at_k_times_the_mass(self, d, interval, points):
        # Each count is Poisson(k p): p the source's mass at the point, or off
        # the interval for ``outside``.  Over 1000 seeded draws, each count's
        # chi-square p-value must exceed 1e-4, and its mean must lie within 4
        # standard errors of k p (a Poisson count's variance is its mean).
        a, b = interval
        k, trials = 1000.0, 1000
        mass = {x: float(d.probs[x - d.lo]) if d.lo <= x <= d.hi else 0.0 for x in range(a, b + 1)}
        root = SampleStream.from_distribution(d, seed=23)
        draws = [root.split(t).draw_poissonized(k, within=interval) for t in range(trials)]
        assert all(h.lo == a and h.hi == b for h in draws)
        assert root.samples_drawn == sum(h.total for h in draws)
        counts = [(np.array([h.counts[x - a] for h in draws]), mass[x]) for x in points]
        counts.append((np.array([h.outside for h in draws]), 1.0 - sum(mass.values())))
        for observed, p in counts:
            if p <= 1e-15:
                assert not observed.any()
                continue
            assert abs(observed.mean() - k * p) <= 4.0 * math.sqrt(k * p / trials), p
            assert fit_p_value(observed, stats.poisson(k * p)) > 1e-4, p

    @pytest.mark.parametrize("pooled", [False, True])
    def test_refusals_draw_and_count_nothing(self, pooled):
        def fresh():
            if pooled:
                return SampleStream.from_samples(np.arange(100) % 60, seed=3)
            return SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=3)

        s = fresh()
        for within, match in [((50, 49), r"interval \[50, 49\] is empty"),
                              ((0, MAX_WIDTH), "too wide to count")]:
            with pytest.raises(ValueError, match=match):
                s.draw_poissonized(10.0, within=within)
        assert s.samples_drawn == 0
        # Nothing was drawn either, not even the total: the next draw is a
        # fresh stream's first.
        h = s.draw_poissonized(10.0, within=(40, 60))
        twin = fresh().draw_poissonized(10.0, within=(40, 60))
        assert (h.counts.tolist(), h.outside) == (twin.counts.tolist(), twin.outside)
        if pooled:  # a pool hands out its next K samples, coarsened
            inside, outside = coarsened(fresh().draw_histogram(h.total), 40, 60)
            assert (h.counts.tolist(), h.outside) == (inside.tolist(), outside)
        # A total past the cap is refused before any sample is counted.
        capped = fresh().capped(h.total - 1)
        with pytest.raises(StreamExhausted, match=f"need {h.total}, have {h.total - 1} left"):
            capped.draw_poissonized(10.0, within=(40, 60))
        assert capped.samples_drawn == 0


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
        # So is any budget that is not an integer; a NaN one used to cap nothing.
        root = SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0)
        for budget in (-5, math.nan, math.inf, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="sample budget must be a nonnegative integer"):
                root.capped(budget)
        assert root.capped(np.int64(4)).capped(0).samples_drawn == 0


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

    def test_outside_counts_in_the_total(self):
        h = SampleHistogram(2, np.array([2, 0, 2]), 5)
        assert (h.total, h.outside, h.hi) == (9, 5, 4)
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            SampleHistogram(2, np.array([2, 0, 2]), -1)

    # A coarse histogram's counts are a window of the sample: a full-histogram
    # reader (the learner, the moment stage, ``pbdtest stat``) cannot take it.
    def test_coarse_histogram_has_no_moments(self):
        h = SampleHistogram(0, np.array([0, 1, 2, 0]), 1)
        with pytest.raises(ValueError, match=r"coarse histogram \(1 samples outside\) has no moments"):
            h.moments()

    def test_coarse_histogram_has_no_empirical_law(self):
        h = SampleStream.from_distribution(binomial_pmf(100, 0.5), seed=2).draw_poissonized(
            50.0, within=(50, 50)
        )
        assert h.outside > 0
        with pytest.raises(ValueError, match="has no empirical distribution"):
            h.to_empirical()

    def test_coarse_histogram_with_nothing_outside_is_full(self):
        h = SampleHistogram(0, np.array([0, 1, 2, 1]))
        assert h.moments() == hist_of([1, 2, 2, 3]).moments()
        np.testing.assert_array_equal(h.to_empirical().probs, [0.0, 0.25, 0.5, 0.25])


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

    def test_draw_past_the_width_limit_is_refused(self):
        for s in (SampleStream.from_distribution(binomial_pmf(10, 0.5), seed=0),
                  SampleStream.from_samples(np.zeros(3, dtype=np.int64))):
            with pytest.raises(ValueError, match=rf"too many to hold; the limit is {MAX_WIDTH}$"):
                s.draw(MAX_WIDTH + 1)
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
