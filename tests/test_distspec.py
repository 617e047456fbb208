"""Validation and realization tests for the JSON distribution-spec format."""

import numpy as np
import pytest

from pbdtest import distspec
from pbdtest.distributions import (
    Pbd,
    TranslatedPoissonParams,
    binomial_pmf,
    pbd_pmf,
    translated_poisson_pmf,
    tv_distance,
)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            distspec.realize({"kind": "gaussian"})

    def test_pbd_validation(self):
        with pytest.raises(ValueError):
            distspec.realize({"kind": "pbd", "ps": [0.5, 1.5]})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "pbd"}, "ps"),
            ({"kind": "pbd", "ps": 5}, "ps"),
            ({"kind": "pbd", "ps": [0.5, "x"]}, "ps"),
            ({"kind": "binomial", "n": 10}, "p"),
            ({"kind": "binomial", "n": "10", "p": 0.5}, "n"),
            ({"kind": "binomial", "n": 10.5, "p": 0.5}, "n"),
            ({"kind": "binomial", "n": True, "p": 0.5}, "n"),
            ({"kind": "tp", "mu": 5}, "sigma2"),
            ({"kind": "tp", "mu": None, "sigma2": 9.0}, "mu"),
            ({"kind": "explicit", "lo": 0}, "probs"),
            ({"kind": "explicit", "lo": 0.5, "probs": [1.0]}, "lo"),
            ({"kind": "explicit", "probs": [1.0], "overflow": [0.0]}, "overflow"),
            ({"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5}, "z"),
            ({"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [1.0, -1]}, "z"),
            ({"kind": "perturbed_binomial", "n": 4, "eps": 0.5, "z": [1, -1]}, "c"),
            ({"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [300, -1]}, "z"),
            ({"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [0, -1]}, "z"),
            # A field the kind does not define.
            ({"kind": "pbd", "ps": [0.5], "n": 1}, "n"),
            ({"kind": "binomial", "n": 10, "p": 0.5, "P": 0.9}, "P"),
            ({"kind": "tp", "mu": 5.0, "sigma2": 4.0, "lo": 0}, "lo"),
            ({"kind": "explicit", "Lo": 5, "probs": [1.0]}, "Lo"),
            (
                {"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [1, -1],
                 "p": 0.5},
                "p",
            ),
        ],
    )
    def test_missing_or_mistyped_field_named(self, spec, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            distspec.realize(spec)

    @pytest.mark.parametrize(
        "ps, message",
        [
            ([0.5, float("nan")], r"all p_i must lie in \[0, 1\]"),
            ([0.5, 1.5], r"all p_i must lie in \[0, 1\]"),
            ([-0.1], r"all p_i must lie in \[0, 1\]"),
            ([[0.1], [0.2, 0.3]], "spec field 'ps' must be a list of numbers"),
            ([True, False], "spec field 'ps' must be a list of numbers"),
        ],
    )
    def test_bad_ps_messages(self, ps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            distspec.realize({"kind": "pbd", "ps": ps})


class TestRealize:
    def test_binomial(self):
        d = distspec.realize({"kind": "binomial", "n": 6, "p": 0.5})
        assert tv_distance(d, binomial_pmf(6, 0.5)) == 0.0

    def test_pbd(self):
        d = distspec.realize({"kind": "pbd", "ps": [0.5, 0.5]})
        np.testing.assert_allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_pbd_realized_at_fixed_tail_cut(self):
        ps = [0.02 * (i % 40) + 0.1 for i in range(200)]
        # Integer entries too, as JSON writes certain coins.
        with_ints = [i % 2 if i % 7 == 0 else p for i, p in enumerate(ps)]
        for coins in (ps, with_ints):
            d = distspec.realize({"kind": "pbd", "ps": coins})
            ref = pbd_pmf(Pbd(np.array(coins)), tail_cut=1e-9)
            assert (d.lo, d.tail_slack) == (ref.lo, ref.tail_slack)
            np.testing.assert_array_equal(d.probs, ref.probs)
        with pytest.raises(TypeError):
            distspec.realize({"kind": "pbd", "ps": ps}, tail_cut=1e-6)

    def test_tp_realized_at_fixed_tail_cut(self):
        d = distspec.realize({"kind": "tp", "mu": 12.5, "sigma2": 9.0})
        ref = translated_poisson_pmf(TranslatedPoissonParams(12.5, 9.0), tail_cut=1e-9)
        assert (d.lo, d.tail_slack) == (ref.lo, ref.tail_slack)
        np.testing.assert_array_equal(d.probs, ref.probs)

    def test_perturbed(self):
        d = distspec.realize(
            {"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [1, -1]}
        )
        assert d.probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("Pbd", {"kind": "pbd", "ps": [0.1, 0.5, 0.9]}),
            (
                "PerturbedBinomial",
                {"kind": "perturbed_binomial", "n": 4, "c": 1.0, "eps": 0.5, "z": [1, -1]},
            ),
        ],
    )
    def test_builds_each_object_once(self, monkeypatch, name, spec):
        """``realize`` validates a spec by building its object, then uses that object."""
        built = []

        class Counting(getattr(distspec, name)):
            def __post_init__(self):
                built.append(name)
                super().__post_init__()

        monkeypatch.setattr(distspec, name, Counting)
        distspec.realize(spec)
        assert built == [name]

    def test_explicit_spec_of_distribution(self):
        d = binomial_pmf(5, 0.3)
        spec = distspec.explicit_spec(d)
        back = distspec.realize(spec)
        assert tv_distance(back, d) <= 1e-12
