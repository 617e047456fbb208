"""JSON distribution-spec format shared by the library and the CLI.

A spec is a plain dict with a ``kind`` field::

    {"kind": "pbd", "ps": [0.1, 0.5, ...]}
    {"kind": "binomial", "n": 100, "p": 0.5}
    {"kind": "tp", "mu": 12.5, "sigma2": 9.0}
    {"kind": "explicit", "lo": 0, "probs": [...]}
    {"kind": "perturbed_binomial", "n": 8, "c": 1.0, "eps": 0.2, "z": [1, -1, ...]}

Each kind takes exactly the fields shown (an explicit spec's ``lo``
defaults to 0).  ``realize`` validates a spec and turns it into an
ExplicitDistribution: it checks each list field in one numpy pass and
builds the kind's object (``Pbd``, ``PerturbedBinomial``, ...) once,
then the law from that object.  ``explicit_spec`` writes a law back as a
spec.
"""

from __future__ import annotations

import numbers

import numpy as np

from .distributions import (
    ExplicitDistribution,
    Pbd,
    PerturbedBinomial,
    TranslatedPoissonParams,
    binomial_pmf,
    construct_perturbed_binomial,
    pbd_pmf,
    translated_poisson_pmf,
)

__all__ = ["KINDS", "realize", "explicit_spec"]

# The fields each kind takes besides ``kind``.
_FIELDS = {
    "pbd": ("ps",),
    "binomial": ("n", "p"),
    "tp": ("mu", "sigma2"),
    "explicit": ("lo", "probs"),
    "perturbed_binomial": ("n", "c", "eps", "z"),
}
KINDS = tuple(_FIELDS)


def _required(obj: dict, name: str):
    if name not in obj:
        raise ValueError(f"{obj['kind']} spec is missing field {name!r}")
    return obj[name]


def _field(obj: dict, name: str, integer: bool = False, default=None):
    """A JSON number as float (int when ``integer``); errors name the field."""
    if name not in obj and default is not None:
        return default
    value = _required(obj, name)
    want = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, want):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"spec field {name!r} must be {kind}, got {type(value).__name__}")
    return int(value) if integer else float(value)


def _list_field(obj: dict, name: str, integer: bool = False) -> np.ndarray:
    """A JSON list of numbers as an array, checked in one numpy pass.

    A pbd spec can hold 10^5 entries.
    """
    values = _required(obj, name)
    try:
        arr = np.asarray(values) if isinstance(values, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in ("iu" if integer else "iuf"):
        kind = "integers" if integer else "numbers"
        raise ValueError(f"spec field {name!r} must be a list of {kind}")
    return arr if integer else arr.astype(float, copy=False)


def realize(obj: dict) -> ExplicitDistribution:
    """Turn a spec into an ExplicitDistribution (pbd and tp drop at most 1e-9 mass).

    A missing field, one of the wrong JSON type, or one the kind does not
    define raises ``ValueError`` naming the field.
    """
    if not isinstance(obj, dict):
        raise ValueError("distribution spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}; expected one of {KINDS}")
    stray = [name for name in obj if name != "kind" and name not in _FIELDS[kind]]
    if stray:
        raise ValueError(f"{kind} spec has unknown field(s) {', '.join(map(repr, stray))}")
    if kind == "pbd":
        return pbd_pmf(Pbd(_list_field(obj, "ps")), tail_cut=1e-9)
    if kind == "binomial":
        n = _field(obj, "n", integer=True)
        p = _field(obj, "p")
        if n < 0 or not 0.0 <= p <= 1.0:
            raise ValueError("binomial spec requires n >= 0 and p in [0, 1]")
        return binomial_pmf(n, p)
    if kind == "tp":
        tp = TranslatedPoissonParams(_field(obj, "mu"), _field(obj, "sigma2"))
        return translated_poisson_pmf(tp, tail_cut=1e-9)
    if kind == "explicit":
        lo = _field(obj, "lo", integer=True, default=0)
        return ExplicitDistribution(lo, _list_field(obj, "probs"))
    # perturbed_binomial
    n = _field(obj, "n", integer=True)
    z = _list_field(obj, "z", integer=True)
    pb = PerturbedBinomial(n, _field(obj, "c"), _field(obj, "eps"), z)
    return construct_perturbed_binomial(pb)


def explicit_spec(dist: ExplicitDistribution) -> dict:
    """Spec dict for an explicit distribution (drops tail_slack; it is mass, not shape)."""
    probs = (dist.probs / dist.probs.sum()).tolist()
    return {"kind": "explicit", "lo": dist.lo, "probs": probs}
