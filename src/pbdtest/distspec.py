"""JSON distribution-spec format shared by the library and the CLI.

A spec is a plain dict with a ``kind`` field::

    {"kind": "pbd", "ps": [0.1, 0.5, ...]}
    {"kind": "binomial", "n": 100, "p": 0.5}
    {"kind": "tp", "mu": 12.5, "sigma2": 9.0}
    {"kind": "explicit", "lo": 0, "probs": [...], "overflow": 0.0}
    {"kind": "perturbed_binomial", "n": 8, "c": 1.0, "eps": 0.2, "z": [1, -1, ...]}

``normalize_spec`` validates and returns a canonical copy; ``realize``
turns a spec into an ExplicitDistribution; ``spec_to_json`` serializes
canonically so equal specs give byte-identical text.
"""

from __future__ import annotations

import json

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

__all__ = ["KINDS", "normalize_spec", "realize", "spec_to_json", "spec_from_json", "explicit_spec"]

KINDS = ("pbd", "binomial", "tp", "explicit", "perturbed_binomial")


def normalize_spec(obj: dict) -> dict:
    """Validate a spec dict and return a canonical copy (plain python types)."""
    if not isinstance(obj, dict):
        raise ValueError("distribution spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}; expected one of {KINDS}")
    if kind == "pbd":
        ps = [float(p) for p in obj["ps"]]
        Pbd(np.array(ps))
        return {"kind": "pbd", "ps": ps}
    if kind == "binomial":
        n = int(obj["n"])
        p = float(obj["p"])
        if n < 0 or not 0.0 <= p <= 1.0:
            raise ValueError("binomial spec requires n >= 0 and p in [0, 1]")
        return {"kind": "binomial", "n": n, "p": p}
    if kind == "tp":
        params = TranslatedPoissonParams(float(obj["mu"]), float(obj["sigma2"]))
        return {"kind": "tp", "mu": params.mu, "sigma2": params.sigma2}
    if kind == "explicit":
        lo = int(obj.get("lo", 0))
        probs = [float(v) for v in obj["probs"]]
        overflow = float(obj.get("overflow", 0.0))
        ExplicitDistribution(lo, np.array(probs), overflow=overflow)
        out = {"kind": "explicit", "lo": lo, "probs": probs}
        if overflow:
            out["overflow"] = overflow
        return out
    # perturbed_binomial
    n = int(obj["n"])
    z = [int(v) for v in obj["z"]]
    pb = PerturbedBinomial(n, float(obj["c"]), float(obj["eps"]), np.array(z, dtype=np.int8))
    return {"kind": "perturbed_binomial", "n": n, "c": pb.c, "eps": pb.eps, "z": z}


def realize(obj: dict, tail_cut: float = 1e-9) -> ExplicitDistribution:
    """Turn a spec into an ExplicitDistribution (truncated families use tail_cut)."""
    spec = normalize_spec(obj)
    kind = spec["kind"]
    if kind == "pbd":
        return pbd_pmf(Pbd(np.array(spec["ps"])), tail_cut=min(tail_cut, 1e-6))
    if kind == "binomial":
        return binomial_pmf(spec["n"], spec["p"])
    if kind == "tp":
        return translated_poisson_pmf(
            TranslatedPoissonParams(spec["mu"], spec["sigma2"]), tail_cut=min(tail_cut, 1e-6)
        )
    if kind == "explicit":
        return ExplicitDistribution(
            spec["lo"], np.array(spec["probs"]), overflow=spec.get("overflow", 0.0)
        )
    pb = PerturbedBinomial(
        spec["n"], spec["c"], spec["eps"], np.array(spec["z"], dtype=np.int8)
    )
    return construct_perturbed_binomial(pb)


def explicit_spec(dist: ExplicitDistribution) -> dict:
    """Spec dict for an explicit distribution (drops tail_slack; it is mass, not shape)."""
    total = dist.total_mass
    probs = (dist.probs / total).tolist()
    out = {"kind": "explicit", "lo": dist.lo, "probs": probs}
    if dist.overflow:
        out["overflow"] = dist.overflow / total
    return out


def spec_to_json(obj: dict) -> str:
    return json.dumps(normalize_spec(obj), sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> dict:
    return normalize_spec(json.loads(text))
