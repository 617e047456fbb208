"""Command-line front end tying the library into reproducible experiments.

All randomness flows from ``--seed``; artifacts carry a schema tag and the
fully resolved configuration, so the same invocation reproduces them
byte for byte.  Verdicts and reports are JSON, curves are CSV.

Exit codes: 0 on success, 1 on any error, 2 when ``test --assert-yes``
ends in rejection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from . import distspec
from .calibrated import TestConfig
from .distributions import ExplicitDistribution, Pbd, binomial_pmf, pbd_pmf, tv_distance
from .learner import learn_pbd
from .lowerbound import detection_experiment, unimodal_distance_lb
from .oracles import (
    LEARNING_SWEEPS,
    brute_force_pbd_pmf,
    calibration_report,
    exact_tv_to_unimodal,
    learning_calibration_report,
    monte_carlo_moment_check,
)
from .sampling import SampleStream, seeded_generator
from .tester import Verdict, l2_statistic, test_pbd

__all__ = ["main"]

# Every TestConfig constant except the ones set by their own flags.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(TestConfig)} - {"eps", "delta", "seed"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit(obj: dict, out_path: str | None):
    _write(_dump(obj) + "\n", out_path)


def _load_config_overrides(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return data


def _read_samples(path: str) -> np.ndarray:
    with warnings.catch_warnings():
        # numpy warns on an empty file; the check below refuses it in one line.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        xs = np.loadtxt(path, dtype=np.int64, ndmin=1)
    if xs.size == 0:
        raise ValueError("sample file is empty")
    return xs


def _read_spec(path: str) -> ExplicitDistribution:
    with open(path) as fh:
        return distspec.realize(json.load(fh))


def _make_stream(args) -> SampleStream:
    """The ``--seed`` source of ``test`` and ``learn``; the library checks it lies in [0, n]."""
    if args.spec:
        return SampleStream.from_distribution(_read_spec(args.spec), args.seed)
    return SampleStream.from_samples(_read_samples(args.samples), args.seed)


def _cmd_test(args) -> int:
    overrides = _load_config_overrides(args.config)
    config = TestConfig(eps=args.eps, delta=args.delta, seed=args.seed, **overrides)
    stream = _make_stream(args)
    verdict = test_pbd(stream, args.n, config)
    artifact = {
        "schema": "pbdtest.verdict/1",
        "command": "test",
        "n": args.n,
        **verdict.to_dict(),
    }
    _emit(artifact, args.out)
    if args.assert_yes and verdict.verdict is Verdict.NO_PBD:
        return 2
    return 0


def _cmd_learn(args) -> int:
    # Learning reads no delta; the config only checks and carries the constants.
    config = TestConfig(eps=args.eps, delta=0.5, **_load_config_overrides(args.config))
    stream = _make_stream(args)
    learned = learn_pbd(stream, args.n, args.eps, config)
    if learned.binomial is None:
        hyp_spec = distspec.explicit_spec(learned.dist)
    else:
        trials, p = learned.binomial
        hyp_spec = {"kind": "binomial", "n": trials, "p": p}
    artifact = {
        "schema": "pbdtest.hypothesis/1",
        "command": "learn",
        "eps": args.eps,
        "seed": args.seed,
        "hypothesis": hyp_spec,
        "samples_used": stream.samples_drawn,
        "mu_hat": learned.mu_hat,
        "sigma2_hat": learned.sigma2_hat,
    }
    _emit(artifact, args.out)
    return 0


def _cmd_stat(args) -> int:
    q = _read_spec(args.spec)
    xs = _read_samples(args.samples)
    rate = args.rate if args.rate is not None else float(xs.size)
    # Through a pool stream, which refuses negative samples.
    hist = SampleStream.from_samples(xs).draw_histogram(xs.size)
    artifact = {
        "schema": "pbdtest.stat/1",
        "command": "stat",
        "samples": int(xs.size),
        "rate": rate,
        "t_n": l2_statistic(hist.counts, hist.lo, q, rate),
        "tv_empirical_vs_spec": tv_distance(hist.to_empirical(), q),
    }
    _emit(artifact, args.out)
    return 0


def _cmd_draw(args) -> int:
    xs = SampleStream.from_distribution(_read_spec(args.spec), args.seed).draw(args.count)
    with open(args.emit, "w") as fh:
        fh.writelines(f"{x}\n" for x in xs)
    record = {
        "schema": "pbdtest.draw/1",
        "command": "draw",
        "emitted": args.count,
        "seed": args.seed,
        "path": args.emit,
    }
    _emit(record, None)
    return 0


def _cmd_lowerbound(args) -> int:
    k_grid = [float(v) for v in args.k_grid.split(",") if v]
    config = TestConfig(eps=args.eps, delta=0.5, **_load_config_overrides(args.config))
    rows, meta = detection_experiment(
        args.n,
        args.c,
        args.eps,
        k_grid,
        args.trials,
        config=config,
        seed=args.seed,
    )
    lines = [
        "# pbdtest.lowerbound/1",
        "# meta " + _dump(meta),
        "k,detect_rate,false_reject_rate,advantage,chi2_bound,certified_far_rate,trials",
    ]
    for r in rows:
        lines.append(
            f"{r.k!r},{r.detect_rate!r},{r.false_reject_rate!r},"
            f"{r.advantage!r},{r.chi2_bound!r},{r.certified_far_rate!r},{r.trials}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _oracle_suite(name: str, seed: int) -> list[dict]:
    rng = seeded_generator(seed)
    if name == "pmf":
        reports = []
        for case in range(20):
            n = int(rng.integers(1, 13))
            ps = rng.random(n)
            fast = pbd_pmf(Pbd(ps))
            slow = brute_force_pbd_pmf(ps)
            err = float(np.abs(fast.probs - slow.probs).max())
            reports.append(
                {"case": f"pmf-{case}", "n": n, "max_abs_error": err, "ok": err <= 1e-12}
            )
        return reports
    if name == "tn-moments":
        p = binomial_pmf(20, 0.4)
        q = binomial_pmf(20, 0.5)
        return [r.to_dict() for r in monte_carlo_moment_check(p, q, 50.0, 20_000, seed=seed)]
    if name == "unimodal":
        reports = []
        for case in range(10):
            m = int(rng.integers(3, 12))
            probs = rng.random(m)
            probs /= probs.sum()
            d = ExplicitDistribution(0, probs)
            lb = unimodal_distance_lb(d)
            exact = exact_tv_to_unimodal(d)
            reports.append(
                {
                    "case": f"unimodal-{case}",
                    "certificate": lb,
                    "exact": exact,
                    "ok": lb <= exact + 1e-9,
                }
            )
        return reports
    if name == "calibration":
        return [{"case": "calibration", **calibration_report()}]
    if name == "learning":
        return [
            {"case": "learning", **learning_calibration_report(seed, field)}
            for field in LEARNING_SWEEPS
        ]
    raise ValueError(f"unknown oracle suite {name!r}")


def _cmd_oracle(args) -> int:
    reports = _oracle_suite(args.suite, args.seed)
    lines = [_dump({"schema": "pbdtest.oracle/1", "suite": args.suite, **r}) for r in reports]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pbdtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", help="distribution spec JSON file")
        group.add_argument("--samples", help="sample file, one integer per line")
        p.add_argument("--n", type=int, required=True, help="support bound n")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--config", help="JSON file overriding test constants")
        p.add_argument("--out", help="write the JSON artifact here as well")

    t = sub.add_parser("test", help="run the membership test")
    add_source(t)
    t.add_argument("--eps", type=float, required=True)
    t.add_argument("--delta", type=float, required=True)
    t.add_argument("--assert-yes", action="store_true", help="exit 2 on rejection")
    t.set_defaults(fn=_cmd_test)

    l = sub.add_parser("learn", help="learn a hypothesis and emit it as a spec")
    add_source(l)
    l.add_argument("--eps", type=float, required=True)
    l.set_defaults(fn=_cmd_learn)

    s = sub.add_parser("stat", help="statistics of a sample file against a known spec")
    s.add_argument("--spec", required=True)
    s.add_argument("--samples", required=True, help="sample file, one integer per line")
    s.add_argument("--rate", type=float, help="Poisson rate of the samples (defaults to count)")
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_stat)

    d = sub.add_parser("draw", help="write samples drawn from a spec, one per line")
    d.add_argument("--spec", required=True)
    d.add_argument("--count", type=int, required=True, help="how many samples")
    d.add_argument("--emit", required=True, help="sample output path")
    d.add_argument("--seed", type=int, required=True)
    d.set_defaults(fn=_cmd_draw)

    lb = sub.add_parser("lowerbound", help="indistinguishability detection curve")
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--c", type=float, required=True)
    lb.add_argument("--eps", type=float, required=True)
    lb.add_argument("--k-grid", required=True, help="comma-separated sample budgets")
    lb.add_argument("--trials", type=int, required=True)
    lb.add_argument("--seed", type=int, required=True)
    lb.add_argument("--config")
    lb.add_argument("--out", help="CSV output path")
    lb.set_defaults(fn=_cmd_lowerbound)

    o = sub.add_parser("oracle", help="run a brute-force validation suite")
    o.add_argument(
        "--suite",
        required=True,
        choices=["pmf", "tn-moments", "unimodal", "calibration", "learning"],
    )
    o.add_argument("--seed", type=int, required=True)
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"pbdtest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
