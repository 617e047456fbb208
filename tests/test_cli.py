"""CLI contract tests: artifacts, determinism, exit codes."""

import functools
import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

from pbdtest import TestConfig, cli, lowerbound, oracles
from pbdtest.calibrated import vote_error
from pbdtest.cli import main
from pbdtest.distributions import MAX_WIDTH, binomial_pmf, effective_support_interval


@pytest.fixture()
def binomial_spec(tmp_path):
    path = tmp_path / "binomial.json"
    path.write_text(json.dumps({"kind": "binomial", "n": 400, "p": 0.5}))
    return str(path)


@pytest.fixture()
def bimodal_spec(tmp_path):
    n = 400
    probs = [0.0] * (n + 1)
    probs[0] = 0.5
    probs[n] = 0.5
    path = tmp_path / "bimodal.json"
    path.write_text(json.dumps({"kind": "explicit", "lo": 0, "probs": probs}))
    return str(path)


def run(args):
    return main(args)


class TestTestCommand:
    def test_verdict_artifact(self, binomial_spec, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        code = run(
            [
                "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "pbdtest.verdict/1"
        assert artifact["verdict"] == "yes_pbd"
        assert artifact["diagnostics"]["config"]["seed"] == 7
        assert json.loads(capsys.readouterr().out) == artifact

    def test_tp_spec_runs(self, tmp_path, capsys):
        spec = tmp_path / "tp.json"
        spec.write_text(json.dumps({"kind": "tp", "mu": 12.5, "sigma2": 9.0}))
        code = run(
            ["test", "--spec", str(spec), "--n", "100", "--eps", "0.2", "--delta", "0.3",
             "--seed", "7"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "pbdtest.verdict/1"

    def test_same_seed_byte_identical(self, binomial_spec, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(
                [
                    "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                    "--delta", "0.3", "--seed", "11", "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_assert_yes_exit_code(self, bimodal_spec, capsys):
        code = run(
            [
                "test", "--spec", bimodal_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "3", "--assert-yes",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_error_exit_code(self, tmp_path, capsys):
        code = run(
            [
                "test", "--spec", str(tmp_path / "missing.json"), "--n", "4",
                "--eps", "0.2", "--delta", "0.3", "--seed", "0",
            ]
        )
        capsys.readouterr()
        assert code == 1

    def test_reused_parser_carries_nothing_between_calls(self, bimodal_spec, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplification_reps": 1}))
        out = tmp_path / "v.json"
        base = ["test", "--spec", bimodal_spec, "--n", "400", "--eps", "0.2", "--delta", "0.3",
                "--seed", "3"]
        cli._build_parser.cache_clear()
        assert run(base + ["--assert-yes", "--out", str(out), "--config", str(cfg)]) == 2
        out.unlink()
        capsys.readouterr()
        assert run(base) == 0
        reused = capsys.readouterr().out
        assert cli._build_parser.cache_info().hits == 1
        cli._build_parser.cache_clear()
        assert run(base) == 0
        assert capsys.readouterr().out == reused
        assert not out.exists()

    def test_config_file_override(self, binomial_spec, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplification_reps": 1}))
        out = tmp_path / "v.json"
        run(
            [
                "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "7", "--config", str(cfg), "--out", str(out),
            ]
        )
        capsys.readouterr()
        artifact = json.loads(out.read_text())
        assert artifact["diagnostics"]["repetitions"] == 1

    def test_config_file_sets_learning_accuracy(self, binomial_spec, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplification_reps": 1, "learn_accuracy_const": 6.0}))
        out = tmp_path / "v.json"
        code = run(
            [
                "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "7", "--config", str(cfg), "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["config"]["learn_accuracy_const"] == 6.0
        assert diagnostics["config"]["calibration_version"] == 8
        # The run learned at eps / 6 = 1/30: A_L logt^2(30) 30^2 samples.
        (only,) = diagnostics["runs"]
        fields = {k: v for k, v in diagnostics["config"].items() if k != "calibration_version"}
        cfg = TestConfig(**fields)
        assert only["diagnostics"]["learn_samples"] == cfg.learn_samples(cfg.eps / 6.0)

    def test_pbdtest_config_env_is_ignored(self, binomial_spec, tmp_path, capsys, monkeypatch):
        # The variable no longer names a config file: a non-object file there changes nothing.
        args = [
            "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
            "--delta", "0.3", "--seed", "7", "--out",
        ]
        plain = tmp_path / "plain.json"
        assert run(args + [str(plain)]) == 0
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text("3")
        monkeypatch.setenv("PBDTEST_CONFIG", str(env_cfg))
        with_env = tmp_path / "env_out.json"
        assert run(args + [str(with_env)]) == 0
        assert capsys.readouterr().err == ""
        assert with_env.read_bytes() == plain.read_bytes()

    def test_unknown_config_field_rejected(self, binomial_spec, tmp_path, capsys):
        # Deleted constants may linger in old files: amplification_const
        # (Hoeffding's), the learner's forced-binomial threshold, the TV
        # tolerant stage's sample constant and the heavy l2 stage's rate and
        # threshold constants, the last four spelled in two parts so that a
        # search for them finds no reader.
        for field in (
            "not_a_field", "amplification_const", "learn_sparse_" "threshold_const",
            "tolerant_" "sample_const", "l2_" "sample_const", "l2_" "far_const",
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({field: 18.0}))
            code = run(
                [
                    "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                    "--delta", "0.3", "--seed", "7", "--config", str(cfg),
                ]
            )
            err = capsys.readouterr().err
            assert code == 1
            assert "unknown config fields" in err and field in err


@pytest.mark.parametrize("command", ["test", "learn"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("learn_sample_const", 0),
        ("learn_accuracy_const", 0.5),
        ("var_threshold_const", math.nan),
        ("chi2_sample_const", -1),
        ("amplification_reps", 2.5),
        ("amplification_reps", True),
        ("tail_cut", "x"),
        ("tail_cut", None),
        # A field of None stands for a file holding ``value`` itself.
        (None, 3),
        (None, []),
        (None, ["tail_cut"]),
        (None, None),
    ],
)
def test_bad_config_constant_exits_1(binomial_spec, tmp_path, capsys, command, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(value if field is None else {field: value}))
    args = [
        command, "--spec", binomial_spec, "--n", "400", "--eps", "0.1", "--seed", "7",
        "--config", str(cfg),
    ]
    if command == "test":
        args += ["--delta", "0.3"]
    code = run(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("pbdtest: error")
    assert (field or "must hold a JSON object") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "binomial", "n": 10}, "p"),
        ({"kind": "tp", "mu": 5}, "sigma2"),
        ({"kind": "pbd", "ps": 5}, "ps"),
        ({"kind": "explicit", "probs": [0.5, 0.5], "overflow": 0.0}, "overflow"),
    ],
)
def test_malformed_spec_exits_1(tmp_path, capsys, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run(
        [
            "test", "--spec", str(path), "--n", "10", "--eps", "0.2", "--delta", "0.3",
            "--seed", "0",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("pbdtest: error") and repr(field) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["test", "learn"])
@pytest.mark.parametrize(
    "source, message",
    [
        ({"kind": "binomial", "n": 100, "p": 0.5}, "outside [0, 10]"),
        ({"kind": "explicit", "lo": -3, "probs": [0.25, 0.25, 0.25, 0.25]}, "outside [0, 10]"),
        ("3\n11\n4\n", "outside [0, 10]"),
        ("3\n-1\n4\n", "nonnegative"),
    ],
    ids=[
        "binomial-above-n", "explicit-below-0", "sample-above-n", "sample-below-0",
    ],
)
def test_source_outside_support_exits_1(tmp_path, capsys, command, source, message):
    if isinstance(source, str):
        path = tmp_path / "samples.txt"
        path.write_text(source)
        args = ["--samples", str(path)]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(source))
        args = ["--spec", str(path)]
    args = [command, *args, "--n", "10", "--eps", "0.2", "--seed", "0"]
    if command == "test":
        args += ["--delta", "0.3"]
    code = run(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("pbdtest: error")
    assert message in captured.err
    assert captured.out == ""


# Samples at 0 and 2^33, 1000 of them: enough for a run to learn from.
WIDE_POOL = "0\n8589934592\n" * 500


@pytest.mark.parametrize(
    "command, spec, samples, message",
    [
        ("stat", {"kind": "binomial", "n": 10, "p": 0.5}, WIDE_POOL,
         "sample pool spans [0, 8589934592], too wide to count"),
        ("test", None, WIDE_POOL, "sample pool spans [0, 8589934592], too wide to count"),
        ("test", {"kind": "binomial", "n": 10**10, "p": 0.5}, None,
         "binomial window of width 10000000001 is too large to build"),
        ("test", {"kind": "tp", "mu": 10.0, "sigma2": 1e15}, None,
         "shifted-Poisson window of width 413921883 is too large to build"),
        ("test", {"kind": "tp", "mu": -1.7e308, "sigma2": 1.7e308}, None,
         "mu - sigma2 must be finite"),
        ("test", None, "", "sample file is empty"),
    ],
    ids=["stat-wide-pool", "test-wide-pool", "binomial-1e10", "tp-1e15", "tp-overflow", "empty"],
)
def test_unbuildable_input_exits_1_before_allocating(
    tmp_path, capsys, command, spec, samples, message
):
    # Each refused array would take 3 to 75 GiB; the run allocates under 16 MiB.
    args = [command]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        args += ["--spec", str(tmp_path / "spec.json")]
    if samples is not None:
        (tmp_path / "samples.txt").write_text(samples)
        args += ["--samples", str(tmp_path / "samples.txt")]
    if command == "test":
        args += ["--n", str(10**10), "--eps", "0.5", "--delta", "0.5", "--seed", "0"]
    tracemalloc.start()
    try:
        code = run(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"pbdtest: error: {message}\n"
    assert captured.out == ""
    assert peak < 2**24


class TestLearnCommand:
    def test_hypothesis_artifact(self, binomial_spec, tmp_path, capsys):
        out = tmp_path / "hyp.json"
        code = run(
            [
                "learn", "--spec", binomial_spec, "--n", "400", "--eps", "0.1",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "pbdtest.hypothesis/1"
        assert artifact["hypothesis"]["kind"] in ("binomial", "explicit")
        assert "unimodal_lb" not in artifact
        capsys.readouterr()

    def test_sample_certified_not_unimodal_gets_no_hypothesis(self, tmp_path, capsys):
        # The half/half law on {0, 10^4}: the artifact carries the
        # certificate that refused the learning sample in place of a hypothesis.
        n = 10_000
        probs = [0.0] * (n + 1)
        probs[0] = probs[n] = 0.5
        spec = tmp_path / "half-half.json"
        spec.write_text(json.dumps({"kind": "explicit", "lo": 0, "probs": probs}))
        out = tmp_path / "hyp.json"
        code = run(
            [
                "learn", "--spec", str(spec), "--n", str(n), "--eps", "0.1",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "pbdtest.hypothesis/1"
        assert artifact["hypothesis"] is None
        assert artifact["unimodal_lb"] > artifact["unimodal_lb_threshold"] > 0.0
        assert artifact["samples_used"] == TestConfig(eps=0.1).learn_samples(0.1)
        capsys.readouterr()


class TestStatCommand:
    def test_emit_then_consume(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        code = run(
            ["draw", "--spec", binomial_spec, "--count", "5000", "--emit", str(samples),
             "--seed", "9"]
        )
        assert code == 0
        lines = samples.read_text().splitlines()
        assert len(lines) == 5000 and all(int(v) >= 0 for v in lines)
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "schema": "pbdtest.draw/1", "command": "draw", "emitted": 5000, "seed": 9,
            "path": str(samples),
        }
        code = run(["stat", "--spec", binomial_spec, "--samples", str(samples)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 5000
        assert report["tv_empirical_vs_spec"] < 0.2

    def test_samples_off_the_spec_support_count_in_full(self, tmp_path, capsys):
        spec = tmp_path / "coin.json"
        spec.write_text(json.dumps({"kind": "explicit", "probs": [0.5, 0.5]}))
        samples = tmp_path / "samples.txt"
        samples.write_text("0\n1\n9\n")
        code = run(["stat", "--spec", str(spec), "--samples", str(samples)])
        assert code == 0
        # 1/6 short at each of 0 and 1, and 1/3 at 9 where the spec has none.
        report = json.loads(capsys.readouterr().out)
        assert report["tv_empirical_vs_spec"] == pytest.approx(1 / 3, abs=1e-15)

    def test_union_too_wide_to_align_exits_1(self, tmp_path, capsys):
        # Samples at 0 and 1 against a point mass at 10^9: the aligner both
        # statistics share refuses the union before allocating a billion floats.
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"kind": "explicit", "lo": 1_000_000_000, "probs": [1.0]}))
        samples = tmp_path / "samples.txt"
        samples.write_text("0\n1\n")
        code = run(["stat", "--spec", str(spec), "--samples", str(samples)])
        captured = capsys.readouterr()
        assert code == 1
        assert "union support of width 1000000001 is too large to align" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_bad_rate_exits_1(self, binomial_spec, tmp_path, capsys, rate):
        samples = tmp_path / "samples.txt"
        samples.write_text("200\n201\n")
        code = run(
            ["stat", "--spec", binomial_spec, "--samples", str(samples), "--rate", rate]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("pbdtest: error")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("stat", ["--draw", "5"], "unrecognized arguments: --draw 5"),
            ("stat", ["--emit", "e.txt"], "unrecognized arguments: --emit e.txt"),
            ("stat", ["--seed", "0"], "unrecognized arguments: --seed 0"),
            ("draw", ["--samples", "s.txt"], "unrecognized arguments: --samples s.txt"),
            ("draw", ["--rate", "3"], "unrecognized arguments: --rate 3"),
        ],
    )
    def test_refuses_the_other_commands_options(
        self, binomial_spec, tmp_path, capsys, command, extra, message
    ):
        own = {
            "stat": ["--samples", str(tmp_path / "s.txt")],
            "draw": ["--count", "5", "--emit", str(tmp_path / "e.txt"), "--seed", "0"],
        }
        with pytest.raises(SystemExit) as exc:
            run([command, "--spec", binomial_spec, *own[command], *extra])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.txt").exists()

    def test_draw_zero_writes_an_empty_file(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        code = run(
            ["draw", "--spec", binomial_spec, "--count", "0", "--emit", str(samples),
             "--seed", "0"]
        )
        assert code == 0
        assert samples.read_bytes() == b""
        assert json.loads(capsys.readouterr().out)["emitted"] == 0

    def test_draw_negative_count_exits_1(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        code = run(
            ["draw", "--spec", binomial_spec, "--count", "-1", "--emit", str(samples),
             "--seed", "0"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("pbdtest: error")
        assert not samples.exists()

    def test_draw_count_past_the_width_limit_exits_1(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        code = run(
            ["draw", "--spec", binomial_spec, "--count", "1000000000000", "--emit",
             str(samples), "--seed", "0"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "pbdtest: error: 1000000000000 samples are too many to hold;"
            f" the limit is {MAX_WIDTH}\n"
        )
        assert not samples.exists()

    def test_negative_sample_exits_1(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("200\n-1\n")
        code = run(["stat", "--spec", binomial_spec, "--samples", str(samples)])
        assert code == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_sample_round_trip_through_test(self, binomial_spec, tmp_path, capsys):
        # The pool must cover the learn stage at eps / D (457 samples at the
        # default D = 3) plus the chi^2 stage's Poisson total (about 1,000),
        # so a single-repetition test can finish on it.
        samples = tmp_path / "samples.txt"
        run(
            ["draw", "--spec", binomial_spec, "--count", "4000", "--emit", str(samples),
             "--seed", "13"]
        )
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"amplification_reps": 1}))
        code = run(
            [
                "test", "--samples", str(samples), "--n", "400", "--eps", "0.4",
                "--delta", "0.3", "--seed", "1", "--config", str(cfg),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "yes_pbd"

    def test_exhausted_pool_is_an_error(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "short.txt"
        samples.write_text("1\n2\n3\n")
        code = run(
            [
                "test", "--samples", str(samples), "--n", "400", "--eps", "0.4",
                "--delta", "0.3", "--seed", "1",
            ]
        )
        capsys.readouterr()
        assert code == 1


class TestLowerboundCommand:
    def test_csv_artifact_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("lb1.csv", "lb2.csv"):
            out = tmp_path / name
            code = run(
                [
                    "lowerbound", "--n", "64", "--c", "2.0", "--eps", "0.2",
                    "--k-grid", "20,2000", "--trials", "4", "--seed", "21",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert text.startswith("# pbdtest.lowerbound/1")
        assert "k,detect_rate,false_reject_rate,advantage,chi2_bound" in text

    @pytest.mark.parametrize("n, trials", [("0", "4"), ("7", "4"), ("64", "-1")])
    def test_bad_n_or_trials_exits_1(self, capsys, n, trials):
        code = run(
            [
                "lowerbound", "--n", n, "--c", "300", "--eps", "0.001", "--k-grid", "20",
                "--trials", trials, "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("pbdtest: error")

    @pytest.mark.parametrize("k", ["nan", "-5", "inf"])
    def test_bad_budget_exits_1_before_any_trial(self, capsys, monkeypatch, k):
        calls = []
        monkeypatch.setattr(lowerbound, "run_budgeted_test", lambda *a, **kw: calls.append(a))
        code = run(
            [
                "lowerbound", "--n", "64", "--c", "2.0", "--eps", "0.2", "--k-grid", f"5,{k}",
                "--trials", "4", "--seed", "0",
            ]
        )
        assert code == 1
        assert f"got {float(k)!r}" in capsys.readouterr().err
        assert calls == []

    def test_threads_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "lowerbound", "--n", "64", "--c", "2.0", "--eps", "0.2", "--k-grid", "20",
                    "--trials", "4", "--seed", "0", "--threads", "2",
                ]
            )
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestOracleCommand:
    def test_pmf_suite(self, capsys):
        code = run(["oracle", "--suite", "pmf", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line)["ok"] for line in lines)

    def test_calibration_suite_is_gone(self, capsys):
        # The closed-form sweep of the deleted l2 stage's constants went with
        # them; the learning sweep calibrates every deciding constant.
        with pytest.raises(SystemExit) as exc:
            run(["oracle", "--suite", "calibration", "--seed", "0"])
        assert exc.value.code == 1
        assert "invalid choice: 'calibration'" in capsys.readouterr().err

    def test_learning_suite_is_deterministic(self, capsys, monkeypatch):
        # One seed, one line per swept field, byte for byte.  The full
        # sweeps take about a minute; small grids at one point check the wiring.
        small = {
            "learn_sample_const": (0.01, 2.0),
            "learn_accuracy_const": (1.0, 3.0),
            "chi2_sample_const": (1.0, 20.0),
        }

        def sweep(seed, field):
            return oracles.learning_calibration_report(
                seed, field, grid=small[field], points=((10_000, 0.1),), runs=2
            )

        monkeypatch.setattr(cli, "learning_calibration_report", sweep)
        outputs = []
        for _ in range(2):
            assert run(["oracle", "--suite", "learning", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        reports = [json.loads(line) for line in outputs[0].splitlines()]
        assert [r["suite"] for r in reports] == ["learning"] * 3
        assert [r["field"] for r in reports] == list(oracles.LEARNING_SWEEPS)
        assert reports[0]["chosen_learn_sample_const"] == 2.0
        assert reports[1]["chosen_learn_accuracy_const"] == 3.0
        assert reports[2]["chosen_chi2_sample_const"] == 20.0

    def test_unimodal_suite(self, capsys):
        code = run(["oracle", "--suite", "unimodal", "--seed", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(json.loads(line)["ok"] for line in lines)

    def test_tn_moments_suite(self, capsys):
        code = run(["oracle", "--suite", "tn-moments", "--seed", "2"])
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert {entry["case"] for entry in lines} == {"tn_mean", "tn_variance"}


class TestReadmeExamples:
    def test_sample_file_example_runs_as_written(self, tmp_path, monkeypatch, capsys):
        """The README's spec, ``draw``, ``test --samples`` and ``stat`` lines, verbatim."""
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()

        def readme_line(prefix, *parts):
            return next(ln for ln in lines if ln.startswith(prefix) and all(p in ln for p in parts))

        spec, spec_path = re.fullmatch(r"echo '(.*)' > (\S+)", readme_line("echo ")).groups()
        monkeypatch.chdir(tmp_path)
        Path(spec_path).write_text(spec)
        assert run(shlex.split(readme_line("pbdtest draw"))[1:]) == 0
        assert run(shlex.split(readme_line("pbdtest test --samples"))[1:]) == 0
        verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert verdict["verdict"] == "yes_pbd"
        assert run(shlex.split(readme_line("pbdtest stat"))[1:]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 50_000

    def test_every_cli_line_parses(self):
        """Every ``pbdtest`` line of the README's CLI block, continued lines joined,
        is accepted by the parser."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
        joined = block.replace("\\\n", " ").splitlines()
        lines = [ln for ln in joined if ln.startswith("pbdtest ")]
        assert len(lines) >= 9
        for line in lines:
            args = shlex.split(line, comments=True)[1:]
            assert cli._build_parser().parse_args(args).fn is not None, line

    def test_majority_run_counts_match_the_config(self):
        """The README's planned runs and lead at delta = 0.1, the runs that
        decide a unanimous vote, and its table of plans and their exact errors
        are the default config's."""
        text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        planned = int(re.search(r"\(`repetitions`, (\d+) at delta = 0\.1", text).group(1))
        lead = int(re.search(r"\(`lead`, (\d+) at delta = 0\.1", text).group(1))
        unanimous = re.search(r"ends after the first (\d+) runs of (\d+)", text)
        decided, of = map(int, unanimous.groups())
        waited = int(re.search(r"where the majority alone waits for (\d+)", text).group(1))
        run_all = int(re.search(r"had it run all (\d+)", text).group(1))
        reps, planned_lead = TestConfig(eps=0.1, delta=0.1).vote_plan()
        assert planned == of == run_all == reps
        assert lead == decided == planned_lead
        assert waited == reps // 2 + 1
        rows = re.findall(r"\| (0\.\d+) \| (\d+) \| (\d+) \| (0\.\d{4}) \|", text)
        assert len(rows) == 4
        for delta, r, a, error in rows:
            assert TestConfig(eps=0.1, delta=float(delta)).vote_plan() == (int(r), int(a))
            assert f"{float(vote_error(int(r), int(a))):.4f}" == error

    def test_lowerbound_example_ends_above_a_runs_full_need(self):
        """The README ``lowerbound`` grid's last point covers one run's full need at
        its n and eps under the default config: learning at eps / D plus the chi^2
        stage's Poisson total on the interval of Binomial(n, 1/2), with five
        standard deviations of both Poisson draws (the budget and that total)
        to spare."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = text.replace("\\\n", " ").splitlines()  # join the continued lines
        line = next(ln for ln in lines if ln.startswith("pbdtest lowerbound"))
        args = shlex.split(line)
        n, eps = int(args[args.index("--n") + 1]), float(args[args.index("--eps") + 1])
        last = float(args[args.index("--k-grid") + 1].split(",")[-1])
        cfg = TestConfig(eps=eps, delta=0.5)
        lo, hi = effective_support_interval(binomial_pmf(n, 0.5), eps / 5.0)
        learn = cfg.learn_samples(eps / cfg.learn_accuracy_const)
        rate = cfg.chi2_sample_rate(hi - lo + 1)
        assert last >= learn + rate + 5.0 * math.sqrt(last + rate)
