"""CLI contract tests: artifacts, determinism, exit codes."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from pbdtest.cli import main


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

    def test_env_config_defaults(self, binomial_spec, tmp_path, capsys, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"amplification_reps": 1, "tolerant_sample_const": 12.0}))
        monkeypatch.setenv("PBDTEST_CONFIG", str(env_cfg))
        out = tmp_path / "v.json"
        run(
            [
                "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "7", "--out", str(out),
            ]
        )
        capsys.readouterr()
        artifact = json.loads(out.read_text())
        assert artifact["diagnostics"]["repetitions"] == 1
        assert artifact["diagnostics"]["config"]["tolerant_sample_const"] == 12.0

    def test_unknown_config_field_rejected(self, binomial_spec, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_field": 1}))
        code = run(
            [
                "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.2",
                "--delta", "0.3", "--seed", "7", "--config", str(cfg),
            ]
        )
        capsys.readouterr()
        assert code == 1


@pytest.mark.parametrize("command", ["test", "learn"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("learn_sample_const", 0),
        ("var_threshold_const", math.nan),
        ("tolerant_sample_const", -1),
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


def test_non_object_env_config_exits_1(binomial_spec, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.json"
    cfg.write_text("3")
    monkeypatch.setenv("PBDTEST_CONFIG", str(cfg))
    code = run(
        [
            "test", "--spec", binomial_spec, "--n", "400", "--eps", "0.1", "--delta", "0.3",
            "--seed", "7",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"pbdtest: error: config file {cfg} must hold a JSON object\n"


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "binomial", "n": 10}, "p"),
        ({"kind": "tp", "mu": 5}, "sigma2"),
        ({"kind": "pbd", "ps": 5}, "ps"),
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
        ({"kind": "explicit", "probs": [0.0], "overflow": 1.0}, "sentinel mass"),
        ("3\n11\n4\n", "outside [0, 10]"),
        ("3\n-1\n4\n", "nonnegative"),
    ],
    ids=[
        "binomial-above-n", "explicit-below-0", "all-sentinel", "sample-above-n",
        "sample-below-0",
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
        capsys.readouterr()


class TestStatCommand:
    def test_emit_then_consume(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        code = run(
            [
                "stat", "--spec", binomial_spec, "--draw", "5000",
                "--emit", str(samples), "--seed", "9",
            ]
        )
        assert code == 0
        lines = samples.read_text().splitlines()
        assert len(lines) == 5000 and all(int(v) >= 0 for v in lines)
        capsys.readouterr()
        code = run(
            ["stat", "--spec", binomial_spec, "--samples", str(samples), "--seed", "9"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 5000
        assert report["tv_empirical_vs_spec"] < 0.2

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_bad_rate_exits_1(self, binomial_spec, tmp_path, capsys, rate):
        samples = tmp_path / "samples.txt"
        samples.write_text("200\n201\n")
        code = run(
            [
                "stat", "--spec", binomial_spec, "--samples", str(samples), "--rate", rate,
                "--seed", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("pbdtest: error")
        assert captured.out == ""

    def test_negative_sample_exits_1(self, binomial_spec, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("200\n-1\n")
        code = run(["stat", "--spec", binomial_spec, "--samples", str(samples), "--seed", "0"])
        assert code == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_sample_round_trip_through_test(self, binomial_spec, tmp_path, capsys):
        # The pool must cover the learn stage budget at eps/10 plus the
        # tolerant stage, so a single-repetition test can finish on it.
        samples = tmp_path / "samples.txt"
        run(
            [
                "stat", "--spec", binomial_spec, "--draw", "1350000",
                "--emit", str(samples), "--seed", "13",
            ]
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


class TestOracleCommand:
    def test_pmf_suite(self, capsys):
        code = run(["oracle", "--suite", "pmf", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line)["ok"] for line in lines)

    def test_calibration_suite(self, capsys):
        code = run(["oracle", "--suite", "calibration", "--seed", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chosen_sample_const"] is not None

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
        """The README's spec, ``stat --draw`` and ``test --samples`` lines, verbatim."""
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()

        def readme_line(prefix, *parts):
            return next(ln for ln in lines if ln.startswith(prefix) and all(p in ln for p in parts))

        spec, spec_path = re.fullmatch(r"echo '(.*)' > (\S+)", readme_line("echo ")).groups()
        monkeypatch.chdir(tmp_path)
        Path(spec_path).write_text(spec)
        assert run(shlex.split(readme_line("pbdtest stat", "--draw"))[1:]) == 0
        assert run(shlex.split(readme_line("pbdtest test --samples"))[1:]) == 0
        verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert verdict["verdict"] == "yes_pbd"
