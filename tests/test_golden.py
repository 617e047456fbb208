"""Golden artifacts: the README's CLI artifacts at seed 7, pinned by sha256.

Criterion 11 checks that two runs of the same code write the same bytes;
these tests check that the bytes stay the same from one commit to the next.
A change may re-pin a hash here only together with a declared output
change in CHANGES.md that says which artifact moves and why.

numpy does not promise the same ``Generator`` streams across versions, so
the pins hold only for the numpy and scipy versions they were taken with;
under any other version the tests skip.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy

from pbdtest.cli import main

PINNED_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy

# The README's CLI lines, run in one directory in this order (``test
# --samples`` reads the ``draw`` output); ``lowerbound`` keeps the README
# grid at 20 trials instead of 200.
COMMANDS = {
    "test --spec": "test --spec binomial.json --n 10000 --eps 0.1 --delta 0.1 --seed 7 --out test-spec.json",
    "draw": "draw --spec binomial.json --count 50000 --emit samples.txt --seed 7",
    "test --samples": "test --samples samples.txt --n 10000 --eps 0.5 --delta 0.9 --seed 7 --out test-samples.json",
    "learn": "learn --spec binomial.json --n 10000 --eps 0.1 --seed 7 --out learn.json",
    "lowerbound": "lowerbound --n 4096 --c 8 --eps 0.1 --k-grid 5,100,5000,50000,100000,150000,169823 --trials 20 --seed 7 --out curve.csv",
}
ARTIFACTS = {
    "test --spec": "test-spec.json",
    "draw": "samples.txt",
    "test --samples": "test-samples.json",
    "learn": "learn.json",
    "lowerbound": "curve.csv",
}
GOLDEN_SHA256 = {
    "test --spec": "cffe790de57ef09e9d241d5445c7399829b97d4ad9e58dd2bb28c56975dcee40",
    "draw": "d72050956620a4044d7113278dd73aca883cf190b6d1e3f5d123e63ca021f050",
    "test --samples": "6f5f2e69bd4daf01e43896a1bf8c660ea313a0c1512c2ff5109de3bbff03357c",
    "learn": "bdae426057d988347e424b584d38aabe96364358fa421115969f966a7bd5114c",
    "lowerbound": "b9c15f0fb3601b6177931c9bcb49dca502df8e40bc0515985d7f08128ddec962",
}

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != PINNED_VERSIONS,
    reason=(
        f"golden hashes are pinned for numpy {PINNED_VERSIONS[0]} and scipy "
        f"{PINNED_VERSIONS[1]}; numpy {np.__version__} and scipy {scipy.__version__} "
        "may draw different Generator streams"
    ),
)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        # The README writes the spec with ``echo``, newline included.
        (out / "binomial.json").write_text(json.dumps({"kind": "binomial", "n": 10000, "p": 0.5}) + "\n")
        for command in COMMANDS.values():
            assert main(command.split()) == 0, command
    return out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_readme_artifact_is_pinned(name, artifact_dir):
    digest = hashlib.sha256((artifact_dir / ARTIFACTS[name]).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name], (
        f"`pbdtest {COMMANDS[name]}` wrote different bytes than the pinned artifact. "
        "Re-pin its hash only together with a declared output change in CHANGES.md."
    )


# ``learn`` on ten coins at 0.05 and ten at 0.95: its learner takes the
# sparse route and emits an explicit hypothesis, which the README's
# binomial ``learn`` line never reaches.
SPARSE_LEARN = "learn --spec pbd.json --n 20 --eps 0.1 --seed 7 --out learn-pbd.json"
SPARSE_LEARN_SHA256 = "8dbbaa78b09874b83945bfff50d3a2ab5bb5a94df437484353e52dce40c288f9"


def test_sparse_route_learn_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = {"kind": "pbd", "ps": [0.05] * 10 + [0.95] * 10}
    (tmp_path / "pbd.json").write_text(json.dumps(spec))
    assert main(SPARSE_LEARN.split()) == 0
    capsys.readouterr()
    artifact = (tmp_path / "learn-pbd.json").read_bytes()
    assert json.loads(artifact)["hypothesis"]["kind"] == "explicit"
    assert hashlib.sha256(artifact).hexdigest() == SPARSE_LEARN_SHA256, (
        f"`pbdtest {SPARSE_LEARN}` wrote different bytes than the pinned artifact."
    )
