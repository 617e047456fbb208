"""Golden artifacts: the README's CLI artifacts at seed 7, pinned by sha256,
and the membership workload's verdicts and far-source ``learn`` artifacts.

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
from pbdtest.distributions import (
    ExplicitDistribution,
    PerturbedBinomial,
    binomial_pmf,
    construct_perturbed_binomial,
)
from pbdtest.lowerbound import random_sign_vector
from pbdtest.sampling import SampleStream
from pbdtest.tester import TestConfig
from pbdtest.tester import test_pbd as run_membership_test

PINNED_VERSIONS = ("2.4.6", "1.17.1")  # numpy, scipy

# The README's CLI lines, run in one directory in this order (``test
# --samples`` reads the ``draw`` output); ``lowerbound`` keeps the README
# grid at 20 trials instead of 200.
COMMANDS = {
    "test --spec": "test --spec binomial.json --n 10000 --eps 0.1 --delta 0.1 --seed 7 --out test-spec.json",
    "draw": "draw --spec binomial.json --count 50000 --emit samples.txt --seed 7",
    "test --samples": "test --samples samples.txt --n 10000 --eps 0.5 --delta 0.9 --seed 7 --out test-samples.json",
    "learn": "learn --spec binomial.json --n 10000 --eps 0.1 --seed 7 --out learn.json",
    "lowerbound": "lowerbound --n 4096 --c 8 --eps 0.1 --k-grid 5,100,5000,25000,50000,75000,95323 --trials 20 --seed 7 --out curve.csv",
}
ARTIFACTS = {
    "test --spec": "test-spec.json",
    "draw": "samples.txt",
    "test --samples": "test-samples.json",
    "learn": "learn.json",
    "lowerbound": "curve.csv",
}
GOLDEN_SHA256 = {
    "test --spec": "65e28207010db6454b265aca0be95b006fa251e4fb89247ab5bc3bf37ed83858",
    "draw": "d72050956620a4044d7113278dd73aca883cf190b6d1e3f5d123e63ca021f050",
    "test --samples": "07cc2fa186bf897d3ffd1c7bf80d665ad2081d8b4f720cb661bceddc9575f0e4",
    "learn": "bdae426057d988347e424b584d38aabe96364358fa421115969f966a7bd5114c",
    "lowerbound": "4b7b649ab2c4557f88434b737aa32f0aab6db24035c946f56572dbdac92c0176",
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


# The README's ``oracle --suite pmf`` line: twenty outcome-enumeration PMFs
# against the product-tree ``pbd_pmf``, error bits included.
ORACLE_PMF = "oracle --suite pmf --seed 3 --out oracle-pmf.jsonl"
ORACLE_PMF_SHA256 = "ac0f4d683dd46596c792e0fb2da5a8ae5fd472fa8711ac88fe64af3d18aaafc1"


def test_pmf_oracle_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(ORACLE_PMF.split()) == 0
    capsys.readouterr()
    artifact = (tmp_path / "oracle-pmf.jsonl").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == ORACLE_PMF_SHA256, (
        f"`pbdtest {ORACLE_PMF}` wrote different bytes than the pinned artifact."
    )


# The amplified test's whole verdict on the membership workload's four
# sources at n = 10^4 (two binomials, the half/half law on {0, n} and
# criterion 07's c = 8 member), as ``json.dumps(to_dict(), sort_keys=True)``.
# The two far sources reject every run on its learning sample.  These were
# taken before such runs stopped building their hypothesis, with
# ``hypothesis_variance`` dropped from those runs and nothing else.  The
# binomial pins were re-taken when the tolerant stage began drawing only
# its interval's counts and the count outside it: their
# ``tv_empirical_vs_hypothesis`` moved, and no verdict or sample count did.
# All twelve were re-taken at calibration version 4 (A_tol 10 -> 5): every
# ``config`` block moved, and so did the binomials' tolerant draws and
# sample counts; no verdict, run count or per-run outcome did.  They were
# re-taken again at calibration version 5 (A_m 200 -> 20) and at version 6
# (the moments stage and A_m gone): only the ``config`` block moved, since
# none of these runs takes the heavy branch.  At version 7 a Poissonized
# chi^2 stage replaced the TV tolerant stage: the binomials' sparse-run
# diagnostics and sample counts moved (1.10M -> 0.41M samples at
# binomial-0.5 seed 0), not their verdicts or run counts; the far sources
# reject on their learning samples, so only their ``config`` block moved.
# All twelve were re-taken when the vote began stopping once one side leads
# by its planned margin (4 at delta = 0.1): each gained a ``lead`` key and
# now ends after 4 runs instead of 8, a prefix of the old runs (205,452
# samples at binomial-0.5 seed 0); no verdict moved.  At calibration
# version 8 the heavy l2 stage's two constants left ``TestConfig``: only the
# ``config`` block moved, since none of these runs takes the heavy branch.
MEMBERSHIP_SHA256 = {
    ("binomial-0.5", 0): "ab5873e0e92122d33e43576b316d6a335fb194e586ffbf09cfb6642e51e4e992",
    ("binomial-0.5", 1): "4147ef3bdf95a0802a63e68655d275a6f6019e18938904a7de53f05737a707b1",
    ("binomial-0.5", 2): "b04ceaa005a7fa7479a268396fc2a13f9918e1d51e757cd3cec7cc4e565de2dd",
    ("binomial-0.3", 0): "29017734630fb6e456efae1da3170c14fb18d3ca85f5911b9d7cbc549cc4e635",
    ("binomial-0.3", 1): "89e7b8c29778e7fae1511ae51a91d8f2f64d8990a8b2cf7f3d324df2557be95d",
    ("binomial-0.3", 2): "4b287ba856a90451345a127b2407edc602304a99c2b603243a8f543e12c05004",
    ("half-half", 0): "843c5c31b9c5c2d1025f407523d9db443a143e9ff46f7977a270351e52ad6d99",
    ("half-half", 1): "824d8c340bd39f4a4bd4d6339a5f95684162ca16d690c942dc25d6a7dcd5ea12",
    ("half-half", 2): "16f68c96b32296d898d6946273f2b54fc0ce922431358e2762a4b82f7cb419d3",
    ("c8-member", 0): "6201dc7d39010b664603adfab611b8de17d6dd872d41faf31715410ac331b93a",
    ("c8-member", 1): "468fdcdb1fdc0ba3f086e21f46f74b1a0975a5e6de90eb35013906b8eab30963",
    ("c8-member", 2): "4682a5fa8e7adbe17f2a8c92492354558e3d78881796757c3030405a28ad8bbf",
}
N_MEMBERSHIP = 10_000


def _half_half_probs(n):
    probs = np.zeros(n + 1)
    probs[0] = probs[n] = 0.5
    return probs


def _c8_signs(n):
    return random_sign_vector(n, np.random.Generator(np.random.Philox(12)))


@pytest.fixture(scope="module")
def membership_sources():
    n = N_MEMBERSHIP
    return {
        "binomial-0.5": binomial_pmf(n, 0.5),
        "binomial-0.3": binomial_pmf(n, 0.3),
        "half-half": ExplicitDistribution(0, _half_half_probs(n)),
        "c8-member": construct_perturbed_binomial(PerturbedBinomial(n, 8.0, 0.1, _c8_signs(n))),
    }


@pytest.mark.parametrize("source, seed", list(MEMBERSHIP_SHA256))
def test_membership_verdict_is_pinned(source, seed, membership_sources):
    stream = SampleStream.from_distribution(membership_sources[source], seed=seed)
    res = run_membership_test(stream, N_MEMBERSHIP, TestConfig(eps=0.1, delta=0.1, seed=seed))
    digest = hashlib.sha256(json.dumps(res.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == MEMBERSHIP_SHA256[source, seed]


# ``learn --spec`` at seed 7 on the two far sources, written as an explicit
# spec (the half/half law, whose learning sample is certified not unimodal,
# so the artifact holds no hypothesis, only the certificate) and as a
# ``perturbed_binomial`` spec (the c = 8 member, which a binomial fits at
# the learner's eps = 0.1).
FAR_LEARN = "learn --spec far.json --n 10000 --eps 0.1 --seed 7 --out learn-far.json"
FAR_LEARN_SHA256 = {
    "half-half": "a7935491f90044f261cc5081b08dcc723b93d6a44aa6eba7e73e1e0478d8878a",
    "c8-member": "afa9eebc8ccd04143828e6f63469700ed97b196ea57595e1b5c3044e8342daaf",
}


@pytest.mark.parametrize("source", list(FAR_LEARN_SHA256))
def test_far_source_learn_is_pinned(source, tmp_path, monkeypatch, capsys):
    n = N_MEMBERSHIP
    spec = {
        "half-half": {"kind": "explicit", "lo": 0, "probs": _half_half_probs(n).tolist()},
        "c8-member": {
            "kind": "perturbed_binomial", "n": n, "c": 8.0, "eps": 0.1, "z": _c8_signs(n).tolist()
        },
    }[source]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "far.json").write_text(json.dumps(spec))
    assert main(FAR_LEARN.split()) == 0
    capsys.readouterr()
    artifact = (tmp_path / "learn-far.json").read_bytes()
    learned = json.loads(artifact)
    if source == "half-half":
        assert learned["hypothesis"] is None
        assert learned["unimodal_lb"] > learned["unimodal_lb_threshold"]
    else:
        assert learned["hypothesis"]["kind"] == "binomial"
    assert hashlib.sha256(artifact).hexdigest() == FAR_LEARN_SHA256[source]
