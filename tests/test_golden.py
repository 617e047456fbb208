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
    "test --spec": "a72eef94ca63e4fcb4be404b34631d7158db1f4a9f1723b7ab42009d0fbebfa6",
    "draw": "d72050956620a4044d7113278dd73aca883cf190b6d1e3f5d123e63ca021f050",
    "test --samples": "671e1f66b853a8788f2f0ab52451857137f197d142f4d7750c372ec0a11d15e3",
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
MEMBERSHIP_SHA256 = {
    ("binomial-0.5", 0): "86c70610967ad13f95caf3b2c01bccb3f14f04851ff1fc7b7d04fc016187ee8e",
    ("binomial-0.5", 1): "ddf4a81b44b9ab11b10d9fd06ea3f62edfeab7f2126e6debb0911cb5b853d8b3",
    ("binomial-0.5", 2): "57f6a7a734d32e09e53a88657bd6c2ffaf2e4bd4708113711c8ffbef678557b5",
    ("binomial-0.3", 0): "8493b13eac5c0149cf4e224b4a47b92790af9e25c5bd94789e3a0432b5599770",
    ("binomial-0.3", 1): "c9c13689eb1a0b4e9260af61796d7021ac3e5579dbc9a8a0cba407115f84ee14",
    ("binomial-0.3", 2): "b0061c6d4c5598aeeeea68a42ad88332182e913e3e77b29726ebe60ae679b68a",
    ("half-half", 0): "50a125a110ceb97c84794b7ff8279a98b67aaf8a8b3bcf6dadf6041c666ff55f",
    ("half-half", 1): "445f650d906d102174428513d7053a7c8e884112df60b2f0c2c0b455cd98031a",
    ("half-half", 2): "3f32c0d2f89ac0db019c1f29000f63e2e22919828c19d3e7f43b57375957908e",
    ("c8-member", 0): "f647d5ece90d09f98dd770f859946808d8d32e0d32a75cc1a77309927e525d0a",
    ("c8-member", 1): "ae803181bc6002d75ed63ce67687928f8cd6d4d169098339897b175166cf6713",
    ("c8-member", 2): "d66e23c04cfce525beadc47a2981a1b83cf84f3b9e184b393f3a63849981e5e2",
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
