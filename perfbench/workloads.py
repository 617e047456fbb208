"""The benchmark's workloads.

Each workload builds its inputs from the workload seed when it is
constructed, then runs one op per ``run(i)`` call.  Op ``i`` is a pure
function of (workload seed, i): it uses input ``i % rounds`` and the
per-op seed ``op_seed(seed, i)``, so two runs with one seed see the same
op sequence.  ``run`` returns an ``OpResult`` whose ``ok`` says whether
the op's output passed its check and whose ``key`` is the deterministic
part of the output, compared by the benchmark's replay check.

Calls into pbdtest go through module attributes (``tester.test_pbd``,
not a name imported from it), so the traced run sees them when it
patches those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pbdtest import cli, distributions, lowerbound, oracles, sampling, tester
from pbdtest.tester import TestConfig, Verdict

YES = Verdict.YES_PBD
NO = Verdict.NO_PBD


@dataclass(frozen=True)
class OpResult:
    ok: bool
    key: tuple
    samples: int


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``: distinct for every (workload seed, op index) pair."""
    return (seed << 32) + i


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _bimodal(n: int) -> distributions.ExplicitDistribution:
    probs = np.zeros(n + 1)
    probs[0] = probs[n] = 0.5
    return distributions.ExplicitDistribution(0, probs)


def _certified_perturbed(n: int) -> distributions.ExplicitDistribution:
    # The certified-far member of acceptance criterion 07 (c = 8, z from Philox(12)).
    z = lowerbound.random_sign_vector(n, np.random.Generator(np.random.Philox(12)))
    return lowerbound.construct_perturbed_binomial(lowerbound.PerturbedBinomial(n, 8.0, 0.1, z))


def _heterogeneous_ps(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.05, 0.95, size=n)


class _AmplifiedTest:
    """Amplified ``test_pbd`` rotating over (source, expected verdict) cases."""

    def __init__(self, seed: int, n: int, config: TestConfig, cases):
        self.seed = seed
        self.n = n
        self.config = config
        self.cases = cases
        self.rounds = len(cases)

    def run(self, i: int) -> OpResult:
        source, expected = self.cases[i % self.rounds]
        s = op_seed(self.seed, i)
        stream = sampling.SampleStream.from_distribution(source, seed=s)
        res = tester.test_pbd(stream, self.n, self.config.replace(seed=s))
        key = (res.verdict.value, res.samples_used, res.diagnostics["yes_votes"])
        return OpResult(res.verdict is expected, key, res.samples_used)

    def close(self):
        pass


class Membership(_AmplifiedTest):
    """Default-config amplified test; every base run takes the sparse branch."""

    def __init__(self, seed: int, tiny: bool = False):
        n = 2_000 if tiny else 10_000
        cases = [
            (distributions.binomial_pmf(n, 0.5), YES),
            (distributions.binomial_pmf(n, 0.3), YES),
            (_bimodal(n), NO),
            (_certified_perturbed(n), NO),
        ]
        super().__init__(seed, n, TestConfig(eps=0.1, delta=0.1), cases)


class Heavy(_AmplifiedTest):
    """The documented ``--config`` override that forces every base run heavy."""

    def __init__(self, seed: int, tiny: bool = False):
        n = 2_000 if tiny else 10_000
        eps = 0.1
        het = distributions.pbd_pmf(
            distributions.Pbd(_heterogeneous_ps(_rng(seed), n)), tail_cut=1e-9
        )
        pivot = distributions.translated_poisson_pmf(
            distributions.TranslatedPoissonParams(n / 2, n / 4), tail_cut=1e-9
        )
        far, _ = oracles.paired_perturbation(pivot, 0.35 * eps)
        cases = [(distributions.binomial_pmf(n, 0.5), YES), (het, YES), (far, NO)]
        config = TestConfig(eps=eps, delta=0.1, var_threshold_const=1e-12)
        super().__init__(seed, n, config, cases)


class _DrawCounter:
    """Counts samples drawn by every ``SampleStream`` while installed.

    ``detection_experiment`` does not return its sample use, so the
    detection workload counts the draws its streams make.
    """

    _METHODS = ("draw_histogram", "draw_poissonized")

    def __init__(self):
        self.total = 0
        cls = sampling.SampleStream
        self._originals = {name: cls.__dict__[name] for name in self._METHODS}
        for name, fn in self._originals.items():
            setattr(cls, name, self._counting(fn))

    def _counting(self, fn):
        def counted(stream, *args, **kwargs):
            hist = fn(stream, *args, **kwargs)
            self.total += hist.total
            return hist

        return counted

    def close(self):
        for name, fn in self._originals.items():
            setattr(sampling.SampleStream, name, fn)


class Detection:
    """One op is one budget point of the criterion-10 detection experiment."""

    GRID = (5.0, 100.0, 5e3, 5e5, 5e6, 42564185.0)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        # Below n = 4096 the c = 8 family is not always certified far.
        self.n = 4_096
        self.trials = 2 if tiny else 20
        self.eps = 0.1
        self.config = TestConfig(eps=self.eps, delta=0.5, seed=0, amplification_reps=1)
        self.rounds = len(self.GRID)
        self._counter = _DrawCounter()

    def run(self, i: int) -> OpResult:
        before = self._counter.total
        rows, _ = lowerbound.detection_experiment(
            self.n,
            8.0,
            self.eps,
            [self.GRID[i % self.rounds]],
            self.trials,
            config=self.config,
            seed=op_seed(self.seed, i),
            threads=1,
        )
        samples = self._counter.total - before
        row = rows[0]
        t = row.trials
        se = math.sqrt(
            row.detect_rate * (1 - row.detect_rate) / t
            + row.false_reject_rate * (1 - row.false_reject_rate) / t
        )
        # Criterion 10's per-row conditions.
        ok = row.advantage <= row.chi2_bound + 3.0 * se and row.certified_far_rate >= 0.95
        key = (row.detect_rate, row.false_reject_rate, row.certified_far_rate, samples)
        return OpResult(ok, key, samples)

    def close(self):
        self._counter.close()


class CliPbdSpec:
    """In-process ``pbdtest test --spec`` on heterogeneous ``pbd`` specs.

    Three support sizes rather than two keep the median latency inside
    one size's cluster instead of on the gap between two clusters.
    """

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        sizes = (500, 750, 1_000) if tiny else (10_000, 15_000, 20_000)
        self.rounds = len(sizes)
        # Spec files live beside the benchmark: a run writes only inside its checkout.
        self._dir = Path(tempfile.mkdtemp(prefix="_work-", dir=Path(__file__).resolve().parent))
        rng = _rng(seed)
        self.specs = []
        for j, size in enumerate(sizes):
            path = self._dir / f"pbd-{j}.json"
            spec = {"kind": "pbd", "ps": _heterogeneous_ps(rng, size).tolist()}
            path.write_text(json.dumps(spec))
            self.specs.append((str(path), size))

    def run(self, i: int) -> OpResult:
        path, size = self.specs[i % self.rounds]
        argv = [
            "test", "--spec", path, "--n", str(size), "--eps", "0.4", "--delta", "0.3",
            "--seed", str(op_seed(self.seed, i)),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            return OpResult(False, (code,), 0)
        artifact = json.loads(out.getvalue().splitlines()[-1])
        ok = artifact["schema"] == "pbdtest.verdict/1" and artifact["verdict"] == YES.value
        key = (artifact["verdict"], artifact["samples_used"])
        return OpResult(ok, key, artifact["samples_used"])

    def close(self):
        shutil.rmtree(self._dir, ignore_errors=True)


WORKLOADS = {
    "membership": Membership,
    "heavy": Heavy,
    "detection": Detection,
    "cli-pbd-spec": CliPbdSpec,
}
