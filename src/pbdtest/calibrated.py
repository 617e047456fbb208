"""Every tunable constant of the membership test and its learner.

``TestConfig``'s field defaults are the only place a tunable constant is
written.  Its methods derive the thresholds and each stage's sample count
(``learn_samples``, ``tolerant_samples``, ``moment_samples`` and
``l2_sample_rate``); the learner and every stage read both from the
config they are handed, and draw exactly those counts.

The two statistic constants were fixed by the pre-build sweep in
``oracles.calibration_report`` (regenerate via
``pbdtest oracle --suite calibration --seed 0``) over a corpus of
pivot/perturbation pairs at TV = 0.35 eps with sigma_hat in {16, 25, 50}
and eps in {0.1, 0.15, 0.2}:

* the sample constant is the smallest grid value that simultaneously keeps
  the closed-form spread Var/E^2 of the count statistic at or under 0.05
  on the far corpus and puts the acceptance threshold at least 2.5 noise
  standard deviations above zero in the close regime (realised: spread
  <= 0.024, close margin 2.66);
* the threshold constant is the far-corpus floor (smallest implied
  constant, 0.177) divided by a 1.5x safety margin and rounded down to
  0.1, leaving the far cases 5.7+ standard deviations above threshold.

The two learning constants were fixed by the Monte-Carlo sweeps in
``oracles.learning_calibration_report`` (regenerate both via
``pbdtest oracle --suite learning --seed 0``, about 45 s).  A sweep runs,
for every value of its grid, 200 seeded unamplified base tests per
source of a nine-source corpus: Binomial(n, 1/2), Binomial(n, 0.3), a
heterogeneous Bernoulli sum with p_i ~ U(0.05, 0.95), 16 fair coins and
ten coins at 0.05 with ten at 0.95 as members; the half/half law on
{0, n} and the certified c = 8 perturbed binomial as far sources; and,
with every run sent down the heavy branch, Binomial(n, 1/2) and a paired
perturbation of the (n/2, n/4) shifted-Poisson pivot at TV 0.35 eps.  A
grid value passes when every base-run error rate is at most 0.2 and, for
a constant the learner reads, every learner miss rate at most 0.1; the
rule takes the smallest value from which every larger one passes and
chooses the next grid value above it, as a margin.

* The learner's sample constant A_L (``learn_sample_const``) is swept
  over {0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200} at n = 10^4 and
  eps = 0.1.  On every member the sweep also runs 200 ``learn_pbd`` calls
  at the learner's own eps = 0.1 and counts the hypotheses more than eps
  from the source in TV.  The learner's own accuracy binds: 0.5 fails
  (24% misses on the 0.05/0.95 coins), 1 passes (at most 1.5%), and
  the choice is 2 (it was 200 before calibration version 2).
* The learning-accuracy divisor D (``learn_accuracy_const``; the tester
  learns at eps / D) is swept over {1, 2, 3, 4, 5, 6, 8, 10} at n = 10^4
  with eps = 0.1 and with eps = 0.05, and passes only where it passes at
  both.  ``learn_pbd`` does not read D, so no miss rate is run.  D = 1
  fails: it rejects the 0.05/0.95 coins on 55% of runs at eps = 0.1
  (35% at 0.05).  D = 2 passes (at most 2.5%), and the choice is 3
  (it was 10 before calibration version 3), whose error rates equal those
  of D = 10 at eps = 0.1 (at most 1.5%, the heavy binomial's own rate).
  A base run on Binomial(n, 1/2) at eps = 0.1 then draws about 253k
  samples, 21k of them to learn, instead of 657k at D = 10.

The majority is not calibrated: ``BASE_ERROR`` is the base test's
guarantee, an error of at most 1/3 per run, and ``TestConfig.repetitions``
plans the smallest vote whose exact binomial tail at that error is at most
delta (15 runs at delta = 0.1, where Hoeffding's ceil(18 ln(1/delta)) gave
42).

Bump CALIBRATION_VERSION whenever a calibrated value changes (version 2:
A_L from 200 to 2; version 3: D from 10 to 3).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

from .distributions import truncated_log

__all__ = ["CALIBRATION_VERSION", "TestConfig"]

CALIBRATION_VERSION = 3

# q: the base test's error bound that the majority is planned for.
BASE_ERROR = Fraction(1, 3)


def _is_real(v) -> bool:
    """A config number: an int or float, but not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class TestConfig:
    """Every tunable absolute constant of the test, plus eps, delta and seed.

    Short names in comments give the conventional symbol for each knob.
    ``tail_cut`` bounds the mass dropped off the ends of the learned binomial
    hypothesis and of the heavy branch's pivot, so it doubles as the numeric
    tolerance of the deterministic pivot-vs-hypothesis TV estimate, which
    must stay within eps/5.
    ``seed`` is never read by the test: verdicts follow the stream's seed,
    and the field is only echoed into the artifact's ``config`` block.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    eps: float
    delta: float
    seed: int = 0
    var_threshold_const: float = 4.0  # C: sparse/heavy variance split
    l2_sample_const: float = 80.0  # C1: Poissonized rate multiplier, see l2_sample_rate
    # c: acceptance threshold 0.25 * c * eps^2 / (sigma_hat * sqrt(logt(1/eps)))
    l2_far_const: float = 0.1
    tolerant_sample_const: float = 10.0  # A_tol: see tolerant_samples
    moment_sample_const: float = 200.0  # A_m: see moment_samples
    learn_sample_const: float = 2.0  # A_L: see learn_samples
    learn_accuracy_const: float = 3.0  # D: the tester learns at eps / D
    sparse_len_const: float = 4.0  # A_s: sparse support cap ceil(A_s / eps^3)
    amplification_reps: int | None = None  # R: majority runs; None plans them from delta
    tail_cut: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not (_is_real(self.tail_cut) and 0.0 < self.tail_cut <= 1e-6):
            raise ValueError(f"tail_cut must be a number in (0, 1e-6], got {self.tail_cut!r}")
        reps = self.amplification_reps
        if reps is not None and not (type(reps) is int and reps >= 1):  # bool is not int here
            raise ValueError(f"amplification_reps must be null or an integer >= 1, got {reps!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.endswith("_const") and not (_is_real(v) and 0 < v < math.inf):
                raise ValueError(f"{f.name} must be finite and positive, got {v!r}")
        if self.learn_accuracy_const < 1.0:  # the learner needs an eps below 1
            raise ValueError(
                f"learn_accuracy_const must be at least 1, got {self.learn_accuracy_const!r}"
            )

    def replace(self, **kw) -> "TestConfig":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["calibration_version"] = CALIBRATION_VERSION
        return out

    # -- derived quantities -------------------------------------------------

    @property
    def logt(self) -> float:
        return truncated_log(1.0 / self.eps)

    def variance_threshold(self) -> float:
        return self.var_threshold_const * self.logt**4 / self.eps**8

    def learn_samples(self, eps: float) -> int:
        """The learner's draw at its own eps: ceil(A_L logt^2(1/eps) / eps^2)."""
        return math.ceil(self.learn_sample_const * truncated_log(1.0 / eps) ** 2 / eps**2)

    def tolerant_samples(self, m: int) -> int:
        """The sparse branch's draw on an interval of m points: ceil(A_tol m / eps^2)."""
        return math.ceil(self.tolerant_sample_const * m / self.eps**2)

    def moment_samples(self, n: int) -> int:
        """The heavy branch's moments draw: ceil(A_m / eps'^2), eps' = eps / max(n/4, 1)^(1/8)."""
        eps_prime = self.eps / max(n / 4.0, 1.0) ** 0.125
        return math.ceil(self.moment_sample_const / eps_prime**2)

    def l2_sample_rate(self, sigma_hat: float) -> int:
        """The heavy branch's Poissonized rate: ceil(C1 sqrt(sigma_hat logt) / eps^2)."""
        return math.ceil(self.l2_sample_const * math.sqrt(sigma_hat * self.logt) / self.eps**2)

    def l2_threshold(self, sigma_hat: float) -> float:
        return 0.25 * self.l2_far_const * self.eps**2 / (sigma_hat * math.sqrt(self.logt))

    def repetitions(self) -> int:
        """The majority's planned runs: ``amplification_reps`` when set, else
        the smallest R whose vote errs with probability at most delta when
        each base run errs with probability at most ``BASE_ERROR``.

        A member loses with probability P[Bin(R, q) >= ceil(R/2)] (a tie
        rejects) and a far source wins with P[Bin(R, q) > R/2]; both tails
        grow with q, so the bound holds for every base error up to q.  The first tail is the
        larger, and at even R = 2m it is at least its value at 2m - 1, so the
        smallest R is odd, where the two tails are equal.  From odd R to
        R + 2 the tail falls by C(R, m) (q(1 - q))^(m+1) (1 - 2q), m = (R-1)/2,
        which the scan subtracts in exact integers scaled by the denominator
        of q to the power R.
        """
        if self.amplification_reps is not None:
            return self.amplification_reps
        a, b = BASE_ERROR.numerator, BASE_ERROR.denominator
        delta = Fraction(self.delta)
        reps, tail = 1, a  # P[Bin(1, q) >= 1] * b
        while tail * delta.denominator > delta.numerator * b**reps:
            m = reps // 2
            tail = tail * b * b - math.comb(reps, m) * (a * (b - a)) ** (m + 1) * (b - 2 * a)
            reps += 2
        return reps
