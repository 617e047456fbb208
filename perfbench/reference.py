"""A fixed computation timed beside every op of the end-to-end loop.

On a shared 2-vCPU VM (see README.md) the speed changes by up to 2x from
one few-second phase to the next, so an op's wall time says as much about the
host as about the program.  ``run`` does a fixed amount of the kinds of
work pbdtest does, and the loop times it after every op; an op's latency
divided by the mean of the reference times on either side of it is in
units of the reference, and a host slowdown that lasts longer than an op
cancels.  The interpreted loop is about 40% of the reference: with it at
20%, the spread of detection's mean ratio over ten runs was 0.09, since
that workload's hot path is an interpreted loop.

The work is fixed: it does not depend on the workload seed and calls
nothing from pbdtest, so a change to the program moves the op times and
leaves the reference alone.  It takes 30-45 ms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

_N = 10_000
_KS = np.arange(_N + 1, dtype=np.float64)
_PMF = np.exp(gammaln(_N + 1.0) - (gammaln(_KS + 1.0) + gammaln(_N - _KS + 1.0)) - _N * math.log(2.0))
_PMF /= _PMF.sum()
_PS = np.linspace(0.05, 0.95, 700)
_WIDE = np.linspace(0.0, 1.0, 2 * _N)
_SCALARS = [math.sin(k) for k in range(3 * _N)]


def _python_loop() -> float:
    # Interpreted scalar code, like the mode scan of lowerbound.unimodal_distance_lb.
    best, acc = math.inf, 0.0
    for j in range(1, len(_SCALARS)):
        s = _SCALARS[j] + _SCALARS[j - 1]
        best = min(best, max(s, acc))
        acc += s * 1e-9
    return best


def _convolve(v: np.ndarray, ps: np.ndarray, grow: bool) -> np.ndarray:
    # The Bernoulli-by-Bernoulli update of distributions.pbd_pmf.
    for p in ps:
        new = np.empty(len(v) + 1)
        new[: len(v)] = v * (1.0 - p)
        new[len(v)] = 0.0
        new[1:] += v * p
        v = new if grow else new[:-1]
    return v


def _log_pmf() -> None:
    # Special functions over a support of 10^4, like distributions.binomial_pmf.
    for _ in range(6):
        np.exp(gammaln(_N + 1.0) - (gammaln(_KS + 1.0) + gammaln(_N - _KS + 1.0)) - _N * math.log(2.0))


def _multinomial() -> None:
    # Histogram draws over 10^4 bins, like sampling.SampleStream.draw_histogram.
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(8):
        rng.multinomial(10**7, _PMF)


def _interval_search() -> None:
    # Prefix sums and sorted search, like distributions.effective_support_interval.
    for _ in range(20):
        cs = np.concatenate(([0.0], np.cumsum(_PMF)))
        np.searchsorted(cs, cs[:-1] + 0.9, side="left")


def run() -> None:
    """One pass of the reference work."""
    _python_loop()
    _convolve(np.array([1.0]), _PS, grow=True)
    _convolve(_WIDE.copy(), _PS[:250], grow=False)
    _log_pmf()
    _multinomial()
    _interval_search()
