"""Testing membership in the class of Poisson Binomial distributions.

A Poisson Binomial distribution (PBD) is the law of a sum of independent,
not necessarily identical, Bernoulli variables.  This package implements a
sample-efficient tester deciding, from samples alone, whether an unknown
distribution on {0, ..., n} is a PBD or far from every PBD in total
variation, together with the exact distribution machinery, seeded
sampling, an adversarial indistinguishable family, and brute-force
oracles that validate all of it.
"""

from .calibrated import TestConfig
from .distributions import (
    ExplicitDistribution,
    Pbd,
    TranslatedPoissonParams,
    binomial_pmf,
    effective_support_interval,
    pbd_pmf,
    translated_poisson_pmf,
    truncated_log,
    tv_distance,
)
from .learner import (
    LearnedPbd,
    learn_pbd,
)
from .lowerbound import (
    PerturbedBinomial,
    chi2_indistinguishability_bound,
    construct_perturbed_binomial,
    detection_experiment,
    unimodal_distance_lb,
)
from .sampling import SampleHistogram, SampleStream, StreamExhausted
from .tester import (
    Branch,
    TestVerdict,
    Verdict,
    chi2_closeness_test,
    heavy_case_test,
    l2_statistic,
    test_pbd,
)

__version__ = "0.1.0"
