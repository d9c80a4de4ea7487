"""Traffic-coupled network evolution: arrivals, churn, best-response.

The dynamic companion to the paper's static Section IV analysis: an
epoch-based engine that grows a channel network (arrival processes +
join algorithms), shrinks it (churn processes realising closure costs),
measures it (batched traffic epochs), and lets incumbents adapt
(empirical or analytic best-response dynamics) — recording a
:class:`Trajectory` of topology statistics, welfare, revenue
concentration, and distance to Nash equilibrium.

Importing this package registers the builtin growth/churn plugins into
the scenario registries; ``random_attach`` (the ``"random-attach"`` join
algorithm) lives with the other join algorithms in
:mod:`repro.core.algorithms` and is re-exported here.
"""

from ..core.algorithms.random_attach import random_attach
from .churn import ChurnProcess, DegreeBiasedChurn, UniformChurn
from .engine import EvolutionEngine
from .growth import ArrivalProcess, FixedGrowth, PoissonGrowth
from .runner import EvolutionOutcome, EvolutionRunner
from .trajectory import EpochRecord, Trajectory, classify_topology, gini
from .utility import (
    AnalyticUtilityProvider,
    EmpiricalUtilityProvider,
    UtilityProvider,
)

__all__ = [
    "AnalyticUtilityProvider",
    "ArrivalProcess",
    "ChurnProcess",
    "DegreeBiasedChurn",
    "EmpiricalUtilityProvider",
    "EpochRecord",
    "EvolutionEngine",
    "EvolutionOutcome",
    "EvolutionRunner",
    "FixedGrowth",
    "PoissonGrowth",
    "Trajectory",
    "UniformChurn",
    "UtilityProvider",
    "classify_topology",
    "gini",
    "random_attach",
]
