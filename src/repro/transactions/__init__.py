"""Transaction-model substrate: who transacts with whom, how big, how often."""

from .distributions import (
    EmpiricalDistribution,
    TransactionDistribution,
    UniformDistribution,
)
from .ranking import degree_ranking, rank_factors, rank_factors_from_degrees
from .rates import (
    edge_probabilities,
    edge_rates,
    intermediary_traffic,
    traffic_profile,
)
from .sizes import (
    FixedSize,
    TransactionSizeDistribution,
    TruncatedExponentialSizes,
    UniformSizes,
)
from .workload import (
    PoissonWorkload,
    Transaction,
    build_poisson_workload,
)
from .zipf import ModifiedZipf

__all__ = [
    "EmpiricalDistribution",
    "FixedSize",
    "ModifiedZipf",
    "PoissonWorkload",
    "Transaction",
    "TransactionDistribution",
    "TransactionSizeDistribution",
    "TruncatedExponentialSizes",
    "UniformDistribution",
    "UniformSizes",
    "build_poisson_workload",
    "degree_ranking",
    "edge_probabilities",
    "edge_rates",
    "intermediary_traffic",
    "rank_factors",
    "rank_factors_from_degrees",
    "traffic_profile",
]
