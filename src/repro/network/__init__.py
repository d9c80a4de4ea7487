"""PCN substrate: channels, the channel graph, views, fees, routing,
betweenness."""

from .betweenness import (
    BetweennessArrays,
    BetweennessResult,
    betweenness_arrays,
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
    uniform_pair_weight,
)
from .views import (
    GraphView,
    bfs_distances,
    bfs_shortest_path_tree,
    shortest_path_indices,
)
from .channel import Channel, PaymentRecord
from .htlc import Htlc, HtlcError, HtlcPayment, HtlcRouter, HtlcState
from .lifecycle import (
    ChannelLifecycle,
    CloseMode,
    LifecycleCosts,
    sample_close_mode,
)
from .rebalancing import (
    ChannelImbalance,
    auto_rebalance,
    channel_imbalances,
    execute_rebalance,
    find_rebalancing_cycle,
)
from .fees import (
    ConstantFee,
    FeeFunction,
    LinearFee,
    PiecewiseLinearFee,
    average_fee,
)
from .graph import ChannelGraph
from .reduced import feasible_pairs, infeasible_edges, reduced_view
from .routing import PaymentOutcome, Route, Router

__all__ = [
    "BetweennessArrays",
    "BetweennessResult",
    "GraphView",
    "betweenness_arrays",
    "bfs_distances",
    "bfs_shortest_path_tree",
    "shortest_path_indices",
    "reduced_view",
    "Channel",
    "ChannelGraph",
    "ChannelImbalance",
    "ChannelLifecycle",
    "CloseMode",
    "ConstantFee",
    "LifecycleCosts",
    "sample_close_mode",
    "FeeFunction",
    "Htlc",
    "HtlcError",
    "HtlcPayment",
    "HtlcRouter",
    "HtlcState",
    "LinearFee",
    "PaymentOutcome",
    "PaymentRecord",
    "PiecewiseLinearFee",
    "Route",
    "Router",
    "auto_rebalance",
    "average_fee",
    "channel_imbalances",
    "execute_rebalance",
    "find_rebalancing_cycle",
    "feasible_pairs",
    "infeasible_edges",
    "pair_weighted_betweenness",
    "pair_weighted_betweenness_exact",
    "uniform_pair_weight",
]
