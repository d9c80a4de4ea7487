"""PCN substrate: channels, the channel graph, views, fees, HTLCs,
betweenness."""

from .betweenness import (
    BetweennessArrays,
    BetweennessResult,
    betweenness_arrays,
    pair_weighted_betweenness,
    pair_weighted_betweenness_exact,
)
from .views import (
    GraphView,
    bfs_distances,
    bfs_shortest_path_tree,
    shortest_path_indices,
)
from .channel import Channel
from .htlc import HtlcError, HtlcPayment, HtlcState
from .lifecycle import (
    ChannelLifecycle,
    CloseMode,
    LifecycleCosts,
    sample_close_mode,
)
from .fees import (
    ConstantFee,
    FeeFunction,
    LinearFee,
    PiecewiseLinearFee,
)
from .graph import ChannelGraph

__all__ = [
    "BetweennessArrays",
    "BetweennessResult",
    "GraphView",
    "betweenness_arrays",
    "bfs_distances",
    "bfs_shortest_path_tree",
    "shortest_path_indices",
    "Channel",
    "ChannelGraph",
    "ChannelLifecycle",
    "CloseMode",
    "ConstantFee",
    "LifecycleCosts",
    "sample_close_mode",
    "FeeFunction",
    "HtlcError",
    "HtlcPayment",
    "HtlcState",
    "LinearFee",
    "PiecewiseLinearFee",
    "pair_weighted_betweenness",
    "pair_weighted_betweenness_exact",
]
