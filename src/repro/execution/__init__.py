"""Execution models: offload, native, and symmetric (paper §II-B).

Each model is a cost model (pricing) plus a scheduler (execution): the
schedulers receive an :class:`~repro.execution.context.ExecutionContext`
carrying a transport backend selected by name from the registry, so no
execution model imports transport loop functions.
"""

from .context import ExecutionContext
from .loadbalance import (
    AdaptiveAlphaController,
    alpha_split,
    alpha_split_counts,
    equal_split,
    fleet_split,
)
from .native import ACTIVE_TALLY_SURCHARGE, NativeModel, NativeScheduler, alpha
from .offload import OFFLOAD_FIXED_S, OffloadCostModel, OffloadScheduler
from .rebalance import StealEvent, WorkStealingRebalancer
from .symmetric import NODE_SYNC_S, FleetNode, SymmetricScheduler
from .trace import OffloadTrace, trace_offload

__all__ = [
    "ExecutionContext",
    "AdaptiveAlphaController",
    "alpha_split",
    "alpha_split_counts",
    "equal_split",
    "fleet_split",
    "StealEvent",
    "WorkStealingRebalancer",
    "FleetNode",
    "ACTIVE_TALLY_SURCHARGE",
    "NativeModel",
    "NativeScheduler",
    "alpha",
    "OFFLOAD_FIXED_S",
    "OffloadCostModel",
    "OffloadScheduler",
    "NODE_SYNC_S",
    "SymmetricScheduler",
    "OffloadTrace",
    "trace_offload",
]
