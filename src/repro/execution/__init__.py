"""Execution models: offload, native, and symmetric (paper §II-B).

Cost models and split planners only: each model *prices* a device setup
and the planners decide who transports which particles.  Nothing here
imports transport — ranks are run by
:class:`repro.cluster.distributed.DistributedSimulation`, a single device
by :class:`repro.transport.simulation.Simulation`.
"""

from .loadbalance import (
    AdaptiveAlphaController,
    alpha_split,
    alpha_split_counts,
    equal_split,
    fleet_split,
)
from .native import ACTIVE_TALLY_SURCHARGE, NativeModel, alpha
from .offload import OFFLOAD_FIXED_S, OffloadCostModel
from .rebalance import StealEvent, WorkStealingRebalancer
from .symmetric import NODE_SYNC_S, FleetNode

__all__ = [
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
    "alpha",
    "OFFLOAD_FIXED_S",
    "OffloadCostModel",
    "NODE_SYNC_S",
]
