"""SIMD substrate: a counting lane machine and vectorization primitives."""

from .analysis import divergence_loss, queue_lane_efficiency
from .gather import compress, expand, partition_by_key
from .kernels import (
    distance_kernel_intrinsics,
    distance_kernel_scalar,
    instruction_ratio,
    masked_lookup_kernel,
)
from .lanes import LaneCounters, VectorUnit

__all__ = [
    "divergence_loss",
    "queue_lane_efficiency",
    "compress",
    "expand",
    "partition_by_key",
    "distance_kernel_intrinsics",
    "distance_kernel_scalar",
    "instruction_ratio",
    "masked_lookup_kernel",
    "LaneCounters",
    "VectorUnit",
]
