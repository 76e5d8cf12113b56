"""Strong and weak scaling drivers (Figs. 6-7).

A scaling run distributes a total particle population across ``p``
identical symmetric nodes (static alpha load balancing within each node),
executes the per-batch reduction and fission-bank exchange through the
simulated communicator, and reports per-scale rates and efficiencies.

The two effects the paper's Fig. 6 shows emerge from the model rather than
being programmed in:

* near-perfect scaling at moderate scales (communication is microseconds
  against seconds of compute);
* the 1-MIC curve's tail at 1,024 nodes — with only ~1e4 particles per node,
  Eq. 3's static alpha (measured at high occupancy) sends the MIC more work
  than its occupancy-degraded rate can absorb, so the node waits on the MIC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ClusterError
from ..execution.symmetric import FleetNode
from ..machine.kernels import WorkPerParticle
from .simcomm import SimulatedComm
from .topology import ClusterTopology

__all__ = ["ScalePoint", "strong_scaling", "weak_scaling"]

#: Bytes of the per-batch global tally reduction payload (the packed
#: GlobalTallies array).
TALLY_REDUCE_BYTES = 7 * 8


@dataclass(frozen=True)
class ScalePoint:
    """One point of a scaling curve."""

    nodes: int
    particles_per_node: int
    batch_time: float
    comm_time: float
    rate: float
    efficiency: float


def _node_for(
    topology: ClusterTopology,
    mics_per_node: int,
    model: str,
    work: WorkPerParticle | None,
) -> FleetNode:
    return FleetNode(topology.node(mics_per_node).devices, model, work)


def _batch_time(
    node: FleetNode, comm: SimulatedComm, n_node: int, alpha: float | None
) -> tuple[float, float]:
    """Per-batch node time + cluster communication time (on a CPU-only
    node the alpha split is the equal one)."""
    strategy = "alpha" if alpha is not None else "equal"
    t_compute = node.batch_time(n_node, strategy, alpha)
    # Tally allreduce + fission-bank exchange with ~5% imbalance.
    tallies = [np.zeros(TALLY_REDUCE_BYTES // 8) for _ in range(comm.n_ranks)]
    _, t_reduce = comm.allreduce_sum(tallies)
    counts = [n_node] * comm.n_ranks
    counts[0] = int(n_node * 1.05)
    t_bank = comm.exchange_bank(counts)
    return t_compute, t_reduce + t_bank


def strong_scaling(
    topology: ClusterTopology,
    node_counts: list[int],
    n_total: int,
    mics_per_node: int,
    model: str = "hm-large",
    alpha: float | None = None,
    work: WorkPerParticle | None = None,
) -> list[ScalePoint]:
    """Fixed total particles, growing node counts (Fig. 6).

    Efficiency is relative to the smallest allotment in ``node_counts``
    (the paper uses 4 nodes as its reference, the smallest fit for 1e7
    particles).
    """
    if not node_counts:
        raise ClusterError("need at least one node count")
    limit = topology.max_nodes(mics_per_node)
    node = _node_for(topology, mics_per_node, model, work)
    points: list[ScalePoint] = []
    ref_time_x_nodes: float | None = None
    for p in sorted(node_counts):
        if p > limit:
            continue
        n_node = n_total // p
        comm = SimulatedComm(p, topology.fabric)
        t_compute, t_comm = _batch_time(node, comm, n_node, alpha)
        t = t_compute + t_comm
        if ref_time_x_nodes is None:
            ref_time_x_nodes = t * p
        eff = ref_time_x_nodes / (t * p)
        points.append(
            ScalePoint(
                nodes=p,
                particles_per_node=n_node,
                batch_time=t,
                comm_time=t_comm,
                rate=n_total / t,
                efficiency=eff,
            )
        )
    return points


def weak_scaling(
    topology: ClusterTopology,
    node_counts: list[int],
    n_per_node: int,
    mics_per_node: int,
    model: str = "hm-large",
    alpha: float | None = None,
    work: WorkPerParticle | None = None,
) -> list[ScalePoint]:
    """Fixed particles per node, growing node counts (Fig. 7).

    Efficiency is the single-reference batch time over the batch time at
    scale (flat curve = perfect weak scaling).
    """
    if not node_counts:
        raise ClusterError("need at least one node count")
    limit = topology.max_nodes(mics_per_node)
    node = _node_for(topology, mics_per_node, model, work)
    points: list[ScalePoint] = []
    ref_time: float | None = None
    for p in sorted(node_counts):
        if p > limit:
            continue
        comm = SimulatedComm(p, topology.fabric)
        t_compute, t_comm = _batch_time(node, comm, n_per_node, alpha)
        t = t_compute + t_comm
        if ref_time is None:
            ref_time = t
        points.append(
            ScalePoint(
                nodes=p,
                particles_per_node=n_per_node,
                batch_time=t,
                comm_time=t_comm,
                rate=n_per_node * p / t,
                efficiency=ref_time / t,
            )
        )
    return points
