"""The split-run contract, shared by the cluster-driver test modules.

A :class:`DistributedSimulation` transports the serial run's histories
whatever the split: work counters and the bank-derived entropy trace are
exact, the k traces agree to summation-order tolerance (rel 1e-12).  Two
distributed runs of the same assignments agree bit for bit.
"""

import numpy as np

from repro.cluster.distributed import DistributedSimulation

K_TRACES = ("k_collision", "k_absorption", "k_track")


def run_ranks(library, settings, n_ranks, **kwargs):
    """An ``n_ranks`` run; returns ``(driver, result)`` — the driver for
    its transport context's work counters."""
    sim = DistributedSimulation(library, settings, n_ranks, **kwargs)
    return sim, sim.run()


def assert_on_contract(serial, run):
    """``run`` (from :func:`run_ranks`) against the serial result."""
    sim, dist = run
    assert sim.ctx.counters.as_dict() == serial.counters.as_dict()
    assert dist.statistics.entropy == serial.statistics.entropy
    for name in K_TRACES:
        np.testing.assert_allclose(
            getattr(dist.statistics, name), getattr(serial.statistics, name),
            rtol=1e-12,
        )


def assert_bitwise(a, b):
    """Two :func:`run_ranks` runs of the same assignments: all exact."""
    (sim_a, dist_a), (sim_b, dist_b) = a, b
    assert sim_a.ctx.counters.as_dict() == sim_b.ctx.counters.as_dict()
    assert dist_a.statistics.entropy == dist_b.statistics.entropy
    for name in K_TRACES:
        assert getattr(dist_a.statistics, name) == getattr(
            dist_b.statistics, name
        )
