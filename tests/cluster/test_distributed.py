"""Tests for the executable distributed simulation.

The central claim: an R-rank run through the simulated communicator is
bit-identical to the serial run — global particle-id RNG streams plus
additive tallies make MC transport decomposition exact, which is why the
paper's distributed analysis reduces to per-node rate modelling.
"""

import numpy as np
import pytest

from repro.cluster.distributed import DistributedSimulation
from repro.errors import ClusterError
from repro.transport import Settings, Simulation

SETTINGS = Settings(
    n_particles=90, n_inactive=1, n_active=2, pincell=True,
    mode="event", seed=17,
)


@pytest.fixture(scope="module")
def serial(small_library):
    return Simulation(small_library, SETTINGS).run()


class TestBitEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 7])
    def test_matches_serial(self, small_library, serial, n_ranks):
        dist = DistributedSimulation(small_library, SETTINGS, n_ranks).run()
        np.testing.assert_allclose(
            dist.statistics.k_collision,
            serial.statistics.k_collision,
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            dist.statistics.k_track, serial.statistics.k_track, rtol=1e-12
        )

    def test_history_mode_too(self, small_library):
        settings = Settings(
            n_particles=60, n_inactive=0, n_active=2, pincell=True,
            mode="history", seed=23,
        )
        serial = Simulation(small_library, settings).run()
        dist = DistributedSimulation(small_library, settings, 4).run()
        np.testing.assert_allclose(
            dist.statistics.k_collision,
            serial.statistics.k_collision,
            rtol=1e-12,
        )


class TestDecomposition:
    def test_uneven_split(self, small_library):
        dist = DistributedSimulation(small_library, SETTINGS, 4).run()
        assert dist.per_rank_particles == [23, 23, 22, 22]

    def test_comm_time_grows_with_ranks(self, small_library):
        t2 = DistributedSimulation(small_library, SETTINGS, 2).run().comm_time
        t7 = DistributedSimulation(small_library, SETTINGS, 7).run().comm_time
        assert 0 < t2 < t7

    def test_comm_tiny_vs_anything(self, small_library):
        """Per-batch collectives are microseconds — the paper's scaling
        argument."""
        dist = DistributedSimulation(small_library, SETTINGS, 8).run()
        assert dist.comm_time < 0.01

    def test_invalid_ranks(self, small_library):
        with pytest.raises(ClusterError):
            DistributedSimulation(small_library, SETTINGS, 0)
