"""Cluster topology: node device fleets and their scaling-layer view."""

import pytest

from repro.cluster.topology import JLSE, STAMPEDE
from repro.errors import ClusterError


class TestNodeConfig:
    def test_devices_are_fleet_ordered_host_last(self):
        node = JLSE.node(2)
        devices = node.devices
        assert len(devices) == 3
        assert devices[-1] is JLSE.host
        assert devices[0] is devices[1] is JLSE.mic

    def test_cpu_only_node_is_a_one_device_fleet(self):
        assert STAMPEDE.node(0).devices == [STAMPEDE.host]

    def test_invalid_mic_counts_rejected(self):
        with pytest.raises(ClusterError):
            JLSE.node(3)
        with pytest.raises(ClusterError):
            from repro.cluster.topology import NodeConfig

            NodeConfig(host=JLSE.host, mics_per_node=-1, mic=None)

    def test_curve_extents_match_paper(self):
        """Fig. 6: the 2-MIC Stampede curve stops at 384 nodes."""
        assert STAMPEDE.max_nodes(1) == 1024
        assert STAMPEDE.max_nodes(2) == 384

    def test_scaling_builds_symmetric_node_from_the_fleet(self):
        """The scaling drivers construct their per-node model from
        NodeConfig.devices (host last), not from the old host/mic pair."""
        from repro.cluster.scaling import _node_for
        from repro.execution.symmetric import FleetNode

        node = _node_for(JLSE, 2, "hm-large", None)
        assert isinstance(node, FleetNode)
        assert node.devices == [JLSE.mic, JLSE.mic, JLSE.host]
        assert node.n_ranks == 3
