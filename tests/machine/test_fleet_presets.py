"""GPU-era device presets, the device/link registries, and the fleet
view of the cost model (ISSUE 9: heterogeneous N-device fleets)."""

import pytest

from repro.cluster.topology import FLEET_PRESETS, available_fleets, fleet_by_name
from repro.errors import ClusterError, ExecutionError, MachineModelError
from repro.execution.symmetric import FleetNode
from repro.machine.presets import (
    EPYC_HOST,
    GPU_A100,
    GPU_MI250X,
    JLSE_HOST,
    MIC_7120A,
    NVLINK3,
    available_devices,
    available_links,
    device_by_name,
    fleet_from_names,
    link_by_name,
)


class TestGpuSpecs:
    def test_a100_matches_published_parameters(self):
        """108 SMs x 64 resident warps; 32 f64 lanes/warp; the peak f64
        rate works out to the published 9.7 TFLOP/s."""
        assert GPU_A100.threads == 108 * 64 == 6912
        assert GPU_A100.vector_lanes("f64") == 32
        assert GPU_A100.peak_vector_flops("f64") == pytest.approx(
            9.74e12, rel=0.01
        )
        assert GPU_A100.dram_bw_gbps == 1555.0

    def test_class_keys(self):
        """GPUs get their own kernel-constant column; CPUs/MICs keep the
        2013-era derivation from out_of_order."""
        assert GPU_A100.class_key == "gpu"
        assert GPU_MI250X.class_key == "gpu"
        assert EPYC_HOST.class_key == "ooo"
        assert JLSE_HOST.class_key == "ooo"
        assert MIC_7120A.class_key == "in_order"

    def test_gpu_kind_is_not_out_of_order(self):
        """The gpu column applies regardless of the out_of_order flag the
        warp scheduler would otherwise be shoehorned into."""
        assert not GPU_A100.out_of_order
        assert GPU_A100.kind == "gpu"

    def test_unknown_kind_rejected(self):
        from repro.machine.spec import DeviceSpec

        with pytest.raises(MachineModelError, match="kind"):
            DeviceSpec(
                name="x", cores=1, threads_per_core=1, clock_ghz=1.0,
                vector_bits=256, dram_bw_gbps=1.0, mem_gb=1.0,
                out_of_order=True, kind="tpu",
            )


class TestDeviceRegistry:
    def test_alias_and_full_name_resolve_to_same_spec(self):
        assert device_by_name("a100") is GPU_A100
        assert device_by_name("gpu-a100-sxm") is GPU_A100
        assert device_by_name("jlse-host") is JLSE_HOST

    def test_unknown_device_error_lists_live_registry(self):
        """The transport backend registry-error convention: the error
        names every available device."""
        with pytest.raises(MachineModelError) as err:
            device_by_name("h100")
        msg = str(err.value)
        assert "unknown device 'h100'" in msg
        for name in available_devices():
            assert name in msg

    def test_fleet_from_names_preserves_order(self):
        fleet = fleet_from_names(["a100", "epyc-host", "a100"])
        assert [d.name for d in fleet] == [
            "gpu-a100-sxm", "epyc-host-2x7763", "gpu-a100-sxm",
        ]

    def test_link_registry(self):
        assert link_by_name("nvlink3") is NVLINK3
        assert "pcie-gen2-x16" in available_links()
        with pytest.raises(MachineModelError) as err:
            link_by_name("nvlink9")
        assert "available links" in str(err.value)
        for name in available_links():
            assert name in str(err.value)


class TestFleetPresets:
    def test_every_preset_resolves(self):
        for name in available_fleets():
            fleet = fleet_by_name(name)
            assert len(fleet) == len(FLEET_PRESETS[name])
            # Host-last ordering (the FleetNode convention).
            assert fleet[-1].class_key == "ooo"

    def test_jlse_node_is_the_paper_node(self):
        fleet = fleet_by_name("jlse-node")
        assert [d.name for d in fleet] == [
            MIC_7120A.name, MIC_7120A.name, JLSE_HOST.name,
        ]

    def test_unknown_fleet_error_lists_registry(self):
        with pytest.raises(ClusterError) as err:
            fleet_by_name("dgx-node")
        msg = str(err.value)
        assert "unknown fleet 'dgx-node'" in msg
        for name in available_fleets():
            assert name in msg


class TestFleetNodeModel:
    def test_rate_strategy_beats_equal_on_heterogeneous_fleet(self):
        node = FleetNode(fleet_by_name("a100-node"), "hm-large")
        n = 1_000_000
        assert node.calculation_rate(n, "rate") > 1.5 * node.calculation_rate(
            n, "equal"
        )

    def test_rate_strategy_matches_equal_on_homogeneous_fleet(self):
        node = FleetNode([EPYC_HOST, EPYC_HOST], "hm-large")
        n = 100_000
        assert node.calculation_rate(n, "rate") == pytest.approx(
            node.calculation_rate(n, "equal"), rel=1e-6
        )

    def test_weights_strategy_requires_weights(self):
        node = FleetNode([EPYC_HOST], "hm-small")
        with pytest.raises(ExecutionError):
            node.fleet_counts(100, "weights")
        assert node.fleet_counts(100, "weights", weights=[1.0]) == [100]

    def test_empty_fleet_rejected(self):
        with pytest.raises(ExecutionError):
            FleetNode([], "hm-small")

    def test_symmetric_node_is_a_two_class_fleet_view(self):
        """The paper's host+MICs node is a FleetNode in rank order
        [*mics, host]; its ``"alpha"`` strategy is Eq. 3's two-class
        split, host last (counts recorded from the host+MICs subclass
        this replaced)."""
        node = FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large")
        assert node.fleet_counts(100_000, "alpha", 0.62) == [
            38_168, 38_168, 23_664,
        ]
        one = FleetNode([MIC_7120A, JLSE_HOST], "hm-large")
        assert one.fleet_counts(100_000, "alpha", 0.62) == [61_728, 38_272]
        cpu_only = FleetNode([JLSE_HOST], "hm-large")
        assert cpu_only.fleet_counts(100_000, "alpha", 0.62) == [100_000]
        with pytest.raises(ExecutionError, match="requires alpha"):
            node.fleet_counts(100_000, "alpha")

    def test_modern_crossover_shape(self):
        """Fig. 5 at modern scale: the host out-runs a starved GPU on
        tiny batches; the GPU dominates at production batch sizes."""
        gpu = FleetNode([device_by_name("a100")], "hm-large")
        host = FleetNode([EPYC_HOST], "hm-large")
        assert host.calculation_rate(1_000) > gpu.calculation_rate(1_000)
        assert gpu.calculation_rate(1_000_000) > 5 * host.calculation_rate(
            1_000_000
        )
