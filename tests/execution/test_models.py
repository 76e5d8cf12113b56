"""Tests for the offload / native / symmetric execution models."""

import pytest

from repro.errors import ExecutionError
from repro.execution.native import NativeModel, alpha
from repro.execution.offload import OffloadCostModel
from repro.execution.symmetric import FleetNode
from repro.machine.presets import JLSE_HOST, MIC_7120A, PCIE_GEN2_X16


@pytest.fixture(scope="module")
def offload_small():
    return OffloadCostModel(JLSE_HOST, MIC_7120A, PCIE_GEN2_X16, "hm-small")


@pytest.fixture(scope="module")
def offload_large():
    return OffloadCostModel(JLSE_HOST, MIC_7120A, PCIE_GEN2_X16, "hm-large")


class TestOffloadTableII:
    """Table II anchors at 1e5 particles."""

    def test_banking_host(self, offload_small, offload_large):
        assert offload_small.banking_time_host(100_000) == pytest.approx(
            0.004, rel=0.05
        )
        # Host banking is model-independent (base state only).
        assert offload_large.banking_time_host(100_000) == pytest.approx(
            0.004, rel=0.05
        )

    def test_banking_mic(self, offload_small, offload_large):
        assert offload_small.banking_time_mic(100_000) == pytest.approx(
            0.021, rel=0.10
        )
        assert offload_large.banking_time_mic(100_000) == pytest.approx(
            0.034, rel=0.05
        )

    def test_transfer(self, offload_small, offload_large):
        assert offload_small.transfer_time(100_000) == pytest.approx(0.46, rel=0.2)
        assert offload_large.transfer_time(100_000) == pytest.approx(2.21, rel=0.05)

    def test_mic_compute(self, offload_small, offload_large):
        assert offload_small.mic_compute_time(100_000) == pytest.approx(
            0.017, rel=0.05
        )
        assert offload_large.mic_compute_time(100_000) == pytest.approx(
            0.101, rel=0.05
        )

    def test_grid_transfer_5gb_per_s(self, offload_large):
        """Paper: ~1 second per 5 GB, grid is 8.37 GB."""
        assert offload_large.grid_transfer_time() == pytest.approx(1.7, rel=0.15)


class TestOffloadCrossover:
    def test_crossover_near_1e4(self, offload_small):
        """Fig. 3: offload profitable above ~10,000 particles."""
        n = offload_small.crossover_particles()
        assert 3_000 < n < 30_000

    def test_unprofitable_below(self, offload_small):
        assert not offload_small.profitable(1_000)

    def test_profitable_above(self, offload_small):
        assert offload_small.profitable(1_000_000)

    def test_ratio_trends(self, offload_small):
        """Fig. 3's trends: transfer ratio falls, host-XS ratio rises,
        MIC-compute ratio falls as N grows."""
        lo = offload_small.normalized_ratios(1_000)
        hi = offload_small.normalized_ratios(1_000_000)
        assert hi["transfer"] < lo["transfer"]
        assert hi["host_xs_compute"] > lo["host_xs_compute"]
        assert hi["mic_compute"] <= lo["mic_compute"]

    def test_rejects_ooo_target(self):
        with pytest.raises(ExecutionError):
            OffloadCostModel(JLSE_HOST, JLSE_HOST, PCIE_GEN2_X16, "hm-small")


class TestNative:
    def test_fig4_speedup(self):
        """Fig. 4: MIC native total time ~1.5x faster than host."""
        host = NativeModel(JLSE_HOST, "hm-large")
        mic = NativeModel(MIC_7120A, "hm-large")
        ratio = host.total_time(10_000_000, 2, 8) / mic.total_time(
            10_000_000, 2, 8
        )
        assert 1.4 < ratio < 1.75

    def test_alpha_function(self):
        a = alpha(JLSE_HOST, MIC_7120A, "hm-large", 100_000)
        assert a == pytest.approx(0.62, abs=0.02)

    def test_alpha_stable_above_1e4(self):
        """Fig. 5: alpha consistent when simulating at least 1e4 particles
        (the paper quotes 0.61-0.62; the model stays within a narrow band)."""
        values = [
            alpha(JLSE_HOST, MIC_7120A, "hm-large", n)
            for n in (10_000, 30_000, 100_000, 1_000_000)
        ]
        assert max(values) - min(values) < 0.06
        assert all(0.58 < v < 0.68 for v in values)

    def test_alpha_drifts_below_1e4(self):
        """Fig. 6's 1024-node tail mechanism: with ~1e4 particles or fewer
        per node, alpha rises (the MIC starves first)."""
        assert alpha(JLSE_HOST, MIC_7120A, "hm-large", 1_000) > 1.1 * alpha(
            JLSE_HOST, MIC_7120A, "hm-large", 100_000
        )

    def test_active_batches_slightly_slower(self):
        m = NativeModel(MIC_7120A, "hm-large")
        assert m.calculation_rate(100_000, active=True) < m.calculation_rate(
            100_000, active=False
        )

    def test_oom_returns_zero(self):
        m = NativeModel(MIC_7120A, "hm-large")
        assert m.calculation_rate(10**9) == 0.0

    def test_small_model_faster(self):
        small = NativeModel(MIC_7120A, "hm-small")
        large = NativeModel(MIC_7120A, "hm-large")
        assert small.calculation_rate(100_000) > large.calculation_rate(100_000)


class TestSymmetricTableIII:
    @pytest.fixture(scope="class")
    def nodes(self):
        return {
            "cpu": FleetNode([JLSE_HOST], "hm-large"),
            "1mic": FleetNode([MIC_7120A, JLSE_HOST], "hm-large"),
            "2mic": FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large"),
        }

    def test_cpu_only_anchor(self, nodes):
        assert nodes["cpu"].calculation_rate(100_000) == pytest.approx(
            4050, rel=0.05
        )

    def test_equal_split_loses_to_ideal(self, nodes):
        """Table III: static equal split under-performs the sum of rates."""
        for key in ("1mic", "2mic"):
            node = nodes[key]
            assert node.calculation_rate(100_000, "equal") < node.ideal_rate(
                100_000
            )

    def test_alpha_balancing_recovers(self, nodes):
        """Load balancing with alpha=0.62 recovers most of the gap."""
        for key in ("1mic", "2mic"):
            node = nodes[key]
            equal = node.calculation_rate(100_000, "equal")
            balanced = node.calculation_rate(100_000, "alpha", 0.62)
            assert balanced > equal

    def test_2mic_balanced_near_17k(self, nodes):
        """The paper's headline: 17,098 n/s with CPU + 2 MICs balanced."""
        rate = nodes["2mic"].calculation_rate(100_000, "alpha", 0.62)
        assert rate == pytest.approx(17_098, rel=0.08)

    def test_2mic_vs_cpu_factor_4(self, nodes):
        """Abstract: '4x higher when balancing load between the CPU and
        2 MICs'."""
        ratio = nodes["2mic"].calculation_rate(100_000, "alpha", 0.62) / nodes[
            "cpu"
        ].calculation_rate(100_000)
        assert ratio == pytest.approx(4.0, abs=0.5)

    def test_1mic_vs_cpu_factor_2_5(self, nodes):
        """Abstract: '2.5x higher when balancing load between CPU and 1 MIC'."""
        ratio = nodes["1mic"].calculation_rate(100_000, "alpha", 0.62) / nodes[
            "cpu"
        ].calculation_rate(100_000)
        assert ratio == pytest.approx(2.5, abs=0.3)

    def test_unknown_strategy(self, nodes):
        with pytest.raises(ExecutionError):
            nodes["1mic"].calculation_rate(1000, "magic")

    def test_alpha_strategy_requires_alpha(self, nodes):
        with pytest.raises(ExecutionError):
            nodes["1mic"].calculation_rate(1000, "alpha")
