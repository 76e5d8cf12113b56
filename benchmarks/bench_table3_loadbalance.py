"""Table III bench: symmetric-mode rates and load balancing."""

import pytest

from repro.execution.loadbalance import alpha_split
from repro.execution.symmetric import FleetNode
from repro.machine.presets import JLSE_HOST, MIC_7120A

N = 100_000


@pytest.fixture(scope="module")
def node2():
    return FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large")


def test_rate_evaluation(benchmark, node2):
    rate = benchmark(node2.calculation_rate, N, "alpha", 0.62)
    assert rate == pytest.approx(17_098, rel=0.08)


def test_eq3_split(benchmark):
    n_mic, n_cpu = benchmark(alpha_split, 10_000_000, 1, 1, 0.62)
    assert (n_mic, n_cpu) == (6_172_840, 3_827_160)


def test_table3_rows(node2):
    """The full Table III shape: balanced beats equal; ~4x over CPU-only."""
    cpu = FleetNode([JLSE_HOST], "hm-large")
    one = FleetNode([MIC_7120A, JLSE_HOST], "hm-large")
    r_cpu = cpu.calculation_rate(N)
    r1_eq = one.calculation_rate(N, "equal")
    r1_lb = one.calculation_rate(N, "alpha", 0.62)
    r2_eq = node2.calculation_rate(N, "equal")
    r2_lb = node2.calculation_rate(N, "alpha", 0.62)
    assert r_cpu == pytest.approx(4_050, rel=0.05)
    assert r1_lb > r1_eq
    assert r2_lb > r2_eq > r1_eq
    assert r2_lb / r_cpu == pytest.approx(4.0, abs=0.5)
