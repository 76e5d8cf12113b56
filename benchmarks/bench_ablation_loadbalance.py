"""Ablation 6 (DESIGN.md §5): equal split vs static alpha vs adaptive alpha.

Quantifies the symmetric-mode balancing choices of Table III and §V across
a range of alpha mis-estimates: the static Eq. 3 split is only as good as
its alpha, and the adaptive controller recovers from a bad initial guess.
"""

import pytest

from repro.execution.loadbalance import AdaptiveAlphaController
from repro.execution.symmetric import FleetNode
from repro.machine.presets import JLSE_HOST, MIC_7120A

N = 100_000
TRUE_ALPHA = 0.62


@pytest.fixture(scope="module")
def node():
    return FleetNode([MIC_7120A, MIC_7120A, JLSE_HOST], "hm-large")


def test_equal_split_rate(benchmark, node):
    rate = benchmark(node.calculation_rate, N, "equal")
    assert rate > 0


def test_alpha_split_rate(benchmark, node):
    rate = benchmark(node.calculation_rate, N, "alpha", TRUE_ALPHA)
    assert rate > node.calculation_rate(N, "equal")


def test_alpha_sensitivity(node):
    """Rate vs assumed alpha peaks near the true value."""
    rates = {a: node.calculation_rate(N, "alpha", a) for a in
             (0.2, 0.4, 0.62, 1.0, 1.6)}
    best = max(rates, key=rates.get)
    assert best == pytest.approx(TRUE_ALPHA, abs=0.25)
    # Over-loading the CPU (alpha >> true) is worse than the equal split
    # it replaced — mis-calibration in that direction costs real rate.
    assert rates[1.6] < node.calculation_rate(N, "equal") * 1.05


def test_adaptive_recovers(benchmark, node):
    """Starting from equal split, the adaptive controller converges to a
    near-optimal split within a few observed batches."""

    def converge():
        ctrl = AdaptiveAlphaController(p_mic=2, p_cpu=1, smoothing=0.6)
        cpu_rate = FleetNode([JLSE_HOST], "hm-large").calculation_rate(N)
        from repro.execution.native import NativeModel

        mic_rate = NativeModel(MIC_7120A, "hm-large").calculation_rate(N)
        for _ in range(4):
            ctrl.observe(cpu_rate, mic_rate)
        return ctrl.alpha

    a = benchmark.pedantic(converge, rounds=1, iterations=1)
    assert a == pytest.approx(TRUE_ALPHA, abs=0.05)
