"""Tests for the offload pipeline trace (measured banks x modelled costs)."""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.errors import ExecutionError
from repro.execution.offload import OffloadCostModel
from repro.execution.trace import trace_offload
from repro.machine.presets import JLSE_HOST, MIC_7120A, PCIE_GEN2_X16
from repro.transport.context import TransportContext
from repro.transport.events import run_generation_event
from repro.transport.stats import TransportStats
from repro.transport.tally import GlobalTallies


@pytest.fixture(scope="module")
def model():
    return OffloadCostModel(JLSE_HOST, MIC_7120A, PCIE_GEN2_X16, "hm-small")


@pytest.fixture(scope="module")
def stats(small_library):
    union = UnionizedGrid(small_library)
    ctx = TransportContext.create(
        small_library, pincell=True, union=union, master_seed=2
    )
    st = TransportStats()
    rng = np.random.default_rng(3)
    pos = np.column_stack(
        [rng.uniform(-0.3, 0.3, 120), rng.uniform(-0.3, 0.3, 120),
         rng.uniform(-100, 100, 120)]
    )
    run_generation_event(
        ctx, pos, np.ones(120), GlobalTallies(), 1.0, 0, stats=st
    )
    return st


class TestTrace:
    def test_one_offload_per_iteration(self, stats, model):
        trace = trace_offload(stats, model)
        assert trace.n_iterations == stats.iterations
        assert trace.bank_sizes == list(stats.lookup_counts)

    def test_total_positive_and_decomposes(self, stats, model):
        trace = trace_offload(stats, model)
        assert trace.total_s > 0
        assert trace.total_s == pytest.approx(
            sum(trace.banking_s) + sum(trace.transfer_s)
            + sum(trace.compute_s) + sum(trace.fixed_s)
        )

    def test_per_particle_cost_rises_toward_tail(self, stats, model):
        """Shrinking banks amortize the fixed overhead worse — the
        measured form of Fig. 3's >=10k-particle advice."""
        trace = trace_offload(stats, model)
        per = trace.per_particle_cost()
        assert per[-1] > per[0]

    def test_fixed_fraction_dominates_small_banks(self, stats, model):
        """At these tiny demo banks the fixed overhead is nearly all of
        the cost (which is exactly why the paper banks 1e5 particles)."""
        trace = trace_offload(stats, model)
        assert trace.fixed_fraction > 0.5

    def test_empty_trace_rejected(self, model):
        with pytest.raises(ExecutionError):
            trace_offload(TransportStats(), model)

    def test_large_bank_amortizes(self, model):
        """A synthetic trace with one 1e6-particle bank has a small fixed
        fraction."""
        st = TransportStats()
        st.record(1_000_000, 0, 0)
        trace = trace_offload(st, model)
        assert trace.fixed_fraction < 0.1
