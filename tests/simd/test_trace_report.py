"""Lane-utilization reports on *real* queue traces from both backends.

The unified :class:`~repro.transport.stats.TransportStats` means the SIMD
analysis no longer cares which schedule produced the trace: an event trace
shows the large, shrinking banks of the banked schedule; a history trace
shows per-history stage counts — what vectorizing those histories as-is
would waste."""

import numpy as np
import pytest

from repro.simd.analysis import lane_utilization_report
from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.stages import XSLookupKernel
from repro.transport.stats import TransportStats
from repro.transport.tally import GlobalTallies


def run(name, library, union, stats, n):
    """One generation of ``n`` pin-cell source particles on backend
    ``name``; returns ``(ctx, tallies, fission_bank)``."""
    ctx = TransportContext.create(
        library, pincell=True, union=union, master_seed=7
    )
    rng = np.random.default_rng(5)
    pos = np.column_stack(
        [rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
         rng.uniform(-150, 150, n)]
    )
    tallies = GlobalTallies()
    bank = get_backend(name).run_generation(
        ctx, pos, np.ones(n), tallies, 1.0, 0, stats=stats
    )
    return ctx, tallies, bank


@pytest.fixture(scope="module")
def traces(small_library, small_union):
    out = {}
    for name in ("history", "event"):
        stats = TransportStats()
        ctx, _, _ = run(name, small_library, small_union, stats, n=80)
        out[name] = (ctx, stats)
    return out


def test_report_works_on_either_backend(traces):
    for name, (_, stats) in traces.items():
        report = lane_utilization_report(stats, width=16)
        assert report["iterations"] == stats.iterations
        assert set(report["stages"]) == {"lookup", "collision", "crossing"}
        for occ in report["stages"].values():
            assert 0.0 < occ["lane_efficiency"] <= 1.0


def test_column_totals_backend_invariant(traces):
    (ch, sh), (ce, se) = traces["history"], traces["event"]
    assert int(sh.lookup_counts.sum()) == int(se.lookup_counts.sum())
    assert int(sh.collision_counts.sum()) == int(se.collision_counts.sum())
    assert int(sh.crossing_counts.sum()) == int(se.crossing_counts.sum())
    # And the trace totals are the context's own work counters.
    assert int(sh.lookup_counts.sum()) == ch.counters.lookups
    assert int(se.lookup_counts.sum()) == ce.counters.lookups


def test_trace_granularity_per_backend(traces):
    """History records one row per source history (its totals); event
    records one row per event cycle (the shrinking bank)."""
    _, sh = traces["history"]
    _, se = traces["event"]
    assert sh.iterations == 80  # one row per source history
    assert se.iterations > 0
    # The event loop's first cycles process the full live bank; no single
    # history performs that many lookups in one row's worth of work.
    assert int(se.lookup_counts[0]) == 80
    assert int(se.lookup_counts[-1]) < 80  # the bank drains


def test_gather_metric_absent_on_history_trace(traces):
    """The history schedule records no gather stream: the report says so
    explicitly rather than inventing a locality number."""
    _, sh = traces["history"]
    report = lane_utilization_report(sh, width=16)
    assert report["gather"]["mean_stride"] is None
    assert report["gather"]["strides"] == 0


def test_gather_metric_present_on_event_trace(traces):
    _, se = traces["event"]
    report = lane_utilization_report(se, width=16)
    assert report["gather"]["strides"] > 0
    assert report["gather"]["mean_stride"] >= 0.0


def test_energy_sorting_shrinks_gather_stride(
    monkeypatch, small_library, small_union
):
    """The probe reports the lookup's own dispatch order — energy-banded
    tiles — not the bank order the schedule hands the stage: the recorded
    stride is an order of magnitude below that of the same live energies
    walked in bank order (the gap widens with the bank: ~24x at 800)."""
    live = []
    banked = XSLookupKernel.banked

    def spy(self, ctx, bank, alive_idx, sig):
        live.append(bank.energy[alive_idx])
        banked(self, ctx, bank, alive_idx, sig)

    monkeypatch.setattr(XSLookupKernel, "banked", spy)
    stats = TransportStats()
    run("event", small_library, small_union, stats, n=800)
    in_bank_order = np.concatenate(
        [np.abs(np.diff(small_union.search_many(e))) for e in live]
    )
    report = lane_utilization_report(stats)["gather"]
    assert report["strides"] == in_bank_order.size
    assert report["mean_stride"] < in_bank_order.mean() / 10


def test_recording_the_trace_perturbs_nothing(small_library, small_union):
    """The probe draws no RNG and touches no counter: a traced run and an
    untraced one are the same run."""
    plain = run("event", small_library, small_union, None, n=40)
    traced = run("event", small_library, small_union, TransportStats(), n=40)
    assert vars(traced[1]) == vars(plain[1])
    assert traced[0].counters.as_dict() == plain[0].counters.as_dict()
    np.testing.assert_array_equal(traced[2].positions, plain[2].positions)
    np.testing.assert_array_equal(traced[2].energies, plain[2].energies)


def test_record_gather_indices_degenerate():
    """Streams shorter than two indices contribute no strides."""
    stats = TransportStats()
    stats.record_gather_indices(np.array([], dtype=np.int64))
    stats.record_gather_indices(np.array([42]))
    assert stats.gather_mean_stride is None
    stats.record_gather_indices(np.array([5, 8, 2]))
    assert stats.gather_mean_stride == pytest.approx((3 + 6) / 2)


def test_wider_lanes_hurt_the_drained_event_tail(traces):
    """Fig. 3's mechanism in miniature: the event trace's lane efficiency
    falls as the vector width grows, because the late-generation tail
    can no longer fill the lanes."""
    _, se = traces["event"]
    eff = [
        lane_utilization_report(se, width=w)["stages"]["lookup"][
            "lane_efficiency"
        ]
        for w in (4, 16, 64)
    ]
    assert eff[0] > eff[1] > eff[2]
