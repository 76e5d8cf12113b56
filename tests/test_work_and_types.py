"""Tests for work counters, shared types, and the transport context."""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.transport.context import FREE_GAS_CUTOFF, TransportContext
from repro.transport.events import run_generation_event
from repro.transport.stats import TransportStats
from repro.transport.tally import GlobalTallies
from repro.types import N_REACTIONS, CollisionChannel, EventKind, Reaction
from repro.work import WorkCounters


class TestWorkCounters:
    def test_defaults_zero(self):
        c = WorkCounters()
        assert all(v == 0 for v in c.as_dict().values())

    def test_iadd(self):
        a = WorkCounters(lookups=2, flights=3)
        a += WorkCounters(lookups=5, collisions=1)
        assert a.lookups == 7 and a.flights == 3 and a.collisions == 1

    def test_add_returns_new(self):
        a = WorkCounters(lookups=1)
        b = WorkCounters(lookups=2)
        c = a + b
        assert c.lookups == 3
        assert a.lookups == 1

    def test_reset(self):
        c = WorkCounters(lookups=5, bytes_read=100)
        c.reset()
        assert c.lookups == 0 and c.bytes_read == 0

    def test_as_dict_keys(self):
        keys = set(WorkCounters().as_dict())
        assert {"lookups", "flights", "collisions", "rn_draws"} <= keys


class TestTypes:
    def test_reactions_dense_from_zero(self):
        values = sorted(int(r) for r in Reaction)
        assert values == list(range(N_REACTIONS))
        assert Reaction.TOTAL == 0

    def test_collision_channels(self):
        assert {c.name for c in CollisionChannel} == {
            "SCATTER", "CAPTURE", "FISSION",
        }

    def test_event_kinds(self):
        assert EventKind.XS_LOOKUP == 0
        assert EventKind.DEAD == max(EventKind)


class TestTransportContext:
    @pytest.fixture(scope="class")
    def ctx(self, small_library):
        return TransportContext.create(
            small_library, pincell=True, union=UnionizedGrid(small_library)
        )

    def test_free_gas_cutoff_is_400kt(self):
        from repro.constants import KT_ROOM

        assert FREE_GAS_CUTOFF == pytest.approx(400 * KT_ROOM)

    def test_material_lookup(self, ctx):
        assert ctx.material_id_at(np.array([0.0, 0.0, 0.0])) == 0  # fuel
        assert ctx.material_id_at(np.array([0.6, 0.0, 0.0])) == 2  # water

    def test_material_accessor(self, ctx):
        assert ctx.material(0) is ctx.model.fuel
        assert ctx.material(2) is ctx.model.water

    def test_temperature_from_library(self, ctx, small_library):
        assert ctx.temperature == small_library.config.temperature

    def test_csg_path(self, small_library):
        ctx = TransportContext.create(
            small_library, pincell=True, use_fast_geometry=False
        )
        assert ctx.material_id_at(np.array([0.0, 0.0, 0.0])) == 0
        d = ctx.boundary_distance(
            np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        )
        assert d == pytest.approx(0.41)

    def test_nudge(self, ctx):
        p = ctx.nudge(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert p[0] > 0


class TestTransportStats:
    def test_queue_trace_recorded(self, small_library):
        union = UnionizedGrid(small_library)
        ctx = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=2
        )
        stats = TransportStats()
        rng = np.random.default_rng(2)
        pos = np.column_stack(
            [rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.3, 0.3, 40),
             rng.uniform(-100, 100, 40)]
        )
        run_generation_event(
            ctx, pos, np.ones(40), GlobalTallies(), 1.0, 0, stats=stats
        )
        assert stats.iterations > 0
        assert stats.lookup_counts[0] == 40  # first cycle: everyone queued
        # Queues drain (weakly) as the generation dies out.
        assert stats.lookup_counts[-1] <= stats.lookup_counts[0]
        assert all(
            look == coll + cross
            for look, coll, cross in zip(
                stats.lookup_counts,
                stats.collision_counts,
                stats.crossing_counts,
            )
        )

    def test_lane_efficiency_from_stats(self, small_library):
        from repro.simd.analysis import queue_lane_efficiency

        union = UnionizedGrid(small_library)
        ctx = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=2
        )
        stats = TransportStats()
        rng = np.random.default_rng(2)
        pos = np.column_stack(
            [rng.uniform(-0.3, 0.3, 64), rng.uniform(-0.3, 0.3, 64),
             rng.uniform(-100, 100, 64)]
        )
        run_generation_event(
            ctx, pos, np.ones(64), GlobalTallies(), 1.0, 0, stats=stats
        )
        eff = queue_lane_efficiency(stats.lookup_counts, width=16)
        assert 0.0 < eff <= 1.0


class TestTransportStatsArrays:
    """Array-backed storage: growth, views, and the summary() contract."""

    def test_array_backed_growth(self):
        stats = TransportStats()
        for i in range(100):  # forces several capacity doublings
            stats.record(100 - i, (100 - i) // 2, (100 - i) - (100 - i) // 2)
        assert stats.iterations == 100
        assert isinstance(stats.lookup_counts, np.ndarray)
        assert stats.lookup_counts.dtype == np.int64
        assert stats.lookup_counts.shape == (100,)
        assert stats.lookup_counts[0] == 100
        assert stats.lookup_counts[-1] == 1

    def test_summary_statistics(self):
        stats = TransportStats()
        stats.record(10, 6, 4)
        stats.record(4, 1, 3)
        s = stats.summary()
        assert s["iterations"] == 2
        assert s["stages"]["lookup"] == {
            "mean": 7.0, "min": 4, "max": 10, "total": 14,
        }
        assert s["stages"]["collision"]["total"] == 7
        assert s["stages"]["crossing"]["max"] == 4

    def test_summary_empty(self):
        s = TransportStats().summary()
        assert s["iterations"] == 0
        assert s["stages"]["lookup"]["total"] == 0

    def test_lane_utilization_report(self):
        from repro.simd.analysis import lane_utilization_report

        stats = TransportStats()
        stats.record(32, 20, 12)
        stats.record(16, 10, 6)
        stats.record(3, 2, 1)
        report = lane_utilization_report(stats, width=16)
        assert report["iterations"] == 3
        assert report["width"] == 16
        look = report["stages"]["lookup"]
        # 32 + 16 + 3 active over 32 + 16 + 16 issued slots.
        assert look["lane_efficiency"] == pytest.approx(51 / 64)
        assert look["total"] == 51
        for stage in report["stages"].values():
            assert 0.0 < stage["lane_efficiency"] <= 1.0

    def test_lane_utilization_report_rejects_bad_width(self):
        from repro.simd.analysis import lane_utilization_report

        with pytest.raises(ValueError):
            lane_utilization_report(TransportStats(), width=0)
