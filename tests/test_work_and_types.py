"""Tests for work counters, shared types, and the transport context."""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.transport.context import FREE_GAS_CUTOFF, TransportContext
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
