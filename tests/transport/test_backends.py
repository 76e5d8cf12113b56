"""The transport backend registry: name-based selection, the protocol
contract, and agreement between registry-selected backends and the
underlying generation functions."""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.errors import ExecutionError
from repro.transport import (
    HistoryBackend,
    Settings,
    TransportBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.transport.backends import _REGISTRY
from repro.transport.context import TransportContext
from repro.transport.events import run_generation_event
from repro.transport.history import run_generation_history
from repro.transport.tally import GlobalTallies


@pytest.fixture(scope="module")
def union(small_library):
    return UnionizedGrid(small_library)


def make_ctx(small_library, union, **kw):
    return TransportContext.create(
        small_library, pincell=True, union=union, master_seed=7, **kw
    )


def source(n, seed=5):
    rng = np.random.default_rng(seed)
    pos = np.column_stack(
        [
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-150, 150, n),
        ]
    )
    return pos, np.full(n, 1.0)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "history" in names
        assert "event" in names
        assert "delta" in names
        assert names == tuple(sorted(names))

    def test_unknown_name_lists_available(self):
        with pytest.raises(ExecutionError, match="event.*history"):
            get_backend("event-sorted")

    def test_fresh_instance_per_call(self):
        assert get_backend("delta") is not get_backend("delta")

    def test_instances_satisfy_protocol(self):
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, TransportBackend)
            assert backend.name == name
            assert isinstance(backend.supports_track_length, bool)

    def test_register_shadows_and_restores(self):
        class Instrumented(HistoryBackend):
            name = "history"

        original = _REGISTRY["history"]
        try:
            register_backend("history", Instrumented)
            assert isinstance(get_backend("history"), Instrumented)
        finally:
            register_backend("history", original)
        assert type(get_backend("history")) is HistoryBackend

    def test_settings_mode_validated_against_registry(self):
        with pytest.raises(ExecutionError, match="available"):
            Settings(n_particles=10, mode="no-such-backend")


class TestBackendRuns:
    @pytest.mark.parametrize(
        "name,direct",
        [
            ("history", run_generation_history),
            ("event", run_generation_event),
        ],
    )
    def test_backend_matches_direct_function(
        self, small_library, union, name, direct
    ):
        """Registry dispatch adds nothing: bit-identical to a direct call."""
        pos, en = source(40)
        ctx_a = make_ctx(small_library, union)
        ta = GlobalTallies()
        bank_a = get_backend(name).run_generation(ctx_a, pos, en, ta, 1.0, 0)
        ctx_b = make_ctx(small_library, union)
        tb = GlobalTallies()
        bank_b = direct(ctx_b, pos, en, tb, 1.0, 0)
        assert ta.collision == tb.collision
        assert ta.absorption == tb.absorption
        assert ta.track_length == tb.track_length
        assert ctx_a.counters.as_dict() == ctx_b.counters.as_dict()
        assert len(bank_a) == len(bank_b)
        np.testing.assert_array_equal(bank_a.positions, bank_b.positions)
        np.testing.assert_array_equal(bank_a.energies, bank_b.energies)

    def test_event_backend_is_the_simulation_route(self, small_library):
        """Settings.mode names resolve through the same registry."""
        from repro.transport import Simulation

        sim = Simulation(
            small_library,
            Settings(n_particles=30, n_inactive=1, n_active=1,
                     pincell=True, mode="event"),
        )
        result = sim.run()
        assert result.mode == "event"

    def test_delta_rejects_track_length_tallies(self, small_library, union):
        pos, en = source(10)
        ctx = make_ctx(small_library, union)
        with pytest.raises(ExecutionError, match="track-length"):
            get_backend("delta").run_generation(
                ctx, pos, en, GlobalTallies(), 1.0, 0, power=object()
            )

    def test_delta_majorant_cached_per_context(self, small_library, union):
        pos, en = source(15)
        backend = get_backend("delta")
        ctx = make_ctx(small_library, union)
        backend.run_generation(ctx, pos, en, GlobalTallies(), 1.0, 0)
        majorant = backend._majorant
        assert majorant is not None
        backend.run_generation(ctx, pos, en, GlobalTallies(), 1.0, 100)
        assert backend._majorant is majorant  # same ctx: reused
        ctx2 = make_ctx(small_library, union)
        backend.run_generation(ctx2, pos, en, GlobalTallies(), 1.0, 0)
        assert backend._majorant is not majorant  # new ctx: rebuilt
