"""History vs event transport: the bit-equivalence contract.

The event-based (banked) algorithm restructures control flow completely —
per-material grouping, compressed sub-banks, masked retry loops — yet must
compute *the same Monte Carlo game*.  These tests enforce the strongest
version of that claim: identical per-batch tallies, identical fission banks,
and identical work counters, for the same seed.
"""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.transport import Settings, Simulation
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


def run_both(small_library, union, n=60, **kw):
    pos, en = source(n)
    ctx_h = make_ctx(small_library, union, **kw)
    th = GlobalTallies()
    bank_h = run_generation_history(ctx_h, pos, en, th, 1.0, 0)
    ctx_e = make_ctx(small_library, union, **kw)
    te = GlobalTallies()
    bank_e = run_generation_event(ctx_e, pos, en, te, 1.0, 0)
    return (ctx_h, th, bank_h), (ctx_e, te, bank_e)


class TestSingleGeneration:
    def test_tallies_identical(self, small_library, union):
        (_, th, _), (_, te, _) = run_both(small_library, union)
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        assert te.absorption == pytest.approx(th.absorption, rel=1e-12)
        assert te.track_length == pytest.approx(th.track_length, rel=1e-12)
        assert te.n_collisions == th.n_collisions
        assert te.n_leaks == th.n_leaks

    def test_fission_banks_identical(self, small_library, union):
        (_, _, bh), (_, _, be) = run_both(small_library, union)
        assert len(bh) == len(be)
        np.testing.assert_allclose(bh.positions, be.positions, rtol=1e-12)
        np.testing.assert_allclose(bh.energies, be.energies, rtol=1e-12)

    def test_work_counters_identical(self, small_library, union):
        (ch, _, _), (ce, _, _) = run_both(small_library, union)
        assert ch.counters.as_dict() == ce.counters.as_dict()

    def test_equivalence_without_urr(self, small_library, union):
        (_, th, bh), (_, te, be) = run_both(
            small_library, union, use_urr=False
        )
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        np.testing.assert_allclose(bh.energies, be.energies, rtol=1e-12)

    def test_equivalence_without_sab(self, small_library, union):
        (_, th, bh), (_, te, be) = run_both(
            small_library, union, use_sab=False
        )
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        np.testing.assert_allclose(bh.energies, be.energies, rtol=1e-12)

    def test_equivalence_without_union_grid(self, small_library):
        (_, th, _), (_, te, _) = run_both(small_library, None, n=30)
        assert te.collision == pytest.approx(th.collision, rel=1e-12)


class TestFullSimulation:
    def test_multibatch_identical(self, small_library):
        common = dict(
            n_particles=80, n_inactive=1, n_active=2, pincell=True, seed=7
        )
        rh = Simulation(small_library, Settings(mode="history", **common)).run()
        re = Simulation(small_library, Settings(mode="event", **common)).run()
        np.testing.assert_allclose(
            rh.statistics.k_collision, re.statistics.k_collision, rtol=1e-12
        )
        np.testing.assert_allclose(
            rh.statistics.k_track, re.statistics.k_track, rtol=1e-12
        )
        np.testing.assert_allclose(
            rh.statistics.k_absorption, re.statistics.k_absorption, rtol=1e-12
        )
        assert rh.counters.as_dict() == re.counters.as_dict()

    def test_full_core_generation_equivalence(self, small_library):
        """One generation on the full H.M. core (vacuum boundaries)."""
        union = UnionizedGrid(small_library)
        pos, en = source(40, seed=9)
        # Scale positions into the central assembly of the core.
        pos[:, 2] = np.random.default_rng(2).uniform(-150, 150, 40)
        ctx_h = TransportContext.create(
            small_library, pincell=False, union=union, master_seed=7
        )
        th = GlobalTallies()
        bh = run_generation_history(ctx_h, pos, en, th, 1.0, 0)
        ctx_e = TransportContext.create(
            small_library, pincell=False, union=union, master_seed=7
        )
        te = GlobalTallies()
        be = run_generation_event(ctx_e, pos, en, te, 1.0, 0)
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        assert te.n_leaks == th.n_leaks
        assert len(bh) == len(be)


class TestSurvivalBiasingEquivalence:
    """Implicit capture restructures every collision (weight reduction,
    expected fission sites, conditional roulette) — the compacted/sorted
    event loop must still mirror the history protocol draw for draw."""

    def test_tallies_identical(self, small_library, union):
        (_, th, _), (_, te, _) = run_both(
            small_library, union, survival_biasing=True
        )
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        assert te.absorption == pytest.approx(th.absorption, rel=1e-12)
        assert te.track_length == pytest.approx(th.track_length, rel=1e-12)
        assert te.n_leaks == th.n_leaks

    def test_fission_banks_identical(self, small_library, union):
        (_, _, bh), (_, _, be) = run_both(
            small_library, union, survival_biasing=True
        )
        assert len(bh) == len(be)
        # Surviving particles accumulate many more flights than analog ones,
        # so last-ulp scalar-vs-vector libm differences can reach ~1e-14 cm
        # on near-zero coordinates; atol covers those (domain is ~±200 cm).
        np.testing.assert_allclose(
            bh.positions, be.positions, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(bh.energies, be.energies, rtol=1e-12)

    def test_work_counters_identical(self, small_library, union):
        (ch, _, _), (ce, _, _) = run_both(
            small_library, union, survival_biasing=True
        )
        assert ch.counters.as_dict() == ce.counters.as_dict()


class TestSabUrrOnEquivalence:
    """Both branchy physics treatments explicitly enabled, across bank
    sizes that exercise full lanes, partial lanes, single particles and
    the empty bank."""

    @pytest.mark.parametrize("n", [1, 17, 60, 128])
    def test_tallies_identical_across_bank_sizes(
        self, small_library, union, n
    ):
        (_, th, _), (_, te, _) = run_both(
            small_library, union, n=n, use_sab=True, use_urr=True
        )
        assert te.collision == pytest.approx(th.collision, rel=1e-12)
        assert te.absorption == pytest.approx(th.absorption, rel=1e-12)
        assert te.track_length == pytest.approx(th.track_length, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 17, 60])
    def test_counters_and_banks_identical(self, small_library, union, n):
        (ch, _, bh), (ce, _, be) = run_both(
            small_library, union, n=n, use_sab=True, use_urr=True
        )
        assert ch.counters.as_dict() == ce.counters.as_dict()
        assert ch.counters.sab_samples > 0 or n <= 1
        assert len(bh) == len(be)
        np.testing.assert_allclose(bh.positions, be.positions, rtol=1e-12)
        np.testing.assert_allclose(bh.energies, be.energies, rtol=1e-12)
