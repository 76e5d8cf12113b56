"""The compiled-kernel tier: numba-event backend, proxy, and kernels.

Numba is optional and absent from the test environment by default; the
suite is written to be meaningful either way:

* ``compiled="force"`` runs the kernels regardless — as compiled code when
  numba is installed, as the pure-Python loop twins otherwise — so the
  kernel *logic* (search, gather, interpolation, accumulation order) is
  verified bit-for-bit against the NumPy path in every environment.  CI
  runs this file twice, with and without numba (the optional-dependency
  matrix leg), which is what pins "compiled == fallback == NumPy".
* ``compiled="auto"`` (the backend default) falls back to the banked
  NumPy applies without numba, so the full numba-event transport runs are
  exercised here too — at event speed, with identical results.
"""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.errors import ExecutionError
from repro.geometry.materials import make_fuel, make_water
from repro.physics.macroxs import XSCalculator
from repro.rng.lcg import particle_seeds
from repro.transport.backends import (
    NumbaEventBackend,
    TransportBackend,
    available_backends,
    get_backend,
)
from repro.transport.context import TransportContext
from repro.transport.jit import (
    HAVE_NUMBA,
    JitXSCalculator,
    jit_status,
    library_view,
    plan_view,
)
from repro.transport.jit.kernels import (
    accumulate_macro,
    popcount64,
    xs_gather1,
    xs_gather3,
)
from repro.transport.tally import GlobalTallies
from repro.types import Reaction
from repro.work import WorkCounters


@pytest.fixture(scope="module")
def union(small_library):
    return UnionizedGrid(small_library)


@pytest.fixture(scope="module")
def calc(small_library, union):
    return XSCalculator(small_library, union)


@pytest.fixture(scope="module")
def fuel():
    return make_fuel("hm-small")


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


def run_backend(small_library, union, backend, n=60):
    ctx = TransportContext.create(
        small_library, pincell=True, union=union, master_seed=7
    )
    pos, en = source(n)
    tallies = GlobalTallies()
    bank = backend.run_generation(ctx, pos, en, tallies, 1.0, 0)
    return ctx, tallies, bank


class TestRegistry:
    def test_numba_event_registered(self):
        assert "numba-event" in available_backends()

    def test_get_backend_defaults(self):
        b = get_backend("numba-event")
        assert isinstance(b, NumbaEventBackend)
        assert b.name == "numba-event"
        assert b.supports_track_length is True
        assert b.compiled == "auto"

    def test_satisfies_protocol(self):
        assert isinstance(get_backend("numba-event"), TransportBackend)

    def test_unknown_backend_error_names_numba_event(self):
        """The registry error lists the live registry — including the new
        backend — so a CLI typo points at every valid choice."""
        with pytest.raises(ExecutionError, match="numba-event"):
            get_backend("nmba-event")


class TestProxy:
    def test_delegates_attributes(self, calc):
        proxy = JitXSCalculator(calc)
        assert proxy.library is calc.library
        assert proxy.union is calc.union
        assert proxy.workspace is calc.workspace
        assert proxy.use_sab is calc.use_sab

    def test_no_proxy_stacking(self, calc):
        inner = JitXSCalculator(calc)
        outer = JitXSCalculator(inner)
        assert outer.calc is calc

    def test_invalid_mode_rejected(self, calc):
        for mode in ("maybe", "off"):
            with pytest.raises(ValueError, match="compiled"):
                JitXSCalculator(calc, compiled=mode)

    def test_active_matrix(self, calc, small_library):
        assert JitXSCalculator(calc, compiled="force").active is True
        assert JitXSCalculator(calc, compiled="auto").active is HAVE_NUMBA
        # Not kernel-capable without a union grid / with the AoS layout.
        no_union = XSCalculator(small_library, None)
        assert JitXSCalculator(no_union, compiled="force").active is False
        aos = XSCalculator(calc.library, calc.union, layout="aos")
        assert JitXSCalculator(aos, compiled="force").active is False

    def test_per_nuclide_total_delegates(self, calc, fuel):
        """per_nuclide_total callers get the NumPy path (same answer)."""
        proxy = JitXSCalculator(calc, compiled="force")
        e = np.geomspace(1e-9, 1.0, 8)
        pnt_p = np.empty((fuel.n_nuclides, 8))
        pnt_n = np.empty((fuel.n_nuclides, 8))
        states = particle_seeds(1, np.arange(8, dtype=np.uint64)).copy()
        rp = proxy.banked(fuel, e, rng_states=states.copy(),
                          per_nuclide_total=pnt_p)
        rn = calc.banked(fuel, e, rng_states=states.copy(),
                         per_nuclide_total=pnt_n)
        np.testing.assert_array_equal(rp["total"], rn["total"])
        np.testing.assert_array_equal(pnt_p, pnt_n)

    @pytest.mark.parametrize("n", [0, 1, 13, 100])
    def test_banked_bit_identical(self, calc, fuel, n):
        proxy = JitXSCalculator(calc, compiled="force")
        rng = np.random.default_rng(9)
        e = np.exp(rng.uniform(np.log(1e-10), np.log(15.0), n))
        states = particle_seeds(1, np.arange(n, dtype=np.uint64)).copy()
        cp, cn = WorkCounters(), WorkCounters()
        rp = proxy.banked(fuel, e, rng_states=states.copy(), counters=cp)
        rn = calc.banked(fuel, e, rng_states=states.copy(), counters=cn)
        for key in ("total", "elastic", "capture", "fission", "nu_fission"):
            np.testing.assert_array_equal(rp[key], rn[key])
        assert cp.as_dict() == cn.as_dict()

    def test_banked_advances_rng_states_identically(self, calc, fuel):
        proxy = JitXSCalculator(calc, compiled="force")
        e = np.geomspace(1e-3, 1e-1, 32)  # URR territory: draws happen
        sp = particle_seeds(1, np.arange(32, dtype=np.uint64)).copy()
        sn = sp.copy()
        proxy.banked(fuel, e, rng_states=sp)
        calc.banked(fuel, e, rng_states=sn)
        np.testing.assert_array_equal(sp, sn)

    @pytest.mark.parametrize(
        "reaction", [Reaction.ELASTIC, Reaction.CAPTURE, Reaction.FISSION]
    )
    def test_attribution_bit_identical(self, calc, fuel, reaction):
        proxy = JitXSCalculator(calc, compiled="force")
        e = np.exp(
            np.random.default_rng(4).uniform(np.log(1e-10), np.log(15.0), 40)
        )
        cp, cn = WorkCounters(), WorkCounters()
        wp = proxy.attribution_weights(fuel, e, reaction, cp)
        wn = calc.attribution_weights(fuel, e, reaction, cn)
        np.testing.assert_array_equal(wp, wn)
        assert cp.as_dict() == cn.as_dict()

    def test_attribution_sab_substitution(self, calc):
        """Thermal elastic attribution (bound hydrogen) matches too."""
        water = make_water()
        proxy = JitXSCalculator(calc, compiled="force")
        e = np.array([1e-9, 5e-9, 1e-8])
        np.testing.assert_array_equal(
            proxy.attribution_weights(water, e, Reaction.ELASTIC),
            calc.attribution_weights(water, e, Reaction.ELASTIC),
        )


class TestKernels:
    """Direct kernel-vs-NumPy checks, below the proxy."""

    def _matrices(self, calc, fuel, energies):
        plan = calc.material_plan(fuel)
        lib = library_view(calc)
        pv = plan_view(plan)
        n_nuc, n = plan.n_nuclides, energies.shape[0]
        mats = [np.empty((n_nuc, n)) for _ in range(3)]
        xs_gather3(
            energies, lib.union_energy, lib.union_words_flat,
            lib.union_step_bits, pv.union_rowoff, pv.offsets, lib.energy,
            lib.elastic, lib.capture, lib.fission, *mats,
        )
        return plan, pv, mats

    def test_gather3_matches_uncorrected_attribution(self, calc, fuel):
        """The raw gather equals attribution_weights with SAB off and the
        density weighting divided back out — same grid points, same
        interpolation arithmetic."""
        bare = XSCalculator(calc.library, calc.union, use_sab=False,
                            use_urr=False)
        e = np.exp(
            np.random.default_rng(8).uniform(np.log(1e-10), np.log(15.0), 25)
        )
        plan, pv, (m_el, m_cap, m_fis) = self._matrices(bare, fuel, e)
        for mat, reaction in (
            (m_el, Reaction.ELASTIC),
            (m_cap, Reaction.CAPTURE),
            (m_fis, Reaction.FISSION),
        ):
            expect = bare.attribution_weights(fuel, e, reaction)
            np.testing.assert_array_equal(mat * plan.rho[:, None], expect)

    def test_accumulate_matches_banked(self, calc, fuel):
        bare = XSCalculator(calc.library, calc.union, use_sab=False,
                            use_urr=False)
        e = np.geomspace(1e-9, 10.0, 30)
        plan, pv, (m_el, m_cap, m_fis) = self._matrices(bare, fuel, e)
        from repro.data.nuclide import NU_THERMAL_SLOPE

        outs = [np.empty(30) for _ in range(5)]
        accumulate_macro(
            m_el, m_cap, m_fis, pv.rho, pv.fissionable, pv.nu0,
            e, NU_THERMAL_SLOPE, *outs,
        )
        res = bare.banked(fuel, e)
        for out, key in zip(
            outs, ("total", "elastic", "capture", "fission", "nu_fission")
        ):
            np.testing.assert_array_equal(out, res[key])

    def test_gather1_matches_gather3_row(self, calc, fuel):
        e = np.geomspace(1e-8, 1.0, 12)
        plan, pv, (m_el, _, _) = self._matrices(calc, fuel, e)
        lib = library_view(calc)
        out = np.empty_like(m_el)
        xs_gather1(
            e, lib.union_energy, lib.union_words_flat, lib.union_step_bits,
            pv.union_rowoff, pv.offsets, lib.energy, lib.elastic, out,
        )
        np.testing.assert_array_equal(out, m_el)

    def test_rank_query_across_word_seams(self, calc, fuel):
        """The kernel's ``j`` for a tile straddling word seams (last bit of
        a word, first of the next, the partial last word) equals the NumPy
        rank query and each nuclide's own search.  ``j`` is read off the
        kernel through a probe: against an energy grid far below every
        particle the interpolation clamps to ``row[idx + 1]``, and the row
        is ``arange``."""
        union = calc.union
        w = union.step_bits
        assert union.n_union > 2 * w and union.n_union % w not in (0, 1)
        u = np.r_[w - 2 : w + 2, 2 * w - 1, 2 * w, union.n_union - 2]
        e = union.energy[u]
        np.testing.assert_array_equal(union.search_many(e), u)
        plan = calc.material_plan(fuel)
        lib = library_view(calc)
        pv = plan_view(plan)
        points = lib.energy.shape[0]
        out = np.empty((plan.n_nuclides, e.shape[0]))
        xs_gather1(
            e, lib.union_energy, lib.union_words_flat, lib.union_step_bits,
            pv.union_rowoff, pv.offsets, np.arange(-points, 0.0),
            np.arange(float(points)), out,
        )
        np.testing.assert_array_equal(out, out.astype(np.int64))
        j = out.astype(np.int64) - 1 - pv.offsets[:, None]
        np.testing.assert_array_equal(
            j, union.nuclide_indices(plan.ids_col, u)
        )
        np.testing.assert_array_equal(
            j, [nuc.find_index_many(e) for nuc in plan.nuclides]
        )

    def test_views_are_cached(self, calc, fuel):
        plan = calc.material_plan(fuel)
        assert library_view(calc) is library_view(calc)
        assert plan_view(plan) is plan_view(plan)

    def test_library_view_aliases_the_rank_words(self, calc):
        """The kernels read the very words the NumPy path reads — no copy."""
        view = library_view(calc)
        assert view.union_words_flat.dtype == np.uint64
        assert view.union_step_bits == calc.union.step_bits
        assert np.shares_memory(view.union_words_flat, calc.union.words)

    def test_library_view_aliases_the_library_rows(self, calc):
        """The flat rows are the library's own storage, contiguous and
        typed as the compiled kernels need them — aliased, not copied."""
        view = library_view(calc)
        library = calc.library
        assert np.shares_memory(view.energy, library.energy)
        for row in (view.energy, view.elastic, view.capture, view.fission):
            assert row.dtype == np.float64 and row.flags.c_contiguous
            assert row.shape == library.energy.shape
        for row in (view.elastic, view.capture, view.fission):
            assert np.shares_memory(row, library.xs)

    def test_views_die_with_their_owner(self, small_library, union, fuel):
        """A worker builds one calculator per job: nothing module-global
        may keep a viewed calculator (or its plans) alive."""
        import gc
        import weakref

        calc = XSCalculator(small_library, union)
        proxy = JitXSCalculator(calc, compiled="force")
        proxy.banked(
            fuel, np.geomspace(1e-9, 10.0, 5), np.arange(1, 6, dtype=np.uint64)
        )
        assert calc.kernel_view is not None
        # (A plan is slotted, not weak-referenceable: its own array stands in.)
        refs = [weakref.ref(calc), weakref.ref(calc.material_plan(fuel).offsets)]
        del calc, proxy
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_library_view_requires_union(self, small_library):
        with pytest.raises(ValueError, match="union"):
            library_view(XSCalculator(small_library, None))


class TestPopcount:
    """The kernels' popcount helper against ``int.bit_count``."""

    def test_matches_int_bit_count(self, calc):
        w = calc.union.step_bits
        rng = np.random.default_rng(64)
        words = np.r_[
            np.array([0, 2**64 - 1, 1 << (w - 1)], dtype=np.uint64),
            rng.integers(0, 2**64, 10_000, dtype=np.uint64),
        ]
        for word in words:
            count = popcount64(word)
            assert count == int(word).bit_count()
            # numba returns a Python int; the twin must not leave uint64
            # (a float64 here would be the int64-operand mistake).
            assert isinstance(count, (int, np.uint64))


class TestJitStatus:
    def test_status_shape(self):
        status = jit_status()
        assert status["numba_available"] is HAVE_NUMBA
        assert isinstance(status["kernels_compiled"], list)
        assert status["compile_s"] >= 0.0
        if not HAVE_NUMBA:
            # Pure-Python twins are not instrumented: no compile cost.
            assert status["compile_s"] == 0.0


class TestNumbaEventTransport:
    """Full numba-event generations against the plain event schedule."""

    def _pair(self, small_library, union, n=60, **bkw):
        _, te, be = run_backend(small_library, union, get_backend("event"), n)
        cj, tj, bj = run_backend(
            small_library, union, NumbaEventBackend(**bkw), n
        )
        return (te, be), (cj, tj, bj)

    @pytest.mark.parametrize("compiled", ["auto", "force"])
    def test_bit_identical_to_event(self, small_library, union, compiled):
        (te, be), (cj, tj, bj) = self._pair(
            small_library, union, compiled=compiled
        )
        assert tj.collision == te.collision
        assert tj.absorption == te.absorption
        assert tj.track_length == te.track_length
        assert len(bj) == len(be)
        np.testing.assert_array_equal(bj.positions, be.positions)
        np.testing.assert_array_equal(bj.energies, be.energies)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_bank_sizes(self, small_library, union, n):
        """Empty, single-lane and two-lane banks through the kernels'
        pure-Python twins: tallies, counters, raw fission-bank append
        order."""
        ce, te, be = run_backend(small_library, union, get_backend("event"), n)
        cj, tj, bj = run_backend(
            small_library, union, NumbaEventBackend(compiled="force"), n
        )
        assert tj.collision == te.collision
        assert tj.absorption == te.absorption
        assert tj.track_length == te.track_length
        assert tj.n_collisions == te.n_collisions
        assert tj.n_leaks == te.n_leaks
        assert cj.counters.as_dict() == ce.counters.as_dict()
        np.testing.assert_array_equal(bj.positions, be.positions)
        np.testing.assert_array_equal(bj.energies, be.energies)

    def test_counters_identical_to_event(self, small_library, union):
        ce, _, _ = run_backend(small_library, union, get_backend("event"))
        cj, _, _ = run_backend(
            small_library, union, NumbaEventBackend(compiled="force")
        )
        assert ce.counters.as_dict() == cj.counters.as_dict()

    def test_wrapped_context_cached_per_ctx(self, small_library, union):
        backend = NumbaEventBackend()
        ctx = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=7
        )
        wrapped = backend._context(ctx)
        assert backend._context(ctx) is wrapped
        assert isinstance(wrapped.calculator, JitXSCalculator)
        assert wrapped.calculator.calc is ctx.calculator
        # Counters flow to the caller's objects: shared by reference.
        assert wrapped.counters is ctx.counters
        ctx2 = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=7
        )
        assert backend._context(ctx2) is not wrapped

    def test_simulation_selects_numba_event(self, small_library):
        from repro.transport import Settings, Simulation

        common = dict(
            n_particles=40, n_inactive=1, n_active=1, pincell=True, seed=7
        )
        re = Simulation(small_library, Settings(mode="event", **common)).run()
        rj = Simulation(
            small_library, Settings(mode="numba-event", **common)
        ).run()
        np.testing.assert_array_equal(
            re.statistics.k_collision, rj.statistics.k_collision
        )
        assert re.counters.as_dict() == rj.counters.as_dict()
