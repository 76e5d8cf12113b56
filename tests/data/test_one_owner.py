"""The one-owner contract: the library is the SoA.

``NuclideLibrary`` packs the pointwise data once; every ``Nuclide`` grid,
every calculator, every compiled-kernel view and the ``.npz`` are that one
set of flat arrays.  Nothing here may hold a second copy.
"""

import io
import tracemalloc

import numpy as np
import pytest

from repro.data import LibraryConfig, NuclideLibrary, UnionizedGrid
from repro.data.io import load_library, save_library
from repro.data.nuclide import Nuclide
from repro.errors import DataError
from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.particle import Particle, ParticleBank
from repro.transport.tally import GlobalTallies
from repro.types import N_REACTIONS


def reloaded(library):
    buf = io.BytesIO()
    save_library(library, buf)
    buf.seek(0)
    return load_library(buf)


@pytest.fixture(scope="module")
def loaded_library(small_library):
    return reloaded(small_library)


@pytest.fixture(params=["built", "loaded"])
def library(request, small_library, loaded_library):
    return small_library if request.param == "built" else loaded_library


class TestNuclidesAreViews:
    def test_every_grid_shares_the_flat_storage(self, library):
        assert library.energy.flags.c_contiguous
        assert library.xs.flags.c_contiguous
        assert library.xs.shape == (N_REACTIONS, library.energy.size)
        for i, nuc in enumerate(library):
            lo, hi = library.offsets[i], library.offsets[i + 1]
            assert np.shares_memory(library.energy, nuc.energy)
            assert np.shares_memory(library.xs, nuc.xs)
            # Not merely somewhere in the storage: exactly its slice.
            assert nuc.energy.ctypes.data == library.energy[lo:].ctypes.data
            assert nuc.xs.ctypes.data == library.xs[:, lo:].ctypes.data
            assert nuc.xs.shape == (N_REACTIONS, hi - lo)

    def test_a_write_through_the_nuclide_is_a_write_to_the_library(
        self, tiny_config
    ):
        from repro.data import build_library

        lib = build_library("hm-small", tiny_config)
        lib["U238"].xs[2, 5] = 123.5
        assert lib.xs[2, lib.offsets[lib.index("U238")] + 5] == 123.5

    def test_nuclide_keeps_a_strided_view_and_still_validates(self):
        """The constructor checks run on a column-slice view without
        copying it back out."""
        flat = np.ones((N_REACTIONS, 10))
        view = flat[:, 2:6]
        nuc = Nuclide("X", 1.0, np.arange(1.0, 5.0), view)
        assert np.shares_memory(nuc.xs, flat)
        flat[1, 3] = -1.0
        with pytest.raises(DataError, match="negative"):
            Nuclide("X", 1.0, np.arange(1.0, 5.0), view)

    def test_hand_built_library_packs_and_rebinds(self):
        energy = np.array([1e-5, 1.0, 20.0])
        xs = np.arange(1.0, 13.0).reshape(N_REACTIONS, 3)
        a = Nuclide("A", 1.0, energy, xs.copy(), fissionable=True, nu0=2.5)
        b = Nuclide("B", 12.0, energy * 0.5, xs * 2.0)
        lib = NuclideLibrary([a, b], {}, {}, LibraryConfig.tiny(), "custom")
        assert lib.offsets.tolist() == [0, 3, 6]
        assert lib["B"] is b and np.shares_memory(b.xs, lib.xs)
        np.testing.assert_array_equal(b.xs, xs * 2.0)
        np.testing.assert_array_equal(lib.energy[3:], energy * 0.5)
        assert lib.fissionable.tolist() == [True, False]
        assert lib.nu0[0] == 2.5 and lib.awr[1] == 12.0
        assert lib.sab_tables == [None, None] and not lib.has_sab.any()
        assert lib.nbytes == lib.energy.nbytes + lib.xs.nbytes

    def test_empty_library_is_a_typed_error(self):
        with pytest.raises(DataError, match="at least one nuclide"):
            NuclideLibrary([], {}, {}, LibraryConfig.tiny(), "custom")


class TestLoadedEqualsBuilt:
    def test_flat_arrays_and_side_tables(self, small_library, loaded_library):
        for name in (
            "energy", "xs", "offsets", "awr", "nu0", "fissionable", "watt_a",
            "watt_b", "has_urr", "urr_emin", "urr_emax", "has_sab",
            "sab_cutoff",
        ):
            built, loaded = (
                getattr(lib, name) for lib in (small_library, loaded_library)
            )
            assert built.dtype == loaded.dtype, name
            np.testing.assert_array_equal(built, loaded, err_msg=name)
        assert loaded_library.names == small_library.names
        assert loaded_library.nbytes == small_library.nbytes

    def test_every_urr_and_sab_table(self, small_library, loaded_library):
        assert list(loaded_library.urr) == sorted(small_library.urr)
        for name, table in small_library.urr.items():
            for field in ("band_edges", "cdf", "factors"):
                np.testing.assert_array_equal(
                    getattr(loaded_library.urr[name], field),
                    getattr(table, field),
                )
        assert list(loaded_library.sab) == sorted(small_library.sab)
        for name, table in small_library.sab.items():
            for field in ("e_in", "xs", "e_out", "mu"):
                np.testing.assert_array_equal(
                    getattr(loaded_library.sab[name], field),
                    getattr(table, field),
                )
        h1 = loaded_library.index("H1")
        assert loaded_library.sab_tables[h1] is loaded_library.sab["H1"]


class TestContextsCopyNothing:
    def test_create_retains_a_fraction_of_the_library(self, large_library):
        union = UnionizedGrid(large_library)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            ctx = TransportContext.create(
                large_library, union=union, master_seed=1
            )
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.calculator.library is large_library
        assert after - before < 0.25 * large_library.nbytes

    def test_two_contexts_read_the_same_arrays(self, small_library, small_union):
        from repro.transport.jit import library_view

        views = [
            library_view(
                TransportContext.create(
                    small_library, pincell=True, union=small_union
                ).calculator
            )
            for _ in range(2)
        ]
        for a, b in zip(*views):
            if isinstance(a, np.ndarray):
                assert a.ctypes.data == b.ctypes.data
        assert views[0].energy.ctypes.data == small_library.energy.ctypes.data


def observe_generation(monkeypatch, library, backend):
    """One generation on ``library``; everything observable, including each
    history's final RNG state."""
    births = []
    for cls in (Particle, ParticleBank):
        born = cls.from_source

        def capture(*args, _born=born, **kwargs):
            births.append(_born(*args, **kwargs))
            return births[-1]

        monkeypatch.setattr(cls, "from_source", staticmethod(capture))
    ctx = TransportContext.create(
        library, pincell=True, union=UnionizedGrid(library), master_seed=7
    )
    pos = np.zeros((24, 3))
    pos[:, 2] = np.linspace(-150.0, 150.0, 24)
    tallies = GlobalTallies()
    sites = get_backend(backend).run_generation(
        ctx, pos, np.full(24, 1.0), tallies
    )
    if backend == "history":
        rng_state = [p.stream.seed for p in births]
    else:
        (bank,) = births
        rng_state = bank.rng_state.tolist()
    return (
        vars(tallies), ctx.counters.as_dict(), rng_state,
        sites.positions.tolist(), sites.energies.tolist(),
    )


class TestLoadedLibraryTransportsIdentically:
    @pytest.mark.parametrize("backend", ["event", "history"])
    def test_generation_is_bit_identical(
        self, monkeypatch, small_library, loaded_library, backend
    ):
        built = observe_generation(monkeypatch, small_library, backend)
        monkeypatch.undo()
        loaded = observe_generation(monkeypatch, loaded_library, backend)
        assert built[1]["lookups"] > 0 and len(built[3]) > 0
        assert built == loaded
