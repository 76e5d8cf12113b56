"""The one-owner contract: the library is the SoA.

``NuclideLibrary`` packs the pointwise data once; every ``Nuclide`` grid,
every calculator and the ``.npz`` are that one set of flat arrays.  Nothing
here may hold a second copy.
"""

import io
import tracemalloc

import numpy as np
import pytest

from repro.data import LibraryConfig, NuclideLibrary, UnionizedGrid, build_library
from repro.data.io import load_library, save_library
from repro.data.nuclide import Nuclide
from repro.errors import DataError
from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.particle import Particle, ParticleBank
from repro.transport.tally import GlobalTallies
from repro.types import N_REACTIONS

from .oracle import dense_reconstruct_into


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


def traced_peak(fn):
    """``fn()`` and the peak of traced memory while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuiltStraightIntoTheLibrary:
    """``build_library`` plans the offsets, allocates the flat arrays once and
    has the kernel fill each nuclide's slice; ``load_library`` adopts what it
    parsed.  Neither holds the pointwise data twice."""

    @pytest.mark.parametrize(
        "model, config",
        [
            ("hm-small", LibraryConfig()),
            ("hm-small", LibraryConfig.tiny()),
            ("hm-large", LibraryConfig.tiny()),
        ],
        ids=["hm-small-default", "hm-small-tiny", "hm-large-tiny"],
    )
    def test_equals_a_build_through_the_dense_oracle(
        self, monkeypatch, model, config
    ):
        built = build_library(model, config)
        monkeypatch.setattr(
            "repro.data.library.reconstruct_into", dense_reconstruct_into
        )
        oracle = build_library(model, config)
        for name in ("energy", "xs", "offsets"):
            np.testing.assert_array_equal(
                getattr(built, name), getattr(oracle, name), err_msg=name
            )
        assert built.names == oracle.names
        for kind, fields in (
            ("urr", ("band_edges", "cdf", "factors")),
            ("sab", ("e_in", "xs", "e_out", "mu")),
        ):
            tables, expected = getattr(built, kind), getattr(oracle, kind)
            assert list(tables) == list(expected) and len(tables) > 0
            for key, table in tables.items():
                for field in fields:
                    np.testing.assert_array_equal(
                        getattr(table, field), getattr(expected[key], field)
                    )

    def test_build_peak_is_the_library_plus_one_block(self):
        """A work gate that repeats to the byte, not a timing: the dense
        kernel kept ~27 MB of 3.1 MB temporaries alive here; the blocked one
        needs three (150, 256) workspaces and the windowed pairs.  This is
        what keeps ``_BLOCK`` from silently growing back."""
        library, peak = traced_peak(
            lambda: build_library("hm-small", LibraryConfig())
        )
        assert library.xs.flags.owndata and library.energy.flags.owndata
        assert peak - library.nbytes < 2.5e6

    def test_load_adopts_the_parsed_arrays(self):
        """No second copy: the peak is the arrays plus numpy's read buffers
        (1.4x this 3.2 MB library; it was 2.0x while the constructor
        re-packed what the parser had sliced apart)."""
        buf = io.BytesIO()
        save_library(build_library("hm-small", LibraryConfig()), buf)
        buf.seek(0)
        loaded, peak = traced_peak(lambda: load_library(buf))
        assert loaded.xs.flags.c_contiguous
        assert peak < 1.6 * loaded.nbytes

    def test_from_packed_adopts_without_a_copy(self, small_library):
        lib = small_library
        scalars = [
            {"name": n.name, "awr": n.awr, "has_sab": n.has_sab} for n in lib
        ]
        energy, xs = lib.energy.copy(), lib.xs.copy()
        packed = NuclideLibrary.from_packed(
            energy, xs, lib.offsets, scalars, {}, lib.sab, lib.config, "custom"
        )
        assert packed.energy is energy and packed.xs is xs
        assert packed.names == lib.names
        assert np.shares_memory(packed["U238"].xs, xs)
        np.testing.assert_array_equal(packed.sab_cutoff, lib.sab_cutoff)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda e, x, o, s: (e, x, o[:-1], s),
            lambda e, x, o, s: (e, x[:, :-1], o, s),
            lambda e, x, o, s: (e, x.astype(np.float32), o, s),
            lambda e, x, o, s: (e, x, o + 1, s),
            lambda e, x, o, s: (e[:0], x[:, :0], o[:1], []),
            lambda e, x, o, s: (e, x, o, s + s[:1]),
            lambda e, x, o, s: (e, x, np.r_[o[:-2], o[-3], o[-1]], s),
        ],
    )
    def test_from_packed_rejects_arrays_that_do_not_fit(
        self, small_library, spoil
    ):
        lib = small_library
        scalars = [{"name": n.name, "awr": n.awr} for n in lib]
        with pytest.raises(DataError):
            NuclideLibrary.from_packed(
                *spoil(lib.energy, lib.xs, lib.offsets, scalars),
                {}, {}, lib.config, "custom",
            )


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
        a, b = (
            TransportContext.create(
                small_library, pincell=True, union=small_union
            ).calculator
            for _ in range(2)
        )
        for name in ("energy", "xs"):
            assert np.shares_memory(
                getattr(a.library, name), getattr(b.library, name)
            )
        # The raveled rank words each calculator gathers from are views of
        # the one union grid's, not copies.
        assert np.shares_memory(a._union_words_flat, b._union_words_flat)
        assert a.library.energy.ctypes.data == small_library.energy.ctypes.data


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
