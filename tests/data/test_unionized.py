"""Tests for the unionized energy grid (Leppänen double indexing)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import UnionizedGrid
from repro.data.nuclide import Nuclide
from repro.errors import DataError


class StubNuclide:
    """The two attributes :class:`UnionizedGrid` reads off a nuclide, plus
    the real nuclide's clamped search as the oracle."""

    def __init__(self, energy):
        self.energy = np.asarray(energy, dtype=np.float64)
        self.n_points = int(self.energy.size)

    find_index_many = Nuclide.find_index_many


def assert_matches_direct_search(union, library):
    """Every row equals the nuclide's own clamped search of the union."""
    for i, nuc in enumerate(library):
        np.testing.assert_array_equal(
            union.indices[i], nuc.find_index_many(union.energy)
        )


class TestConstruction:
    def test_union_contains_all_nuclide_points(self, small_library, small_union):
        union_set = small_union.energy
        for nuc in small_library:
            # Every nuclide grid point appears in the (unthinned) union.
            idx = np.searchsorted(union_set, nuc.energy)
            np.testing.assert_allclose(union_set[np.clip(idx, 0, union_set.size - 1)],
                                       nuc.energy)

    def test_union_strictly_increasing(self, small_union):
        assert np.all(np.diff(small_union.energy) > 0)

    def test_index_matrix_shape(self, small_library, small_union):
        assert small_union.indices.shape == (
            len(small_library),
            small_union.n_union,
        )

    def test_thinning(self, small_library):
        thin = UnionizedGrid(small_library, max_points=100)
        assert thin.n_union <= 100
        # End points survive thinning.
        full = UnionizedGrid(small_library)
        assert thin.energy[0] == full.energy[0]
        assert thin.energy[-1] == full.energy[-1]

    def test_thinning_validation(self, small_library):
        with pytest.raises(DataError):
            UnionizedGrid(small_library, max_points=1)

    def test_nbytes(self, small_union):
        assert small_union.nbytes == (
            small_union.energy.nbytes + small_union.indices.nbytes
        )


class TestIndices:
    def test_indices_bracket_union_points(self, small_library, small_union):
        """For every nuclide and union point, the stored interval brackets
        the union energy (the core double-indexing invariant)."""
        for i, nuc in enumerate(small_library):
            idx = small_union.indices[i]
            e = small_union.energy
            lo = nuc.energy[idx]
            hi = nuc.energy[idx + 1]
            inside = (e >= nuc.energy[0]) & (e <= nuc.energy[-1])
            assert np.all(lo[inside] <= e[inside] * (1 + 1e-12))
            assert np.all(e[inside] <= hi[inside] * (1 + 1e-12))

    def test_indices_match_direct_search(self, small_library, small_union):
        for i, nuc in enumerate(small_library):
            direct = nuc.find_index_many(small_union.energy)
            np.testing.assert_array_equal(small_union.indices[i], direct)

    def test_nuclide_indices_gather(self, small_union):
        u = np.array([0, 5, 10])
        got = small_union.nuclide_indices(2, u)
        np.testing.assert_array_equal(got, small_union.indices[2, u])


class TestRunLengthConstruction:
    """The run-length fill is entry-for-entry the per-point search."""

    @pytest.mark.parametrize("max_points", [2, 100])
    def test_thinned_union(self, small_library, max_points):
        """Thinning drops nuclide points from the union: runs go empty."""
        union = UnionizedGrid(small_library, max_points=max_points)
        assert union.n_union <= max_points
        assert_matches_direct_search(union, small_library)

    def test_inner_range_and_two_point_grids(self):
        """A nuclide strictly inside the union's range hits both clamps;
        a 2-point grid is a single run of zeros."""
        library = [
            StubNuclide(np.linspace(1.0, 100.0, 34)),
            StubNuclide([20.0, 30.5, 31.0, 40.0, 55.5]),
            StubNuclide([10.0, 60.0]),
        ]
        union = UnionizedGrid(library)
        inner, two = union.indices[1], union.indices[2]
        assert inner[0] == 0 and union.energy[0] < library[1].energy[0]
        assert inner[-1] == 3 and union.energy[-1] > library[1].energy[-1]
        assert not two.any()
        assert_matches_direct_search(union, library)

    @given(
        grids=st.lists(
            st.lists(
                st.floats(min_value=1e-11, max_value=20.0),
                min_size=2, max_size=40, unique=True,
            ).map(sorted),
            min_size=1, max_size=6,
        ),
        max_points=st.none() | st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_grids_property(self, grids, max_points):
        library = [StubNuclide(g) for g in grids]
        union = UnionizedGrid(library, max_points=max_points)
        assert_matches_direct_search(union, library)


class TestIndexWidth:
    """Entry width is a function of the library's largest grid alone."""

    def test_small_library_is_uint16(self, small_union):
        assert small_union.indices.dtype == np.uint16
        assert small_union.indices.flags.c_contiguous

    def test_boundary(self):
        narrow = [StubNuclide(np.arange(1.0, 65537.0)), StubNuclide([0.5, 7e4])]
        union = UnionizedGrid(narrow)
        assert narrow[0].n_points == 65536
        assert union.indices.dtype == np.uint16
        # The largest entry is n_points - 2 and ``+ 1`` stays in range.
        assert union.indices.max() == 65534
        upper = union.indices + 1
        assert upper.dtype == np.uint16 and upper.max() == 65535
        assert np.all(upper > union.indices)
        assert_matches_direct_search(union, narrow)

        wide = [StubNuclide(np.arange(1.0, 65538.0)), narrow[1]]
        union = UnionizedGrid(wide)
        assert wide[0].n_points == 65537
        assert union.indices.dtype == np.int32
        assert union.indices.max() == 65535
        assert_matches_direct_search(union, wide)

    def test_wide_matrix_transports_identically(
        self, small_library, small_union
    ):
        """One 65 537-point nuclide nobody collides with forces ``int32``;
        the finer union still contains every real grid point, so lookups —
        and with them a whole event generation — are bit-identical to the
        ``uint16`` run: the wide branch is the same code."""
        from repro.transport.backends import get_backend
        from repro.transport.context import TransportContext
        from repro.transport.tally import GlobalTallies

        stub = StubNuclide(np.geomspace(1e-11, 20.0, 65537))
        wide_union = UnionizedGrid([*small_library, stub])
        assert wide_union.indices.dtype == np.int32
        np.testing.assert_array_equal(
            wide_union.indices[: len(small_library)],
            [n.find_index_many(wide_union.energy) for n in small_library],
        )

        def generation(union):
            ctx = TransportContext.create(
                small_library, pincell=True, union=union, master_seed=7
            )
            pos = np.zeros((40, 3))
            pos[:, 2] = np.linspace(-150.0, 150.0, 40)
            tallies = GlobalTallies()
            bank = get_backend("event").run_generation(
                ctx, pos, np.full(40, 1.0), tallies, 1.0, 0
            )
            return ctx.counters.as_dict(), tallies, bank

        cw, tw, bw = generation(wide_union)
        cn, tn, bn = generation(small_union)
        # One union search per lookup either way; everything else equal too.
        assert cw == cn
        assert tw == tn
        np.testing.assert_array_equal(bw.positions, bn.positions)
        np.testing.assert_array_equal(bw.energies, bn.energies)


class TestMemory:
    def test_build_allocates_matrix_plus_row_temporaries(self, large_library):
        """No full-matrix intermediate: building the hm-large union peaks at
        the matrix plus a few ``n_union``-sized temporaries."""
        tracemalloc.start()
        try:
            union = UnionizedGrid(large_library)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert union.nbytes == union.energy.nbytes + union.indices.nbytes
        # Concatenated grids, their sorted union, and four int64 rows: far
        # below the 2x/4x of a full-matrix int32/int64 intermediate.
        total_points = sum(n.n_points for n in large_library)
        slack = 8 * (2 * total_points + 4 * union.n_union)
        assert slack < union.indices.nbytes // 4
        assert peak <= union.indices.nbytes + slack


class TestSearch:
    def test_search_brackets(self, small_union):
        e = small_union.energy
        mid = 0.5 * (e[7] + e[8])
        assert small_union.search(mid) == 7

    def test_search_many_matches_scalar(self, small_union):
        energies = np.geomspace(1e-11, 19.9, 100)
        vec = small_union.search_many(energies)
        scal = np.array([small_union.search(x) for x in energies])
        np.testing.assert_array_equal(vec, scal)

    @given(e=st.floats(min_value=1e-11, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_search_property(self, small_union, e):
        u = small_union.search(e)
        assert 0 <= u <= small_union.n_union - 2
        assert small_union.energy[u] <= e * (1 + 1e-12)


class TestEquivalence:
    def test_union_lookup_equals_direct_lookup(self, small_library, small_union):
        """Looking up micro XS via the union index matrix gives the same
        result as each nuclide's own binary search — the whole point of
        the unionized grid (same answer, one search)."""
        energies = np.geomspace(1e-10, 15.0, 50)
        u = small_union.search_many(energies)
        for i, nuc in enumerate(small_library):
            via_union = nuc.micro_xs_many(
                energies, indices=small_union.indices[i, u]
            )
            direct = nuc.micro_xs_many(energies)
            np.testing.assert_allclose(via_union, direct, rtol=1e-12)
