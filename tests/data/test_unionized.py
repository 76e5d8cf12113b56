"""Tests for the unionized energy grid (Leppänen double indexing)."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import UnionizedGrid
from repro.data.nuclide import Nuclide


class StubNuclide:
    """The two attributes :class:`UnionizedGrid` reads off a nuclide, plus
    the real nuclide's clamped search as the oracle."""

    def __init__(self, energy):
        self.energy = np.asarray(energy, dtype=np.float64)
        self.n_points = int(self.energy.size)

    find_index_many = Nuclide.find_index_many


class StubLibrary(list):
    """What :class:`UnionizedGrid` reads off a library: the nuclides in
    order and their grids as one flat array."""

    @property
    def energy(self):
        return np.concatenate([n.energy for n in self])


def all_indices(union, i):
    """Row ``i`` of the map the rank words encode: ``j`` at every union
    point."""
    return union.nuclide_indices(i, np.arange(union.n_union))


def assert_matches_direct_search(union, library):
    """``j`` for every (nuclide, union point) equals the nuclide's own
    clamped search of the union — written out, and as the nuclide does it."""
    for i, nuc in enumerate(library):
        direct = np.clip(
            np.searchsorted(nuc.energy, union.energy, "right") - 1,
            0,
            nuc.n_points - 2,
        )
        np.testing.assert_array_equal(all_indices(union, i), direct)
        np.testing.assert_array_equal(
            direct, nuc.find_index_many(union.energy)
        )


class TestConstruction:
    def test_union_contains_all_nuclide_points(self, small_library, small_union):
        union_set = small_union.energy
        for nuc in small_library:
            # Every nuclide grid point appears in the union.
            idx = np.searchsorted(union_set, nuc.energy)
            np.testing.assert_array_equal(union_set[idx], nuc.energy)

    def test_union_strictly_increasing(self, small_union):
        assert np.all(np.diff(small_union.energy) > 0)

    def test_rank_words_shape(self, small_library, small_union):
        w = small_union.step_bits
        assert small_union.words.shape == (
            len(small_library),
            -(-small_union.n_union // w),
        )
        assert small_union.words.dtype == np.uint64
        assert small_union.words.flags.c_contiguous

    def test_nbytes(self, small_union):
        assert small_union.nbytes == (
            small_union.energy.nbytes + small_union.words.nbytes
        )


class TestIndices:
    def test_indices_bracket_union_points(self, small_library, small_union):
        """For every nuclide and union point, the interval brackets the
        union energy (the core double-indexing invariant)."""
        for i, nuc in enumerate(small_library):
            idx = all_indices(small_union, i)
            e = small_union.energy
            lo = nuc.energy[idx]
            hi = nuc.energy[idx + 1]
            inside = (e >= nuc.energy[0]) & (e <= nuc.energy[-1])
            assert np.all(lo[inside] <= e[inside])
            assert np.all(e[inside] <= hi[inside])

    def test_indices_match_direct_search(
        self, small_library, small_union, large_library
    ):
        assert_matches_direct_search(small_union, small_library)
        assert_matches_direct_search(
            UnionizedGrid(large_library), large_library
        )

    def test_nuclide_indices_gather(self, small_union):
        """Scalar, vector and (nuclide column x union row) forms agree."""
        u = np.array([0, 5, 10, small_union.n_union - 1])
        got = small_union.nuclide_indices(2, u)
        assert got.dtype == np.int64
        assert got.tolist() == [small_union.nuclide_index(2, k) for k in u]
        ids = np.array([7, 2, 40])
        block = small_union.nuclide_indices(ids[:, None], u)
        assert block.shape == (3, 4)
        np.testing.assert_array_equal(block[1], got)
        np.testing.assert_array_equal(
            small_union.nuclide_indices(ids, 5), block[:, 1]
        )


class TestRankWords:
    """The rank query is entry-for-entry the per-point search."""

    def test_inner_range_and_two_point_grids(self):
        """A nuclide strictly inside the union's range hits both clamps;
        a 2-point grid has no step at all."""
        library = StubLibrary([
            StubNuclide(np.linspace(1.0, 100.0, 34)),
            StubNuclide([20.0, 30.5, 31.0, 40.0, 55.5]),
            StubNuclide([10.0, 60.0]),
        ])
        union = UnionizedGrid(library)
        inner, two = all_indices(union, 1), all_indices(union, 2)
        assert inner[0] == 0 and union.energy[0] < library[1].energy[0]
        assert inner[-1] == 3 and union.energy[-1] > library[1].energy[-1]
        assert not two.any() and not union.words[2].any()
        assert_matches_direct_search(union, library)

    @given(
        grids=st.lists(
            st.lists(
                st.floats(min_value=1e-11, max_value=20.0),
                min_size=2, max_size=40, unique=True,
            ).map(sorted),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_grids_property(self, grids):
        library = StubLibrary(StubNuclide(g) for g in grids)
        assert_matches_direct_search(UnionizedGrid(library), library)

    @given(
        widest=st.integers(min_value=2, max_value=40),
        n_words=st.integers(min_value=1, max_value=3),
        remainder=st.sampled_from(["0", "1", "W-1"]),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_word_seams_property(self, widest, n_words, remainder, extra, seed):
        """Union sizes of 0, 1 and W - 1 modulo W — a full last word, a
        one-bit last word, bit W - 1 of the last word unused — over grids
        that share points, with a 2-point grid and a nuclide interior to
        the union among them."""
        w = 64 - max(1, (widest - 2).bit_length())
        n_union = n_words * w + {"0": 0, "1": 1, "W-1": w - 1}[remainder]
        rng = np.random.default_rng(seed)
        points = np.cumsum(rng.uniform(0.1, 1.0, n_union))
        # Disjoint grids of at most ``widest`` points cover the interior
        # (the first hits both clamps), a 2-point grid spans the union, one
        # grid has exactly ``widest`` points, the rest overlap at random.
        cover = rng.permutation(np.arange(1, n_union - 1))
        picks = [cover[k : k + widest] for k in range(0, cover.size, widest)]
        picks = [p for p in picks if p.size >= 2] + [
            rng.choice(n_union, size, replace=False)
            for size in [widest, *rng.integers(2, widest + 1, extra)]
        ]
        picks.append(np.array([0, n_union - 1]))
        covered = np.unique(np.concatenate(picks))
        if covered.size < n_union:  # an odd point the chunks left over
            left = np.setdiff1d(np.arange(n_union), covered)
            picks.append(np.r_[0, left, n_union - 1][: max(widest, 2)])
        library = StubLibrary(StubNuclide(points[np.unique(p)]) for p in picks)
        union = UnionizedGrid(library)
        assert union.step_bits == w and union.n_union == n_union
        assert_matches_direct_search(union, library)


class TestIndexWidth:
    """The count field's width — and with it the step bits left in a word —
    is a function of the library's widest grid alone."""

    def test_step_bits_from_the_widest_grid(self, small_library, small_union):
        widest = max(n.n_points for n in small_library)
        assert widest == 136
        assert small_union.step_bits == 64 - (widest - 2).bit_length() == 56

    def test_boundary(self):
        """Where ``uint16`` once ended and well past it: the count field
        grows by a bit exactly when ``n_points - 2`` needs one more, the
        largest ``j`` fits it, and ``j + 1`` is formed in int64."""
        for n_points, step_bits in [
            (65536, 48), (65537, 48), (65538, 47), (2**20, 44), (2**20 + 2, 43),
        ]:
            library = StubLibrary([
                StubNuclide(np.arange(1.0, n_points + 1.0)),
                StubNuclide([0.5, 2.0 * n_points]),
            ])
            union = UnionizedGrid(library)
            assert union.step_bits == step_bits
            j = all_indices(union, 0)
            assert j.dtype == np.int64 and j.max() == n_points - 2
            assert int(union.words[0].max()) >> step_bits <= n_points - 2
            np.testing.assert_array_equal(
                j, library[0].find_index_many(union.energy)
            )
            assert not all_indices(union, 1).any()

    def test_narrower_words_transport_identically(
        self, small_library, small_union
    ):
        """One 65 537-point nuclide nobody collides with narrows every word
        from 56 to 48 step bits; the finer union still contains every real
        grid point, so lookups — and with them a whole event generation —
        are bit-identical: the width is a number, not a code path."""
        from repro.transport.backends import get_backend
        from repro.transport.context import TransportContext
        from repro.transport.tally import GlobalTallies

        stub = StubNuclide(np.geomspace(1e-11, 20.0, 65537))
        wide_union = UnionizedGrid(StubLibrary([*small_library, stub]))
        assert (small_union.step_bits, wide_union.step_bits) == (56, 48)
        assert_matches_direct_search(wide_union, small_library)

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
        """No ``(n_nuclides, n_union)``-sized array ever exists: building
        the hm-large union peaks at the words plus one row's temporaries."""
        tracemalloc.start()
        try:
            union = UnionizedGrid(large_library)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # First the concatenated grids, their sorted copy and the union;
        # then the union and the words plus, per row, a byte per union point,
        # its packed words and their counts (under 2 B a point).
        total_points = sum(n.n_points for n in large_library)
        bound = max(
            8 * (3 * total_points + union.n_union),
            union.nbytes + 4 * union.n_union,
        )
        assert peak <= bound
        # Even at one byte an entry the full matrix would not have fitted.
        assert bound < len(large_library) * union.n_union // 3


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
        """Looking up micro XS via the union grid's rank words gives the same
        result as each nuclide's own binary search — the whole point of
        the unionized grid (same answer, one search)."""
        energies = np.geomspace(1e-10, 15.0, 50)
        u = small_union.search_many(energies)
        for i, nuc in enumerate(small_library):
            via_union = nuc.micro_xs_many(
                energies, indices=small_union.nuclide_indices(i, u)
            )
            direct = nuc.micro_xs_many(energies)
            np.testing.assert_allclose(via_union, direct, rtol=1e-12)
