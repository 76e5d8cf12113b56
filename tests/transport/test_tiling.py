"""The cache-blocked XS data path: tiles, banding, the shared workspace.

The banked stages dispatch per ``(material, tile)`` on one calculator-owned
workspace instead of per material group on fresh matrices.  None of that
may change a bit of the physics, so the tests here are bitwise: tile
boundaries (groups of ``tile - 1``, ``tile``, ``tile + 1`` and
``2 * tile + 1`` lanes, the last with a one-lane tail tile that takes the
sequential-sum branch) against the same run untiled, banding against a
permuted bank, and the memory contract — no public result aliases the
workspace, the unbuffered clip-mode gathers still raise on a corrupt index,
and a generation's traced peak carries no ``n_nuclides x N`` term.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.physics.macroxs import TileWorkspace, XSCalculator
from repro.transport import stages
from repro.transport.backends import DeltaBackend, EventBackend
from repro.transport.context import TransportContext
from repro.transport.particle import ParticleBank
from repro.transport.stages import (
    XS_LOOKUP,
    SigmaTables,
    group_by_value,
    material_tiles,
    tile_slices,
)
from repro.transport.tally import GlobalTallies
from repro.types import Reaction

FROM_SOURCE = ParticleBank.from_source
UNTILED = 1 << 40
#: 35-nuclide fuel -> 2-lane tiles, 4-nuclide water -> 17-lane tiles.
SMALL_TILE = 70
FUEL_TILE, WATER_TILE = 2, 17
#: (fuel lanes, water lanes) of the first lookup: every boundary size once
#: per material.
BOUNDARY_GROUPS = [
    (FUEL_TILE - 1, 2 * WATER_TILE + 1),
    (FUEL_TILE, WATER_TILE + 1),
    (FUEL_TILE + 1, WATER_TILE),
    (2 * FUEL_TILE + 1, WATER_TILE - 1),
]


def source(n_fuel, n_water, seed=5):
    """``n_fuel`` particles inside the pin, ``n_water`` in the pitch corner,
    energies log-uniform so the banding has something to order."""
    rng = np.random.default_rng(seed)
    n = n_fuel + n_water
    pos = np.column_stack(
        [
            rng.uniform(-0.25, 0.25, n),
            rng.uniform(-0.25, 0.25, n),
            rng.uniform(-150, 150, n),
        ]
    )
    pos[n_fuel:, :2] = rng.uniform(0.56, 0.62, (n_water, 2))
    return pos, np.exp(rng.uniform(np.log(1e-8), np.log(5.0), n))


def make_ctx(library, union, **kw):
    return TransportContext.create(
        library, pincell=True, union=union, master_seed=7, **kw
    )


def run_generation(monkeypatch, library, union, backend, tile, groups, **kw):
    """One generation at ``TILE_ELEMENTS = tile``; everything observable."""
    banks = []

    def capture(*args, **kwargs):
        banks.append(FROM_SOURCE(*args, **kwargs))
        return banks[-1]

    monkeypatch.setattr(stages, "TILE_ELEMENTS", tile)
    monkeypatch.setattr(ParticleBank, "from_source", staticmethod(capture))
    tiles = []

    def counted(*args):
        for tile_ in material_tiles(*args):
            tiles.append(tile_[1].size)
            yield tile_

    monkeypatch.setattr(stages, "material_tiles", counted)
    ctx = make_ctx(library, union, **kw)
    tallies = GlobalTallies()
    fission = backend.run_generation(ctx, *source(*groups), tallies)
    (bank,) = banks
    return {
        "tallies": vars(tallies),
        "counters": ctx.counters.as_dict(),
        "rng_state": bank.rng_state,
        "energy": bank.energy,
        "sites": (fission.positions, fission.energies),
        "tiles": tiles,
    }


def assert_same_bits(a, b):
    assert a["tallies"] == b["tallies"]
    assert a["counters"] == b["counters"]
    np.testing.assert_array_equal(a["rng_state"], b["rng_state"])
    np.testing.assert_array_equal(a["energy"], b["energy"])
    for x, y in zip(a["sites"], b["sites"]):
        np.testing.assert_array_equal(x, y)


class TestTileDispatch:
    # ``group_by_value`` must be *stable*: positions ascending within each
    # group, groups in ascending value order — the invariant that makes
    # per-group RNG consumption independent of how the bank was permuted
    # upstream.

    def test_positions_ascending_within_groups(self):
        values = np.array([2, 0, 1, 2, 0, 2, 1, 0])
        groups = dict(
            (v, pos.tolist()) for v, pos in group_by_value(values)
        )
        assert groups == {0: [1, 4, 7], 1: [2, 6], 2: [0, 3, 5]}

    def test_group_order_ascending(self):
        values = np.array([5, 3, 9, 3, 5])
        order = [v for v, _ in group_by_value(values)]
        assert order == sorted(order) == [3, 5, 9]

    def test_matches_unique_mask_idiom(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 7, size=200)
        via_group = {v: pos for v, pos in group_by_value(values)}
        for v in np.unique(values):
            np.testing.assert_array_equal(
                via_group[int(v)], np.flatnonzero(values == v)
            )

    @pytest.mark.parametrize("n", [0, 1])
    def test_group_by_value_degenerate_sizes(self, n):
        values = np.arange(n)
        groups = list(group_by_value(values))
        assert len(groups) == n
        if n:
            v, pos = groups[0]
            assert v == 0 and pos.tolist() == [0]

    def test_group_sets_invariant_under_permutation(self):
        """Permuting the bank permutes positions, but each group's *set*
        of bank indices — hence its RNG streams — is unchanged once
        mapped back through the permutation."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=64)
        perm = rng.permutation(64)
        base = {v: set(pos.tolist()) for v, pos in group_by_value(values)}
        permuted = {
            v: set(perm[pos].tolist())
            for v, pos in group_by_value(values[perm])
        }
        assert base == permuted

    def test_slices_cover_each_boundary_size(self, monkeypatch):
        monkeypatch.setattr(stages, "TILE_ELEMENTS", SMALL_TILE)
        for n_nuc, tile in ((35, FUEL_TILE), (4, WATER_TILE)):
            for n in (0, tile - 1, tile, tile + 1, 2 * tile + 1):
                sizes = [len(range(n)[s]) for s in tile_slices(n_nuc, n)]
                assert sum(sizes) == n
                assert all(size == tile for size in sizes[:-1])
                assert all(0 < size <= tile for size in sizes)
            tail = [len(range(2 * tile + 1)[s])
                    for s in tile_slices(n_nuc, 2 * tile + 1)][-1]
            assert tail == 1

    def test_a_material_wider_than_the_tile_still_advances(self, monkeypatch):
        monkeypatch.setattr(stages, "TILE_ELEMENTS", 8)
        assert [s.stop - s.start for s in tile_slices(35, 3)] == [1, 1, 1]

    def test_tiles_partition_the_groups_in_energy_bands(
        self, monkeypatch, small_library, small_union
    ):
        monkeypatch.setattr(stages, "TILE_ELEMENTS", SMALL_TILE)
        ctx = make_ctx(small_library, small_union)
        rng = np.random.default_rng(3)
        mats = rng.integers(0, 3, 60)
        energies = rng.uniform(0.0, 1.0, 60)
        seen = []
        last = {}
        for material, pos in material_tiles(ctx, mats, energies):
            mid = ctx.model.materials.index(material)
            assert (mats[pos] == mid).all()
            assert pos.size * material.n_nuclides <= SMALL_TILE
            band = energies[pos]
            assert (np.diff(band) >= 0).all()
            # Bands of one material do not overlap: a tile's gathers stay
            # in one stretch of union columns.
            assert band[0] >= last.get(mid, -1.0)
            last[mid] = band[-1]
            seen.append(pos)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(seen)), np.arange(60)
        )

    def test_unbanded_tiles_keep_bank_order(
        self, monkeypatch, small_library, small_union
    ):
        monkeypatch.setattr(stages, "TILE_ELEMENTS", SMALL_TILE)
        ctx = make_ctx(small_library, small_union)
        mats = np.random.default_rng(3).integers(0, 3, 60)
        for mid in range(3):
            pos = np.concatenate(
                [p for m, p in material_tiles(ctx, mats)
                 if m is ctx.material(mid)]
            )
            np.testing.assert_array_equal(pos, np.flatnonzero(mats == mid))


class TestTileBoundariesBitIdentical:
    """A generation cut into tiny tiles equals the same generation with one
    tile per material group — every tally, counter, RNG state, site."""

    @pytest.mark.parametrize("groups", BOUNDARY_GROUPS)
    @pytest.mark.parametrize("survival", [False, True])
    @pytest.mark.parametrize(
        "backend, with_union",
        [
            (EventBackend, True),
            (EventBackend, False),
            (DeltaBackend, True),
        ],
        ids=["event", "event-no-union", "delta"],
    )
    def test_generation(
        self, monkeypatch, small_library, small_union, backend, with_union,
        survival, groups,
    ):
        union = small_union if with_union else None
        runs = [
            run_generation(
                monkeypatch, small_library, union, backend(), tile, groups,
                survival_biasing=survival,
            )
            for tile in (SMALL_TILE, UNTILED)
        ]
        assert_same_bits(*runs)
        # The small-tile run really was cut up, one-lane tail tiles included.
        assert len(runs[0]["tiles"]) > len(runs[1]["tiles"])
        assert max(runs[0]["tiles"]) <= WATER_TILE
        assert 1 in runs[0]["tiles"]


class TestBanding:
    def test_lookup_is_independent_of_bank_order(
        self, monkeypatch, small_library, small_union
    ):
        """Handing the lookup stage the live lanes in any order leaves every
        per-lane output — and each lane's RNG stream — bit-identical."""
        monkeypatch.setattr(stages, "TILE_ELEMENTS", SMALL_TILE)
        pos, en = source(30, 40)
        n = en.size
        outputs = []
        drew = []
        for lanes in (
            np.arange(n),
            np.random.default_rng(1).permutation(n),
            np.arange(n)[::-1].copy(),
        ):
            ctx = make_ctx(small_library, small_union)
            bank = ParticleBank.from_source(pos, en, 0, ctx.master_seed)
            sig = SigmaTables.zeros(n)
            before = bank.rng_state.copy()
            XS_LOOKUP.banked(ctx, bank, lanes, sig)
            drew.append(int((bank.rng_state != before).sum()))
            outputs.append(
                (sig.total, sig.capture, sig.fission, sig.nu_fission,
                 bank.rng_state, bank.material, ctx.counters.as_dict())
            )
        assert drew[0] > 0  # URR draws: the streams are part of the claim
        for other in outputs[1:]:
            for a, b in zip(outputs[0][:-1], other[:-1]):
                np.testing.assert_array_equal(a, b)
            assert outputs[0][-1] == other[-1]


class TestWorkspace:
    @pytest.fixture()
    def calc(self, small_library, small_union):
        return XSCalculator(small_library, small_union, use_urr=False)

    @pytest.fixture()
    def fuel(self, small_library, small_union):
        return make_ctx(small_library, small_union).material(0)

    def test_public_results_never_alias_the_workspace(self, calc, fuel):
        e = np.geomspace(1e-8, 1.0, 12)
        first = calc.attribution_weights(fuel, e, Reaction.ELASTIC)
        kept = first.copy()
        second = calc.attribution_weights(fuel, e[::-1], Reaction.FISSION)
        res = calc.banked(fuel, e)
        held = [first, second, *res.values()]
        for i, a in enumerate(held):
            for buf in calc.workspace._buffers:
                assert not np.shares_memory(a, buf)
            for b in held[i + 1:]:
                assert not np.shares_memory(a, b)
        # ... so a held result survives the calls that followed it.
        np.testing.assert_array_equal(first, kept)

    def test_block_form_is_a_workspace_view(self, calc, fuel):
        e = np.geomspace(1e-8, 1.0, 12)
        block = calc._attribution_block(fuel, e, Reaction.ELASTIC)
        assert any(np.shares_memory(block, b) for b in calc.workspace._buffers)
        np.testing.assert_array_equal(
            block, calc.attribution_weights(fuel, e, Reaction.ELASTIC)
        )

    def test_workspace_grows_to_the_largest_request_only(self, calc, fuel):
        calc.banked(fuel, np.geomspace(1e-8, 1.0, 50))
        buffers = [b.ctypes.data for b in calc.workspace._buffers]
        assert sum(b.itemsize for b in calc.workspace._buffers) == 65
        calc.banked(fuel, np.geomspace(1e-8, 1.0, 7))
        calc.attribution_weights(fuel, np.array([1e-3]), Reaction.CAPTURE)
        assert [b.ctypes.data for b in calc.workspace._buffers] == buffers

    @pytest.mark.parametrize("n", [1, 6])
    def test_corrupt_index_matrix_raises_instead_of_clipping(
        self, small_library, small_union, n
    ):
        """One rank word's count field at its maximum, on the nuclide that
        ends the SoA arrays: the interval lies past them, which a clip-mode
        gather alone would read as the last grid point."""
        union = UnionizedGrid(small_library)  # private copy to corrupt
        calc = XSCalculator(small_library, union, use_urr=False)
        water = make_ctx(small_library, small_union).material(2)
        last = len(small_library) - 1
        assert last in water.resolve(small_library)[0]
        e = np.geomspace(1e-6, 1e-2, n)
        calc.banked(water, e)
        word = union.search(float(e[0])) // union.step_bits
        union.words[last, word] |= np.uint64(2**64 - 2**union.step_bits)
        with pytest.raises(IndexError, match="corrupt index matrix"):
            calc.banked(water, e)
        with pytest.raises(IndexError, match="corrupt index matrix"):
            calc.attribution_weights(water, e, Reaction.ELASTIC)


class TestTracedPeak:
    """With the tile fixed, what a generation allocates grows with the bank
    only through per-lane vectors."""

    N = 60

    def peak(self, monkeypatch, library, union, tile, n):
        monkeypatch.setattr(stages, "TILE_ELEMENTS", tile)
        ctx = make_ctx(library, union)
        backend = EventBackend()
        backend.run_generation(ctx, *source(4, 4), GlobalTallies())  # plans
        ctx.calculator.workspace = TileWorkspace()
        pos, en = source(n, 0)
        tracemalloc.start()
        try:
            backend.run_generation(ctx, pos, en, GlobalTallies())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_nuclides_by_bank_term(self, monkeypatch, large_library):
        union = UnionizedGrid(large_library)
        n_nuc = make_ctx(large_library, union).material(0).n_nuclides
        assert n_nuc > 300
        # One float64 matrix over the extra lanes; the untiled path forms
        # a dozen of them.
        one_matrix = n_nuc * 3 * self.N * 8
        tile = 8 * n_nuc
        grown = self.peak(
            monkeypatch, large_library, union, tile, 4 * self.N
        ) - self.peak(monkeypatch, large_library, union, tile, self.N)
        assert grown < one_matrix
        untiled = self.peak(
            monkeypatch, large_library, union, UNTILED, 4 * self.N
        ) - self.peak(monkeypatch, large_library, union, UNTILED, self.N)
        assert untiled > 4 * one_matrix
