"""Ablation 3 (DESIGN.md §5): unionized energy grid vs per-nuclide search.

Leppänen's unionized grid trades memory (Table II's GB-scale index matrix;
here rank words at 64 / W bits an entry) for replacing per-nuclide binary
searches with one union search plus gathers.  Both configurations are
exercised through the banked kernel; the grid-search work counters quantify
the reduction.
"""

import numpy as np
import pytest

from repro.data import LibraryConfig, UnionizedGrid, build_library
from repro.proxy.xsbench import XSBench

N = 2_000


@pytest.fixture(scope="module")
def with_union(tiny_large, union_large):
    xs = XSBench(tiny_large, union_large)
    return xs, xs.generate_lookups(N)


@pytest.fixture(scope="module")
def without_union(tiny_large):
    from repro.physics.macroxs import XSCalculator

    # Build an XSBench-like wrapper whose calculator has no union grid.
    xs = XSBench(tiny_large)
    xs.calculator = XSCalculator(tiny_large, None, use_sab=False, use_urr=False)
    return xs, xs.generate_lookups(N)


def test_unionized_lookups(benchmark, with_union):
    xs, sample = with_union
    t, counters = benchmark(xs.run_banked, sample)
    # One union search per particle.
    assert counters.grid_searches == N


def test_per_nuclide_search_lookups(benchmark, without_union):
    xs, sample = without_union
    t, counters = benchmark(xs.run_banked, sample)
    # One search per particle *per nuclide*.
    assert counters.grid_searches > 30 * N


def test_union_reduces_search_work(with_union, without_union):
    xs_u, sample = with_union
    xs_n, _ = without_union
    _, c_u = xs_u.run_banked(sample)
    _, c_n = xs_n.run_banked(sample)
    assert c_u.grid_searches * 30 < c_n.grid_searches


def test_union_memory_cost(tiny_large, union_large):
    """The trade: per nuclide one 64-bit rank word for every ``W`` union
    points — 64 / W bits per (nuclide, union point) entry against the 16 of
    the narrowest integer matrix these grids would allow."""
    words = union_large.words
    entries = len(tiny_large) * union_large.n_union
    bits_per_entry = 8 * words.nbytes / entries
    print(
        f"\nunion grid (hm-large tiny): {words.shape[0]} x {words.shape[1]} "
        f"rank words of {union_large.step_bits} step bits = "
        f"{words.nbytes / 1e6:.2f} MB for {entries} entries, "
        f"{bits_per_entry:.2f} bits each; "
        f"{words.nbytes / union_large.energy.nbytes:.1f}x the "
        f"{union_large.energy.nbytes / 1e6:.3f} MB of union energies"
    )
    assert 64 / union_large.step_bits <= bits_per_entry < 2


@pytest.mark.parametrize("model", ["hm-small", "hm-large"])
def test_rank_query_is_the_direct_search_at_default_fidelity(model):
    """Exact by construction, and shown: ``j`` for every (nuclide, union
    point) of the default libraries — 2.1 M and 89.7 M entries — equals the
    nuclide's own clamped search."""
    library = build_library(model, LibraryConfig())
    union = UnionizedGrid(library)
    assert union.step_bits == 52
    every = np.arange(union.n_union)
    for i, nuc in enumerate(library):
        direct = np.searchsorted(nuc.energy, union.energy, "right") - 1
        np.clip(direct, 0, nuc.n_points - 2, out=direct)
        assert np.array_equal(union.nuclide_indices(i, every), direct), nuc.name
