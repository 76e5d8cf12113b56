"""Tests for the two layouts: the library's own flat arrays (the SoA) and
the AoS ablation copy."""

import numpy as np
import pytest

from repro.data.soa import AOS_DTYPE, AoSLibrary
from repro.types import Reaction


@pytest.fixture(scope="module")
def soa(small_library):
    """The library is the SoA."""
    return small_library


@pytest.fixture(scope="module")
def aos(small_library):
    return AoSLibrary(small_library)


class TestSoAStructure:
    def test_offsets_partition(self, small_library, soa):
        assert soa.offsets[0] == 0
        assert soa.offsets[-1] == sum(n.n_points for n in small_library)
        assert np.all(np.diff(soa.offsets) > 0)

    def test_flat_arrays_match_nuclides(self, small_library, soa):
        for i, nuc in enumerate(small_library):
            sl = slice(soa.offsets[i], soa.offsets[i + 1])
            np.testing.assert_array_equal(soa.energy[sl], nuc.energy)
            np.testing.assert_array_equal(soa.xs[:, sl], nuc.xs)

    def test_per_nuclide_scalars(self, small_library, soa):
        i = small_library.index("U235")
        assert soa.awr[i] == small_library["U235"].awr
        assert soa.fissionable[i]
        assert not soa.fissionable[small_library.index("H1")]


class TestGatherEquivalence:
    def test_soa_gather_matches_nuclide(self, small_library, soa):
        nuc = small_library["U238"]
        nid = small_library.index("U238")
        energies = np.geomspace(1e-9, 10.0, 40)
        idx = nuc.find_index_many(energies)
        got = soa.micro_xs_gather(nid, energies, idx)
        expected = nuc.micro_xs_many(energies)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_aos_gather_matches_soa(self, small_library, soa, aos):
        nuc = small_library["U235"]
        nid = small_library.index("U235")
        energies = np.geomspace(1e-9, 10.0, 40)
        idx = nuc.find_index_many(energies)
        np.testing.assert_allclose(
            aos.micro_xs_gather(nid, energies, idx),
            soa.micro_xs_gather(nid, energies, idx),
            rtol=1e-13,
        )

    def test_micro_total_across_nuclides(self, small_library, soa):
        e = 1e-3
        idx = np.array([n.find_index(e) for n in small_library])
        totals = soa.micro_total_across_nuclides(e, idx)
        for i, nuc in enumerate(small_library):
            assert totals[i] == pytest.approx(
                nuc.micro_xs(e)[Reaction.TOTAL], rel=1e-12
            )


class TestAoSLayout:
    def test_record_interleaving(self, small_library, aos):
        """The AoS records really are interleaved: one record spans energy
        plus all reactions (40 bytes)."""
        assert AOS_DTYPE.itemsize == 40
        rec = aos.records[0]
        nuc = small_library[0]
        np.testing.assert_array_equal(rec["energy"], nuc.energy)
        np.testing.assert_array_equal(rec["total"], nuc.xs[Reaction.TOTAL])

    def test_field_access_is_strided(self, aos):
        """AoS field views are strided by the record size (the layout
        property that defeats unit-stride vector loads)."""
        view = aos.records[0]["total"]
        assert view.strides[0] == AOS_DTYPE.itemsize

    def test_counts(self, small_library, aos):
        assert aos.n_nuclides == len(small_library)
        assert aos.nbytes > 0
