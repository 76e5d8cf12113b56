"""Tests for the Hoogenboom-Martin library builder."""

import numpy as np
import pytest

from dataclasses import replace

from repro.data import (
    LibraryConfig,
    build_library,
    build_nuclide,
    fuel_nuclide_names,
    library_fingerprint,
)
from repro.data.library import CLAD_NUCLIDES, HM_SMALL_FUEL, WATER_NUCLIDES
from repro.errors import DataError
from repro.types import Reaction


class TestFuelNames:
    def test_small_has_34(self):
        assert len(fuel_nuclide_names("hm-small")) == 34

    def test_large_has_320(self):
        names = fuel_nuclide_names("hm-large")
        assert len(names) == 320
        assert len(set(names)) == 320

    def test_large_extends_small(self):
        assert fuel_nuclide_names("hm-large")[:34] == HM_SMALL_FUEL

    def test_unknown_model_rejected(self):
        with pytest.raises(DataError):
            fuel_nuclide_names("hm-medium")


class TestLibraryStructure:
    def test_small_size(self, small_library):
        expected = 34 + len(CLAD_NUCLIDES) + len(WATER_NUCLIDES)
        assert len(small_library) == expected

    def test_large_size(self, large_library):
        expected = 320 + len(CLAD_NUCLIDES) + len(WATER_NUCLIDES)
        assert len(large_library) == expected

    def test_lookup_by_name_and_index(self, small_library):
        u238 = small_library["U238"]
        i = small_library.index("U238")
        assert small_library[i] is u238

    def test_contains(self, small_library):
        assert "H1" in small_library
        assert "Unobtainium" not in small_library

    def test_names_ordered_and_stable(self, small_library):
        names = small_library.names
        assert names[: len(HM_SMALL_FUEL)] == HM_SMALL_FUEL

    def test_deterministic_across_builds(self, tiny_config):
        a = build_library("hm-small", tiny_config)
        b = build_library("hm-small", tiny_config)
        np.testing.assert_array_equal(a["U235"].xs, b["U235"].xs)

    def test_seed_changes_data(self, tiny_config):
        a = build_library("hm-small", tiny_config)
        b = build_library("hm-small", tiny_config.with_seed(1))
        assert not np.array_equal(a["U235"].xs, b["U235"].xs)

    def test_nbytes_positive(self, small_library):
        assert small_library.nbytes > 0


class TestNuclidePhysics:
    def test_fissile_nuclides_have_thermal_fission(self, small_library):
        u235 = small_library["U235"]
        xs = u235.micro_xs(2.53e-8)
        assert xs[Reaction.FISSION] > 100.0

    def test_u238_not_thermally_fissile(self, small_library):
        u238 = small_library["U238"]
        xs = u238.micro_xs(2.53e-8)
        assert xs[Reaction.FISSION] < 0.1 * xs[Reaction.CAPTURE]

    def test_b10_is_one_over_v_absorber(self, small_library):
        b10 = small_library["B10"]
        thermal = b10.micro_xs(2.53e-8)[Reaction.CAPTURE]
        fast = b10.micro_xs(1.0)[Reaction.CAPTURE]
        assert thermal > 1000.0
        assert fast < 10.0

    def test_h1_scatterer(self, small_library):
        h1 = small_library["H1"]
        xs = h1.micro_xs(1e-3)
        assert xs[Reaction.ELASTIC] == pytest.approx(20.4, rel=0.05)
        assert xs[Reaction.FISSION] == 0.0

    def test_xe135_strong_absorber(self, small_library):
        xe = small_library["Xe135"]
        assert xe.micro_xs(2.53e-8)[Reaction.CAPTURE] > 1e4

    def test_actinides_have_urr(self, small_library):
        for name in ("U235", "U238", "Pu239"):
            nuc = small_library[name]
            assert nuc.has_urr
            assert name in small_library.urr
            assert nuc.urr_emax > nuc.urr_emin > 0

    def test_fission_products_lack_urr(self, small_library):
        assert not small_library["Xe135"].has_urr

    def test_h1_has_sab(self, small_library):
        assert small_library["H1"].has_sab
        assert "H1" in small_library.sab

    def test_only_h1_has_sab(self, small_library):
        assert set(small_library.sab) == {"H1"}

    def test_awr_tracks_mass(self, small_library):
        assert small_library["U238"].awr == pytest.approx(238.0, rel=0.01)
        assert small_library["H1"].awr == pytest.approx(1.0, rel=0.01)

    def test_synthetic_fp_masses_in_range(self, large_library):
        fp = large_library["FP000"]
        assert 60 <= fp.awr <= 180
        assert not fp.fissionable


class TestConfigs:
    def test_tiny_smaller_than_default(self):
        tiny = LibraryConfig.tiny()
        default = LibraryConfig()
        assert tiny.heavy_resonances < default.heavy_resonances
        assert tiny.n_base_points < default.n_base_points

    def test_build_nuclide_standalone(self, tiny_config):
        nuc, urr, sab = build_nuclide("U238", tiny_config)
        assert nuc.name == "U238"
        assert urr is not None
        assert sab is None

    def test_fingerprint_is_pinned_and_one_string_per_library(self):
        tiny = LibraryConfig.tiny()
        assert library_fingerprint("hm-small", LibraryConfig()) == (
            "d42caff01b0798abf42a3fc68bed5f714a6f30c2053f61b6dd21e9d626f25f16"
        )
        assert library_fingerprint("hm-small", tiny) == (
            "5eeb9c0960087d012a38fb777c1809a9fb6be0de8c7141633a5444e556d195a1"
        )
        assert library_fingerprint("hm-small", LibraryConfig.tiny()) is (
            library_fingerprint("hm-small", tiny)
        )
        assert library_fingerprint("hm-large", tiny) != (
            library_fingerprint("hm-small", tiny)
        )
        # Equal configs whose fields encode apart keep apart fingerprints,
        # whichever of them was asked for first.
        assert library_fingerprint(
            "hm-small", replace(tiny, temperature=600)
        ) == "86066ca08140657a5ecbe2ea896fad1a542a1e54524e2eda79d9da41dd9bd9e0"
        assert library_fingerprint(
            "hm-small", replace(tiny, temperature=600.0)
        ) == "7bb4813a54f518419367e1c7869587bbdf6a51108eff68a83fe3ab2353b68562"

    def test_fission_q(self, small_library):
        assert small_library.fission_q("U235") == pytest.approx(200.0)
