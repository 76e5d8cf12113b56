"""Tests for library serialization round-trips."""

import io

import numpy as np
import pytest

from repro.data.io import load_library, save_library
from repro.errors import DataError


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "library.npz"


class TestRoundTrip:
    def test_exact_arrays(self, small_library, path):
        save_library(small_library, path)
        loaded = load_library(path)
        assert loaded.names == small_library.names
        for name in small_library.names:
            np.testing.assert_array_equal(
                loaded[name].energy, small_library[name].energy
            )
            np.testing.assert_array_equal(
                loaded[name].xs, small_library[name].xs
            )

    def test_scalar_attributes(self, small_library, path):
        save_library(small_library, path)
        loaded = load_library(path)
        for name in ("U235", "U238", "H1"):
            a, b = small_library[name], loaded[name]
            assert a.awr == b.awr
            assert a.fissionable == b.fissionable
            assert a.nu0 == b.nu0
            assert a.has_urr == b.has_urr
            assert a.urr_emin == b.urr_emin

    def test_urr_tables(self, small_library, path):
        save_library(small_library, path)
        loaded = load_library(path)
        assert set(loaded.urr) == set(small_library.urr)
        np.testing.assert_array_equal(
            loaded.urr["U238"].factors, small_library.urr["U238"].factors
        )

    def test_sab_tables(self, small_library, path):
        save_library(small_library, path)
        loaded = load_library(path)
        np.testing.assert_array_equal(
            loaded.sab["H1"].e_out, small_library.sab["H1"].e_out
        )

    def test_config_and_model(self, small_library, path):
        save_library(small_library, path)
        loaded = load_library(path)
        assert loaded.model == small_library.model
        assert loaded.config == small_library.config

    def test_loaded_library_transports(self, small_library, path):
        """A loaded library runs a simulation identically to the original."""
        from repro.transport import Settings, Simulation

        save_library(small_library, path)
        loaded = load_library(path)
        settings = Settings(
            n_particles=50, n_inactive=0, n_active=2, pincell=True,
            mode="event", seed=5,
        )
        r1 = Simulation(small_library, settings).run()
        r2 = Simulation(loaded, settings).run()
        np.testing.assert_allclose(
            r1.statistics.k_collision, r2.statistics.k_collision, rtol=1e-14
        )


class TestFileForm:
    """The file is the library's three flat arrays, under the name given."""

    @pytest.mark.parametrize("name", ["lib", "lib.dat", "lib.npz"])
    def test_the_name_given_is_the_name_written(
        self, small_library, tmp_path, name
    ):
        target = tmp_path / "out" / name
        target.parent.mkdir()
        save_library(small_library, str(target))
        assert [p.name for p in target.parent.iterdir()] == [name]
        assert load_library(str(target)).names == small_library.names

    def test_three_pointwise_members_whatever_the_nuclide_count(
        self, small_library, large_library, path
    ):
        for library in (small_library, large_library):
            save_library(library, path)
            with np.load(path) as data:
                pointwise = {
                    m for m in data.files if not m.startswith(("urr/", "sab/"))
                }
                assert pointwise == {"energy", "xs", "offsets", "__meta__"}
                assert data["energy"].shape == library.energy.shape
                assert data["offsets"].shape == (len(library) + 1,)

    def test_stream_round_trip(self, small_library):
        buf = io.BytesIO()
        save_library(small_library, buf)
        loaded = load_library(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(loaded.xs, small_library.xs)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_library(tmp_path / "nope.npz")

    def test_not_a_library_file(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, a=np.ones(3))
        with pytest.raises(DataError):
            load_library(bogus)

    def test_schema_1_file_is_a_typed_error(self, path, write_schema1_library):
        write_schema1_library(path)
        with pytest.raises(DataError, match="schema 1"):
            load_library(path)

    def test_malformed_bytes_fail_typed(self, small_library, path):
        """Garbage, a torn archive, a missing member, a nuclide list that
        disagrees with the offsets: always ``DataError``, naming the file."""
        buf = io.BytesIO()
        save_library(small_library, buf)
        whole = buf.getvalue()
        with np.load(io.BytesIO(whole)) as data:
            members = {name: data[name] for name in data.files}
        no_xs = io.BytesIO()
        np.savez(no_xs, **{k: v for k, v in members.items() if k != "xs"})
        short = io.BytesIO()
        np.savez(short, **{**members, "offsets": members["offsets"][:-1]})
        for blob in (
            b"", b"not a real npz", whole[: len(whole) // 2],
            no_xs.getvalue(), short.getvalue(),
        ):
            path.write_bytes(blob)
            with pytest.raises(DataError, match="library.npz"):
                load_library(path)
            with pytest.raises(DataError, match="<stream>"):
                load_library(io.BytesIO(blob))
