"""Tests for resonance ladder sampling and pointwise reconstruction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.doppler import doppler_zeta, psi_chi
from repro.data.resonance import (
    _BLOCK,
    _INTERFERENCE_TAPER,
    _TAPER_ZERO,
    SIGMA0_CONST_BARN_MEV,
    ResonanceLadder,
    build_energy_grid,
    reconstruct_into,
    reconstruct_xs,
    sample_ladder,
)
from repro.errors import DataError
from repro.types import N_REACTIONS, Reaction

from .oracle import dense_reconstruct_xs


@pytest.fixture()
def ladder(rng):
    return sample_ladder(rng, fissionable=True, n_resonances=12)


class TestSampleLadder:
    def test_energies_increasing(self, ladder):
        assert np.all(np.diff(ladder.e0) > 0)

    def test_counts(self, ladder):
        assert ladder.n_resonances == 12
        assert ladder.gamma_n.shape == (12,)

    def test_widths_positive(self, ladder):
        assert np.all(ladder.gamma_n > 0)
        assert np.all(ladder.gamma_g > 0)
        assert np.all(ladder.gamma_f >= 0)

    def test_nonfissionable_has_zero_fission(self, rng):
        lad = sample_ladder(rng, fissionable=False, n_resonances=5)
        assert np.all(lad.gamma_f == 0)

    def test_empty_ladder(self, rng):
        lad = sample_ladder(rng, fissionable=False, n_resonances=0)
        assert lad.n_resonances == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(DataError):
            sample_ladder(rng, fissionable=False, n_resonances=-1)

    def test_deterministic(self):
        a = sample_ladder(np.random.default_rng(3), fissionable=True, n_resonances=6)
        b = sample_ladder(np.random.default_rng(3), fissionable=True, n_resonances=6)
        np.testing.assert_array_equal(a.e0, b.e0)
        np.testing.assert_array_equal(a.gamma_n, b.gamma_n)

    def test_mean_spacing_respected(self, rng):
        lad = sample_ladder(
            rng, fissionable=False, n_resonances=400, mean_spacing=50e-6
        )
        spacing = np.diff(lad.e0).mean()
        assert spacing == pytest.approx(50e-6, rel=0.15)

    def test_wigner_repulsion(self, rng):
        """Wigner spacings avoid near-degeneracy: tiny gaps are rare."""
        lad = sample_ladder(
            rng, fissionable=False, n_resonances=2000, mean_spacing=1.0e-5
        )
        s = np.diff(lad.e0) / 1.0e-5
        assert (s < 0.05).mean() < 0.01


class TestLadderValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            ResonanceLadder(
                e0=np.array([1e-5, 2e-5]),
                gamma_n=np.array([1e-9]),
                gamma_g=np.array([1e-9, 1e-9]),
                gamma_f=np.array([0.0, 0.0]),
                sigma_pot=10.0,
                sigma_thermal_capture=1.0,
            )

    def test_decreasing_energies_rejected(self):
        with pytest.raises(DataError):
            ResonanceLadder(
                e0=np.array([2e-5, 1e-5]),
                gamma_n=np.ones(2) * 1e-9,
                gamma_g=np.ones(2) * 1e-9,
                gamma_f=np.zeros(2),
                sigma_pot=10.0,
                sigma_thermal_capture=1.0,
            )


class TestEnergyGrid:
    def test_grid_increasing_unique(self, ladder):
        grid = build_energy_grid(ladder, n_base=100, points_per_resonance=8)
        assert np.all(np.diff(grid) > 0)

    def test_resonances_covered(self, ladder):
        grid = build_energy_grid(ladder, n_base=100, points_per_resonance=8)
        # Each resonance peak should have a grid point within one half-width.
        for e0, g in zip(ladder.e0, ladder.gamma_total):
            nearest = np.min(np.abs(grid - e0))
            assert nearest < g

    def test_no_resonances_gives_base_grid(self, rng):
        lad = sample_ladder(rng, fissionable=False, n_resonances=0)
        grid = build_energy_grid(lad, n_base=50)
        assert grid.size == 50

    def test_denser_near_resonances(self, ladder):
        grid = build_energy_grid(ladder, n_base=100, points_per_resonance=10)
        base = build_energy_grid(ladder, n_base=100, points_per_resonance=0)
        assert grid.size > base.size


class TestReconstruct:
    def test_all_nonnegative(self, ladder):
        grid = build_energy_grid(ladder, n_base=200)
        parts = reconstruct_xs(ladder, grid, awr=238.0, temperature=293.6)
        for key, arr in parts.items():
            assert np.all(arr >= 0), key

    def test_total_is_sum(self, ladder):
        grid = build_energy_grid(ladder, n_base=150)
        parts = reconstruct_xs(ladder, grid, awr=238.0, temperature=293.6)
        np.testing.assert_allclose(
            parts["total"],
            parts["elastic"] + parts["capture"] + parts["fission"],
            rtol=1e-12,
        )

    def test_resonance_peaks_visible(self, ladder):
        """Total XS at a resonance peak far exceeds the between-resonance level."""
        e_peak = ladder.e0[5]
        e_valley = 0.5 * (ladder.e0[5] + ladder.e0[6])
        parts = reconstruct_xs(
            ladder, np.array([e_peak, e_valley]), awr=238.0, temperature=293.6
        )
        assert parts["total"][0] > 3.0 * parts["total"][1]

    def test_one_over_v_capture_at_thermal(self, rng):
        lad = sample_ladder(
            rng, fissionable=False, n_resonances=0, sigma_thermal_capture=10.0
        )
        e = np.array([2.53e-8, 4 * 2.53e-8])
        parts = reconstruct_xs(lad, e, awr=10.0, temperature=293.6)
        # 1/v: doubling velocity (4x energy) halves capture.
        assert parts["capture"][1] == pytest.approx(parts["capture"][0] / 2, rel=1e-6)
        assert parts["capture"][0] == pytest.approx(10.0, rel=1e-6)

    def test_doppler_broadening_lowers_peaks(self, ladder):
        peak = np.array([ladder.e0[3]])
        cold = reconstruct_xs(ladder, peak, awr=238.0, temperature=0.0)
        hot = reconstruct_xs(ladder, peak, awr=238.0, temperature=1200.0)
        assert hot["capture"][0] < cold["capture"][0]

    def test_doppler_preserves_integral(self, ladder):
        """Broadening conserves the resonance integral (within wings error)."""
        e0, g = ladder.e0[4], ladder.gamma_total[4]
        grid = np.linspace(e0 - 300 * g, e0 + 300 * g, 20001)
        cold = reconstruct_xs(ladder, grid, awr=238.0, temperature=0.0)
        hot = reconstruct_xs(ladder, grid, awr=238.0, temperature=600.0)
        area_cold = np.trapezoid(cold["capture"], grid)
        area_hot = np.trapezoid(hot["capture"], grid)
        assert area_hot == pytest.approx(area_cold, rel=2e-2)

    def test_wofz_window_accuracy(self, ladder):
        """The far-wing Lorentzian shortcut matches the full evaluation."""
        grid = build_energy_grid(ladder, n_base=150)
        fast = reconstruct_xs(ladder, grid, awr=238.0, temperature=293.6)
        exact = reconstruct_xs(
            ladder, grid, awr=238.0, temperature=293.6, wofz_window=1e9
        )
        np.testing.assert_allclose(fast["total"], exact["total"], rtol=2e-2)

    def test_interference_term_equals_the_two_sqrt_form(self, ladder):
        """``sqrt(e0/E)`` is computed once per chunk and shared by the
        strength and the interference term; the elastic row must equal the
        form that evaluated it twice, bit for bit."""
        awr, temperature = 238.0, 293.6
        grid = build_energy_grid(ladder, n_base=60)
        parts = reconstruct_xs(
            ladder, grid, awr=awr, temperature=temperature, wofz_window=np.inf
        )
        gamma = ladder.gamma_total[:, None]
        e0 = ladder.e0[:, None]
        sigma0 = SIGMA0_CONST_BARN_MEV / e0 * (ladder.gamma_n[:, None] / gamma)
        x = 2.0 * (grid[None, :] - e0) / gamma
        zeta = doppler_zeta(gamma, e0, awr, temperature)
        psi_v, chi_v = psi_chi(np.broadcast_to(zeta, x.shape), x)
        elastic = np.full(grid.size, ladder.sigma_pot)
        elastic += np.sum(
            sigma0 * np.sqrt(e0 / grid[None, :])
            * (ladder.gamma_n[:, None] / gamma) * psi_v
            + np.sqrt(sigma0 * ladder.sigma_pot)
            * np.sqrt(e0 / grid[None, :])
            * chi_v
            * np.exp(-((x / _INTERFERENCE_TAPER) ** 2)),
            axis=0,
        )
        np.clip(elastic, 0.0, None, out=elastic)
        np.testing.assert_array_equal(parts["elastic"], elastic)

    def test_rejects_nonpositive_energy(self, ladder):
        with pytest.raises(DataError):
            reconstruct_xs(ladder, np.array([0.0]), awr=238.0, temperature=300.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_energy(self, ladder, bad, recwarn):
        """Was four NaN rows and a ``RuntimeWarning`` (``nan <= 0`` is false)."""
        with pytest.raises(DataError, match="finite"):
            reconstruct_xs(
                ladder, np.array([1e-5, bad]), awr=238.0, temperature=300.0
            )
        assert not recwarn.list

    @pytest.mark.parametrize("energies", [np.full((2, 3), 1e-5), 1e-5])
    def test_rejects_energies_that_are_not_one_dimensional(self, ladder, energies):
        """A 2-D grid was NumPy's "non-broadcastable output operand"."""
        with pytest.raises(DataError, match="1-D"):
            reconstruct_xs(ladder, energies, awr=238.0, temperature=300.0)

    def test_into_rejects_an_output_of_the_wrong_shape(self, ladder):
        with pytest.raises(DataError, match="N_REACTIONS"):
            reconstruct_into(
                ladder, np.array([1e-5, 2e-5]), np.empty((N_REACTIONS, 3)),
                awr=238.0, temperature=300.0,
            )

    def test_into_fills_a_strided_view_and_nothing_else(self, ladder):
        """The library hands the kernel a column slice of its flat array."""
        grid = build_energy_grid(ladder, n_base=40)
        flat = np.full((N_REACTIONS, grid.size + 5), -1.0)
        reconstruct_into(
            ladder, grid, flat[:, 3:-2], awr=238.0, temperature=293.6
        )
        parts = reconstruct_xs(ladder, grid, awr=238.0, temperature=293.6)
        for reaction in Reaction:
            np.testing.assert_array_equal(
                flat[reaction, 3:-2], parts[reaction.name.lower()]
            )
        assert np.all(flat[:, :3] == -1.0) and np.all(flat[:, -2:] == -1.0)

    @given(temp=st.floats(min_value=100.0, max_value=3000.0))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_positive_at_any_temperature(self, ladder, temp):
        grid = np.geomspace(1e-11, 20.0, 200)
        parts = reconstruct_xs(ladder, grid, awr=238.0, temperature=temp)
        assert np.all(parts["total"] > 0)


def probe_grid(rng, ladder, n):
    """``n`` unsorted energies: a log-uniform background, exact line centers,
    and points from a hundredth of a half-width to 10^4 half-widths off a
    line — inside the Faddeeva window, between it and the taper's zero, and
    beyond both."""
    grid = np.exp(rng.uniform(np.log(1e-11), np.log(20.0), n))
    if ladder.n_resonances:
        j = rng.integers(ladder.n_resonances, size=n)
        x = rng.choice([-1.0, 0.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 4.0, n)
        near_line = ladder.e0[j] + 0.5 * ladder.gamma_total[j] * x
        pick = (rng.random(n) < 0.7) & (near_line > 0)
        grid[pick] = near_line[pick]
    return grid


class TestBitIdenticalToTheDenseOracle:
    """The blocked, windowed kernel against the formulation it replaced
    (``oracle.py``): all four rows, every bit."""

    @pytest.mark.parametrize("wofz_window", [0.0, 50.0, 1e9, np.inf])
    @pytest.mark.parametrize(
        "n_e", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_resonances=st.sampled_from([0, 1, 3, 40]),
        fissionable=st.booleans(),
        temperature=st.sampled_from([0.0, 293.6, 1200.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_all_four_rows(
        self, wofz_window, n_e, seed, n_resonances, fissionable, temperature
    ):
        rng = np.random.default_rng(seed)
        ladder = sample_ladder(
            rng, fissionable=fissionable, n_resonances=n_resonances,
            sigma_thermal_fission=500.0 * fissionable,
        )
        grid = probe_grid(rng, ladder, n_e)
        kwargs = dict(awr=238.0, temperature=temperature, wofz_window=wofz_window)
        got = reconstruct_xs(ladder, grid, **kwargs)
        want = dense_reconstruct_xs(ladder, grid, **kwargs)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    def test_windows_cover_every_regime(self):
        """The probe grid is not vacuous: one draw has pairs on a line
        center, inside 50 half-widths, out to the taper's zero, and beyond."""
        rng = np.random.default_rng(5)
        ladder = sample_ladder(rng, fissionable=True, n_resonances=40)
        grid = probe_grid(rng, ladder, 3 * _BLOCK + 7)
        x = np.abs(
            2.0 * (grid[None, :] - ladder.e0[:, None]) / ladder.gamma_total[:, None]
        )
        taper = np.exp(-((x / _INTERFERENCE_TAPER) ** 2))
        for mask in (x == 0, (x > 0) & (x <= 50), (x > 50) & (taper > 0), taper == 0):
            assert mask.sum() >= 10
        assert x[taper == 0].min() < _TAPER_ZERO < x.max()

    def test_an_empty_grid_is_four_empty_rows(self, ladder):
        parts = reconstruct_xs(ladder, np.empty(0), awr=238.0, temperature=300.0)
        assert [v.shape for v in parts.values()] == [(0,)] * N_REACTIONS
