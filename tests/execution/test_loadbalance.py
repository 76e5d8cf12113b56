"""Tests for Eq. 3 load balancing, its N-way fleet generalization, and
the adaptive alpha controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.execution.loadbalance import (
    AdaptiveAlphaController,
    alpha_split,
    alpha_split_counts,
    equal_assignments,
    equal_split,
    fleet_split,
)


class TestEqualSplit:
    def test_even(self):
        assert equal_split(100, 4) == [25, 25, 25, 25]

    def test_remainder_to_first(self):
        assert equal_split(10, 3) == [4, 3, 3]

    def test_single_rank(self):
        assert equal_split(7, 1) == [7]

    def test_invalid(self):
        with pytest.raises(ExecutionError):
            equal_split(10, 0)

    def test_assignments_are_contiguous_over_the_given_ranks(self):
        """The static plan every rank-split driver starts from: the equal
        counts as contiguous slices, labelled with the alive ranks in
        order."""
        plan = equal_assignments(90, [0, 2, 3, 5])
        assert [rank for rank, _ in plan] == [0, 2, 3, 5]
        assert [sl.stop - sl.start for _, sl in plan] == equal_split(90, 4)
        assert plan[0][1].start == 0
        assert plan[-1][1].stop == 90
        for (_, left), (_, right) in zip(plan, plan[1:]):
            assert left.stop == right.start


class TestAlphaSplit:
    def test_paper_example(self):
        """Paper §III-B3: 1e7 particles, alpha=0.62 -> (6172840, 3827160)."""
        n_mic, n_cpu = alpha_split(10_000_000, 1, 1, 0.62)
        assert n_mic == 6_172_840
        assert n_cpu == 3_827_160

    def test_total_conserved(self):
        for alpha in (0.3, 0.62, 1.0, 2.0):
            for p_mic, p_cpu in [(1, 1), (2, 1), (2, 2), (4, 2)]:
                n_mic, n_cpu = alpha_split(1_000_003, p_mic, p_cpu, alpha)
                assert p_mic * n_mic + p_cpu * n_cpu <= 1_000_003
                # Rounding loses at most p_mic particles.
                assert p_mic * n_mic + p_cpu * n_cpu > 1_000_003 - p_mic

    def test_alpha_one_is_nearly_equal(self):
        n_mic, n_cpu = alpha_split(1000, 1, 1, 1.0)
        assert abs(n_mic - n_cpu) <= 1

    def test_small_alpha_gives_mic_more(self):
        n_mic, n_cpu = alpha_split(1000, 1, 1, 0.5)
        assert n_mic > n_cpu
        assert n_cpu / n_mic == pytest.approx(0.5, abs=0.01)

    def test_no_mics(self):
        n_mic, n_cpu = alpha_split(1000, 0, 2, 0.62)
        assert n_mic == 0 and n_cpu == 500

    def test_validation(self):
        with pytest.raises(ExecutionError):
            alpha_split(100, 0, 0, 0.5)
        with pytest.raises(ExecutionError):
            alpha_split(100, 1, 1, -0.1)

    def test_no_cpus(self):
        """p_cpu == 0 degenerate branch: everything goes to the MICs."""
        n_mic, n_cpu = alpha_split(1001, 2, 0, 0.62)
        assert n_cpu == 0
        assert n_mic == equal_split(1001, 2)[0] == 501

    def test_no_mics_takes_ceil_not_floor(self):
        """p_mic == 0 branch uses the equal split's first-rank (ceil)
        count, so no particle is silently dropped."""
        n_mic, n_cpu = alpha_split(1001, 0, 2, 0.62)
        assert (n_mic, n_cpu) == (0, 501)

    def test_extreme_alpha_clamps_instead_of_negative_mic(self):
        """Rounding with an extreme alpha and many CPU ranks used to
        drive the MIC count negative; the clamp keeps it at zero."""
        n_mic, n_cpu = alpha_split(8, 1, 9, 10.0)
        assert (n_mic, n_cpu) == (8, 0)
        assert n_mic >= 0 and n_cpu >= 0

    @given(
        n=st.integers(min_value=0, max_value=10**7),
        p_mic=st.integers(min_value=0, max_value=6),
        p_cpu=st.integers(min_value=0, max_value=6),
        alpha=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_negative_and_never_overcommits(
        self, n, p_mic, p_cpu, alpha
    ):
        if p_mic + p_cpu == 0:
            return
        n_mic, n_cpu = alpha_split(n, p_mic, p_cpu, alpha)
        assert n_mic >= 0 and n_cpu >= 0
        if p_mic > 0 and p_cpu > 0:
            assert p_mic * n_mic + p_cpu * n_cpu <= n
        elif p_mic == 0:
            # Degenerate class: first-rank (ceil) count of the equal split.
            assert n_cpu == equal_split(n, p_cpu)[0]
        else:
            assert n_mic == equal_split(n, p_mic)[0]


class TestAlphaSplitCounts:
    def test_sums_exactly(self):
        """Unlike scalar alpha_split (which floors the per-MIC count),
        the per-rank counts always sum to exactly n_total."""
        mic_counts, cpu_counts = alpha_split_counts(1_000_003, 3, 2, 0.62)
        assert sum(mic_counts) + sum(cpu_counts) == 1_000_003
        assert len(mic_counts) == 3 and len(cpu_counts) == 2

    def test_cpu_count_bit_identical_to_scalar(self):
        for n, alpha in [(10_000_000, 0.62), (999_999, 1.7), (12345, 0.3)]:
            _, n_cpu = alpha_split(n, 2, 3, alpha)
            _, cpu_counts = alpha_split_counts(n, 2, 3, alpha)
            assert cpu_counts == [n_cpu] * 3

    def test_mic_remainder_spread_equal_split_style(self):
        mic_counts, _ = alpha_split_counts(1_000_001, 3, 1, 0.62)
        assert max(mic_counts) - min(mic_counts) <= 1
        assert mic_counts == sorted(mic_counts, reverse=True)

    def test_degenerate_classes(self):
        assert alpha_split_counts(10, 0, 3, 0.5) == ([], [4, 3, 3])
        assert alpha_split_counts(10, 3, 0, 0.5) == ([4, 3, 3], [])

    @given(
        n=st.integers(min_value=0, max_value=10**7),
        p_mic=st.integers(min_value=1, max_value=6),
        p_cpu=st.integers(min_value=1, max_value=6),
        alpha=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_rounding_invariant(self, n, p_mic, p_cpu, alpha):
        """The satellite's rounding invariant: per-rank counts are
        non-negative and sum to exactly n_total, for any alpha."""
        mic_counts, cpu_counts = alpha_split_counts(n, p_mic, p_cpu, alpha)
        assert all(c >= 0 for c in (*mic_counts, *cpu_counts))
        assert sum(mic_counts) + sum(cpu_counts) == n


class TestFleetSplit:
    def test_n2_bit_identical_to_alpha_split_paper_example(self):
        """Eq. 3 is the N=2 special case: weights [1, alpha] reproduce
        alpha_split bit-for-bit (same float expression, same rounding)."""
        n_mic, n_cpu = alpha_split(10_000_000, 1, 1, 0.62)
        assert fleet_split(10_000_000, [1.0, 0.62]) == [n_mic, n_cpu]
        assert fleet_split(10_000_000, [1.0, 0.62]) == [6_172_840, 3_827_160]

    @given(
        n=st.integers(min_value=0, max_value=10**7),
        alpha=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_n2_bit_identity_sweep(self, n, alpha):
        n_mic, n_cpu = alpha_split(n, 1, 1, alpha)
        if n_mic < 0:  # pragma: no cover - clamped away in alpha_split
            return
        assert fleet_split(n, [1.0, alpha]) == [n_mic, n_cpu]

    def test_scale_invariant(self):
        """Weights are rates on any scale; only ratios matter."""
        w = [4050.0, 6641.0, 1234.5]
        assert fleet_split(10**6, w) == fleet_split(
            10**6, [x / 4050.0 for x in w]
        )

    def test_proportionality(self):
        counts = fleet_split(1_000_000, [1.0, 2.0, 3.0])
        assert sum(counts) == 1_000_000
        assert counts[1] / counts[0] == pytest.approx(2.0, rel=1e-4)
        assert counts[2] / counts[0] == pytest.approx(3.0, rel=1e-4)

    def test_zero_weight_rank_gets_nothing(self):
        counts = fleet_split(1000, [1.0, 0.0, 1.0])
        assert counts[1] == 0
        assert sum(counts) == 1000

    def test_zero_weight_anchor_skipped(self):
        """The anchor (remainder absorber) is the first *positive* rank."""
        counts = fleet_split(7, [0.0, 1.0, 1.0])
        assert counts[0] == 0
        assert sum(counts) == 7

    def test_single_rank(self):
        assert fleet_split(42, [3.0]) == [42]

    def test_zero_particles(self):
        assert fleet_split(0, [1.0, 2.0]) == [0, 0]

    def test_overshoot_decrements_deterministically(self):
        """When rounding overcommits, counts are walked back from the
        largest (ties to the lowest rank) until the anchor is whole."""
        for n in range(1, 200):
            counts = fleet_split(n, [1e-6, 1.0, 1.0, 1.0])
            assert all(c >= 0 for c in counts)
            assert sum(counts) == n

    def test_validation(self):
        with pytest.raises(ExecutionError):
            fleet_split(-1, [1.0])
        with pytest.raises(ExecutionError):
            fleet_split(10, [])
        with pytest.raises(ExecutionError):
            fleet_split(10, [1.0, -0.5])
        with pytest.raises(ExecutionError):
            fleet_split(10, [0.0, 0.0])

    @given(
        n=st.integers(min_value=0, max_value=10**7),
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_rounding_invariant(self, n, weights):
        """The satellite's rounding invariant, N-way: counts are
        non-negative, zero-weight ranks idle, and the sum is exact."""
        if sum(weights) <= 0:
            with pytest.raises(ExecutionError):
                fleet_split(n, weights)
            return
        counts = fleet_split(n, weights)
        assert len(counts) == len(weights)
        assert all(c >= 0 for c in counts)
        assert sum(counts) == n
        assert all(c == 0 for c, w in zip(counts, weights) if w == 0)


class TestAdaptiveAlpha:
    def test_starts_equal(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1)
        n_mic, n_cpu = ctrl.split(1000)
        assert n_mic == n_cpu == 500

    def test_first_observation_sets_alpha(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1)
        a = ctrl.observe(cpu_rate=4050.0, mic_rate=6641.0)
        assert a == pytest.approx(0.61, abs=0.005)

    def test_split_after_observation(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1)
        ctrl.observe(4050.0, 6641.0)
        n_mic, n_cpu = ctrl.split(100_000)
        assert n_mic > n_cpu
        assert n_cpu / n_mic == pytest.approx(0.61, abs=0.01)

    def test_smoothing(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
        ctrl.observe(1000.0, 1000.0)  # alpha = 1
        a = ctrl.observe(500.0, 1000.0)  # measured 0.5
        assert a == pytest.approx(0.75)

    def test_converges_to_true_alpha(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
        for _ in range(12):
            ctrl.observe(4050.0, 6641.0)
        assert ctrl.alpha == pytest.approx(4050 / 6641, rel=1e-6)

    def test_rejects_bad_rates(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1)
        with pytest.raises(ExecutionError):
            ctrl.observe(0.0, 100.0)


class TestRateShift:
    """Satellite: a mid-run regime change (device throttles 4x at batch k)
    snaps alpha to the measured ratio instead of EMA-crawling to it — the
    split re-converges within two batches."""

    def test_four_x_shift_converges_within_two_batches(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
        for _ in range(6):
            ctrl.observe(cpu_rate=4000.0, mic_rate=6600.0)
        settled = ctrl.alpha
        assert settled == pytest.approx(4000 / 6600, rel=1e-2)
        # Batch k: the MIC throttles 4x — the measured ratio quadruples,
        # far outside the shift window, so alpha snaps to it immediately.
        shifted = ctrl.observe(cpu_rate=4000.0, mic_rate=1650.0)
        true_alpha = 4000 / 1650
        assert shifted == pytest.approx(true_alpha)
        # Batch k+1 confirms the new regime; the split is converged.
        again = ctrl.observe(cpu_rate=4000.0, mic_rate=1650.0)
        assert again == pytest.approx(true_alpha, rel=1e-6)
        n_mic, n_cpu = ctrl.split(100_000)
        assert n_cpu / n_mic == pytest.approx(true_alpha, rel=1e-3)

    def test_ema_alone_would_not_converge_in_two_batches(self):
        """The control case motivating the snap: with the shift detector
        off, two post-shift batches still sit far from the new ratio."""
        ctrl = AdaptiveAlphaController(
            p_mic=1, p_cpu=1, smoothing=0.5, shift_factor=1.0
        )
        for _ in range(6):
            ctrl.observe(4000.0, 6600.0)
        for _ in range(2):
            ctrl.observe(4000.0, 1650.0)
        true_alpha = 4000 / 1650
        assert abs(ctrl.alpha - true_alpha) / true_alpha > 0.15

    def test_in_window_noise_still_smooths(self):
        """Ordinary batch noise (well inside the 2x window) keeps the EMA
        behaviour — the snap only fires on regime changes."""
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
        ctrl.observe(1000.0, 1000.0)  # alpha = 1.0
        a = ctrl.observe(1100.0, 1000.0)  # measured 1.1: in-window
        assert a == pytest.approx(0.5 * 1.1 + 0.5 * 1.0)

    def test_shift_down_also_snaps(self):
        ctrl = AdaptiveAlphaController(p_mic=1, p_cpu=1, smoothing=0.5)
        ctrl.observe(1000.0, 1000.0)  # alpha = 1.0
        a = ctrl.observe(250.0, 1000.0)  # CPU throttles 4x
        assert a == pytest.approx(0.25)
