"""Integration tests: every experiment runs and reproduces its key claims."""

import pytest

from repro.errors import ReproError
from repro.experiments import Scale, all_experiments, get_experiment, run_experiment

QUICK = Scale.quick()

ALL_IDS = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "table1", "table2", "table3", "ext-futurework", "ext-doppler",
]


class TestRegistry:
    def test_all_registered(self):
        assert sorted(all_experiments()) == sorted(ALL_IDS)

    def test_unknown_id(self):
        with pytest.raises(ReproError):
            get_experiment("fig99")

    def test_scale_of(self):
        assert Scale.of("quick").name == "quick"
        assert Scale.of("paper").name == "paper"
        with pytest.raises(ReproError):
            Scale.of("huge")


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_runs_and_formats(exp_id):
    result = run_experiment(exp_id, "quick")
    assert result.exp_id == exp_id
    assert result.rows
    text = result.format()
    assert exp_id in text


class TestFig1:
    def test_resonance_contrast(self):
        result = run_experiment("fig1", "quick")
        by_regime = {r["regime"]: r["sigma_t [b]"] for r in result.rows}
        peak = by_regime["resolved resonance peak"]
        valley = by_regime["resolved resonance valley"]
        assert peak > 100 * valley


class TestFig2:
    def test_ratio_near_10x(self):
        result = run_experiment("fig2", "quick")
        modelled = [r for r in result.rows if isinstance(r["bank size"], int)]
        big = max(modelled, key=lambda r: r["bank size"])
        assert 8 < big["ratio"] < 12

    def test_measured_banked_wins(self):
        result = run_experiment("fig2", "quick")
        measured = [r for r in result.rows if "measured" in str(r["bank size"])][0]
        assert measured["ratio"] > 3


class TestFig3:
    def test_crossover_and_trends(self):
        result = run_experiment("fig3", "quick")
        small = result.rows[0]
        big = result.rows[-1]
        assert not small["offload wins"]
        assert big["offload wins"]
        assert big["transfer (PCIe)"] < small["transfer (PCIe)"]
        assert big["host XS compute"] > small["host XS compute"]
        assert big["MIC XS compute"] < small["MIC XS compute"]


class TestFig4:
    def test_total_speedup(self):
        result = run_experiment("fig4", "quick")
        total = next(r for r in result.rows if r["routine"] == "TOTAL")
        assert 1.4 < total["CPU/MIC"] < 1.8

    def test_lookups_dominate(self):
        result = run_experiment("fig4", "quick")
        modelled = [r for r in result.rows if r.get("kind") == "modelled"]
        lookup_cpu = sum(
            r["CPU [s]"]
            for r in modelled
            if r["routine"] in ("calculate_xs", "micro_xs_lookup", "grid_search")
        )
        total = next(r for r in modelled if r["routine"] == "TOTAL")["CPU [s]"]
        assert lookup_cpu > 0.5 * total


class TestFig5:
    def test_alpha_band(self):
        result = run_experiment("fig5", "quick")
        alphas = [
            r["alpha_a"]
            for r in result.rows
            if isinstance(r.get("particles"), int)
            and r["particles"] >= 10_000
            and isinstance(r.get("alpha_a"), float)
        ]
        assert all(0.58 < a < 0.68 for a in alphas)

    def test_oom_row(self):
        result = run_experiment("fig5", "quick")
        oom = next(r for r in result.rows if r.get("particles") == 10**8)
        assert oom["CPU inactive [n/s]"] == "OOM"

    def test_measured_larger_batch_faster(self):
        result = run_experiment("fig5", "quick")
        measured = next(
            r for r in result.rows if "measured" in str(r["particles"])
        )
        # Columns reused: small-batch rate, large-batch rate.
        assert measured["MIC inactive [n/s]"] > measured["CPU inactive [n/s]"]


class TestFig6:
    def test_efficiency_shape(self):
        result = run_experiment("fig6", "quick")
        r128 = next(r for r in result.rows if r["nodes"] == 128)
        r1024 = next(r for r in result.rows if r["nodes"] == 1024)
        assert r128["CPU + 1 MIC eff"] >= 0.95
        assert r1024["CPU + 1 MIC eff"] < 0.87
        assert r1024["CPU only eff"] > r1024["CPU + 1 MIC eff"]
        assert "CPU + 2 MIC eff" not in r1024 or r1024.get("CPU + 2 MIC eff") is None


class TestFig7:
    def test_flat(self):
        result = run_experiment("fig7", "quick")
        effs = [r["CPU + 1 MIC eff"] for r in result.rows if r["nodes"] <= 128]
        assert all(e > 0.94 for e in effs)


class TestFig8:
    def test_vectorized_wins_everywhere(self):
        result = run_experiment("fig8", "quick")
        for r in result.rows:
            assert r["speedup"] > 1.0

    def test_mic_gains_more_modelled(self):
        result = run_experiment("fig8", "quick")
        host = next(r for r in result.rows if "host" in r["device"])
        mic = next(r for r in result.rows if "MIC" in r["device"])
        assert mic["speedup"] > host["speedup"]


class TestTables:
    def test_table1_ordering(self):
        result = run_experiment("table1", "quick")
        for r in result.rows:
            if r["kind"] == "modelled":
                assert r["Naive time(s)"] > r["Optimized-1 time(s)"]
                assert r["Optimized-1 time(s)"] >= r["Optimized-2 time(s)"] * 0.99

    def test_table1_matches_paper(self):
        result = run_experiment("table1", "quick")
        cpu = next(r for r in result.rows if "CPU" in r["implementation"])
        assert cpu["Naive time(s)"] == pytest.approx(412, rel=0.05)

    def test_table2_bank_sizes(self):
        result = run_experiment("table2", "quick")
        by_op = {r["operation"]: r["modelled"] for r in result.rows}
        assert by_op["bank size transferred [hm-small]"] == "0.496 GB"
        assert by_op["bank size transferred [hm-large]"] == "2.841 GB"

    def test_table3_headline(self):
        result = run_experiment("table3", "quick")
        two = next(r for r in result.rows if r["hardware"] == "CPU + 2 MIC")
        assert two["load balanced [n/s]"] == pytest.approx(17_098, rel=0.08)
        assert two["load balanced [n/s]"] > two["original [n/s]"]

    def test_table3_rates_pinned_exactly(self):
        """The six Table III rates, recorded from the host+MICs
        subclass before FleetNode took the alpha split: equal to the
        last digit."""
        result = run_experiment("table3", "quick")
        rates = [
            (r["original [n/s]"], r["load balanced [n/s]"])
            for r in result.rows[:4]
        ]
        assert rates == [
            (4041.390302926451, None),
            (6518.25011840355, None),
            (8041.555514485038, 10478.401917966688),
            (12004.909718729734, 16777.472584900413),
        ]

    def test_table3_lb_gains(self):
        result = run_experiment("table3", "quick")
        for r in result.rows:
            if r["load balanced [n/s]"] is not None:
                assert r["load balanced [n/s]"] > r["original [n/s]"]
