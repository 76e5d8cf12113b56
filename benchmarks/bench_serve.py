"""Service bench: throughput vs workers, cache economics, dispatch overhead.

Three questions, mirroring the paper's fixed-cost-amortization analysis at
the job level:

* **Throughput vs worker count** — how does drain time scale as workers are
  added?  (On a single-core CI box the curve is flat; the bench reports it
  rather than asserting a speedup.)
* **Cache hit vs miss service time** — a cold job pays library
  construction; warm jobs must not (the service analogue of Fig. 3's
  offload fixed overhead).
* **Overhead budget** — queue + dispatch bookkeeping (the service loop's
  own CPU work, measured by the ``dispatch_overhead_seconds`` histogram)
  must stay **< 5% of total worker service time** at 4 workers: scheduling
  is supposed to be free next to transport, just as checkpointing is next
  to a batch.
"""

import json

import pytest

from repro.serve import JobSpec, SimulationService

SETTINGS = {
    "n_particles": 64,
    "n_inactive": 0,
    "n_active": 2,
    "mode": "event",
    "pincell": True,
}


def make_specs(n, prefix, *, seed0=1, library_seed=20150525):
    return [
        JobSpec(
            job_id=f"{prefix}{i}",
            library_seed=library_seed,
            settings={**SETTINGS, "seed": seed0 + i},
        )
        for i in range(n)
    ]


def drain(n_workers, specs, *, cache_dir=None):
    service = SimulationService(
        n_workers=n_workers,
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    results = service.run(specs)
    service.shutdown()
    assert all(r.status == "done" for r in results)
    return service, results


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_throughput_vs_worker_count(n_workers, tmp_path, benchmark):
    """Wall time to drain a fixed batch at 1/2/4 workers."""
    specs = make_specs(4, f"tp{n_workers}-")

    def run():
        return drain(n_workers, specs, cache_dir=tmp_path / "cache")

    service, results = benchmark.pedantic(run, rounds=1, iterations=1)
    total_service = sum(r.service_seconds for r in results)
    print(
        f"\n{n_workers} workers: {len(results)} jobs, "
        f"{total_service:.2f}s total service time, "
        f"{len(results) / total_service:.2f} jobs/s of worker time"
    )


def test_cache_hit_vs_miss_service_time(tmp_path):
    """Warm jobs must skip the library build entirely."""
    specs = make_specs(3, "c")
    service, results = drain(1, specs, cache_dir=tmp_path / "cache")
    cold, warm = results[0], results[1:]
    assert cold.library_source == "built"
    assert cold.build_seconds > 0
    for r in warm:
        assert r.library_source == "memory"
        assert r.build_seconds == 0.0
    doc = json.loads(service.metrics.to_json())
    assert doc["metrics"]["library_builds"]["value"] == 1
    print(
        f"\ncold (build+run): {cold.service_seconds * 1e3:.0f} ms "
        f"(build {cold.build_seconds * 1e3:.0f} ms), "
        f"warm mean: "
        f"{1e3 * sum(r.service_seconds for r in warm) / len(warm):.0f} ms"
    )


class TestOverheadBudget:
    def test_dispatch_overhead_under_5pct_at_4_workers(self, tmp_path):
        """Queue + dispatch bookkeeping < 5% of worker service time."""
        specs = make_specs(8, "ov")
        service, results = drain(4, specs, cache_dir=tmp_path / "cache")
        doc = json.loads(service.metrics.to_json())
        overhead = doc["metrics"]["dispatch_overhead_seconds"]["sum"]
        service_time = doc["metrics"]["service_seconds"]["sum"]
        assert service_time > 0
        fraction = overhead / service_time
        print(
            f"\nqueue+dispatch overhead: {overhead * 1e3:.1f} ms over "
            f"{service_time:.2f}s of service time "
            f"({100 * fraction:.2f}% — budget 5%)"
        )
        assert fraction < 0.05
