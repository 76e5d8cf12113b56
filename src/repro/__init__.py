"""repro — reproduction of "A Performance Analysis of SIMD Algorithms for
Monte Carlo Simulations of Nuclear Reactor Cores" (Ozog, Malony & Siegel,
IPDPS Workshops 2015).

The package is layered (see DESIGN.md):

* :mod:`repro.rng`, :mod:`repro.data`, :mod:`repro.geometry` — substrates
  (random numbers, synthetic nuclear data, CSG + Hoogenboom-Martin models);
* :mod:`repro.physics`, :mod:`repro.transport` — the Monte Carlo neutron
  transport core, with bit-equivalent history-based and event-based
  (banked) algorithms;
* :mod:`repro.simd`, :mod:`repro.machine` — the SIMD lane machine and the
  calibrated Xeon Phi / host / PCIe performance models;
* :mod:`repro.execution`, :mod:`repro.cluster` — cost models and split
  planners for the offload / native / symmetric execution models, and the
  distributed driver that runs ranks;
* :mod:`repro.proxy`, :mod:`repro.experiments` — XSBench/RSBench proxies
  and the per-table/figure experiment harness.

Quickstart::

    from repro import build_library, LibraryConfig, Simulation, Settings
    library = build_library("hm-small", LibraryConfig.tiny())
    result = Simulation(library, Settings(n_particles=500, pincell=True,
                                          mode="event")).run()
    print(result.k_effective)

Every error the package raises derives from :class:`ReproError`, and the
full typed hierarchy is importable from here:

======================== =====================================================
Error                    Raised when
======================== =====================================================
``ReproError``           (base class — catch-all for the package)
``GeometryError``        a particle can't be located / model inconsistent
``DataError``            nuclear-data construction or lookup failed
``PhysicsError``         a physics routine received an unphysical state
``MachineModelError``    the device/cost model was misconfigured
``ExecutionError``       an execution model was misconfigured
``ClusterError``         the simulated cluster was used incorrectly
``CommunicationError``   a collective received malformed buffers
``CheckpointError``      a checkpoint failed to write/read/validate
``FaultInjectionError``  a fault plan was configured inconsistently
``SupervisionError``     the supervision layer was misused
``DeadlineExceededError`` an operation overran its deadline/budget
``DegradedRunError``     eviction would drop below the policy's rank floor
``ServeError``           the simulation service was misused
``JobError``             a job spec/result was malformed
``QueueFullError``       the job queue rejected a submission (backpressure)
``WorkerCrashError``     a worker died with a job in flight
``PoisonedJobError``     a job was quarantined by the circuit breaker
``ScenarioError``        a scenario document failed validation/compilation
``GatewayError``         the gateway tier was configured/used incorrectly
``ShardQuarantinedError`` no routable shard remains (all quarantined)
``SuiteError``           a case-suite document was malformed
``JournalError``         the write-ahead journal is corrupt beyond repair
``CorruptEntryError``    a durable-store entry failed its digest check
``ChaosError``           a chaos schedule/invariant was violated
======================== =====================================================
"""

from .data import LibraryConfig, NuclideLibrary, UnionizedGrid, build_library
from .errors import (
    ChaosError,
    CheckpointError,
    ClusterError,
    CommunicationError,
    CorruptEntryError,
    DataError,
    DeadlineExceededError,
    DegradedRunError,
    ExecutionError,
    FaultInjectionError,
    GatewayError,
    GeometryError,
    JobError,
    JournalError,
    MachineModelError,
    PhysicsError,
    PoisonedJobError,
    QueueFullError,
    ReproError,
    ScenarioError,
    ServeError,
    ShardQuarantinedError,
    SuiteError,
    SupervisionError,
    WorkerCrashError,
)
from .geometry import build_hm_geometry, build_pincell_geometry
from .transport import Settings, Simulation, SimulationResult, TransportContext
from .work import WorkCounters

__version__ = "1.0.0"

__all__ = [
    "LibraryConfig",
    "NuclideLibrary",
    "UnionizedGrid",
    "build_library",
    "build_hm_geometry",
    "build_pincell_geometry",
    "Settings",
    "Simulation",
    "SimulationResult",
    "TransportContext",
    "WorkCounters",
    # Typed error hierarchy (see the table in the module docstring).
    "ReproError",
    "GeometryError",
    "DataError",
    "PhysicsError",
    "MachineModelError",
    "ExecutionError",
    "ClusterError",
    "CommunicationError",
    "CheckpointError",
    "FaultInjectionError",
    "SupervisionError",
    "DeadlineExceededError",
    "DegradedRunError",
    "ServeError",
    "JobError",
    "QueueFullError",
    "WorkerCrashError",
    "PoisonedJobError",
    "ScenarioError",
    "SuiteError",
    "GatewayError",
    "ShardQuarantinedError",
    "JournalError",
    "CorruptEntryError",
    "ChaosError",
    "__version__",
]
