"""Checkpoint/restart and fault-tolerant recovery for long eigenvalue runs.

The paper's calculation-rate figures assume every generation runs to
completion; production runs do not get that luxury.  This package closes the
operational gap in three layers:

* :mod:`repro.resilience.checkpoint` — versioned, integrity-hashed on-disk
  snapshots of full simulation state, written atomically between batches;
* :mod:`repro.resilience.faults` — a deterministic (seeded) fault-injection
  plan: rank crashes, PCIe transfer stalls, and mid-batch kills;
* :mod:`repro.resilience.recovery` — retry/backoff policies and the
  rank-failure recovery path that redistributes a dead rank's particle
  slice across survivors.

The load-bearing invariant is **bit-identical resume**: because every
particle's RNG stream is keyed by its *global* id
(:mod:`repro.rng.lcg`), and tallies are additive, a run that crashes and
resumes from its latest checkpoint — or loses a rank and redistributes its
slice — produces exactly the batch k-estimates, tallies, and entropy trace
of an uninterrupted run.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    DEFAULT_CADENCE,
    CheckpointState,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    settings_fingerprint,
)
from .faults import FaultEvent, FaultKind, FaultPlan, SimulatedCrash
from .recovery import RetryPolicy, redistribute_slice

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_CADENCE",
    "CheckpointState",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "settings_fingerprint",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SimulatedCrash",
    "RetryPolicy",
    "redistribute_slice",
]
