"""Batched eigenvalue simulation: the power-iteration driver.

Runs the standard Monte Carlo k-eigenvalue scheme the paper's OpenMC
experiments use: an initial fission source sampled in the fuel, a number of
**inactive batches** (source convergence, monitored by Shannon entropy, no
tallies reported) followed by **active batches** whose tallies accumulate the
k-effective estimators.  Either transport algorithm — history or event —
drives a generation; both produce identical results by construction.

The headline metric is the paper's *calculation rate* (simulated neutrons
per second), reported both measured (wall clock of this Python
implementation) and as raw work counters for the machine model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..constants import ENERGY_MAX
from ..data.library import NuclideLibrary
from ..data.unionized import UnionizedGrid
from ..errors import ExecutionError
from ..geometry.hoogenboom import (
    ACTIVE_HALF_HEIGHT,
    ASSEMBLY_PITCH,
    MAT_FUEL,
    PIN_PITCH,
    pattern_from_rows,
)
from ..profiling.timers import Profile, TimerRegistry
from ..resilience.checkpoint import (
    CheckpointState,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
    settings_fingerprint,
)
from ..resilience.faults import FaultPlan, SimulatedCrash
from ..work import WorkCounters
from .backends import available_backends, get_backend
from .context import TransportContext
from .entropy import EntropyMesh
from .meshtally import PowerTally
from .tally import BatchStatistics, GlobalTallies, TallyResult

__all__ = ["Settings", "SimulationResult", "Simulation"]


@dataclass(frozen=True)
class Settings:
    """Simulation controls.

    ``mode`` selects the transport backend by registry name
    (:func:`repro.transport.backends.available_backends`): ``"history"``
    (scalar, OpenMC-style), ``"event"`` (banked, vectorized), or
    ``"delta"`` (Woodcock delta tracking against a majorant cross
    section).
    """

    n_particles: int = 1000
    n_inactive: int = 2
    n_active: int = 5
    seed: int = 1
    mode: str = "history"
    pincell: bool = False
    use_sab: bool = True
    use_urr: bool = True
    use_union_grid: bool = True
    use_fast_geometry: bool = True
    #: Implicit capture + Russian roulette (variance reduction) instead of
    #: analog absorption.
    survival_biasing: bool = False
    #: Accumulate an assembly-resolved power map over active batches.
    tally_power: bool = False
    #: Soluble-boron concentration of the moderator [ppm].
    boron_ppm: float = 600.0
    #: Scale factor on the U-235 fuel density (enrichment sweeps).
    enrichment_scale: float = 1.0
    #: Explicit fuel isotopics: ``(nuclide, number_density)`` pairs applied
    #: over the model census (the scenario system's MOX/depletion channel).
    fuel_overrides: tuple = ()
    #: Declarative core footprint: rows of ``F``/``W`` characters, square.
    #: Empty means the canonical 241-assembly Hoogenboom-Martin map.
    #: Ignored for pin-cell runs.
    core_pattern: tuple = ()
    #: Watt fission-spectrum parameters of the initial guess source.
    source_watt_a: float = 0.988
    source_watt_b: float = 2.249
    #: Write a checkpoint every N recorded batches (0 disables).
    checkpoint_every: int = 0
    #: Directory receiving checkpoint files (required when checkpointing).
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in available_backends():
            raise ExecutionError(
                f"unknown transport mode {self.mode!r}; "
                f"available: {', '.join(available_backends())}"
            )
        if self.n_particles < 1 or self.n_active < 1:
            raise ExecutionError("need n_particles >= 1 and n_active >= 1")
        # JSON round-trips deliver lists; canonicalize to tuples so frozen
        # Settings compare (and fingerprint) identically either way.
        object.__setattr__(
            self,
            "fuel_overrides",
            tuple((str(n), float(r)) for n, r in self.fuel_overrides),
        )
        object.__setattr__(
            self, "core_pattern", tuple(str(r) for r in self.core_pattern)
        )
        if not (self.boron_ppm >= 0.0):
            raise ExecutionError("boron_ppm must be >= 0")
        if not (self.enrichment_scale > 0.0):
            raise ExecutionError("enrichment_scale must be > 0")
        for nuc, rho in self.fuel_overrides:
            if not (rho > 0.0):
                raise ExecutionError(
                    f"fuel override {nuc!r} needs a positive density"
                )
        if self.core_pattern:
            # Parse eagerly: a malformed lattice should fail at Settings
            # construction, not batches later inside a worker.
            pattern_from_rows(self.core_pattern)
        if self.checkpoint_every < 0:
            raise ExecutionError("checkpoint_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ExecutionError(
                "checkpoint_every > 0 requires checkpoint_dir"
            )
        if self.mode == "delta":
            if self.tally_power:
                raise ExecutionError(
                    "delta tracking does not score track-length tallies "
                    "(no power map); use history or event mode"
                )
            if not self.use_union_grid:
                raise ExecutionError("delta tracking requires the union grid")


@dataclass
class SimulationResult:
    """Outcome of a batched eigenvalue run."""

    statistics: BatchStatistics
    counters: WorkCounters
    wall_time: float
    n_particles: int
    n_batches: int
    mode: str
    #: Assembly power map accumulated over active batches (when
    #: ``Settings.tally_power`` was set).
    power: "PowerTally | None" = None
    #: Routine profile (transport, checkpoint write/restore); for resumed
    #: runs this is the merge of all segments' profiles.
    profile: Profile | None = None

    @property
    def k_effective(self) -> TallyResult:
        """Combined k estimate.

        Collision/absorption/track-length for the surface-tracking modes;
        delta tracking scores no track-length estimator, so its combination
        uses the first two only.
        """
        if self.mode == "delta":
            combined = [
                0.5 * (a + b)
                for a, b in zip(
                    self.statistics.k_collision, self.statistics.k_absorption
                )
            ]
            stats = BatchStatistics(n_inactive=self.statistics.n_inactive)
            stats.k_collision = combined
            return stats._stat(combined)
        return self.statistics.combined_k()

    @property
    def calculation_rate(self) -> float:
        """Measured neutrons simulated per wall-clock second (the paper's
        headline metric, here for the Python implementation)."""
        total = self.n_particles * self.n_batches
        return total / self.wall_time if self.wall_time > 0 else float("inf")

    @property
    def entropy_trace(self) -> list[float]:
        return self.statistics.entropy


class Simulation:
    """A batched eigenvalue calculation over a built transport context."""

    def __init__(
        self,
        library: NuclideLibrary,
        settings: Settings,
        context: TransportContext | None = None,
    ) -> None:
        self.library = library
        self.settings = settings
        if context is None:
            union = (
                UnionizedGrid(library) if settings.use_union_grid else None
            )
            context = TransportContext.create(
                library,
                pincell=settings.pincell,
                union=union,
                use_sab=settings.use_sab,
                use_urr=settings.use_urr,
                use_fast_geometry=settings.use_fast_geometry,
                master_seed=settings.seed,
                survival_biasing=settings.survival_biasing,
                boron_ppm=settings.boron_ppm,
                enrichment_scale=settings.enrichment_scale,
                fuel_overrides=settings.fuel_overrides,
                core_pattern=settings.core_pattern,
            )
        self.ctx = context
        # Core extent comes from the context's geometry, so custom lattice
        # footprints (scenarios) get a matching mesh and source region.
        half = (
            0.5 * PIN_PITCH if settings.pincell else self.ctx.fast.half_core
        )
        self.mesh = EntropyMesh(
            lower=(-half, -half, -ACTIVE_HALF_HEIGHT),
            upper=(half, half, ACTIVE_HALF_HEIGHT),
            shape=(8, 8, 8) if not settings.pincell else (2, 2, 8),
        )
        self._source_rng = np.random.default_rng(settings.seed)
        #: Static timers: transport generations plus checkpoint write/restore.
        self.timers = TimerRegistry("simulation")

    # -- Source ----------------------------------------------------------------

    def initial_source(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform fission source in the fuel (rejection sampled) with a
        Watt birth spectrum."""
        rng = self._source_rng
        if self.settings.pincell:
            half, zmax = 0.5 * PIN_PITCH, ACTIVE_HALF_HEIGHT
        else:
            half, zmax = self.ctx.fast.half_core, ACTIVE_HALF_HEIGHT
        positions = np.empty((n, 3))
        filled = 0
        while filled < n:
            m = max(4 * (n - filled), 64)
            cand = np.column_stack(
                [
                    rng.uniform(-half, half, m),
                    rng.uniform(-half, half, m),
                    rng.uniform(-zmax, zmax, m),
                ]
            )
            ok = self.ctx.fast.locate_many(cand) == MAT_FUEL
            take = min(int(ok.sum()), n - filled)
            positions[filled : filled + take] = cand[ok][:take]
            filled += take
        energies = self._watt_numpy(
            n, rng, a=self.settings.source_watt_a,
            b=self.settings.source_watt_b,
        )
        return positions, energies

    @staticmethod
    def _watt_numpy(n: int, rng: np.random.Generator, a=0.988, b=2.249) -> np.ndarray:
        """Watt spectrum via the same rejection scheme, on the NumPy RNG
        (the initial guess source need not be stream-reproducible)."""
        k = 1.0 + a * b / 8.0
        ell = a * (k + np.sqrt(k * k - 1.0))
        m = ell / a - 1.0
        out = np.empty(n)
        filled = 0
        while filled < n:
            todo = n - filled
            x = -np.log(rng.random(todo) + 1e-300)
            y = -np.log(rng.random(todo) + 1e-300)
            ok = (y - m * (x + 1.0)) ** 2 <= b * ell * x
            take = int(ok.sum())
            out[filled : filled + take] = ell * x[ok]
            filled += take
        return np.clip(out, 1e-11, ENERGY_MAX)

    # -- Checkpointing -----------------------------------------------------------

    def _write_checkpoint(
        self,
        batches_done: int,
        id_offset: int,
        stats: BatchStatistics,
        positions: np.ndarray,
        energies: np.ndarray,
        power: "PowerTally | None",
        elapsed_seconds: float,
    ):
        """Snapshot full between-batch state to the configured directory."""
        power_state = None
        if power is not None:
            power_state = {
                "shape": power.shape,
                "half_width": power.half_width,
                "n_batches": power.n_batches,
                "sum": power._sum,
                "sum_sq": power._sum_sq,
            }
        state = CheckpointState(
            batches_done=batches_done,
            id_offset=id_offset,
            n_inactive=stats.n_inactive,
            fingerprint=settings_fingerprint(self.settings),
            positions=positions,
            energies=energies,
            k_collision=stats.k_collision,
            k_absorption=stats.k_absorption,
            k_track=stats.k_track,
            entropy=stats.entropy,
            source_rng_state=self._source_rng.bit_generator.state,
            counters=self.ctx.counters.as_dict(),
            elapsed_seconds=elapsed_seconds,
            profile_json=self.timers.profile.to_json(),
            power=power_state,
        )
        path = checkpoint_path(self.settings.checkpoint_dir, batches_done)
        return save_checkpoint(state, path, timers=self.timers)

    def _restore(self, resume_from, power: "PowerTally | None"):
        """Load a checkpoint and rebuild driver state from it."""
        state = load_checkpoint(
            resume_from,
            expect_fingerprint=settings_fingerprint(self.settings),
            timers=self.timers,
        )
        stats = BatchStatistics(n_inactive=self.settings.n_inactive)
        stats.k_collision = list(state.k_collision)
        stats.k_absorption = list(state.k_absorption)
        stats.k_track = list(state.k_track)
        stats.entropy = list(state.entropy)
        self._source_rng.bit_generator.state = state.source_rng_state
        for name, value in state.counters.items():
            setattr(self.ctx.counters, name, int(value))
        if power is not None and state.power is not None:
            power._sum[:] = state.power["sum"]
            power._sum_sq[:] = state.power["sum_sq"]
            power.n_batches = int(state.power["n_batches"])
        if state.profile_json:
            self.timers.profile = Profile.from_json(state.profile_json).merge(
                self.timers.profile, label=self.timers.profile.label
            )
        return state, stats

    # -- Driver ------------------------------------------------------------------

    def run(
        self,
        *,
        resume_from=None,
        fault_plan: FaultPlan | None = None,
        on_batch=None,
    ) -> SimulationResult:
        """Run the power iteration, optionally resuming from a checkpoint.

        ``resume_from`` names a checkpoint file written by an earlier
        (interrupted) run under physics-identical settings; the resumed run
        is bit-identical to an uninterrupted one.  ``fault_plan`` injects
        deterministic failures (a scheduled ``MID_BATCH_KILL`` raises
        :class:`~repro.resilience.faults.SimulatedCrash` after the batch's
        transport but before any state is recorded — the worst-case loss).

        ``on_batch(batch, seconds, n_particles)`` is called after each
        batch's transport with the batch index and its wall time — the
        supervision hook (:meth:`repro.supervise.Supervisor.batch_callback`
        builds one).  The observer sees timing only, never tallies or
        banks, so it cannot perturb the physics; an observer that raises
        (a batch deadline) aborts the run with its typed error.
        """
        s = self.settings
        n_batches = s.n_inactive + s.n_active
        # One backend instance for the whole run, so per-run caches (the
        # delta majorant) are built once and reused across batches.
        backend = get_backend(s.mode)

        power: PowerTally | None = None
        if s.tally_power:
            if s.pincell:
                half = 0.5 * PIN_PITCH
                power = PowerTally(shape=(1, 1), half_width=half)
            else:
                # One mesh cell per assembly footprint position; the H.M.
                # default reproduces PowerTally's canonical 17x17 mesh.
                n_pat = self.ctx.fast.n_pattern
                power = PowerTally(
                    shape=(n_pat, n_pat),
                    half_width=0.5 * n_pat * ASSEMBLY_PITCH,
                )

        if resume_from is not None:
            state, stats = self._restore(resume_from, power)
            positions, energies = state.positions, state.energies
            start_batch = state.batches_done
            id_offset = state.id_offset
            prior_elapsed = state.elapsed_seconds
        else:
            stats = BatchStatistics(n_inactive=s.n_inactive)
            positions, energies = self.initial_source(s.n_particles)
            start_batch = 0
            id_offset = 0
            prior_elapsed = 0.0

        t0 = time.perf_counter()
        for batch in range(start_batch, n_batches):
            tallies = GlobalTallies()
            k_norm = stats.running_k()
            active = batch >= s.n_inactive
            batch_t0 = time.perf_counter()
            with self.timers.timer("transport_generation"):
                bank = backend.run_generation(
                    self.ctx,
                    positions,
                    energies,
                    tallies,
                    k_norm=k_norm,
                    first_id=id_offset,
                    power=power if active else None,
                )
            if on_batch is not None:
                on_batch(
                    batch, time.perf_counter() - batch_t0, s.n_particles
                )
            if fault_plan is not None and fault_plan.kills_at(batch):
                # The process dies with a full generation transported but
                # nothing recorded — the most work a checkpoint can lose.
                raise SimulatedCrash(
                    f"injected mid-batch kill during batch {batch}"
                )
            id_offset += s.n_particles
            if len(bank) == 0:
                raise ExecutionError(
                    "fission source died out — increase particles or check "
                    "material compositions"
                )
            stats.record(tallies, self.mesh.entropy(bank.positions))
            if power is not None and active:
                power.end_batch(tallies.source_weight)
            positions, energies = bank.sample_source(
                s.n_particles, self._source_rng
            )
            if s.checkpoint_every and (batch + 1) % s.checkpoint_every == 0:
                self._write_checkpoint(
                    batch + 1,
                    id_offset,
                    stats,
                    positions,
                    energies,
                    power,
                    prior_elapsed + time.perf_counter() - t0,
                )
        wall = prior_elapsed + (time.perf_counter() - t0)

        return SimulationResult(
            statistics=stats,
            counters=self.ctx.counters,
            wall_time=wall,
            n_particles=s.n_particles,
            n_batches=n_batches,
            mode=s.mode,
            power=power,
            profile=self.timers.profile,
        )
