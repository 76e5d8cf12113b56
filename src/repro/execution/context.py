"""ExecutionContext: the one object an execution model needs to run transport.

Before this layer existed, each execution model wired itself into transport
with bespoke glue: the offload model threaded its own ``fault_plan`` /
``retry_policy`` fields, the trace module imported the event loop's stats
class directly, and the cluster driver picked ``run_generation_*``
functions by hand.  :class:`ExecutionContext` replaces that ad-hoc
threading with a single bundle carrying

* the **transport context** (geometry + physics + RNG master seed),
* the **backend** — a :class:`~repro.transport.backends.TransportBackend`
  selected by registry name, so no execution code imports transport loop
  functions,
* **profiling timers** (every generation is timed under
  ``"transport_generation"``),
* the **machine cost model** for the chosen execution model (native /
  offload / symmetric) used to *price* what the run *measures*,
* **resilience hooks** (fault plan, retry policy), injected into cost
  models that price them, and
* an optional :class:`~repro.transport.stats.TransportStats` recorder
  feeding the lane-utilization and offload-trace analyses.

The schedulers in :mod:`repro.execution.native`, ``.offload``, and
``.symmetric`` receive an ``ExecutionContext`` and are thereby backend-
agnostic: the same scheduler runs the history, event, or delta schedule,
and the bit-identity contract between schedules carries through every
scheduler (enforced by ``tests/execution/test_schedulers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..profiling.timers import TimerRegistry
from ..resilience.faults import FaultPlan
from ..resilience.recovery import RetryPolicy
from ..transport.backends import TransportBackend, get_backend
from ..transport.context import TransportContext
from ..transport.particle import FissionBank
from ..transport.stats import TransportStats
from ..transport.tally import GlobalTallies

__all__ = ["ExecutionContext"]


@dataclass
class ExecutionContext:
    """Everything a scheduler needs: transport, backend, timers, cost model,
    resilience hooks, and stats — one bundle instead of per-model glue."""

    transport: TransportContext
    backend: TransportBackend
    timers: TimerRegistry = field(
        default_factory=lambda: TimerRegistry("execution")
    )
    #: Machine cost model for the active execution model (NativeModel,
    #: OffloadCostModel, FleetNode) — pricing only, never control flow.
    cost_model: object | None = None
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    #: When present, every generation records per-dispatch stage counts.
    stats: TransportStats | None = None
    #: In-flight watchdog (:class:`repro.supervise.Supervisor`).  Schedulers
    #: feed it per-rank batch observations and honour its evictions through
    #: the hooks below; ``None`` means unsupervised (every hook a no-op).
    supervisor: object | None = None
    #: Work-stealing rebalancer
    #: (:class:`repro.execution.rebalance.WorkStealingRebalancer`).  Only
    #: consulted on the supervised path: each batch's assignment is
    #: re-planned from the supervisor's per-rank EMA rates; ``None`` keeps
    #: the static split.
    rebalancer: object | None = None

    @classmethod
    def create(
        cls,
        library=None,
        *,
        backend: "TransportBackend | str" = "history",
        transport: TransportContext | None = None,
        timers: TimerRegistry | None = None,
        cost_model: object | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        record_stats: bool = False,
        supervisor: object | None = None,
        rebalancer: object | None = None,
        **transport_kwargs,
    ) -> "ExecutionContext":
        """Build a context from a library (or an existing transport context)
        and a backend name.

        Resilience hooks given here are injected into a cost model that
        prices them (the offload model's stall/retry accounting) unless the
        model already carries its own — the hooks live in one place.
        """
        if transport is None:
            if library is None:
                raise ValueError("need a library or a transport context")
            transport = TransportContext.create(library, **transport_kwargs)
        if isinstance(backend, str):
            backend = get_backend(backend)
        if cost_model is not None:
            if fault_plan is not None and getattr(
                cost_model, "fault_plan", fault_plan
            ) is None:
                cost_model.fault_plan = fault_plan
            if retry_policy is not None and getattr(
                cost_model, "retry_policy", retry_policy
            ) is None:
                cost_model.retry_policy = retry_policy
        return cls(
            transport=transport,
            backend=backend,
            timers=timers or TimerRegistry("execution"),
            cost_model=cost_model,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            stats=TransportStats() if record_stats else None,
            supervisor=supervisor,
            rebalancer=rebalancer,
        )

    # -- Transport ---------------------------------------------------------------

    def run_generation(
        self,
        positions: np.ndarray,
        energies: np.ndarray,
        tallies: GlobalTallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ) -> FissionBank:
        """Run one generation through the backend, timed and (optionally)
        stats-recorded."""
        with self.timers.timer("transport_generation"):
            return self.backend.run_generation(
                self.transport,
                positions,
                energies,
                tallies,
                k_norm,
                first_id,
                stats=self.stats,
                power=power,
                spectrum=spectrum,
            )

    # -- Supervision and fault hooks (no-ops without a supervisor / plan) ------

    def begin_batch(self) -> "int | None":
        """Advance the supervisor's batch counter; ``None`` unsupervised."""
        if self.supervisor is None:
            return None
        return self.supervisor.begin_batch()

    def crashed_rank(self, batch: "int | None", alive) -> "int | None":
        """The rank of ``alive`` the plan crashes in ``batch``, if any."""
        if self.fault_plan is None:
            return None
        victim = self.fault_plan.crashed_rank(batch)
        return victim if victim in alive else None

    def observe_ranks(self, batch: "int | None", per_rank: dict) -> None:
        """Feed ``{rank: (seconds, particles)}`` to the health monitor."""
        if self.supervisor is not None:
            for rank in sorted(per_rank):
                self.supervisor.observe_batch(rank, batch, *per_rank[rank])

    def end_batch(self, batch: "int | None", seconds: float, what: str) -> None:
        """Enforce the batch deadline, then evict chronic stragglers for
        the batches that follow."""
        if self.supervisor is not None:
            self.supervisor.enforce_deadline(
                seconds, what=f"{what} batch {batch}"
            )
            self.supervisor.finish_batch(batch)

    # -- Reduction primitives -----------------------------------------------------

    def new_tallies(self) -> GlobalTallies:
        """A fresh per-rank/per-slice tally buffer."""
        return GlobalTallies()

    def merge_banks(self, banks: "list[FissionBank]") -> FissionBank:
        """Merge per-rank banks; the canonical ``(parent, seq)`` ordering
        over global particle ids makes the result identical to the serial
        run's bank regardless of how work was split."""
        merged = FissionBank()
        for bank in banks:
            merged.absorb(bank)
        return merged

    # -- Pricing ------------------------------------------------------------------

    def offload_trace(self, model: object | None = None):
        """Price the recorded queue trace through an offload cost model
        (``model`` overrides :attr:`cost_model`).

        This is the supported route to :func:`repro.execution.trace
        .trace_offload` — schedulers and drivers no longer reach into
        transport internals for the stats object.
        """
        from .trace import trace_offload

        model = model if model is not None else self.cost_model
        if model is None:
            raise ValueError("offload pricing needs an OffloadCostModel")
        if self.stats is None:
            raise ValueError(
                "no stats recorded — create the ExecutionContext with "
                "record_stats=True"
            )
        return trace_offload(self.stats, model)
