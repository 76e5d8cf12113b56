"""Pluggable transport backends: select a schedule by name.

A :class:`TransportBackend` is a *schedule* over the shared stage kernels
(:mod:`repro.transport.stages`): ``history`` runs the scalar applies one
particle at a time, ``event`` runs the banked applies over the compacted
live bank, and ``delta`` runs the banked applies under Woodcock majorant
tracking.  The registry lets every driver — :class:`Simulation`,
``repro.serve``, ``repro.cluster`` —
select a backend by name instead of importing module functions, so a new
schedule plugs in without touching any caller.

The registry stores **factories**: :func:`get_backend` returns a fresh
instance per call, so a backend may cache per-run state (e.g. the delta
backend's majorant table) without leaking it across unrelated runs.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..errors import ExecutionError
from .context import TransportContext
from .particle import FissionBank
from .tally import GlobalTallies

__all__ = [
    "TransportBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "HistoryBackend",
    "EventBackend",
    "DeltaBackend",
]


@runtime_checkable
class TransportBackend(Protocol):
    """One transport schedule: how a generation of particles is advanced
    through the stage kernels.

    All backends share the generation signature and the contract that, for
    the surface-tracking schedules, identical seeds produce bit-identical
    tallies, fission banks, and work counters.
    """

    #: Registry name (``--backend`` on the CLI).
    name: str
    #: Whether the schedule scores the track-length estimator (delta
    #: tracking does not — its flights are against the majorant).
    supports_track_length: bool

    def run_generation(
        self,
        ctx: TransportContext,
        positions: np.ndarray,
        energies: np.ndarray,
        tallies: GlobalTallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ) -> FissionBank:
        """Transport one generation; return the next fission bank."""
        ...


_REGISTRY: dict[str, Callable[[], "TransportBackend"]] = {}


def register_backend(
    name: str, factory: Callable[[], "TransportBackend"]
) -> None:
    """Register a backend factory under ``name`` (last registration wins,
    so downstream code can shadow a built-in with an instrumented variant)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (the CLI's ``--backend`` choices)."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> "TransportBackend":
    """Instantiate the backend registered under ``name``.

    Each call returns a fresh instance: per-run caches (like the delta
    majorant) live on the instance, so hold on to the returned object for
    the duration of a run.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ExecutionError(
            f"unknown transport backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory()


class HistoryBackend:
    """The scalar schedule (OpenMC-style, the paper's baseline)."""

    name = "history"
    supports_track_length = True

    def run_generation(
        self,
        ctx: TransportContext,
        positions: np.ndarray,
        energies: np.ndarray,
        tallies: GlobalTallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ) -> FissionBank:
        from .history import run_generation_history

        return run_generation_history(
            ctx, positions, energies, tallies, k_norm, first_id,
            power=power, spectrum=spectrum,
        )


class EventBackend:
    """The banked schedule (Brown & Martin event-based vectorization)."""

    name = "event"
    supports_track_length = True

    def run_generation(
        self,
        ctx: TransportContext,
        positions: np.ndarray,
        energies: np.ndarray,
        tallies: GlobalTallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ) -> FissionBank:
        from .events import run_generation_event

        return run_generation_event(
            ctx, positions, energies, tallies, k_norm, first_id,
            power=power, spectrum=spectrum,
        )


class DeltaBackend:
    """Woodcock delta tracking against a cached majorant cross section.

    The majorant table is built once per (instance, context) pair and
    reused across batches — the reason :func:`get_backend` hands out fresh
    instances rather than singletons.
    """

    name = "delta"
    supports_track_length = False

    def __init__(self) -> None:
        self._majorant = None
        self._majorant_ctx: TransportContext | None = None

    def run_generation(
        self,
        ctx: TransportContext,
        positions: np.ndarray,
        energies: np.ndarray,
        tallies: GlobalTallies,
        k_norm: float = 1.0,
        first_id: int = 0,
        power=None,
        spectrum=None,
    ) -> FissionBank:
        from .delta import MajorantXS, run_generation_delta

        if power is not None or spectrum is not None:
            raise ExecutionError(
                "delta tracking does not score track-length tallies "
                "(no power map / spectrum); use the history or event backend"
            )
        if self._majorant is None or self._majorant_ctx is not ctx:
            self._majorant = MajorantXS(ctx)
            self._majorant_ctx = ctx
        return run_generation_delta(
            ctx, positions, energies, tallies, k_norm, first_id,
            majorant=self._majorant,
        )


register_backend("history", HistoryBackend)
register_backend("event", EventBackend)
register_backend("delta", DeltaBackend)
