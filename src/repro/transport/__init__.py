"""Transport core: stage kernels, schedules (backends), tallies, simulation.

The physics lives once, in :mod:`repro.transport.stages`; the history,
event, and delta modules are *schedules* over those kernels, selected by
name through the backend registry (:mod:`repro.transport.backends`).
"""

from .backends import (
    DeltaBackend,
    EventBackend,
    HistoryBackend,
    TransportBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .context import FREE_GAS_CUTOFF, TransportContext
from .delta import MajorantXS, fold_reflective, run_generation_delta
from .entropy import EntropyMesh, shannon_entropy
from .events import run_generation_event
from .history import run_generation_history, transport_history
from .meshtally import PowerTally
from .particle import FissionBank, FissionSite, Particle, ParticleBank
from .spectrum import SpectrumTally
from .stages import STAGE_KERNELS, SigmaTables, StageKernel
from .statistics import EfficiencyComparison, figure_of_merit, fom_of_result
from .simulation import Settings, Simulation, SimulationResult
from .tally import BatchStatistics, GlobalTallies, TallyResult

__all__ = [
    "FREE_GAS_CUTOFF",
    "TransportContext",
    "TransportBackend",
    "HistoryBackend",
    "EventBackend",
    "DeltaBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "StageKernel",
    "STAGE_KERNELS",
    "SigmaTables",
    "MajorantXS",
    "fold_reflective",
    "run_generation_delta",
    "EntropyMesh",
    "shannon_entropy",
    "run_generation_event",
    "run_generation_history",
    "transport_history",
    "PowerTally",
    "SpectrumTally",
    "EfficiencyComparison",
    "figure_of_merit",
    "fom_of_result",
    "FissionBank",
    "FissionSite",
    "Particle",
    "ParticleBank",
    "Settings",
    "Simulation",
    "SimulationResult",
    "BatchStatistics",
    "GlobalTallies",
    "TallyResult",
]
