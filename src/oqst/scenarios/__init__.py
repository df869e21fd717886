"""Concrete experiments built from the core modules."""

from .cavity import (
    CavityConfig,
    CavityPolicy,
    CavityReport,
    TruncationLeakError,
    atom_instrument,
    atom_transfer,
    cavity_efficiency,
    feedback_decision,
    law_flags,
    run_cavity,
)
from .classical import ClassicalReport, RateModel, run_classical_limit
from .projective import ProjectiveReport, run_projective_example
from .tpm import TpmReport, run_tpm_jarzynski, tpm_process

__all__ = [
    "CavityConfig",
    "CavityPolicy",
    "CavityReport",
    "TruncationLeakError",
    "atom_instrument",
    "atom_transfer",
    "cavity_efficiency",
    "feedback_decision",
    "law_flags",
    "run_cavity",
    "ClassicalReport",
    "RateModel",
    "run_classical_limit",
    "ProjectiveReport",
    "run_projective_example",
    "TpmReport",
    "run_tpm_jarzynski",
    "tpm_process",
]
