"""Trajectory-level thermodynamics for discretely controlled open quantum systems.

The package samples (or exactly enumerates) quantum trajectories defined
by instrument applications interleaved with Lindblad drift, maintains a
per-step ledger of work, heat, stochastic entropy and entropy production,
and ships the scenarios that exercise it: photon-number stabilization by
delayed atomic feedback, projective readouts, the two-point-measurement
protocol, and the perfectly observed classical limit.
"""

from .qmath import (
    DensityOperator,
    mutual_information,
    partial_trace,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)
from .channels import (
    Instrument,
    OutcomeBranch,
    StinespringDilation,
    apply_instrument,
    average_map,
    projective_instrument,
    stinespring_dilate,
)
from .lindblad import (
    Protocol,
    ThermalGenerator,
    gibbs_state,
    heat_work_segment,
    propagate,
    thermal_cavity_generator,
)
from .thermo import (
    LEDGER_DTYPE,
    ControlEnergetics,
    check_measurement_entropy_lemma,
    control_energetics,
    entropy_production_step,
    first_law_residual,
    stochastic_entropy,
)
from .trajectory import (
    ControlSchedule,
    FeedbackPolicy,
    FixedPolicy,
    StepPlan,
    TrajectoryBlock,
    TrajectoryRecord,
    derive_stream_seeds,
    enumerate_tree,
    sample_blocks,
    sample_ensemble,
    sample_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator", "mutual_information", "partial_trace", "shannon_entropy",
    "tensor_product", "von_neumann_entropy",
    "Instrument", "OutcomeBranch", "StinespringDilation", "apply_instrument",
    "average_map", "projective_instrument", "stinespring_dilate",
    "Protocol", "ThermalGenerator", "gibbs_state", "heat_work_segment",
    "propagate", "thermal_cavity_generator",
    "LEDGER_DTYPE", "ControlEnergetics", "check_measurement_entropy_lemma",
    "control_energetics", "entropy_production_step", "first_law_residual",
    "stochastic_entropy",
    "ControlSchedule", "FeedbackPolicy", "FixedPolicy", "StepPlan",
    "TrajectoryBlock", "TrajectoryRecord", "derive_stream_seeds", "enumerate_tree",
    "sample_blocks", "sample_ensemble", "sample_trajectory",
    "__version__",
]
