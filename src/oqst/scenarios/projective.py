"""Single projective measurement: closed-form energetics and entropy checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels import IMPOSSIBLE_BRANCH, apply_instrument, projective_instrument
from ..qmath import DensityOperator, as_matrix, shannon_entropy, von_neumann_entropy
from ..thermo import control_energetics


@dataclass(frozen=True)
class ProjectiveReport:
    """Per-outcome work/heat of one projective readout, with both routes.

    ``w_ctrl`` and ``q_ctrl`` come from the instrument machinery;
    ``w_closed`` and ``q_closed`` evaluate the matrix-element expressions
    directly.  The Shannon entropy of the outcomes can only exceed that of
    the input spectrum.
    """

    labels: tuple
    probabilities: np.ndarray
    w_ctrl: float
    q_ctrl: dict
    w_closed: float
    q_closed: dict
    post_energies: dict
    avg_heat: float
    shannon_outcomes: float
    shannon_spectrum: float

    @property
    def entropy_gain(self) -> float:
        return self.shannon_outcomes - self.shannon_spectrum


def run_projective_example(h_system, rho0: DensityOperator, basis) -> ProjectiveReport:
    """Measure ``rho0`` projectively in ``basis`` under Hamiltonian ``h_system``."""
    h = as_matrix(h_system)
    instr = projective_instrument(basis)
    ce = control_energetics(instr, h, rho0)
    vecs = [np.asarray(v, dtype=complex).ravel() for v in basis]
    diag_h = np.array([np.vdot(v, h @ v).real for v in vecs])
    probs = np.array([np.vdot(v, rho0.matrix @ v).real for v in vecs])
    e_avg_post = float(probs @ diag_h)
    w_closed = e_avg_post - rho0.expectation(h)
    q_closed = {
        r: float(diag_h[r] - e_avg_post)
        for r in range(len(vecs))
        if probs[r] > IMPOSSIBLE_BRANCH
    }
    post_energies = {}
    for res in apply_instrument(instr, rho0):
        if res.state is not None:
            post_energies[res.label] = res.state.expectation(h)
    return ProjectiveReport(
        labels=instr.labels,
        probabilities=probs,
        w_ctrl=ce.w_system,
        q_ctrl=dict(ce.q_system),
        w_closed=float(w_closed),
        q_closed=q_closed,
        post_energies=post_energies,
        avg_heat=ce.average_system_heat(),
        shannon_outcomes=shannon_entropy(probs),
        shannon_spectrum=von_neumann_entropy(rho0.matrix),
    )
