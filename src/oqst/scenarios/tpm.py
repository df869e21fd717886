"""Two-point energy measurement around a unitary drive.

Starting from a Gibbs state, the energy is measured projectively, the
system is driven by a unitary while the Hamiltonian switches, and the
energy is measured again.  The exponentiated energy difference averages
exactly to the partition-function ratio, while the per-leaf ledger splits
that difference into drive work, readout work (identically zero for an
exact energy readout) and readout heat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels import IMPOSSIBLE_BRANCH, ChannelError, projective_instrument, unitary_kick
from ..lindblad import ThermalGenerator, gibbs_state
from ..qmath import as_matrix, dag, hermitize, is_unitary
from ..trajectory import ControlSchedule, FixedPolicy, StepPlan


@dataclass(frozen=True)
class TpmLeaf:
    r0: int
    r1: int
    probability: float
    eps0: float
    eps1: float
    q_first: float      # heat of the initial energy readout
    w_drive: float      # work of the unitary drive + protocol switch
    w_ctrl: float       # work of the final readout (zero up to rounding)
    q_ctrl: float       # heat of the final readout


@dataclass(frozen=True)
class TpmReport:
    beta: float
    z0: float  # z0 and z1: the partition functions, energies counted from h0's ground level
    z1: float
    leaves: tuple
    exp_average: float
    identity_residual: float  # |<exp(-beta dE)> - Z1/Z0| / (Z1/Z0), finite at any beta

    @property
    def z_ratio(self) -> float:
        return self.z1 / self.z0


def run_tpm_jarzynski(h0, h1, unitary, beta: float) -> TpmReport:
    """Exact enumeration of the two-point measurement protocol.

    Each Hamiltonian's energies are counted from its own ground level g, so
    no weight overflows, and the identity is checked on those sums: both
    sides carry the one factor exp(-beta (g1 - g0)), which multiplies them
    only into ``z1`` and ``exp_average``.  Beyond the float range those two
    are infinite, while the relative residual stays finite.
    """
    u = as_matrix(unitary)
    if not is_unitary(u):
        raise ChannelError("drive operator is not unitary within 1e-10")
    eps0, v0 = np.linalg.eigh(hermitize(h0))
    eps1, v1 = np.linalg.eigh(hermitize(h1))
    weights, w1 = np.exp(-beta * (eps0 - eps0.min())), np.exp(-beta * (eps1 - eps1.min()))
    z0, z1 = float(weights.sum()), float(w1.sum())
    with np.errstate(over="ignore"):  # a factor beyond the float range is inf
        scale = float(np.exp(-beta * (eps1.min() - eps0.min())))
    p_first = weights / z0
    e_init = float(p_first @ eps0)
    leaves = []
    exp_avg = 0.0
    for r0 in range(len(eps0)):
        psi = u @ v0[:, r0]
        amps = dag(v1) @ psi
        probs = np.abs(amps) ** 2
        e_drive = float(probs @ eps1)  # <psi|h1|psi>
        for r1 in range(len(eps1)):
            p_leaf = p_first[r0] * probs[r1]
            exp_avg += probs[r1] * w1[r1] / z0  # p_leaf exp(-beta (eps1 - eps0)) / scale
            if p_leaf < IMPOSSIBLE_BRANCH:
                continue
            leaves.append(
                TpmLeaf(
                    r0=r0,
                    r1=r1,
                    probability=float(p_leaf),
                    eps0=float(eps0[r0]),
                    eps1=float(eps1[r1]),
                    q_first=float(eps0[r0] - e_init),
                    w_drive=float(e_drive - eps0[r0]),
                    w_ctrl=0.0,
                    q_ctrl=float(eps1[r1] - e_drive),
                )
            )
    return TpmReport(
        beta=beta, z0=z0, z1=z1 * scale, leaves=tuple(leaves), exp_average=float(exp_avg) * scale,
        identity_residual=abs(float(exp_avg) - z1 / z0) / (z1 / z0),
    )


def tpm_process(h0, h1, unitary, beta: float):
    """The same protocol as engine inputs, for cross-checks via the tree.

    Returns ``(generator, schedule, policy, rho0, hamiltonian0)``: two
    projective energy readouts around a unitary kick with a sudden switch
    to the final Hamiltonian, and no drift in between.
    """
    h0 = hermitize(h0)
    h1 = hermitize(h1)
    dim = h0.shape[0]
    _, v0 = np.linalg.eigh(h0)
    _, v1 = np.linalg.eigh(h1)
    gen = ThermalGenerator(
        dim=dim, hamiltonian=np.zeros((dim, dim)), dissipators=(), beta=beta
    )
    policy = FixedPolicy([
        StepPlan(instrument=projective_instrument(v0.T), kind="measure-initial"),
        StepPlan(instrument=unitary_kick(unitary), kind="drive", next_hamiltonian=h1),
        StepPlan(instrument=projective_instrument(v1.T), kind="measure-final"),
    ])
    schedule = ControlSchedule.uniform(3, 1.0)
    return gen, schedule, policy, gibbs_state(h0, beta), h0
