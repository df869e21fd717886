"""Perfectly measured classical jump process as the fully observed limit.

A finite-state rate model with local detailed balance is watched at every
time step.  Two entropy productions coexist: the record-based one, which
charges for the information written to the memory, and the conventional
state-based one, which does not.  Their gap is exactly the backward
conditional entropy of the step, a pure probability identity that the
enumeration mode checks numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channels import IMPOSSIBLE_BRANCH
from ..lindblad import expm
from ..qmath import shannon_entropy
from ..trajectory import derive_stream_seeds, stream_rng

DETAILED_BALANCE_ATOL = 1e-10
STEP_RATE_LIMIT = 0.05


class ClassicalModelError(ValueError):
    """Raised for invalid rate models or step sizes."""


@dataclass(frozen=True)
class RateModel:
    """Finite-state rate matrix with energies and local detailed balance.

    ``rates[s, s']`` is the jump rate from ``s'`` to ``s``; columns sum to
    zero and rate ratios obey the Boltzmann condition for ``beta``.
    """

    energies: np.ndarray
    rates: np.ndarray
    beta: float

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        d = e.size
        if r.shape != (d, d):
            raise ClassicalModelError("rate matrix shape does not match energies")
        off = r - np.diag(np.diagonal(r))
        if off.min() < 0:
            raise ClassicalModelError("off-diagonal rates must be nonnegative")
        if np.abs(r.sum(axis=0)).max() > 1e-12:
            raise ClassicalModelError("rate matrix columns must sum to zero")
        for s in range(d):
            for t in range(s + 1, d):
                fwd, back = r[t, s], r[s, t]
                if fwd == 0.0 and back == 0.0:
                    continue
                if fwd == 0.0 or back == 0.0:
                    raise ClassicalModelError("one-way transitions break detailed balance")
                expected = np.exp(-self.beta * (e[t] - e[s]))
                if abs(fwd / back - expected) > DETAILED_BALANCE_ATOL * max(1.0, expected):
                    raise ClassicalModelError(
                        f"detailed balance violated on pair ({s}, {t})"
                    )
        e.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "rates", r)

    @property
    def n_states(self) -> int:
        return self.energies.size

    @classmethod
    def thermal(cls, energies, beta: float, attempt_rate: float = 1.0) -> "RateModel":
        """All-to-all rates with the symmetric Boltzmann split."""
        e = np.asarray(energies, dtype=float)
        d = e.size
        r = np.zeros((d, d))
        for s in range(d):
            for t in range(d):
                if s != t:
                    r[t, s] = attempt_rate * np.exp(-beta * (e[t] - e[s]) / 2)
        r -= np.diag(r.sum(axis=0))
        return cls(energies=e, rates=r, beta=beta)

    def stationary(self) -> np.ndarray:
        w = np.exp(-self.beta * (self.energies - self.energies.min()))
        return w / w.sum()

    def check_step(self, dt: float) -> None:
        """Reject a watch step too long for the near-diagonal one-step transition."""
        if dt * np.abs(self.rates).max() > STEP_RATE_LIMIT:
            raise ClassicalModelError(
                f"dt * max rate must stay below {STEP_RATE_LIMIT} for a near-diagonal step"
            )

    def transition_matrix(self, dt: float) -> np.ndarray:
        return expm(self.rates * dt)


@dataclass(frozen=True)
class ClassicalReport:
    """Per-step entropy productions and the identities relating them."""

    mode: str
    dt: float
    distributions: np.ndarray       # (steps + 1, d) marginals on the grid
    heat_avg: np.ndarray
    sigma_record: np.ndarray        # conditional-entropy-based production
    sigma_state: np.ndarray         # conventional state-based production
    backward_entropy: np.ndarray    # S(previous | next), via Bayes inversion
    identity_residual: np.ndarray   # sigma_record - sigma_state - backward
    redefined_residual: np.ndarray  # state-based recovered from redefined entropy
    sample_joints: np.ndarray | None = None  # (steps, d, d) empirical joints

    @property
    def max_identity_residual(self) -> float:
        return float(np.abs(self.identity_residual).max())

    @property
    def max_redefined_residual(self) -> float:
        return float(np.abs(self.redefined_residual).max())


def _step_quantities(model: RateModel, joint: np.ndarray, p_prev: np.ndarray,
                     p_next: np.ndarray):
    """Entropy productions for one step given the joint of (next, prev)."""
    e = model.energies
    heat = float(np.sum(joint * (e[:, None] - e[None, :])))
    cond_fwd = 0.0
    for s in range(model.n_states):
        if p_prev[s] > IMPOSSIBLE_BRANCH:
            cond_fwd += p_prev[s] * shannon_entropy(joint[:, s] / p_prev[s])
    sigma_record = cond_fwd - model.beta * heat
    sigma_state = (shannon_entropy(p_next) - shannon_entropy(p_prev)) - model.beta * heat
    backward = 0.0
    for t in range(model.n_states):
        if p_next[t] > IMPOSSIBLE_BRANCH:
            backward += p_next[t] * shannon_entropy(joint[t, :] / p_next[t])
    # the record-based expression after swapping in the conventional
    # state entropy -ln p_s(t)
    redefined = 0.0
    for t in range(model.n_states):
        for s in range(model.n_states):
            if joint[t, s] > IMPOSSIBLE_BRANCH:
                redefined += joint[t, s] * (
                    -np.log(p_next[t]) + np.log(p_prev[s])
                    - model.beta * (model.energies[t] - model.energies[s])
                )
    return heat, sigma_record, sigma_state, backward, redefined


def _gillespie_states(model: RateModel, rng, p0: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """One continuous-time trajectory, read out on the step grid."""
    state = int(rng.choice(model.n_states, p=p0))
    grid = np.empty(steps + 1, dtype=int)
    grid[0] = state
    t = 0.0
    filled = 0
    while filled < steps:
        # first-reaction sampling: earliest of the enabled exponential clocks
        best = None
        for target in range(model.n_states):
            rate = model.rates[target, state]
            if target != state and rate > 0:
                wait = rng.exponential(1.0 / rate)
                if best is None or wait < best[0]:
                    best = (wait, target)
        t_jump = t + best[0] if best is not None else np.inf
        while filled < steps and (filled + 1) * dt < t_jump:
            filled += 1
            grid[filled] = state
        if filled >= steps or best is None:
            break
        t = t_jump
        state = best[1]
    return grid


def run_classical_limit(
    model: RateModel,
    steps: int,
    dt: float,
    mode: str = "enumerate",
    p0=None,
    trajectories: int = 2000,
    seed: int = 0,
) -> ClassicalReport:
    """Watch the jump process every ``dt`` and account for both second laws."""
    model.check_step(dt)
    p = model.stationary() if p0 is None else np.asarray(p0, dtype=float)
    if abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
        raise ClassicalModelError("initial distribution must be a probability vector")
    transition = model.transition_matrix(dt)
    d = model.n_states

    sample_joints = None
    if mode == "gillespie":
        paths = np.empty((trajectories, steps + 1), dtype=int)
        for i, stream_seed in enumerate(derive_stream_seeds(seed, range(trajectories)).tolist()):
            paths[i] = _gillespie_states(model, stream_rng(stream_seed), p, steps, dt)
        sample_joints = np.zeros((steps, d, d))
        np.add.at(sample_joints, (np.arange(steps), paths[:, 1:], paths[:, :-1]), 1.0)
        sample_joints /= trajectories
    elif mode != "enumerate":
        raise ClassicalModelError(f"unknown mode {mode!r}")

    dists = [p]
    heat = np.zeros(steps)
    sigma_record = np.zeros(steps)
    sigma_state = np.zeros(steps)
    backward = np.zeros(steps)
    redefined = np.zeros(steps)
    for n in range(steps):
        if mode == "enumerate":
            joint = transition * dists[-1][None, :]
        else:
            joint = sample_joints[n]
        p_next = joint.sum(axis=1)
        p_prev = joint.sum(axis=0)
        h, sr, ss, bw, rd = _step_quantities(model, joint, p_prev, p_next)
        heat[n] = h
        sigma_record[n] = sr
        sigma_state[n] = ss
        backward[n] = bw
        redefined[n] = rd
        dists.append(p_next)
    return ClassicalReport(
        mode=mode,
        dt=dt,
        distributions=np.array(dists),
        heat_avg=heat,
        sigma_record=sigma_record,
        sigma_state=sigma_state,
        backward_entropy=backward,
        identity_residual=sigma_record - sigma_state - backward,
        redefined_residual=redefined - sigma_state,
        sample_joints=sample_joints,
    )
