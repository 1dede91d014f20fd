"""Collision-model heat engine built from reflection off a gated impurity.

A static qubit sits between a reservoir and a closed gate (a perfect mirror).
Each reservoir spin enters, rattles between impurity and mirror, and returns
to the reservoir; the net effect on the joint spin state is a unitary
reflection operator R.  Tracing out the reservoir spin leaves a channel on
the static qubit.  Repeated collisions with a polarized (ferromagnetic)
reservoir pump the qubit toward the aligned pure state; collisions with an
unpolarized (non-magnetic) reservoir relax it back to the maximally mixed
state, extracting up to ln 2 of entropy per cycle.

Tracing out the reservoir spin leaves an affine map v -> M v + c on the
static qubit's Bloch vector.  Isotropic exchange and a spin-blind mirror make
R a partial swap a I + b SWAP (Scarani et al., PRL 88, 097905 (2002)), with a
and b in closed form from the triplet and singlet sectors; a cycle builds the
map from them once per reservoir, checks once that R is unitary, and then
iterates the map.  interact_once is the same collision on density matrices.

The mirror contributes m = -exp(i*mirror_phase) * I, where mirror_phase is
the round-trip propagation phase to the gate.  At mirror_phase = 0 the
multiple-scattering series collapses to R = -I for every omega: the impurity
sits at a node of the standing wave and the channel is the identity.  The
default working point is a quarter-wave spacing, mirror_phase = pi/2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qmat import (
    ENTROPY_EIGENVALUE_FLOOR,
    BlochVector,
    DensityMatrix,
    bloch,
    bloch_density,
    maximally_mixed,
    polarized_qubit,
    unit_axis,
)
from .scatter import ScatterParams

DEFAULT_MIRROR_PHASE = np.pi / 2
TRACE_PRESERVATION_TOL = 1e-12
# A Bloch vector longer than 1 + BLOCH_BALL_TOL is not a state.
BLOCH_BALL_TOL = 1e-12

_I4 = np.eye(4, dtype=complex)
_SWAP = _I4[[0, 2, 1, 3]]
_LN2 = math.log(2.0)

# The cycle trace's CSV: a header and one row per step, each ending in CRLF.
# Phase names and integers need no quoting, and every float is printed
# with 17 significant digits.
_CSV_HEADER = "iteration,phase,bloch_x,bloch_y,bloch_z,entropy_nats\r\n"
_CSV_ROW = "%d,%s,%.17g,%.17g,%.17g,%.17g\r\n"


@dataclass(frozen=True, eq=False)
class Reservoir:
    """Source of fresh flying spins: 'polarized' along axis, or 'unpolarized'."""

    kind: str
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    _state: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("polarized", "unpolarized"):
            raise ValueError(f"kind must be 'polarized' or 'unpolarized', got {self.kind!r}")
        n = unit_axis(self.axis)
        n = n.copy()
        n.flags.writeable = False
        object.__setattr__(self, "axis", n)
        state = polarized_qubit(n) if self.kind == "polarized" else maximally_mixed(2)
        object.__setattr__(self, "_state", state)

    def state(self) -> DensityMatrix:
        """The spin state the reservoir emits, built and validated once."""
        return self._state


@dataclass(frozen=True)
class EngineConfig:
    params: ScatterParams
    mirror_phase: float = DEFAULT_MIRROR_PHASE
    max_iters: int = 500
    tol: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.mirror_phase):
            raise ValueError("mirror_phase must be finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be positive")
        params = self.params
        if isinstance(params.omega, np.ndarray) or isinstance(params.kd_phase, np.ndarray):
            raise ValueError("the engine runs at one (omega, mirror_phase) point, not on a grid")
        # One impurity's block has no kd; the mirror's distance is mirror_phase.
        if params.kd_phase != 0:
            raise ValueError("params.kd_phase must be 0; set the mirror's "
                             "distance with mirror_phase")


def partial_swap(params: ScatterParams, mirror_phase: float) -> tuple:
    """(a, b) of R = a I + b SWAP on (flying, static), from the two exchange
    sectors: sigma_f . sigma_s is lam = 1 on the triplet and -3 on the
    singlet, where the impurity's t = 1 / (1 + i omega lam) and r = t - 1 and
    the mirror's m sum to R_lam = r + t m t / (1 - r m)."""
    m = -cmath.exp(1j * mirror_phase)

    def sector(lam):
        t = 1.0 / (1.0 + 1j * params.omega * lam)
        r = t - 1.0
        return r + t * m * t / (1.0 - r * m)

    r_t, r_s = sector(1.0), sector(-3.0)
    return (r_t + r_s) / 2, (r_t - r_s) / 2


def reflection_channel(params: ScatterParams, mirror_phase: float) -> np.ndarray:
    """Total reflection operator R = a I + b SWAP for impurity plus mirror,
    read-only.  Unitary: every incoming amplitude returns to the reservoir."""
    a, b = partial_swap(params, mirror_phase)
    r = a * _I4 + b * _SWAP
    r.flags.writeable = False
    return r


def interact_once(rho_s: DensityMatrix, reservoir: Reservoir,
                  config: EngineConfig) -> DensityMatrix:
    """One collision: fresh reservoir spin in, reflected out and traced away."""
    if rho_s.dim != 2:
        raise ValueError(f"static qubit state must have dim 2, got {rho_s.dim}")
    r = reflection_channel(config.params, config.mirror_phase)
    joint = np.kron(reservoir.state().mat, rho_s.mat)
    out = r @ joint @ r.conj().T
    tr_err = abs(out.trace() - 1.0)
    if not tr_err <= TRACE_PRESERVATION_TOL:
        raise RuntimeError(f"collision broke trace preservation by {tr_err:.3e}")
    # Trace out the reservoir spin, the leading factor.
    return DensityMatrix(np.einsum("fsft->st", out.reshape(2, 2, 2, 2)))


def bloch_map(reservoir: Reservoir, config: EngineConfig) -> tuple:
    """One collision as the affine map v -> M v + c on the static Bloch vector:
    the partial swap's v -> |a|^2 v + |b|^2 w + Im(a b*) w x v, with w the
    reservoir's Bloch vector (Ziman et al., PRA 65, 042105 (2002)).  R is
    checked once: R^dag R - I = (|a|^2 + |b|^2 - 1) I + 2 Re(a b*) SWAP.
    Returns read-only (M, c)."""
    a, b = partial_swap(config.params, config.mirror_phase)
    ab = a * b.conjugate()
    # The first term is NaN whenever a or b is, and max keeps it.
    tp_err = max(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0), 2.0 * abs(ab.real))
    if not tp_err <= TRACE_PRESERVATION_TOL:
        raise RuntimeError(f"collision channel breaks trace preservation by {tp_err:.3e}")
    w = reservoir.axis if reservoir.kind == "polarized" else np.zeros(3)
    w_cross = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    m = abs(a) ** 2 * np.eye(3) + ab.imag * w_cross
    c = abs(b) ** 2 * w
    m.flags.writeable = c.flags.writeable = False
    return m, c


def _entropy_of_bloch_norm(norm: float) -> float:
    """von Neumann entropy (nats) of a qubit whose Bloch vector has this norm:
    its eigenvalues are (1 -+ norm) / 2.  A norm the guards let past 1 is
    read as 1, so the entropy is never negative; a sum that rounds past
    ln 2 at a tiny norm is read as ln 2."""
    norm = min(norm, 1.0)
    entropy = 0.0
    for p in (0.5 * (1.0 - norm), 0.5 * (1.0 + norm)):
        if p > ENTROPY_EIGENVALUE_FLOOR:
            entropy -= p * math.log(p)
    return min(entropy, _LN2)


class CycleStep(NamedTuple):
    iteration: int
    phase: str
    bloch: BlochVector
    entropy_nats: float


@dataclass(frozen=True)
class CycleTrace:
    steps: tuple
    fm_iterations: int
    fm_converged: bool
    fm_residual: float
    nm_iterations: int
    nm_converged: bool
    nm_residual: float
    entropy_transferred_nats: float
    final_state: DensityMatrix

    def to_csv(self, path) -> None:
        """Write the steps as CSV rows ending in CRLF, in one write."""
        rows = [_CSV_ROW % (s.iteration, s.phase, *s.bloch, s.entropy_nats)
                for s in self.steps]
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "".join(rows))


def _run_phase(v: np.ndarray, reservoir: Reservoir, target: np.ndarray,
               config: EngineConfig, phase: str, steps: list) -> tuple:
    """Iterate the reservoir's Bloch map from v until within tol of target.

    The residual is the trace distance |v - target| / 2; every step is
    guarded to stay inside the Bloch ball.
    """
    m, c = bloch_map(reservoir, config)
    target = target.tolist()
    converged = False
    for i in range(1, config.max_iters + 1):
        v = m @ v + c
        x = v.tolist()
        norm = math.hypot(*x)
        if not norm <= 1.0 + BLOCH_BALL_TOL:
            raise RuntimeError(f"collision left the Bloch ball: |v| = {norm!r}")
        resid = 0.5 * math.dist(x, target)
        steps.append(CycleStep(i, phase, BlochVector(*x), _entropy_of_bloch_norm(norm)))
        if resid < config.tol:
            converged = True
            break
    return v, i, converged, resid


def run_cycle(initial: DensityMatrix, config: EngineConfig,
              fm_axis=(0.0, 0.0, 1.0)) -> CycleTrace:
    """One full engine cycle: polarize against the FM reservoir, then
    depolarize against the NM reservoir.

    Entropy transferred is the entropy gained during the NM phase,
    S(end of NM) - S(end of FM); at most ln 2 per cycle.  PSD_TOL lets a
    state's Bloch vector exceed unit length by about 2e-10, more than the
    collisions' guard allows; such a start is scaled onto the unit sphere
    before the first collision, and row 0 keeps the state as given.
    """
    fm = Reservoir(kind="polarized", axis=np.asarray(fm_axis, dtype=float))
    nm = Reservoir(kind="unpolarized")
    steps: list = []

    start = bloch(initial)
    norm = math.hypot(*start)
    steps.append(CycleStep(0, "FM", start, _entropy_of_bloch_norm(norm)))
    v = start.as_array()
    if norm > 1.0 + BLOCH_BALL_TOL:
        v = v / norm
    v, fm_iters, fm_ok, fm_resid = _run_phase(v, fm, fm.axis, config, "FM", steps)
    s_fm_end = steps[-1].entropy_nats

    v, nm_iters, nm_ok, nm_resid = _run_phase(
        v, nm, np.zeros(3), config, "NM", steps)
    s_nm_end = steps[-1].entropy_nats

    return CycleTrace(
        steps=tuple(steps),
        fm_iterations=fm_iters, fm_converged=fm_ok, fm_residual=fm_resid,
        nm_iterations=nm_iters, nm_converged=nm_ok, nm_residual=nm_resid,
        entropy_transferred_nats=s_nm_end - s_fm_end,
        final_state=bloch_density(v),
    )
