"""Single- and two-qubit gates applied to the static register before scattering.

Rotation convention: R_a(phi) = exp(-i phi sigma_a / 2).  A bare "Rz" (or
"Rx"/"Ry") means the 90 degree version.  Gate sequences are written in
application order, first gate first, as comma separated tokens "name@target"
with target 1, 2 or 12, e.g. "Rz90@2,sqrtSWAP@12,Rx90@2".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import _I2, PAULI_BASIS, DensityMatrix, pauli

UNITARY_TOL = 1e-12
PHASE_EQ_TOL = 1e-10
DEFAULT_ROTATION_ANGLE = np.pi / 2

_SQRT_SWAP = np.array([
    [1, 0, 0, 0],
    [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
    [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
    [0, 0, 0, 1],
], dtype=complex)

_AXIS_INDEX = {"x": 1, "y": 2, "z": 3}


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary on one or two qubits."""

    name: str
    matrix: np.ndarray
    arity: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        expected = 2 ** self.arity
        if m.shape != (expected, expected):
            raise ValueError(f"gate {self.name}: matrix shape {m.shape} does not match arity {self.arity}")
        err = np.max(np.abs(m.conj().T @ m - np.eye(expected)))
        if err > UNITARY_TOL:
            raise ValueError(f"gate {self.name} is not unitary: deviation {err:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def rotation_gate(axis: str, angle: float) -> Gate:
    """R_axis(angle) = exp(-i angle sigma_axis / 2)."""
    if axis not in _AXIS_INDEX:
        raise ValueError(f"rotation axis must be x, y or z, got {axis!r}")
    half = 0.5 * angle
    mat = np.cos(half) * _I2 - 1j * np.sin(half) * pauli(_AXIS_INDEX[axis])
    return Gate(name=f"R{axis}({angle:g})", matrix=mat, arity=1)


def _named_gates() -> dict:
    g = {
        "X": Gate("X", pauli(1), 1),
        "Y": Gate("Y", pauli(2), 1),
        "Z": Gate("Z", pauli(3), 1),
        "H": Gate("H", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), 1),
        "sqrtSWAP": Gate("sqrtSWAP", _SQRT_SWAP, 2),
    }
    for ax in ("x", "y", "z"):
        mat = rotation_gate(ax, DEFAULT_ROTATION_ANGLE).matrix
        # Bare rotation names default to the 90 degree gate.
        g[f"R{ax}90"] = g[f"R{ax}"] = Gate(f"R{ax}90", mat, 1)
    return g


_GATES = _named_gates()


def standard_gate(name: str) -> Gate:
    """Look up a gate by name: X, Y, Z, H, Rx90, Ry90, Rz90 (aliases Rx, Ry, Rz)
    and sqrtSWAP."""
    try:
        return _GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


_TARGETS = ("1", "2", "12")


@dataclass(frozen=True, eq=False)
class GateSequence:
    """An ordered list of (gate, target) pairs, first applied first."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(self.ops)
        for gate, target in ops:
            if target not in _TARGETS:
                raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
            if gate.arity == 2 and target != "12":
                raise ValueError(f"two-qubit gate {gate.name} needs target 12")
            if gate.arity == 1 and target == "12":
                raise ValueError(f"single-qubit gate {gate.name} cannot target 12")
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)


IDENTITY_SEQUENCE = GateSequence(ops=())


def sequence(*tokens) -> GateSequence:
    """Build a sequence from (name, target) pairs or 'name@target' strings."""
    ops = []
    for tok in tokens:
        if isinstance(tok, str):
            name, _, target = tok.partition("@")
            ops.append((standard_gate(name), target))
        else:
            name, target = tok
            gate = name if isinstance(name, Gate) else standard_gate(name)
            ops.append((gate, target))
    return GateSequence(ops=tuple(ops))


def parse_sequence(text: str) -> GateSequence:
    """Parse the comma separated 'name@target' format."""
    text = text.strip()
    if not text or text == "identity":
        return IDENTITY_SEQUENCE
    return sequence(*(tok.strip() for tok in text.split(",")))


def format_sequence(seq: GateSequence) -> str:
    if len(seq) == 0:
        return "identity"
    return ",".join(f"{gate.name}@{target}" for gate, target in seq.ops)


def embed(gate: Gate, target: str) -> np.ndarray:
    """Lift a gate to the full two-qubit register."""
    if target == "1":
        if gate.arity != 1:
            raise ValueError("target 1 needs a single-qubit gate")
        return np.kron(gate.matrix, _I2)
    if target == "2":
        if gate.arity != 1:
            raise ValueError("target 2 needs a single-qubit gate")
        return np.kron(_I2, gate.matrix)
    if target == "12":
        if gate.arity != 2:
            raise ValueError("target 12 needs a two-qubit gate")
        return gate.matrix.copy()
    raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")


def sequence_unitary(seq: GateSequence) -> np.ndarray:
    """Total unitary U = U_k ... U_1 for a sequence applied first gate first."""
    u = np.eye(4, dtype=complex)
    for gate, target in seq.ops:
        u = embed(gate, target) @ u
    return u


def apply(seq: GateSequence, rho: DensityMatrix) -> DensityMatrix:
    """Apply the sequence to a two-qubit state: rho -> U rho U^dag."""
    if rho.dim != 4:
        raise ValueError(f"gate sequences act on two-qubit states, got dim {rho.dim}")
    u = sequence_unitary(seq)
    return DensityMatrix(u @ rho.mat @ u.conj().T)


def conjugate_observable(seq: GateSequence, obs: np.ndarray) -> np.ndarray:
    """Heisenberg-picture observable U^dag obs U.

    Satisfies trace(apply(seq, rho) @ obs) = trace(rho @ conjugate_observable(seq, obs)).
    """
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (4, 4):
        raise ValueError("observable must be 4x4")
    u = sequence_unitary(seq)
    return u.conj().T @ obs @ u


def equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two unitaries differ only by a global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < PHASE_EQ_TOL:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a * phase - b)) <= PHASE_EQ_TOL)


def coefficient_transfer_matrix(seq: GateSequence) -> np.ndarray:
    """Induced linear map on the 15 Pauli coefficients.

    T[k, l] with a_new = T @ a_old, computed from
    a_new[i,j] = trace(U rho U^dag M_ij) = trace(rho U^dag M_ij U).
    For single-qubit Clifford gates T is a signed permutation.
    """
    u = sequence_unitary(seq)
    basis = PAULI_BASIS[1:]
    conj = u.conj().T @ basis @ u
    return np.einsum("rij,cji->rc", conj, basis).real / 4.0
