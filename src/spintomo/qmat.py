"""Complex linear algebra and Pauli-basis machinery for one- and two-qubit states.

Conventions used everywhere in this package: tensor factors are ordered left
to right, the two-qubit basis is |00>, |01>, |10>, |11>, and |0> means spin
up along +z.  Entropies are returned in nats.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

# Validation tolerances, package-wide.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
COEFF_TOL = 1e-9
# Eigenvalues at or below this are left out of entropies.
ENTROPY_EIGENVALUE_FLOOR = 1e-15

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I2, _SX, _SY, _SZ)
for _p in _PAULIS:
    _p.flags.writeable = False

ALLOWED_DIMS = (2, 4, 8)

AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}
for _v in AXIS_VECTORS.values():
    _v.flags.writeable = False

# The 15 nontrivial coefficient slots of a two-qubit Pauli expansion, in the
# fixed order used by design matrices and coefficient vectors.
PAULI_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0))


class InvalidStateError(ValueError):
    """A matrix failed density-matrix validation."""


def pauli(i: int) -> np.ndarray:
    """Return sigma_i for i in 0..3, with sigma_0 the identity."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {i}")
    return _PAULIS[i]


def pauli_pair(i: int, j: int) -> np.ndarray:
    """Two-qubit basis matrix sigma_i (x) sigma_j."""
    return np.kron(pauli(i), pauli(j))


# All 16 two-qubit basis matrices, PAULI_BASIS[4*i + j] = sigma_i (x) sigma_j.
# PAULI_BASIS[1:] holds the 15 PAULI_PAIRS slots in their fixed order.
PAULI_BASIS = np.array([pauli_pair(i, j) for i in range(4) for j in range(4)])
PAULI_BASIS.flags.writeable = False


# sigma_1 . sigma_2 on the two-qubit space, the exchange operator's traceless part.
SIGMA_DOT_SIGMA = sum(pauli_pair(k, k) for k in (1, 2, 3))
SIGMA_DOT_SIGMA.flags.writeable = False


def n_dot_sigma(axis: Iterable[float]) -> np.ndarray:
    """Pauli vector contracted with a real 3-vector, or with each 3-vector of
    a stack along the last axis (giving a stack of 2x2 matrices)."""
    n = np.asarray(axis, dtype=float)
    if n.ndim == 0 or n.shape[-1] != 3:
        raise ValueError("axis must be a real 3-vector")
    n = n[..., None, None]
    return n[..., 0, :, :] * _SX + n[..., 1, :, :] * _SY + n[..., 2, :, :] * _SZ


def unit_axis(axis) -> np.ndarray:
    """Validate and return a unit 3-vector; accepts 'x'/'y'/'z' names."""
    if isinstance(axis, str):
        try:
            return AXIS_VECTORS[axis]
        except KeyError:
            raise ValueError(f"unknown axis name {axis!r}") from None
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if not abs(np.linalg.norm(n) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"axis must be a unit vector, got norm {np.linalg.norm(n)}")
    return n


class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    The wrapped array is copied and frozen at construction.  Dimensions 2, 4
    and 8 are supported (one qubit, a static pair, and flying plus a static
    pair).
    """

    __slots__ = ("_mat",)

    def __init__(self, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] not in ALLOWED_DIMS:
            raise InvalidStateError(f"dimension must be one of {ALLOWED_DIMS}, got {mat.shape[0]}")
        # inf - inf would warn below; a NaN entry fails the hermiticity check.
        if np.isinf(mat).any():
            raise InvalidStateError("density matrix has an infinite entry")
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if not herm_err <= HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: max deviation {herm_err:.3e}")
        tr_err = abs(mat.trace() - 1.0)
        if not tr_err <= TRACE_TOL:
            raise InvalidStateError(f"trace differs from 1 by {tr_err:.3e}")
        evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if not evals.min() >= PSD_TOL:
            raise InvalidStateError(f"not positive semidefinite: min eigenvalue {evals.min():.3e}")
        self._mat = mat
        self._mat.flags.writeable = False

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def expect(self, op: np.ndarray) -> float:
        """Expectation value of a Hermitian operator."""
        val = np.trace(self._mat @ op)
        return float(val.real)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def ket_density(psi) -> DensityMatrix:
    """Density matrix |psi><psi| of a normalized state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-12:
        raise InvalidStateError(f"state vector norm {nrm} differs from 1")
    return DensityMatrix(np.outer(v, v.conj()))


def polarized_qubit(axis, sign: int = +1) -> DensityMatrix:
    """Pure qubit state fully polarized along +axis or -axis."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = unit_axis(axis)
    return DensityMatrix(0.5 * (_I2 + sign * n_dot_sigma(n)))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def singlet() -> DensityMatrix:
    """The two-qubit singlet (|01> - |10>)/sqrt(2) as a density matrix."""
    v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return ket_density(v)


def werner(p: float) -> DensityMatrix:
    """Mixture p * singlet + (1-p) * I/4 for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner weight must lie in [0, 1], got {p}")
    return DensityMatrix(p * singlet().mat + (1.0 - p) * np.eye(4) / 4.0)


@dataclass(frozen=True, eq=False)
class PauliCoeffs:
    """Coefficients a[i][j] = <sigma_i (x) sigma_j> of a two-qubit state.

    a[0][0] is fixed to 1 by normalization and every entry is bounded by 1
    in magnitude for a physical state.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.shape != (4, 4):
            raise ValueError(f"coefficient array must be 4x4, got {a.shape}")
        if abs(a[0, 0] - 1.0) > COEFF_TOL:
            raise ValueError(f"a[0][0] must equal 1, got {a[0, 0]}")
        if np.max(np.abs(a)) > 1.0 + COEFF_TOL:
            raise ValueError(f"coefficient magnitude exceeds 1: {np.max(np.abs(a)):.6f}")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def vector(self) -> np.ndarray:
        """The 15 nontrivial coefficients in PAULI_PAIRS order."""
        return self.a.ravel()[1:].copy()


def decompose(rho: DensityMatrix) -> PauliCoeffs:
    """Expand a two-qubit state in the Pauli product basis.

    Returns coefficients a[i][j] = trace(rho * sigma_i (x) sigma_j), so that
    rho = (1/4) sum_ij a[i][j] sigma_i (x) sigma_j.
    """
    if rho.dim != 4:
        raise ValueError(f"decompose needs a two-qubit state, got dim {rho.dim}")
    a = np.einsum("ij,kji->k", rho.mat, PAULI_BASIS).real
    return PauliCoeffs(a.reshape(4, 4))


def assemble_array(vec) -> np.ndarray:
    """Build the (possibly unphysical) matrix for the 15 nontrivial
    coefficients in PAULI_PAIRS order."""
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (15,):
        raise ValueError(f"expected a 15-vector of coefficients, got shape {arr.shape}")
    row = np.concatenate(([1.0], arr))[None]  # (1, 16), as np.tensordot shapes it
    return np.dot(row, PAULI_BASIS.reshape(16, 16)).reshape(4, 4) / 4.0


def _marginal(rho: DensityMatrix, keep: str) -> np.ndarray:
    """The keep marginal of a validated two-qubit state, not validated again."""
    if rho.dim != 4:
        raise ValueError(f"partial_trace needs a two-qubit state, got dim {rho.dim}")
    if keep not in ("first", "second"):
        raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
    subscripts = "ijkj->ik" if keep == "first" else "jijk->ik"
    return np.einsum(subscripts, rho.mat.reshape(2, 2, 2, 2))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a two-qubit state to one marginal, validated as a DensityMatrix.

    keep is "first" or "second".  The marginal satisfies the usual trace
    identities, e.g. trace(rho_first * sigma_z) = a[3][0].  tomo reads a
    marginal's Bloch vector off the validated register, with no second check.
    """
    return DensityMatrix(_marginal(rho, keep))


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def bloch(rho: DensityMatrix) -> BlochVector:
    """Bloch vector (<sigma_x>, <sigma_y>, <sigma_z>) of a one-qubit state."""
    if rho.dim != 2:
        raise ValueError(f"bloch needs a one-qubit state, got dim {rho.dim}")
    return BlochVector(*_bloch_values(rho))


def _bloch_values(rho: DensityMatrix, keep: str | None = None) -> list:
    """trace(m sigma_k).real, k = x, y, z, of rho or its keep marginal m."""
    m = rho.mat if keep is None else _marginal(rho, keep)
    return [float((m @ _PAULIS[k]).trace().real) for k in (1, 2, 3)]


def bloch_density(v) -> DensityMatrix:
    """One-qubit state with the given Bloch vector (norm must be <= 1)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if not np.linalg.norm(v) <= 1.0 + COEFF_TOL:
        raise InvalidStateError(f"Bloch norm {np.linalg.norm(v):.6f} exceeds 1")
    return DensityMatrix(0.5 * (_I2 + n_dot_sigma(v)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -trace(rho ln rho) in nats."""
    evals = np.linalg.eigvalsh(rho.mat)
    evals = evals[evals > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(evals * np.log(evals)))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (trace sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    evals, vecs = np.linalg.eigh(rho.mat)
    evals = np.clip(evals, 0.0, None)
    sqrt_rho = (vecs * np.sqrt(evals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma.mat @ sqrt_rho
    ivals = np.linalg.eigvalsh(inner)
    ivals = np.clip(ivals, 0.0, None)
    f = float(np.sum(np.sqrt(ivals)) ** 2)
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    evals = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(0.5 * np.sum(np.abs(evals)))


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state, G G^dag normalized to unit trace."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / mat.trace())


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# JSON round trip for complex matrices: real and imaginary parts are stored
# row major so the files are language neutral.

def cmatrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("only square matrices are serialized")
    return {
        "dim": int(mat.shape[0]),
        "re": [float(x) for x in mat.real.ravel()],
        "im": [float(x) for x in mat.imag.ravel()],
    }


def cmatrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.array(obj["re"], dtype=float)
    im = np.array(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise ValueError(f"need {dim * dim} entries for each part, got {re.size}/{im.size}")
    return (re + 1j * im).reshape(dim, dim)


def save_density(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(cmatrix_to_json(rho.mat), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_density(path) -> DensityMatrix:
    with open(path) as fh:
        return DensityMatrix(cmatrix_from_json(json.load(fh)))
