"""Spin-dependent scattering of a flying qubit off static spins.

A flying spin-1/2 particle at fixed wavevector k crosses one or two pointlike
scatterers coupled to it by isotropic exchange.  Each scatterer is described
by a 2x2 block structure

    S = [[r, t'], [t, r']]

acting on the spin space of everything involved: r and t are reflection and
transmission for waves incident from the left, primed entries for incidence
from the right.  The dimensionless coupling strength is omega; propagation
between two scatterers contributes only through the single phase kd_phase.

Basis order for composite spaces is (flying, qubit1, qubit2), each factor in
the (|0>=up, |1>=down) basis.

Pointlike scatterers and the pair of identical qubit impurities are
mirror-symmetric: their right-incidence blocks are the left ones relabelled
by a basis permutation X (the identity for a pointlike scatterer, the
exchange of qubit1 and qubit2 for the pair), r' = X r X and t' = X t X.
Such blocks are built from r and t alone, and their unitarity check skips
the product that the symmetry makes a permutation of another.  The generic
cascade of two arbitrary blocks stays as the pair's oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmat import (
    _I2,
    SIGMA_DOT_SIGMA,
    DensityMatrix,
    decompose,
    n_dot_sigma,
    pauli,
    unit_axis,
)

UNITARITY_TOL = 1e-10
CONDITION_LIMIT = 1e12
# How far inside CONDITION_LIMIT the cascade's inverse-based certificate
# stays.  It bounds what the SVD guard measures from above (Golub & Van
# Loan, Matrix Computations, sec. 2.3): kappa_2(m) <= |m|_F |m^-1|_F and
# 1/sigma_min(m) = |m^-1|_2 <= |m^-1|_F.  The computed inverse, like the
# computed singular values, has a relative error of about n * kappa * eps,
# below 2e-3 anywhere under the limit for n <= 8, so a margin of 64 keeps
# every certified point well inside what the SVD guard accepts.  Each bound
# overestimates by at most the block dimension n, so only points within a
# factor 8 * 64 of a limit fall back to the SVD.
_CERTIFICATE_MARGIN = 64.0
# Distinct ScatterParams whose two-impurity blocks are kept; a tomography
# plan shares one, so a handful of entries serves any run.
BLOCK_CACHE_SIZE = 64

_I4 = np.eye(4, dtype=complex)
# Basis index 4 f + 2 q1 + q2 of (flying, q1, q2) with q1 and q2 exchanged.
_QUBIT_EXCHANGE = np.array([0, 2, 1, 3, 4, 6, 5, 7])


class ResonantCascadeError(RuntimeError):
    """The multiple-scattering inversion is numerically singular."""


@dataclass(frozen=True)
class ScatterParams:
    """Coupling strength and propagation phase between two scatterers.

    omega is the dimensionless exchange strength.  kd_phase is the one-way
    propagation phase k*d; it enters transmission only through exp(i*kd_phase).
    Either may be an array, making the params a grid of points (the two
    broadcast together); grid arrays are copied read-only.  A single point
    is stored as Python floats with -0.0 made 0.0, so equal params carry
    equal fields.  Only single-point params are hashable, so only they reach
    the block cache.
    """

    omega: float
    kd_phase: float = 0.0

    def __post_init__(self):
        for name in ("omega", "kd_phase"):
            value = getattr(self, name)
            if isinstance(value, (np.ndarray, list, tuple)):
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                finite = np.isfinite(value).all()
            else:
                finite = math.isfinite(value)
                value = float(value) + 0.0
            object.__setattr__(self, name, value)
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class FrozenSpin:
    """A classical, non-dynamical spin direction, or a grid of them along the
    leading axes of n_hat."""

    n_hat: np.ndarray

    def __post_init__(self):
        n = np.array(self.n_hat, dtype=float)
        if n.ndim == 0 or n.shape[-1] != 3:
            raise ValueError("frozen spin direction must be a 3-vector")
        norm = np.linalg.norm(n, axis=-1)
        worst = np.max(np.abs(norm - 1.0))
        if not worst <= 1e-12:
            raise ValueError(f"frozen spin direction must be unit, norm off by {worst:.3e}")
        n.flags.writeable = False
        object.__setattr__(self, "n_hat", n)

    @classmethod
    def from_angles(cls, theta, phi=0.0) -> "FrozenSpin":
        theta, phi = np.broadcast_arrays(theta, phi)
        return cls(np.stack([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ], axis=-1))


@dataclass(frozen=True, eq=False)
class ScatterBlock:
    """r/t/r'/t' blocks of one (possibly composite) scatterer.

    The full matrix [[r, t'], [t, r']] must be unitary; this is checked at
    construction.  Blocks may be stacked along leading grid axes; every
    block of the stack is then checked.
    """

    r: np.ndarray
    t: np.ndarray
    r_prime: np.ndarray
    t_prime: np.ndarray

    def __post_init__(self):
        mats = []
        for name in ("r", "t", "r_prime", "t_prime"):
            # C order: stacked products run about twice as slow on strided arrays.
            m = np.array(getattr(self, name), dtype=complex, order="C")
            if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
                raise ValueError(f"{name} must be square")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            mats.append(m)
        if len({m.shape for m in mats}) != 1:
            raise ValueError("all four blocks must share one shape")
        _check_unitary(self, right_column=True)

    @property
    def dim(self) -> int:
        return self.r.shape[-1]

    def full(self) -> np.ndarray:
        """The full scattering matrix [[r, t'], [t, r']]."""
        top = np.concatenate([self.r, self.t_prime], axis=-1)
        bottom = np.concatenate([self.t, self.r_prime], axis=-1)
        return np.concatenate([top, bottom], axis=-2)


def _check_unitary(block: ScatterBlock, right_column: bool) -> None:
    """Refuse a block whose full matrix S deviates from unitarity by more
    than UNITARITY_TOL at any point.

    S^dag S is built from the column blocks L = [r; t] and R = [t'; r'] of
    S: its off-diagonal blocks are L^dag R and its conjugate transpose.  The
    R^dag R - I product is skipped when the caller knows it to be a
    permutation of L^dag L - I.
    """
    left = np.concatenate([block.r, block.t], axis=-2)
    right = np.concatenate([block.t_prime, block.r_prime], axis=-2)
    left_h = _dagger(left)
    ident = np.eye(block.dim)
    # np.max, not max, so that a NaN in any block propagates.
    products = [left_h @ left - ident, left_h @ right]
    if right_column:
        products.append(_dagger(right) @ right - ident)
    err = np.max([np.max(np.abs(p)) for p in products])
    if not err <= UNITARITY_TOL:
        raise ValueError(f"scattering matrix is not unitary: deviation {err:.3e}")


def _exchange_symmetric_block(r: np.ndarray, t: np.ndarray, exchange=None) -> ScatterBlock:
    """A block (or stack) whose right-incidence blocks are its left ones
    relabelled: r' = X r X and t' = X t X for the basis permutation X given
    as an index array, or r' = r and t' = t when exchange is None.

    Then the column blocks of S = [[r, t'], [t, r']] obey right = J left X,
    with J the permutation that swaps the two row blocks and applies X to
    each, so R^dag R - I = X^T (L^dag L - I) X is the first product
    permuted; only L^dag L - I and L^dag R are checked.  r and t must be
    complex and C-ordered; they are made read-only in place, and without
    exchange they are shared by the primed fields.
    """
    if exchange is None:
        r_prime, t_prime = r, t
    else:
        # One gather on the flattened matrices keeps the result C-ordered.
        n = len(exchange)
        flat = (exchange[:, None] * n + exchange).ravel()
        r_prime, t_prime = (np.take(m.reshape(m.shape[:-2] + (n * n,)), flat, axis=-1)
                            .reshape(m.shape) for m in (r, t))
    block = object.__new__(ScatterBlock)
    for name, m in (("r", r), ("t", t), ("r_prime", r_prime), ("t_prime", t_prime)):
        m.flags.writeable = False
        object.__setattr__(block, name, m)
    _check_unitary(block, right_column=False)
    return block


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _grid(values) -> np.ndarray:
    """Per-point scalars shaped to scale a stack of matrices."""
    return np.asarray(values)[..., None, None]


def _phase_factors(params: ScatterParams) -> tuple:
    """exp(i*kd_phase) and its square, shaped to scale a stack of matrices.

    The square is formed in real arithmetic, the way the scalar complex
    product rounds it; numpy's vectorized complex product rounds about one
    point in four differently, and a grid point must reproduce its single
    point's cascade digit for digit.
    """
    ph = np.exp(1j * np.asarray(params.kd_phase))
    re, im = ph.real, ph.imag
    ph2 = (re * re - im * im) + 1j * (re * im + im * re)
    return _grid(ph), _grid(ph2)


def _zero_phase_omega_squared(params: ScatterParams):
    """omega**2 for a closed form, which refuses a nonzero kd_phase and an
    omega whose square overflows a float.  omega * omega is correctly
    rounded, so a grid's squares equal its single points'."""
    if np.count_nonzero(params.kd_phase):
        raise ValueError("closed form assumes kd_phase = 0")
    with np.errstate(over="ignore"):
        w2 = np.multiply(params.omega, params.omega)
    if not np.isfinite(w2).all():
        worst = float(np.max(np.abs(params.omega)))
        raise ValueError(f"omega**2 overflows in the closed form, |omega| = {worst}")
    return w2


def _pointlike_block(t: np.ndarray) -> ScatterBlock:
    """A pointlike scatterer's block (or stack) from a freshly built t:
    r = t - I, and the primed fields are the same arrays as the unprimed."""
    r = t - np.eye(t.shape[-1], dtype=complex)
    return _exchange_symmetric_block(r, t)


def frozen_t(params: ScatterParams, spin: FrozenSpin) -> np.ndarray:
    """Transmission through a single frozen spin.

    t = [I + i*omega*(n . sigma)]^-1, which works out to
    (I - i*omega*(n . sigma)) / (1 + omega^2): the flying spin is rotated
    about n and attenuated isotropically, t^dag t = I / (1 + omega^2).
    """
    return np.linalg.inv(_I2 + 1j * _grid(params.omega) * n_dot_sigma(spin.n_hat))


def frozen_block(params: ScatterParams, spin: FrozenSpin) -> ScatterBlock:
    """Full block for one frozen spin: r = t - I and primed = unprimed."""
    return _pointlike_block(frozen_t(params, spin))


def frozen_pair_pt(params: ScatterParams, theta: float) -> float:
    """Transmission probability through two frozen spins at relative angle theta.

    Valid at zero propagation phase only, where the closed form is
    1 / (1 + 2*omega^2*(1 + cos(theta))).  theta may be an array.
    """
    w2 = _zero_phase_omega_squared(params)
    return 1.0 / (1.0 + 2.0 * w2 * (1.0 + np.cos(theta)))


def qubit_t_single(params: ScatterParams) -> np.ndarray:
    """Transmission through one qubit impurity, on the (flying, static) space.

    t = [I + i*omega*(sigma_f . sigma_s)]^-1.
    """
    return np.linalg.inv(_I4 + 1j * _grid(params.omega) * SIGMA_DOT_SIGMA)


def qubit_block(params: ScatterParams) -> ScatterBlock:
    """Full block for one qubit impurity: r = t - I and primed = unprimed."""
    return _pointlike_block(qubit_t_single(params))


def transparent_block(dim: int) -> ScatterBlock:
    """A perfectly transmitting scatterer (r = 0, t = I)."""
    return _pointlike_block(np.eye(dim, dtype=complex))


def _embed4(mat4: np.ndarray, which: str) -> np.ndarray:
    """Lift an operator (or a stack of them) on (flying, one static) to
    (flying, q1, q2): one copy of it per basis state of the spectator qubit."""
    if which not in ("first", "second"):
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    lead = mat4.shape[:-2]
    op = mat4.reshape(lead + (2, 2, 2, 2))
    # Axes (f, q1, q2, f', q1', q2'): the spectator keeps its state.
    lifted = np.zeros(lead + (2,) * 6, dtype=complex)
    if which == "first":
        lifted[..., :, :, 0, :, :, 0] = lifted[..., :, :, 1, :, :, 1] = op
    else:
        lifted[..., :, 0, :, :, 0, :] = lifted[..., :, 1, :, :, 1, :] = op
    return lifted.reshape(lead + (8, 8))


def embed_block(block: ScatterBlock, which: str) -> ScatterBlock:
    """Embed a two-body block into the three-body space (flying, q1, q2).

    which names the static qubit the block acts on; the other static qubit
    is a spectator.
    """
    if block.dim != 4:
        raise ValueError(f"embed_block expects a dim-4 block, got {block.dim}")
    # The lift only copies the entries of an already checked block, so its
    # unitarity deviation is the block's own and is not checked again.
    lifted = object.__new__(ScatterBlock)
    for name in ("r", "t", "r_prime", "t_prime"):
        m = _embed4(getattr(block, name), which)
        m.flags.writeable = False
        object.__setattr__(lifted, name, m)
    return lifted


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of a complex matrix or of each matrix in a stack."""
    x = m.reshape(m.shape[:-2] + (-1,)).view(float)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _certified(m: np.ndarray, inv: np.ndarray) -> bool:
    """Whether every point of m passes the resonance guard on the strength
    of its computed inverse alone; False is inconclusive, not resonant."""
    limit = CONDITION_LIMIT / _CERTIFICATE_MARGIN
    with np.errstate(over="ignore", invalid="ignore"):
        inv_norm = _frobenius(inv)
        return bool(np.all((_frobenius(m) * inv_norm <= limit) & (inv_norm <= limit)))


def _svd_guard(m: np.ndarray) -> None:
    """Refuse a condition number above CONDITION_LIMIT or a smallest singular
    value below its inverse at any point of m."""
    # A well-conditioned but tiny matrix (a near-zero multiple of the
    # identity) is as singular as an ill-conditioned one; NaN refuses too.
    s = np.linalg.svd(m, compute_uv=False)
    s_max, s_min = s[..., 0], s[..., -1]
    resonant = ~((s_max <= CONDITION_LIMIT * s_min) & (s_min >= 1.0 / CONDITION_LIMIT))
    if resonant.any():
        raise ResonantCascadeError(
            "resonant cascade: multiple-scattering inversion has singular "
            f"values {s_max[resonant][0]:.3e} down to {s_min[resonant][0]:.3e}")


def _guarded_inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of m (or of each matrix in a stack), refused with
    ResonantCascadeError where the SVD guard refuses m.  The guard first
    certifies m from the Frobenius norms of m and of its computed inverse,
    and runs the SVD only when that is inconclusive."""
    ident = np.eye(m.shape[-1], dtype=complex)
    try:
        inv = np.linalg.solve(m, ident)
    except np.linalg.LinAlgError:
        certified = False
    else:
        certified = _certified(m, inv)
    if not certified:
        _svd_guard(m)
        inv = np.linalg.solve(m, ident)
    return inv


def cascade(b1: ScatterBlock, b2: ScatterBlock, params: ScatterParams) -> ScatterBlock:
    """Compose two scatterers separated by the propagation phase kd_phase.

    b1 sits on the left.  Multiple scattering between them is summed as a
    geometric series; the inversion is guarded against resonant (singular)
    configurations, refusing a condition number above CONDITION_LIMIT or a
    smallest singular value below its inverse.  The guard first certifies
    each point from the Frobenius norms of the matrix and of its computed
    inverse, and runs the SVD only when that is inconclusive; it refuses
    exactly what the SVD alone refuses.  Reflection phases are referenced to
    each scatterer's own interface.

    Stacked blocks and grid params broadcast: the result holds one cascade
    per grid point, and every point is guarded; one resonant point refuses
    the whole grid.
    """
    if b1.dim != b2.dim:
        raise ValueError("cascaded blocks must share a dimension")
    n = b1.dim
    ident = np.eye(n, dtype=complex)
    ph, ph2 = _phase_factors(params)

    inv1 = _guarded_inverse(ident - ph2 * (b1.r_prime @ b2.r))
    inv2 = _guarded_inverse(ident - ph2 * (b2.r @ b1.r_prime))
    t_c = ph * (b2.t @ inv1 @ b1.t)
    r_c = b1.r + ph2 * (b1.t_prime @ b2.r @ inv1 @ b1.t)
    tp_c = ph * (b1.t_prime @ inv2 @ b2.t_prime)
    rp_c = b2.r_prime + ph2 * (b2.t @ b1.r_prime @ inv2 @ b2.t_prime)
    return ScatterBlock(r=r_c, t=t_c, r_prime=rp_c, t_prime=tp_c)


def two_impurity_cascade(params: ScatterParams) -> ScatterBlock:
    """Cascade of two identical qubit impurities on (flying, q1, q2).

    Built afresh on every call; grid params give one stacked block per grid
    point.  Single points are better served by two_impurity_block.

    Exchanging the static qubits (the permutation X) maps the first
    impurity's lifted block onto the second's, and each impurity is
    pointlike (r' = r, t' = t).  So the pair is mirror-symmetric: the
    matrix cascade inverts for right incidence is X m1 X, and the cascade's
    r' and t' are X r X and X t X.  Only m1 is solved and guarded (X m1 X
    has m1's singular values), and the primed blocks are read off r and t
    by one index gather each.  r and t are the expressions cascade
    evaluates, on the same lifted arrays in the same association, so they
    equal cascade(embed_block(q, "first"), embed_block(q, "second"), params)
    bit for bit; the primed blocks differ from cascade's by rounding only.
    """
    single = qubit_block(params)
    r1, t1 = _embed4(single.r, "first"), _embed4(single.t, "first")
    r2, t2 = _embed4(single.r, "second"), _embed4(single.t, "second")
    ph, ph2 = _phase_factors(params)
    inv1 = _guarded_inverse(np.eye(8, dtype=complex) - ph2 * (r1 @ r2))
    t_c = ph * (t2 @ inv1 @ t1)
    r_c = r1 + ph2 * (t1 @ r2 @ inv1 @ t1)
    return _exchange_symmetric_block(r_c, t_c, _QUBIT_EXCHANGE)


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def two_impurity_block(params: ScatterParams) -> ScatterBlock:
    """two_impurity_cascade at one point, built once per distinct params.

    Served from a bounded cache: ScatterParams is frozen and the block's
    arrays are read-only, so equal params may share one block.
    """
    return two_impurity_cascade(params)


def _probability(amp: np.ndarray, rho: DensityMatrix, what: str):
    """trace(amp^dag amp rho): a float for one block, an array for a stack."""
    if rho.dim != amp.shape[-1]:
        raise ValueError(f"state dim {rho.dim} does not match block dim {amp.shape[-1]}")
    val = np.trace(_dagger(amp) @ amp @ rho.mat, axis1=-2, axis2=-1)
    worst = np.abs(val.imag).max()
    if worst > 1e-10:
        raise RuntimeError(f"{what} probability has imaginary part {worst:.3e}")
    return float(val.real) if val.ndim == 0 else val.real


def transmission_probability(block: ScatterBlock, rho: DensityMatrix):
    """P_T = trace(t^dag t rho) for a full-space input state.

    One float for a single block; one value per grid point for a stack.
    """
    return _probability(block.t, rho, "transmission")


def reflection_probability(block: ScatterBlock, rho: DensityMatrix):
    """P_R = trace(r^dag r rho); equals 1 - P_T by unitarity."""
    return _probability(block.r, rho, "reflection")


def _check_two_qubit(rho: DensityMatrix) -> None:
    if rho.dim != 4:
        raise ValueError(f"expected a two-qubit static state, got dim {rho.dim}")


def pt_unpolarized_closed_form(params: ScatterParams, rho: DensityMatrix) -> float:
    """Transmission of an unpolarized flying spin through two qubit impurities.

    Closed form at kd_phase = 0:

        P_T = [(1 + 12 w2) + 4 w2 (1 + 8 w2) (rho_22 + rho_33 - 2 Re rho_23)]
              / [(1 + 16 w2) (1 + 4 w2)],   w2 = omega^2

    where indices label the |00>,|01>,|10>,|11> basis (1-based).  The state
    enters only through rho_22 + rho_33 - 2 Re rho_23 = (1 - <s1.s2>)/2.
    On grid params it returns one value per omega; |omega| > ~4.1e76 is refused.
    """
    _check_two_qubit(rho)
    w2 = _zero_phase_omega_squared(params)
    with np.errstate(over="ignore"):
        den = (1.0 + 16.0 * w2) * (1.0 + 4.0 * w2)
    if not np.isfinite(den).all():
        raise ValueError("omega too large for the closed form: its denominator overflows, "
                         f"|omega| = {float(np.max(np.abs(params.omega)))}")
    m = rho.mat
    combo = m[1, 1].real + m[2, 2].real - 2.0 * m[1, 2].real
    num = (1.0 + 12.0 * w2) + 4.0 * w2 * (1.0 + 8.0 * w2) * combo
    return num / den


def sigma_sum_expectation(rho: DensityMatrix) -> np.ndarray:
    """Components of <sigma_1 + sigma_2> for a two-qubit state."""
    _check_two_qubit(rho)
    a = decompose(rho).a
    return a[1:, 0] + a[0, 1:]


def transmitted_polarization(params: ScatterParams, rho: DensityMatrix) -> np.ndarray:
    """Polarization of the transmitted flying spin for unpolarized input.

    Closed form at kd_phase = 0:
        <sigma_f>_out = 6 w2 / [(1 + 16 w2)(1 + 4 w2)] * <sigma_1 + sigma_2> / P_T.
    On grid params it returns one 3-vector per omega, on a trailing axis.
    """
    pt = pt_unpolarized_closed_form(params, rho)
    if np.min(pt) <= 0.0:
        raise RuntimeError("transmission probability vanished; polarization undefined")
    w2 = _zero_phase_omega_squared(params)
    pref = np.asarray(6.0 * w2 / ((1.0 + 16.0 * w2) * (1.0 + 4.0 * w2)))[..., None]
    return pref * sigma_sum_expectation(rho) / np.asarray(pt)[..., None]


def pt_polarized_input(params: ScatterParams, rho: DensityMatrix, axis,
                       sign: int = +1) -> float:
    """Transmission of a fully polarized flying spin along sign*axis.

    Closed form at kd_phase = 0:

        P_T(+-n) = P_T_unpol +- 2 w2 / [(1 + 16 w2)(1 + 4 w2)] * <(s1 + s2) . n>

    Injection aligned with the net static spin is enhanced: the aligned
    configuration has more weight in the weakly scattered triplet channels.
    Equals transmission_probability with the flying spin in the pure state
    along sign*axis (the sign convention is fixed by that identity; an input
    fully aligned with |00> statics transmits with 1/(1 + 4 w2) > P_T_unpol).
    """
    base = pt_unpolarized_closed_form(params, rho)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = unit_axis(axis)
    w2 = _zero_phase_omega_squared(params)
    coeff = 2.0 * w2 / ((1.0 + 16.0 * w2) * (1.0 + 4.0 * w2))
    return base + sign * coeff * float(np.dot(sigma_sum_expectation(rho), n))


def full_input_state(flying: DensityMatrix, statics: DensityMatrix) -> DensityMatrix:
    """Product state of a flying spin with the static register."""
    return DensityMatrix(np.kron(flying.mat, statics.mat))


def flying_polarization_out(block: ScatterBlock, rho: DensityMatrix) -> np.ndarray:
    """Transmitted flying-spin polarization from the full scattering matrix.

    Conditional on transmission: trace((n.sigma_f) t rho t^dag) / P_T for each
    axis.  Serves as the oracle for transmitted_polarization.
    """
    pt = transmission_probability(block, rho)
    if pt <= 0.0:
        raise RuntimeError("transmission probability vanished; polarization undefined")
    out = block.t @ rho.mat @ block.t.conj().T
    d_static = block.dim // 2
    i_static = np.eye(d_static, dtype=complex)
    comps = []
    for k in (1, 2, 3):
        op = np.kron(pauli(k), i_static)
        comps.append(np.trace(op @ out).real / pt)
    return np.array(comps)
