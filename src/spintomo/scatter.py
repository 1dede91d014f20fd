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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmat import (
    _I2,
    DensityMatrix,
    decompose,
    kron,
    n_dot_sigma,
    pauli,
    pauli_pair,
    unit_axis,
)

UNITARITY_TOL = 1e-10
CONDITION_LIMIT = 1e12
# Distinct ScatterParams whose two-impurity blocks are kept; a tomography
# plan shares one, so a handful of entries serves any run.
BLOCK_CACHE_SIZE = 64

_I4 = np.eye(4, dtype=complex)

# Exchange between the flying spin and one static spin, acting on
# (flying, static): sigma_f . sigma_s.
EXCHANGE_4 = sum(pauli_pair(k, k) for k in (1, 2, 3))
EXCHANGE_4.flags.writeable = False

# Permutation of (flying, a, b) -> (flying, b, a), used to embed a two-body
# block acting on the flying spin and the second static qubit.
_SWAP_STATICS = np.zeros((8, 8), dtype=complex)
for _f in range(2):
    for _a in range(2):
        for _b in range(2):
            _SWAP_STATICS[_f * 4 + _b * 2 + _a, _f * 4 + _a * 2 + _b] = 1.0
_SWAP_STATICS.flags.writeable = False


class ResonantCascadeError(RuntimeError):
    """The multiple-scattering inversion is numerically singular."""


@dataclass(frozen=True)
class ScatterParams:
    """Coupling strength and propagation phase between two scatterers.

    omega is the dimensionless exchange strength.  kd_phase is the one-way
    propagation phase k*d; it enters transmission only through exp(i*kd_phase).
    """

    omega: float
    kd_phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if not np.isfinite(self.kd_phase):
            raise ValueError(f"kd_phase must be finite, got {self.kd_phase}")


@dataclass(frozen=True, eq=False)
class FrozenSpin:
    """A classical, non-dynamical spin direction."""

    n_hat: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n_hat, dtype=float)
        if n.shape != (3,):
            raise ValueError("frozen spin direction must be a 3-vector")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError(f"frozen spin direction must be unit, norm {np.linalg.norm(n)}")
        n = n.copy()
        n.flags.writeable = False
        object.__setattr__(self, "n_hat", n)

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "FrozenSpin":
        return cls(np.array([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ]))


@dataclass(frozen=True, eq=False)
class ScatterBlock:
    """r/t/r'/t' blocks of one (possibly composite) scatterer.

    The full matrix [[r, t'], [t, r']] must be unitary; this is checked at
    construction.
    """

    r: np.ndarray
    t: np.ndarray
    r_prime: np.ndarray
    t_prime: np.ndarray

    def __post_init__(self):
        mats = []
        for name in ("r", "t", "r_prime", "t_prime"):
            m = np.array(getattr(self, name), dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            mats.append(m)
        if len({m.shape for m in mats}) != 1:
            raise ValueError("all four blocks must share one shape")
        s = self.full()
        err = np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0])))
        if err > UNITARITY_TOL:
            raise ValueError(f"scattering matrix is not unitary: deviation {err:.3e}")

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    def full(self) -> np.ndarray:
        """The full scattering matrix [[r, t'], [t, r']]."""
        top = np.hstack([self.r, self.t_prime])
        bottom = np.hstack([self.t, self.r_prime])
        return np.vstack([top, bottom])


def frozen_t(params: ScatterParams, spin: FrozenSpin) -> np.ndarray:
    """Transmission through a single frozen spin.

    t = [I + i*omega*(n . sigma)]^-1, which works out to
    (I - i*omega*(n . sigma)) / (1 + omega^2): the flying spin is rotated
    about n and attenuated isotropically, t^dag t = I / (1 + omega^2).
    """
    return np.linalg.inv(_I2 + 1j * params.omega * n_dot_sigma(spin.n_hat))


def frozen_block(params: ScatterParams, spin: FrozenSpin) -> ScatterBlock:
    """Full block for one frozen spin: r = t - I and primed = unprimed."""
    t = frozen_t(params, spin)
    r = t - _I2
    return ScatterBlock(r=r, t=t, r_prime=r, t_prime=t)


def frozen_pair_pt(params: ScatterParams, theta: float) -> float:
    """Transmission probability through two frozen spins at relative angle theta.

    Valid at zero propagation phase only, where the closed form is
    1 / (1 + 2*omega^2*(1 + cos(theta))).
    """
    if params.kd_phase != 0.0:
        raise ValueError("closed form assumes kd_phase = 0")
    w2 = params.omega ** 2
    return 1.0 / (1.0 + 2.0 * w2 * (1.0 + np.cos(theta)))


def qubit_t_single(params: ScatterParams) -> np.ndarray:
    """Transmission through one qubit impurity, on the (flying, static) space.

    t = [I + i*omega*(sigma_f . sigma_s)]^-1.
    """
    return np.linalg.inv(_I4 + 1j * params.omega * EXCHANGE_4)


def qubit_block(params: ScatterParams) -> ScatterBlock:
    """Full block for one qubit impurity: r = t - I and primed = unprimed."""
    t = qubit_t_single(params)
    r = t - _I4
    return ScatterBlock(r=r, t=t, r_prime=r, t_prime=t)


def transparent_block(dim: int) -> ScatterBlock:
    """A perfectly transmitting scatterer (r = 0, t = I)."""
    z = np.zeros((dim, dim), dtype=complex)
    i = np.eye(dim, dtype=complex)
    return ScatterBlock(r=z, t=i, r_prime=z, t_prime=i)


def _embed4(mat4: np.ndarray, which: str) -> np.ndarray:
    """Lift an operator on (flying, one static) to (flying, q1, q2)."""
    m8 = np.kron(mat4, _I2)
    if which == "first":
        return m8
    if which == "second":
        return _SWAP_STATICS @ m8 @ _SWAP_STATICS
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")


def embed_block(block: ScatterBlock, which: str) -> ScatterBlock:
    """Embed a two-body block into the three-body space (flying, q1, q2).

    which names the static qubit the block acts on; the other static qubit
    is a spectator.
    """
    if block.dim != 4:
        raise ValueError(f"embed_block expects a dim-4 block, got {block.dim}")
    return ScatterBlock(
        r=_embed4(block.r, which),
        t=_embed4(block.t, which),
        r_prime=_embed4(block.r_prime, which),
        t_prime=_embed4(block.t_prime, which),
    )


def cascade(b1: ScatterBlock, b2: ScatterBlock, params: ScatterParams) -> ScatterBlock:
    """Compose two scatterers separated by the propagation phase kd_phase.

    b1 sits on the left.  Multiple scattering between them is summed as a
    geometric series; the inversion is guarded against resonant (singular)
    configurations.  Reflection phases are referenced to each scatterer's own
    interface.
    """
    if b1.dim != b2.dim:
        raise ValueError("cascaded blocks must share a dimension")
    n = b1.dim
    ident = np.eye(n, dtype=complex)
    ph = np.exp(1j * params.kd_phase)
    ph2 = ph * ph

    m1 = ident - ph2 * (b1.r_prime @ b2.r)
    m2 = ident - ph2 * (b2.r @ b1.r_prime)
    for m in (m1, m2):
        c = np.linalg.cond(m)
        if not np.isfinite(c) or c > CONDITION_LIMIT:
            raise ResonantCascadeError(
                f"resonant cascade: multiple-scattering inversion has condition {c:.3e}")
    inv1 = np.linalg.solve(m1, ident)
    inv2 = np.linalg.solve(m2, ident)

    t_c = ph * (b2.t @ inv1 @ b1.t)
    r_c = b1.r + ph2 * (b1.t_prime @ b2.r @ inv1 @ b1.t)
    tp_c = ph * (b1.t_prime @ inv2 @ b2.t_prime)
    rp_c = b2.r_prime + ph2 * (b2.t @ b1.r_prime @ inv2 @ b2.t_prime)
    return ScatterBlock(r=r_c, t=t_c, r_prime=rp_c, t_prime=tp_c)


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def two_impurity_block(params: ScatterParams) -> ScatterBlock:
    """Cascade of two identical qubit impurities on (flying, q1, q2).

    Built once per distinct params and then served from a bounded cache:
    ScatterParams is frozen and the block's arrays are read-only, so equal
    params may share one block.
    """
    b1 = embed_block(qubit_block(params), "first")
    b2 = embed_block(qubit_block(params), "second")
    return cascade(b1, b2, params)


def transmission_probability(block: ScatterBlock, rho: DensityMatrix) -> float:
    """P_T = trace(t^dag t rho) for a full-space input state."""
    if rho.dim != block.dim:
        raise ValueError(f"state dim {rho.dim} does not match block dim {block.dim}")
    val = np.trace(block.t.conj().T @ block.t @ rho.mat)
    if abs(val.imag) > 1e-10:
        raise RuntimeError(f"transmission probability has imaginary part {val.imag:.3e}")
    return float(val.real)


def reflection_probability(block: ScatterBlock, rho: DensityMatrix) -> float:
    """P_R = trace(r^dag r rho); equals 1 - P_T by unitarity."""
    if rho.dim != block.dim:
        raise ValueError(f"state dim {rho.dim} does not match block dim {block.dim}")
    val = np.trace(block.r.conj().T @ block.r @ rho.mat)
    if abs(val.imag) > 1e-10:
        raise RuntimeError(f"reflection probability has imaginary part {val.imag:.3e}")
    return float(val.real)


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
    """
    _check_two_qubit(rho)
    if params.kd_phase != 0.0:
        raise ValueError("closed form assumes kd_phase = 0")
    w2 = params.omega ** 2
    m = rho.mat
    combo = m[1, 1].real + m[2, 2].real - 2.0 * m[1, 2].real
    num = (1.0 + 12.0 * w2) + 4.0 * w2 * (1.0 + 8.0 * w2) * combo
    return num / ((1.0 + 16.0 * w2) * (1.0 + 4.0 * w2))


def sigma_sum_expectation(rho: DensityMatrix) -> np.ndarray:
    """Components of <sigma_1 + sigma_2> for a two-qubit state."""
    _check_two_qubit(rho)
    a = decompose(rho).a
    return a[1:, 0] + a[0, 1:]


def transmitted_polarization(params: ScatterParams, rho: DensityMatrix) -> np.ndarray:
    """Polarization of the transmitted flying spin for unpolarized input.

    Closed form at kd_phase = 0:
        <sigma_f>_out = 6 w2 / [(1 + 16 w2)(1 + 4 w2)] * <sigma_1 + sigma_2> / P_T.
    """
    _check_two_qubit(rho)
    if params.kd_phase != 0.0:
        raise ValueError("closed form assumes kd_phase = 0")
    pt = pt_unpolarized_closed_form(params, rho)
    if pt <= 0.0:
        raise RuntimeError("transmission probability vanished; polarization undefined")
    w2 = params.omega ** 2
    pref = 6.0 * w2 / ((1.0 + 16.0 * w2) * (1.0 + 4.0 * w2))
    return pref * sigma_sum_expectation(rho) / pt


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
    _check_two_qubit(rho)
    if params.kd_phase != 0.0:
        raise ValueError("closed form assumes kd_phase = 0")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = unit_axis(axis)
    w2 = params.omega ** 2
    coeff = 2.0 * w2 / ((1.0 + 16.0 * w2) * (1.0 + 4.0 * w2))
    base = pt_unpolarized_closed_form(params, rho)
    return base + sign * coeff * float(np.dot(sigma_sum_expectation(rho), n))


def full_input_state(flying: DensityMatrix, statics: DensityMatrix) -> DensityMatrix:
    """Product state of a flying spin with the static register."""
    return DensityMatrix(kron(flying.mat, statics.mat))


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
        op = kron(pauli(k), i_static)
        comps.append(np.trace(op @ out).real / pt)
    return np.array(comps)
