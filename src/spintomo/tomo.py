"""State reconstruction from transmission measurements.

A measurement setting fixes the scattering parameters, the gate sequence
applied to the static register beforehand, and the flying-spin injector
polarization.  Its one readout, the transmission probability P_T, is affine
in the unknown state: P_T = offset + row . unknowns.  The row is built
generically by conjugating the setting's effective observable with its gate
sequence and decomposing in the Pauli basis, so no hand-derived coefficient
formulas enter.  A setting builds its row once, and simulation and inversion
share it.  Every standard plan is read off one table of setting specs and
built once per (mode, params), so repeated experiments share its settings
and their rows.  A settings tuple's design (rows, offsets, singular values,
rank, condition number, pseudo-inverse) is built once, read-only, and every
reconstruction reads its guards from it; the pseudo-inverse solves where the
weights drop out (square design, noiseless records), lstsq all other records.

Supported reconstruction modes:

  two_qubit_gates      unpolarized transmission, single-qubit gates plus six
                       sqrtSWAP-based settings; 15 settings, rank 15
  two_qubit_polarized  unpolarized gate settings plus +-axis polarized
                       injection, no two-qubit gates; rank 15
  single_qubit_ancilla one unknown qubit probed via a polarized ancilla
  first_qubit_marginal ancilla settings per register qubit; returns both
                       one-qubit marginals of a two-qubit register
  pure_state           nonlinear fit of a pure state: a ket in C^4 by batched
                       damped Gauss-Newton; noiseless records fit the sign
                       branches first, noisy ones every start at once
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import gates as g
from .qmat import (
    DensityMatrix,
    PAULI_BASIS,
    PAULI_PAIRS,
    PSD_TOL,
    _bloch_values,
    assemble_array,
    decompose,
    maximally_mixed,
    pauli,
    polarized_qubit,
    unit_axis,
)
from .scatter import ScatterParams, two_impurity_block

FLAT_DESIGN_TOL = 1e-9
UNCONSTRAINED_AMPLITUDE = 1e-6
# Distinct (mode, ScatterParams) whose standard plans are kept; a run uses a
# handful, and each plan holds its settings' built rows.
PLAN_CACHE_SIZE = 64

# The unpolarized flying spin, shared read-only by every setting without an injector.
_UNPOLARIZED = maximally_mixed(2)

# The standard plans, one entry per mode.  Specs are keyed by their label
# prefix: an unpolarized setting "u" is its gate sequence text; a polarized
# injection "pol" is (sign, axis, text); an ancilla probe "anc" is
# (axis, target).  A plan lists its settings in the table's order, which
# is the order of run_plan's draws.
_SINGLE_QUBIT_GATES = ("identity", "X@2", "Y@2", "Ry90@2", "H@2", "Rz90@2", "Rz90@2,Y@2",
                       "Rx90@2", "Rx90@2,Z@2")
_AXIS_INJECTIONS = tuple((sign, axis, "identity") for axis in "xyz" for sign in "+-")
_CATALOGUE = {
    "two_qubit_gates": {"u": _SINGLE_QUBIT_GATES + (
        "sqrtSWAP@12,Rx90@2", "Rz90@2,sqrtSWAP@12,Rx90@2", "sqrtSWAP@12,Ry90@2",
        "Rx90@2,sqrtSWAP@12,Ry90@2", "sqrtSWAP@12,Rz90@2", "Ry90@2,sqrtSWAP@12,Rz90@2")},
    "two_qubit_polarized": {"u": _SINGLE_QUBIT_GATES, "pol": _AXIS_INJECTIONS + (
        ("+", "y", "X@2"), ("+", "z", "X@2"), ("+", "x", "Y@2"),
        ("-", "y", "X@2"), ("-", "z", "X@2"), ("-", "x", "Y@2"))},
    "single_qubit_ancilla": {"anc": tuple((axis, None) for axis in "xyz")},
    "first_qubit_marginal": {"anc": tuple((axis, target) for target in ("first", "second")
                                          for axis in "xyz")},
    "pure_state": {"u": ("identity", "X@2", "Y@2", "Z@2", "Rx90@2", "Ry90@2", "Rz90@2"),
                   "pol": _AXIS_INJECTIONS},
}
MODES = tuple(_CATALOGUE)


class FlatDesignError(ValueError):
    """The measurement design carries no sensitivity to the unknowns."""


class RankDeficientPlanError(ValueError):
    """The plan's design matrix cannot determine all coefficients."""


class PureFitError(RuntimeError):
    """No pure state reproduces the noiseless records."""


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One transmission experiment: gates, injector, geometry.

    The recorded value is the total transmission probability P_T.
    injector_axis None means unpolarized input; otherwise the flying spin is
    the pure state along injector_sign * injector_axis.  For ancilla-based
    settings, ancilla_axis gives the ancilla polarization and
    marginal_target picks which register qubit the ancilla probes.
    """

    params: ScatterParams
    seq: g.GateSequence = g.IDENTITY_SEQUENCE
    injector_axis: np.ndarray | None = None
    injector_sign: int = +1
    ancilla_axis: np.ndarray | None = None
    marginal_target: str | None = None
    label: str = ""

    def __post_init__(self):
        for name in ("injector_axis", "ancilla_axis"):
            v = getattr(self, name)
            if v is not None:
                v = unit_axis(v).copy()
                v.flags.writeable = False
                object.__setattr__(self, name, v)
        if self.injector_sign not in (+1, -1):
            raise ValueError("injector_sign must be +1 or -1")
        if self.marginal_target not in (None, "first", "second"):
            raise ValueError(f"marginal_target must be first/second, got {self.marginal_target!r}")

    @cached_property
    def _row(self) -> tuple:
        """(row, offset) of P_T against the setting's unknowns.  A setting is
        immutable, so this is built on first use only."""
        block = two_impurity_block(self.params)
        e_pair = _effective_observable(block.t, _flying_state(self).mat)
        e_pair = g.conjugate_observable(self.seq, e_pair)
        # c[i, j] = trace(E sigma_i (x) sigma_j) / 4, so the value is sum_ij c_ij a_ij.
        c = np.einsum("ij,kji->k", e_pair, PAULI_BASIS).real.reshape(4, 4) / 4.0
        if self.ancilla_axis is not None:
            # The ancilla's coefficients (1, n) are known; contract them out.
            c = np.concatenate(([1.0], self.ancilla_axis)) @ c
        c = c.ravel()
        row = c[1:]
        row.flags.writeable = False
        return row, float(c[0])


class MeasurementRecord(NamedTuple):
    """One simulated readout: Python floats, and shots a Python int."""

    setting: MeasurementSetting
    ideal_value: float
    shots: int
    observed_value: float
    standard_error: float


@dataclass(frozen=True, eq=False)
class TomographyPlan:
    mode: str
    settings: tuple

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "settings", tuple(self.settings))

    @cached_property
    def _targets(self) -> list:
        """(positions, matrix, offsets) of each target's settings, grouped once."""
        by_target = {}
        for k, s in enumerate(self.settings):
            by_target.setdefault(_target(s), []).append(k)
        return [(np.array(idx), *_design(tuple(self.settings[k] for k in idx))[:2])
                for idx in by_target.values()]


def _flying_state(setting: MeasurementSetting) -> DensityMatrix:
    if setting.injector_axis is None:
        return _UNPOLARIZED
    return polarized_qubit(setting.injector_axis, setting.injector_sign)


def _target(setting: MeasurementSetting) -> tuple:
    """Which unknowns the setting's row acts on: the register's, or those of
    an ancilla's target qubit."""
    return setting.ancilla_axis is not None, setting.marginal_target


def _unknowns(setting: MeasurementSetting, rho: DensityMatrix) -> np.ndarray:
    """The coordinates of rho that the setting's row acts on: the 15 Pauli
    coefficients of a register, or the Bloch vector of an ancilla's target,
    a marginal's read off the validated register with no second state."""
    if setting.ancilla_axis is None:
        if rho.dim != 4:
            raise ValueError(f"register settings need a two-qubit state, got dim {rho.dim}")
        return decompose(rho).a.ravel()[1:]
    if setting.marginal_target is None and rho.dim != 2:
        raise ValueError("ancilla settings probe a one-qubit target")
    return np.array(_bloch_values(rho, setting.marginal_target))


def ideal_value(setting: MeasurementSetting, rho: DensityMatrix) -> float:
    """Noise-free P_T of the setting on the given true state."""
    row, offset = setting._row
    return offset + float(row @ _unknowns(setting, rho))


def measure(setting: MeasurementSetting, rho: DensityMatrix, shots: int,
            rng_seed=None) -> MeasurementRecord:
    """Simulate the setting on the true state with binomial shot noise.

    shots = 0 requests the noiseless value (observed = ideal, zero standard
    error).  Standard errors use an add-one smoothed binomial estimate so
    they stay positive for weighting even at empirical frequencies 0 or 1.
    rng_seed is anything np.random.default_rng takes, a Generator included.
    """
    rng = _generator(shots, rng_seed)
    return _sample((setting,), np.array([ideal_value(setting, rho)]), shots, rng)[0]


def run_plan(plan: TomographyPlan, rho: DensityMatrix, shots: int,
             seed=None) -> list:
    """Measure every setting of a plan, as measure does one.

    All records draw from one default_rng(seed), so seed is anything
    default_rng takes, a Generator included, and a seed reproduces the
    records: one vectorized binomial draw over the plan's transmission
    probabilities, in plan order.  The unknowns of each target (the
    register, or one marginal) are taken from rho once, and that target's
    P_T are read off its cached design.  numpy.random is loaded on the
    first call that draws or is given a seed, not when the module is
    imported.
    """
    rng = _generator(shots, seed)
    pt = np.empty(len(plan.settings))
    for idx, a, b in plan._targets:
        # vecdot sums each row as ideal_value's row @ unknowns does, so P_T
        # equals ideal_value bit for bit; a @ unknowns would not.
        pt[idx] = b + np.vecdot(a, _unknowns(plan.settings[idx[0]], rho))
    return _sample(plan.settings, pt, shots, rng)


def _generator(shots: int, seed):
    """The Generator of a simulation's draws, after checking its shots; None
    for a noiseless run without a seed."""
    if not 0 <= shots < 2**63:
        raise ValueError("shots must be nonnegative and below 2**63")
    if shots == 0 and seed is None:
        # No record draws, and no seed to check: skip the OS entropy read.
        return None
    # A given seed is checked even when no record draws from it.
    return np.random.default_rng(seed)


def _sample(settings: tuple, pt: np.ndarray, shots: int, rng) -> list:
    """The records of settings whose transmission probabilities are pt, from
    one binomial draw of rng over all of them (none at shots = 0)."""
    ideal = pt.tolist()
    if shots == 0:
        return [MeasurementRecord(s, p, 0, p, 0.0) for s, p in zip(settings, ideal)]
    n_t = rng.binomial(shots, np.clip(pt, 0.0, 1.0))
    p_smooth = (n_t + 1.0) / (shots + 2.0)
    se = np.sqrt(p_smooth * (1.0 - p_smooth) / shots)
    return [MeasurementRecord(s, p, int(shots), f, e)
            for s, p, f, e in zip(settings, ideal, (n_t / shots).tolist(), se.tolist())]


def _effective_observable(block_t: np.ndarray, rho_f: np.ndarray) -> np.ndarray:
    """E with trace(t^dag t (rho_f (x) rho_s)) = trace(E rho_s), so that
    trace(E rho_s) is the transmission probability."""
    d_s = block_t.shape[0] // 2
    m = (block_t.conj().T @ block_t).reshape(2, d_s, 2, d_s)
    return np.einsum("fsgu,gf->su", m, rho_f)


def setting_row(setting: MeasurementSetting) -> tuple:
    """Design-matrix row and offset of one setting.

    For register settings the row has 15 entries (the value is
    offset + row . a-vector); for ancilla settings it has 3 entries against
    the target qubit's Bloch vector.  The row is built once per setting and
    is read-only.
    """
    return setting._row


def build_design_matrix(plan_or_settings) -> tuple:
    """Stack setting_row over a plan: returns (matrix, offsets), read-only.

    All settings must address the same unknowns (one marginal target at a
    time for ancilla plans).  Each settings tuple's design is built once
    (see _design).
    """
    return _design(tuple(getattr(plan_or_settings, "settings", plan_or_settings)))[:2]


@lru_cache(maxsize=2 * PLAN_CACHE_SIZE)
def _design(settings: tuple) -> tuple:
    """(matrix, offsets, singular values, rank, condition number,
    pseudo-inverse, real forms) of a settings tuple, read-only.

    A design depends on its settings alone, never on the state, so it is
    built once per tuple of frozen settings (hashed by identity), and every
    reconstruction reads its guards here.  A flat or rank-deficient design
    has condition number and pseudo-inverse None.  A register design (15
    columns) carries the pure fit's real forms (see _real_forms); an
    ancilla design carries None.  The cache holds two tuples per cached
    plan (an ancilla plan has two targets).
    """
    if len({_target(s) for s in settings}) > 1:
        raise ValueError("settings mix different unknowns; split by target first")
    rows, offsets = zip(*(setting_row(s) for s in settings))
    a, b = np.array(rows), np.array(offsets)
    svals = np.linalg.svd(a, compute_uv=False)
    rank = _rank(svals, a.shape)
    cond = pinv = None
    if svals[0] >= FLAT_DESIGN_TOL and rank == a.shape[1]:
        # Full column rank: no singular value is 0 or below pinv's cutoff.
        cond = float(svals[0] / svals[-1])
        pinv = np.linalg.pinv(a, rtol=None)
    forms = _real_forms(a) if a.shape[1] == len(PAULI_PAIRS) else None
    for v in (a, b, svals, pinv, forms):
        if v is not None:
            v.flags.writeable = False
    return a, b, svals, rank, cond, pinv, forms


def _weights(records):
    """1/se per noisy record, 1 per noiseless one (shots 0); None if all are."""
    if all(r.shots == 0 for r in records):
        return None
    return np.array([1.0 / r.standard_error if r.shots else 1.0 for r in records])


def _solve_weighted(a: np.ndarray, y: np.ndarray, w, pinv) -> tuple:
    """(x, weighted residual) of min ||W (a x - y)||, W = diag(w) or I for w
    None.  Where W drops out (square a, or W = I), a's pseudo-inverse pinv
    solves, if the design has one; elsewhere lstsq."""
    aw, yw = (a, y) if w is None else (a * w[:, None], y * w)
    if pinv is not None and (w is None or a.shape[0] == a.shape[1]):
        x = pinv @ y
    else:
        x = np.linalg.lstsq(aw, yw, rcond=None)[0]
    return x, float(np.linalg.norm(aw @ x - yw))


def reconstruct_single(records) -> DensityMatrix:
    """Invert ancilla-probe records into a one-qubit state.

    Requires ancilla axes enough to fix the Bloch vector; three make a square
    design, solved by its cached pseudo-inverse at any shots.  Noise may push
    the estimate outside the Bloch ball; it is then radially clipped to norm 1.
    """
    if any(r.setting.ancilla_axis is None for r in records):
        raise ValueError("reconstruct_single expects ancilla-based records")
    v, _, _, _ = _guarded_solve(records)
    nrm = np.linalg.norm(v)
    if nrm > 1.0:
        v = v / nrm
    return DensityMatrix(0.5 * (np.eye(2, dtype=complex)
                                + v[0] * pauli(1) + v[1] * pauli(2) + v[2] * pauli(3)))


def reconstruct_marginals(records) -> tuple:
    """Invert per-qubit ancilla records into both register marginals."""
    first = [r for r in records if r.setting.marginal_target == "first"]
    second = [r for r in records if r.setting.marginal_target == "second"]
    if not first or not second:
        raise ValueError("need records for both marginal targets")
    return reconstruct_single(first), reconstruct_single(second)


def _rank(svals: np.ndarray, shape: tuple) -> int:
    """The rank np.linalg.matrix_rank gives a matrix of this shape with these
    singular values (its default tolerance, S.max() * max(M, N) * eps)."""
    return int(np.count_nonzero(svals > svals.max() * max(shape) * np.finfo(svals.dtype).eps))


def _refuse_flat(svals: np.ndarray) -> None:
    """Refuse a design whose largest singular value, svals[0], is below
    FLAT_DESIGN_TOL: a uniformly small design passes the relative rank test."""
    if svals[0] < FLAT_DESIGN_TOL:
        raise FlatDesignError(f"design is flat: largest singular value {svals[0]:.3e}")


def _guarded_solve(records) -> tuple:
    """Weighted least-squares estimate of the unknowns the records' settings
    act on, as (estimate, design rank, condition number, weighted residual).

    Raises FlatDesignError when the design carries no sensitivity at all and
    RankDeficientPlanError when it cannot determine every unknown, reading
    both from the cached design.  The weights drop out on a square design and
    for noiseless records (W = I), which the cached pseudo-inverse solves;
    lstsq solves noisy over-determined ones.
    """
    a, b, svals, rank, cond, pinv, _ = _design(tuple([r.setting for r in records]))
    _refuse_flat(svals)
    if rank < a.shape[1]:
        raise RankDeficientPlanError(
            f"design matrix rank {rank} < {a.shape[1]}; the plan cannot determine the state")
    y = np.array([r.observed_value for r in records]) - b
    x, resid = _solve_weighted(a, y, _weights(records), pinv)
    return x, rank, cond, resid


def _psd_repair(mat: np.ndarray) -> tuple:
    """Clip negative eigenvalues and renormalize the trace.

    Returns (repaired matrix, trace distance moved, smallest eigenvalue of
    the input).  Idempotent on already-physical input.
    """
    evals, vecs = np.linalg.eigh(mat)
    if evals.min() >= PSD_TOL:
        return mat, 0.0, float(evals.min())
    clipped = np.clip(evals, 0.0, None)
    clipped = clipped / clipped.sum()
    repaired = (vecs * clipped) @ vecs.conj().T
    # mat - repaired has mat's eigenvectors, with eigenvalues evals - clipped.
    dist = float(0.5 * np.sum(np.abs(evals - clipped)))
    return repaired, dist, float(evals.min())


def reconstruct_two_qubit(records, plan: TomographyPlan) -> tuple:
    """Weighted linear inversion of register records into a two-qubit state.

    Returns (state, coefficients, diagnostics); diagnostics carries the design
    rank and condition number, the weighted residual norm, and the PSD repair
    done, if any.  _guarded_solve says when the cached pseudo-inverse solves.
    """
    if len(records) != len(plan.settings):
        raise ValueError("records do not match the plan")
    if any(r.setting.ancilla_axis is not None for r in records):
        raise ValueError("reconstruct_two_qubit expects register records")
    x, rank, cond, resid = _guarded_solve(records)
    raw = assemble_array(x)
    repaired, proj_dist, min_eig = _psd_repair(raw)
    rho = DensityMatrix(repaired)
    diagnostics = {
        "rank": int(rank),
        "condition_number": cond,
        "weighted_residual": resid,
        "min_eigenvalue": min_eig,
        "psd_repaired": proj_dist > 0.0,
        "projection_distance": proj_dist,
    }
    # Coefficients are decomposed after the repair so they describe the
    # returned (physical) state, not the raw inversion output.
    return rho, decompose(rho), diagnostics


def _unpolarized(params: ScatterParams, text: str) -> MeasurementSetting:
    return MeasurementSetting(params=params, seq=g.parse_sequence(text), label=f"u:{text}")


def _polarized(params: ScatterParams, spec: tuple) -> MeasurementSetting:
    sign, axis, text = spec
    return MeasurementSetting(params=params, seq=g.parse_sequence(text), injector_axis=axis,
                              injector_sign=1 if sign == "+" else -1,
                              label=f"pol:{sign}{axis}:{text}")


def _ancilla(params: ScatterParams, spec: tuple) -> MeasurementSetting:
    axis, target = spec
    return MeasurementSetting(params=params, ancilla_axis=axis, marginal_target=target,
                              label=f"anc:{axis}" + (f":{target}" if target else ""))


_BUILDERS = {"u": _unpolarized, "pol": _polarized, "anc": _ancilla}


def plan_standard(mode: str, params: ScatterParams) -> TomographyPlan:
    """The stock measurement plan for each reconstruction mode.

    Built once per (mode, params) and served from a bounded cache: a plan,
    its settings and their rows are immutable, so equal calls share one plan
    (whose settings hold the params of the call that built it).  params must
    be one point, not a grid.
    """
    if isinstance(params.omega, np.ndarray) or isinstance(params.kd_phase, np.ndarray):
        raise ValueError("a standard plan is built at one (omega, kd) point, not on a grid")
    return _standard_plan(mode, params)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _standard_plan(mode: str, params: ScatterParams) -> TomographyPlan:
    if mode not in _CATALOGUE:
        raise ValueError(f"unknown mode {mode!r}")
    return TomographyPlan(mode=mode, settings=tuple(
        _BUILDERS[kind](params, spec)
        for kind, specs in _CATALOGUE[mode].items() for spec in specs))


@dataclass(frozen=True)
class PureStateParams:
    """Amplitudes and phases of the pure-state parametrization

        a1 e^{i th1} |00> + a2 e^{i th2} (|01>+|10>)/sqrt2
        + a3 (|01>-|10>)/sqrt2 + a4 e^{i th4} |11>

    with nonnegative amplitudes and the singlet phase fixed to zero.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    th1: float = 0.0
    th2: float = 0.0
    th4: float = 0.0

    def __post_init__(self):
        amps = (self.a1, self.a2, self.a3, self.a4)
        if not np.all(np.isfinite(amps + (self.th1, self.th2, self.th4))):
            raise ValueError("amplitudes and phases must be finite")
        if any(a < -1e-12 for a in amps):
            raise ValueError("amplitudes must be nonnegative")
        nrm = sum(a * a for a in amps)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"amplitudes must be normalized, got sum of squares {nrm}")

    def ket(self) -> np.ndarray:
        return _pure_ket(np.array([self.a1, self.a2, self.a3, self.a4]),
                         (self.th1, self.th2, self.th4))

    def density(self) -> DensityMatrix:
        v = self.ket()
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class PureStateFit:
    params: PureStateParams
    residual: float
    branch_gap: float
    unconstrained: tuple


_S2 = 1.0 / np.sqrt(2.0)
# Termination tolerance and iteration cap of each start in _fit_kets.
PURE_FIT_TOL = 1e-14
PURE_FIT_MAX_ITERS = 200
# (x @ _GAUGE).reshape(S, 8, 2) holds psi and i psi as columns, x = (Re psi, Im psi).
_GAUGE = np.stack([np.eye(8), np.eye(8, k=4) - np.eye(8, k=-4)], axis=2).reshape(8, 16)


def _pure_ket(amps: np.ndarray, phases) -> np.ndarray:
    """The PureStateParams ket for amplitudes (a1, a2, a3, a4) and phases
    (th1, th2, th4).  A trailing axis on amps or phases gives one ket per
    column."""
    e1, e2, e4 = np.exp(1j * np.asarray(phases, dtype=float))
    a1, a2, a3, a4 = amps
    return np.array([a1 * e1, _S2 * (a2 * e2 + a3), _S2 * (a2 * e2 - a3), a4 * e4])


def _amps_from_angles(chi: np.ndarray) -> np.ndarray:
    c = np.cos(chi)
    s = np.sin(chi)
    return np.array([c[0], s[0] * c[1], s[0] * s[1] * c[2], s[0] * s[1] * s[2]])


def _ket_model(x: np.ndarray, qt: np.ndarray, b, y, w) -> tuple:
    """Weighted misfit r = w (<psi|Q_k|psi>/<psi|psi> + b - y) of a stack of
    kets, shape (S, K), its Jacobian J over x, shape (S, K, 8), and the
    system [J^T G^T; r^T 0], shape (S, 9, K + 2), of which both are views.

    Each ket is a row of x (S, 8) = (Re psi, Im psi), and qt (8, 8K) holds
    the real symmetric form of each Q_k, so <psi|Q_k|psi> = x . Qt_k x.  The
    misfit does not change with the norm or phase of psi, so the Jacobian
    vanishes along psi and i psi: the columns of G^T, with misfit 0.
    """
    s, k = len(x), qt.shape[1] // 8
    xr, xc = x[:, None], x[:, :, None]
    qx = (x @ qt).reshape(s, 8, k)
    nrm2 = xr @ xc
    f = xr @ qx / nrm2
    system = np.zeros((s, 9, k + 2))
    system[:, 8:, :k] = w * (f + b - y)
    system[:, :8, :k] = 2.0 * w / nrm2 * (qx - xc * f)
    system[:, :8, k:] = (x @ _GAUGE).reshape(s, 8, 2)
    return system[:, 8, :k], system[:, :8, :k].transpose(0, 2, 1), system


def _fit_kets(kets: np.ndarray, qt: np.ndarray, b, y, w) -> tuple:
    """Least-squares fit of the records from every start ket of the stack
    kets (S, 4) at once; returns the fitted kets (normalized) and their
    residual norms.

    Each start runs its own damped Gauss-Newton (Levenberg-Marquardt)
    iteration in C^4 taken as 8 reals: one batched 8x8 solve per iteration,
    its own accept/reject decision and damping, a renormalized ket after
    every step.  The damping is isotropic, so a step stays orthogonal to the
    gauge directions psi and i psi, along which the Jacobian vanishes.  A
    start leaves the batch when its gradient, relative cost change or step
    falls below PURE_FIT_TOL.  No start sees another's numbers, so a start
    reaches the same fit in any batch; the batch runs as long as its slowest
    start.  One stacked matmul of _ket_model's system with itself gives
    [J^T J + G^T G, J^T r; r^T J, r^T r]; an accepted step moves it and x.
    """
    x = np.concatenate([kets.real, kets.imag], axis=1)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    out_x, out_ss, idx = np.empty_like(x), np.empty(len(x)), np.arange(len(x))
    _, jac, system = _ket_model(x, qt, b, y, w)
    normal = system @ system.transpose(0, 2, 1)
    mu = 1e-3 * np.einsum("ski,ski->si", jac, jac).max(axis=1)[:, None, None]
    nu, done = np.full(mu.shape, 2.0), np.zeros(mu.shape, dtype=bool)
    for _ in range(PURE_FIT_MAX_ITERS):
        done |= np.abs(normal[:, :8, 8:]).max(axis=1, keepdims=True) < PURE_FIT_TOL
        if done.any():
            stop = done[:, 0, 0]
            out_x[idx[stop]], out_ss[idx[stop]] = x[stop], normal[stop, 8, 8]
            idx, x, normal, mu, nu = (v[~stop] for v in (idx, x, normal, mu, nu))
            if not idx.size:
                break
        # G^T G keeps the system regular as mu -> 0 and leaves the step alone
        # (the gradient has no part along psi or i psi); ::10 is the diagonal.
        grad, lhs = normal[:, :8, 8:], normal[:, :8].copy()
        lhs.reshape(-1, 1, 72)[..., ::10] += mu
        step = np.linalg.solve(lhs[..., :8], lhs[..., 8:])
        x_new = x - step[..., 0]
        x_new /= np.sqrt((x_new * x_new).sum(axis=1, keepdims=True))
        system = _ket_model(x_new, qt, b, y, w)[2]
        normal_new = system @ system.transpose(0, 2, 1)
        # r^T r is twice the cost: each test below is on the cost, doubled.
        reduction = normal[:, 8:, 8:] - normal_new[:, 8:, 8:]
        ratio = reduction / (step.transpose(0, 2, 1) @ (mu * step + grad))
        done = ((reduction < PURE_FIT_TOL * normal[:, 8:, 8:]) & (ratio > 0.25)
                | (np.sqrt(step.transpose(0, 2, 1) @ step) < PURE_FIT_TOL * (PURE_FIT_TOL + 1.0)))
        accept = reduction > 0.0
        mu = mu * np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), nu)
        nu = np.where(accept, 2.0, 2.0 * nu)
        np.copyto(x, x_new, where=accept[:, 0])
        np.copyto(normal, normal_new, where=accept)
    out_x[idx], out_ss[idx] = x, normal[:, 8, 8]
    return out_x[:, :4] + 1j * out_x[:, 4:], np.sqrt(out_ss)


def _amplitude_seed(x_lin: np.ndarray) -> np.ndarray:
    """Starting angles (chi1, chi2, chi3) from a linear coefficient estimate.

    The populations of |00>, the symmetric and antisymmetric one-exchange
    states, and |11> are linear in the measured coefficient combinations
    (a33, a03 + a30, a11 + a22), so even a rank-deficient linear solve
    recovers them exactly in noiseless data.
    """
    idx = {pair: k for k, pair in enumerate(PAULI_PAIRS)}
    a11, a22, a33 = (x_lin[idx[(1, 1)]], x_lin[idx[(2, 2)]], x_lin[idx[(3, 3)]])
    zsum = x_lin[idx[(0, 3)]] + x_lin[idx[(3, 0)]]
    p00 = (1.0 + zsum + a33) / 4.0
    p11 = (1.0 - zsum + a33) / 4.0
    p_sing = (1.0 - a11 - a22 - a33) / 4.0
    probs = np.clip([p00, 1.0 - p00 - p11 - p_sing, p_sing, p11], 0.0, None)
    probs = probs / probs.sum() if probs.sum() > 0 else np.full(4, 0.25)
    amps = np.sqrt(probs)
    chi1 = np.arccos(np.clip(amps[0], 0.0, 1.0))
    s1 = np.sin(chi1)
    if s1 < 1e-9:
        return np.array([chi1, np.pi / 4, np.pi / 4])
    chi2 = np.arccos(np.clip(amps[1] / s1, 0.0, 1.0))
    if s1 * np.sin(chi2) < 1e-9:
        return np.array([chi1, chi2, np.pi / 4])
    return np.array([chi1, chi2, np.arctan2(amps[3], amps[2])])


def _branch_kets(chi0: np.ndarray) -> np.ndarray:
    """The fit's first starts: the seed amplitudes with every sign branch
    of phases +-pi/2, shape (8, 4)."""
    signs = np.array([[s1, s2, s4] for s1 in (+1, -1) for s2 in (+1, -1) for s4 in (+1, -1)])
    return _pure_ket(_amps_from_angles(chi0), signs.T * np.pi / 2).T


@lru_cache(maxsize=None)
def _restart_draws() -> tuple:
    """The restarts' angle offsets and phases, (3, 24) each, drawn once from
    default_rng(7) in the order the restarts take them.  Drawn on first use,
    so importing the module does not load numpy.random."""
    rng = np.random.default_rng(7)
    draws = [(rng.normal(0.0, 0.15, 3), rng.uniform(-np.pi, np.pi, 3)) for _ in range(24)]
    offsets, phases = (np.array(d).T for d in zip(*draws))
    offsets.flags.writeable = phases.flags.writeable = False
    return offsets, phases


def _restart_kets(chi0: np.ndarray) -> np.ndarray:
    """The fit's 24 randomized restarts around the seed amplitudes, shape
    (24, 4); seeded, so results stay reproducible."""
    offsets, phases = _restart_draws()
    chi = np.clip(chi0[:, None] + offsets, 0.0, np.pi / 2)
    return _pure_ket(_amps_from_angles(chi), phases).T


def _pure_model(records) -> tuple:
    """(qt, b, y, w, chi0) of a pure fit: the design's real forms of the
    operators Q_k = sum_j a_kj sigma_j whose expectations are the records'
    affine parts (see _ket_model), and the seed angles of the starts.  A flat
    design is refused as in _guarded_solve; a rank-deficient one (pure_state's
    is rank 9) has no pseudo-inverse, so lstsq seeds the starts."""
    a, b, svals, _, _, pinv, qt = _design(tuple(r.setting for r in records))
    _refuse_flat(svals)
    y = np.array([r.observed_value for r in records])
    w = _weights(records)
    x_lin = _solve_weighted(a, y - b, w, pinv)[0]
    return qt, b, y, 1.0 if w is None else w, _amplitude_seed(x_lin)


def _real_forms(a: np.ndarray) -> np.ndarray:
    """The qt (8, 8K) of _ket_model for the operators Q_k = sum_j a_kj
    sigma_j, sigma_j the 15 non-identity Pauli pairs: x . Qt_k x =
    <psi|Q_k|psi> for x = (Re psi, Im psi), and (x @ qt).reshape(S, 8, K)
    holds the Qt_k x as columns."""
    q = np.einsum("kj,jab->kab", a, PAULI_BASIS[1:])
    qt = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return qt.transpose(2, 1, 0).reshape(8, -1)


def _ket_params(psi: np.ndarray) -> PureStateParams:
    """The PureStateParams of a normalized ket, in the gauge that makes the
    singlet amplitude real; below UNCONSTRAINED_AMPLITUDE the first larger
    component carries the zero phase instead."""
    comps = np.array([psi[0], _S2 * (psi[1] + psi[2]), _S2 * (psi[1] - psi[2]), psi[3]])
    amps = np.abs(comps)
    big = amps >= UNCONSTRAINED_AMPLITUDE
    anchor = 2 if big[2] else int(np.argmax(big))
    phases = np.angle(comps * np.exp(-1j * np.angle(comps[anchor])))
    return PureStateParams(a1=amps[0], a2=amps[1], a3=amps[2], a4=amps[3],
                           th1=phases[0], th2=phases[1], th4=phases[3])


def reconstruct_pure(records) -> PureStateFit:
    """Fit a pure state to transmission records.

    The predicted value of each setting is affine in the Pauli coefficients
    of |psi><psi|, so with the records' design matrix a it is the quadratic
    form <psi|Q_k|psi> / <psi|psi> + b_k, Q_k = sum_j a_kj sigma_j.  The ket
    is fitted in C^4 by batched damped Gauss-Newton runs over the starts
    (see _fit_kets).  Amplitudes are seeded from a linear solve (they are
    fixed by the gate settings alone), and the starts are every sign branch
    of the phases plus 24 seeded random restarts; the restarts' fits count
    only if no branch lands within 1e-9.  Noiseless records fit the branches
    first and the restarts only then; noisy ones, where no branch lands,
    fit all 32 starts in one batch.  branch_gap reports how far behind the
    best competing fit finished.

    The best ket is reported in the gauge that makes the singlet amplitude
    real and nonnegative; if that amplitude is below 1e-6, the first larger
    component carries the zero phase instead.  Phases of components with
    amplitude below 1e-6 are reported as unconstrained.  Noiseless records
    that no start can fit indicate a non-pure input state and raise
    PureFitError; so do noiseless records that two different states fit
    equally well, as the plan cannot identify the state then.  One scan over
    the fits and the complex conjugate of every fit finds the least similar
    state that fits as well as the best (within 1e-9), and the refusal prints
    its infidelity, 1 - overlap with the best fit, or "< 1e-6" below 1e-6.
    A flat design raises FlatDesignError.
    """
    qt, b, y, w, chi0 = _pure_model(records)
    noiseless = all(r.shots == 0 for r in records)
    branches = _branch_kets(chi0)
    n_branch = len(branches)
    # Noisy records never land a branch at 1e-9, so their restarts run in
    # the same batch; noiseless ones try the branches alone first.
    starts = branches if noiseless else np.concatenate([branches, _restart_kets(chi0)])
    kets, res = _fit_kets(starts, qt, b, y, w)
    if res[:n_branch].min() <= 1e-9:
        # A branch landed: the restarts' fits do not count.
        kets, res = kets[:n_branch], res[:n_branch]
    elif noiseless:
        # No sign branch converged cleanly; retry from the random restarts.
        more_kets, more_res = _fit_kets(_restart_kets(chi0), qt, b, y, w)
        kets, res = np.concatenate([kets, more_kets]), np.concatenate([res, more_res])
    order = np.argsort(res, kind="stable")
    kets, res = kets[order], res[order]
    best_res, best = float(res[0]), kets[0]
    gaps = res[res > best_res + 1e-9]
    branch_gap = float(gaps[0] - best_res) if gaps.size else 0.0

    if noiseless and best_res > 1e-6 * len(records):
        raise PureFitError(
            f"best residual {best_res:.3e} on noiseless records; the input "
            "state is not pure")
    if noiseless:
        # Every fit and its complex conjugate, a twin that no start need
        # reach, is a candidate.  The least similar candidate that fits as
        # well as the best is the rival: the first one would hang on the
        # order of residuals equal to rounding.
        twins = kets.conj()
        twin_x = np.concatenate([twins.real, twins.imag], axis=1)
        twin_res = np.linalg.norm(_ket_model(twin_x, qt, b, y, w)[0], axis=1)
        overlap = np.abs(np.concatenate([kets, twins]) @ best.conj()) ** 2
        tied = np.concatenate([res, twin_res]) <= best_res + 1e-9
        rival = np.min(overlap, where=tied, initial=1.0)
        if rival < 1.0 - 1e-8:
            # Below 1e-6 the infidelity's digits are the fit's resolution.
            infidelity = f"{1.0 - rival:.1e}" if 1.0 - rival >= 1e-6 else "< 1e-6"
            raise PureFitError(
                "fits that reproduce the records equally well reach states of "
                f"infidelity {infidelity}; the plan cannot identify the state")

    params = _ket_params(best)
    amps = (params.a1, params.a2, params.a3, params.a4)
    unconstrained = [name for amp, name in
                     zip((amps[0], amps[1], amps[3]), ("th1", "th2", "th4"))
                     if amp < UNCONSTRAINED_AMPLITUDE]
    if amps[2] < UNCONSTRAINED_AMPLITUDE and len(unconstrained) == 2:
        # Without a singlet component the phases are only fixed relative to
        # each other; a lone surviving component keeps a pure gauge phase.
        unconstrained = ["th1", "th2", "th4"]
    unconstrained.sort()
    return PureStateFit(params=params, residual=best_res,
                        branch_gap=branch_gap, unconstrained=tuple(unconstrained))


# JSON serialization of settings, records and plans.  Gate sequences use the
# text format; axes are stored as 3-vectors.

def setting_to_json(s: MeasurementSetting) -> dict:
    return {
        "omega": s.params.omega,
        "kd_phase": s.params.kd_phase,
        "seq": g.format_sequence(s.seq),
        "injector_axis": None if s.injector_axis is None else [float(v) for v in s.injector_axis],
        "injector_sign": s.injector_sign,
        # Kept as null: a setting records total transmission only.
        "detector_axis": None,
        "ancilla_axis": None if s.ancilla_axis is None else [float(v) for v in s.ancilla_axis],
        "marginal_target": s.marginal_target,
        "label": s.label,
    }


def record_to_json(r: MeasurementRecord) -> dict:
    return dict(r._asdict(), setting=setting_to_json(r.setting))


def plan_to_json(plan: TomographyPlan) -> dict:
    return {"mode": plan.mode, "settings": [setting_to_json(s) for s in plan.settings]}
