"""State reconstruction from transmission measurements.

A measurement setting fixes the scattering parameters, the gate sequence
applied to the static register beforehand, and the flying-spin injector and
detector polarizations.  The transmission probability P_T is affine in the
unknown state, and so is the numerator of a conditional polarization (n.sigma
on the transmitted flying spin in place of the identity).  Each such row is
built generically by conjugating the setting's effective observable with its
gate sequence and decomposing in the Pauli basis, so no hand-derived
coefficient formulas enter.  A setting builds its rows once; a readout is P_T
or numerator / P_T off them, and a total transmission's P_T row is also its
design row.  Each standard plan is built once per (mode, params), so
repeated experiments share its settings and their rows.

Supported reconstruction modes:

  two_qubit_gates      unpolarized transmission, single-qubit gates plus six
                       sqrtSWAP-based settings; 15 settings, rank 15
  two_qubit_polarized  unpolarized gate settings plus +-axis polarized
                       injection, no two-qubit gates; rank 15
  single_qubit_ancilla one unknown qubit probed via a polarized ancilla
  first_qubit_marginal ancilla settings per register qubit; returns both
                       one-qubit marginals of a two-qubit register
  pure_state           nonlinear fit of a pure-state parametrization
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gates as g
from .qmat import (
    AXIS_VECTORS,
    DensityMatrix,
    PAULI_BASIS,
    PAULI_PAIRS,
    assemble_array,
    bloch,
    decompose,
    maximally_mixed,
    n_dot_sigma,
    partial_trace,
    pauli,
    polarized_qubit,
    unit_axis,
)
from .scatter import ScatterParams, two_impurity_block

FLAT_DESIGN_TOL = 1e-9
PSD_REPAIR_TOL = -1e-10
UNCONSTRAINED_AMPLITUDE = 1e-6
# Distinct (mode, ScatterParams) whose standard plans are kept; a run uses a
# handful, and each plan holds its settings' built rows.
PLAN_CACHE_SIZE = 64

# The unpolarized flying spin, shared read-only by every setting without an injector.
_UNPOLARIZED = maximally_mixed(2)

MODES = ("two_qubit_gates", "two_qubit_polarized", "single_qubit_ancilla",
         "first_qubit_marginal", "pure_state")


class FlatDesignError(ValueError):
    """The measurement design carries no sensitivity to the unknowns."""


class RankDeficientPlanError(ValueError):
    """The plan's design matrix cannot determine all coefficients."""


class PureFitError(RuntimeError):
    """No pure state reproduces the noiseless records."""


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One transmission experiment: gates, injector, detector, geometry.

    injector_axis None means unpolarized input; otherwise the flying spin is
    the pure state along injector_sign * injector_axis.  detector_axis None
    means total transmission is recorded; otherwise the mean transmitted
    polarization along that axis (conditional on transmission).  For
    ancilla-based settings, ancilla_axis gives the ancilla polarization
    and marginal_target picks which register qubit the ancilla probes.
    """

    params: ScatterParams
    seq: g.GateSequence = g.IDENTITY_SEQUENCE
    injector_axis: np.ndarray | None = None
    injector_sign: int = +1
    detector_axis: np.ndarray | None = None
    ancilla_axis: np.ndarray | None = None
    marginal_target: str | None = None
    label: str = ""

    def __post_init__(self):
        for name in ("injector_axis", "detector_axis", "ancilla_axis"):
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
    def _rows(self) -> tuple:
        # A setting is immutable, so its rows are built on first use only:
        # (row, offset) of P_T, then of the polarization numerator if any.
        rows = (_build_row(self, None),)
        if self.detector_axis is not None:
            rows += (_build_row(self, n_dot_sigma(self.detector_axis)),)
        return rows


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
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
    coefficients of a register, or the Bloch vector of an ancilla's target."""
    if setting.ancilla_axis is None:
        if rho.dim != 4:
            raise ValueError(f"register settings need a two-qubit state, got dim {rho.dim}")
        return decompose(rho).a.ravel()[1:]
    target = rho
    if setting.marginal_target is not None:
        target = partial_trace(rho, setting.marginal_target)
    if target.dim != 2:
        raise ValueError("ancilla settings probe a one-qubit target")
    return np.array(bloch(target))


def _readout(setting: MeasurementSetting, unknowns: np.ndarray) -> tuple:
    """(value, P_T) of the setting on a target with these unknowns: the
    value is P_T itself, or for a detector the numerator row's value / P_T."""
    rows = setting._rows
    pt = rows[0][1] + float(rows[0][0] @ unknowns)
    if setting.detector_axis is None:
        return pt, pt
    if pt <= 0.0:
        raise RuntimeError("no transmission; conditional polarization undefined")
    return (rows[1][1] + float(rows[1][0] @ unknowns)) / pt, pt


def ideal_value(setting: MeasurementSetting, rho: DensityMatrix) -> float:
    """Noise-free value of the setting's readout on the given true state.

    Both readouts come off the setting's affine rows: a total transmission
    is P_T = offset + row . unknowns, a conditional polarization the ratio of
    its numerator row's value to that P_T.
    """
    return _readout(setting, _unknowns(setting, rho))[0]


def measure(setting: MeasurementSetting, rho: DensityMatrix, shots: int,
            rng_seed=None) -> MeasurementRecord:
    """Simulate the setting on the true state with binomial shot noise.

    shots = 0 requests the noiseless value (observed = ideal, zero standard
    error).  Standard errors use an add-one smoothed binomial estimate so
    they stay positive for weighting even at empirical frequencies 0 or 1.
    """
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    return _sample(setting, *_readout(setting, _unknowns(setting, rho)), shots, rng_seed)


def _sample(setting: MeasurementSetting, ideal: float, pt: float,
            shots: int, rng_seed) -> MeasurementRecord:
    """measure's record for a setting whose noise-free value is ideal and
    whose transmission probability is pt."""
    if shots == 0:
        return MeasurementRecord(setting, ideal, 0, ideal, 0.0)
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)

    n_t = int(rng.binomial(shots, min(max(pt, 0.0), 1.0)))
    if setting.detector_axis is None:
        p_smooth = (n_t + 1.0) / (shots + 2.0)
        se = float(np.sqrt(p_smooth * (1.0 - p_smooth) / shots))
        return MeasurementRecord(setting, ideal, shots, n_t / shots, se)

    # Polarization detection: only transmitted shots produce a +-1 outcome.
    if n_t == 0:
        return MeasurementRecord(setting, ideal, shots, 0.0, 1.0)
    p_up = 0.5 * (1.0 + min(max(ideal, -1.0), 1.0))
    ups = int(rng.binomial(n_t, p_up))
    observed = (2.0 * ups - n_t) / n_t
    p_smooth = (ups + 1.0) / (n_t + 2.0)
    se = float(np.sqrt(4.0 * p_smooth * (1.0 - p_smooth) / n_t))
    return MeasurementRecord(setting, ideal, shots, observed, se)


def run_plan(plan: TomographyPlan, rho: DensityMatrix, shots: int,
             seed=None) -> list:
    """Measure every setting of a plan; per-setting seeds are derived from
    the master seed by plan order, so results are reproducible.

    Each record equals measure(setting, rho, shots, default_rng(its seed));
    the unknowns of each target (the register, or one marginal) are taken
    from rho once and shared by that target's settings.
    """
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    # The seed is checked even when no record draws from it.
    root = np.random.SeedSequence(seed)
    seeds = root.spawn(len(plan.settings)) if shots > 0 else [None] * len(plan.settings)
    unknowns = {}
    records = []
    for s, ss in zip(plan.settings, seeds):
        target = _target(s)
        if target not in unknowns:
            unknowns[target] = _unknowns(s, rho)
        records.append(_sample(s, *_readout(s, unknowns[target]), shots, ss))
    return records


def _effective_observable(block_t: np.ndarray, rho_f: np.ndarray,
                          flying_out: np.ndarray | None = None) -> np.ndarray:
    """E with trace(t^dag (O (x) I) t (rho_f (x) rho_s)) = trace(E rho_s).

    O is flying_out, an operator on the transmitted flying spin; None is the
    identity, which makes trace(E rho_s) the transmission probability.
    """
    d_s = block_t.shape[0] // 2
    t_out = block_t if flying_out is None else np.kron(flying_out, np.eye(d_s)) @ block_t
    a = block_t.conj().T @ t_out
    m = a.reshape(2, d_s, 2, d_s)
    return np.einsum("fsgu,gf->su", m, rho_f)


def setting_row(setting: MeasurementSetting) -> tuple:
    """Design-matrix row and offset of one total-transmission setting.

    For register settings the row has 15 entries (the value is
    offset + row . a-vector); for ancilla settings it has 3 entries against
    the target qubit's Bloch vector.  The row is built once per setting and
    is read-only.
    """
    if setting.detector_axis is not None:
        raise ValueError("conditional polarization readouts are not affine; "
                         "use +-axis injection settings instead")
    return setting._rows[0]


def _build_row(setting: MeasurementSetting, flying_out: np.ndarray | None) -> tuple:
    """(row, offset) of trace((O (x) I) t rho_in t^dag) against the setting's
    unknowns, O being flying_out (None: the identity, giving P_T)."""
    block = two_impurity_block(setting.params)
    e_pair = _effective_observable(block.t, _flying_state(setting).mat, flying_out)
    e_pair = g.conjugate_observable(setting.seq, e_pair)
    # c[i, j] = trace(E sigma_i (x) sigma_j) / 4, so the value is sum_ij c_ij a_ij.
    c = np.einsum("ij,kji->k", e_pair, PAULI_BASIS).real.reshape(4, 4) / 4.0
    if setting.ancilla_axis is not None:
        # The ancilla's coefficients (1, n) are known; contract them out.
        c = np.concatenate(([1.0], setting.ancilla_axis)) @ c
    c = c.ravel()
    row = c[1:]
    row.flags.writeable = False
    return row, float(c[0])


def build_design_matrix(plan_or_settings) -> tuple:
    """Stack setting_row over a plan: returns (matrix, offsets).

    All settings must address the same unknowns (one marginal target at a
    time for ancilla plans).
    """
    settings = getattr(plan_or_settings, "settings", plan_or_settings)
    targets = {_target(s) for s in settings}
    if len(targets) > 1:
        raise ValueError("settings mix different unknowns; split by target first")
    rows, offsets = zip(*(setting_row(s) for s in settings))
    return np.array(rows), np.array(offsets)


def _weights(records) -> np.ndarray:
    return np.array([1.0 / r.standard_error if r.standard_error > 0 else 1.0
                     for r in records])


def _solve_weighted(a: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple:
    aw = a * w[:, None]
    yw = y * w
    x, _, rank, svals = np.linalg.lstsq(aw, yw, rcond=None)
    resid = float(np.linalg.norm(aw @ x - yw))
    return x, rank, svals, resid


def reconstruct_single(records) -> DensityMatrix:
    """Invert ancilla-probe records into a one-qubit state.

    Requires settings along enough ancilla axes to fix the Bloch vector;
    noise may push the estimate outside the Bloch ball, in which case the
    vector is radially clipped to unit norm.
    """
    settings = [r.setting for r in records]
    if any(s.ancilla_axis is None for s in settings):
        raise ValueError("reconstruct_single expects ancilla-based records")
    a, b = build_design_matrix(settings)
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.min() < FLAT_DESIGN_TOL:
        raise FlatDesignError(
            f"design is flat: smallest singular value {svals.min():.3e}; "
            "the coupling gives no sensitivity to the state")
    y = np.array([r.observed_value for r in records]) - b
    v, _, _, _ = _solve_weighted(a, y, _weights(records))
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


def _psd_repair(mat: np.ndarray) -> tuple:
    """Clip negative eigenvalues and renormalize the trace.

    Returns (repaired matrix, trace distance moved, smallest eigenvalue of
    the input).  Idempotent on already-physical input.
    """
    evals, vecs = np.linalg.eigh(mat)
    if evals.min() >= PSD_REPAIR_TOL:
        return mat, 0.0, float(evals.min())
    clipped = np.clip(evals, 0.0, None)
    clipped = clipped / clipped.sum()
    repaired = (vecs * clipped) @ vecs.conj().T
    dist = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(mat - repaired))))
    return repaired, dist, float(evals.min())


def reconstruct_two_qubit(records, plan: TomographyPlan) -> tuple:
    """Weighted linear inversion of register records into a two-qubit state.

    Returns (state, coefficients, diagnostics).  diagnostics carries the
    design rank and condition number, the weighted residual norm, and what
    the positivity repair had to do (if anything).
    """
    settings = [r.setting for r in records]
    if len(settings) != len(plan.settings):
        raise ValueError("records do not match the plan")
    a, b = build_design_matrix(settings)
    svals = np.linalg.svd(a, compute_uv=False)
    rank = _rank(svals, a.shape)
    if rank < 15:
        raise RankDeficientPlanError(
            f"design matrix rank {rank} < 15; the plan cannot determine the state")
    cond = float(svals.max() / svals.min())
    y = np.array([r.observed_value for r in records]) - b
    x, _, _, resid = _solve_weighted(a, y, _weights(records))
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


def _gate_settings(params: ScatterParams) -> list:
    seqs = [
        ("identity", g.IDENTITY_SEQUENCE),
        ("X@2", g.sequence("X@2")),
        ("Y@2", g.sequence("Y@2")),
        ("Ry90@2", g.sequence("Ry90@2")),
        ("H@2", g.sequence("H@2")),
        ("Rz90@2", g.sequence("Rz90@2")),
        ("Rz90@2,Y@2", g.sequence("Rz90@2", "Y@2")),
        ("Rx90@2", g.sequence("Rx90@2")),
        ("Rx90@2,Z@2", g.sequence("Rx90@2", "Z@2")),
    ]
    return [MeasurementSetting(params=params, seq=s, label=f"u:{name}")
            for name, s in seqs]


def _swap_settings(params: ScatterParams) -> list:
    seqs = [
        ("sqrtSWAP@12,Rx90@2", g.sequence("sqrtSWAP@12", "Rx90@2")),
        ("Rz90@2,sqrtSWAP@12,Rx90@2", g.sequence("Rz90@2", "sqrtSWAP@12", "Rx90@2")),
        ("sqrtSWAP@12,Ry90@2", g.sequence("sqrtSWAP@12", "Ry90@2")),
        ("Rx90@2,sqrtSWAP@12,Ry90@2", g.sequence("Rx90@2", "sqrtSWAP@12", "Ry90@2")),
        ("sqrtSWAP@12,Rz90@2", g.sequence("sqrtSWAP@12", "Rz90@2")),
        ("Ry90@2,sqrtSWAP@12,Rz90@2", g.sequence("Ry90@2", "sqrtSWAP@12", "Rz90@2")),
    ]
    return [MeasurementSetting(params=params, seq=s, label=f"u:{name}")
            for name, s in seqs]


def _polarized_settings(params: ScatterParams) -> list:
    out = []
    for name, axis in AXIS_VECTORS.items():
        for sign in (+1, -1):
            out.append(MeasurementSetting(
                params=params, injector_axis=axis, injector_sign=sign,
                label=f"pol:{'+' if sign > 0 else '-'}{name}:identity"))
    for sign in (+1, -1):
        for name in ("y", "z"):  # after X@2
            out.append(MeasurementSetting(
                params=params, seq=g.sequence("X@2"), injector_axis=AXIS_VECTORS[name],
                injector_sign=sign,
                label=f"pol:{'+' if sign > 0 else '-'}{name}:X@2"))
        out.append(MeasurementSetting(
            params=params, seq=g.sequence("Y@2"),
            injector_axis=AXIS_VECTORS["x"], injector_sign=sign,
            label=f"pol:{'+' if sign > 0 else '-'}x:Y@2"))
    return out


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
    if mode == "two_qubit_gates":
        settings = _gate_settings(params) + _swap_settings(params)
    elif mode == "two_qubit_polarized":
        settings = _gate_settings(params) + _polarized_settings(params)
    elif mode == "single_qubit_ancilla":
        settings = [MeasurementSetting(params=params, ancilla_axis=axis,
                                       label=f"anc:{name}")
                    for name, axis in AXIS_VECTORS.items()]
    elif mode == "first_qubit_marginal":
        settings = [MeasurementSetting(params=params, ancilla_axis=axis,
                                       marginal_target=target,
                                       label=f"anc:{name}:{target}")
                    for target in ("first", "second")
                    for name, axis in AXIS_VECTORS.items()]
    elif mode == "pure_state":
        settings = [MeasurementSetting(params=params, seq=s, label=f"u:{name}")
                    for name, s in [
                        ("identity", g.IDENTITY_SEQUENCE),
                        ("X@2", g.sequence("X@2")),
                        ("Y@2", g.sequence("Y@2")),
                        ("Z@2", g.sequence("Z@2")),
                        ("Rx90@2", g.sequence("Rx90@2")),
                        ("Ry90@2", g.sequence("Ry90@2")),
                        ("Rz90@2", g.sequence("Rz90@2")),
                    ]]
        for name, axis in AXIS_VECTORS.items():
            for sign in (+1, -1):
                settings.append(MeasurementSetting(
                    params=params, injector_axis=axis, injector_sign=sign,
                    label=f"pol:{'+' if sign > 0 else '-'}{name}:identity"))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return TomographyPlan(mode=mode, settings=tuple(settings))


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
_B15 = PAULI_BASIS[1:]


def _pure_ket(amps: np.ndarray, phases) -> np.ndarray:
    """The PureStateParams ket for amplitudes (a1, a2, a3, a4) and phases
    (th1, th2, th4).  It is linear in the amplitudes: a trailing axis on
    amps gives one ket per column."""
    e1, e2, e4 = np.exp(1j * np.asarray(phases, dtype=float))
    a1, a2, a3, a4 = amps
    return np.array([a1 * e1, _S2 * (a2 * e2 + a3), _S2 * (a2 * e2 - a3), a4 * e4])


def _amps_from_angles(chi: np.ndarray) -> np.ndarray:
    c = np.cos(chi)
    s = np.sin(chi)
    return np.array([c[0], s[0] * c[1], s[0] * s[1] * c[2], s[0] * s[1] * s[2]])


def _amps_jacobian(chi: np.ndarray) -> np.ndarray:
    """d amps / d chi of _amps_from_angles, shape (4, 3)."""
    c = np.cos(chi)
    s = np.sin(chi)
    return np.array([
        [-s[0], 0.0, 0.0],
        [c[0] * c[1], -s[0] * s[1], 0.0],
        [c[0] * s[1] * c[2], s[0] * c[1] * c[2], -s[0] * s[1] * s[2]],
        [c[0] * s[1] * s[2], s[0] * c[1] * s[2], s[0] * s[1] * c[2]],
    ])


def _coeff_vector(ket: np.ndarray) -> np.ndarray:
    """The 15 Pauli coefficients <ket| sigma_i (x) sigma_j |ket>."""
    return np.einsum("i,kij,j->k", ket.conj(), _B15, ket).real


def _pure_residual(x, a, b, y, w) -> np.ndarray:
    """Weighted misfit of the pure state at angles x = (chi1..3, th1, th2, th4)."""
    ket = _pure_ket(_amps_from_angles(x[:3]), x[3:])
    return w * (a @ _coeff_vector(ket) + b - y)


def _pure_jacobian(x, a, b, y, w) -> np.ndarray:
    """d _pure_residual / dx, from dc_k = 2 Re(v^dag P_k dv)."""
    amps = _amps_from_angles(x[:3])
    ket = _pure_ket(amps, x[3:])
    # Amplitude columns d amps / d chi, then i a_k for the phase of each a_k.
    cols = np.concatenate([_amps_jacobian(x[:3]), 1j * np.diag(amps)[:, [0, 1, 3]]], axis=1)
    dket = _pure_ket(cols, x[3:])
    dc = 2.0 * (np.conj(_B15 @ ket) @ dket).real
    return w[:, None] * (a @ dc)


def _wrap_phase(th: float) -> float:
    return float(np.angle(np.exp(1j * th)))


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


def reconstruct_pure(records) -> PureStateFit:
    """Fit the pure-state parametrization to transmission records.

    The predicted value of each setting is affine in the Pauli coefficients
    of |psi><psi|, so the records' design matrix doubles as the forward
    model.  Amplitudes are seeded from a linear solve (they are fixed by the
    gate settings alone); the three phases are then fitted by restarting a
    bounded least-squares run from every sign branch, with extra randomized
    restarts if none of the branches lands cleanly.  branch_gap reports how
    far behind the best competing branch finished.  Phases of components
    with amplitude below 1e-6 are reported as unconstrained.  Noiseless
    records that no branch can fit indicate a non-pure input state and
    raise PureFitError; so do noiseless records that two different states
    fit equally well, as the plan cannot identify the state then.  Besides
    the fits themselves, the complex conjugate of the best state is always
    tried as such a twin.
    """
    # scipy.optimize takes about half a second to import and only this fit
    # needs it.
    from scipy.optimize import least_squares

    settings = [r.setting for r in records]
    a, b = build_design_matrix(settings)
    y = np.array([r.observed_value for r in records])
    w = _weights(records)

    x_lin, _, _, _ = _solve_weighted(a, y - b, w)
    chi0 = _amplitude_seed(x_lin)
    starts = [np.concatenate([chi0, [s1 * np.pi / 2, s2 * np.pi / 2, s4 * np.pi / 2]])
              for s1 in (+1, -1) for s2 in (+1, -1) for s4 in (+1, -1)]
    lower = [0.0, 0.0, 0.0, -2 * np.pi, -2 * np.pi, -2 * np.pi]
    upper = [np.pi / 2, np.pi / 2, np.pi / 2, 2 * np.pi, 2 * np.pi, 2 * np.pi]

    def run(x0):
        res = least_squares(_pure_residual, x0, jac=_pure_jacobian,
                            bounds=(lower, upper), xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, args=(a, b, y, w))
        return float(np.linalg.norm(res.fun)), res.x

    fits = [run(x0) for x0 in starts]
    if min(f[0] for f in fits) > 1e-9:
        # No sign branch converged cleanly; retry from randomized phase and
        # amplitude starts (deterministic, so results stay reproducible).
        rng = np.random.default_rng(7)
        for _ in range(24):
            chi = np.clip(chi0 + rng.normal(0.0, 0.15, 3), lower[:3], upper[:3])
            fits.append(run(np.concatenate([chi, rng.uniform(-np.pi, np.pi, 3)])))
    fits.sort(key=lambda fr: fr[0])
    best_res, best_x = fits[0]
    gaps = [r for r, _ in fits if r > best_res + 1e-9]
    branch_gap = (gaps[0] - best_res) if gaps else 0.0

    noiseless = all(r.shots == 0 for r in records)
    if noiseless and best_res > 1e-6 * len(records):
        raise PureFitError(
            f"best residual {best_res:.3e} on noiseless records; the input "
            "state is not pure")
    if noiseless:
        best_ket = _pure_ket(_amps_from_angles(best_x[:3]), best_x[3:])
        # Besides the fits, try the complex-conjugate ket (the best fit with
        # its phases negated): a twin that no sign branch need reach.
        x_conj = np.concatenate([best_x[:3], -best_x[3:]])
        conj_res = float(np.linalg.norm(_pure_residual(x_conj, a, b, y, w)))
        for res, x in fits[1:] + [(conj_res, x_conj)]:
            if res > best_res + 1e-9:
                continue
            ket = _pure_ket(_amps_from_angles(x[:3]), x[3:])
            overlap = abs(np.vdot(best_ket, ket)) ** 2
            if overlap < 1.0 - 1e-8:
                raise PureFitError(
                    f"fits with residuals {best_res:.3e} and {res:.3e} reach "
                    f"states of fidelity {overlap:.6f}; the plan cannot "
                    "identify the state")

    amps = _amps_from_angles(best_x[:3])
    phases = [_wrap_phase(t) for t in best_x[3:]]
    unconstrained = [name for amp, name in
                     zip((amps[0], amps[1], amps[3]), ("th1", "th2", "th4"))
                     if amp < UNCONSTRAINED_AMPLITUDE]
    if amps[2] < UNCONSTRAINED_AMPLITUDE and len(unconstrained) == 2:
        # Without a singlet component the phases are only fixed relative to
        # each other; a lone surviving component keeps a pure gauge phase.
        unconstrained = ["th1", "th2", "th4"]
    params = PureStateParams(a1=amps[0], a2=amps[1], a3=amps[2], a4=amps[3],
                             th1=phases[0], th2=phases[1], th4=phases[2])
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
        "detector_axis": None if s.detector_axis is None else [float(v) for v in s.detector_axis],
        "ancilla_axis": None if s.ancilla_axis is None else [float(v) for v in s.ancilla_axis],
        "marginal_target": s.marginal_target,
        "label": s.label,
    }


def setting_from_json(obj: dict) -> MeasurementSetting:
    def _axis(v):
        return None if v is None else np.array(v, dtype=float)
    return MeasurementSetting(
        params=ScatterParams(omega=float(obj["omega"]), kd_phase=float(obj["kd_phase"])),
        seq=g.parse_sequence(obj["seq"]),
        injector_axis=_axis(obj.get("injector_axis")),
        injector_sign=int(obj.get("injector_sign", 1)),
        detector_axis=_axis(obj.get("detector_axis")),
        ancilla_axis=_axis(obj.get("ancilla_axis")),
        marginal_target=obj.get("marginal_target"),
        label=obj.get("label", ""),
    )


def record_to_json(r: MeasurementRecord) -> dict:
    return {
        "setting": setting_to_json(r.setting),
        "ideal_value": r.ideal_value,
        "shots": r.shots,
        "observed_value": r.observed_value,
        "standard_error": r.standard_error,
    }


def record_from_json(obj: dict) -> MeasurementRecord:
    return MeasurementRecord(
        setting=setting_from_json(obj["setting"]),
        ideal_value=float(obj["ideal_value"]),
        shots=int(obj["shots"]),
        observed_value=float(obj["observed_value"]),
        standard_error=float(obj["standard_error"]),
    )


def plan_to_json(plan: TomographyPlan) -> dict:
    return {"mode": plan.mode, "settings": [setting_to_json(s) for s in plan.settings]}


def plan_from_json(obj: dict) -> TomographyPlan:
    return TomographyPlan(mode=obj["mode"],
                          settings=tuple(setting_from_json(s) for s in obj["settings"]))
