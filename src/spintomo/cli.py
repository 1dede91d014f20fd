"""Command line front end: sweeps, tomography runs, engine cycles, validation.

Output is deterministic for a fixed invocation: floats are printed with
repr-faithful precision, JSON keys are sorted, and grids are evaluated in
order.  Exit codes: 0 success, 1 usage error, 2 validation failure
(malformed state data, rank-deficient plan, failed validation suite,
rejected pure fit), 3 numerical guard tripped (resonant cascade, flat
design).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

from . import engine as eng
from . import tomo
from .qmat import (
    DensityMatrix,
    InvalidStateError,
    bloch,
    bloch_density,
    cmatrix_to_json,
    fidelity,
    ket_density,
    load_density,
    maximally_mixed,
    partial_trace,
    random_density,
    random_unitary,
    singlet,
    trace_distance,
    werner,
)
from .scatter import (
    FrozenSpin,
    ResonantCascadeError,
    ScatterParams,
    frozen_block,
    frozen_pair,
    frozen_pair_pt,
    full_input_state,
    pt_unpolarized_closed_form,
    qubit_block,
    qubit_t_single,
    transmission_probability,
    two_impurity_cascade,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# Grid points evaluated in one stacked pass; a point holds about 25 kB of
# intermediate blocks, so longer sweeps run in slices of this many points.
SWEEP_SLICE = 1024
# Largest grid a range may describe.  A sweep builds all of its CSV lines
# before writing any; at this size it grows the process by about 50 MB and
# takes about 8 s (one core of a 2-core x86 machine).  A larger range is a
# usage error.
MAX_RANGE_POINTS = 100_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the interface reserves 2
    # for validation failures, so route parse errors through UsageError.
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def parse_range(text: str) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive grid of at most MAX_RANGE_POINTS
    points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise UsageError(f"range {text!r} must have finite bounds and step")
    if step <= 0 or b < a:
        raise UsageError(f"range {text!r} must have b >= a and step > 0")
    # Checked before anything is allocated; an overflowing count is inf.
    span = (b - a) / step + 1e-9
    if not span < MAX_RANGE_POINTS:
        raise UsageError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    n = int(np.floor(span)) + 1
    return a + step * np.arange(n)


def _finite_values(name: str, arg: str, fields: str) -> list:
    """The floats of a generator's comma-separated argument.  A non-finite
    one is invalid state data (exit 2); values that give no state, such as
    a vector outside the Bloch ball, stay a usage error."""
    vals = arg.split(",")
    if len(vals) != fields.count(",") + 1:
        raise UsageError(f"{name} generator needs {fields}")
    try:
        v = [float(x) for x in vals]
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from None
    if not all(map(math.isfinite, v)):
        raise InvalidStateError(f"{name}: components must be finite, got {arg}")
    return v


def parse_state(source: str, dim: int = 4) -> DensityMatrix:
    """A density matrix of dimension dim from a generator string or a JSON
    file path; a state of another dimension is a usage error.

    Generators: singlet, triplet00, mixed, werner:p, random:seed,
    pure:a1,a2,a3,a4,th1,th2,th4, bloch:x,y,z (one qubit).
    """
    rho = _read_state(source, dim)
    if rho.dim != dim:
        raise UsageError(f"state {source!r} has dimension {rho.dim}, expected {dim}")
    return rho


def _read_state(source: str, dim: int) -> DensityMatrix:
    name, _, arg = source.partition(":")
    if name == "singlet":
        return singlet()
    if name == "triplet00":
        return ket_density(np.array([1, 0, 0, 0], dtype=complex))
    if name == "mixed":
        return maximally_mixed(dim)
    if name == "werner":
        try:
            return werner(float(arg))
        except ValueError as exc:
            raise UsageError(f"werner: {exc}") from None
    if name == "random":
        try:
            seed = int(arg)
        except ValueError:
            raise UsageError(f"random generator needs an integer seed, got {arg!r}") from None
        return random_density(dim, np.random.default_rng(seed))
    if name == "pure":
        v = _finite_values(name, arg, "a1,a2,a3,a4,th1,th2,th4")
        try:
            return tomo.PureStateParams(*v).density()
        except ValueError as exc:
            raise UsageError(f"pure: {exc}") from None
    if name == "bloch":
        v = _finite_values(name, arg, "x,y,z")
        try:
            return bloch_density(v)
        except InvalidStateError as exc:
            raise UsageError(f"bloch: {exc}") from None
    # Anything else is a file path.
    try:
        return load_density(source)
    except FileNotFoundError:
        raise UsageError(f"unknown state generator or missing file: {source!r}") from None
    except OSError as exc:
        raise UsageError(f"cannot read state file {source!r}: {exc.strerror}") from None
    except InvalidStateError:
        raise  # the file parsed, into a matrix that is no density matrix
    except (ValueError, KeyError, TypeError) as exc:  # undecodable text or JSON included
        raise InvalidStateError(f"malformed state file {source!r}: {exc}") from None


def _write_lines(path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _output(path), open(path, "w") as fh:
            fh.write(text)


@contextmanager
def _output(path):
    """Report an output path that cannot be written as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _slices(*columns):
    """The grid columns in slices of SWEEP_SLICE points; scalar columns pass
    whole.  Each slice is one stacked pass, so a long sweep's memory stays
    bounded."""
    n = max(np.size(c) for c in columns)
    for i in range(0, n, SWEEP_SLICE):
        yield tuple(c[i:i + SWEEP_SLICE] if np.ndim(c) else c for c in columns)


def _rows(*columns) -> list:
    """CSV rows of the broadcast columns, every value printed as _fmt does."""
    row_format = ",".join(["%.17g"] * len(columns))
    table = np.stack(np.broadcast_arrays(*columns), axis=-1).tolist()
    return [row_format % tuple(row) for row in table]


def cmd_sweep(args) -> int:
    # Each axis reads all flags but one; passing that one is refused, not ignored.
    for axis, flag in (("omega", "omega"), ("kd", "kd"), ("theta", "state")):
        if getattr(args, f"{axis}_range") is not None and getattr(args, flag) is not None:
            raise UsageError(f"--{axis}-range sweeps do not read --{flag}")
    kd = 0.0 if args.kd is None else args.kd

    # A point that fails a check refuses the whole grid before any line is
    # written.
    unpolarized = maximally_mixed(2)
    if args.theta_range is not None:
        if args.omega is None:
            raise UsageError("--theta-range sweeps need --omega")
        thetas = parse_range(args.theta_range)
        lines = ["theta,omega,kd,pt_closed_form,pt_matrix,abs_diff"]
        kd0 = ScatterParams(args.omega, 0.0)
        params = ScatterParams(args.omega, kd)
        for (th,) in _slices(thetas):
            closed = frozen_pair_pt(kd0, th)
            block = frozen_pair(params, th)
            matrix = transmission_probability(block, unpolarized)
            lines += _rows(th, args.omega, kd, closed, matrix, abs(closed - matrix))
    else:
        if args.state is None:
            raise UsageError("state sweeps need --state")
        rho = parse_state(args.state)
        if args.omega_range is not None:
            omegas, kds = parse_range(args.omega_range), kd
        else:
            if args.omega is None:
                raise UsageError("--kd-range sweeps need --omega")
            omegas, kds = args.omega, parse_range(args.kd_range)
        lines = ["omega,kd,pt_closed_form,pt_matrix,abs_diff"]
        full = full_input_state(unpolarized, rho)
        for om, kd_i in _slices(omegas, kds):
            closed = pt_unpolarized_closed_form(ScatterParams(om, 0.0), rho)
            block = two_impurity_cascade(ScatterParams(om, kd_i))
            matrix = transmission_probability(block, full)
            lines += _rows(om, kd_i, closed, matrix, abs(closed - matrix))
    _write_lines(args.out, lines)
    return EXIT_OK


def _tomo_report(args) -> dict:
    params = ScatterParams(args.omega, args.kd)
    truth_dim = 2 if args.mode == "single_qubit_ancilla" else 4
    truth = parse_state(args.state, dim=truth_dim)
    plan = tomo.plan_standard(args.mode, params)
    records = tomo.run_plan(plan, truth, args.shots, args.seed)
    report = {
        "mode": args.mode,
        "omega": args.omega,
        "kd": args.kd,
        "shots": args.shots,
        "seed": args.seed,
        "plan": tomo.plan_to_json(plan),
        "records": [tomo.record_to_json(r) for r in records],
        "truth": cmatrix_to_json(truth.mat),
    }
    if args.mode == "first_qubit_marginal":
        m1, m2 = tomo.reconstruct_marginals(records)
        t1, t2 = partial_trace(truth, "first"), partial_trace(truth, "second")
        report["reconstructed_first"] = cmatrix_to_json(m1.mat)
        report["reconstructed_second"] = cmatrix_to_json(m2.mat)
        report["trace_distance_first"] = trace_distance(t1, m1)
        report["trace_distance_second"] = trace_distance(t2, m2)
        return report
    if args.mode in ("two_qubit_gates", "two_qubit_polarized"):
        est, coeffs, diag = tomo.reconstruct_two_qubit(records, plan)
        report["coefficients"] = [[float(v) for v in row] for row in coeffs.a]
        report["diagnostics"] = diag
    elif args.mode == "single_qubit_ancilla":
        est = tomo.reconstruct_single(records)
    else:  # pure_state
        fit = tomo.reconstruct_pure(records)
        est = fit.params.density()
        report["pure_params"] = dataclasses.asdict(fit.params)
        report["residual"] = fit.residual
        report["branch_gap"] = fit.branch_gap
        report["unconstrained"] = list(fit.unconstrained)
    report["reconstructed"] = cmatrix_to_json(est.mat)
    report["fidelity"] = fidelity(truth, est)
    report["trace_distance"] = trace_distance(truth, est)
    return report


def cmd_tomo(args) -> int:
    if not 0 <= args.shots < 2**63:
        raise UsageError("--shots must be nonnegative and below 2**63")
    if args.shots > 0 and args.seed is None:
        raise UsageError("--seed is required when shots > 0")
    report = _tomo_report(args)
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return EXIT_OK


def cmd_engine(args) -> int:
    params = ScatterParams(args.omega, 0.0)
    config = eng.EngineConfig(params=params, mirror_phase=args.mirror_phase,
                              max_iters=args.max_iters, tol=args.tol)
    initial = maximally_mixed(2) if args.state is None else parse_state(args.state, dim=2)
    trace = eng.run_cycle(initial, config)
    if args.out is not None:
        with _output(args.out):
            trace.to_csv(args.out)
    summary = (f"fm_iterations={trace.fm_iterations} "
               f"fm_converged={trace.fm_converged} "
               f"fm_residual={_fmt(trace.fm_residual)} "
               f"nm_iterations={trace.nm_iterations} "
               f"nm_converged={trace.nm_converged} "
               f"nm_residual={_fmt(trace.nm_residual)} "
               f"entropy_transferred_nats={_fmt(trace.entropy_transferred_nats)}")
    sys.stdout.write(summary + "\n")
    return EXIT_OK


# Validation suites.  Each yields one error per case it checks; run_validation
# judges the largest against the suite's threshold.

def _suite_frozen_unitarity(rng):
    for _ in range(50):
        om = rng.uniform(0.05, 3.0)
        n = rng.normal(size=3)
        spin = FrozenSpin(n / np.linalg.norm(n))
        t = frozen_block(ScatterParams(om, 0.0), spin).t
        yield np.max(np.abs(t.conj().T @ t - np.eye(2) / (1.0 + om * om)))


def _suite_frozen_pair(rng):
    # One stacked pair per omega, as sweep --theta-range builds it.
    thetas = np.linspace(0.0, np.pi, 10)
    for om in np.linspace(0.1, 3.0, 10):
        params = ScatterParams(om, 0.0)
        pt = transmission_probability(frozen_pair(params, thetas), maximally_mixed(2))
        yield from np.abs(pt - frozen_pair_pt(params, thetas))


def _suite_single_impurity(rng):
    for _ in range(10):
        om = rng.uniform(0.05, 3.0)
        t = qubit_t_single(ScatterParams(om, 0.0))
        d = 3.0 * om + 1j
        expected = np.array([
            [1, 0, 0, 0],
            [0, (om + 1j) / d, 2.0 * om / d, 0],
            [0, 2.0 * om / d, (om + 1j) / d, 0],
            [0, 0, 0, 1],
        ], dtype=complex) / (1.0 + 1j * om)
        yield np.max(np.abs(t - expected))


def _suite_two_impurity(rng):
    flying = maximally_mixed(2)
    for _ in range(50):
        om = rng.uniform(0.05, 3.0)
        params = ScatterParams(om, 0.0)
        rho = random_density(4, rng)
        block = two_impurity_cascade(params)
        pt = transmission_probability(block, full_input_state(flying, rho))
        yield abs(pt - pt_unpolarized_closed_form(params, rho))


def _suite_basis_invariance(rng):
    flying = maximally_mixed(2)
    for _ in range(10):
        om = rng.uniform(0.1, 2.0)
        kd = rng.uniform(0.0, 2.0 * np.pi)
        params = ScatterParams(om, kd)
        rho = random_density(4, rng)
        block = two_impurity_cascade(params)
        u = random_unitary(2, rng)
        uu = np.kron(u, u)
        rho_rot = DensityMatrix(uu @ rho.mat @ uu.conj().T)
        p1 = transmission_probability(block, full_input_state(flying, rho))
        p2 = transmission_probability(block, DensityMatrix(np.kron(
            (u @ flying.mat @ u.conj().T), rho_rot.mat)))
        yield abs(p1 - p2)


def _suite_plan_rank(rng):
    for mode in ("two_qubit_gates", "two_qubit_polarized"):
        a, _ = tomo.build_design_matrix(tomo.plan_standard(mode, ScatterParams(1.0, 0.0)))
        yield 15 - np.linalg.matrix_rank(a)
        yield np.linalg.cond(a) / 1e4


def _suite_engine_bloch_map(rng):
    # The partial swap's Bloch map against one density-matrix collision.
    for _ in range(10):
        config = eng.EngineConfig(params=ScatterParams(rng.uniform(0.1, 2.0), 0.0),
                                  mirror_phase=rng.uniform(0.0, 2.0 * np.pi))
        rho = random_density(2, rng)
        v = bloch(rho).as_array()
        axis = rng.normal(size=3)
        for reservoir in (eng.Reservoir("polarized", axis=axis / np.linalg.norm(axis)),
                          eng.Reservoir("unpolarized")):
            m, c = eng.bloch_map(reservoir, config)
            out = bloch(eng.interact_once(rho, reservoir, config)).as_array()
            yield np.max(np.abs(m @ v + c - out))


def _suite_engine_partial_swap(rng):
    # The two-sector (a, b) against the 4x4 multiple-scattering series
    # R = r + t' m (I - r' m)^-1 t built from the impurity's full block, with
    # the mirror's m = -e^{i phi} I: R = a I + b SWAP, so a = R[1, 1] and
    # b = R[2, 1] in the (flying, static) basis.
    for _ in range(10):
        params = ScatterParams(rng.uniform(0.1, 2.0), 0.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        a, b = eng.partial_swap(params, phase)
        blk = qubit_block(params)
        m = -np.exp(1j * phase) * np.eye(4)
        r = blk.r + blk.t_prime @ m @ np.linalg.solve(np.eye(4) - blk.r_prime @ m, blk.t)
        yield abs(a - r[1, 1])
        yield abs(b - r[2, 1])


def _suite_tomo_roundtrip(rng):
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(1.0, 0.0))
    for _ in range(5):
        rho = random_density(4, rng)
        recs = tomo.run_plan(plan, rho, 0)
        est, _, _ = tomo.reconstruct_two_qubit(recs, plan)
        yield trace_distance(rho, est)


def run_validation(seed: int = 7042) -> dict:
    """Run every invariant suite with fixed seeds; returns per-suite results.

    A suite fails with max_error None and the reason as its error when a
    case's error is NaN or inf, or when the suite raises RuntimeError or
    ValueError (a numerical guard, say).  A seed numpy refuses raises
    ValueError before any suite runs.
    """
    suites = {
        "frozen_unitarity": (_suite_frozen_unitarity, 1e-12),
        "frozen_pair_closed_form": (_suite_frozen_pair, 1e-10),
        "single_impurity_entries": (_suite_single_impurity, 1e-12),
        "two_impurity_closed_form": (_suite_two_impurity, 1e-10),
        "basis_invariance": (_suite_basis_invariance, 1e-10),
        "plan_rank_and_conditioning": (_suite_plan_rank, 1.0),
        "engine_bloch_map": (_suite_engine_bloch_map, 1e-12),
        "engine_partial_swap": (_suite_engine_partial_swap, 1e-12),
        "tomography_roundtrip": (_suite_tomo_roundtrip, 1e-9),
    }
    seed_seq = np.random.SeedSequence(seed)
    report = {}
    for name, (suite, threshold) in suites.items():
        try:
            # np.max propagates a NaN from any case.
            err = float(np.max(np.fromiter(suite(np.random.default_rng(seed_seq)), float)))
            if not math.isfinite(err):
                raise ValueError(f"a case's error is {err}")
        except (RuntimeError, ValueError) as exc:
            report[name] = {"passed": False, "max_error": None,
                            "threshold": threshold, "error": str(exc)}
            continue
        report[name] = {"passed": err < threshold, "max_error": err, "threshold": threshold}
    return report


def cmd_validate(args) -> int:
    report = run_validation() if args.seed is None else run_validation(args.seed)
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return EXIT_OK if all(s["passed"] for s in report.values()) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spintomo",
                     description="Flying-spin transmission, tomography, and engine runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="transmission sweep to CSV")
    # argparse prints a group as (a | b | c) only when its flags are adjacent.
    axis = sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--omega-range", default=None, metavar="A:B:STEP")
    axis.add_argument("--theta-range", default=None, metavar="A:B:STEP")
    axis.add_argument("--kd-range", default=None, metavar="A:B:STEP")
    sweep.add_argument("--omega", type=float, default=None)
    # None, not 0, so that an explicit --kd is seen; absent, kd is 0.
    sweep.add_argument("--kd", type=float, default=None)
    sweep.add_argument("--state", default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    tm = sub.add_parser("tomo", help="tomography experiment to JSON")
    tm.add_argument("--mode", required=True, choices=tomo.MODES)
    tm.add_argument("--state", required=True)
    tm.add_argument("--omega", type=float, default=1.0)
    tm.add_argument("--kd", type=float, default=0.0)
    tm.add_argument("--shots", type=int, default=0)
    tm.add_argument("--seed", type=int, default=None)
    tm.add_argument("--out", default=None)
    tm.set_defaults(func=cmd_tomo)

    en = sub.add_parser("engine", help="polarization/depolarization cycle")
    en.add_argument("--omega", type=float, required=True)
    en.add_argument("--mirror-phase", type=float, default=eng.DEFAULT_MIRROR_PHASE)
    en.add_argument("--max-iters", type=int, default=eng.EngineConfig.max_iters)
    en.add_argument("--tol", type=float, default=eng.EngineConfig.tol)
    en.add_argument("--state", default=None)
    en.add_argument("--out", default=None)
    en.set_defaults(func=cmd_engine)

    va = sub.add_parser("validate", help="run invariant suites")
    va.add_argument("--seed", type=int, default=None)
    va.add_argument("--out", default=None)
    va.set_defaults(func=cmd_validate)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on the first call only; parsing leaves it
    unchanged, so every call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.out is not None:
            # Refuse an unwritable --out before the work; a file made here is removed.
            existed = os.path.exists(args.out)
            with _output(args.out), open(args.out, "a"):
                pass
            if not existed:  # the file made, not a symlink that led to it
                os.remove(os.path.realpath(args.out))
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ResonantCascadeError, tomo.FlatDesignError) as exc:
        sys.stderr.write(f"numerical guard: {exc}\n")
        return EXIT_NUMERIC
    except (InvalidStateError, tomo.RankDeficientPlanError, tomo.PureFitError,
            ValueError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
