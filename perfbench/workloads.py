"""Generated inputs, timed operations and output checks for the spintomo benchmark.

Every input comes from the run's seed: round k of a workload is drawn from
``numpy.random.default_rng([seed, 0, k])``, so the operation sequence is endless
and the same for every run with that seed.  The program sees only the
generated objects (states, ``ScatterParams``, shot counts, sub-seeds, CLI
argument lists), never the seed itself.

A round is the unit a run ends on, and it holds a fixed mix of operation
kinds, so the cost mix does not depend on where a run stops:

- ``tomo_linear`` rounds hold every (mode, shots, scatter pool entry)
  combination once, in seeded order, with seeded states.
- ``pure_fit`` rounds hold a noiseless and a noisy fit of every ket of a
  fixed pool (random, product and edge kets), in seeded order.
- ``scan`` rounds hold an omega, a kd and a theta sweep and two engine cycles.

``run_op`` is the timed call; ``check_op`` runs after it, outside the timed
span, and applies the tolerances tier-1 uses.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from spintomo import cli, engine, gates, qmat, scatter, tomo

# (omega, kd) pool for linear tomography.  The kd != 0 entries are kept on
# purpose: their designs are badly conditioned (largest singular value of the
# two_qubit_gates design is 6.7e-4 at omega 0.7, kd 0.4), so noisy estimates
# there are poor, and mean_infidelity must show it.
SCATTER_POOL = ((0.7, 0.0), (1.0, 0.0), (1.5, 0.0), (0.7, 0.4), (1.0, 0.25), (1.3, 0.6))
LINEAR_MODES = ("two_qubit_gates", "two_qubit_polarized", "first_qubit_marginal")
LINEAR_SHOTS = (0, 10_000, 100_000)
STATE_KINDS = ("mixed", "werner", "pure")
PURE_SHOTS = (10_000, 100_000)

# Output-check tolerances, as in the tier-1 tests.
LINEAR_TRACE_DISTANCE_TOL = 1e-9
PURE_INFIDELITY_TOL = 1e-8
SWEEP_KD0_ABS_DIFF_TOL = 1e-10
PT_RANGE_TOL = 1e-10  # a singlet transmits with P_T = 1 up to rounding
ENTROPY_SLACK = 1e-9

ENGINE_PROBE_COLLISIONS = 20
SWEEP_POINTS = 60
ENGINE_MAX_ITERS = 300
# Random streams: [seed, ROUND_STREAM, k] for round k, [seed, COVER_STREAM, i]
# for the inputs of the cover probes.
ROUND_STREAM, COVER_STREAM = 0, 1


@dataclass(frozen=True, eq=False)
class Op:
    """One operation: its kind, a JSON-ready description of its generated
    inputs, and the objects built from them before timing starts."""

    kind: str  # "tomo", "pure", "sweep" or "engine"
    inputs: dict
    truth: qmat.DensityMatrix | None = None
    plan: tomo.TomographyPlan | None = None
    reuse_keys: tuple = field(default=())

    @property
    def label(self) -> str:
        """The kind, with the axis for sweeps: reuse shares are reported per label."""
        return f"sweep.{self.inputs['axis']}" if self.kind == "sweep" else self.kind


def _state_json(rho: qmat.DensityMatrix) -> dict:
    return qmat.cmatrix_to_json(rho.mat)


def tomo_op(mode, omega, kd, state_kind, truth, shots, seed) -> Op:
    n_settings = len(tomo.plan_standard(mode, scatter.ScatterParams(omega, kd)).settings)
    return Op("tomo", {"mode": mode, "omega": omega, "kd": kd, "state_kind": state_kind,
                       "state": _state_json(truth), "shots": shots, "seed": seed},
              truth=truth, reuse_keys=(("pair", omega, kd),) * n_settings)


def pure_op(omega, ket_kind, ket, shots, seed) -> Op:
    plan = tomo.plan_standard("pure_state", scatter.ScatterParams(omega, 0.0))
    ket_json = [[float(v.real), float(v.imag)] for v in ket]
    return Op("pure", {"omega": omega, "kd": 0.0, "ket_kind": ket_kind, "ket": ket_json,
                       "shots": shots, "seed": seed},
              truth=qmat.ket_density(ket), plan=plan,
              reuse_keys=(("pair", omega, 0.0),) * len(plan.settings))


def _range_arg(start: float, step: float, points: int) -> str:
    # Half a step past the last point, so parse_range yields exactly `points`.
    return f"{start!r}:{start + step * (points - 0.5)!r}:{step!r}"


def sweep_op(axis, range_text, omega=None, state=None) -> Op:
    argv = ["sweep", f"--{axis}-range", range_text]
    if omega is not None:
        argv += ["--omega", repr(omega)]
    if state is not None:
        argv += ["--state", state]
    grid = [float(v) for v in cli.parse_range(range_text)]
    if axis == "omega":
        keys = tuple(("pair", v, 0.0) for v in grid)
    elif axis == "kd":
        keys = tuple(("pair", omega, v) for v in grid)
    else:
        # Each theta point builds two frozen-spin blocks: the one at angle 0,
        # the same at every point, and the one at its own angle.
        keys = tuple(("frozen", omega, 0.0, a) for v in grid for a in (0.0, v))
    return Op("sweep", {"argv": argv, "axis": axis, "points": len(grid)}, reuse_keys=keys)


def engine_op(omega, mirror_phase, max_iters) -> Op:
    argv = ["engine", "--omega", repr(omega), "--mirror-phase", repr(mirror_phase),
            "--max-iters", str(max_iters)]
    return Op("engine", {"argv": argv, "omega": omega, "mirror_phase": mirror_phase,
                         "max_iters": max_iters})


def block_keys(op: Op, outcome: dict) -> tuple:
    """Inputs of the scattering blocks an operation built: one key per
    tomography setting or sweep block, and one per engine collision, each of
    which rebuilds the impurity block at the cycle's ScatterParams.  The
    number of collisions is known once the cycle has run."""
    if op.kind == "engine":
        return (("qubit", op.inputs["omega"], 0.0),) * outcome.get("engine_iterations", 0)
    return op.reuse_keys


def random_truth(kind: str, rng: np.random.Generator) -> qmat.DensityMatrix:
    if kind == "mixed":
        return qmat.random_density(4, rng)
    if kind == "werner":
        return qmat.werner(float(rng.uniform(0.0, 1.0)))
    return qmat.ket_density(qmat.random_ket(4, rng))


# A pure-state fit costs 0.3 s to 5 s depending on the ket, and a noisy fit
# 2 s to 8 s depending on its shot noise.  A run holds only 16 fits, so with
# freshly drawn kets or noise it would mostly measure what its seed drew.
# The kets and their noise seeds are therefore a fixed pool drawn once from
# PURE_POOL_SEED, and the run seed picks the order of the fits.  The
# pure_state plan identifies a pure state only at kd = 0.
PURE_POOL_SEED = 20210122


def _pure_pool() -> tuple:
    """(kind, omega, ket, noise seeds) cases of the pure_fit workload, with
    one noise seed for each entry of PURE_SHOTS."""
    rng = np.random.default_rng(PURE_POOL_SEED)
    up = np.array([1.0, 0.0], dtype=complex)
    kets = (
        ("random", 0.7, qmat.random_ket(4, rng)),
        ("random", 1.5, qmat.random_ket(4, rng)),
        ("product", 1.0, np.kron(qmat.random_ket(2, rng), qmat.random_ket(2, rng))),
        # |0> (x) psi has no |11> component, so the fit cannot constrain th4.
        ("edge", 1.0, np.kron(up, qmat.random_ket(2, rng))),
    )
    return tuple((kind, omega, ket, tuple(int(rng.integers(2**31)) for _ in PURE_SHOTS))
                 for kind, omega, ket in kets)


PURE_POOL = _pure_pool()


# --- timed operations -------------------------------------------------------

def _run_tomo(op, sp, workdir):
    inp = op.inputs
    params = scatter.ScatterParams(inp["omega"], inp["kd"])
    with sp.span("tomo.plan_standard"):
        plan = tomo.plan_standard(inp["mode"], params)
    with sp.span("tomo.run_plan"):
        records = tomo.run_plan(plan, op.truth, inp["shots"], inp["seed"])
    if inp["mode"] == "first_qubit_marginal":
        with sp.span("tomo.reconstruct_marginals"):
            return tomo.reconstruct_marginals(records)
    with sp.span("tomo.reconstruct_two_qubit"):
        est, _, diag = tomo.reconstruct_two_qubit(records, plan)
    return est, diag


def _run_pure(op, sp, workdir):
    inp = op.inputs
    with sp.span("tomo.run_plan"):
        records = tomo.run_plan(op.plan, op.truth, inp["shots"], inp["seed"])
    name = "tomo.reconstruct_pure.noisy" if inp["shots"] else "tomo.reconstruct_pure.noiseless"
    with sp.span(name):
        return tomo.reconstruct_pure(records)


def _run_cli(op, sp, workdir):
    out = os.path.join(workdir, f"{op.kind}.csv")
    buf = io.StringIO()
    with sp.span(f"cli.{op.kind}", work=op.inputs.get("points", 1)), \
            contextlib.redirect_stdout(buf):
        code = cli.main(op.inputs["argv"] + ["--out", out])
    return code, buf.getvalue(), out


_RUNNERS = {"tomo": _run_tomo, "pure": _run_pure, "sweep": _run_cli, "engine": _run_cli}


def run_op(op: Op, sp, workdir: str):
    """The timed call of one operation."""
    return _RUNNERS[op.kind](op, sp, workdir)


# --- output checks ----------------------------------------------------------

def _check_tomo(op, result) -> dict:
    inp = op.inputs
    if inp["mode"] == "first_qubit_marginal":
        pairs = [(qmat.partial_trace(op.truth, "first"), result[0]),
                 (qmat.partial_trace(op.truth, "second"), result[1])]
        out = {}
    else:
        est, diag = result
        pairs = [(op.truth, est)]
        out = {"psd_repaired": bool(diag["psd_repaired"]),
               "projection_distance": float(diag["projection_distance"])}
    if inp["shots"] == 0:
        dist = max(qmat.trace_distance(t, e) for t, e in pairs)
        out["ok"] = dist < LINEAR_TRACE_DISTANCE_TOL
        if not out["ok"]:
            out["error"] = f"noiseless trace distance {dist:.3e}"
    else:
        out["ok"] = True
        out["infidelity"] = statistics.fmean(1.0 - qmat.fidelity(t, e) for t, e in pairs)
    return out


def _check_pure(op, fit) -> dict:
    infidelity = 1.0 - qmat.fidelity(op.truth, fit.params.density())
    if op.inputs["shots"]:
        return {"ok": True, "infidelity": infidelity}
    ok = infidelity < PURE_INFIDELITY_TOL
    return {"ok": ok} if ok else {"ok": False, "error": f"noiseless infidelity {infidelity:.3e}"}


def _check_sweep(op, result) -> dict:
    code, _, path = result
    if code != 0:
        return {"ok": False, "error": f"exit code {code}"}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != op.inputs["points"]:
        return {"ok": False, "error": f"{len(rows)} rows for {op.inputs['points']} points"}
    for row in rows:
        pt = float(row["pt_matrix"])
        if not -PT_RANGE_TOL <= pt <= 1.0 + PT_RANGE_TOL:
            return {"ok": False, "error": f"pt_matrix {pt!r} outside [0, 1]"}
        if float(row["kd"]) == 0.0 and float(row["abs_diff"]) > SWEEP_KD0_ABS_DIFF_TOL:
            return {"ok": False, "error": f"abs_diff {row['abs_diff']} at kd = 0"}
    return {"ok": True}


def _parse_engine_summary(text: str) -> dict:
    fields = dict(item.split("=", 1) for item in text.split())
    return {
        "engine_iterations": int(fields["fm_iterations"]) + int(fields["nm_iterations"]),
        "engine_converged": fields["fm_converged"] == "True" and fields["nm_converged"] == "True",
        "entropy": float(fields["entropy_transferred_nats"]),
    }


def _engine_outcome(summary: dict) -> dict:
    out = {"ok": summary["entropy"] <= math.log(2.0) + ENTROPY_SLACK,
           "engine_iterations": summary["engine_iterations"],
           "engine_converged": summary["engine_converged"]}
    if not out["ok"]:
        out["error"] = f"entropy transferred {summary['entropy']!r} exceeds ln 2"
    return out


def _check_engine(op, result) -> dict:
    code, stdout, _ = result
    if code != 0:
        return {"ok": False, "error": f"exit code {code}"}
    return _engine_outcome(_parse_engine_summary(stdout))


_CHECKS = {"tomo": _check_tomo, "pure": _check_pure, "sweep": _check_sweep,
           "engine": _check_engine}


def check_op(op: Op, result) -> dict:
    """Output check, run outside the timed span.  Returns {"ok": bool, ...}
    plus the quality figures the run reports (infidelity of noisy
    estimates, PSD-repair diagnostics, engine iterations)."""
    return _CHECKS[op.kind](op, result)


# --- direct layer calls for the traced run ----------------------------------

def _pair_observable(block: scatter.ScatterBlock) -> np.ndarray:
    """Static-pair observable E with P_T = trace(E rho) for an unpolarized flier."""
    a = (block.t.conj().T @ block.t).reshape(2, 4, 2, 4)
    return 0.5 * np.einsum("fsfu->su", a)


def probe_register(sp, params, rho, plan) -> None:
    """Call the qmat, scatter and gates functions that tomography reaches
    internally, directly on one generated (ScatterParams, state, plan)."""
    with sp.span("qmat.density_matrix"):
        qmat.DensityMatrix(rho.mat)
    with sp.span("qmat.decompose"):
        qmat.decompose(rho)
    single = scatter.qubit_block(params)
    b1, b2 = scatter.embed_block(single, "first"), scatter.embed_block(single, "second")
    with sp.span("scatter.cascade"):
        scatter.cascade(b1, b2, params)
    with sp.span("scatter.two_impurity_block"):
        block = scatter.two_impurity_block(params)
    full = scatter.full_input_state(qmat.maximally_mixed(2), rho)
    with sp.span("scatter.transmission_probability"):
        scatter.transmission_probability(block, full)
    kd0 = scatter.ScatterParams(params.omega, 0.0)
    with sp.span("scatter.pt_unpolarized_closed_form"):
        scatter.pt_unpolarized_closed_form(kd0, rho)
    obs = _pair_observable(block)
    for setting in plan.settings:
        with sp.span("gates.apply"):
            gates.apply(setting.seq, rho)
        with sp.span("gates.conjugate_observable"):
            gates.conjugate_observable(setting.seq, obs)
    settings = [s for s in plan.settings if s.marginal_target in (None, "first")]
    with sp.span("tomo.build_design_matrix"):
        tomo.build_design_matrix(settings)


def probe_engine(sp, omega, mirror_phase, max_iters) -> dict:
    """Direct engine calls on one generated configuration."""
    config = engine.EngineConfig(params=scatter.ScatterParams(omega, 0.0),
                                 mirror_phase=mirror_phase, max_iters=max_iters)
    rho = qmat.maximally_mixed(2)
    reservoir = engine.Reservoir(kind="polarized")
    for _ in range(ENGINE_PROBE_COLLISIONS):
        with sp.span("engine.interact_once"):
            rho = engine.interact_once(rho, reservoir, config)
    with sp.span("engine.run_cycle"):
        trace = engine.run_cycle(qmat.maximally_mixed(2), config)
    return _engine_outcome({
        "engine_iterations": trace.fm_iterations + trace.nm_iterations,
        "engine_converged": trace.fm_converged and trace.nm_converged,
        "entropy": trace.entropy_transferred_nats,
    })


# --- workloads ----------------------------------------------------------------

class Workload:
    """A seeded, endless sequence of operations, cut into rounds."""

    name = ""
    det_rounds = 1  # every run completes these; seed-deterministic outputs come from them
    min_rounds = 1  # every run completes at least these

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed

    def rng(self, stream: int, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, k])

    def round(self, k: int) -> list:
        raise NotImplementedError

    def setup_spec(self) -> dict:
        """What a fresh interpreter builds before the first operation."""
        raise NotImplementedError

    def probe(self, sp, workdir: str) -> list:
        """Direct calls into every module on this workload's round-0 inputs.
        Returns the outcomes of the calls that produce checkable output."""
        raise NotImplementedError

    # Cover probes reach modules a workload's own operations do not.

    def _cover_linear(self, sp, params, truth, workdir) -> list:
        rng = self.rng(COVER_STREAM, 0)
        omega, kd = params.omega, params.kd_phase
        ops = [tomo_op("two_qubit_gates", omega, kd, "probe", truth, 0, None),
               tomo_op("two_qubit_gates", omega, kd, "probe", truth, 10_000,
                       int(rng.integers(2**31))),
               tomo_op("first_qubit_marginal", omega, kd, "probe", truth, 0, None)]
        return [check_op(op, run_op(op, sp, workdir)) for op in ops]

    def _cover_pure(self, sp, omega, workdir) -> list:
        rng = self.rng(COVER_STREAM, 1)
        ket = qmat.random_ket(4, rng)
        ops = [pure_op(omega, "random", ket, 0, None),
               pure_op(omega, "random", ket, 10_000, int(rng.integers(2**31)))]
        return [check_op(op, run_op(op, sp, workdir)) for op in ops]

    def _cover_cli(self, sp, omega, truth, workdir) -> list:
        rng = self.rng(COVER_STREAM, 2)
        state_path = os.path.join(workdir, "state.json")
        qmat.save_density(truth, state_path)
        ops = [sweep_op("kd", _range_arg(0.0, float(rng.uniform(0.02, 0.05)), 21),
                        omega=omega, state=state_path),
               engine_op(omega, engine.DEFAULT_MIRROR_PHASE, 500)]
        return [check_op(op, run_op(op, sp, workdir)) for op in ops]


class TomoLinear(Workload):
    name = "tomo_linear"

    def round(self, k):
        rng = self.rng(ROUND_STREAM, k)
        combos = [(m, s, p) for m in LINEAR_MODES for s in LINEAR_SHOTS for p in SCATTER_POOL]
        ops = []
        for i in rng.permutation(len(combos)):
            mode, shots, (omega, kd) = combos[i]
            kind = STATE_KINDS[int(rng.integers(len(STATE_KINDS)))]
            truth = random_truth(kind, rng)
            seed = int(rng.integers(2**31)) if shots else None
            ops.append(tomo_op(mode, omega, kd, kind, truth, shots, seed))
        return ops

    def setup_spec(self):
        plans = sorted({(op.inputs["mode"], op.inputs["omega"], op.inputs["kd"])
                        for op in self.round(0)})
        return {"plans": plans, "argv": []}

    def probe(self, sp, workdir):
        ops = self.round(0)
        for op in ops:
            params = scatter.ScatterParams(op.inputs["omega"], op.inputs["kd"])
            probe_register(sp, params, op.truth, tomo.plan_standard(op.inputs["mode"], params))
        first = ops[0]
        outcomes = self._cover_pure(sp, first.inputs["omega"], workdir)
        outcomes.append(probe_engine(sp, first.inputs["omega"], engine.DEFAULT_MIRROR_PHASE, 500))
        outcomes += self._cover_cli(sp, first.inputs["omega"], first.truth, workdir)
        return outcomes


class PureFit(Workload):
    name = "pure_fit"

    def round(self, k):
        """Every pool case once: each ket's noisy fit at every shot count,
        and as many noiseless fits of the ket, in seeded order.  A round
        takes 25 to 45 s."""
        ops = []
        for kind, omega, ket, noise_seeds in PURE_POOL:
            for shots, noise_seed in zip(PURE_SHOTS, noise_seeds):
                ops.append(pure_op(omega, kind, ket, 0, None))
                ops.append(pure_op(omega, kind, ket, shots, noise_seed))
        return [ops[i] for i in self.rng(ROUND_STREAM, k).permutation(len(ops))]

    def setup_spec(self):
        plans = sorted({("pure_state", omega, 0.0) for _, omega, _, _ in PURE_POOL})
        return {"plans": plans, "argv": []}

    def probe(self, sp, workdir):
        ops = [op for k in range(self.det_rounds) for op in self.round(k) if not op.inputs["shots"]]
        for op in ops:
            probe_register(sp, op.plan.settings[0].params, op.truth, op.plan)
        first = ops[0]
        params = first.plan.settings[0].params
        outcomes = self._cover_linear(sp, params, first.truth, workdir)
        outcomes.append(probe_engine(sp, params.omega, engine.DEFAULT_MIRROR_PHASE, 500))
        outcomes += self._cover_cli(sp, params.omega, first.truth, workdir)
        return outcomes


class Scan(Workload):
    name = "scan"
    det_rounds = 4

    def round(self, k):
        rng = self.rng(ROUND_STREAM, k)

        def state():
            choice = int(rng.integers(3))
            if choice == 0:
                return "singlet"
            if choice == 1:
                return f"werner:{float(rng.uniform(0.0, 1.0))!r}"
            return f"random:{int(rng.integers(2**31))}"

        def omega():
            return float(rng.uniform(0.3, 1.5))

        # Engine mirror phases are stratified: one from each side of the
        # quarter-wave point, so every round spans the whole range.
        return [
            sweep_op("omega", _range_arg(float(rng.uniform(0.2, 0.6)),
                                         float(rng.uniform(0.01, 0.03)), SWEEP_POINTS),
                     state=state()),
            sweep_op("kd", _range_arg(0.0, float(rng.uniform(0.01, 0.04)), SWEEP_POINTS),
                     omega=omega(), state=state()),
            # A theta point costs half an omega or kd point; twice the points
            # keep the three sweeps at one cost, so the median lands among them.
            sweep_op("theta", _range_arg(float(rng.uniform(0.0, 0.5)),
                                         float(rng.uniform(0.01, 0.025)), 2 * SWEEP_POINTS),
                     omega=omega()),
            engine_op(omega(), float(rng.uniform(0.35, np.pi / 2)), ENGINE_MAX_ITERS),
            engine_op(omega(), float(rng.uniform(np.pi / 2, np.pi - 0.35)), ENGINE_MAX_ITERS),
        ]

    def setup_spec(self):
        return {"plans": [], "argv": [op.inputs["argv"] for op in self.round(0)]}

    def probe(self, sp, workdir):
        ops = self.round(0)
        cases = []
        for op in ops:
            if op.kind == "sweep" and "--state" in op.inputs["argv"]:
                argv = op.inputs["argv"]
                rho = cli.parse_state(argv[argv.index("--state") + 1])
                omega, kd = op.reuse_keys[0][1:3]
                cases.append((scatter.ScatterParams(omega, kd), rho))
        for params, rho in cases:
            probe_register(sp, params, rho, tomo.plan_standard("two_qubit_gates", params))
        outcomes = [probe_engine(sp, op.inputs["omega"], op.inputs["mirror_phase"],
                                 op.inputs["max_iters"])
                    for op in ops if op.kind == "engine"]
        params, rho = cases[0]
        outcomes += self._cover_linear(sp, params, rho, workdir)
        outcomes += self._cover_pure(sp, params.omega, workdir)
        return outcomes


WORKLOADS = {cls.name: cls for cls in (TomoLinear, PureFit, Scan)}
