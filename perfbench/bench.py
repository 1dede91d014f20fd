"""Closed-loop load generator, metrics and report of the spintomo benchmark.

One process runs one client: each operation starts when the previous one
returns.  A run measures operations for ``--seconds`` of busy time (the sum
of the operations' own latencies; output checks run outside it) and ends on
the round boundary nearest to that, after at least the workload's minimum
and deterministic rounds.  Set-up is measured in fresh interpreters started
before and after the loop.

A fixed reference kernel (refkernel.py) is timed between operations; the
gated metrics are expressed in units of its median duration over the run.

With tracing off the run reports the end-to-end metrics.  With tracing on,
odd rounds record spans and even rounds do not (their ratio of throughputs
is the tracing overhead); after the loop the run calls every module's
public functions directly on the workload's round-0 inputs.  The per-layer
metrics come from those spans.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import refkernel
from run import BLAS_CAP_VARS
from spans import NoSpans, Spans
from workloads import WORKLOADS, block_keys, check_op, run_op

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 8
P90_MIN_SAMPLES = 100

# The reference kernel is timed once per REF_INTERVAL_S of busy time, so a
# run holds the same number of timings whether its operations are short or
# long; after a long operation they are taken together.  Throughput,
# latency and set-up time are scaled by the median of all of a run's
# timings: one timing of the kernel, or the median of a few taken next to
# one operation or set-up interpreter, varied more than the work itself.
REF_INTERVAL_S = 0.2
REF_BURST_MAX = 50

# Span name -> per-layer metric (median per call, or per grid point for sweeps).
SPAN_METRICS = (
    ("qmat.density_matrix", "qmat.density_matrix_us"),
    ("qmat.decompose", "qmat.decompose_us"),
    ("scatter.two_impurity_block", "scatter.two_impurity_block_ms"),
    ("scatter.cascade", "scatter.cascade_ms"),
    ("scatter.transmission_probability", "scatter.transmission_probability_us"),
    ("scatter.pt_unpolarized_closed_form", "scatter.pt_unpolarized_closed_form_us"),
    ("gates.apply", "gates.apply_us"),
    ("gates.conjugate_observable", "gates.conjugate_observable_us"),
    ("tomo.plan_standard", "tomo.plan_standard_ms"),
    ("tomo.run_plan", "tomo.run_plan_ms"),
    ("tomo.build_design_matrix", "tomo.build_design_matrix_ms"),
    ("tomo.reconstruct_two_qubit", "tomo.reconstruct_two_qubit_ms"),
    ("tomo.reconstruct_marginals", "tomo.reconstruct_marginals_ms"),
    ("tomo.reconstruct_pure.noiseless", "tomo.reconstruct_pure.noiseless_ms"),
    ("tomo.reconstruct_pure.noisy", "tomo.reconstruct_pure.noisy_ms"),
    ("engine.run_cycle", "engine.run_cycle_ms"),
    ("engine.interact_once", "engine.interact_once_us"),
    ("cli.import", "cli.import_s"),
    ("cli.sweep", "cli.sweep_us_per_point"),
    ("cli.engine", "cli.engine_ms"),
)
_SCALES = {"us": 1e6, "ms": 1e3, "s": 1.0, "us/point": 1e6}


def metric_unit(name: str) -> str:
    if name.endswith("_us_per_point"):
        return "us/point"
    return name.rsplit("_", 1)[1]


END_TO_END_UNITS = {"ops_per_kref": "1/kref", "setup_s": "s"}
SHARE_UNITS = {
    "tomo.psd_repaired_share": "ratio",
    "tomo.projection_distance_mean": "trace-distance",
    "engine.iterations_per_cycle": "count",
    "engine.converged_share": "ratio",
    "scatter.params_reuse_share": "ratio",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for span, metric in SPAN_METRICS:
        units[metric] = metric_unit(metric)
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
    units.update(SHARE_UNITS)
    return units


# --- environment -------------------------------------------------------------

def _git_sha(root: str):
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, if its library can be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_CAP_VARS},
        "blas_threads_in_force": _openblas_threads(),
    }


# --- measuring -----------------------------------------------------------------

def measure_setup(wl, root: str, repeats: int) -> list:
    """Import and plan-building time of fresh interpreters, one after another."""
    spec = json.dumps({"root": root, **wl.setup_spec()})
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                              input=spec, capture_output=True, text=True, cwd=root,
                              timeout=120, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def drive(wl, seconds: float, workdir: str, min_rounds: int, spans=None) -> tuple:
    """Run rounds in a closed loop and stop on the round boundary nearest to
    `seconds` of busy time, after at least `min_rounds` rounds.  Returns one
    record per attempted operation and the reference-kernel durations timed
    between operations, one per REF_INTERVAL_S of busy time, each as
    (traced round, seconds).  With a span recorder, odd rounds are traced
    and even rounds are not, so both halves see the same machine load."""
    ops = []
    refs = []
    busy = 0.0
    since_ref = REF_INTERVAL_S
    k = 0
    while k < min_rounds or busy + 0.5 * busy / k < seconds:
        sp = spans if spans is not None and k % 2 else NoSpans()
        for j, op in enumerate(wl.round(k)):
            if since_ref >= REF_INTERVAL_S:
                burst = min(int(since_ref / REF_INTERVAL_S), REF_BURST_MAX)
                refs += [(sp.enabled, refkernel.time_kernel()) for _ in range(burst)]
                since_ref -= burst * REF_INTERVAL_S
            sp.op = f"{k}.{j}"
            error = None
            t0 = time.perf_counter()
            try:
                with sp.span(f"op.{op.kind}"):
                    result = run_op(op, sp, workdir)
            except Exception:  # a failing operation is counted, not fatal
                error = traceback.format_exc(limit=4)
            latency = time.perf_counter() - t0
            busy += latency
            since_ref += latency
            if error is None:
                try:
                    outcome = check_op(op, result)
                except Exception:
                    outcome = {"ok": False, "error": traceback.format_exc(limit=4)}
            else:
                outcome = {"ok": False, "error": error}
            ops.append({"round": k, "index": j, "kind": op.kind, "label": op.label,
                        "traced": sp.enabled, "latency_s": latency,
                        "reuse_keys": block_keys(op, outcome), **outcome})
        k += 1
    return ops, refs


def run_probes(wl, sp, workdir: str) -> list:
    sp.op = "probe"
    try:
        return wl.probe(sp, workdir)
    except Exception:
        return [{"ok": False, "error": traceback.format_exc(limit=4)}]


# --- metrics --------------------------------------------------------------------

def ops_per_s(ops: list) -> float:
    """Completed operations per second of busy time."""
    return sum(o["ok"] for o in ops) / sum(o["latency_s"] for o in ops)


def ops_per_kref(ops: list, ref_s: float) -> float:
    """Completed operations per 1000 reference-kernel durations of busy time."""
    return 1e3 * ref_s * ops_per_s(ops)


def reuse_shares(ops: list) -> tuple:
    """Share of block builds whose inputs (ScatterParams, plus the spin angle
    of a frozen-spin block) appeared earlier in the run: over the run, and
    per operation label."""
    seen = set()
    counts = {}
    for op in ops:
        reused_total = counts.setdefault(op["label"], [0, 0])
        for key in op["reuse_keys"]:
            reused_total[0] += key in seen
            reused_total[1] += 1
            seen.add(key)
    reused = sum(r for r, _ in counts.values())
    total = sum(t for _, t in counts.values())
    return reused / total, {label: r / t for label, (r, t) in sorted(counts.items()) if t}


def tally(ops: list, probes: list) -> tuple:
    """Attempted operations and the failed ones, direct probe calls included."""
    return len(ops) + len(probes), [o for o in ops + probes if not o["ok"]]


def deterministic_outputs(det_ops: list, probe_outcomes: list) -> dict:
    """Outputs fixed by the seed: they come from the deterministic rounds, or
    from the direct probes where those rounds do not produce them."""

    def pick(key):
        own = [o for o in det_ops if key in o]
        return own or [o for o in probe_outcomes if key in o]

    noisy = pick("infidelity")
    psd = pick("psd_repaired")
    eng = pick("engine_iterations")
    return {
        "mean_infidelity": statistics.fmean(o["infidelity"] for o in noisy) if noisy else None,
        "tomo.psd_repaired_share":
            statistics.fmean(o["psd_repaired"] for o in psd) if psd else None,
        "tomo.projection_distance_mean":
            statistics.fmean(o["projection_distance"] for o in psd) if psd else None,
        "engine.iterations_per_cycle":
            statistics.fmean(o["engine_iterations"] for o in eng) if eng else None,
        "engine.converged_share":
            statistics.fmean(o["engine_converged"] for o in eng) if eng else None,
    }


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run.  Returns the result line plus the full record."""
    wl = WORKLOADS[name](seed)
    # Half of the set-up interpreters run before the loop and half after it,
    # so their median spans the run rather than one moment of machine load.
    setup = measure_setup(wl, root, SETUP_REPEATS // 2)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    sp = Spans() if trace else None
    with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
        try:  # warm-up, not counted; a failure shows again when the loop runs it
            run_op(wl.round(0)[0], NoSpans(), workdir)
        except Exception:
            pass
        # A traced run needs an untraced and a traced round to compare.
        ops, refs = drive(wl, seconds, workdir, max(wl.det_rounds, wl.min_rounds, 2 if trace else 1), sp)
        probes = run_probes(wl, sp, workdir) if trace else []
    setup += measure_setup(wl, root, SETUP_REPEATS - SETUP_REPEATS // 2)
    if trace:
        for s in setup:
            sp.add("cli.import", s["import_s"])

    plain = [o for o in ops if not o["traced"]]
    attempted, failures = tally(ops, probes)
    reuse, reuse_by_label = reuse_shares(ops)
    det = deterministic_outputs([o for o in ops if o["round"] < wl.det_rounds], probes)
    ok = [o for o in plain if o["ok"]]
    ok_lat = [o["latency_s"] for o in ok]
    ref_s = statistics.median(t for _, t in refs)
    setup_raw_s = statistics.median(s["import_s"] + s["build_s"] for s in setup)
    # The lower median is a measured latency.  On pure_fit, where half of the
    # fits are noiseless and far faster, it is the slowest noiseless fit
    # rather than a midpoint between two clusters.
    p50 = statistics.median_low
    report = {
        "ops_per_kref": ops_per_kref(plain, ref_s),
        "latency_p50_ref": p50(ok_lat) / ref_s if ok else None,
        "ops_per_s": ops_per_s(plain),
        "latency_p50_ms": p50(ok_lat) * 1e3 if ok else None,
        "latency_p90_ms": _percentile(ok_lat, 90) * 1e3
        if len(ok_lat) >= P90_MIN_SAMPLES else None,
        "fail_ratio": len(failures) / attempted,
        "reference_ms": ref_s * 1e3,
        "mean_infidelity": det["mean_infidelity"],
        "setup_s": setup_raw_s * refkernel.NOMINAL_S / ref_s,
        "setup_raw_s": setup_raw_s,
        "scatter.params_reuse_share": reuse,
        **{f"scatter.params_reuse_share.{label}": v for label, v in reuse_by_label.items()},
        "operations": len(plain),
        "rounds": 1 + ops[-1]["round"],
        "busy_s": sum(o["latency_s"] for o in ops),
    }
    if trace:
        summary = sp.summary()
        metrics = {}
        for span, metric in SPAN_METRICS:
            entry = summary.get(span, {"calls": 0, "busy_s": 0.0, "median_s": 0.0})
            unit = metric_unit(metric)
            metrics[metric] = {"value": entry["median_s"] * _SCALES[unit], "unit": unit}
            metrics[f"{span}.calls"] = {"value": entry["calls"], "unit": "count"}
            metrics[f"{span}.busy_s"] = {"value": entry["busy_s"], "unit": "s"}
        shares = dict(det)
        del shares["mean_infidelity"]
        shares["scatter.params_reuse_share"] = report["scatter.params_reuse_share"]
        traced = [o for o in ops if o["traced"]]
        # Each half is scaled by the kernel timings of its own rounds, which
        # ran at different moments of machine load.
        ref_traced = statistics.median(t for on, t in refs if on)
        ref_plain = statistics.median(t for on, t in refs if not on)
        shares["trace.overhead_share"] = (
            1.0 - ops_per_kref(traced, ref_traced) / ops_per_kref(plain, ref_plain))
        for metric, value in shares.items():
            metrics[metric] = {"value": value, "unit": SHARE_UNITS[metric]}
    else:
        metrics = {m: {"value": report[m], "unit": u} for m, u in END_TO_END_UNITS.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(root), "report": report, "result": result,
        "setup": setup, "failures": failures[:20],
        "operations": [{k: o[k] for k in ("round", "kind", "traced", "latency_s", "ok")}
                       for o in ops],
    }
    if trace:
        record["spans"] = sp.to_json()
    path = os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=str)
    return record


_REPORT_LINES = (
    ("ops_per_kref", "1/kref", "operations per 1000 reference-kernel durations (gated)"),
    ("latency_p50_ref", "ref", "latency_p50_ms in reference-kernel durations"),
    ("ops_per_s", "1/s", "operations completed per second of busy time"),
    ("latency_p50_ms", "ms", "lower median of operation latency"),
    ("latency_p90_ms", "ms", "reported with at least 100 operations"),
    ("fail_ratio", "ratio", "failed / attempted, output checks included"),
    ("mean_infidelity", "1", "mean 1 - F over the noisy estimates of the first rounds"),
    ("setup_s", "s", f"median of {SETUP_REPEATS} fresh interpreters, at reference speed (gated)"),
    ("setup_raw_s", "s", "the same, as measured"),
    ("reference_ms", "ms", "median duration of the reference kernel in this run"),
    ("scatter.params_reuse_share", "ratio", "block builds whose inputs were seen before"),
)


def print_report(record: dict) -> None:
    rep = record["report"]
    print(f"workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"operations={rep['operations']} rounds={rep['rounds']} busy_s={rep['busy_s']:.3f}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, unit, note in _REPORT_LINES:
        value = rep[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>12} {unit:<6} {note}")
    for name, value in rep.items():
        if name.startswith("scatter.params_reuse_share."):
            print(f"  {name:<40} {value:>12.6g} ratio")
    if record["trace"]:
        for name, m in record["result"]["metrics"].items():
            shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:<44} {shown:>14} {m['unit']}")
    for failure in record["failures"]:
        print("FAILED: " + failure["error"].strip().replace("\n", " | "))
