"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check that inputs and seed-fixed outputs repeat for a seed and change
with it, that a wrong program result is counted as a failure, and that the
metrics the harness emits are the ones BENCHMARK.json declares.
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import workloads  # noqa: E402
from spintomo import cli, qmat, tomo  # noqa: E402


def _inputs(name, seed, rounds=2):
    wl = workloads.WORKLOADS[name](seed)
    return json.dumps([op.inputs for k in range(rounds) for op in wl.round(k)], sort_keys=True)


def _deterministic(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed)
    det, _ = bench.drive(wl, 0.0, str(tmp_path), wl.det_rounds)
    assert all(o["ok"] for o in det)
    return bench.deterministic_outputs(det, [])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3) != _inputs(name, 4)


@pytest.mark.parametrize("name, keys", [
    ("tomo_linear", ("mean_infidelity", "tomo.psd_repaired_share",
                     "tomo.projection_distance_mean")),
    ("pure_fit", ("mean_infidelity",)),
    ("scan", ("engine.iterations_per_cycle", "engine.converged_share")),
])
def test_deterministic_outputs_repeat_for_a_seed(name, keys, tmp_path):
    first = _deterministic(name, 5, tmp_path)
    assert first == _deterministic(name, 5, tmp_path)
    assert all(first[k] is not None for k in keys)


def test_pure_fit_rounds_hold_the_same_fits_in_seeded_order():
    def fits(wl, k):
        return [json.dumps(op.inputs, sort_keys=True) for op in wl.round(k)]

    first, other = workloads.PureFit(3), workloads.PureFit(4)
    assert sorted(fits(first, 0)) == sorted(fits(first, 1)) == sorted(fits(other, 0))
    assert fits(first, 0) != fits(other, 0)


@pytest.mark.parametrize("name", ["tomo_linear", "pure_fit"])
def test_tomography_reuses_most_params(name):
    wl = workloads.WORKLOADS[name](1)
    share, _ = bench.reuse_shares([{"label": op.label, "reuse_keys": op.reuse_keys}
                                   for k in range(2) for op in wl.round(k)])
    assert share > 0.9


def test_scan_reuse_follows_the_blocks_each_operation_builds(tmp_path):
    wl = workloads.WORKLOADS["scan"](1)
    ops, _ = bench.drive(wl, 0.0, str(tmp_path), 1)
    _, by_label = bench.reuse_shares(ops)
    # Every omega and kd grid point has its own ScatterParams.
    assert by_label["sweep.omega"] == by_label["sweep.kd"] == 0.0
    # Every theta point rebuilds the same angle-0 block.
    theta_points = next(o for o in wl.round(0) if o.label == "sweep.theta").inputs["points"]
    assert by_label["sweep.theta"] == (theta_points - 1) / (2 * theta_points)
    # Every collision of a cycle rebuilds the cycle's impurity block.
    collisions = [o["engine_iterations"] for o in ops if o["kind"] == "engine"]
    assert by_label["engine"] == 1.0 - len(collisions) / sum(collisions)


def test_wrong_tomography_result_is_counted(monkeypatch, tmp_path):
    real = tomo.reconstruct_two_qubit

    def wrong(records, plan):
        _, coeffs, diag = real(records, plan)
        return qmat.maximally_mixed(4), coeffs, diag

    monkeypatch.setattr(tomo, "reconstruct_two_qubit", wrong)
    ops, _ = bench.drive(workloads.WORKLOADS["tomo_linear"](2), 0.0, str(tmp_path), 1)
    attempted, failures = bench.tally(ops, [])
    # Every noiseless two-qubit estimate of round 0 is wrong: 2 modes x 6 pool entries.
    assert attempted == len(ops)
    assert len(failures) == 12
    assert all("noiseless trace distance" in o["error"] for o in failures)


def test_wrong_sweep_row_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "transmission_probability", lambda block, rho: 1.5)
    wl = workloads.WORKLOADS["scan"](2)
    ops, _ = bench.drive(wl, 0.0, str(tmp_path), 1)
    failed = [o for o in ops if not o["ok"]]
    assert [o["kind"] for o in failed] == ["sweep"] * 3
    assert "outside [0, 1]" in failed[0]["error"]


def test_emitted_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
