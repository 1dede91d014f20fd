import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spintomo import cli
from spintomo.qmat import (
    InvalidStateError,
    cmatrix_to_json,
    save_density,
    singlet,
    trace_distance,
)


def run(argv):
    return cli.main(argv)


def test_parse_range_inclusive():
    got = cli.parse_range("0:2:0.5")
    np.testing.assert_allclose(got, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    with pytest.raises(cli.UsageError):
        cli.parse_range("0:2")
    with pytest.raises(cli.UsageError):
        cli.parse_range("2:0:0.5")
    with pytest.raises(cli.UsageError):
        cli.parse_range("0:1:0")


@pytest.mark.parametrize("text", ["0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:1", "0:1:nan",
                                  "0:1e300:1e-300", "-1e308:1e308:1", "0:1e9:1"])
def test_parse_range_rejects_unbounded_grids(text):
    with pytest.raises(cli.UsageError):
        cli.parse_range(text)


def test_parse_range_point_cap():
    cap = cli.MAX_RANGE_POINTS
    assert len(cli.parse_range(f"0:{cap - 1}:1")) == cap
    with pytest.raises(cli.UsageError, match="points"):
        cli.parse_range(f"0:{cap}:1")


def test_sweep_unbounded_range_exit_1(capsys):
    assert run(["sweep", "--omega-range", "0:inf:1", "--state", "singlet"]) == 1
    assert run(["sweep", "--kd-range", "0:1e9:1", "--omega", "1", "--state", "singlet"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_parse_state_generators(tmp_path):
    assert trace_distance(cli.parse_state("singlet"), singlet()) < 1e-14
    t00 = cli.parse_state("triplet00")
    assert abs(t00.mat[0, 0].real - 1.0) < 1e-14
    w = cli.parse_state("werner:0.5")
    assert w.dim == 4
    r1 = cli.parse_state("random:5")
    r2 = cli.parse_state("random:5")
    assert trace_distance(r1, r2) == 0.0
    p = cli.parse_state("pure:0.5,0.5,0.5,0.5,0.1,0.2,0.3")
    assert p.dim == 4
    b = cli.parse_state("bloch:0,0,1", dim=2)
    assert abs(b.mat[0, 0].real - 1.0) < 1e-14
    path = tmp_path / "s.json"
    save_density(singlet(), path)
    assert trace_distance(cli.parse_state(str(path)), singlet()) < 1e-14
    with pytest.raises(cli.UsageError):
        cli.parse_state("nonsense:1")
    with pytest.raises(cli.UsageError):
        cli.parse_state("pure:1,0,0")


def test_usage_errors_exit_1(capsys):
    assert run(["sweep"]) == 1
    assert run(["sweep", "--omega-range", "0:1:0.1"]) == 1  # missing state
    assert run(["tomo", "--mode", "bogus", "--state", "singlet"]) == 1
    assert run(["tomo", "--mode", "two_qubit_gates", "--state", "singlet",
                "--shots", "10"]) == 1  # missing seed
    capsys.readouterr()


def test_flag_rules_are_usage_errors(capsys):
    assert run(["sweep", "--omega-range", "0:1:0.5", "--kd-range", "0:1:0.5",
                "--omega", "1", "--state", "singlet"]) == 1
    assert run(["tomo", "--mode", "two_qubit_gates"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage error: ") == 2


def test_sweep_usage_shows_the_required_range_group(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--help"])
    assert exc.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert ("(--omega-range A:B:STEP | --theta-range A:B:STEP | --kd-range A:B:STEP)"
            in usage)


@pytest.mark.parametrize("argv, state, dim, expected", [
    (["tomo", "--mode", "single_qubit_ancilla"], "singlet", 4, 2),
    (["tomo", "--mode", "pure_state"], "bloch:0,0,1", 2, 4),
    (["sweep", "--omega-range", "0.1:0.2:0.1"], "bloch:0,0,1", 2, 4),
    (["engine", "--omega", "1"], "werner:0.5", 4, 2),
])
def test_state_of_the_wrong_dimension_exit_1(capsys, argv, state, dim, expected):
    assert run([*argv, "--state", state]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: state {state!r} has dimension {dim}, expected {expected}\n")


def test_unreadable_state_path_exit_1(tmp_path, capsys):
    assert run(["sweep", "--omega-range", "0.1:0.3:0.1", "--state", str(tmp_path)]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: cannot read state file {str(tmp_path)!r}: Is a directory\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--omega-range", "0.1:0.2:0.1", "--state", "singlet"],
    ["tomo", "--mode", "two_qubit_gates", "--state", "singlet"],
    ["validate"],
    ["engine", "--omega", "1"],
])
def test_unwritable_out_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.csv"
    assert run([*argv, "--out", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: cannot write {str(path)!r}: No such file or directory\n")
    assert not path.parent.exists()


def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    def fail(params):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "two_impurity_cascade", fail)
    path = tmp_path / "missing" / "s.csv"
    assert run(["sweep", "--omega-range", "0.001:70:0.0007", "--state", "singlet",
                "--out", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"usage error: cannot write {str(path)!r}: No such file or directory\n")


def test_out_checked_then_refused_grid_leaves_files_alone(tmp_path, capsys):
    # The grid passes the --out check and is refused by the scattering layer.
    argv = ["sweep", "--omega-range", "1e3:1e3:1", "--state", "singlet", "--out"]
    fresh = tmp_path / "fresh.csv"
    assert run([*argv, str(fresh)]) == 2
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old,bytes\r\n")
    assert run([*argv, str(kept)]) == 2
    assert kept.read_bytes() == b"old,bytes\r\n"
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    assert run([*argv, str(link)]) == 2
    assert link.is_symlink() and not (tmp_path / "target.csv").exists()
    assert "validation error: scattering matrix is not unitary" in capsys.readouterr().err


def test_negative_shots_exit_1(capsys):
    assert run(["tomo", "--mode", "two_qubit_gates", "--state", "singlet",
                "--shots", "-5", "--seed", "1"]) == 1
    assert "usage error: --shots" in capsys.readouterr().err


def test_shots_beyond_int64_exit_1(capsys):
    assert run(["tomo", "--mode", "two_qubit_gates", "--state", "singlet",
                "--shots", str(2**63), "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "usage error: --shots" in err


@pytest.mark.parametrize("argv", [
    ["--omega-range", "1e200:1e200:1", "--state", "singlet"],
    ["--kd-range", "0:0.1:0.1", "--omega", "1e200", "--state", "singlet"],
    ["--theta-range", "0:1:0.5", "--omega", "1e300"],
    ["--omega-range", "1e100:1e100:1", "--state", "singlet"],
    ["--kd-range", "0:0.1:0.1", "--omega", "1e100", "--state", "singlet"],
])
def test_sweep_overflowing_omega_exit_2(tmp_path, capsys, argv):
    # omega**2, or past |omega| ~ 4.1e76 the unpolarized closed form's
    # denominator, overflows a float in the kd = 0 closed forms; no numpy
    # warning comes first
    path = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["sweep", *argv, "--out", str(path)]) == 2
        assert not path.exists()
        assert run(["sweep", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "validation error: omega" in err and "Warning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_malformed_state_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["sweep", "--omega-range", "0:1:0.5", "--state", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b'{"dim": 4, "re": [1], "im": [0]}', "need 16 entries for each part, got 1/1"),
    (b'{"dim": "x", "re": [1], "im": [0]}', "invalid literal for int() with base 10: 'x'"),
    (b"[1, 2]", "list indices must be integers or slices, not str"),
])
def test_malformed_state_file_is_named_exit_2(tmp_path, capsys, content, reason):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    assert run(["sweep", "--omega-range", "0.1:0.2:0.1", "--state", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"validation error: malformed state file {str(path)!r}: {reason}\n")


def test_state_file_that_is_no_density_matrix_keeps_its_reason_exit_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 4, "re": [1] * 16, "im": [0] * 16}))
    assert run(["sweep", "--omega-range", "0.1:0.2:0.1", "--state", str(path)]) == 2
    assert capsys.readouterr() == ("", "validation error: trace differs from 1 by 3.000e+00\n")


@pytest.mark.parametrize("argv, flag", [
    (["--omega-range", "0.1:0.2:0.1", "--omega", "5", "--state", "singlet"], "omega"),
    (["--kd-range", "0:0.1:0.1", "--omega", "1", "--state", "singlet", "--kd", "0.3"], "kd"),
    (["--kd-range", "0:0.1:0.1", "--omega", "1", "--state", "singlet", "--kd", "0"], "kd"),
    (["--theta-range", "0:1:0.5", "--omega", "1", "--state", "singlet"], "state"),
])
def test_sweep_flag_its_axis_does_not_read_exit_1(capsys, argv, flag):
    assert run(["sweep", *argv]) == 1
    axis = argv[0]
    assert capsys.readouterr() == ("", f"usage error: {axis} sweeps do not read --{flag}\n")


@pytest.mark.parametrize("argv", [
    ["--omega-range", "0.1:0.3:0.1", "--state", "singlet"],
    ["--theta-range", "0:1:0.5", "--omega", "1"],
])
def test_sweep_without_kd_runs_at_kd_0(capsys, argv):
    assert run(["sweep", *argv]) == 0
    absent = capsys.readouterr()
    assert run(["sweep", *argv, "--kd", "0"]) == 0
    assert capsys.readouterr() == absent


def test_flat_design_exit_3(capsys):
    # A coupling-free ancilla design, and the two-qubit blind spot where the
    # unpolarized design scale vanishes: all 15 records are equal, which a
    # relative rank test alone passes.  The pure fit reads the same guard,
    # noiseless or noisy.
    pure = ["--mode", "pure_state", "--state", "singlet", "--omega", "0"]
    for argv in (["--mode", "single_qubit_ancilla", "--state", "bloch:0,0,0.5",
                  "--omega", "0"],
                 ["--mode", "two_qubit_gates", "--state", "singlet",
                  "--omega", "0.5", "--kd", "0.496404599656952"],
                 pure + ["--shots", "0"], pure + ["--shots", "100", "--seed", "1"]):
        assert run(["tomo", *argv]) == 3
        assert capsys.readouterr().out == ""


def test_sweep_singlet_all_one(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--omega-range", "0:2:0.1", "--state", "singlet",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "omega,kd,pt_closed_form,pt_matrix,abs_diff"
    assert len(lines) == 22
    for line in lines[1:]:
        cols = [float(v) for v in line.split(",")]
        assert abs(cols[2] - 1.0) < 1e-10
        assert abs(cols[3] - 1.0) < 1e-10
        assert cols[4] < 1e-10


def test_sweep_theta_endpoints(tmp_path):
    out = tmp_path / "theta.csv"
    assert run(["sweep", "--theta-range", f"0:{np.pi}:{np.pi / 4}",
                "--omega", "1.0", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert abs(float(rows[0][3]) - 0.2) < 1e-12
    assert abs(float(rows[-1][3]) - 1.0) < 1e-12
    for r in rows:
        assert float(r[5]) < 1e-10


def test_sweep_kd_departure(tmp_path):
    out = tmp_path / "kd.csv"
    assert run(["sweep", "--kd-range", f"0:{2 * np.pi}:{np.pi / 4}",
                "--omega", "1.0", "--state", "singlet", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    pts = [float(r[3]) for r in rows]
    assert abs(pts[0] - 1.0) < 1e-10       # kd = 0
    assert abs(pts[-1] - 1.0) < 1e-10      # kd = 2 pi
    assert min(pts[1:-1]) < 0.9            # transparency lost in between


def test_tomo_report_noiseless(tmp_path):
    out = tmp_path / "tomo.json"
    assert run(["tomo", "--mode", "two_qubit_gates", "--state", "random:11",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trace_distance"] < 1e-9
    assert rep["diagnostics"]["rank"] == 15
    assert rep["diagnostics"]["condition_number"] < 1e4
    assert len(rep["records"]) == 15


def test_tomo_polarized_mode(tmp_path):
    out = tmp_path / "pol.json"
    assert run(["tomo", "--mode", "two_qubit_polarized", "--state", "random:13",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trace_distance"] < 1e-9
    for s in rep["plan"]["settings"]:
        assert "sqrtSWAP" not in s["seq"]


def test_tomo_marginal_mode(tmp_path):
    out = tmp_path / "marg.json"
    assert run(["tomo", "--mode", "first_qubit_marginal", "--state", "random:17",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trace_distance_first"] < 1e-9
    assert rep["trace_distance_second"] < 1e-9


def test_tomo_pure_mode(tmp_path):
    out = tmp_path / "pure.json"
    assert run(["tomo", "--mode", "pure_state",
                "--state", "pure:0.5,0.5,0.5,0.5,0.3,-1.1,2.0",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["fidelity"] > 1 - 1e-8
    assert rep["residual"] < 1e-6 * len(rep["records"])


def test_tomo_pure_mode_unidentifiable_exit_2(capsys):
    s = repr(float(np.sqrt(0.5)))
    state = f"pure:{s},0,0,{s},0,0,{np.pi / 2!r}"
    assert run(["tomo", "--mode", "pure_state", "--state", state]) == 2
    assert "cannot identify" in capsys.readouterr().err


@pytest.mark.parametrize("state, omega, infidelity", [
    ("werner:0.5", "1.0", "9.4e-01"),
    (f"pure:{0.5**0.5!r},0,0,{0.5**0.5!r},0,0,{np.pi / 4!r}", "0.7", None),
])
def test_tomo_pure_refusal_prints_no_rounding_floor_digits(capsys, state, omega, infidelity):
    # Residuals at the rounding floor change with any reordering of the
    # fit's arithmetic; the refusal prints the rival's infidelity only.
    assert run(["tomo", "--mode", "pure_state", "--state", state, "--omega", omega]) == 2
    err = capsys.readouterr().err
    assert "cannot identify" in err and "records equally well reach states of infidelity " in err
    assert all(int(e) <= 12 for e in re.findall(r"\de-(\d+)", err))
    if infidelity:
        assert f"infidelity {infidelity};" in err


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, spintomo.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_numpy_random_unloaded():
    # run_plan loads numpy.random on its first call; importing must not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, spintomo.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_tomo_shots_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["tomo", "--mode", "single_qubit_ancilla", "--state", "bloch:0.2,-0.3,0.4",
            "--shots", "20000", "--seed", "42"]
    assert run(argv + ["--out", str(f1)]) == 0
    assert run(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    rep = json.loads(f1.read_text())
    assert rep["trace_distance"] < 0.05


def test_engine_summary_and_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert run(["engine", "--omega", "0.3", "--out", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in summary.split())
    assert fields["fm_converged"] == "True"
    entropy = float(fields["entropy_transferred_nats"])
    assert 0.0 < entropy <= np.log(2) + 1e-9
    header = out.read_text().split("\n")[0]
    assert header == "iteration,phase,bloch_x,bloch_y,bloch_z,entropy_nats"


def test_engine_zero_coupling(capsys):
    assert run(["engine", "--omega", "0"]) == 0
    summary = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in summary.split())
    assert float(fields["entropy_transferred_nats"]) == 0.0
    assert fields["fm_converged"] == "False"


def test_engine_deterministic(capsys):
    assert run(["engine", "--omega", "0.5"]) == 0
    s1 = capsys.readouterr().out
    assert run(["engine", "--omega", "0.5"]) == 0
    s2 = capsys.readouterr().out
    assert s1 == s2


def test_engine_runs_every_start_the_state_check_accepts(capsys):
    # The state check allows a Bloch norm up to about 1 + 2e-10; the cycle
    # starts its collisions from that vector scaled onto the unit sphere.
    assert run(["engine", "--omega", "0.9", "--mirror-phase", "1.0",
                "--state", "bloch:0,0,1.0000000001"]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["fm_converged"] == fields["nm_converged"] == "True"


@pytest.mark.parametrize("omega, phase", [("1.05", None), ("1.8", "1.0"), ("2.35", "2.0")])
def test_engine_from_a_pure_start_transfers_at_most_ln2(capsys, omega, phase):
    # Points where the NM phase ends at a tiny Bloch norm whose entropy sum
    # can round to ln 2 + 1 ulp; the row reads ln 2, so the transfer is at
    # most ln 2.
    argv = ["engine", "--omega", omega, "--state", "bloch:0,0,1"]
    argv += [] if phase is None else ["--mirror-phase", phase]
    assert run(argv) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["nm_converged"] == "True"
    assert float(fields["entropy_transferred_nats"]) <= np.log(2.0)


def test_validate_passes(tmp_path):
    out = tmp_path / "val.json"
    assert run(["validate", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep and all(s["passed"] for s in rep.values())
    for s in rep.values():
        assert s["max_error"] < s["threshold"]


def test_validate_catches_broken_evaluator(monkeypatch):
    # a corrupted closed form must fail the cross-check suite
    from spintomo.scatter import pt_unpolarized_closed_form

    def broken(params, rho):
        om2 = params.omega ** 2
        baseline = 2 * (1 + 12 * om2) / ((1 + 16 * om2) * (1 + 4 * om2))
        return baseline - pt_unpolarized_closed_form(params, rho)

    monkeypatch.setattr(cli, "pt_unpolarized_closed_form", broken)
    rep = cli.run_validation()
    assert not rep["two_impurity_closed_form"]["passed"]
    others = {k: v for k, v in rep.items() if k != "two_impurity_closed_form"}
    assert all(s["passed"] for s in others.values())


def test_validate_fails_a_suite_that_raises(monkeypatch, capsys):
    # A collision that breaks trace preservation by 1e-11 trips the engine's
    # own guard before the suite can compare; the suite fails, and validate
    # exits 2 with a report, not a traceback.
    channel = cli.eng.reflection_channel
    monkeypatch.setattr(cli.eng, "reflection_channel",
                        lambda params, phase: channel(params, phase) * (1.0 + 5e-12))
    rep = cli.run_validation()
    broken = rep["engine_bloch_map"]
    assert broken["passed"] is False and broken["max_error"] is None
    assert broken["threshold"] == 1e-12 and "trace preservation" in broken["error"]
    assert all(s["passed"] for k, s in rep.items() if k != "engine_bloch_map")
    assert run(["validate"]) == 2
    assert json.loads(capsys.readouterr().out) == rep


def test_validate_fails_an_engine_map_off_by_its_own_comparison(monkeypatch, capsys):
    # A Bloch map whose offset is 1e-11 off passes every engine guard; the
    # suite fails by comparing it with interact_once, with a finite error.
    bloch_map = cli.eng.bloch_map

    def shifted(reservoir, config):
        m, c = bloch_map(reservoir, config)
        return m, c + 1e-11

    monkeypatch.setattr(cli.eng, "bloch_map", shifted)
    rep = cli.run_validation()
    broken = rep["engine_bloch_map"]
    assert broken["passed"] is False and "error" not in broken
    assert 1e-12 < broken["max_error"] < 2e-11
    assert all(s["passed"] for k, s in rep.items() if k != "engine_bloch_map")
    assert run(["validate"]) == 2
    assert json.loads(capsys.readouterr().out) == rep


def test_validate_fails_a_partial_swap_with_its_sectors_exchanged(monkeypatch, capsys):
    # (a, -b) is the triplet and singlet values exchanged: still a unitary
    # partial swap, and bloch_map and interact_once agree on it, so only the
    # comparison with the 4x4 multiple-scattering series catches it.
    partial_swap = cli.eng.partial_swap

    def exchanged(params, phase):
        a, b = partial_swap(params, phase)
        return a, -b

    monkeypatch.setattr(cli.eng, "partial_swap", exchanged)
    rep = cli.run_validation()
    broken = rep["engine_partial_swap"]
    assert broken["passed"] is False and broken["max_error"] > 0.1
    assert broken["threshold"] == 1e-12 and "error" not in broken
    assert all(s["passed"] for k, s in rep.items() if k != "engine_partial_swap")
    assert run(["validate"]) == 2
    assert json.loads(capsys.readouterr().out) == rep


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_fails_a_suite_with_a_non_finite_error(monkeypatch, capsys, bad):
    # One middle case of the suite's 50 gives NaN (or inf): the suite fails
    # with max_error None, whatever the other cases give, and the report
    # stays strict JSON.
    closed_form = cli.pt_unpolarized_closed_form
    calls = []

    def broken(params, rho):
        calls.append(None)
        return bad if len(calls) == 25 else closed_form(params, rho)

    monkeypatch.setattr(cli, "pt_unpolarized_closed_form", broken)
    rep = cli.run_validation()
    failed = rep["two_impurity_closed_form"]
    assert failed["passed"] is False and failed["max_error"] is None
    assert str(bad) in failed["error"]
    assert all(s["passed"] for k, s in rep.items() if k != "two_impurity_closed_form")
    calls.clear()
    assert run(["validate"]) == 2
    assert _strict_json(capsys.readouterr().out) == rep


def test_validate_refuses_a_negative_seed(capsys):
    # numpy refuses the seed once, before any suite runs, so no suite
    # reports it as its own failure.
    with pytest.raises(ValueError, match="expected non-negative integer"):
        cli.run_validation(-1)
    assert run(["validate", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "validation error: expected non-negative integer\n")


def test_repeated_main_calls_match_separate_runs(tmp_path, capsys):
    # main reuses one parser: a run after other commands and a usage error
    # must print, write and exit as it does in a fresh process.
    calls = [
        ["sweep", "--omega-range", "0.2:0.5:0.1", "--state", "singlet", "--out", "{d}/a.csv"],
        ["engine", "--omega", "0.4", "--max-iters", "30", "--state", "bloch:0.1,0.2,0.3"],
        ["sweep", "--omega-range", "0.2:0.5"],
        ["engine", "--bogus"],
        ["tomo", "--mode", "single_qubit_ancilla", "--state", "bloch:0.2,-0.3,0.4",
         "--shots", "500", "--seed", "9"],
        ["sweep", "--kd-range", "0:0.3:0.1", "--omega", "0.9", "--state", "werner:0.4"],
        ["engine", "--omega", "0.4", "--max-iters", "30", "--out", "{d}/b.csv"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    capsys.readouterr()
    for i, call in enumerate(calls):
        here, fresh = tmp_path / f"in{i}", tmp_path / f"fresh{i}"
        here.mkdir()
        fresh.mkdir()
        code = run([arg.format(d=here) for arg in call])
        got = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "spintomo.cli"]
                              + [arg.format(d=fresh) for arg in call],
                              env=env, capture_output=True, text=True)
        assert (code, got.out, got.err) == (proc.returncode, proc.stdout, proc.stderr)
        files = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in here.iterdir()) == files
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("state", ["bloch:nan,0,0", "bloch:0,nan,0.5", "bloch:0,0,inf",
                                   "pure:1,0,0,0,inf,0,0", "pure:nan,0,0,1,0,0,0"])
def test_non_finite_bloch_state_exits_2(tmp_path, capsys, state):
    # Refused as state data before any state is built, so no numpy warning
    # (an error under the suite's filter) comes first.
    out = tmp_path / "trace.csv"
    assert run(["engine", "--omega", "0.5", "--state", state, "--out", str(out)]) == 2
    assert not out.exists()
    mode = "single_qubit_ancilla" if state.startswith("bloch") else "pure_state"
    assert run(["tomo", "--mode", mode, "--omega", "1.0", "--state", state]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    name = state.partition(":")[0]
    assert got.err.count(f"validation error: {name}: components must be finite") == 2


def test_nan_engine_tol_exits_2(tmp_path, capsys):
    # inf too: it would claim convergence after one collision.
    out = tmp_path / "trace.csv"
    for tol in ("nan", "inf"):
        assert run(["engine", "--omega", "1", "--tol", tol, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "validation error: tol must be finite and positive\n")
        assert not out.exists()


def test_bloch_state_outside_the_ball_stays_a_usage_error(capsys):
    assert run(["engine", "--omega", "0.5", "--state", "bloch:2,0,0"]) == 1
    assert capsys.readouterr().err == "usage error: bloch: Bloch norm 2.000000 exceeds 1\n"


def test_infinite_state_file_exits_2_without_a_warning(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"dim": 2, "re": [float("inf"), 0, 0, 0], "im": [0, 0, 0, 0]}))
    assert "Infinity" in path.read_text()
    obj = cmatrix_to_json(singlet().mat)
    obj["re"][5] = float("inf")
    path4 = tmp_path / "inf4.json"
    path4.write_text(json.dumps(obj))
    argvs = [["engine", "--omega", "0.5", "--state", str(path), "--out", str(tmp_path / "t.csv")],
             ["tomo", "--mode", "two_qubit_gates", "--omega", "1.0", "--state", str(path4)]]
    want = "validation error: density matrix has an infinite entry\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in argvs:
            assert run(argv) == 2
            assert capsys.readouterr() == ("", want)
    assert caught == []
    # the same under the suite's error::RuntimeWarning filter
    for argv in argvs:
        assert run(argv) == 2
        assert capsys.readouterr() == ("", want)
    assert not (tmp_path / "t.csv").exists()


def test_nan_state_file_is_invalid(tmp_path, capsys):
    obj = cmatrix_to_json(singlet().mat)
    obj["im"][6] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidStateError):
        cli.parse_state(str(path))
    assert run(["tomo", "--mode", "two_qubit_gates", "--omega", "1.0",
                "--state", str(path)]) == 2
    assert run(["sweep", "--omega-range", "0.5:1:0.5", "--state", str(path)]) == 2
    assert capsys.readouterr().err.count("validation error: not Hermitian") == 2


@pytest.mark.parametrize("argv, err", [
    (["sweep", "--omega-range", "0:x:1", "--state", "singlet"],
     "bad range '0:x:1': could not convert string to float: 'x'"),
    (["tomo", "--mode", "pure_state", "--state", "pure:1,0,0,0,0,0,x"],
     "pure: could not convert string to float: 'x'"),
    (["tomo", "--mode", "single_qubit_ancilla", "--state", "bloch:0,y,0"],
     "bloch: could not convert string to float: 'y'"),
    (["tomo", "--mode", "two_qubit_gates", "--state", "werner:2"],
     "werner: werner weight must lie in [0, 1], got 2.0"),
    (["tomo", "--mode", "two_qubit_gates", "--state", "random:x"],
     "random generator needs an integer seed, got 'x'"),
    (["tomo", "--mode", "pure_state", "--state", "pure:1,1,0,0,0,0,0"],
     "pure: amplitudes must be normalized, got sum of squares 2.0"),
    (["sweep", "--theta-range", "0:1:0.5"], "--theta-range sweeps need --omega"),
    (["sweep", "--kd-range", "0:1:0.5", "--state", "singlet"], "--kd-range sweeps need --omega"),
])
def test_unreadable_flag_values_exit_1(capsys, argv, err):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {err}\n")


@pytest.mark.parametrize("mode, dim", [("two_qubit_gates", 4), ("two_qubit_polarized", 4),
                                       ("single_qubit_ancilla", 2)])
def test_tomo_round_trips_the_mixed_state(tmp_path, mode, dim):
    out = tmp_path / "mixed.json"
    assert run(["tomo", "--mode", mode, "--state", "mixed", "--omega", "1.3", "--kd", "0.6",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    np.testing.assert_allclose(rep["truth"]["re"], (np.eye(dim) / dim).ravel(), atol=0)
    assert rep["trace_distance"] < 1e-9


@pytest.mark.parametrize("axis, flags", [("kd", ["--omega", "1", "--state", "singlet"]),
                                         ("omega", ["--state", "singlet"]),
                                         ("theta", ["--omega", "1"])])
def test_sweep_range_from_below_zero_needs_the_equals_form(capsys, axis, flags):
    # argparse reads "-1:..." after a space as a flag, not as the range.
    assert run(["sweep", f"--{axis}-range", "-1:-0.5:0.25", *flags]) == 1
    assert capsys.readouterr().err == (
        f"usage error: argument --{axis}-range: expected one argument\n")
    assert run(["sweep", f"--{axis}-range=-1:-0.5:0.25", *flags]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.split(",").index(axis)
    assert [float(row.split(",")[column]) for row in rows] == [-1.0, -0.75, -0.5]


def test_validate_leaves_the_block_cache_alone():
    # Its one-off random points build uncached blocks; the first run may add
    # the standard plans' shared block, and a second run touches nothing.
    from spintomo.scatter import two_impurity_block
    cli.run_validation()
    before = two_impurity_block.cache_info()
    report = cli.run_validation()
    assert two_impurity_block.cache_info() == before
    assert all(suite["passed"] for suite in report.values())
