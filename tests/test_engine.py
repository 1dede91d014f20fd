import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintomo import engine as eng
from spintomo.qmat import (
    BlochVector,
    bloch,
    bloch_density,
    maximally_mixed,
    polarized_qubit,
    random_density,
    trace_distance,
)
from spintomo.scatter import ScatterParams

LN2 = np.log(2.0)


def _config(omega, phase=eng.DEFAULT_MIRROR_PHASE, **kw):
    return eng.EngineConfig(params=ScatterParams(omega), mirror_phase=phase, **kw)


def test_reservoir_states():
    assert trace_distance(eng.Reservoir("polarized").state(), polarized_qubit("z")) < 1e-14
    assert trace_distance(eng.Reservoir("unpolarized").state(), maximally_mixed(2)) < 1e-14
    with pytest.raises(ValueError):
        eng.Reservoir("thermal")


def test_config_validation():
    with pytest.raises(ValueError):
        eng.EngineConfig(params=ScatterParams(1.0), max_iters=0)
    with pytest.raises(ValueError):
        eng.EngineConfig(params=ScatterParams(1.0), tol=-1.0)
    # An infinite tol would claim convergence after the first collision.
    for tol in (float("nan"), np.inf):
        with pytest.raises(ValueError, match="^tol must be finite and positive$"):
            eng.EngineConfig(params=ScatterParams(1.0), tol=tol)
    with pytest.raises(ValueError):
        eng.EngineConfig(params=ScatterParams(1.0), mirror_phase=np.inf)
    # One impurity's block ignores kd_phase, so a nonzero one is refused
    # rather than dropped; the mirror's distance is mirror_phase.
    for kd in (1.3, -1e-300, [0.0, 0.5]):
        with pytest.raises(ValueError, match="mirror_phase"):
            eng.EngineConfig(params=ScatterParams(0.9, kd))


@pytest.mark.parametrize("params", [
    ScatterParams([0.9, 1.1]),
    ScatterParams([0.9, 1.1], [0.0, -0.0]),
    ScatterParams(0.9, [0.0]),
    ScatterParams(np.array(0.9)),
])
def test_config_refuses_grid_params(params):
    # The engine runs at one point: a grid is refused when the config is
    # built, not by the reflection cache's hash later.
    with pytest.raises(ValueError, match=r"^the engine runs at one \(omega, mirror_phase\) "
                                         r"point, not on a grid$"):
        eng.EngineConfig(params=params)


def test_reflection_channel_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = eng.reflection_channel(ScatterParams(rng.uniform(0.1, 3.0)),
                                   rng.uniform(0, 2 * np.pi))
        assert_allclose(r.conj().T @ r, np.eye(4), atol=1e-10)


def test_zero_mirror_phase_is_inert():
    # round trip with an in-phase mirror reconstructs the incoming wave:
    # R collapses to -identity and the collision channel does nothing
    rng = np.random.default_rng(5)
    for om in (0.2, 0.5, 1.0, 2.0):
        r = eng.reflection_channel(ScatterParams(om), 0.0)
        assert_allclose(r, -np.eye(4), atol=1e-12)
        config = _config(om, phase=0.0)
        rho = random_density(2, rng)
        out = eng.interact_once(rho, eng.Reservoir("polarized"), config)
        assert trace_distance(out, rho) < 1e-12


def test_zero_coupling_pure_mirror():
    # without exchange coupling the only scattering is off the mirror
    r = eng.reflection_channel(ScatterParams(0.0), 1.234)
    phase = r[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert_allclose(r, phase * np.eye(4), atol=1e-12)


def test_interact_once_preserves_trace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        config = _config(rng.uniform(0.1, 2.5), phase=rng.uniform(0, 2 * np.pi))
        rho = random_density(2, rng)
        for kind in ("polarized", "unpolarized"):
            out = eng.interact_once(rho, eng.Reservoir(kind), config)
            assert abs(float(np.trace(out.mat).real) - 1.0) < 1e-12


def test_fixed_points():
    config = _config(0.5)
    aligned = polarized_qubit("z")
    out = eng.interact_once(aligned, eng.Reservoir("polarized"), config)
    assert trace_distance(out, aligned) < 1e-10
    mixed = maximally_mixed(2)
    out = eng.interact_once(mixed, eng.Reservoir("unpolarized"), config)
    assert trace_distance(out, mixed) < 1e-10


def test_nm_phase_contracts_bloch_norm():
    # unital channel: the Bloch vector shrinks every step until it hits
    # numerical zero
    rng = np.random.default_rng(9)
    reservoir = eng.Reservoir("unpolarized")
    for _ in range(10):
        config = _config(rng.uniform(0.05, 2.0))
        rho = bloch_density(0.9 * _unit(rng))
        prev = bloch(rho).norm()
        for _ in range(25):
            rho = eng.interact_once(rho, reservoir, config)
            cur = bloch(rho).norm()
            if prev > 1e-12:
                assert cur < prev
            prev = cur


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_run_cycle_converges_and_transfers_ln2():
    trace = eng.run_cycle(maximally_mixed(2), _config(0.5, max_iters=200, tol=1e-10))
    assert trace.fm_converged and trace.nm_converged
    assert trace.fm_iterations <= 200
    assert trace.entropy_transferred_nats <= LN2 + 1e-9
    assert trace.entropy_transferred_nats > 0.5 * LN2
    # FM end is nearly pure, NM end nearly mixed
    steps = trace.steps
    fm_end = [s for s in steps if s.phase == "FM"][-1]
    nm_end = [s for s in steps if s.phase == "NM"][-1]
    assert fm_end.entropy_nats < 1e-8
    assert abs(nm_end.entropy_nats - LN2) < 1e-8
    # entropy decreases overall during the FM phase
    assert fm_end.entropy_nats < steps[0].entropy_nats


def test_run_cycle_entropy_bounds_across_omega():
    for om in (0.1, 0.3, 1.0, 2.0):
        trace = eng.run_cycle(maximally_mixed(2), _config(om, max_iters=400, tol=1e-9))
        assert trace.entropy_transferred_nats <= LN2 + 1e-9
        assert trace.entropy_transferred_nats >= 0.0


def test_run_cycle_zero_coupling():
    trace = eng.run_cycle(maximally_mixed(2), _config(0.0, max_iters=50))
    assert not trace.fm_converged
    assert abs(trace.entropy_transferred_nats) < 1e-12


def test_run_cycle_custom_axis():
    trace = eng.run_cycle(maximally_mixed(2), _config(0.5, max_iters=200, tol=1e-10),
                          fm_axis=(1.0, 0.0, 0.0))
    assert trace.fm_converged
    fm_end = [s for s in trace.steps if s.phase == "FM"][-1]
    assert abs(fm_end.bloch[0] - 1.0) < 1e-8


def test_run_cycle_deterministic():
    t1 = eng.run_cycle(maximally_mixed(2), _config(0.7))
    t2 = eng.run_cycle(maximally_mixed(2), _config(0.7))
    assert t1.entropy_transferred_nats == t2.entropy_transferred_nats
    assert [s.bloch for s in t1.steps] == [s.bloch for s in t2.steps]


@pytest.mark.parametrize("v, scaled", [
    ((0.0, 0.0, 1.0 + 1e-10), True),
    ((0.6 * (1.0 + 1.5e-10), 0.0, 0.8 * (1.0 + 1.5e-10)), True),
    ((0.0, 0.0, 1.0 + 5e-13), False),
])
def test_run_cycle_scales_a_start_beyond_the_guard_onto_the_sphere(v, scaled):
    # A valid state may reach a Bloch norm of about 1 + 2e-10, past the
    # collisions' 1 + BLOCH_BALL_TOL: such a start is scaled onto the unit
    # sphere, one within the slack runs as given, and row 0 keeps the state.
    config = _config(0.9, 1.0)
    rho = bloch_density(v)
    start = bloch(rho)
    assert (start.norm() > 1.0 + eng.BLOCH_BALL_TOL) == scaled
    trace = eng.run_cycle(rho, config)
    assert trace.steps[0].bloch == start
    first = start.as_array() / start.norm() if scaled else start.as_array()
    m, c = eng.bloch_map(eng.Reservoir("polarized"), config)
    assert_allclose(trace.steps[1].bloch, m @ first + c, rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_entropy_is_never_negative_and_transfer_at_most_ln2(seed):
    # Pure and partly mixed starts, whose FM steps can reach a Bloch norm an
    # ulp or so past 1: every row reads the clamped norm, so no entropy is
    # negative or -0.0, and the NM phase gains at most ln 2.
    rng = np.random.default_rng(seed)
    starts = [polarized_qubit("z"), bloch_density([0.3, -0.2, 0.5])]
    starts += [bloch_density(rng.uniform(0.0, 1.0) * _unit(rng)) for _ in range(20)]
    starts += [polarized_qubit(_unit(rng)) for _ in range(5)]
    for start in starts:
        trace = eng.run_cycle(start, _config(rng.uniform(0.1, 2.0),
                                             phase=rng.uniform(0.35, np.pi - 0.35)))
        entropies = np.array([s.entropy_nats for s in trace.steps])
        assert not np.signbit(entropies).any()
        assert trace.entropy_transferred_nats <= np.log(2.0)


def test_entropy_of_a_bloch_norm_stays_within_0_and_ln2():
    # At small norms the two eigenvalue terms can round to ln 2 + 1 ulp
    # (1.04e-12, 2.16e-10 and 1.42e-9 among them); the entropy is read as
    # ln 2 there, as a norm past 1 is read as 1.
    rng = np.random.default_rng(26)
    norms = np.concatenate([
        [0.0, 1.04e-12, 2.16e-10, 1.42e-9, 1.0, 1.0 + 1e-13],
        rng.uniform(0.0, 1e-3, 2000), np.exp(rng.uniform(np.log(1e-12), np.log(1e-6), 2000)),
        np.linspace(0.0, 1.0, 1001),
    ])
    entropies = np.array([eng._entropy_of_bloch_norm(float(n)) for n in norms])
    assert not np.signbit(entropies).any()
    assert entropies.max() == LN2


def test_cycle_steps_are_immutable():
    trace = eng.run_cycle(maximally_mixed(2), _config(0.6, max_iters=5))
    for step in trace.steps:
        types = [type(v) for v in (step.iteration, step.phase, step.bloch, step.entropy_nats)]
        assert types == [int, str, BlochVector, float]
        for name in eng.CycleStep._fields:
            with pytest.raises(AttributeError):
                setattr(step, name, getattr(step, name))


def test_trace_csv(tmp_path):
    trace = eng.run_cycle(maximally_mixed(2), _config(0.5, max_iters=100, tol=1e-9))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,phase,bloch_x,bloch_y,bloch_z,entropy_nats"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[1] == "FM"
    assert abs(float(first[5]) - LN2) < 1e-12


def reference_to_csv(trace, path):
    """The trace's CSV written row by row through Python's csv module."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "phase", "bloch_x", "bloch_y", "bloch_z", "entropy_nats"])
        for s in trace.steps:
            w.writerow([
                s.iteration, s.phase,
                f"{s.bloch.x:.17g}", f"{s.bloch.y:.17g}", f"{s.bloch.z:.17g}",
                f"{s.entropy_nats:.17g}",
            ])


@pytest.mark.parametrize("seed", range(6))
def test_trace_csv_bytes_equal_the_csv_module(tmp_path, seed):
    # Seeded cycles from pure, mixed and random starts, at both sides of the
    # quarter-wave point and at the inert mirror phase 0.  A pure start opens
    # with a 0 entropy row.
    rng = np.random.default_rng(seed)
    starts = [polarized_qubit(_unit(rng)), maximally_mixed(2), random_density(2, rng),
              bloch_density(0.5 * _unit(rng))]
    phases = [eng.DEFAULT_MIRROR_PHASE, rng.uniform(0.35, np.pi - 0.35), 0.0]
    for k, start in enumerate(starts):
        config = _config(rng.uniform(0.1, 2.0), phase=phases[k % 3],
                         max_iters=int(rng.integers(1, 300)))
        trace = eng.run_cycle(start, config, fm_axis=_unit(rng))
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        trace.to_csv(got)
        reference_to_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == len(trace.steps) + 1
    pure = eng.run_cycle(polarized_qubit("z"), _config(0.5, max_iters=20))
    pure.to_csv(got)
    reference_to_csv(pure, want)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().split(b"\r\n")[1] == b"0,FM,0,0,1,0"


def test_engine_guards_refuse_nan(monkeypatch):
    # Each guard is written so that a NaN deviation fails it.
    config = _config(0.37)
    reservoir = eng.Reservoir("polarized")
    with pytest.raises(RuntimeError, match="left the Bloch ball"):
        eng._run_phase(np.array([np.nan, 0.0, 0.0]), reservoir, reservoir.axis, config,
                       "FM", [])
    monkeypatch.setattr(eng, "partial_swap", lambda params, phase: (np.nan, np.nan))
    with pytest.raises(RuntimeError, match="trace preservation by nan"):
        eng.bloch_map(reservoir, config)
    with pytest.raises(RuntimeError, match="trace preservation by nan"):
        eng.interact_once(maximally_mixed(2), reservoir, config)


def test_run_cycle_builds_no_reservoir_state(monkeypatch):
    # A cycle iterates Bloch maps, read off each reservoir's axis; only a
    # density-matrix collision reads the emitted state, built once.
    built = []

    def counting(make):
        return lambda *args: built.append(make.__name__) or make(*args)

    monkeypatch.setattr(eng, "polarized_qubit", counting(polarized_qubit))
    monkeypatch.setattr(eng, "maximally_mixed", counting(maximally_mixed))
    trace = eng.run_cycle(maximally_mixed(2), _config(0.8))
    assert trace.fm_converged and trace.nm_converged
    assert built == []
    reservoirs = (eng.Reservoir("polarized", axis=[1.0, 0.0, 0.0]), eng.Reservoir("unpolarized"))
    for _ in range(3):
        for reservoir in reservoirs:
            eng.interact_once(maximally_mixed(2), reservoir, _config(0.8))
    assert built == ["polarized_qubit", "maximally_mixed"]
    assert reservoirs[0].state() is reservoirs[0].state()
