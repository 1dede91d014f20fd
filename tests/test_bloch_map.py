"""The engine's collision channel as an affine Bloch map v -> M v + c.

run_cycle iterates the map; interact_once stays the density-matrix oracle.
The oracle's reflection operator is unitary only to rounding, so the trace
of its state drifts by up to a few 1e-14 over hundreds of collisions; its
Bloch vectors are compared after dividing by that trace.  An entropy is
compared within the Bloch tolerance times its slope dS/d|v| = atanh|v|,
which grows to about 18 near a pure state: there the oracle reads the small
eigenvalue off rho_11, while the map has only 1 - |v|, resolved to 1e-16.
"""
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintomo import engine as eng
from spintomo.qmat import (
    DensityMatrix,
    bloch,
    maximally_mixed,
    polarized_qubit,
    random_density,
    trace_distance,
    von_neumann_entropy,
)
from spintomo.scatter import ScatterParams

ORACLE_ATOL = 1e-14


def entropy_atol(v):
    """ORACLE_ATOL on a Bloch vector, carried to the entropy by dS/d|v|."""
    norm = min(float(np.linalg.norm(v)), 1.0 - 1e-16)
    return ORACLE_ATOL * max(1.0, float(np.arctanh(norm)))


def _config(omega, phase=eng.DEFAULT_MIRROR_PHASE, **kw):
    return eng.EngineConfig(params=ScatterParams(omega), mirror_phase=phase, **kw)


def _reservoirs():
    return (eng.Reservoir("polarized"), eng.Reservoir("unpolarized"),
            eng.Reservoir("polarized", axis=np.array([0.6, 0.0, 0.8])))


def test_reservoir_state_built_once():
    for res in _reservoirs():
        assert res.state() is res.state()


def test_zero_mirror_phase_is_identity_map():
    for om in (0.2, 0.7, 1.5):
        for res in _reservoirs():
            m, c = eng.bloch_map(res, _config(om, phase=0.0))
            assert_allclose(m, np.eye(3), rtol=0, atol=1e-14)
            assert_allclose(c, np.zeros(3), rtol=0, atol=1e-14)


def test_fixed_points_and_contraction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        config = _config(rng.uniform(0.3, 1.5), phase=rng.uniform(0.35, np.pi - 0.35))
        for res in _reservoirs():
            m, c = eng.bloch_map(res, config)
            assert max(abs(np.linalg.eigvals(m))) < 1.0
            fixed = np.linalg.solve(np.eye(3) - m, c)
            want = res.axis if res.kind == "polarized" else np.zeros(3)
            assert_allclose(fixed, want, rtol=0, atol=1e-12)
        m, c = eng.bloch_map(eng.Reservoir("unpolarized"), config)
        assert_allclose(c, np.zeros(3), rtol=0, atol=1e-15)


def test_map_is_read_only():
    m, c = eng.bloch_map(eng.Reservoir("polarized"), _config(0.8))
    for arr in (m, c):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_map_matches_one_collision():
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = _config(rng.uniform(0.1, 2.5), phase=rng.uniform(0, 2 * np.pi))
        rho = random_density(2, rng)
        for res in _reservoirs():
            m, c = eng.bloch_map(res, config)
            out = eng.interact_once(rho, res, config)
            assert_allclose(m @ bloch(rho).as_array() + c, bloch(out).as_array(),
                            rtol=0, atol=1e-14)


def _oracle_phase(rho, reservoir, target, config):
    """The density-matrix loop run_cycle replaced: (per-step normalized
    Bloch vectors and entropies, state, iterations, converged, residual)."""
    blochs, entropies = [], []
    for i in range(1, config.max_iters + 1):
        rho = eng.interact_once(rho, reservoir, config)
        resid = trace_distance(rho, target)
        tr = float(np.trace(rho.mat).real)
        blochs.append(bloch(rho).as_array() / tr)
        entropies.append(von_neumann_entropy(DensityMatrix(rho.mat / tr)))
        if resid < config.tol:
            return blochs, entropies, rho, i, True, resid
    return blochs, entropies, rho, config.max_iters, False, resid


def test_run_cycle_matches_interact_once_loop():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        config = _config(rng.uniform(0.3, 1.5), phase=rng.uniform(0.35, np.pi - 0.35),
                         max_iters=300)
        initial = random_density(2, rng)
        trace = eng.run_cycle(initial, config)
        fm, nm = eng.Reservoir("polarized"), eng.Reservoir("unpolarized")
        b_fm, s_fm, rho, fm_iters, fm_ok, fm_resid = _oracle_phase(
            initial, fm, polarized_qubit("z"), config)
        b_nm, s_nm, rho, nm_iters, nm_ok, nm_resid = _oracle_phase(
            rho, nm, maximally_mixed(2), config)
        assert (trace.fm_iterations, trace.fm_converged) == (fm_iters, fm_ok)
        assert (trace.nm_iterations, trace.nm_converged) == (nm_iters, nm_ok)
        steps = trace.steps[1:]
        assert len(steps) == len(b_fm) + len(b_nm)
        assert_allclose([tuple(s.bloch) for s in steps], b_fm + b_nm, rtol=0, atol=ORACLE_ATOL)
        for step, v, entropy in zip(steps, b_fm + b_nm, s_fm + s_nm):
            assert abs(step.entropy_nats - entropy) <= entropy_atol(v)
        assert_allclose([trace.fm_residual, trace.nm_residual], [fm_resid, nm_resid],
                        rtol=0, atol=ORACLE_ATOL)
        assert_allclose(trace.entropy_transferred_nats, s_nm[-1] - s_fm[-1], rtol=0,
                        atol=entropy_atol(b_fm[-1]) + entropy_atol(b_nm[-1]))


def test_map_guards(monkeypatch):
    config = _config(0.8)
    # a lossy operator breaks trace preservation
    monkeypatch.setattr(eng, "reflection_channel", lambda params, phase: 0.5 * np.eye(4))
    with pytest.raises(RuntimeError, match="trace preservation"):
        eng.bloch_map(eng.Reservoir("polarized"), config)
    # a swap hands the reservoir state to the qubit: a negative reservoir
    # eigenvalue is a negative Choi eigenvalue
    swap = np.eye(4)[[0, 2, 1, 3]]
    monkeypatch.setattr(eng, "reflection_channel", lambda params, phase: swap)
    fake = types.SimpleNamespace(state=lambda: types.SimpleNamespace(mat=np.diag([1.5, -0.5])))
    with pytest.raises(RuntimeError, match="completely positive"):
        eng.bloch_map(fake, config)


def test_bloch_ball_guard(monkeypatch):
    def stretch(factor):
        monkeypatch.setattr(eng, "bloch_map",
                            lambda reservoir, config: (factor * np.eye(3), np.zeros(3)))

    stretch(1.0 + 1e-13)  # inside the 1e-12 slack
    eng.run_cycle(polarized_qubit("x"), _config(0.8, max_iters=1))
    stretch(1.0 + 1e-11)
    with pytest.raises(RuntimeError, match="Bloch ball"):
        eng.run_cycle(polarized_qubit("x"), _config(0.8, max_iters=1))
