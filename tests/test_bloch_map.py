"""The engine's collision channel as an affine Bloch map v -> M v + c.

The reflection operator is a partial swap R = a I + b SWAP; its (a, b),
computed in closed form from the two exchange sectors, are checked against
the 4x4 multiple-scattering series built from the impurity's full block, and
the map built from them against interact_once.  run_cycle iterates the map;
interact_once stays the density-matrix oracle.
The oracle's reflection operator is unitary only to rounding, so the trace
of its state drifts by up to a few 1e-14 over hundreds of collisions; its
Bloch vectors are compared after dividing by that trace.  An entropy is
compared within the Bloch tolerance times its slope dS/d|v| = atanh|v|,
which grows to about 18 near a pure state: there the oracle reads the small
eigenvalue off rho_11, while the map has only 1 - |v|, resolved to 1e-16.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
from spintomo.scatter import ScatterParams, qubit_block

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


def series_partial_swap(omega, phi):
    """(a, b) read off R[1, 1] and R[2, 1] of the 4x4 multiple-scattering
    series R = r + t' m (I - r' m)^-1 t, with m = -e^{i phi} I, built from
    the impurity's full block."""
    blk = qubit_block(ScatterParams(omega))
    m = -np.exp(1j * phi) * np.eye(4)
    r = blk.r + blk.t_prime @ m @ np.linalg.solve(np.eye(4) - blk.r_prime @ m, blk.t)
    return complex(r[1, 1]), complex(r[2, 1])


@given(st.floats(1e-3, 1e5), st.floats(0.0, 2 * np.pi))
def test_partial_swap_matches_the_4x4_series(omega, phi):
    a, b = eng.partial_swap(ScatterParams(omega), phi)
    want_a, want_b = series_partial_swap(omega, phi)
    assert abs(a - want_a) <= 1e-14 and abs(b - want_b) <= 1e-14
    assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-13
    assert abs((a * np.conj(b)).real) <= 1e-13


@given(st.floats(0.05, 3.0), st.floats(0.1, np.pi - 0.1))
def test_iteration_counts_follow_the_swap_rate(omega, phi):
    # From the mixed start the FM phase moves along the reservoir axis only,
    # and the distance to its fixed point shrinks by |a|^2 per collision; the
    # NM phase shrinks |v| by the same factor.
    config = _config(omega, phase=phi, max_iters=2000)
    a, _ = eng.partial_swap(config.params, phi)
    rate = math.log(abs(a) ** 2)
    trace = eng.run_cycle(maximally_mixed(2), config)
    fm_iters = math.floor(math.log(2 * config.tol) / rate) + 1
    if fm_iters > config.max_iters:
        assert not trace.fm_converged
        return
    assert (trace.fm_iterations, trace.fm_converged) == (fm_iters, True)
    fm_norm = math.hypot(*trace.steps[fm_iters].bloch)
    nm_iters = math.floor(math.log(2 * config.tol / fm_norm) / rate) + 1
    if nm_iters <= config.max_iters:
        assert (trace.nm_iterations, trace.nm_converged) == (nm_iters, True)


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
    # a lossy operator, and a norm-preserving one whose R^dag R has a SWAP
    # part 2 Re(a b*) = 0.96, both break trace preservation
    for a, b in ((0.5, 0), (0.6, 0.8)):
        monkeypatch.setattr(eng, "partial_swap", lambda params, phase, ab=(a, b): ab)
        with pytest.raises(RuntimeError, match="trace preservation"):
            eng.bloch_map(eng.Reservoir("polarized"), config)


def test_bloch_ball_guard(monkeypatch):
    def stretch(factor):
        monkeypatch.setattr(eng, "bloch_map",
                            lambda reservoir, config: (factor * np.eye(3), np.zeros(3)))

    stretch(1.0 + 1e-13)  # inside the 1e-12 slack
    eng.run_cycle(polarized_qubit("x"), _config(0.8, max_iters=1))
    stretch(1.0 + 1e-11)
    with pytest.raises(RuntimeError, match="Bloch ball"):
        eng.run_cycle(polarized_qubit("x"), _config(0.8, max_iters=1))
