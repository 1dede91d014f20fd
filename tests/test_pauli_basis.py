"""The Pauli-basis fast paths against kron-loop oracles, and the pure fit's
analytic Jacobian in C^4 against central finite differences."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintomo import gates as g
from spintomo import tomo
from spintomo.qmat import (
    PAULI_BASIS,
    PAULI_PAIRS,
    PauliCoeffs,
    assemble_array,
    decompose,
    ket_density,
    pauli,
    polarized_qubit,
    random_density,
    random_ket,
)
from spintomo.scatter import ScatterParams, two_impurity_block

PAIRS16 = [(0, 0)] + list(PAULI_PAIRS)


def kron_pair(i, j):
    return np.kron(pauli(i), pauli(j))


def decompose_oracle(mat):
    a = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            a[i, j] = np.trace(mat @ kron_pair(i, j)).real
    return a


def assemble_oracle(a):
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            mat += a[i, j] * kron_pair(i, j)
    return mat / 4.0


def transfer_oracle(seq):
    u = g.sequence_unitary(seq)
    t = np.empty((15, 15))
    for row, (i, j) in enumerate(PAULI_PAIRS):
        cm = u.conj().T @ kron_pair(i, j) @ u
        for col, (k, l) in enumerate(PAULI_PAIRS):
            t[row, col] = np.trace(cm @ kron_pair(k, l)).real / 4.0
    return t


def setting_row_oracle(setting):
    block = two_impurity_block(setting.params)
    e_pair = tomo._effective_observable(block.t, tomo._flying_state(setting).mat)
    e_pair = g.conjugate_observable(setting.seq, e_pair)
    if setting.ancilla_axis is None:
        row = [np.trace(e_pair @ kron_pair(i, j)).real / 4.0 for i, j in PAULI_PAIRS]
        return np.array(row), np.trace(e_pair).real / 4.0
    anc = polarized_qubit(setting.ancilla_axis).mat
    row = [np.trace(e_pair @ np.kron(anc, pauli(k))).real / 2.0 for k in (1, 2, 3)]
    return np.array(row), np.trace(e_pair @ np.kron(anc, pauli(0))).real / 2.0


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_sequence(rng):
    ops = []
    for _ in range(rng.integers(0, 5)):
        kind = rng.integers(0, 3)
        if kind == 0:
            ops.append(("sqrtSWAP", "12"))
        elif kind == 1:
            name = ["X", "Y", "Z", "H", "Rx90", "Ry90", "Rz90"][rng.integers(0, 7)]
            ops.append((name, ["1", "2"][rng.integers(0, 2)]))
        else:
            gate = g.rotation_gate("xyz"[rng.integers(0, 3)], rng.uniform(-np.pi, np.pi))
            ops.append((gate, ["1", "2"][rng.integers(0, 2)]))
    return g.sequence(*ops)


def test_basis_layout():
    assert PAULI_BASIS.shape == (16, 4, 4)
    assert not PAULI_BASIS.flags.writeable
    for k, (i, j) in enumerate(PAIRS16):
        assert_allclose(PAULI_BASIS[k], kron_pair(i, j), atol=0)


def test_decompose_and_assemble_match_kron_loops():
    rng = np.random.default_rng(201)
    for _ in range(20):
        rho = random_density(4, rng)
        a = decompose(rho).a
        assert_allclose(a, decompose_oracle(rho.mat), atol=1e-14)
        vec = PauliCoeffs(a).vector()
        assert_allclose(assemble_array(vec), assemble_oracle(a), atol=1e-15)
        assert_allclose(assemble_array(vec), rho.mat, atol=1e-14)
        raw = rng.uniform(-1.0, 1.0, (4, 4))
        raw[0, 0] = 1.0
        assert_allclose(assemble_array(raw.ravel()[1:]), assemble_oracle(raw), atol=1e-15)


def test_coefficient_transfer_matrix_matches_kron_loop():
    rng = np.random.default_rng(202)
    for _ in range(20):
        seq = random_sequence(rng)
        assert_allclose(g.coefficient_transfer_matrix(seq), transfer_oracle(seq), atol=1e-14)


def test_setting_row_matches_kron_loop():
    rng = np.random.default_rng(203)
    for _ in range(30):
        params = ScatterParams(rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.2))
        kind = rng.integers(0, 3)
        if kind == 0:
            setting = tomo.MeasurementSetting(params=params, seq=random_sequence(rng))
        elif kind == 1:
            setting = tomo.MeasurementSetting(
                params=params, seq=random_sequence(rng), injector_axis=random_axis(rng),
                injector_sign=int(rng.choice([-1, 1])))
        else:
            setting = tomo.MeasurementSetting(
                params=params, ancilla_axis=random_axis(rng),
                marginal_target=[None, "first", "second"][rng.integers(0, 3)])
        row, offset = tomo.setting_row(setting)
        want_row, want_offset = setting_row_oracle(setting)
        assert row.shape == want_row.shape
        assert_allclose(row, want_row, atol=1e-14)
        assert abs(offset - want_offset) < 1e-14


def test_coeff_vector_matches_kron_loop():
    # The pure fit's model value <psi|Q_k|psi>/<psi|psi>, with Q_k each of
    # the 15 Pauli pairs in turn (a unit design, no offset, unit weights),
    # is the ket's vector of Pauli coefficients.
    qt = tomo._real_forms(np.eye(15))
    rng = np.random.default_rng(204)
    for _ in range(20):
        v = random_ket(4, rng)
        rho = np.outer(v, v.conj())
        want = [np.trace(rho @ kron_pair(i, j)).real for i, j in PAULI_PAIRS]
        f = tomo._ket_model(_reals(v)[None], qt, 0.0, 0.0, 1.0)[0][0]
        assert_allclose(f, want, atol=1e-14)


def _noisy_model(seed):
    rng = np.random.default_rng(seed)
    plan = tomo.plan_standard("pure_state", ScatterParams(0.8))
    records = tomo.run_plan(plan, ket_density(random_ket(4, rng)), 20_000, seed=seed)
    return tomo._pure_model(records)[:4]


def _reals(ket):
    return np.concatenate([ket.real, ket.imag])


def _central_difference(x, args, h=1e-6):
    """Central differences of the residual over the 8 reals of an
    unnormalized ket."""
    cols = []
    for e in np.eye(8):
        cols.append((tomo._ket_model((x + h * e)[None], *args)[0][0]
                     - tomo._ket_model((x - h * e)[None], *args)[0][0]) / (2.0 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_pure_jacobian_matches_central_difference(seed):
    args = _noisy_model(seed)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x = _reals(random_ket(4, rng))
        jac = tomo._ket_model(x[None], *args)[1][0]
        assert jac.shape == (len(args[2]), 8)
        assert_allclose(jac, _central_difference(x, args), atol=1e-6)
        # the norm and the phase of the ket are gauge directions
        assert_allclose(jac @ x, 0.0, atol=1e-10)
        assert_allclose(jac @ _reals(1j * (x[:4] + 1j * x[4:])), 0.0, atol=1e-10)


def test_pure_jacobian_near_vanishing_amplitudes():
    # a2 = a3 = 5e-4: hyperspherical angles are singular near here, the
    # ket's 8 reals are not.
    args = _noisy_model(14)
    a = np.sqrt((1.0 - 2 * 5e-4 ** 2) / 2.0)
    ket = tomo.PureStateParams(a, 5e-4, 5e-4, a, th1=0.7, th2=-2.0, th4=1.0).ket()
    x = _reals(ket)
    assert_allclose(tomo._ket_model(x[None], *args)[1][0], _central_difference(x, args), atol=1e-6)


def test_pure_ket_matches_parametrization():
    p = tomo.PureStateParams(0.5, 0.5, 0.5, 0.5, th1=0.3, th2=-1.1, th4=2.0)
    s2 = 1.0 / np.sqrt(2.0)
    want = [0.5 * np.exp(0.3j), 0.5 * s2 * (np.exp(-1.1j) + 1),
            0.5 * s2 * (np.exp(-1.1j) - 1), 0.5 * np.exp(2.0j)]
    assert_allclose(p.ket(), want, atol=1e-15)
