import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spintomo.qmat import (
    BlochVector,
    DensityMatrix,
    InvalidStateError,
    PauliCoeffs,
    PAULI_PAIRS,
    assemble_array,
    bloch,
    bloch_density,
    cmatrix_from_json,
    cmatrix_to_json,
    decompose,
    fidelity,
    ket_density,
    load_density,
    maximally_mixed,
    n_dot_sigma,
    partial_trace,
    pauli,
    pauli_pair,
    polarized_qubit,
    random_density,
    random_ket,
    random_unitary,
    save_density,
    singlet,
    trace_distance,
    unit_axis,
    von_neumann_entropy,
    werner,
)


def test_pauli_algebra():
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    for i in range(1, 4):
        for j in range(1, 4):
            prod = pauli(i) @ pauli(j)
            expected = (i == j) * np.eye(2, dtype=complex)
            for k in range(1, 4):
                expected = expected + 1j * eps[i - 1, j - 1, k - 1] * pauli(k)
            assert_allclose(prod, expected, atol=1e-15)


def test_pauli_pair_orthonormality():
    # tr(M_ij M_kl) = 4 delta
    mats = {p: pauli_pair(*p) for p in [(0, 0)] + list(PAULI_PAIRS)}
    for p1, m1 in mats.items():
        for p2, m2 in mats.items():
            expected = 4.0 if p1 == p2 else 0.0
            assert abs(np.trace(m1 @ m2).real - expected) < 1e-13


def test_unit_axis_names_and_vectors():
    assert_allclose(unit_axis("z"), [0, 0, 1])
    assert_allclose(unit_axis([0, 1, 0]), [0, 1, 0])
    assert_allclose(unit_axis([0.6, 0.0, 0.8]), [0.6, 0.0, 0.8])
    # vectors are validated, not silently rescaled
    with pytest.raises(ValueError):
        unit_axis([3.0, 0.0, 4.0])
    with pytest.raises(ValueError):
        unit_axis([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        unit_axis("q")
    for bad in ([np.nan, 0.0, 0.0], [0.6, np.nan, 0.8], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="^axis must be a unit vector"):
            unit_axis(bad)


def test_density_matrix_validation():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[1.0, 0.1], [0.3, 0.0]]))  # not hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(3, dtype=complex) / 3)  # dim not in 2,4,8


def test_density_matrix_frozen():
    rho = maximally_mixed(2)
    with pytest.raises((ValueError, RuntimeError)):
        rho.mat[0, 0] = 0.7


def test_expect_real():
    rho = polarized_qubit("z")
    assert rho.expect(pauli(3)) == pytest.approx(1.0)
    assert rho.expect(pauli(1)) == pytest.approx(0.0)


def test_decompose_assemble_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(4, rng)
        coeffs = decompose(rho)
        back = DensityMatrix(assemble_array(coeffs.vector()))
        assert trace_distance(rho, back) < 1e-12
        # vector form round trip
        again = PauliCoeffs(np.concatenate(([1.0], coeffs.vector())).reshape(4, 4))
        assert_allclose(again.a, coeffs.a, atol=1e-15)


def test_assemble_array_accepts_vector():
    rng = np.random.default_rng(3)
    rho = random_density(4, rng)
    v = decompose(rho).vector()
    assert_allclose(assemble_array(v), rho.mat, atol=1e-13)


def test_singlet_coefficients():
    coeffs = decompose(singlet())
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 1] = expected[2, 2] = expected[3, 3] = -1.0
    assert_allclose(coeffs.a, expected, atol=1e-14)


def test_werner_limits():
    assert trace_distance(werner(1.0), singlet()) < 1e-14
    assert trace_distance(werner(0.0), maximally_mixed(4)) < 1e-14
    with pytest.raises(ValueError):
        werner(1.5)


def test_partial_trace_of_product():
    rng = np.random.default_rng(7)
    for _ in range(10):
        r1 = random_density(2, rng)
        r2 = random_density(2, rng)
        joint = DensityMatrix(np.kron(r1.mat, r2.mat))
        assert trace_distance(partial_trace(joint, "first"), r1) < 1e-13
        assert trace_distance(partial_trace(joint, "second"), r2) < 1e-13


def test_partial_trace_entangled_marginals():
    # singlet marginals are maximally mixed
    for keep in ("first", "second"):
        assert trace_distance(partial_trace(singlet(), keep), maximally_mixed(2)) < 1e-14


def test_partial_trace_matches_coefficients():
    # one-qubit marginal Bloch components equal the a_{k0} / a_{0k} rows
    rng = np.random.default_rng(19)
    rho = random_density(4, rng)
    a = decompose(rho).a
    b1 = bloch(partial_trace(rho, "first"))
    b2 = bloch(partial_trace(rho, "second"))
    assert_allclose([b1.x, b1.y, b1.z], [a[1, 0], a[2, 0], a[3, 0]], atol=1e-13)
    assert_allclose([b2.x, b2.y, b2.z], [a[0, 1], a[0, 2], a[0, 3]], atol=1e-13)


def test_bloch_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        rho = bloch_density(v)
        got = bloch(rho)
        assert_allclose(got.as_array(), v, atol=1e-13)
    with pytest.raises(InvalidStateError):
        bloch_density([0.8, 0.8, 0.8])


def test_polarized_qubit_expectations():
    rng = np.random.default_rng(29)
    for _ in range(5):
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        for sign in (+1, -1):
            rho = polarized_qubit(n, sign)
            assert rho.expect(n_dot_sigma(n)) == pytest.approx(sign, abs=1e-12)


def test_entropy_values():
    assert von_neumann_entropy(singlet()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(np.log(2), abs=1e-12)
    assert von_neumann_entropy(maximally_mixed(4)) == pytest.approx(np.log(4), abs=1e-12)
    # two-outcome mixture
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    expected = -(0.25 * np.log(0.25) + 0.75 * np.log(0.75))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


def test_fidelity_and_trace_distance():
    rng = np.random.default_rng(31)
    up, dn = polarized_qubit("z", +1), polarized_qubit("z", -1)
    assert fidelity(up, up) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(up, dn) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(up, dn) == pytest.approx(1.0, abs=1e-12)
    for _ in range(10):
        a, b = random_density(2, rng), random_density(2, rng)
        f, fr = fidelity(a, b), fidelity(b, a)
        assert abs(f - fr) < 1e-10
        assert -1e-12 <= f <= 1 + 1e-12
        assert -1e-12 <= trace_distance(a, b) <= 1 + 1e-12


def test_random_generators_valid():
    rng = np.random.default_rng(37)
    for dim in (2, 4, 8):
        rho = random_density(dim, rng)  # constructor validates
        assert rho.dim == dim
        psi = random_ket(dim, rng)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        u = random_unitary(dim, rng)
        assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_random_generators_seeded():
    a = random_density(4, np.random.default_rng(99)).mat
    b = random_density(4, np.random.default_rng(99)).mat
    assert_allclose(a, b, atol=0)


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    rho = random_density(4, rng)
    back = DensityMatrix(cmatrix_from_json(cmatrix_to_json(rho.mat)))
    assert trace_distance(rho, back) < 1e-15
    path = tmp_path / "state.json"
    save_density(rho, path)
    assert trace_distance(load_density(path), rho) < 1e-15
    # file is plain JSON with sorted keys
    obj = json.loads(path.read_text())
    assert list(obj.keys()) == sorted(obj.keys())


def test_ket_density_normalization_guard():
    with pytest.raises(InvalidStateError):
        ket_density(np.array([1.0, 1.0], dtype=complex))


def test_bloch_vector_norm():
    assert BlochVector(0.6, 0.0, 0.8).norm() == pytest.approx(1.0)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_density_matrix_refuses_nan(dim):
    # Every check is written so that a NaN deviation fails it.
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.full((dim, dim), np.nan))
    for i, j in ((0, 0), (0, 1), (dim - 1, 0)):
        mat = np.eye(dim, dtype=complex) / dim
        mat[i, j] = mat[j, i] = np.nan
        with pytest.raises(InvalidStateError, match="nan"):
            DensityMatrix(mat)


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.0, np.inf), complex(np.inf, np.inf)])
def test_density_matrix_refuses_an_infinite_entry_without_a_warning(dim, entry):
    # pytest turns a RuntimeWarning into an error, so the refusal must come
    # before the hermiticity subtraction, where inf - inf would warn.
    for i, j in ((0, 0), (0, 1), (dim - 1, 0)):
        mat = np.eye(dim, dtype=complex) / dim
        mat[i, j] = entry
        with pytest.raises(InvalidStateError, match="^density matrix has an infinite entry$"):
            DensityMatrix(mat)
        mat[j, i] = np.conj(entry)
        with pytest.raises(InvalidStateError, match="^density matrix has an infinite entry$"):
            DensityMatrix(mat)


def test_density_matrix_refuses_a_nan_spectrum(monkeypatch):
    # A NaN entry already fails the hermiticity check; the positivity check
    # refuses a NaN eigenvalue of its own.
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([np.nan, 0.5]))
    with pytest.raises(InvalidStateError, match="min eigenvalue nan"):
        DensityMatrix(np.eye(2) / 2)


@pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], [0.0, np.nan, 0.5], [np.inf, 0.0, 0.0]])
def test_bloch_density_refuses_non_finite(v):
    # refused by its own norm check, before a matrix is built
    with pytest.raises(InvalidStateError, match="Bloch norm"):
        bloch_density(v)


def test_load_density_refuses_a_nan_entry(tmp_path):
    obj = cmatrix_to_json(singlet().mat)
    obj["re"][5] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert "NaN" in path.read_text()
    with pytest.raises(InvalidStateError):
        load_density(path)
