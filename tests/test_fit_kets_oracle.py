"""The pure fit's Levenberg-Marquardt loop against a plain reference.

The reference below is the loop as first written: a separate residual and
Jacobian per trial point, the normal matrix, the gradient, the gauge
projector and every norm built apart, with einsum and np.linalg.norm.  The
fused loop of tomo._fit_kets must follow the same iteration, so each start
lands on the same residual up to rounding.
"""
import numpy as np
import pytest

from spintomo import tomo
from spintomo.qmat import PAULI_BASIS, ket_density, random_ket
from spintomo.scatter import ScatterParams

# x @ _REF_TIMES_I is i psi for a ket psi written as x = (Re psi, Im psi).
_REF_TIMES_I = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])


def _reference_forms(a):
    """The (8, 8K) real forms of Q_k = sum_j a_kj sigma_j, block k in
    columns 8k..8k+7."""
    q = np.einsum("kj,jab->kab", a, PAULI_BASIS[1:])
    qt = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return qt.transpose(2, 0, 1).reshape(8, -1)


def _reference_ket_model(x, qt, b, y, w):
    nrm2 = np.einsum("si,si->s", x, x)[:, None]
    qx = (x @ qt).reshape(len(x), -1, 8)
    f = np.einsum("ski,si->sk", qx, x) / nrm2
    res = w * (f + b - y)
    return res, (2.0 * w / nrm2)[:, :, None] * (qx - f[:, :, None] * x[:, None, :])


def _reference_fit_kets(kets, qt, b, y, w):
    x = np.concatenate([kets.real, kets.imag], axis=1)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    out_x, out_cost = np.empty_like(x), np.empty(len(x))
    idx = np.arange(len(x))
    res, jac = _reference_ket_model(x, qt, b, y, w)
    cost = 0.5 * np.einsum("sk,sk->s", res, res)
    mu = 1e-3 * np.einsum("ski,ski->si", jac, jac).max(axis=1)
    nu = np.full(len(x), 2.0)
    done = np.zeros(len(x), dtype=bool)
    diag = np.arange(8)
    for _ in range(tomo.PURE_FIT_MAX_ITERS):
        jac_t = jac.transpose(0, 2, 1)
        grad = (jac_t @ res[:, :, None])[:, :, 0]
        done |= np.abs(grad).max(axis=1) < tomo.PURE_FIT_TOL
        if done.any():
            out_x[idx[done]], out_cost[idx[done]] = x[done], cost[done]
            keep = ~done
            idx, x, res, jac, jac_t, grad, cost, mu, nu = (
                v[keep] for v in (idx, x, res, jac, jac_t, grad, cost, mu, nu))
            if not idx.size:
                break
        gauge = np.stack([x, x @ _REF_TIMES_I], axis=1)
        lhs = jac_t @ jac + gauge.transpose(0, 2, 1) @ gauge
        lhs[:, diag, diag] += mu[:, None]
        step = -np.linalg.solve(lhs, grad[:, :, None])[:, :, 0]
        x_new = x + step
        x_new /= np.linalg.norm(x_new, axis=1, keepdims=True)
        res_new, jac_new = _reference_ket_model(x_new, qt, b, y, w)
        cost_new = 0.5 * np.einsum("sk,sk->s", res_new, res_new)
        reduction = cost - cost_new
        ratio = reduction / (0.5 * np.einsum("si,si->s", step, mu[:, None] * step - grad))
        tol = tomo.PURE_FIT_TOL
        done = ((reduction < tol * cost) & (ratio > 0.25)
                | (np.linalg.norm(step, axis=1) < tol * (tol + 1.0)))
        accept = reduction > 0.0
        mu = np.where(accept, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3),
                      mu * nu)
        nu = np.where(accept, 2.0, 2.0 * nu)
        if accept.all():
            x, res, jac, cost = x_new, res_new, jac_new, cost_new
        elif accept.any():
            x[accept], res[accept], jac[accept], cost[accept] = (
                x_new[accept], res_new[accept], jac_new[accept], cost_new[accept])
    out_x[idx], out_cost[idx] = x, cost
    return out_x[:, :4] + 1j * out_x[:, 4:], np.sqrt(2.0 * out_cost)


def _ket(kind, rng):
    if kind == "random":
        return random_ket(4, rng)
    if kind == "product":
        return np.kron(random_ket(2, rng), random_ket(2, rng))
    # |0> (x) psi: no |11> component, so th4 is unconstrained
    return np.kron([1.0, 0.0], random_ket(2, rng))


def test_reference_forms_hold_the_same_operators():
    a = np.random.default_rng(5).normal(size=(7, 15))
    old = _reference_forms(a).reshape(8, 7, 8)
    new = tomo._real_forms(a).reshape(8, 8, 7)
    assert np.array_equal(old, new.transpose(0, 2, 1))


def test_ket_model_matches_reference():
    rng = np.random.default_rng(17)
    plan = tomo.plan_standard("pure_state", ScatterParams(0.9))
    records = tomo.run_plan(plan, ket_density(random_ket(4, rng)), 10_000, seed=17)
    _, b, y, w, _ = tomo._pure_model(records)
    a = tomo.build_design_matrix(plan)[0]
    x = rng.normal(size=(6, 8))
    res, jac, system = tomo._ket_model(x, tomo._real_forms(a), b, y, w)
    want_res, want_jac = _reference_ket_model(x, _reference_forms(a), b, y, w)
    np.testing.assert_allclose(res, want_res, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(jac, want_jac, rtol=1e-12, atol=1e-12)
    k = len(y)
    assert system.shape == (6, 9, k + 2)
    np.testing.assert_array_equal(system[:, :8, k], x)
    np.testing.assert_array_equal(system[:, :8, k + 1], x @ _REF_TIMES_I)
    np.testing.assert_array_equal(system[:, 8, k:], 0.0)


_CASES = [(kind, omega, shots, 300 + n) for n, (kind, omega, shots) in enumerate(
    (kind, omega, shots) for kind in ("random", "product", "edge")
    for omega in (0.7, 1.0, 1.5) for shots in (0, 10_000, 100_000))]


@pytest.mark.parametrize("kind, omega, shots, seed", _CASES)
def test_fit_kets_matches_reference_loop(kind, omega, shots, seed):
    # All 32 starts in one batch, noiseless or noisy.
    rng = np.random.default_rng(seed)
    plan = tomo.plan_standard("pure_state", ScatterParams(omega))
    truth = _ket(kind, rng)
    records = tomo.run_plan(plan, ket_density(truth), shots, seed=seed if shots else None)
    qt, b, y, w, chi0 = tomo._pure_model(records)
    starts = np.vstack([tomo._branch_kets(chi0), tomo._restart_kets(chi0)])
    a = tomo.build_design_matrix(plan)[0]
    kets, res = tomo._fit_kets(starts, qt, b, y, w)
    want_kets, want_res = _reference_fit_kets(starts, _reference_forms(a), b, y, w)
    got, want = np.sort(res), np.sort(want_res)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))
    best, want_best = kets[np.argmin(res)], want_kets[np.argmin(want_res)]
    assert abs(np.vdot(best, want_best)) ** 2 > 1.0 - 1e-9
