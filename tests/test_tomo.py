import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spintomo import tomo
from spintomo.qmat import (
    DensityMatrix,
    InvalidStateError,
    PAULI_PAIRS,
    PSD_TOL,
    bloch_density,
    decompose,
    fidelity,
    ket_density,
    maximally_mixed,
    partial_trace,
    random_density,
    random_ket,
    random_unitary,
    singlet,
    trace_distance,
    werner,
)
from spintomo.scatter import ScatterParams, sigma_sum_expectation

PARAMS = ScatterParams(omega=1.0)


def test_setting_validation():
    with pytest.raises(ValueError):
        tomo.MeasurementSetting(params=PARAMS, injector_sign=2)
    with pytest.raises(ValueError):
        tomo.MeasurementSetting(params=PARAMS, marginal_target="third")
    with pytest.raises(ValueError):
        tomo.MeasurementSetting(params=PARAMS, injector_axis=[0.0, 0.0, 0.0])


def test_plan_mode_validation():
    with pytest.raises(ValueError):
        tomo.TomographyPlan(mode="bogus", settings=())
    with pytest.raises(ValueError):
        tomo.plan_standard("bogus", PARAMS)


def test_measure_noiseless():
    setting = tomo.MeasurementSetting(params=PARAMS)
    rec = tomo.measure(setting, singlet(), 0)
    assert rec.shots == 0
    assert rec.standard_error == 0.0
    assert rec.observed_value == rec.ideal_value
    assert abs(rec.observed_value - 1.0) < 1e-12


def test_measure_triplet_example():
    setting = tomo.MeasurementSetting(params=ScatterParams(0.5))
    rec = tomo.measure(setting, ket_density(np.array([1, 0, 0, 0], dtype=complex)), 0)
    assert abs(rec.observed_value - 0.4) < 1e-12


def test_measure_rejects_negative_shots():
    with pytest.raises(ValueError):
        tomo.measure(tomo.MeasurementSetting(params=PARAMS), singlet(), -1)


def test_measure_checks_the_seed_without_shots():
    # no draw is made at shots = 0, but a bad seed still refuses, as in run_plan
    setting = tomo.MeasurementSetting(params=PARAMS)
    with pytest.raises(ValueError):
        tomo.measure(setting, singlet(), 0, -1)
    with pytest.raises(TypeError):
        tomo.measure(setting, singlet(), 0, 1.5)
    rec = tomo.measure(setting, singlet(), 0, 5)
    assert rec.observed_value == tomo.measure(setting, singlet(), 0).observed_value


def test_measure_concentration():
    # empirical frequency should sit within 5 standard errors nearly always
    rng = np.random.default_rng(33)
    rho = random_density(4, rng)
    setting = tomo.MeasurementSetting(params=PARAMS)
    hits = 0
    for seed in range(200):
        rec = tomo.measure(setting, rho, 10**6, seed)
        assert rec.standard_error > 0
        if abs(rec.observed_value - rec.ideal_value) < 5 * rec.standard_error:
            hits += 1
    assert hits >= 198


def test_ideal_value_affine_in_state():
    rng = np.random.default_rng(35)
    plan = tomo.plan_standard("two_qubit_gates", PARAMS)
    for setting in plan.settings[:5]:
        r1, r2 = random_density(4, rng), random_density(4, rng)
        lam = rng.uniform(0.0, 1.0)
        mix = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat)
        v = tomo.ideal_value(setting, mix)
        v12 = (lam * tomo.ideal_value(setting, r1)
               + (1 - lam) * tomo.ideal_value(setting, r2))
        assert abs(v - v12) < 1e-12


def test_setting_rows_match_ideal_values():
    rng = np.random.default_rng(37)
    plan = tomo.plan_standard("two_qubit_polarized", PARAMS)
    a, b = tomo.build_design_matrix(plan)
    for _ in range(5):
        rho = random_density(4, rng)
        vec = decompose(rho).vector()
        predicted = a @ vec + b
        actual = [tomo.ideal_value(s, rho) for s in plan.settings]
        assert_allclose(predicted, actual, atol=1e-12)


def test_unpolarized_identity_row_coefficient():
    # no-gate unpolarized row: equal weight on the three diagonal couplings
    om = 1.3
    setting = tomo.MeasurementSetting(params=ScatterParams(om))
    row, offset = tomo.setting_row(setting)
    coeff = -2 * om**2 * (1 + 8 * om**2) / ((1 + 16 * om**2) * (1 + 4 * om**2))
    expected = np.zeros(15)
    for k, (i, j) in enumerate(PAULI_PAIRS):
        if i == j and i > 0:
            expected[k] = coeff
    assert_allclose(row, expected, atol=1e-12)
    # the offset is the value on the fully mixed state (all coefficients zero)
    a_term = 1 + 12 * om**2
    b_term = 4 * om**2 * (1 + 8 * om**2)
    c_term = (1 + 16 * om**2) * (1 + 4 * om**2)
    assert abs(offset - (a_term + b_term / 2) / c_term) < 1e-12
    assert abs(offset - tomo.ideal_value(setting, maximally_mixed(4))) < 1e-12


def test_gate_row_sign_patterns():
    om = 1.0
    idx = {p: k for k, p in enumerate(PAULI_PAIRS)}
    base, _ = tomo.setting_row(tomo.MeasurementSetting(params=ScatterParams(om)))
    c = base[idx[(1, 1)]]
    import spintomo.gates as g
    row_x, _ = tomo.setting_row(tomo.MeasurementSetting(
        params=ScatterParams(om), seq=g.sequence("X@2")))
    row_y, _ = tomo.setting_row(tomo.MeasurementSetting(
        params=ScatterParams(om), seq=g.sequence("Y@2")))
    diag = lambda row: [row[idx[(1, 1)]], row[idx[(2, 2)]], row[idx[(3, 3)]]]
    assert_allclose(diag(row_x), [c, -c, -c], atol=1e-12)
    assert_allclose(diag(row_y), [-c, c, -c], atol=1e-12)


def test_standard_plan_soundness():
    for mode, n_expected in (("two_qubit_gates", 15), ("two_qubit_polarized", 21)):
        plan = tomo.plan_standard(mode, PARAMS)
        assert len(plan.settings) == n_expected
        a, _ = tomo.build_design_matrix(plan)
        assert np.linalg.matrix_rank(a) == 15
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv.max() / sv.min() < 1e4


def test_polarized_plan_has_no_pair_gates():
    plan = tomo.plan_standard("two_qubit_polarized", PARAMS)
    for s in plan.settings:
        assert all(target != "12" for _, target in s.seq.ops)


def test_mixed_targets_rejected():
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    with pytest.raises(ValueError):
        tomo.build_design_matrix(plan)


def test_two_qubit_roundtrip():
    rng = np.random.default_rng(39)
    for mode in ("two_qubit_gates", "two_qubit_polarized"):
        plan = tomo.plan_standard(mode, PARAMS)
        for _ in range(10):
            rho = random_density(4, rng)
            est, coeffs, diag = tomo.reconstruct_two_qubit(
                tomo.run_plan(plan, rho, 0), plan)
            assert trace_distance(rho, est) < 1e-9
            assert diag["rank"] == 15
            assert not diag["psd_repaired"]


def test_reconstruct_examples():
    plan = tomo.plan_standard("two_qubit_gates", PARAMS)
    _, coeffs, _ = tomo.reconstruct_two_qubit(tomo.run_plan(plan, singlet(), 0), plan)
    assert_allclose([coeffs.a[1, 1], coeffs.a[2, 2], coeffs.a[3, 3]],
                    [-1, -1, -1], atol=1e-10)
    _, cw, _ = tomo.reconstruct_two_qubit(tomo.run_plan(plan, werner(0.5), 0), plan)
    assert_allclose([cw.a[1, 1], cw.a[2, 2], cw.a[3, 3]],
                    [-0.5, -0.5, -0.5], atol=1e-10)


def test_rank_deficient_plan_rejected():
    plan = tomo.plan_standard("two_qubit_gates", PARAMS)
    short = tomo.TomographyPlan(mode="two_qubit_gates", settings=plan.settings[:5])
    recs = tomo.run_plan(short, singlet(), 0)
    with pytest.raises(tomo.RankDeficientPlanError):
        tomo.reconstruct_two_qubit(recs, short)


def test_single_qubit_roundtrip_and_clipping():
    rng = np.random.default_rng(41)
    plan = tomo.plan_standard("single_qubit_ancilla", PARAMS)
    for _ in range(10):
        rho = random_density(2, rng)
        est = tomo.reconstruct_single(tomo.run_plan(plan, rho, 0))
        assert trace_distance(rho, est) < 1e-10
    # maximally mixed: all settings coincide, Bloch vector vanishes
    recs = tomo.run_plan(plan, maximally_mixed(2), 0)
    vals = [r.observed_value for r in recs]
    assert max(vals) - min(vals) < 1e-12
    est = tomo.reconstruct_single(recs)
    assert trace_distance(est, maximally_mixed(2)) < 1e-10


def test_flat_design_at_zero_coupling():
    plan = tomo.plan_standard("single_qubit_ancilla", ScatterParams(0.0))
    recs = tomo.run_plan(plan, maximally_mixed(2), 0)
    with pytest.raises(tomo.FlatDesignError):
        tomo.reconstruct_single(recs)


def test_under_determined_one_qubit_records_rejected():
    # Without a z probe a minimum-norm solve would report Bloch z = 0 for
    # this truth; one x probe per target leaves y and z free as well.
    plan = tomo.plan_standard("single_qubit_ancilla", PARAMS)
    recs = tomo.run_plan(plan, bloch_density([0.1, 0.2, 0.9]), 0)
    for short in (recs[:2], recs[:1]):
        with pytest.raises(tomo.RankDeficientPlanError):
            tomo.reconstruct_single(short)
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    recs = tomo.run_plan(plan, random_density(4, np.random.default_rng(3)), 0)
    assert [r.setting.label for r in recs[:1] + recs[3:]] == [
        "anc:x:first", "anc:x:second", "anc:y:second", "anc:z:second"]
    with pytest.raises(tomo.RankDeficientPlanError):
        tomo.reconstruct_marginals(recs[:1] + recs[3:])
    # Each inversion takes its own kind of record only.
    one = tomo.plan_standard("single_qubit_ancilla", PARAMS)
    with pytest.raises(ValueError, match="register records"):
        tomo.reconstruct_two_qubit(tomo.run_plan(one, maximally_mixed(2), 0), one)


def test_marginal_roundtrip():
    rng = np.random.default_rng(43)
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    for _ in range(10):
        rho = random_density(4, rng)
        m1, m2 = tomo.reconstruct_marginals(tomo.run_plan(plan, rho, 0))
        assert trace_distance(partial_trace(rho, "first"), m1) < 1e-10
        assert trace_distance(partial_trace(rho, "second"), m2) < 1e-10


def test_marginal_records_match_coefficients():
    rng = np.random.default_rng(45)
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    rho = random_density(4, rng)
    m1, _ = tomo.reconstruct_marginals(tomo.run_plan(plan, rho, 0))
    a = decompose(rho).a
    from spintomo.qmat import bloch
    b = bloch(m1)
    assert_allclose([b.x, b.y, b.z], [a[1, 0], a[2, 0], a[3, 0]], atol=1e-10)


def test_polarized_injection_design_identity():
    # +-axis rows differ only in the one-qubit vector sums
    rng = np.random.default_rng(47)
    for _ in range(10):
        om = rng.uniform(0.2, 2.0)
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        rho = random_density(4, rng)
        plus = tomo.ideal_value(tomo.MeasurementSetting(
            params=ScatterParams(om), injector_axis=n, injector_sign=+1), rho)
        minus = tomo.ideal_value(tomo.MeasurementSetting(
            params=ScatterParams(om), injector_axis=n, injector_sign=-1), rho)
        coeff = 4 * om**2 / ((1 + 16 * om**2) * (1 + 4 * om**2))
        expected = coeff * float(np.dot(sigma_sum_expectation(rho), n))
        assert abs((plus - minus) - expected) < 1e-12


def test_psd_repair_properties():
    rng = np.random.default_rng(49)
    for _ in range(10):
        # hermitian, unit trace, generally indefinite
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (h + h.conj().T)
        h = h / np.trace(h).real
        repaired, dist, min_eig = tomo._psd_repair(h)
        assert abs(np.trace(repaired).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(repaired).min() > -1e-12
        again, dist2, _ = tomo._psd_repair(repaired)
        assert dist2 == 0.0
        assert_allclose(again, repaired, atol=0)
    # The repair leaves alone exactly what DensityMatrix accepts.
    for scale, moved in ((0.5, False), (2.0, True)):
        low = scale * PSD_TOL
        mat = np.diag([low, 0.25, 0.25, 0.5 - low]).astype(complex)
        repaired, dist, _ = tomo._psd_repair(mat)
        assert (dist > 0.0) == moved
        DensityMatrix(repaired)
        if moved:
            with pytest.raises(InvalidStateError):
                DensityMatrix(mat)


def test_psd_repair_distance_matches_the_difference_spectrum():
    # mat - repaired shares mat's eigenvectors, so the distance is read off
    # the eigenvalues already computed; the spectrum of the difference is
    # the oracle.
    rng = np.random.default_rng(50)
    for _ in range(200):
        evals = rng.normal(0.25, 0.3, size=4)
        evals += (1.0 - evals.sum()) / 4
        u = random_unitary(4, rng)
        h = (u * evals) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        repaired, dist, min_eig = tomo._psd_repair(h)
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(h - repaired)))
        assert abs(dist - oracle) < 1e-12
        assert (dist > 0.0) == (min_eig < PSD_TOL)


def test_noisy_reconstruction_is_physical():
    rng = np.random.default_rng(51)
    plan = tomo.plan_standard("two_qubit_gates", PARAMS)
    rho = ket_density(random_ket(4, rng))  # pure input stresses the PSD boundary
    est, coeffs, diag = tomo.reconstruct_two_qubit(
        tomo.run_plan(plan, rho, 2000, seed=8), plan)
    assert abs(np.trace(est.mat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(est.mat).min() > -1e-12
    if diag["psd_repaired"]:
        assert diag["projection_distance"] > 0.0


def test_run_plan_determinism():
    plan = tomo.plan_standard("two_qubit_gates", PARAMS)
    r1 = tomo.run_plan(plan, singlet(), 5000, seed=3)
    r2 = tomo.run_plan(plan, singlet(), 5000, seed=3)
    r3 = tomo.run_plan(plan, singlet(), 5000, seed=4)
    assert [r.observed_value for r in r1] == [r.observed_value for r in r2]
    assert [r.observed_value for r in r1] != [r.observed_value for r in r3]


def test_pure_state_params_validation():
    with pytest.raises(ValueError):
        tomo.PureStateParams(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        tomo.PureStateParams(-0.5, 0.5, 0.5, 0.5)
    for bad in ((np.nan, 0.0, 0.0, 1.0), (0.5, 0.5, 0.5, 0.5, np.inf),
                (0.5, 0.5, 0.5, 0.5, 0.0, np.nan), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -np.inf)):
        with pytest.raises(ValueError, match="^amplitudes and phases must be finite$"):
            tomo.PureStateParams(*bad)


def test_pure_params_singlet_exchange():
    # the antisymmetric amplitude fixes <sigma1.sigma2> = 1 - 4 a3^2
    from spintomo.qmat import SIGMA_DOT_SIGMA
    for a3 in (0.0, 0.5, 1.0):
        rest = np.sqrt(max(0.0, 1.0 - a3 * a3))
        p = tomo.PureStateParams(rest, 0.0, a3, 0.0)
        got = p.density().expect(SIGMA_DOT_SIGMA)
        assert abs(got - (1 - 4 * a3**2)) < 1e-12


def test_pure_fit_roundtrip_sample():
    rng = np.random.default_rng(53)
    plan = tomo.plan_standard("pure_state", PARAMS)
    for _ in range(10):
        rho = ket_density(random_ket(4, rng))
        fit = tomo.reconstruct_pure(tomo.run_plan(plan, rho, 0))
        assert fidelity(rho, fit.params.density()) > 1 - 1e-8
        assert fit.residual < 1e-6 * len(plan.settings)


def test_pure_fit_parameter_recovery():
    truth = tomo.PureStateParams(0.5, 0.5, 0.5, 0.5, th1=0.3, th2=-1.1, th4=2.0)
    plan = tomo.plan_standard("pure_state", PARAMS)
    fit = tomo.reconstruct_pure(tomo.run_plan(plan, truth.density(), 0))
    assert_allclose([fit.params.a1, fit.params.a2, fit.params.a3, fit.params.a4],
                    [0.5, 0.5, 0.5, 0.5], atol=1e-9)
    assert_allclose([fit.params.th1, fit.params.th2, fit.params.th4],
                    [0.3, -1.1, 2.0], atol=1e-7)
    assert fit.unconstrained == ()


def test_pure_fit_degenerate_flags():
    plan = tomo.plan_standard("pure_state", PARAMS)
    f = tomo.reconstruct_pure(tomo.run_plan(
        plan, ket_density(np.array([1, 0, 0, 0], dtype=complex)), 0))
    assert abs(f.params.a1 - 1.0) < 1e-8
    assert set(f.unconstrained) == {"th1", "th2", "th4"}
    s = tomo.reconstruct_pure(tomo.run_plan(plan, singlet(), 0))
    assert abs(s.params.a3 - 1.0) < 1e-8
    assert set(s.unconstrained) == {"th1", "th2", "th4"}


def test_pure_fit_rejects_detectably_mixed_input():
    plan = tomo.plan_standard("pure_state", PARAMS)
    mixed = DensityMatrix(
        0.5 * ket_density(np.array([1, 0, 0, 0], dtype=complex)).mat
        + 0.5 * ket_density(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)).mat)
    with pytest.raises(tomo.PureFitError):
        tomo.reconstruct_pure(tomo.run_plan(plan, mixed, 0))


@pytest.mark.parametrize("phi", [np.pi / 2, 3 * np.pi / 4])
def test_pure_fit_rejects_unidentifiable_ket(phi):
    # The plan cannot tell (|00> + e^{i phi}|11>)/sqrt2 from a twin state
    # with the same records; the fit must say so, not return either one.
    plan = tomo.plan_standard("pure_state", PARAMS)
    ket = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / np.sqrt(2.0)
    with pytest.raises(tomo.PureFitError, match="cannot identify"):
        tomo.reconstruct_pure(tomo.run_plan(plan, ket_density(ket), 0))


@pytest.mark.parametrize("phi", [0.0, np.pi])
def test_pure_fit_identifies_real_bell_kets(phi):
    plan = tomo.plan_standard("pure_state", PARAMS)
    rho = ket_density(np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / np.sqrt(2.0))
    fit = tomo.reconstruct_pure(tomo.run_plan(plan, rho, 0))
    assert fidelity(rho, fit.params.density()) > 1 - 1e-8


@pytest.mark.parametrize("shots, seed", [(0, 61), (0, 62), (10_000, 63), (100_000, 64)])
def test_batched_pure_fit_starts_do_not_couple(shots, seed):
    # Fitting all 32 starts as one stack gives each start the ket and the
    # residual it reaches on its own, whatever the others do.
    rng = np.random.default_rng(seed)
    plan = tomo.plan_standard("pure_state", ScatterParams(rng.uniform(0.5, 1.5)))
    records = tomo.run_plan(plan, ket_density(random_ket(4, rng)), shots, seed=seed)
    qt, b, y, w, chi0 = tomo._pure_model(records)
    starts = np.vstack([tomo._branch_kets(chi0), tomo._restart_kets(chi0)])
    kets, res = tomo._fit_kets(starts, qt, b, y, w)
    assert kets.shape == (32, 4) and res.shape == (32,)
    for k, start in enumerate(starts):
        ket, r = tomo._fit_kets(start[None], qt, b, y, w)
        assert abs(r[0] - res[k]) < 1e-12
        assert abs(np.vdot(ket[0], kets[k])) ** 2 > 1.0 - 1e-12


def test_pure_model_forms_are_built_once_per_design():
    plan = tomo.plan_standard("pure_state", ScatterParams(0.8))
    records = tomo.run_plan(plan, singlet(), 10_000, seed=5)
    qt = tomo._pure_model(records)[0]
    a, _ = tomo.build_design_matrix(plan)
    assert qt is tomo._design(plan.settings)[6]
    assert qt.tobytes() == tomo._real_forms(a).tobytes()
    assert qt.flags.writeable is False
    assert tomo._pure_model(tomo.run_plan(plan, singlet(), 0))[0] is qt
    ancilla = tomo.plan_standard("single_qubit_ancilla", ScatterParams(0.8))
    assert tomo._design(ancilla.settings)[6] is None


def _count_batches(monkeypatch) -> list:
    """Record the number of starts of every _fit_kets call from now on."""
    batches = []
    fit_kets = tomo._fit_kets
    monkeypatch.setattr(tomo, "_fit_kets",
                        lambda starts, *args: batches.append(len(starts)) or fit_kets(starts, *args))
    return batches


def _fit_summary(kets, res):
    """(best ket, best residual, branch_gap) of a set of fits, the way
    reconstruct_pure reads them."""
    order = np.argsort(res, kind="stable")
    gaps = res[res > res[order[0]] + 1e-9]
    return kets[order[0]], res[order[0]], (gaps.min() - res[order[0]]) if gaps.size else 0.0


def test_restart_kets_are_the_seeded_draws():
    rng = np.random.default_rng(71)
    for chi0 in [np.zeros(3), np.full(3, np.pi / 2), np.array([0.1, 1.5, 0.7]),
                 rng.uniform(0.0, np.pi / 2, 3), rng.uniform(-1.0, 3.0, 3)]:
        draws = np.random.default_rng(7)
        chi, phases = [], []
        for _ in range(24):
            chi.append(np.clip(chi0 + draws.normal(0.0, 0.15, 3), 0.0, np.pi / 2))
            phases.append(draws.uniform(-np.pi, np.pi, 3))
        want = tomo._pure_ket(tomo._amps_from_angles(np.array(chi).T), np.array(phases).T).T
        assert np.array_equal(tomo._restart_kets(chi0), want)


@pytest.mark.parametrize("shots, seed", [(10_000, 81), (100_000, 82), (10_000, 83)])
def test_noisy_pure_fit_equals_branches_then_restarts(shots, seed, monkeypatch):
    # One batch of all 32 starts reports what fitting the 8 branches and
    # then the 24 restarts reports.
    rng = np.random.default_rng(seed)
    plan = tomo.plan_standard("pure_state", ScatterParams(rng.uniform(0.5, 1.5)))
    records = tomo.run_plan(plan, ket_density(random_ket(4, rng)), shots, seed=seed)
    qt, b, y, w, chi0 = tomo._pure_model(records)
    kets, res = tomo._fit_kets(tomo._branch_kets(chi0), qt, b, y, w)
    assert res.min() > 1e-9
    more_kets, more_res = tomo._fit_kets(tomo._restart_kets(chi0), qt, b, y, w)
    best, best_res, gap = _fit_summary(np.concatenate([kets, more_kets]),
                                       np.concatenate([res, more_res]))
    batches = _count_batches(monkeypatch)
    fit = tomo.reconstruct_pure(records)
    assert batches == [32]
    assert abs(fit.residual - best_res) < 1e-12
    assert abs(fit.branch_gap - gap) < 1e-12
    assert abs(np.vdot(fit.params.ket(), best)) ** 2 > 1.0 - 1e-12


def test_noiseless_pure_fit_reports_no_restarts_when_a_branch_lands(monkeypatch):
    rng = np.random.default_rng(84)
    plan = tomo.plan_standard("pure_state", PARAMS)
    records = tomo.run_plan(plan, ket_density(random_ket(4, rng)), 0)
    qt, b, y, w, chi0 = tomo._pure_model(records)
    kets, res = tomo._fit_kets(tomo._branch_kets(chi0), qt, b, y, w)
    assert res.min() <= 1e-9
    _, best_res, gap = _fit_summary(kets, res)
    batches = _count_batches(monkeypatch)
    fit = tomo.reconstruct_pure(records)
    assert batches == [8]
    assert fit.residual == best_res and fit.branch_gap == gap


def test_pure_fit_refuses_twin_of_a_non_best_fit(monkeypatch):
    # For a ket in span(|01>, |10>) the qubit swap of its complex conjugate
    # gives the same records, and its plain conjugate does not.  With the
    # truth as the best fit and the swapped truth as a second, poorer fit,
    # the twin shows only as the conjugate of that second fit.
    truth = np.array([0.0, 0.6, 0.8 * np.exp(0.7j), 0.0])
    swapped = truth[[0, 2, 1, 3]]
    records = tomo.run_plan(tomo.plan_standard("pure_state", PARAMS), ket_density(truth), 0)
    qt, b, y, w, _ = tomo._pure_model(records)

    def residuals(kets):
        x = np.concatenate([kets.real, kets.imag], axis=1)
        return np.linalg.norm(tomo._ket_model(x, qt, b, y, w)[0], axis=1)

    fits = np.array([truth, swapped])
    assert residuals(fits)[0] < 1e-12 < 1e-6 < residuals(fits)[1]
    assert residuals(fits.conj())[0] > 1e-6 and residuals(fits.conj())[1] < 1e-12
    monkeypatch.setattr(tomo, "_fit_kets", lambda starts, *args: (fits, residuals(fits)))
    with pytest.raises(tomo.PureFitError, match="cannot identify"):
        tomo.reconstruct_pure(records)


def test_pure_fit_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tomo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from spintomo import qmat, tomo\n"
            "from spintomo.scatter import ScatterParams\n"
            "plan = tomo.plan_standard('pure_state', ScatterParams(1.0))\n"
            "tomo.reconstruct_pure(tomo.run_plan(plan, qmat.werner(1.0), 0))\n"
            "sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_setting_json_writes_a_null_detector_axis():
    # Settings record total transmission only: the format keeps the field
    # as null.
    for mode in tomo.MODES:
        plan = tomo.plan_standard(mode, ScatterParams(0.7, 0.2))
        obj = tomo.plan_to_json(plan)
        assert all(s["detector_axis"] is None for s in obj["settings"])
    rec = tomo.measure(plan.settings[0], singlet(), 100, 5)
    out = tomo.record_to_json(rec)
    assert out["setting"] == obj["settings"][0]
    assert out["observed_value"] == rec.observed_value
    assert out["standard_error"] == rec.standard_error


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("omega", [0.7, 1.0])
def test_pure_fit_rejects_conjugate_twin(omega, k):
    # (|00> + e^{i k pi/4}|11>)/sqrt2 and its complex conjugate give the same
    # records; the refusal must not depend on which of them the fits reach.
    plan = tomo.plan_standard("pure_state", ScatterParams(omega))
    ket = np.array([1.0, 0.0, 0.0, np.exp(1j * k * np.pi / 4)]) / np.sqrt(2.0)
    with pytest.raises(tomo.PureFitError, match="cannot identify"):
        tomo.reconstruct_pure(tomo.run_plan(plan, ket_density(ket), 0))


def refusals(records, orderings: int, seed: int) -> set:
    """The pure fit's refusal messages over random orderings of the records."""
    rng = np.random.default_rng(seed)
    messages = set()
    for _ in range(orderings):
        with pytest.raises(tomo.PureFitError, match="cannot identify") as info:
            tomo.reconstruct_pure([records[i] for i in rng.permutation(len(records))])
        messages.add(str(info.value))
    return messages


def test_pure_refusal_does_not_depend_on_record_order():
    # Rivals whose residuals differ by rounding swap places when the records
    # are reordered; the refusal names the least similar one, so every
    # ordering reports one infidelity.
    records = tomo.run_plan(tomo.plan_standard("pure_state", PARAMS), werner(0.5), 0)
    assert refusals(records, 12, 81) == {
        "fits that reproduce the records equally well reach states of infidelity 9.4e-01; "
        "the plan cannot identify the state"}
    plan = tomo.plan_standard("pure_state", ScatterParams(0.7))
    for k in (1, 2, 3, 5, 6, 7):
        ket = np.array([1.0, 0.0, 0.0, np.exp(1j * k * np.pi / 4)]) / np.sqrt(2.0)
        messages = refusals(tomo.run_plan(plan, ket_density(ket), 0), 10, 82 + k)
        assert len(messages) == 1 and "fidelity 1.000000" not in messages.pop()
    # Near the blind spot the fits resolve the state to a few 1e-8 only, so
    # the rival's infidelity is printed as a bound, not as fidelity 1.000000.
    # It straddles the 1e-8 threshold: a few orderings in a hundred accept.
    records = tomo.run_plan(tomo.plan_standard("pure_state", ScatterParams(0.5, 0.4964046)),
                            singlet(), 0)
    rng = np.random.default_rng(90)
    messages = set()
    for _ in range(10):
        try:
            tomo.reconstruct_pure([records[i] for i in rng.permutation(len(records))])
        except tomo.PureFitError as err:
            messages.add(str(err))
    assert messages == {
        "fits that reproduce the records equally well reach states of infidelity < 1e-6; "
        "the plan cannot identify the state"}


def test_unpolarized_flying_state_is_built_once():
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(1.0, 0.2))
    states = {id(tomo._flying_state(s)) for s in plan.settings}
    assert len(states) == 1
    assert tomo._flying_state(plan.settings[0]).mat.flags.writeable is False


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 24), n=st.integers(1, 16),
       deficit=st.integers(0, 16), small=st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-12]),
       scale=st.integers(-12, 12))
def test_rank_from_singular_values_matches_matrix_rank(seed, m, n, deficit, small, scale):
    # Random designs, designs whose last `deficit` singular values (all but
    # one at most) are zero or `small`, spanning matrix_rank's tolerance
    # S.max * max(m, n) * eps, and the zero design.
    rng = np.random.default_rng(seed)
    r = min(m, n)
    k = max(r - deficit, 1)
    u, _ = np.linalg.qr(rng.normal(size=(m, r)))
    v, _ = np.linalg.qr(rng.normal(size=(n, r)))
    s = np.concatenate([rng.uniform(0.5, 2.0, k), small * rng.uniform(1.0, 10.0, r - k)])
    a = (u * s) @ v.T * 10.0 ** scale
    svals = np.linalg.svd(a, compute_uv=False)
    assert tomo._rank(svals, a.shape) == np.linalg.matrix_rank(a)
    zero = np.zeros((m, n))
    assert tomo._rank(np.linalg.svd(zero, compute_uv=False), zero.shape) == 0
