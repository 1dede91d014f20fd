"""Acceptance gate: ten numbered criteria, one test (one pass/fail line
under pytest -v) per criterion, at the stated tolerances."""
import numpy as np
from numpy.testing import assert_allclose

from spintomo import engine as eng
from spintomo import gates as g
from spintomo import tomo
from spintomo.qmat import (
    DensityMatrix,
    PAULI_PAIRS,
    SIGMA_DOT_SIGMA,
    fidelity,
    ket_density,
    maximally_mixed,
    partial_trace,
    polarized_qubit,
    random_density,
    random_ket,
    random_unitary,
    singlet,
    trace_distance,
)
from spintomo.scatter import (
    FrozenSpin,
    ScatterParams,
    cascade,
    embed_block,
    frozen_block,
    frozen_pair_pt,
    frozen_t,
    pt_unpolarized_closed_form,
    qubit_block,
    qubit_t_single,
    transmission_probability,
    two_impurity_block,
)

TRIPLET00 = ket_density(np.array([1, 0, 0, 0], dtype=complex))


def _unpolarized_full(rho4):
    return DensityMatrix(np.kron(maximally_mixed(2).mat, rho4.mat))


def test_criterion_01_frozen_spin_unitarity():
    # t^dag t = I/(1+Omega^2) for 100 random couplings and spin directions
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        om = rng.uniform(0.01, 5.0)
        n = rng.normal(size=3)
        t = frozen_t(ScatterParams(om), FrozenSpin(n / np.linalg.norm(n)))
        worst = max(worst, float(np.max(np.abs(
            t.conj().T @ t - np.eye(2) / (1.0 + om * om)))))
    assert worst < 1e-12


def test_criterion_02_frozen_pair_closed_form():
    # cascaded frozen pair equals 1/(1+2 Omega^2 (1+cos theta)) on a 20x20 grid
    worst = 0.0
    for om in np.linspace(0.05, 3.0, 20):
        params = ScatterParams(om, 0.0)
        b1 = frozen_block(params, FrozenSpin.from_angles(0.0))
        for th in np.linspace(0.0, np.pi, 20):
            b2 = frozen_block(params, FrozenSpin.from_angles(th))
            pt = transmission_probability(cascade(b1, b2, params), maximally_mixed(2))
            worst = max(worst, abs(pt - frozen_pair_pt(params, th)))
    assert worst < 1e-10


def test_criterion_03_single_impurity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        om = rng.uniform(0.05, 4.0)
        t = qubit_t_single(ScatterParams(om))
        d = 3.0 * om + 1j
        expected = np.array([
            [1, 0, 0, 0],
            [0, (om + 1j) / d, 2 * om / d, 0],
            [0, 2 * om / d, (om + 1j) / d, 0],
            [0, 0, 0, 1],
        ], dtype=complex) / (1.0 + 1j * om)
        worst = max(worst, float(np.max(np.abs(t - expected))))
    assert worst < 1e-12
    # z-polarized flying spin against a static spin at polar angle theta
    worst_pt = 0.0
    for _ in range(20):
        om = rng.uniform(0.05, 3.0)
        th = rng.uniform(0.0, np.pi)
        full = DensityMatrix(np.kron(
            polarized_qubit("z").mat,
            polarized_qubit([np.sin(th), 0.0, np.cos(th)]).mat))
        pt = transmission_probability(qubit_block(ScatterParams(om)), full)
        formula = (7 * om**2 + 1 + 2 * om**2 * np.cos(th)) / ((om**2 + 1) * (9 * om**2 + 1))
        worst_pt = max(worst_pt, abs(pt - formula))
    assert worst_pt < 1e-10


def test_criterion_04_two_impurity_closed_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        om = rng.uniform(0.05, 3.0)
        params = ScatterParams(om, 0.0)
        rho = random_density(4, rng)
        oracle = transmission_probability(two_impurity_block(params), _unpolarized_full(rho))
        worst = max(worst, abs(oracle - pt_unpolarized_closed_form(params, rho)))
    assert worst < 1e-10
    for om in np.linspace(0.1, 5.0, 50):
        pt = transmission_probability(two_impurity_block(ScatterParams(om)),
                                      _unpolarized_full(singlet()))
        assert abs(pt - 1.0) < 1e-12
    for om in np.linspace(0.1, 5.0, 25):
        pt = transmission_probability(two_impurity_block(ScatterParams(om)),
                                      _unpolarized_full(TRIPLET00))
        formula = (1 + 12 * om**2) / ((1 + 16 * om**2) * (1 + 4 * om**2))
        assert abs(pt - formula) < 1e-12


def test_criterion_05_symmetry_suite():
    rng = np.random.default_rng(105)
    # collective single-qubit basis change leaves transmission alone
    worst = 0.0
    for _ in range(50):
        params = ScatterParams(rng.uniform(0.1, 2.5), rng.uniform(0, 2 * np.pi))
        block = two_impurity_block(params)
        rho = random_density(4, rng)
        flying = random_density(2, rng)
        u = random_unitary(2, rng)
        uu = np.kron(u, u)
        p1 = transmission_probability(block, DensityMatrix(np.kron(flying.mat, rho.mat)))
        p2 = transmission_probability(block, DensityMatrix(np.kron(
            u @ flying.mat @ u.conj().T, uu @ rho.mat @ uu.conj().T)))
        worst = max(worst, abs(p1 - p2))
    assert worst < 1e-10
    # coupling-sign symmetry (at zero inter-impurity phase, where the
    # scatterers are indistinguishable up to time reversal)
    for _ in range(20):
        om = rng.uniform(0.05, 3.0)
        full = DensityMatrix(np.kron(random_density(2, rng).mat,
                                     random_density(4, rng).mat))
        p_plus = transmission_probability(two_impurity_block(ScatterParams(om)), full)
        p_minus = transmission_probability(two_impurity_block(ScatterParams(-om)), full)
        assert abs(p_plus - p_minus) < 1e-10
    # spectator: unitaries on the uncoupled qubit leave single-impurity
    # transmission untouched, even on entangled registers
    block1 = embed_block(qubit_block(ScatterParams(0.9)), "first")
    for _ in range(20):
        rho = random_density(4, rng)
        u = np.kron(np.eye(2, dtype=complex), random_unitary(2, rng))
        rho_rot = DensityMatrix(u @ rho.mat @ u.conj().T)
        p1 = transmission_probability(block1, _unpolarized_full(rho))
        p2 = transmission_probability(block1, _unpolarized_full(rho_rot))
        assert abs(p1 - p2) < 1e-12


def test_criterion_06_gate_conjugation_oracles():
    idx = {p: k for k, p in enumerate(PAULI_PAIRS)}

    def check_signed_permutation(seq_text, mapping):
        # mapping: (i,j) -> (source pair, sign); everything else identity
        t = g.coefficient_transfer_matrix(g.parse_sequence(seq_text))
        expected = np.zeros((15, 15))
        for pair in PAULI_PAIRS:
            src, sign = mapping.get(pair, (pair, 1.0))
            expected[idx[pair], idx[src]] = sign
        assert_allclose(t, expected, atol=1e-12)

    # X on qubit 2 flips the second-index y and z components
    check_signed_permutation("X@2", {
        (i, j): ((i, j), -1.0) for i in range(4) for j in (2, 3) if (i, j) != (0, 0)})
    # Y on qubit 2 flips the second-index x and z components
    check_signed_permutation("Y@2", {
        (i, j): ((i, j), -1.0) for i in range(4) for j in (1, 3) if (i, j) != (0, 0)})
    # quarter turn about y: z -> x and x -> -z on the rotated qubit
    mapping = {}
    for i in range(4):
        if (i, 1) != (0, 0):
            mapping[(i, 1)] = ((i, 3), 1.0)
        if (i, 3) != (0, 0):
            mapping[(i, 3)] = ((i, 1), -1.0)
    check_signed_permutation("Ry90@2", mapping)
    # sqrtSWAP preserves the exchange expectation
    rng = np.random.default_rng(106)
    seq = g.sequence("sqrtSWAP@12")
    for _ in range(20):
        rho = random_density(4, rng)
        assert abs(rho.expect(SIGMA_DOT_SIGMA)
                   - g.apply(seq, rho).expect(SIGMA_DOT_SIGMA)) < 1e-12


def test_criterion_07_tomography_roundtrips():
    rng = np.random.default_rng(107)
    params = ScatterParams(1.0)
    for mode in ("two_qubit_gates", "two_qubit_polarized"):
        plan = tomo.plan_standard(mode, params)
        for _ in range(50):
            rho = random_density(4, rng)
            est, _, _ = tomo.reconstruct_two_qubit(tomo.run_plan(plan, rho, 0), plan)
            assert trace_distance(rho, est) < 1e-9
    plan = tomo.plan_standard("single_qubit_ancilla", params)
    for _ in range(50):
        rho = random_density(2, rng)
        est = tomo.reconstruct_single(tomo.run_plan(plan, rho, 0))
        assert trace_distance(rho, est) < 1e-9
    plan = tomo.plan_standard("first_qubit_marginal", params)
    for _ in range(50):
        rho = random_density(4, rng)
        m1, m2 = tomo.reconstruct_marginals(tomo.run_plan(plan, rho, 0))
        assert trace_distance(partial_trace(rho, "first"), m1) < 1e-9
        assert trace_distance(partial_trace(rho, "second"), m2) < 1e-9
    plan = tomo.plan_standard("pure_state", params)
    for _ in range(100):
        rho = ket_density(random_ket(4, rng))
        fit = tomo.reconstruct_pure(tomo.run_plan(plan, rho, 0))
        assert fidelity(rho, fit.params.density()) > 1 - 1e-8


def test_criterion_08_shot_noise_scaling():
    rng = np.random.default_rng(108)
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(1.0))
    rho = random_density(4, rng)
    levels = [10_000, 100_000, 1_000_000]
    medians = []
    for shots in levels:
        errs = []
        for rep in range(21):
            recs = tomo.run_plan(plan, rho, shots, seed=9000 + rep)
            est, _, _ = tomo.reconstruct_two_qubit(recs, plan)
            errs.append(trace_distance(rho, est))
        medians.append(float(np.median(errs)))
    slope = np.polyfit(np.log10(levels), np.log10(medians), 1)[0]
    assert -0.6 < slope < -0.4


def test_criterion_09_heat_engine():
    # an in-phase mirror cancels the interaction outright (the round trip
    # reconstructs the incident wave), so the attainment run uses the
    # quarter-wave mirror setting, which is the shipped default
    for om in (0.3, 0.5, 1.0):
        r = eng.reflection_channel(ScatterParams(om), 0.0)
        assert_allclose(r, -np.eye(4), atol=1e-12)
    config = eng.EngineConfig(params=ScatterParams(0.5),
                              mirror_phase=eng.DEFAULT_MIRROR_PHASE,
                              max_iters=200, tol=1e-10)
    # channel preserves trace at every step
    rng = np.random.default_rng(109)
    for kind in ("polarized", "unpolarized"):
        rho = random_density(2, rng)
        for _ in range(30):
            rho = eng.interact_once(rho, eng.Reservoir(kind), config)
            assert abs(float(np.trace(rho.mat).real) - 1.0) < 1e-12
    # fixed points
    aligned = polarized_qubit("z")
    assert trace_distance(
        eng.interact_once(aligned, eng.Reservoir("polarized"), config), aligned) < 1e-10
    mixed = maximally_mixed(2)
    assert trace_distance(
        eng.interact_once(mixed, eng.Reservoir("unpolarized"), config), mixed) < 1e-10
    # full cycle at Omega = 0.5: converges within 200 iterations and moves
    # more than half the maximal entropy, never more than ln 2
    trace = eng.run_cycle(maximally_mixed(2), config)
    assert trace.fm_converged and trace.fm_iterations <= 200
    assert trace.nm_converged and trace.nm_iterations <= 200
    assert trace.entropy_transferred_nats <= np.log(2) + 1e-9
    assert trace.entropy_transferred_nats > 0.5 * np.log(2)


def test_criterion_10_large_coupling_optimality():
    pt_triplet = transmission_probability(two_impurity_block(ScatterParams(10.0)),
                                          _unpolarized_full(TRIPLET00))
    assert pt_triplet < 0.01
    pt_singlet = transmission_probability(two_impurity_block(ScatterParams(10.0)),
                                          _unpolarized_full(singlet()))
    assert abs(pt_singlet - 1.0) < 1e-12
    # transparency is first-order flat in the coupling at the singlet
    h = 1e-4
    for om in (0.5, 1.0, 10.0):
        p_hi = transmission_probability(two_impurity_block(ScatterParams(om + h)),
                                        _unpolarized_full(singlet()))
        p_lo = transmission_probability(two_impurity_block(ScatterParams(om - h)),
                                        _unpolarized_full(singlet()))
        assert abs((p_hi - p_lo) / (2 * h)) < 1e-8
