import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spintomo.qmat import (
    DensityMatrix,
    decompose,
    ket_density,
    maximally_mixed,
    n_dot_sigma,
    polarized_qubit,
    random_density,
    random_unitary,
    singlet,
)
from spintomo.scatter import (
    FrozenSpin,
    ResonantCascadeError,
    ScatterBlock,
    ScatterParams,
    _dagger,
    cascade,
    embed_block,
    flying_polarization_out,
    frozen_block,
    frozen_pair_pt,
    frozen_t,
    full_input_state,
    pt_polarized_input,
    pt_unpolarized_closed_form,
    qubit_block,
    qubit_t_single,
    reflection_probability,
    sigma_sum_expectation,
    transmission_probability,
    transmitted_polarization,
    transparent_block,
    two_impurity_block,
    two_impurity_cascade,
)


def _full(rho4, flying=None):
    f = maximally_mixed(2) if flying is None else flying
    return DensityMatrix(np.kron(f.mat, rho4.mat))


def test_params_validation():
    with pytest.raises(ValueError):
        ScatterParams(np.inf)
    with pytest.raises(ValueError):
        ScatterParams(1.0, np.nan)


def test_params_store_single_points_as_floats():
    for params in (ScatterParams(2, -0.0), ScatterParams(np.float32(2.0), np.int64(0))):
        assert type(params.omega) is float and type(params.kd_phase) is float
        assert (params.omega, np.copysign(1.0, params.kd_phase)) == (2.0, 1.0)
    grid = ScatterParams(1.0, [-0.0, 0.5])
    assert np.copysign(1.0, grid.kd_phase[0]) == -1.0


def test_frozen_spin_unit_norm():
    with pytest.raises(ValueError):
        FrozenSpin(np.array([1.0, 1.0, 0.0]))
    s = FrozenSpin.from_angles(np.pi / 3, 0.7)
    assert abs(np.linalg.norm(s.n_hat) - 1.0) < 1e-12


def test_frozen_t_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        om = rng.uniform(0.05, 4.0)
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        t = frozen_t(ScatterParams(om), FrozenSpin(n))
        expected = (np.eye(2, dtype=complex) - 1j * om * n_dot_sigma(n)) / (1.0 + om * om)
        assert_allclose(t, expected, atol=1e-13)
        # transmission probability is spin-direction independent
        assert_allclose(t.conj().T @ t, np.eye(2) / (1.0 + om * om), atol=1e-13)


def test_block_unitarity_enforced():
    dim = 2
    with pytest.raises(ValueError):
        ScatterBlock(r=np.zeros((dim, dim), dtype=complex),
                     t=0.5 * np.eye(dim, dtype=complex),
                     r_prime=np.zeros((dim, dim), dtype=complex),
                     t_prime=0.5 * np.eye(dim, dtype=complex))


def test_frozen_pair_closed_form_grid():
    for om in np.linspace(0.1, 3.0, 8):
        params = ScatterParams(om)
        for th in np.linspace(0.0, np.pi, 8):
            b = cascade(frozen_block(params, FrozenSpin.from_angles(0.0)),
                        frozen_block(params, FrozenSpin.from_angles(th)), params)
            pt = transmission_probability(b, maximally_mixed(2))
            assert abs(pt - frozen_pair_pt(params, th)) < 1e-12
            assert abs(frozen_pair_pt(params, th)
                       - 1.0 / (1.0 + 2 * om * om * (1 + np.cos(th)))) < 1e-14


def test_frozen_pair_requires_zero_phase():
    with pytest.raises(ValueError):
        frozen_pair_pt(ScatterParams(1.0, 0.4), 0.3)


def test_single_impurity_entries():
    rng = np.random.default_rng(4)
    for _ in range(10):
        om = rng.uniform(0.05, 4.0)
        t = qubit_t_single(ScatterParams(om))
        d = 3.0 * om + 1j
        expected = np.array([
            [1, 0, 0, 0],
            [0, (om + 1j) / d, 2 * om / d, 0],
            [0, 2 * om / d, (om + 1j) / d, 0],
            [0, 0, 0, 1],
        ], dtype=complex) / (1.0 + 1j * om)
        assert_allclose(t, expected, atol=1e-13)


def test_single_impurity_block_identity():
    # r = t - I ties reflection to transmission for the delta coupling
    b = qubit_block(ScatterParams(0.8))
    assert_allclose(b.r, b.t - np.eye(4), atol=1e-13)
    assert_allclose(b.t_prime, b.t, atol=1e-13)


def test_pointlike_blocks_share_one_layout():
    # r = t - I bit for bit, and primed = unprimed, at one point and on a grid
    spins = FrozenSpin(np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]))
    for omega, spin in ((0.8, FrozenSpin.from_angles(0.4, 1.1)), (np.array([0.3, 1.7]), spins)):
        params = ScatterParams(omega)
        for b in (frozen_block(params, spin), qubit_block(params), transparent_block(8)):
            assert_array_equal(b.r, b.t - np.eye(b.dim))
            assert_array_equal(b.r_prime, b.r)
            assert_array_equal(b.t_prime, b.t)


def test_zpolarized_single_impurity_pt():
    # flying |0>, static at polar angle theta
    rng = np.random.default_rng(8)
    for _ in range(20):
        om = rng.uniform(0.05, 3.0)
        th = rng.uniform(0.0, np.pi)
        block = qubit_block(ScatterParams(om))
        static = polarized_qubit([np.sin(th), 0.0, np.cos(th)])
        full = DensityMatrix(np.kron(polarized_qubit("z").mat, static.mat))
        pt = transmission_probability(block, full)
        expected = (7 * om**2 + 1 + 2 * om**2 * np.cos(th)) / ((om**2 + 1) * (9 * om**2 + 1))
        assert abs(pt - expected) < 1e-12


def test_transparent_cascade_identity():
    params = ScatterParams(1.3)
    b = qubit_block(params)
    for order in ((b, transparent_block(4)), (transparent_block(4), b)):
        c = cascade(order[0], order[1], params)
        assert_allclose(c.t, b.t, atol=1e-13)
        assert_allclose(c.r, b.r, atol=1e-13)


def test_two_impurity_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        om = rng.uniform(0.05, 3.0)
        params = ScatterParams(om)
        rho = random_density(4, rng)
        pt = transmission_probability(two_impurity_block(params), _full(rho))
        assert abs(pt - pt_unpolarized_closed_form(params, rho)) < 1e-12


def test_closed_forms_refuse_an_omega_whose_square_overflows():
    # omega**2 overflows a float past |omega| ~ 1.34e154; one such point
    # refuses a whole grid
    closed_forms = (
        lambda p: pt_unpolarized_closed_form(p, singlet()),
        lambda p: transmitted_polarization(p, singlet()),
        lambda p: pt_polarized_input(p, singlet(), "z"),
        lambda p: frozen_pair_pt(p, 0.3),
    )
    for closed_form in closed_forms:
        for omega in (1e200, -1e200, [0.5, 1e200, 1.0]):
            with pytest.raises(ValueError, match="omega"):
                closed_form(ScatterParams(omega))
        assert np.all(np.isfinite(closed_form(ScatterParams([0.5, 1.0]))))


def test_unpolarized_closed_forms_refuse_an_overflowing_denominator():
    # Past |omega| ~ 4.1e76 omega**2 is finite but (1 + 16 w2)(1 + 4 w2)
    # overflows; the three unpolarized closed forms refuse such a point, and
    # one such point refuses a whole grid, without a numpy warning.
    closed_forms = (
        lambda p: pt_unpolarized_closed_form(p, singlet()),
        lambda p: transmitted_polarization(p, singlet()),
        lambda p: pt_polarized_input(p, singlet(), "z"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for closed_form in closed_forms:
            for omega in (5e76, -1e100, [0.5, 5e76], [1e100, 1.0]):
                with pytest.raises(ValueError, match="omega"):
                    closed_form(ScatterParams(omega))
        rho = DensityMatrix(0.3 * singlet().mat + 0.7 * np.eye(4) / 4)
        assert abs(pt_unpolarized_closed_form(ScatterParams(3e76), rho) - 0.475) < 1e-12
        # The frozen pair's denominator stays finite: it is not refused.
        for omega in (5e76, 1e100, [0.5, 1e100]):
            assert np.all(np.isfinite(frozen_pair_pt(ScatterParams(omega), 0.3)))


def test_closed_form_requires_zero_phase():
    with pytest.raises(ValueError):
        pt_unpolarized_closed_form(ScatterParams(1.0, 0.2), singlet())


def test_singlet_transparent_all_omega():
    for om in (0.1, 0.5, 1.0, 2.0, 5.0):
        pt = transmission_probability(two_impurity_block(ScatterParams(om)), _full(singlet()))
        assert abs(pt - 1.0) < 1e-12


def test_triplet_suppression():
    t00 = ket_density(np.array([1, 0, 0, 0], dtype=complex))
    pt = transmission_probability(two_impurity_block(ScatterParams(0.5)), _full(t00))
    assert abs(pt - 0.4) < 1e-12
    pt10 = transmission_probability(two_impurity_block(ScatterParams(10.0)), _full(t00))
    assert pt10 < 0.01


def test_singlet_phase_detuning_frozen_values():
    # the perfect singlet transparency is specific to zero inter-impurity phase
    expected = {0.3: 0.11472320358858214,
                np.pi / 3: 0.020293105165258364,
                1.5: 0.024428539682945217}
    for kd, val in expected.items():
        pt = transmission_probability(two_impurity_block(ScatterParams(1.0, kd)),
                                      _full(singlet()))
        assert abs(pt - val) < 1e-10
    pt0 = transmission_probability(two_impurity_block(ScatterParams(1.0, 2 * np.pi)),
                                   _full(singlet()))
    assert abs(pt0 - 1.0) < 1e-10


def test_transmission_plus_reflection_is_one():
    rng = np.random.default_rng(14)
    for _ in range(10):
        params = ScatterParams(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * np.pi))
        block = two_impurity_block(params)
        full = DensityMatrix(np.kron(random_density(2, rng).mat, random_density(4, rng).mat))
        total = transmission_probability(block, full) + reflection_probability(block, full)
        assert abs(total - 1.0) < 1e-12


def test_unpolarized_depends_only_on_sigma_dot_sigma():
    # states with equal <sigma1.sigma2> transmit identically, any phase:
    # compare against the singlet/triplet mixture with the same overlap
    rng = np.random.default_rng(16)
    sing = singlet().mat
    triplet_part = (np.eye(4, dtype=complex) - sing) / 3.0
    for _ in range(10):
        params = ScatterParams(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * np.pi))
        block = two_impurity_block(params)
        rho = random_density(4, rng)
        a = decompose(rho).a
        s_frac = (1.0 - (a[1, 1] + a[2, 2] + a[3, 3])) / 4.0
        tw = DensityMatrix(s_frac * sing + (1.0 - s_frac) * triplet_part)
        p1 = transmission_probability(block, _full(rho))
        p2 = transmission_probability(block, _full(tw))
        assert abs(p1 - p2) < 1e-12


def test_collective_rotation_invariance():
    rng = np.random.default_rng(18)
    for _ in range(20):
        params = ScatterParams(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * np.pi))
        block = two_impurity_block(params)
        rho = random_density(4, rng)
        flying = random_density(2, rng)
        u = random_unitary(2, rng)
        uu = np.kron(u, u)
        p1 = transmission_probability(block, DensityMatrix(np.kron(flying.mat, rho.mat)))
        p2 = transmission_probability(block, DensityMatrix(np.kron(
            u @ flying.mat @ u.conj().T, uu @ rho.mat @ uu.conj().T)))
        assert abs(p1 - p2) < 1e-12


def test_omega_sign_symmetry_at_zero_phase():
    # holds only when the inter-impurity phase vanishes
    rng = np.random.default_rng(20)
    for _ in range(20):
        om = rng.uniform(0.05, 3.0)
        full = DensityMatrix(np.kron(random_density(2, rng).mat, random_density(4, rng).mat))
        p_plus = transmission_probability(two_impurity_block(ScatterParams(om)), full)
        p_minus = transmission_probability(two_impurity_block(ScatterParams(-om)), full)
        assert abs(p_plus - p_minus) < 1e-12


def test_spectator_qubit_invariance():
    # one impurity coupled, gates on the other qubit leave P_T alone
    rng = np.random.default_rng(22)
    from spintomo.scatter import embed_block
    params = ScatterParams(0.9)
    block = embed_block(qubit_block(params), "first")
    for _ in range(10):
        rho = random_density(4, rng)
        u = np.kron(np.eye(2, dtype=complex), random_unitary(2, rng))
        rho_rot = DensityMatrix(u @ rho.mat @ u.conj().T)
        p1 = transmission_probability(block, _full(rho))
        p2 = transmission_probability(block, _full(rho_rot))
        assert abs(p1 - p2) < 1e-12


def test_transmitted_polarization_example():
    # aligned triplet input polarizes the transmitted beam along +z
    pol = transmitted_polarization(ScatterParams(0.5),
                                   ket_density(np.array([1, 0, 0, 0], dtype=complex)))
    assert_allclose(pol, [0.0, 0.0, 0.75], atol=1e-12)


def test_transmitted_polarization_oracle():
    rng = np.random.default_rng(24)
    for _ in range(20):
        params = ScatterParams(rng.uniform(0.1, 2.5))
        rho = random_density(4, rng)
        pol = transmitted_polarization(params, rho)
        oracle = flying_polarization_out(two_impurity_block(params), _full(rho))
        assert_allclose(pol, oracle, atol=1e-12)


def test_polarized_input_matches_direct_transmission():
    rng = np.random.default_rng(26)
    for _ in range(20):
        params = ScatterParams(rng.uniform(0.1, 2.5))
        rho = random_density(4, rng)
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        for sign in (+1, -1):
            direct = transmission_probability(
                two_impurity_block(params),
                full_input_state(polarized_qubit(n, sign), rho))
            assert abs(pt_polarized_input(params, rho, n, sign) - direct) < 1e-12


def test_polarized_injection_difference():
    # +-n injections differ by 4 Omega^2/((1+16 Omega^2)(1+4 Omega^2)) <(s1+s2).n>
    rng = np.random.default_rng(28)
    for _ in range(20):
        om = rng.uniform(0.1, 2.5)
        params = ScatterParams(om)
        rho = random_density(4, rng)
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        diff = (pt_polarized_input(params, rho, n, +1)
                - pt_polarized_input(params, rho, n, -1))
        coeff = 4 * om**2 / ((1 + 16 * om**2) * (1 + 4 * om**2))
        expected = coeff * float(np.dot(sigma_sum_expectation(rho), n))
        assert abs(diff - expected) < 1e-12


def test_aligned_polarized_enhancement():
    # |0> flying on |00> statics is pure triplet: P_T = 1/(1+4 Omega^2)
    t00 = ket_density(np.array([1, 0, 0, 0], dtype=complex))
    pt = pt_polarized_input(ScatterParams(0.5), t00, "z", +1)
    assert abs(pt - 0.5) < 1e-12


def test_resonant_cascade_guard():
    dim = 4
    mirror = ScatterBlock(r=-np.eye(dim, dtype=complex),
                          t=np.zeros((dim, dim), dtype=complex),
                          r_prime=-np.eye(dim, dtype=complex),
                          t_prime=np.zeros((dim, dim), dtype=complex))
    with pytest.raises(ResonantCascadeError):
        cascade(mirror, mirror, ScatterParams(1.0))


def _mirror(dim):
    return ScatterBlock(r=-np.eye(dim, dtype=complex), t=np.zeros((dim, dim), dtype=complex),
                        r_prime=-np.eye(dim, dtype=complex),
                        t_prime=np.zeros((dim, dim), dtype=complex))


@given(k=st.integers(-20, 20), exponent=st.one_of(st.floats(-16.0, -13.0), st.floats(-11.0, -1.0)),
       sign=st.sampled_from([-1, 1]))
def test_mirror_cascade_refuses_exactly_near_resonance(k, exponent, sign):
    # Two lossless mirrors make I - exp(2i kd) I, of singular value 2|sin(kd)|:
    # a near-zero multiple of the identity within 1e-13 of resonance, which
    # the guard must refuse, and a regular one from 1e-11 on.
    delta = sign * 10.0 ** exponent
    mirror = _mirror(4)
    params = ScatterParams(1.0, k * np.pi + delta)
    if abs(delta) <= 1e-13:
        with pytest.raises(ResonantCascadeError):
            cascade(mirror, mirror, params)
    else:
        assert _unitarity_deviation(cascade(mirror, mirror, params)) <= 1e-10


_KD_OFFSET = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                               st.sampled_from([-1, 1]), st.floats(-16.0, 0.0)))


@given(log_omega=st.floats(-3.0, 4.0), k=st.integers(-6, 6), delta=_KD_OFFSET,
       pair=st.sampled_from(["frozen", "qubit"]), seed=st.integers(0, 2**32 - 1))
def test_pairs_near_resonance_refuse_or_transmit_a_probability(log_omega, k, delta, pair, seed):
    # Near kd = k pi a strong pair may refuse (the cascade guard, or the
    # unitarity check of its result), but whatever it returns is a finite
    # probability, and no step may warn.
    rng = np.random.default_rng(seed)
    params = ScatterParams(10.0 ** log_omega, k * np.pi + delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if pair == "frozen":
                n1, n2 = (FrozenSpin(v / np.linalg.norm(v)) for v in rng.normal(size=(2, 3)))
                block = cascade(frozen_block(params, n1), frozen_block(params, n2), params)
                pt = transmission_probability(block, maximally_mixed(2))
            else:
                pt = transmission_probability(two_impurity_cascade(params),
                                              random_density(8, rng))
        except ResonantCascadeError:
            return
        except ValueError as exc:
            assert "not unitary" in str(exc)
            return
    assert np.isfinite(pt) and -1e-12 <= pt <= 1.0 + 1e-12


def test_full_input_state_shape():
    full = full_input_state(maximally_mixed(2), singlet())
    assert full.dim == 8
    with pytest.raises(ValueError):
        full_input_state(singlet(), singlet())


def _unitarity_deviation(block):
    s = block.full()
    return np.max(np.abs(_dagger(s) @ s - np.eye(s.shape[-1])), axis=(-2, -1))


@pytest.mark.parametrize("which", ["first", "second"])
def test_embedded_block_keeps_source_unitarity_deviation(which):
    # The lift is an index gather of a checked block, so it is not checked
    # again: its deviation must be the source's, to the last bit.
    for omega in (0.3, 1.0, 2.7, 50.0, np.linspace(0.01, 40.0, 200)):
        single = qubit_block(ScatterParams(omega))
        lifted = embed_block(single, which)
        assert np.array_equal(_unitarity_deviation(lifted), _unitarity_deviation(single))
        for m in (lifted.r, lifted.t, lifted.r_prime, lifted.t_prime):
            assert m.flags.c_contiguous and not m.flags.writeable


@given(omega=st.floats(1e-8, 1e-2),
       kd=st.floats(0.0, 2 * np.pi, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_weak_coupling_cascade_is_unguarded_and_loses_order_omega_squared(omega, kd, seed):
    # As omega -> 0 both impurities turn transparent: no guard may refuse,
    # and the lost transmission is second order in omega.  The lower bound
    # allows P_T to round above 1 by a few ulps.
    rho = random_density(8, np.random.default_rng(seed))
    loss = 1.0 - transmission_probability(two_impurity_cascade(ScatterParams(omega, kd)), rho)
    assert -1e-14 <= loss <= 16.0 * omega ** 2 + 1e-14
