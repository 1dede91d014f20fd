"""The memoized forward model against uncached full-space oracles.

Each readout is read off its setting's affine P_T row and each scattering
operator comes from a cache; the oracles here rebuild the 8x8 cascade, the
(flying, q1, q2) input state and the reflection operator from scratch for
every evaluation.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spintomo import engine as eng
from spintomo import gates as g
from spintomo import tomo
from spintomo.qmat import (
    DensityMatrix,
    bloch,
    maximally_mixed,
    partial_trace,
    polarized_qubit,
    random_density,
    random_unitary,
)
from spintomo.scatter import (
    ScatterParams,
    cascade,
    embed_block,
    qubit_block,
    transmission_probability,
    two_impurity_block,
)

ORACLE_ATOL = 1e-13
_I4 = np.eye(4, dtype=complex)


def block_oracle(params):
    """The two-impurity block, built afresh."""
    single = qubit_block(params)
    return cascade(embed_block(single, "first"), embed_block(single, "second"), params)


def ideal_value_oracle(setting, rho):
    """Total transmission trace(t^dag t rho_in) on the full 8x8 space, with
    rho_in = rho_f (x) U pair U^dag."""
    if setting.injector_axis is None:
        flying = maximally_mixed(2)
    else:
        flying = polarized_qubit(setting.injector_axis, setting.injector_sign)
    pair = rho
    if setting.ancilla_axis is not None:
        target = rho
        if setting.marginal_target is not None:
            target = partial_trace(rho, setting.marginal_target)
        pair = DensityMatrix(np.kron(polarized_qubit(setting.ancilla_axis).mat, target.mat))
    full = DensityMatrix(np.kron(flying.mat, g.apply(setting.seq, pair).mat))
    return transmission_probability(block_oracle(setting.params), full)


def truth_for(setting, rng):
    one_qubit = setting.ancilla_axis is not None and setting.marginal_target is None
    return random_density(2 if one_qubit else 4, rng)


@pytest.mark.parametrize("kd", [0.0, 0.4, 0.6])
@pytest.mark.parametrize("mode", tomo.MODES)
def test_ideal_value_matches_full_space_oracle(mode, kd):
    rng = np.random.default_rng(97)
    for omega in (0.7, 1.3):
        plan = tomo.plan_standard(mode, ScatterParams(omega, kd))
        for _ in range(3):
            rho = truth_for(plan.settings[0], rng)
            got = [tomo.ideal_value(s, rho) for s in plan.settings]
            want = [ideal_value_oracle(s, rho) for s in plan.settings]
            assert_allclose(got, want, rtol=0, atol=ORACLE_ATOL)


def test_cached_operators_are_read_only():
    params = ScatterParams(1.0, 0.4)
    block = two_impurity_block(params)
    arrays = [block.r, block.t, block.r_prime, block.t_prime,
              eng.reflection_channel(params, eng.DEFAULT_MIRROR_PHASE)]
    ancilla = tomo.plan_standard("first_qubit_marginal", params).settings[0]
    polarized = tomo.plan_standard("two_qubit_polarized", params).settings[-1]
    arrays += [tomo.setting_row(s)[0] for s in (ancilla, polarized)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.0


def test_equal_params_share_cached_operators():
    block = two_impurity_block(ScatterParams(0.8, 0.3))
    assert two_impurity_block(ScatterParams(0.8, 0.3)) is block
    fresh = block_oracle(ScatterParams(0.8, 0.3))
    for name in ("r", "t"):
        assert_array_equal(getattr(block, name), getattr(fresh, name))
    # The primed blocks are the oracle's r and t with q1 and q2 exchanged.
    exchange = np.ix_([0, 2, 1, 3, 4, 6, 5, 7], [0, 2, 1, 3, 4, 6, 5, 7])
    assert_array_equal(block.r_prime, fresh.r[exchange])
    assert_array_equal(block.t_prime, fresh.t[exchange])
    setting = tomo.MeasurementSetting(params=ScatterParams(0.8, 0.3), seq=g.sequence("H@1"))
    row, offset = tomo.setting_row(setting)
    again, offset_again = tomo.setting_row(setting)
    assert again is row and offset_again == offset


def interact_once_oracle(rho, reservoir, config):
    """One collision with the reflection operator rebuilt from the impurity block."""
    blk = qubit_block(config.params)
    m = -np.exp(1j * config.mirror_phase) * _I4
    series = np.linalg.solve(_I4 - blk.r_prime @ m, blk.t)
    r = blk.r + blk.t_prime @ m @ series
    out = r @ np.kron(reservoir.state().mat, rho.mat) @ r.conj().T
    return DensityMatrix(np.einsum("fsft->st", out.reshape(2, 2, 2, 2)))


@pytest.mark.parametrize("omega, phase", [(1.0, eng.DEFAULT_MIRROR_PHASE), (0.6, 1.1)])
def test_run_cycle_matches_uncached_collisions(omega, phase):
    config = eng.EngineConfig(params=ScatterParams(omega), mirror_phase=phase, max_iters=300)
    initial = random_density(2, np.random.default_rng(5))
    trace = eng.run_cycle(initial, config)
    reservoirs = {"FM": eng.Reservoir("polarized"), "NM": eng.Reservoir("unpolarized")}
    rho = initial
    for step in trace.steps[1:]:
        rho = interact_once_oracle(rho, reservoirs[step.phase], config)
        assert_allclose(tuple(step.bloch), tuple(bloch(rho)), rtol=0, atol=1e-14)
    assert len(trace.steps) == 1 + trace.fm_iterations + trace.nm_iterations
    assert_allclose(trace.final_state.mat, rho.mat, rtol=0, atol=1e-14)


GATE_TOKENS = ("X@1", "Y@2", "Z@1", "H@2", "Rx90@1", "Ry90@2", "Rz90@1", "Rx90@2",
               "sqrtSWAP@12")
SETTING_KINDS = ("unpolarized", "polarized", "ancilla", "ancilla:first", "ancilla:second")


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@given(omega=st.floats(0.1, 3.0),
       kd=st.floats(0.0, 2 * np.pi, exclude_max=True),
       seed=st.integers(0, 2**32 - 1),
       tokens=st.lists(st.sampled_from(GATE_TOKENS), max_size=4),
       kind=st.sampled_from(SETTING_KINDS))
def test_affine_forward_model_matches_oracle(omega, kd, seed, tokens, kind):
    rng = np.random.default_rng(seed)
    fields = {"params": ScatterParams(omega, kd), "seq": g.sequence(*tokens)}
    if kind == "polarized":
        fields.update(injector_axis=_unit(rng), injector_sign=int(rng.choice([-1, 1])))
    elif kind.startswith("ancilla"):
        fields["ancilla_axis"] = _unit(rng)
        fields["marginal_target"] = kind.partition(":")[2] or None
    setting = tomo.MeasurementSetting(**fields)
    rho = truth_for(setting, rng)
    assert abs(tomo.ideal_value(setting, rho) - ideal_value_oracle(setting, rho)) < ORACLE_ATOL


@given(omega=st.floats(0.1, 3.0),
       kd=st.floats(0.0, 2 * np.pi, exclude_max=True),
       seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 1.0))
def test_ideal_value_is_affine_in_the_state(omega, kd, seed, t):
    rng = np.random.default_rng(seed)
    rho1, rho2 = random_density(4, rng), random_density(4, rng)
    mix = DensityMatrix(t * rho1.mat + (1.0 - t) * rho2.mat)
    for s in tomo.plan_standard("two_qubit_gates", ScatterParams(omega, kd)).settings:
        want = t * tomo.ideal_value(s, rho1) + (1.0 - t) * tomo.ideal_value(s, rho2)
        assert abs(tomo.ideal_value(s, mix) - want) < 1e-14


@given(omega=st.floats(0.1, 3.0),
       kd=st.floats(0.0, 2 * np.pi, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_unpolarized_transmission_is_collective_rotation_invariant(omega, kd, seed):
    rng = np.random.default_rng(seed)
    setting = tomo.MeasurementSetting(params=ScatterParams(omega, kd))
    rho = random_density(4, rng)
    u = random_unitary(2, rng)
    uu = np.kron(u, u)
    rotated = DensityMatrix(uu @ rho.mat @ uu.conj().T)
    assert abs(tomo.ideal_value(setting, rotated) - tomo.ideal_value(setting, rho)) < 1e-14


def gate_free_settings(omega: float, kd: float) -> list:
    """The unpolarized setting and the six +-x, +-y, +-z injections, no gates."""
    params = ScatterParams(omega, kd)
    return [tomo.MeasurementSetting(params=params)] + [
        tomo.MeasurementSetting(params=params, injector_axis=axis, injector_sign=sign)
        for axis in "xyz" for sign in (+1, -1)]


@pytest.mark.parametrize("points, rank", [
    ([(omega, 0.0) for omega in (0.5, 1.0, 1.5, 2.0)], 4),
    ([(1.0, kd) for kd in (0.0, 0.3, 0.6, 0.9, 1.2)], 7),
    ([(omega, kd) for omega in (0.5, 1.0, 1.5) for kd in (0.0, 0.4, 0.8)], 10),
], ids=["omega-at-kd-0", "kd-at-omega-1", "omega-by-kd"])
def test_gate_free_settings_see_the_pair_observable_terms(points, rank):
    # The pair observable is alpha + beta s1.s2 + n.(g1 s1 + g2 s2) + delta
    # n.(s1 x s2).  At kd = 0, g1 = g2 and delta = 0, so s1.s2 and n.(s1 + s2)
    # are all any omega shows (4).  At one omega, (g1, g2, delta) over kd span
    # two directions per axis (7); omega and kd together reach all ten terms.
    # The five symmetric traceless correlations are seen only through gates.
    rows = [tomo.setting_row(s)[0] for p in points for s in gate_free_settings(*p)]
    assert np.linalg.matrix_rank(np.array(rows)) == rank


def test_two_qubit_gates_design_is_one_matrix_times_a_scalar():
    # Every unpolarized row is beta(omega, kd) times a parameter-free row, so
    # the plan's design has one zero pattern and one condition number.
    def design(omega, kd):
        a = tomo.build_design_matrix(tomo.plan_standard("two_qubit_gates",
                                                        ScatterParams(omega, kd)))[0]
        return a, np.abs(a) > 1e-9 * np.abs(a).max()

    ref, mask = design(1.0, 0.0)
    for omega, kd in [(0.7, 0.4), (1.3, 0.6), (0.5, 1.1), (2.0, 2.5)]:
        a, support = design(omega, kd)
        assert_array_equal(support, mask)
        ratio = a[mask] / ref[mask]
        assert_allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)
        svals = np.linalg.svd(a, compute_uv=False)
        assert svals[0] / svals[-1] == pytest.approx(8.8875635778348, rel=1e-12)
