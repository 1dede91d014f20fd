"""The memoized forward model against uncached full-space oracles.

Each readout is read off its setting's affine rows (P_T, and the numerator
of a conditional polarization) and each scattering operator comes from a
cache; the oracles here rebuild the 8x8 cascade, the (flying, q1, q2) input
state and the reflection operator from scratch for every evaluation.
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
    kron,
    maximally_mixed,
    partial_trace,
    pauli,
    polarized_qubit,
    ptrace,
    random_density,
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
    """Total transmission trace(t^dag t rho_in) on the full space, with
    rho_in = rho_f (x) U pair U^dag, or for a detector setting the conditional
    polarization trace((n.sigma (x) I) t rho_in t^dag) / P_T."""
    return readout_oracle(setting, rho)[0]


def readout_oracle(setting, rho):
    """(value, P_T) of the setting, computed on the full 8x8 space."""
    if setting.injector_axis is None:
        flying = maximally_mixed(2)
    else:
        flying = polarized_qubit(setting.injector_axis, setting.injector_sign)
    pair = rho
    if setting.ancilla_axis is not None:
        target = rho
        if setting.marginal_target is not None:
            target = partial_trace(rho, setting.marginal_target)
        pair = DensityMatrix(kron(polarized_qubit(setting.ancilla_axis).mat, target.mat))
    full = DensityMatrix(kron(flying.mat, g.apply(setting.seq, pair).mat))
    block = block_oracle(setting.params)
    pt = transmission_probability(block, full)
    if setting.detector_axis is None:
        return pt, pt
    out = block.t @ full.mat @ block.t.conj().T
    op = kron(np.array(
        setting.detector_axis[0] * pauli(1)
        + setting.detector_axis[1] * pauli(2)
        + setting.detector_axis[2] * pauli(3)), _I4)
    return float(np.trace(op @ out).real / pt), pt


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
    for name in ("r", "t", "r_prime", "t_prime"):
        assert_array_equal(getattr(block, name), getattr(fresh, name))
    r = eng.reflection_channel(ScatterParams(0.8), 1.1)
    assert eng.reflection_channel(ScatterParams(0.8), 1.1) is r
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
    out = r @ kron(reservoir.state().mat, rho.mat) @ r.conj().T
    return DensityMatrix(ptrace(out, [2, 2], [1]))


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
BASE_KINDS = ("unpolarized", "polarized", "ancilla", "ancilla:first", "ancilla:second")
# Each kind again with a conditional-polarization detector.
SETTING_KINDS = BASE_KINDS + tuple(f"{kind}+detector" for kind in BASE_KINDS)


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
    kind, _, detector = kind.partition("+")
    fields = {"params": ScatterParams(omega, kd), "seq": g.sequence(*tokens)}
    if kind == "polarized":
        fields.update(injector_axis=_unit(rng), injector_sign=int(rng.choice([-1, 1])))
    elif kind.startswith("ancilla"):
        fields["ancilla_axis"] = _unit(rng)
        fields["marginal_target"] = kind.partition(":")[2] or None
    if detector:
        fields["detector_axis"] = _unit(rng)
    setting = tomo.MeasurementSetting(**fields)
    rho = truth_for(setting, rng)
    assert abs(tomo.ideal_value(setting, rho) - ideal_value_oracle(setting, rho)) < ORACLE_ATOL


@pytest.mark.parametrize("fields", [
    {},
    {"injector_axis": "y", "injector_sign": -1},
    {"ancilla_axis": [0.6, 0.0, 0.8], "marginal_target": "second"},
], ids=["register", "polarized", "ancilla"])
def test_detector_readout_matches_oracle_off_zero_phase(fields):
    # A sqrtSWAP sequence at kd != 0: both the conditional polarization and
    # the P_T that its shot noise draws from come off the setting's two rows.
    setting = tomo.MeasurementSetting(
        params=ScatterParams(0.9, 1.1), seq=g.sequence("Rx90@1", "sqrtSWAP@12", "H@2"),
        detector_axis=np.array([1.0, -2.0, 2.0]) / 3.0, **fields)
    rng = np.random.default_rng(113)
    for _ in range(3):
        rho = random_density(4, rng)
        got = tomo._readout(setting, tomo._unknowns(setting, rho))
        value, pt = readout_oracle(setting, rho)
        assert_allclose(got, (value, pt), rtol=0, atol=ORACLE_ATOL)
        assert tomo.ideal_value(setting, rho) == got[0]
        # shots are transmitted with P_T, and each transmitted one reads +-1
        rng_draw = np.random.default_rng(17)
        n_t = rng_draw.binomial(5000, pt)
        ups = rng_draw.binomial(n_t, 0.5 * (1.0 + value))
        assert tomo.measure(setting, rho, 5000, 17).observed_value == (2 * ups - n_t) / n_t
