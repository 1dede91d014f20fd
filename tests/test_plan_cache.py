"""Standard plans are built once per (mode, ScatterParams), run_plan reads
every record off the plan's cached rows, and each settings tuple's design is
built once.

The references here are an uncached plan build, a per-setting measure loop,
and an uncached design stack with its own SVD; records, designs and
estimates must equal them bit for bit.
"""
import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spintomo import gates as g
from spintomo import tomo
from spintomo.qmat import DensityMatrix, assemble_array, decompose, random_density
from spintomo.scatter import ScatterParams

SHOTS = (0, 10_000, 100_000)


def record_fields(records):
    return [(r.setting.label, r.ideal_value, r.shots, r.observed_value, r.standard_error)
            for r in records]


def truth(mode, rng):
    return random_density(2 if mode == "single_qubit_ancilla" else 4, rng)


def measure_loop(plan, rho, shots, seed):
    """run_plan as one measure per setting, each with its spawned seed."""
    seeds = np.random.SeedSequence(seed).spawn(len(plan.settings))
    return [tomo.measure(s, rho, shots, np.random.default_rng(ss))
            for s, ss in zip(plan.settings, seeds)]


@pytest.mark.parametrize("mode", tomo.MODES)
def test_equal_params_share_one_plan(mode):
    plan = tomo.plan_standard(mode, ScatterParams(0.9, 0.3))
    assert tomo.plan_standard(mode, ScatterParams(0.9, 0.3)) is plan
    assert tomo.plan_standard(mode, ScatterParams(0.9, 0.31)) is not plan
    others = [tomo.plan_standard(m, ScatterParams(0.9, 0.3)) for m in tomo.MODES if m != mode]
    assert all(other is not plan for other in others)


def test_cached_plan_is_read_only():
    plan = tomo.plan_standard("two_qubit_polarized", ScatterParams(1.1, 0.2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.settings = ()
    with pytest.raises(TypeError):
        plan.settings[0] = plan.settings[1]
    setting = plan.settings[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setting.params = ScatterParams(2.0)
    with pytest.raises(ValueError):
        setting.injector_axis[0] = 0.0
    for s in plan.settings:
        row, _ = tomo.setting_row(s)
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_grid_params_and_unknown_modes_raise_value_error():
    with pytest.raises(ValueError, match="grid"):
        tomo.plan_standard("two_qubit_gates", ScatterParams(np.array([0.9, 1.0])))
    with pytest.raises(ValueError, match="grid"):
        tomo.plan_standard("two_qubit_gates", ScatterParams(0.9, np.array(0.2)))
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match="unknown mode"):
            tomo.plan_standard("bogus", ScatterParams(0.9))


_UNIT_GATES = ["u:identity", "u:X@2", "u:Y@2", "u:Ry90@2", "u:H@2", "u:Rz90@2",
               "u:Rz90@2,Y@2", "u:Rx90@2", "u:Rx90@2,Z@2"]
_AXIS_INJECTIONS = ["pol:+x:identity", "pol:-x:identity", "pol:+y:identity",
                    "pol:-y:identity", "pol:+z:identity", "pol:-z:identity"]
# Each plan's order fixes run_plan's per-setting seeds, so it is pinned too.
CATALOGUE = {
    "two_qubit_gates": _UNIT_GATES + [
        "u:sqrtSWAP@12,Rx90@2", "u:Rz90@2,sqrtSWAP@12,Rx90@2", "u:sqrtSWAP@12,Ry90@2",
        "u:Rx90@2,sqrtSWAP@12,Ry90@2", "u:sqrtSWAP@12,Rz90@2", "u:Ry90@2,sqrtSWAP@12,Rz90@2"],
    "two_qubit_polarized": _UNIT_GATES + _AXIS_INJECTIONS + [
        "pol:+y:X@2", "pol:+z:X@2", "pol:+x:Y@2", "pol:-y:X@2", "pol:-z:X@2", "pol:-x:Y@2"],
    "single_qubit_ancilla": ["anc:x", "anc:y", "anc:z"],
    "first_qubit_marginal": ["anc:x:first", "anc:y:first", "anc:z:first",
                             "anc:x:second", "anc:y:second", "anc:z:second"],
    "pure_state": ["u:identity", "u:X@2", "u:Y@2", "u:Z@2", "u:Rx90@2", "u:Ry90@2",
                   "u:Rz90@2"] + _AXIS_INJECTIONS,
}


def _axis(name):
    return np.eye(3)[["x", "y", "z"].index(name)]


@pytest.mark.parametrize("mode", tomo.MODES)
def test_standard_plan_catalogue(mode):
    plan = tomo.plan_standard(mode, ScatterParams(0.7, 0.4))
    assert tuple(CATALOGUE) == tomo.MODES
    assert [s.label for s in plan.settings] == CATALOGUE[mode]
    for s in plan.settings:
        kind, _, rest = s.label.partition(":")
        assert s.detector_axis is None
        if kind == "u":
            assert g.format_sequence(s.seq) == rest
            assert s.injector_axis is None and s.ancilla_axis is None
        elif kind == "pol":
            spec, _, text = rest.partition(":")
            assert g.format_sequence(s.seq) == text
            assert s.injector_sign == {"+": 1, "-": -1}[spec[0]]
            assert_array_equal(s.injector_axis, _axis(spec[1:]))
            assert s.ancilla_axis is None
        else:
            assert kind == "anc"
            axis, _, target = rest.partition(":")
            assert_array_equal(s.ancilla_axis, _axis(axis))
            assert s.marginal_target == (target or None)
            assert len(s.seq) == 0 and s.injector_axis is None
        if kind != "anc":
            assert s.marginal_target is None


@pytest.mark.parametrize("kd", [0.0, 0.4])
@pytest.mark.parametrize("mode", tomo.MODES)
def test_cached_plan_records_equal_uncached_build(mode, kd):
    rng = np.random.default_rng(61)
    params = ScatterParams(0.8, kd)
    cached = tomo.plan_standard(mode, params)
    for shots in SHOTS:
        rho = truth(mode, rng)
        seed = int(rng.integers(2**31))
        fresh = tomo._standard_plan.__wrapped__(mode, ScatterParams(0.8, kd))
        assert fresh is not cached
        assert [s.label for s in fresh.settings] == [s.label for s in cached.settings]
        for _ in range(2):  # the second run reads every row off the cache
            got = record_fields(tomo.run_plan(cached, rho, shots, seed))
            assert got == record_fields(tomo.run_plan(fresh, rho, shots, seed))


@pytest.mark.parametrize("mode", tomo.MODES)
def test_run_plan_equals_measure_loop(mode):
    rng = np.random.default_rng(67)
    plan = tomo.plan_standard(mode, ScatterParams(1.2, 0.25))
    for shots in SHOTS:
        rho = truth(mode, rng)
        seed = int(rng.integers(2**31))
        assert (record_fields(tomo.run_plan(plan, rho, shots, seed))
                == record_fields(measure_loop(plan, rho, shots, seed)))


def test_run_plan_equals_measure_loop_on_mixed_plan():
    """Register, both marginal targets and conditional-polarization readouts
    in one plan, in interleaved order."""
    params = ScatterParams(0.6, 0.5)
    settings = (
        tomo.MeasurementSetting(params=params, detector_axis="z", injector_axis="x",
                                label="det:z"),
        tomo.MeasurementSetting(params=params, ancilla_axis="x", marginal_target="second",
                                label="anc:x:second"),
        tomo.MeasurementSetting(params=params, seq=g.sequence("H@2"), label="u:H@2"),
        tomo.MeasurementSetting(params=params, ancilla_axis="y", marginal_target="first",
                                label="anc:y:first"),
        tomo.MeasurementSetting(params=params, seq=g.sequence("sqrtSWAP@12"),
                                detector_axis="x", label="det:x"),
        tomo.MeasurementSetting(params=params, injector_axis="y", injector_sign=-1,
                                label="pol:-y"),
        tomo.MeasurementSetting(params=params, ancilla_axis="z", marginal_target="second",
                                label="anc:z:second"),
    )
    plan = tomo.TomographyPlan(mode="two_qubit_gates", settings=settings)
    rng = np.random.default_rng(71)
    for shots in (0, 40, 10_000):
        rho = random_density(4, rng)
        for seed in (None, 5) if shots == 0 else (5, 6):
            assert (record_fields(tomo.run_plan(plan, rho, shots, seed))
                    == record_fields(measure_loop(plan, rho, shots, seed)))


def test_run_plan_validates_its_inputs():
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        tomo.run_plan(plan, random_density(4, np.random.default_rng(1)), -1, 3)
    with pytest.raises(ValueError, match="two-qubit"):
        tomo.run_plan(plan, random_density(2, np.random.default_rng(1)), 0)


def test_run_plan_checks_the_seed_without_shots():
    # no record draws from the seed at shots = 0, but a bad one still refuses
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(1.0))
    rho = random_density(4, np.random.default_rng(3))
    with pytest.raises(ValueError):
        tomo.run_plan(plan, rho, 0, -1)
    assert (record_fields(tomo.run_plan(plan, rho, 0, 5))
            == record_fields(tomo.run_plan(plan, rho, 0)))


def test_equal_params_serialize_alike():
    # the shared plan carries the params of the call that built it; those
    # must serialize as any equal params would
    tomo._standard_plan.cache_clear()
    tomo.plan_standard("two_qubit_gates", ScatterParams(1.0, -0.0))
    obj = tomo.plan_to_json(tomo.plan_standard("two_qubit_gates", ScatterParams(1.0, 0.0)))
    assert all(math.copysign(1.0, s["kd_phase"]) == 1.0 for s in obj["settings"])
    tomo.plan_standard("two_qubit_gates", ScatterParams(2, 0))
    obj = tomo.plan_to_json(tomo.plan_standard("two_qubit_gates", ScatterParams(2.0, 0.0)))
    assert json.dumps(obj["settings"][0]).startswith('{"omega": 2.0, "kd_phase": 0.0,')


def uncached_design(settings):
    """build_design_matrix as a plain stack of setting_row."""
    rows, offsets = zip(*(tomo.setting_row(s) for s in settings))
    return np.array(rows), np.array(offsets)


def by_target(plan):
    groups = {}
    for s in plan.settings:
        groups.setdefault(tomo._target(s), []).append(s)
    return list(groups.values())


@pytest.mark.parametrize("mode", tomo.MODES)
def test_design_equals_uncached_stack_and_is_read_only(mode):
    plan = tomo.plan_standard(mode, ScatterParams(0.7, 0.4))
    for settings in by_target(plan):
        a, b = tomo.build_design_matrix(settings)
        ref_a, ref_b = uncached_design(settings)
        assert_array_equal(a, ref_a)
        assert_array_equal(b, ref_b)
        assert a.dtype == ref_a.dtype and b.dtype == ref_b.dtype
        _, _, svals = tomo._design(tuple(settings))
        assert_array_equal(svals, np.linalg.svd(ref_a, compute_uv=False))
        for v in (a, b, svals):
            with pytest.raises(ValueError):
                v[0] = 0.0


def test_repeat_design_is_a_cache_hit():
    plan = tomo.plan_standard("two_qubit_polarized", ScatterParams(1.05, 0.15))
    a, b = tomo.build_design_matrix(plan)
    before = tomo._design.cache_info()
    again = tomo.build_design_matrix(list(plan.settings))
    after = tomo._design.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert again[0] is a and again[1] is b


def test_json_round_trip_is_a_miss_with_an_equal_design():
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(0.85, 0.35))
    a, b = tomo.build_design_matrix(plan)
    copy = tomo.plan_from_json(json.loads(json.dumps(tomo.plan_to_json(plan))))
    assert all(c is not s for c, s in zip(copy.settings, plan.settings))
    before = tomo._design.cache_info()
    a2, b2 = tomo.build_design_matrix(copy)
    after = tomo._design.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    assert a2 is not a
    assert_array_equal(a2, a)
    assert_array_equal(b2, b)


def uncached_reconstruct_two_qubit(records):
    """reconstruct_two_qubit with a fresh stack and SVD, as it was before
    designs were cached."""
    a, b = uncached_design([r.setting for r in records])
    svals = np.linalg.svd(a, compute_uv=False)
    y = np.array([r.observed_value for r in records]) - b
    x, _, _, resid = tomo._solve_weighted(a, y, tomo._weights(records))
    repaired, proj_dist, min_eig = tomo._psd_repair(assemble_array(x))
    return DensityMatrix(repaired), {
        "rank": int(np.linalg.matrix_rank(a)),
        "condition_number": float(svals.max() / svals.min()),
        "weighted_residual": resid,
        "min_eigenvalue": min_eig,
        "psd_repaired": proj_dist > 0.0,
        "projection_distance": proj_dist,
    }


@pytest.mark.parametrize("omega, kd", [(1.0, 0.0), (0.7, 0.4)])
@pytest.mark.parametrize("mode", ["two_qubit_gates", "two_qubit_polarized"])
def test_reconstruct_two_qubit_equals_uncached_svd_path(mode, omega, kd):
    rng = np.random.default_rng(73)
    plan = tomo.plan_standard(mode, ScatterParams(omega, kd))
    for shots in SHOTS:
        records = tomo.run_plan(plan, random_density(4, rng), shots, int(rng.integers(2**31)))
        ref_rho, ref_diag = uncached_reconstruct_two_qubit(records)
        for _ in range(2):  # a miss or a hit, then a hit
            rho, coeffs, diag = tomo.reconstruct_two_qubit(records, plan)
            assert_array_equal(rho.mat, ref_rho.mat)
            assert_array_equal(coeffs.a, decompose(ref_rho).a)
            assert diag == ref_diag


def test_refused_designs_raise_on_every_call():
    marginal = tomo.plan_standard("first_qubit_marginal", ScatterParams(0.9, 0.2))
    detector = tomo.MeasurementSetting(params=ScatterParams(0.9, 0.2), injector_axis="x",
                                       detector_axis="z")
    for _ in range(2):
        with pytest.raises(ValueError, match="mix different unknowns"):
            tomo.build_design_matrix(marginal)
        with pytest.raises(ValueError, match="not affine"):
            tomo.build_design_matrix([detector])


def test_design_cache_stays_bounded():
    maxsize = 2 * tomo.PLAN_CACHE_SIZE
    assert tomo._design.cache_info().maxsize == maxsize
    params = ScatterParams(1.15, 0.05)
    for k in range(maxsize + 1):
        tomo.build_design_matrix([tomo.MeasurementSetting(params=params, label=f"u:{k}")])
        assert tomo._design.cache_info().currsize <= maxsize
    assert tomo._design.cache_info().currsize == maxsize
