"""Standard plans are built once per (mode, ScatterParams) and run_plan reads
every record off the plan's cached rows.

The references here are an uncached plan build and a per-setting measure
loop; records must equal them bit for bit.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from spintomo import gates as g
from spintomo import tomo
from spintomo.qmat import random_density
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
