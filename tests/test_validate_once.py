"""The linear tomography path validates each state once.

run_plan reads a marginal target's Bloch vector off the validated register
instead of building a DensityMatrix of the marginal, records are immutable
NamedTuples of Python values, and each design's refusal verdict, rank and
condition number are read off its singular values once per settings tuple.
The references are the public partial_trace and bloch (and DensityMatrix's
own expect), which still validate; results must equal them bit for bit.
"""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import tomo
from spintomo.qmat import (
    PAULI_BASIS,
    DensityMatrix,
    assemble_array,
    bloch,
    bloch_density,
    ket_density,
    partial_trace,
    pauli,
    random_density,
    random_ket,
    werner,
)
from spintomo.scatter import ScatterParams

PARAMS = ScatterParams(0.9, 0.3)
SHOTS = (0, 10_000, 100_000)


def two_qubit_state(kind: str, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return random_density(4, rng)
    if kind == "pure":
        return ket_density(random_ket(4, rng))
    if kind == "werner":
        return werner(float(rng.uniform(0.0, 1.0)))
    return DensityMatrix(np.kron(random_density(2, rng).mat, random_density(2, rng).mat))


def marginal_setting(keep: str) -> tomo.MeasurementSetting:
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    return next(s for s in plan.settings if s.marginal_target == keep)


@given(kind=st.sampled_from(["mixed", "pure", "werner", "product"]),
       seed=st.integers(0, 2**32 - 1), keep=st.sampled_from(["first", "second"]))
def test_marginal_unknowns_equal_bloch_of_partial_trace(kind, seed, keep):
    rho = two_qubit_state(kind, seed)
    got = tomo._unknowns(marginal_setting(keep), rho)
    reduced = partial_trace(rho, keep)
    # tobytes also tells -0.0 from 0.0
    assert got.tobytes() == np.array(bloch(reduced)).tobytes()
    assert got.tobytes() == np.array([reduced.expect(pauli(k)) for k in (1, 2, 3)]).tobytes()


def count_states(monkeypatch) -> list:
    """Record every DensityMatrix construction from now on."""
    built = []
    init = DensityMatrix.__init__
    monkeypatch.setattr(DensityMatrix, "__init__",
                        lambda self, mat: built.append(1) or init(self, mat))
    return built


def test_marginal_plan_builds_states_only_for_its_estimates(monkeypatch):
    plan = tomo.plan_standard("first_qubit_marginal", PARAMS)
    rho = random_density(4, np.random.default_rng(31))
    tomo.reconstruct_marginals(tomo.run_plan(plan, rho, 0))  # builds the rows and designs
    built = count_states(monkeypatch)
    for shots in SHOTS:
        records = tomo.run_plan(plan, rho, shots, 7)
        assert not built
        tomo.reconstruct_marginals(records)
        assert len(built) == 2
        built.clear()


@pytest.mark.parametrize("shots", SHOTS)
def test_records_are_immutable_and_hold_python_values(shots):
    plan = tomo.plan_standard("two_qubit_polarized", PARAMS)
    rho = random_density(4, np.random.default_rng(32))
    records = tomo.run_plan(plan, rho, shots, 8) + [tomo.measure(plan.settings[0], rho, shots, 8)]
    for r in records:
        assert isinstance(r, tomo.MeasurementRecord)
        types = [type(v) for v in (r.ideal_value, r.shots, r.observed_value, r.standard_error)]
        assert types == [float, int, float, float]
        for name in tomo.MeasurementRecord._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))


# (mode, dimension of the wrong state, message), as today's messages read
WRONG_DIMENSION = [
    ("first_qubit_marginal", 2, "partial_trace needs a two-qubit state, got dim 2"),
    ("first_qubit_marginal", 8, "partial_trace needs a two-qubit state, got dim 8"),
    ("two_qubit_gates", 2, "register settings need a two-qubit state, got dim 2"),
    ("two_qubit_polarized", 8, "register settings need a two-qubit state, got dim 8"),
    ("single_qubit_ancilla", 4, "ancilla settings probe a one-qubit target"),
    ("single_qubit_ancilla", 8, "ancilla settings probe a one-qubit target"),
]


@pytest.mark.parametrize("mode, dim, message", WRONG_DIMENSION)
def test_a_state_of_the_wrong_dimension_is_refused(mode, dim, message):
    plan = tomo.plan_standard(mode, PARAMS)
    rho = random_density(dim, np.random.default_rng(dim))
    exact = "^" + re.escape(message) + "$"
    for shots in (0, 1000):
        with pytest.raises(ValueError, match=exact):
            tomo.run_plan(plan, rho, shots, 3)
    for s in plan.settings:
        with pytest.raises(ValueError, match=exact):
            tomo.ideal_value(s, rho)


def test_refused_designs_raise_in_order_on_every_call():
    flat = tomo.run_plan(tomo.plan_standard("single_qubit_ancilla", ScatterParams(0.0)),
                         bloch_density([0.1, 0.2, 0.3]), 0)
    short = tomo.run_plan(tomo.plan_standard("single_qubit_ancilla", PARAMS),
                          bloch_density([0.1, 0.2, 0.3]), 0)
    for _ in range(2):
        # flat and rank deficient: the flatness refusal comes first
        with pytest.raises(tomo.FlatDesignError, match="^design is flat: largest singular"):
            tomo.reconstruct_single(flat[:2])
        with pytest.raises(tomo.RankDeficientPlanError,
                           match=r"^design matrix rank 2 < 3; the plan cannot determine"):
            tomo.reconstruct_single(short[:2])


def test_design_facts_are_read_once_per_settings_tuple():
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(0.95, 0.25))
    records = tomo.run_plan(plan, random_density(4, np.random.default_rng(33)), 0)
    first = tomo._guarded_solve(records)
    before = tomo._design.cache_info()
    again = tomo._guarded_solve(list(records))
    after = tomo._design.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    a, _, svals = tomo._design(plan.settings)[:3]
    assert first[1:3] == again[1:3] == (np.linalg.matrix_rank(a),
                                         float(svals.max() / svals.min()))


def test_assemble_array_equals_the_tensordot():
    rng = np.random.default_rng(34)
    for vec in [rng.uniform(-1.0, 1.0, 15) for _ in range(200)] + [np.zeros(15)]:
        want = np.tensordot(np.concatenate(([1.0], vec)), PAULI_BASIS, axes=1) / 4.0
        assert assemble_array(vec).tobytes() == want.tobytes()
