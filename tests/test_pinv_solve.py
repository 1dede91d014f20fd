"""Linear reconstructions solve by each design's cached pseudo-inverse where
the weights drop out of the weighted least-squares estimate.

On a square design of full rank the estimate is the inverse times the
records for any positive weights, and noiseless records weigh 1 each (W =
I).  Both are solved by the pseudo-inverse that _design builds once per
design; noisy records of an over-determined design keep np.linalg.lstsq on
the weighted system, bit for bit.  The references are np.linalg.lstsq itself
and the refusals' exact messages.
"""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import tomo
from spintomo.qmat import bloch_density, random_density, singlet
from spintomo.scatter import ScatterParams

EPS = np.finfo(float).eps


def design_with_condition(rows: int, cols: int, cond: float, seed: int) -> np.ndarray:
    """A rows x cols matrix of full column rank whose singular values span
    [1, cond] log-uniformly, with random orthonormal factors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    return (u * np.geomspace(cond, 1.0, cols)) @ v.T


def lstsq_close(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> None:
    """x is within 1e3 eps cond max|x| of lstsq's solution of a x = y."""
    ref = np.linalg.lstsq(a, y, rcond=None)[0]
    svals = np.linalg.svd(a, compute_uv=False)
    bound = 1e3 * EPS * svals.max() / svals.min() * np.abs(ref).max()
    assert np.abs(x - ref).max() <= bound


positive_weights = st.lists(st.floats(1e-3, 1e3), min_size=15, max_size=15)


@given(n=st.integers(1, 15), log_cond=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1),
       w1=positive_weights, w2=positive_weights)
def test_square_designs_ignore_the_weights(n, log_cond, seed, w1, w2):
    a = design_with_condition(n, n, 10.0**log_cond, seed)
    y = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, n)
    pinv = np.linalg.pinv(a, rtol=None)
    x1 = tomo._solve_weighted(a, y, np.array(w1[:n]), pinv)[0]
    x2 = tomo._solve_weighted(a, y, np.array(w2[:n]), pinv)[0]
    assert x1.tobytes() == x2.tobytes()
    assert x1.tobytes() == tomo._solve_weighted(a, y, None, pinv)[0].tobytes()
    lstsq_close(a, y, x1)


@given(cols=st.integers(1, 15), extra=st.integers(1, 8), log_cond=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_tall_noiseless_designs_match_lstsq(cols, extra, log_cond, seed):
    a = design_with_condition(cols + extra, cols, 10.0**log_cond, seed)
    rng = np.random.default_rng(seed + 1)
    # Consistent records (noiseless) and inconsistent ones alike.
    for y in (a @ rng.uniform(-1.0, 1.0, cols), rng.uniform(-1.0, 1.0, cols + extra)):
        lstsq_close(a, y, tomo._solve_weighted(a, y, None, np.linalg.pinv(a, rtol=None))[0])


@given(cols=st.integers(1, 15), extra=st.integers(1, 8), log_cond=st.floats(0.0, 8.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tall_weighted_designs_are_lstsq_bit_for_bit(cols, extra, log_cond, seed, data):
    rows = cols + extra
    a = design_with_condition(rows, cols, 10.0**log_cond, seed)
    y = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, rows)
    w = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=rows, max_size=rows)))
    # Unit weights too: they are noisy records whose standard error is 1.
    for weights in (w, np.ones(rows)):
        x, resid = tomo._solve_weighted(a, y, weights, np.linalg.pinv(a))
        ref = np.linalg.lstsq(a * weights[:, None], y * weights, rcond=None)[0]
        assert x.tobytes() == ref.tobytes()
        assert resid == float(np.linalg.norm((a * weights[:, None]) @ ref - y * weights))


@given(omega=st.floats(0.3, 2.0), kd=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1),
       shots=st.sampled_from([0, 1000, 100_000]))
def test_pure_state_design_stays_lstsq_bit_for_bit(omega, kd, seed, shots):
    plan = tomo.plan_standard("pure_state", ScatterParams(omega, kd))
    records = tomo.run_plan(plan, random_density(4, np.random.default_rng(seed)), shots, seed)
    a, b, _, _, _, pinv, _ = tomo._design(plan.settings)
    y = np.array([r.observed_value for r in records]) - b
    w = np.ones(len(records)) if shots == 0 else np.array(
        [1.0 / r.standard_error for r in records])
    ref = np.linalg.lstsq(a * w[:, None], y * w, rcond=None)[0]
    assert tomo._solve_weighted(a, y, tomo._weights(records), pinv)[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["two_qubit_gates", "first_qubit_marginal",
                                  "single_qubit_ancilla"])
def test_square_plans_ignore_the_records_standard_errors(mode):
    rng = np.random.default_rng(61)
    plan = tomo.plan_standard(mode, ScatterParams(0.8, 0.3))
    truth = bloch_density([0.2, -0.4, 0.5]) if mode == "single_qubit_ancilla" else \
        random_density(4, rng)
    records = tomo.run_plan(plan, truth, 10_000, 62)
    for target in {r.setting.marginal_target for r in records}:
        recs = [r for r in records if r.setting.marginal_target == target]
        x = tomo._guarded_solve(recs)[0]
        for _ in range(5):
            scaled = [r._replace(standard_error=float(rng.uniform(1e-4, 1.0))) for r in recs]
            assert tomo._guarded_solve(scaled)[0].tobytes() == x.tobytes()


def test_weights_are_explicit_per_record():
    plan = tomo.plan_standard("two_qubit_gates", ScatterParams(0.8, 0.3))
    noiseless = tomo.run_plan(plan, singlet(), 0)
    noisy = tomo.run_plan(plan, singlet(), 1000, 5)
    assert tomo._weights(noiseless) is None
    # Weight 1 for a noiseless record because it has no shots, not because
    # its standard error is 0; a noisy record keeps 1/se.
    mixed = noisy[:3] + noiseless[3:5] + noisy[5:]
    w = tomo._weights(mixed)
    assert w.tolist() == [1.0 if r.shots == 0 else 1.0 / r.standard_error for r in mixed]
    assert w[3] == w[4] == 1.0
    mixed[3] = mixed[3]._replace(standard_error=0.5)
    assert tomo._weights(mixed)[3] == 1.0


def reconstruct(plan, records):
    if plan.mode == "first_qubit_marginal":
        return tomo.reconstruct_marginals(records)
    return tomo.reconstruct_two_qubit(records, plan)


class SolveCounter:
    """Counts calls of the np.linalg functions a solve may make."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(("lstsq", "pinv", "matrix_rank"), 0)
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, func):
        def call(*args, **kwargs):
            self.calls[name] += 1
            return func(*args, **kwargs)
        return call


@pytest.mark.parametrize("mode, per_call", [("two_qubit_gates", 0), ("first_qubit_marginal", 0),
                                            ("two_qubit_polarized", 1)])
def test_lstsq_runs_only_for_noisy_over_determined_plans(monkeypatch, mode, per_call):
    plan = tomo.plan_standard(mode, ScatterParams(1.1, 0.2))
    rng = np.random.default_rng(63)
    runs = [tomo.run_plan(plan, random_density(4, rng), 10_000, k) for k in range(50)]
    reconstruct(plan, runs[0])  # the design's pseudo-inverse is cached from here on
    counter = SolveCounter(monkeypatch)
    for records in runs:
        reconstruct(plan, records)
    assert counter.calls == {"lstsq": 50 * per_call, "pinv": 0, "matrix_rank": 0}
    # Noiseless records take the cached pseudo-inverse on every plan.
    reconstruct(plan, tomo.run_plan(plan, singlet(), 0))
    assert counter.calls == {"lstsq": 50 * per_call, "pinv": 0, "matrix_rank": 0}


def test_pure_fit_builds_no_pseudo_inverse(monkeypatch):
    plan = tomo.plan_standard("pure_state", ScatterParams(1.0, 0.0))
    records = tomo.run_plan(plan, singlet(), 0)
    counter = SolveCounter(monkeypatch)
    tomo.reconstruct_pure(records)
    assert counter.calls == {"lstsq": 1, "pinv": 0, "matrix_rank": 0}


@pytest.mark.parametrize("mode, designs", [("two_qubit_gates", 1), ("two_qubit_polarized", 1),
                                           ("first_qubit_marginal", 2)])
def test_each_design_builds_one_read_only_pseudo_inverse(mode, designs):
    # An uncached plan build gives fresh settings, so fresh design keys.
    plan = tomo._standard_plan.__wrapped__(mode, ScatterParams(0.65, 0.45))
    rng = np.random.default_rng(64)
    before = tomo._design.cache_info()
    for shots in (0, 1000, 0, 100_000):
        reconstruct(plan, tomo.run_plan(plan, random_density(4, rng), shots,
                                        int(rng.integers(2**31))))
    after = tomo._design.cache_info()
    # The first run_plan builds each design; every reconstruction reads it.
    assert after.misses - before.misses == designs
    assert after.hits - before.hits == 4 * designs
    for target in {tomo._target(s) for s in plan.settings}:
        settings = tuple(s for s in plan.settings if tomo._target(s) == target)
        a, _, _, _, _, pinv, _ = tomo._design(settings)
        assert not pinv.flags.writeable
        assert pinv.shape == a.shape[::-1]
        assert pinv.tobytes() == np.linalg.pinv(a, rtol=None).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            pinv[0, 0] = 0.0


def test_refused_two_qubit_designs_raise_in_order_on_every_call(monkeypatch):
    flat_plan = tomo.plan_standard("two_qubit_gates", ScatterParams(0.5, 0.4964046))
    flat = tomo.run_plan(flat_plan, singlet(), 0)
    pure_plan = tomo.plan_standard("pure_state", ScatterParams(1.0, 0.0))
    short = tomo.run_plan(pure_plan, singlet(), 1000, 3)
    counter = SolveCounter(monkeypatch)
    for _ in range(3):
        with pytest.raises(tomo.FlatDesignError,
                           match=r"^design is flat: largest singular value 2\.499e-10$"):
            tomo.reconstruct_two_qubit(flat, flat_plan)
        with pytest.raises(tomo.RankDeficientPlanError,
                           match=r"^design matrix rank 9 < 15; the plan cannot determine the state$"):
            tomo.reconstruct_two_qubit(short, pure_plan)
    # The guards refuse before any solve.
    assert counter.calls == {"lstsq": 0, "pinv": 0, "matrix_rank": 0}


@pytest.mark.parametrize("kind", [np.int64, np.uint32])
def test_numpy_integer_shots_store_python_ints(kind):
    plan = tomo.plan_standard("two_qubit_polarized", ScatterParams(0.9, 0.1))
    want = tomo.run_plan(plan, singlet(), 1000, 3)
    got = tomo.run_plan(plan, singlet(), kind(1000), 3)
    assert got == want
    assert all(type(r.shots) is int for r in got)
    setting = plan.settings[4]
    one = tomo.measure(setting, singlet(), kind(1000), 9)
    assert one == tomo.measure(setting, singlet(), 1000, 9) and type(one.shots) is int
    for r in got + [one]:
        text = json.dumps(tomo.record_to_json(r))
        assert json.loads(text) == json.loads(json.dumps(tomo.record_to_json(
            r._replace(shots=1000))))
    for bad in (2**63, np.uint64(2**63), np.int64(-1)):
        for call in (lambda s: tomo.run_plan(plan, singlet(), s, 3),
                     lambda s: tomo.measure(setting, singlet(), s, 3)):
            with pytest.raises(ValueError, match=r"^shots must be nonnegative and below 2\*\*63$"):
                call(bad)
