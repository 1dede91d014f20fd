"""Each library refusal that no other test reaches, pinned by exception type
and message."""
import re

import numpy as np
import pytest

from spintomo import tomo
from spintomo.qmat import maximally_mixed, random_density, singlet
from spintomo.scatter import (
    FrozenSpin,
    ScatterBlock,
    ScatterParams,
    cascade,
    embed_block,
    frozen_block,
    pt_polarized_input,
    pt_unpolarized_closed_form,
    qubit_block,
    transmission_probability,
    two_impurity_block,
)

PARAMS = ScatterParams(1.0, 0.3)
_I2 = np.eye(2, dtype=complex)


def refuses(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


def test_a_marginal_target_without_an_ancilla_is_refused():
    for target in ("first", "second"):
        with refuses(ValueError, "a marginal_target needs an ancilla_axis"):
            tomo.MeasurementSetting(params=PARAMS, marginal_target=target)
    # An unknown target keeps its own message, checked first.
    with refuses(ValueError, "marginal_target must be first/second, got 'third'"):
        tomo.MeasurementSetting(params=PARAMS, marginal_target="third")
    setting = tomo.MeasurementSetting(params=PARAMS, ancilla_axis="x", marginal_target="first")
    assert setting.marginal_target == "first"


def _records(mode, dim):
    plan = tomo.plan_standard(mode, PARAMS)
    return plan, tomo.run_plan(plan, random_density(dim, np.random.default_rng(3)), 0)


def test_reconstructions_refuse_the_wrong_records():
    plan, register = _records("two_qubit_gates", 4)
    with refuses(ValueError, "reconstruct_single expects ancilla-based records"):
        tomo.reconstruct_single(register)
    with refuses(ValueError, "records do not match the plan"):
        tomo.reconstruct_two_qubit(register[:-1], plan)
    _, marginal = _records("first_qubit_marginal", 4)
    first = [r for r in marginal if r.setting.marginal_target == "first"]
    for records in (first, marginal[len(first):], []):
        with refuses(ValueError, "need records for both marginal targets"):
            tomo.reconstruct_marginals(records)


def test_scatter_block_refuses_a_non_square_or_mismatched_field():
    with refuses(ValueError, "t must be square"):
        ScatterBlock(r=_I2, t=np.ones((2, 3)), r_prime=_I2, t_prime=_I2)
    with refuses(ValueError, "r must be square"):
        ScatterBlock(r=np.ones(2), t=_I2, r_prime=_I2, t_prime=_I2)
    with refuses(ValueError, "all four blocks must share one shape"):
        ScatterBlock(r=_I2, t=_I2, r_prime=np.eye(4), t_prime=_I2)


def test_block_dimension_mismatches_are_refused():
    frozen = frozen_block(PARAMS, FrozenSpin.from_angles(0.4))
    with refuses(ValueError, "embed_block expects a dim-4 block, got 2"):
        embed_block(frozen, "first")
    with refuses(ValueError, "cascaded blocks must share a dimension"):
        cascade(frozen, qubit_block(PARAMS), PARAMS)
    with refuses(ValueError, "state dim 4 does not match block dim 8"):
        transmission_probability(two_impurity_block(PARAMS), singlet())


def test_closed_forms_refuse_a_one_qubit_state_and_sign_zero():
    kd0 = ScatterParams(1.0)
    with refuses(ValueError, "expected a two-qubit static state, got dim 2"):
        pt_unpolarized_closed_form(kd0, maximally_mixed(2))
    with refuses(ValueError, "sign must be +1 or -1"):
        pt_polarized_input(kd0, singlet(), "z", 0)
