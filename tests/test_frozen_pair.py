"""The frozen-spin pair built from its mirror symmetry against the generic
cascade.

`frozen_pair` solves one multiple-scattering inverse per point and reads the
right-incidence blocks off r and t by the pi rotation about the two spins'
bisector.  `cascade` of the two frozen-spin blocks solves both inverses and
builds all four blocks; it is the oracle here, and no module of the package
calls it.
"""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from spintomo import scatter
from spintomo.scatter import (
    FrozenSpin,
    ResonantCascadeError,
    ScatterParams,
    cascade,
    frozen_block,
    frozen_pair,
)

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "spintomo").glob("*.py"))


def generic_pair(params, theta):
    return cascade(frozen_block(params, FrozenSpin.from_angles(0.0)),
                   frozen_block(params, FrozenSpin.from_angles(theta)), params)


_LOG_OMEGA = st.floats(-3.0, 1.0)
_OMEGA = _LOG_OMEGA.map(lambda e: 10.0 ** e)
_KD = st.floats(-10.0, 10.0).filter(bool)
_THETA = st.floats(-7.0, 7.0)
_THETAS = st.lists(_THETA, min_size=1, max_size=8).map(np.array)
# (params, theta): single points, angle grids, and omega or kd grids, with
# the angle a scalar or one per grid point.
_CASES = st.one_of(
    st.tuples(st.builds(ScatterParams, _OMEGA, _KD), st.one_of(_THETA, _THETAS)),
    st.tuples(st.builds(lambda es, kd: ScatterParams(10.0 ** np.array(es), kd),
                        st.lists(_LOG_OMEGA, min_size=1, max_size=8), _KD), _THETA),
    st.builds(lambda pts: (ScatterParams(10.0 ** np.array([p[0] for p in pts]),
                                         np.array([p[1] for p in pts])),
                           np.array([p[2] for p in pts])),
              st.lists(st.tuples(_LOG_OMEGA, _KD, _THETA), min_size=1, max_size=8)),
)


@given(_CASES)
def test_frozen_pair_matches_the_generic_cascade(case):
    params, theta = case
    got, want = frozen_pair(params, theta), generic_pair(params, theta)
    assert_array_equal(got.r, want.r)
    assert_array_equal(got.t, want.t)
    assert got.r.tobytes() == want.r.tobytes() and got.t.tobytes() == want.t.tobytes()
    for name in ("r_prime", "t_prime"):
        assert getattr(got, name).shape == getattr(want, name).shape, name
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-14, name
    for name in ("r", "t", "r_prime", "t_prime"):
        m = getattr(got, name)
        assert m.flags.c_contiguous and not m.flags.writeable, name


# At each limit below, some of these refuse and others build.
_REFUSAL_CASES = [
    (0.3, 0.0, np.pi / 3),
    (1.0, 0.4, np.linspace(0.0, np.pi, 7)),
    (3.0, 2.5, 2.0),
    (3.0, 0.4, 0.5),
    (10.0, 0.0, np.array([0.0, 1.0, 2.0, 3.0])),
    (np.array([0.2, 2.0, 5.0]), 1.1, 0.7),
    (np.array([0.05, 0.5, 8.0]), np.array([0.3, -4.0, 9.0]), np.array([0.0, 1.5, 3.0])),
]


def _outcome(build):
    try:
        block = build()
    except ResonantCascadeError as exc:
        return "refused", str(exc)
    return "built", block.t.tobytes()


@pytest.mark.parametrize("limit", [1.5, 2.5, 4.0])
def test_frozen_pair_refuses_what_the_generic_cascade_refuses(monkeypatch, limit):
    monkeypatch.setattr(scatter, "CONDITION_LIMIT", limit)
    outcomes = []
    for omega, kd, theta in _REFUSAL_CASES:
        params = ScatterParams(omega, kd)
        got = _outcome(lambda: frozen_pair(params, theta))
        assert got == _outcome(lambda: generic_pair(params, theta))
        outcomes.append(got[0])
    assert set(outcomes) == {"refused", "built"}


def cascade_calls(source: str) -> int:
    """Calls of a function named cascade, by name or as an attribute."""
    return sum(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cascade"
               for node in ast.walk(ast.parse(source)))


def test_cascade_calls_counts_both_spellings():
    assert cascade_calls("cascade(a, b, p)\nscatter.cascade(a, b, p)\ntwo_impurity_cascade(p)\n") == 2


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_package_module_calls_the_generic_cascade(path):
    assert cascade_calls(path.read_text()) == 0
