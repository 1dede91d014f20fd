"""The two-impurity cascade built from its qubit-exchange symmetry against
the generic cascade.

`two_impurity_cascade` solves one multiple-scattering inverse per point and
reads the right-incidence blocks off r and t by exchanging q1 and q2.
`cascade` of the two lifted impurity blocks solves both inverses and builds
all four blocks; it is the oracle here.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from spintomo import scatter
from spintomo.scatter import (
    ScatterBlock,
    ScatterParams,
    cascade,
    embed_block,
    qubit_block,
    two_impurity_cascade,
)

EXCHANGE = [0, 2, 1, 3, 4, 6, 5, 7]  # (flying, q1, q2) with q1 and q2 exchanged


def exchanged(m):
    return m[..., np.array(EXCHANGE)[:, None], EXCHANGE]


def generic_cascade(params):
    single = qubit_block(params)
    return cascade(embed_block(single, "first"), embed_block(single, "second"), params)


# Up to omega ~ 3.2, the sweeps' and validate's range.  Further out, near
# kd = k pi, m1 grows ill-conditioned and both cascades' primed blocks err by
# up to 1e-11 against a 50-digit evaluation; they then differ from each other
# by more than 1e-15 while agreeing with it equally well.
_LOG_OMEGA = st.floats(-3.0, 0.5)
_OMEGA = _LOG_OMEGA.map(lambda e: 10.0 ** e)
_KD = st.floats(-10.0, 10.0)
_POINTS = st.lists(_LOG_OMEGA, min_size=1, max_size=8)
_PARAMS = st.one_of(
    st.builds(ScatterParams, _OMEGA, _KD),
    st.builds(lambda om, kd: ScatterParams(np.array([om]), np.array([kd])), _OMEGA, _KD),
    st.builds(lambda es, kd: ScatterParams(10.0 ** np.array(es), kd), _POINTS, _KD),
    st.builds(lambda om, kds: ScatterParams(om, np.array(kds)), _OMEGA,
              st.lists(_KD, min_size=1, max_size=8)),
)


@given(_PARAMS)
def test_symmetric_cascade_matches_the_generic_cascade(params):
    got, want = two_impurity_cascade(params), generic_cascade(params)
    assert_array_equal(got.r, want.r)
    assert_array_equal(got.t, want.t)
    assert_array_equal(got.r_prime, exchanged(got.r))
    assert_array_equal(got.t_prime, exchanged(got.t))
    for name in ("r_prime", "t_prime"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-15, name
    for name in ("r", "t", "r_prime", "t_prime"):
        m = getattr(got, name)
        assert m.flags.c_contiguous and not m.flags.writeable, name


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("spoil", ["scale", "nan"])
def test_symmetric_block_refuses_what_the_public_constructor_refuses(lead, spoil):
    omega = 0.9 if lead == () else np.array([0.4, 0.9, 1.6])
    block = two_impurity_cascade(ScatterParams(omega, 0.3))
    t = np.array(block.t)
    if spoil == "scale":
        t *= 1.0 + 1e-9
    else:
        t[(0,) * len(lead) + (1, 2)] = np.nan
    r = np.array(block.r)
    with pytest.raises(ValueError, match="not unitary"):
        ScatterBlock(r=r, t=t, r_prime=exchanged(r), t_prime=exchanged(t))
    with pytest.raises(ValueError, match="not unitary"):
        scatter._exchange_symmetric_block(r, t, exchanged)
