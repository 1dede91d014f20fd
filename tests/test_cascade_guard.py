"""The cascade's resonance guard and the scattering block's unitarity check
against their direct forms.

`cascade` certifies each point from the Frobenius norms of the matrix it
inverts and of the computed inverse, and runs the SVD guard only when that
is inconclusive.  `reference_cascade` below runs the SVD guard first on
every point; the two must refuse the same inputs with the same message and
otherwise return the same blocks bit for bit.  The unitarity check builds
S^dag S from the column blocks of S; `full_deviation` forms it from the
whole matrix.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import scatter
from spintomo.qmat import random_unitary
from spintomo.scatter import (
    CONDITION_LIMIT,
    UNITARITY_TOL,
    FrozenSpin,
    ResonantCascadeError,
    ScatterBlock,
    ScatterParams,
    _dagger,
    _phase_factors,
    cascade,
    embed_block,
    frozen_block,
    qubit_block,
    two_impurity_cascade,
)


def reference_cascade(b1, b2, params):
    """cascade with the SVD guard run on every point before any solve."""
    ident = np.eye(b1.dim, dtype=complex)
    ph, ph2 = _phase_factors(params)
    m1 = ident - ph2 * (b1.r_prime @ b2.r)
    m2 = ident - ph2 * (b2.r @ b1.r_prime)
    for m in (m1, m2):
        s = np.linalg.svd(m, compute_uv=False)
        s_max, s_min = s[..., 0], s[..., -1]
        resonant = ~((s_max <= CONDITION_LIMIT * s_min) & (s_min >= 1.0 / CONDITION_LIMIT))
        if resonant.any():
            raise ResonantCascadeError(
                "resonant cascade: multiple-scattering inversion has singular "
                f"values {s_max[resonant][0]:.3e} down to {s_min[resonant][0]:.3e}")
    inv1 = np.linalg.solve(m1, ident)
    inv2 = np.linalg.solve(m2, ident)
    t_c = ph * (b2.t @ inv1 @ b1.t)
    r_c = b1.r + ph2 * (b1.t_prime @ b2.r @ inv1 @ b1.t)
    tp_c = ph * (b1.t_prime @ inv2 @ b2.t_prime)
    rp_c = b2.r_prime + ph2 * (b2.t @ b1.r_prime @ inv2 @ b2.t_prime)
    return ScatterBlock(r=r_c, t=t_c, r_prime=rp_c, t_prime=tp_c)


def _outcome(build):
    """The blocks a cascade returns, or the kind and message of its refusal."""
    try:
        block = build()
    except ResonantCascadeError as exc:
        return "resonant", str(exc)
    except ValueError as exc:
        assert "not unitary" in str(exc)
        return "not unitary", str(exc)
    return block


def _assert_same_outcome(b1, b2, params):
    got = _outcome(lambda: cascade(b1, b2, params))
    want = _outcome(lambda: reference_cascade(b1, b2, params))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in ("r", "t", "r_prime", "t_prime"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _mirror(dim, lead=()):
    minus = -np.broadcast_to(np.eye(dim, dtype=complex), lead + (dim, dim))
    zero = np.zeros(lead + (dim, dim), dtype=complex)
    return ScatterBlock(r=minus, t=zero, r_prime=minus, t_prime=zero)


def _pair(kind, params, rng, lead=()):
    if kind == "mirror":
        dim = int(rng.choice([2, 4, 8]))
        return _mirror(dim, lead), _mirror(dim, lead)
    if kind == "frozen":
        n = rng.normal(size=(2,) + lead + (3,))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        return frozen_block(params, FrozenSpin(n[0])), frozen_block(params, FrozenSpin(n[1]))
    single = qubit_block(params)
    return embed_block(single, "first"), embed_block(single, "second")


# Offsets from kd = k pi: exactly on resonance, or 1e-16 to 1 away.
_KD_OFFSET = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                               st.sampled_from([-1, 1]), st.floats(-16.0, 0.0)))


@given(log_omega=st.floats(-3.0, 4.0), k=st.integers(-6, 6), delta=_KD_OFFSET,
       kind=st.sampled_from(["frozen", "qubit", "mirror"]), seed=st.integers(0, 2**32 - 1))
def test_cascade_refuses_exactly_what_the_svd_guard_refuses(log_omega, k, delta, kind, seed):
    params = ScatterParams(10.0 ** log_omega, k * np.pi + delta)
    b1, b2 = _pair(kind, params, np.random.default_rng(seed))
    _assert_same_outcome(b1, b2, params)


@given(log_omega=st.floats(-3.0, 4.0), k=st.integers(-6, 6),
       offsets=st.lists(_KD_OFFSET, min_size=1, max_size=6),
       kind=st.sampled_from(["frozen", "qubit", "mirror"]), seed=st.integers(0, 2**32 - 1))
def test_stacked_cascade_refuses_exactly_what_the_svd_guard_refuses(log_omega, k, offsets,
                                                                    kind, seed):
    # A kd grid around k pi; one refused point refuses the whole grid in both.
    params = ScatterParams(10.0 ** log_omega, k * np.pi + np.array(offsets))
    b1, b2 = _pair(kind, params, np.random.default_rng(seed), lead=(len(offsets),))
    _assert_same_outcome(b1, b2, params)


@pytest.mark.parametrize("kd", [0.0, np.pi, 2 * np.pi, [0.5, np.pi, 1.0], [0.5, 0.0]])
def test_mirror_pairs_on_resonance_refuse_with_the_svd_message(kd):
    # At kd = 0 the matrix to invert is exactly zero and the solve fails; at
    # kd = pi it is a tiny multiple of the identity and the solve succeeds.
    params = ScatterParams(1.0, kd)
    lead = np.shape(kd)
    got = _outcome(lambda: cascade(_mirror(4, lead), _mirror(4, lead), params))
    assert got[0] == "resonant"
    assert got == _outcome(lambda: reference_cascade(_mirror(4, lead), _mirror(4, lead), params))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("kd", [0.0, 0.3, 1.7])
def test_benign_grids_take_the_certificate(monkeypatch, kd):
    # A sweep-sized grid away from resonance is certified from its inverse:
    # the SVD never runs.  A change that falls back on every point fails here.
    calls = _count_calls(monkeypatch, np.linalg, "svd")
    two_impurity_cascade(ScatterParams(np.linspace(0.2, 1.4, 60), kd))
    two_impurity_cascade(ScatterParams(0.8, np.linspace(0.0, 1.2, 60)))
    angles = np.linspace(0.0, 3.0, 120)
    params = ScatterParams(1.1, kd)
    cascade(frozen_block(params, FrozenSpin.from_angles(0.0)),
            frozen_block(params, FrozenSpin.from_angles(angles)), params)
    assert calls == []
    with pytest.raises(ResonantCascadeError):
        cascade(_mirror(4), _mirror(4), ScatterParams(1.0))
    assert calls, "the resonant mirror pair must reach the SVD guard"


@pytest.mark.parametrize("params", [ScatterParams(0.8, 0.3),
                                    ScatterParams(np.linspace(0.2, 1.4, 60), 0.4)])
def test_two_impurity_cascade_solves_and_certifies_once(monkeypatch, params):
    # The right-incidence inverse is the left one with q1 and q2 exchanged,
    # so one solve and one certificate serve both.  A change that solves
    # both inverses again fails here.
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    certificates = _count_calls(monkeypatch, scatter, "_certified")
    two_impurity_cascade(params)
    assert (len(solves), len(certificates)) == (1, 1)


@pytest.mark.parametrize("params", [ScatterParams(0.8, 0.3),
                                    ScatterParams(np.linspace(0.2, 1.4, 60), 0.4),
                                    ScatterParams(0.8, np.linspace(0.0, 1.2, 60))])
def test_uncertified_points_take_one_svd(monkeypatch, params):
    # Without the certificate the fallback guards m1 alone: X m1 X has its
    # singular values.  The blocks are those the certified path returns.
    want = two_impurity_cascade(params)
    monkeypatch.setattr(scatter, "_certified", lambda m, inv: False)
    svd = _count_calls(monkeypatch, np.linalg, "svd")
    got = two_impurity_cascade(params)
    assert len(svd) == 1
    for name in ("r", "t", "r_prime", "t_prime"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@given(dim=st.sampled_from([2, 4, 8]), log_cond=st.floats(0.0, 14.0),
       log_scale=st.floats(-14.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_a_certified_matrix_passes_the_svd_guard(dim, log_cond, log_scale, seed):
    # Singular values spread over 10**log_cond, scaled by 10**log_scale:
    # whatever the certificate accepts, the SVD guard accepts too.
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_scale * np.logspace(0.0, -log_cond, dim)
    m = (random_unitary(dim, rng) * s) @ random_unitary(dim, rng)
    inv = np.linalg.solve(m, np.eye(dim, dtype=complex))
    if scatter._certified(m, inv):
        scatter._svd_guard(m)


def full_deviation(block):
    """max |S^dag S - I| over the whole scattering matrix S of each point."""
    s = block.full()
    return np.max(np.abs(_dagger(s) @ s - np.eye(s.shape[-1])))


@given(dim=st.sampled_from([2, 4, 8]), lead=st.sampled_from([(), (3,)]),
       which=st.sampled_from(["r", "t", "r_prime", "t_prime"]),
       log_size=st.floats(-13.0, -7.0), seed=st.integers(0, 2**32 - 1))
def test_unitarity_check_refuses_as_the_full_matrix_does(dim, lead, which, log_size, seed):
    # Perturb one block of a unitary S by about 10**log_size, on either side
    # of the tolerance; the block-wise deviation refuses exactly when the
    # full S^dag S deviation exceeds UNITARITY_TOL, and prints its digits.
    rng = np.random.default_rng(seed)
    u = np.array([random_unitary(2 * dim, rng) for _ in range(int(np.prod(lead)))])
    u = u.reshape(lead + (2 * dim, 2 * dim))
    blocks = {"r": u[..., :dim, :dim], "t_prime": u[..., :dim, dim:],
              "t": u[..., dim:, :dim], "r_prime": u[..., dim:, dim:]}
    noise = rng.normal(size=lead + (dim, dim)) + 1j * rng.normal(size=lead + (dim, dim))
    blocks[which] = blocks[which] + 10.0 ** log_size * noise
    ref = object.__new__(ScatterBlock)
    for name, m in blocks.items():
        object.__setattr__(ref, name, m)
    want = full_deviation(ref)
    if abs(want / UNITARITY_TOL - 1.0) < 1e-6:
        return
    if want <= UNITARITY_TOL:
        ScatterBlock(**blocks)
    else:
        with pytest.raises(ValueError, match=f"not unitary: deviation {want:.3e}$"):
            ScatterBlock(**blocks)


def test_unitarity_check_refuses_nan_in_any_block():
    good = qubit_block(ScatterParams(np.array([0.5, 1.0])))
    for name in ("r", "t", "r_prime", "t_prime"):
        blocks = {n: np.array(getattr(good, n)) for n in ("r", "t", "r_prime", "t_prime")}
        blocks[name][1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not unitary: deviation nan"):
            ScatterBlock(**blocks)


@pytest.mark.parametrize("params", [ScatterParams(0.8, 0.3),
                                    ScatterParams(np.linspace(0.2, 1.4, 60), 0.4)])
def test_uncertified_points_keep_their_one_solve(monkeypatch, params):
    # The SVD guard only decides; the inverse is the first solve's.
    monkeypatch.setattr(scatter, "_certified", lambda m, inv: False)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    two_impurity_cascade(params)
    assert len(solves) == 1


def test_an_exactly_singular_matrix_is_refused_by_the_svd_guard():
    # solve raises LinAlgError on it; the guard names the resonance instead.
    with pytest.raises(ResonantCascadeError, match="^resonant cascade: "):
        scatter._guarded_inverse(np.zeros((2, 2), dtype=complex))
