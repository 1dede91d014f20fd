"""Stacked (grid) scattering against per-point scalar oracles.

A sweep evaluates its whole grid in one stacked pass: ScatterParams and
FrozenSpin hold arrays, and every block, cascade and probability carries a
leading grid axis.  The oracles here build each grid point on its own from
the scalar qubit_block/embed_block/cascade or frozen_block/cascade path.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spintomo import cli
from spintomo.qmat import maximally_mixed, random_density
from spintomo.scatter import (
    FrozenSpin,
    ResonantCascadeError,
    ScatterBlock,
    ScatterParams,
    cascade,
    embed_block,
    frozen_block,
    frozen_pair_pt,
    full_input_state,
    pt_polarized_input,
    pt_unpolarized_closed_form,
    qubit_block,
    transmission_probability,
    transmitted_polarization,
    two_impurity_block,
    two_impurity_cascade,
    _zero_phase_omega_squared,
)

GRID_ATOL = 1e-15

omegas = st.lists(st.floats(0.1, 3.0), min_size=1, max_size=12)
phases = st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=12)
seeds = st.integers(0, 2**32 - 1)


def pair_oracle(omega, kd, full):
    """P_T at one point from the scalar embed/cascade path."""
    params = ScatterParams(omega, kd)
    single = qubit_block(params)
    block = cascade(embed_block(single, "first"), embed_block(single, "second"), params)
    return transmission_probability(block, full)


def frozen_oracle(omega, kd, theta):
    params = ScatterParams(omega, kd)
    block = cascade(frozen_block(params, FrozenSpin.from_angles(0.0)),
                    frozen_block(params, FrozenSpin.from_angles(theta)), params)
    return transmission_probability(block, maximally_mixed(2))


def _full(seed):
    return full_input_state(maximally_mixed(2), random_density(4, np.random.default_rng(seed)))


@given(omegas, st.floats(0.0, 2 * np.pi, exclude_max=True), seeds)
def test_stacked_omega_grid_matches_points(grid, kd, seed):
    full = _full(seed)
    got = transmission_probability(two_impurity_cascade(ScatterParams(grid, kd)), full)
    assert got.shape == (len(grid),)
    assert_allclose(got, [pair_oracle(w, kd, full) for w in grid], rtol=0, atol=GRID_ATOL)


@given(st.floats(0.1, 3.0), phases, seeds)
def test_stacked_kd_grid_matches_points(omega, grid, seed):
    full = _full(seed)
    got = transmission_probability(two_impurity_cascade(ScatterParams(omega, grid)), full)
    assert_allclose(got, [pair_oracle(omega, kd, full) for kd in grid], rtol=0, atol=GRID_ATOL)


@given(st.floats(0.1, 3.0), st.floats(0.0, 2 * np.pi, exclude_max=True),
       st.lists(st.floats(0.0, np.pi), min_size=1, max_size=12))
def test_stacked_theta_grid_matches_points(omega, kd, thetas):
    params = ScatterParams(omega, kd)
    block = cascade(frozen_block(params, FrozenSpin.from_angles(0.0)),
                    frozen_block(params, FrozenSpin.from_angles(thetas)), params)
    got = transmission_probability(block, maximally_mixed(2))
    assert_allclose(got, [frozen_oracle(omega, kd, th) for th in thetas],
                    rtol=0, atol=GRID_ATOL)


@given(omegas, st.lists(st.floats(0.0, np.pi), min_size=1, max_size=12), seeds)
@example([0.5, 0.8483837238129177], [0.3], 0)
def test_closed_forms_on_grids_equal_points(grid, thetas, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng)
    closed = pt_unpolarized_closed_form(ScatterParams(grid, 0.0), rho)
    assert_array_equal(closed, [pt_unpolarized_closed_form(ScatterParams(w, 0.0), rho)
                                for w in grid])
    pol = transmitted_polarization(ScatterParams(grid, 0.0), rho)
    assert_array_equal(pol, [transmitted_polarization(ScatterParams(w, 0.0), rho)
                             for w in grid])
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    sign = int(rng.choice([-1, 1]))
    injected = pt_polarized_input(ScatterParams(grid, 0.0), rho, n, sign)
    assert_array_equal(injected, [pt_polarized_input(ScatterParams(w, 0.0), rho, n, sign)
                                  for w in grid])
    pair = frozen_pair_pt(ScatterParams(grid[0], 0.0), np.array(thetas))
    assert_array_equal(pair, [frozen_pair_pt(ScatterParams(grid[0], 0.0), th)
                              for th in thetas])


def test_closed_forms_square_omega_correctly_rounded():
    # C pow rounds 0.8483837238129177 ** 2 to 0.719754942830673; the
    # correctly rounded square is 0.7197549428306731.
    w = 0.8483837238129177
    assert _zero_phase_omega_squared(ScatterParams(w)) == w * w == 0.7197549428306731
    assert_array_equal(_zero_phase_omega_squared(ScatterParams([w, 2.0])), [w * w, 4.0])


def test_cached_block_is_the_one_point_grid():
    params = ScatterParams(0.9, 0.35)
    grid = two_impurity_cascade(ScatterParams(np.array([0.9]), np.array([0.35])))
    block = two_impurity_block(params)
    for name in ("r", "t", "r_prime", "t_prime"):
        assert_array_equal(getattr(grid, name)[0], getattr(block, name))
    with pytest.raises(TypeError):
        two_impurity_block(ScatterParams(np.array([0.9, 1.0])))  # grids are not cached


def test_grid_params_are_validated_and_read_only():
    grid = ScatterParams([0.5, 1.0], np.array([0.0, 0.2]))
    with pytest.raises(ValueError):
        grid.omega[0] = 2.0
    with pytest.raises(ValueError):
        ScatterParams([0.5, np.inf])
    with pytest.raises(ValueError):
        ScatterParams(1.0, [0.0, np.nan])
    with pytest.raises(ValueError):
        FrozenSpin(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]]))


def _mirror(lead=()):
    minus = -np.broadcast_to(np.eye(4, dtype=complex), lead + (4, 4))
    zero = np.zeros(lead + (4, 4), dtype=complex)
    return ScatterBlock(r=minus, t=zero, r_prime=minus, t_prime=zero)


def test_stacked_resonant_cascade_guard():
    # the test_scatter mirror pair, stacked: I - exp(2i kd) r' r vanishes at kd = 0
    with pytest.raises(ResonantCascadeError):
        cascade(_mirror((3,)), _mirror((3,)), ScatterParams(1.0))
    # one resonant point refuses the whole grid
    with pytest.raises(ResonantCascadeError):
        cascade(_mirror(), _mirror(), ScatterParams(1.0, [0.5, 0.0, 1.0]))
    block = cascade(_mirror(), _mirror(), ScatterParams(1.0, [0.5, 1.0]))
    assert block.t.shape == (2, 4, 4)


def test_cascade_guard_sees_a_tiny_identity_multiple():
    # at kd = pi, I - exp(2i kd) r' r is 2.4e-16i * I: condition 1, yet singular
    with pytest.raises(ResonantCascadeError):
        cascade(_mirror(), _mirror(), ScatterParams(1.0, np.pi))
    with pytest.raises(ResonantCascadeError):
        cascade(_mirror(), _mirror(), ScatterParams(1.0, [0.5, np.pi, 1.0]))
    for kd in (0.5, 1.0):
        assert cascade(_mirror(), _mirror(), ScatterParams(1.0, kd)).t.shape == (4, 4)


def test_stacked_unitarity_checks_every_block():
    good = qubit_block(ScatterParams(np.array([0.5, 1.0, 1.5])))
    t = np.array(good.t)
    t[1] *= 0.5
    with pytest.raises(ValueError, match="not unitary"):
        ScatterBlock(r=good.r, t=t, r_prime=good.r_prime, t_prime=good.t_prime)


def test_sweep_large_coupling_refused_with_unitarity_message(capsys):
    assert cli.main(["sweep", "--omega-range", "1e3:1e3:1", "--state", "singlet"]) == 2
    assert "scattering matrix is not unitary" in capsys.readouterr().err


def test_sweep_with_one_bad_point_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--omega-range", "1:1e3:999", "--state", "singlet",
                     "--out", str(out)]) == 2
    assert "not unitary" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["sweep", "--omega-range", "1:2:1", "--state", "singlet",
                     "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_sweep_rows_equal_point_oracle(tmp_path):
    out = tmp_path / "kd.csv"
    assert cli.main(["sweep", "--kd-range", "0:3:0.25", "--omega", "0.8",
                     "--state", "random:11", "--out", str(out)]) == 0
    full = full_input_state(maximally_mixed(2), cli.parse_state("random:11"))
    rows = [[float(v) for v in r.split(",")] for r in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 13
    # a grid row reproduces its single point digit for digit
    assert_array_equal([r[3] for r in rows], [pair_oracle(om, kd, full) for om, kd, *_ in rows])


@pytest.mark.parametrize("argv", [
    ["--kd-range", "0:3:0.1", "--omega", "1.1", "--state", "random:2"],
    ["--omega-range", "0.1:2:0.1", "--kd", "0.4", "--state", "werner:0.3"],
    ["--theta-range", "0:3:0.1", "--omega", "0.7", "--kd", "0.2"],
])
def test_sliced_sweep_equals_one_pass(tmp_path, monkeypatch, argv):
    whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
    assert cli.main(["sweep", *argv, "--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "SWEEP_SLICE", 7)
    assert cli.main(["sweep", *argv, "--out", str(sliced)]) == 0
    assert sliced.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().strip().split("\n")) > 20
