"""Penalized Fischer-Burmeister function and generalized derivative tests."""

import math

import numpy as np
import pytest

from fbqp import NcpConfig, phi_derivative_vec, phi_vec

# Hand-evaluated at alpha = 0.95.
PHI_1_1 = 0.6064971157455596     # 0.95 * (2 - sqrt(2)) + 0.05
PHI_M1_2 = -1.1742645786248003   # 0.95 * (1 - sqrt(5)); penalty term vanishes
D_ORIGIN = 0.2782485578727799    # 0.95 * (1 - 1/sqrt(2))
D_1_1 = 0.32824855787277996      # 0.95 * (1 - 1/sqrt(2)) + 0.05


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
def test_config_rejects_alpha_outside_open_interval(alpha):
    with pytest.raises(ValueError):
        NcpConfig(alpha=alpha)


def test_phi_zero_on_complementary_pairs():
    np.testing.assert_array_equal(phi_vec([1.0, 0.0, 0.0], [0.0, 3.0, 0.0]), [0.0, 0.0, 0.0])


def test_phi_frozen_values():
    np.testing.assert_allclose(
        phi_vec([1.0, -1.0, -1.0], [1.0, 2.0, 0.0]), [PHI_1_1, PHI_M1_2, -1.9], rtol=0, atol=1e-15
    )


def test_phi_vec_elementwise_and_empty():
    np.testing.assert_array_equal(phi_vec([1.0, 0.0], [0.0, 3.0]), [0.0, 0.0])
    assert phi_vec([], []).shape == (0,)
    np.testing.assert_allclose(
        phi_vec([1.0, 1.0], [1.0, 1.0]), [PHI_1_1, PHI_1_1], atol=1e-15
    )


def test_phi_vec_rejects_mismatch_and_non_finite():
    with pytest.raises(ValueError):
        phi_vec([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        phi_derivative_vec([1.0, 2.0], [1.0])
    # Non-finite data is rejected at the boundary (problem validation and
    # solve's warm-start check, see test_solver); here it only propagates.
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(phi_vec([np.nan, 1.0], [1.0, np.inf])).any()
        assert not np.isfinite(np.concatenate(phi_derivative_vec([np.nan], [1.0]))).any()


def test_phi_zero_set_characterization():
    # |phi| <= 1e-12 exactly on {y >= 0, v >= 0, y v = 0}, up to tolerance.
    rng = np.random.default_rng(2024)
    y = rng.uniform(-5.0, 5.0, size=20000)
    v = rng.uniform(-5.0, 5.0, size=20000)
    # Exercise the boundary too, where the tolerance bands matter.
    y = np.concatenate((y, np.zeros(50), rng.uniform(0, 5, 50), np.full(50, 1e-13)))
    v = np.concatenate((v, rng.uniform(0, 5, 50), np.zeros(50), np.full(50, 1e-13)))
    values = phi_vec(y, v)
    on_zero_set = (y >= -1e-12) & (v >= -1e-12) & (np.abs(y * v) <= 1e-12)
    np.testing.assert_array_equal(np.abs(values) <= 1e-12, on_zero_set)


def test_derivative_frozen_values():
    # Points (3, 4), the origin, (1, 0) and (1, 1).
    d_y, d_v = phi_derivative_vec([3.0, 0.0, 1.0, 1.0], [4.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(d_y, [0.58, D_ORIGIN, 0.0, D_1_1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(d_v, [0.34, D_ORIGIN, 0.95, D_1_1], rtol=0, atol=1e-15)
    assert d_y[2] == 0.0

    # The origin element scales with alpha along the same fixed direction.
    d_y, d_v = phi_derivative_vec([0.0], [0.0], NcpConfig(alpha=0.5))
    np.testing.assert_allclose((d_y[0], d_v[0]), (0.5 * (1 - 1 / math.sqrt(2)),) * 2)


def test_derivative_matches_finite_differences_on_smooth_region():
    rng = np.random.default_rng(7)
    step = 1e-6
    ys, vs = [], []
    while len(ys) < 500:
        y = float(rng.uniform(-5.0, 5.0))
        v = float(rng.uniform(-5.0, 5.0))
        # Stay away from the origin and the positive-part kinks.
        if math.hypot(y, v) < 1e-3 or abs(y) < 1e-3 or abs(v) < 1e-3:
            continue
        ys.append(y)
        vs.append(v)
    y, v = np.array(ys), np.array(vs)
    d_y, d_v = phi_derivative_vec(y, v)
    fd_y = (phi_vec(y + step, v) - phi_vec(y - step, v)) / (2 * step)
    fd_v = (phi_vec(y, v + step) - phi_vec(y, v - step)) / (2 * step)
    scale = 1.0 + np.abs(d_y) + np.abs(d_v)
    assert np.all(np.abs(d_y - fd_y) <= 1e-6 * scale)
    assert np.all(np.abs(d_v - fd_v) <= 1e-6 * scale)


def test_derivative_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    y = rng.uniform(-5.0, 5.0, size=5000)
    v = rng.uniform(-5.0, 5.0, size=5000)
    y = np.concatenate((y, [0.0, 0.0, 1.0, -1.0, 0.0]))
    v = np.concatenate((v, [0.0, 1.0, 0.0, 0.0, -1.0]))
    d_y, d_v = phi_derivative_vec(y, v)
    assert np.all(d_y >= 0.0)
    assert np.all(d_v >= 0.0)
    # The pair never vanishes jointly at the origin or where a component
    # is negative.
    interior = (np.minimum(y, v) < 0.0) | ((y == 0.0) & (v == 0.0))
    assert np.all((d_y + d_v)[interior] > 0.0)


def test_fischer_burmeister_part_is_positively_homogeneous():
    # The positive-part penalty scales quadratically, so extract the plain
    # Fischer-Burmeister term by removing it before checking homogeneity.
    rng = np.random.default_rng(9)
    config = NcpConfig(alpha=0.25)

    def fb_part(y, v):
        penalty = np.maximum(y, 0.0) * np.maximum(v, 0.0)
        return (phi_vec(y, v, config) - (1.0 - config.alpha) * penalty) / config.alpha

    y = rng.uniform(-5.0, 5.0, size=300)
    v = rng.uniform(-5.0, 5.0, size=300)
    for t in (0.5, 2.0, 7.5):
        np.testing.assert_allclose(
            fb_part(t * y, t * v), t * fb_part(y, v), rtol=1e-12, atol=1e-12
        )


def test_stacked_rows_match_row_by_row_bits():
    # The line search evaluates a stack of trial points at once; each row
    # must carry the bits of that row evaluated alone.
    rng = np.random.default_rng(11)
    y = rng.uniform(-5.0, 5.0, size=(9, 6)) * 10.0 ** rng.integers(-8, 8, size=(9, 6))
    v = rng.uniform(-5.0, 5.0, size=(9, 6))
    y[0] = 0.0
    v[0, :3] = 0.0
    y[1, ::2] = 1e-300
    for config in (None, NcpConfig(alpha=0.3)):
        stacked = phi_vec(y, v, config)
        d_y, d_v = phi_derivative_vec(y, v, config)
        assert stacked.shape == d_y.shape == d_v.shape == y.shape
        for row in range(y.shape[0]):
            np.testing.assert_array_equal(stacked[row], phi_vec(y[row], v[row], config))
            row_d_y, row_d_v = phi_derivative_vec(y[row], v[row], config)
            np.testing.assert_array_equal(d_y[row], row_d_y)
            np.testing.assert_array_equal(d_v[row], row_d_v)
    assert phi_vec(np.zeros((4, 0)), np.zeros((4, 0))).shape == (4, 0)


def test_stacked_inputs_reject_three_axes_and_mismatch():
    cube = np.ones((2, 2, 2))
    for function in (phi_vec, phi_derivative_vec):
        with pytest.raises(ValueError):
            function(cube, cube)
        with pytest.raises(ValueError):
            function(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            function(np.ones((3, 2)), np.ones(2))
