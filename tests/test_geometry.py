"""Chart, projection, and tangency tests on the cylinder preset.

The chart's pushforward pi_push is checked against central finite
differences and, bit for bit, against the contraction of the closed-form
projection Jacobian; dpi_k against hand-derived closed forms for the linear
and constant vertical fields.  Leaf invariance of the rotation flow is
exercised through the exact jump map.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from folevy import (ConstantK, LinearK, VectorFieldSet, dpi_k,
                    make_cylinder_preset, tangency_check)
from folevy.geometry import _rotate

SEED = 20260816


def _chart(**kwargs):
    return make_cylinder_preset(**kwargs).chart


def _jacobian(x):
    # dPi of the cylinder, rows (x/r, y/r, 0) and (0, 0, 1)
    r = np.hypot(x[..., 0], x[..., 1])
    jac = np.zeros(x.shape[:-1] + (2, 3))
    jac[..., 0, 0] = x[..., 0] / r
    jac[..., 0, 1] = x[..., 1] / r
    jac[..., 1, 2] = 1.0
    return jac


def _contract(x, w):
    """The Jacobian contraction pi_push replaces: the reference it must
    equal bit for bit."""
    return np.einsum("...ij,...j->...i", _jacobian(x), w)


def _fd_push(chart, h=1e-6):
    """(x, w) -> a central difference of the projection along w: the
    numerical reference for pi_push."""
    proj = chart.vertical_projection
    return lambda x, w: (proj(x + h * w) - proj(x - h * w)) / (2 * h)


def _points_inside(preset, n, seed=SEED):
    # uniform draws from the box around U, kept where they fall in U
    gen = np.random.Generator(np.random.Philox(seed))
    (_, r_max), (z_min, z_max) = preset.chart.vertical_bounds
    pts = gen.uniform([-r_max, -r_max, z_min], [r_max, r_max, z_max],
                      size=(4 * n, 3))
    pts = pts[preset.chart.contains(pts)]
    assert len(pts) >= n
    return pts[:n]


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

def test_vertical_projection_reads_radius_and_height():
    chart = _chart()
    x = np.array([3.0, 4.0, 0.7])
    v = chart.vertical_projection(x)
    assert abs(v[0] - 5.0) <= 1e-12
    assert abs(v[1] - 0.7) <= 1e-12


def test_contains_is_strict():
    chart = _chart(r_min=0.2, r_max=5.0, z_min=-10.0, z_max=10.0)
    assert chart.contains(np.array([1.0, 0.0, 0.0]))
    assert not chart.contains(np.array([5.0, 0.0, 0.0]))
    assert not chart.contains(np.array([0.2, 0.0, 0.0]))
    assert not chart.contains(np.array([1.0, 0.0, 10.0]))
    assert not chart.contains(np.array([0.0, 0.0, 0.0]))


def test_vertical_bounds_and_distance():
    chart = _chart(r_min=0.5, r_max=2.0, z_min=-1.0, z_max=1.0)
    assert chart.vertical_bounds == ((0.5, 2.0), (-1.0, 1.0))
    assert chart.vertical_contains(np.array([1.0, 0.0]))
    assert not chart.vertical_contains(np.array([2.0, 0.0]))
    d = chart.boundary_distance(np.array([1.0, 0.25]))
    assert abs(d - 0.5) <= 1e-12
    assert chart.boundary_distance(np.array([3.0, 0.0])) <= 0.0


def test_leaf_nodes_is_bit_identical_to_stacked_form():
    chart = _chart()
    gen = np.random.default_rng(SEED)
    v = (1.7, -2.3)
    for angles in (0.3, gen.uniform(0, 7, 64), gen.uniform(-7, 7, (4, 5))):
        a = np.asarray(angles, dtype=float)
        want = np.stack([1.7 * np.cos(a), 1.7 * np.sin(a),
                         np.full_like(a, -2.3)], axis=-1)
        got = chart.leaf_nodes(angles)(v)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_leaf_nodes_broadcast_v_against_the_angles():
    # one v per angle: row i is the point at angle i on the leaf through
    # v[i], the bits leaf_nodes gives for that angle and v alone
    chart = _chart()
    gen = np.random.default_rng(SEED + 11)
    angles = gen.uniform(0, 7, 16)
    v = np.stack([gen.uniform(0.3, 4.0, 16), gen.uniform(-9, 9, 16)], axis=-1)
    got = chart.leaf_nodes(angles)(v)
    assert got.shape == (16, 3)
    for a, vi, row in zip(angles, v, got):
        assert row.tobytes() == chart.leaf_nodes(a)(vi).tobytes()
    assert np.array_equal(chart.vertical_projection(got)[:, 1], v[:, 1])
    assert np.max(np.abs(chart.vertical_projection(got) - v)) <= 1e-14


def test_linear_k_is_bit_identical_to_zeros_like_form():
    gen = np.random.default_rng(SEED)
    wide = gen.normal(size=(6, 5))
    for x in (gen.normal(size=3), gen.normal(size=(9, 3)),
              gen.normal(size=(2, 4, 3)), wide[:, 1:4]):
        want = np.zeros_like(x)
        want[..., 0] = x[..., 0]
        got = LinearK()(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# projection Jacobian, applied through pi_push
# ---------------------------------------------------------------------------

def test_pi_push_matches_finite_differences():
    preset = make_cylinder_preset()
    chart, fd = preset.chart, _fd_push(preset.chart)
    gen = np.random.default_rng(SEED)
    for x in _points_inside(preset, 40, seed=SEED + 1):
        # the Jacobian's columns are the pushforwards of the unit vectors
        analytic = np.stack([chart.pi_push(x, e) for e in np.eye(3)], axis=-1)
        numeric = np.stack([fd(x, e) for e in np.eye(3)], axis=-1)
        assert analytic.shape == (2, 3)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6
        w = gen.normal(size=3)
        assert np.max(np.abs(chart.pi_push(x, w) - fd(x, w))) <= 1e-6


def test_pi_push_closed_form_row():
    chart = _chart()
    x = np.array([2.0 * math.cos(0.3), 2.0 * math.sin(0.3), 1.0])
    jac = np.stack([chart.pi_push(x, e) for e in np.eye(3)], axis=-1)
    expected = np.array([[math.cos(0.3), math.sin(0.3), 0.0],
                         [0.0, 0.0, 1.0]])
    assert np.max(np.abs(jac - expected)) <= 1e-12


def test_pi_push_is_bit_identical_to_jacobian_contraction():
    preset = make_cylinder_preset()
    gen = np.random.default_rng(SEED + 6)
    x = _points_inside(preset, 2000, seed=SEED + 7)
    for w in (gen.normal(size=x.shape), LinearK()(x),
              ConstantK(0.3, -0.7, 1.1)(x)):
        got = preset.chart.pi_push(x, w)
        assert got.shape == (len(x), 2)
        assert got.tobytes() == _contract(x, w).tobytes()
    one = preset.chart.pi_push(x[0], w[0])
    assert one.tobytes() == _contract(x[0], w[0]).tobytes()


# ---------------------------------------------------------------------------
# dpi_k: the projected vertical field
# ---------------------------------------------------------------------------

def test_dpi_k_linear_closed_form():
    # K(x) = (x, 0, 0): radial component r cos^2(phi), no vertical part
    preset = make_cylinder_preset()
    for r, phi in [(0.5, 0.0), (1.0, 0.9), (2.0, 2.5), (3.0, -1.2)]:
        x = preset.chart.leaf_nodes(np.array([phi]))(np.array([r, 0.0]))[0]
        val = dpi_k(preset.chart, preset.fields, x)
        expected = np.array([r * math.cos(phi) ** 2, 0.0])
        assert np.max(np.abs(val - expected)) <= 1e-10


def test_dpi_k_constant_closed_forms():
    vertical = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 2.0))
    x = vertical.chart.leaf_nodes(np.array([1.1]))(np.array([1.5, 0.3]))[0]
    val = dpi_k(vertical.chart, vertical.fields, x)
    assert np.max(np.abs(val - np.array([0.0, 2.0]))) <= 1e-12

    planar = make_cylinder_preset(k_choice=ConstantK(1.0, 0.0, 0.0))
    x0 = planar.chart.leaf_nodes(np.array([0.0]))(np.array([1.5, 0.0]))[0]
    val0 = dpi_k(planar.chart, planar.fields, x0)
    # at angle 0 the unit horizontal (1, 0, 0) is exactly radial
    assert np.max(np.abs(val0 - np.array([1.0, 0.0]))) <= 1e-12

    # a batch gives one row per point, zeros without a perturbation
    batch = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.2]])
    none = dataclasses.replace(planar.fields, perturbation=None)
    assert dpi_k(planar.chart, planar.fields, batch).shape == (2, 2)
    assert np.array_equal(dpi_k(planar.chart, none, batch), np.zeros((2, 2)))


def test_dpi_k_is_bit_identical_to_jacobian_contraction():
    # ConstantK(0, 0, 2) has a radial part of exactly zero: the
    # contraction's sum starts at +0.0, while pi_push keeps the sign of
    # (x/r)*0 + (y/r)*0, so there the values match but not their bytes
    for k, zero_radial in ((LinearK(), False), (ConstantK(0.3, -0.7, 1.1), False),
                           (ConstantK(0.0, 0.0, 2.0), True)):
        preset = make_cylinder_preset(k_choice=k)
        x = _points_inside(preset, 2000, seed=SEED + 8)
        got = dpi_k(preset.chart, preset.fields, x)
        want = _contract(x, k(x))
        if zero_radial:
            assert np.array_equal(got, want)
            assert got[:, 1].tobytes() == want[:, 1].tobytes()
        else:
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# vertical field choices
# ---------------------------------------------------------------------------

def test_field_callables():
    lin = LinearK()
    assert np.allclose(lin(np.array([2.0, -1.0, 3.0])), [2.0, 0.0, 0.0])
    con = ConstantK(0.5, -0.25, 2.0)
    assert np.allclose(con(np.array([9.0, 9.0, 9.0])), [0.5, -0.25, 2.0])
    batch = lin(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    assert batch.shape == (2, 3)
    assert np.allclose(batch[:, 0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# rotation flow (exact jump map)
# ---------------------------------------------------------------------------

def test_rotation_preserves_radius_and_height():
    gen = np.random.Generator(np.random.Philox(SEED + 2))
    x = gen.normal(size=(100, 3))
    z = gen.normal(size=100) * 3.0
    out = _rotate(x, z)
    r_in = np.hypot(x[:, 0], x[:, 1])
    r_out = np.hypot(out[:, 0], out[:, 1])
    assert np.max(np.abs(r_out - r_in)) <= 1e-12
    # height is copied through untouched, not recomputed
    assert np.array_equal(out[:, 2], x[:, 2])


def test_rotate_is_bit_identical_to_textbook_form():
    gen = np.random.default_rng(SEED + 10)
    wide = gen.normal(size=(7, 5))
    cases = [(gen.normal(size=3), 0.7), (gen.normal(size=3), np.array(-2.1)),
             (gen.normal(size=(1, 3)), gen.normal(size=1)),
             (gen.normal(size=(64, 3)), gen.gamma(0.005, size=64)),
             (gen.normal(size=(64, 3)), 1.3),
             (gen.normal(size=(2, 4, 3)), gen.normal(size=(2, 4)) * 5.0),
             (wide[:, 1:4], gen.normal(size=7))]
    for x, a in cases:
        c, s = np.cos(a), np.sin(a)
        want = np.stack([x[..., 0] * c - x[..., 1] * s,
                         x[..., 0] * s + x[..., 1] * c,
                         x[..., 2]], axis=-1)
        got = _rotate(x, a)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_rotation_group_laws():
    x = np.array([1.3, -0.4, 0.2])
    composed = _rotate(_rotate(x, 0.7), 1.9)
    direct = _rotate(x, 0.7 + 1.9)
    assert np.max(np.abs(composed - direct)) <= 1e-12
    assert np.max(np.abs(_rotate(x, 0.0) - x)) <= 1e-15


def test_rotation_quarter_and_half_turn():
    x = np.array([2.0, 0.0, 0.5])
    quarter = _rotate(x, np.pi / 2)
    assert np.max(np.abs(quarter - np.array([0.0, 2.0, 0.5]))) <= 1e-12
    half = _rotate(x, np.pi)
    assert np.max(np.abs(half - np.array([-2.0, 0.0, 0.5]))) <= 1e-12


def test_driving_field_is_infinitesimal_rotation():
    preset = make_cylinder_preset()
    x = np.array([1.5, -0.7, 0.3])
    vec = preset.fields.driving(x, np.array([2.0]))
    assert np.allclose(vec, [0.7 * 2.0, 1.5 * 2.0, 0.0])


# ---------------------------------------------------------------------------
# tangency audit
# ---------------------------------------------------------------------------

def test_preset_driving_is_leaf_tangent():
    preset = make_cylinder_preset()
    worst = tangency_check(preset.fields, preset.chart,
                           _points_inside(preset, 200, seed=SEED + 3))
    assert isinstance(worst, float)
    assert worst <= 1e-8


def test_tangency_flags_transversal_field():
    preset = make_cylinder_preset()

    def radial(x, z):
        vec = np.stack([x[..., 0], x[..., 1], np.zeros_like(x[..., 0])],
                       axis=-1)
        return vec * z[..., 0, None]

    bad = VectorFieldSet(driver_dim=1, driving=radial,
                         perturbation=preset.fields.perturbation)
    worst = tangency_check(bad, preset.chart,
                           _points_inside(preset, 200, seed=SEED + 4))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# preset wiring
# ---------------------------------------------------------------------------

def test_preset_wires_driver_rate():
    preset = make_cylinder_preset(theta=2.5)
    assert preset.driver.rate == 2.5


def test_without_exact_flow_strips_only_the_flow():
    preset = make_cylinder_preset()
    stripped = preset.fields.without_exact_flow()
    assert preset.fields.exact_jump_flow is not None
    assert stripped.exact_jump_flow is None
    assert stripped.driving is preset.fields.driving
    assert stripped.perturbation is preset.fields.perturbation
