"""Tests for the analytic fixture fields and their derivative jets."""

import numpy as np
import pytest

from qhlab import fixtures, gallery


def test_multi_indices_graded():
    idx = fixtures.multi_indices(2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(fixtures.multi_indices(3)) == 10


def test_polynomial_jets_exact():
    f = fixtures.polynomial({(2, 1): 3.0, (0, 0): -1.0}, order=3)
    x = np.array([0.3, 1.7])
    y = np.array([-0.2, 0.5])
    assert np.allclose(f(x, y), 3 * x**2 * y - 1)
    assert np.allclose(f.derivative((1, 1), x, y), 6 * x)
    assert np.allclose(f.derivative((2, 1), x, y), 6.0)
    assert np.allclose(f.derivative((0, 3), x, y), 0.0)


def test_radial_power_derivatives_match_finite_differences():
    f = fixtures.radial_power((0.0, 0.0), 1.3, order=3)
    rng = np.random.default_rng(1)
    px = rng.uniform(0.2, 0.9, 40)
    py = rng.uniform(0.2, 0.9, 40)
    assert fixtures.verify_jets(f, px, py, 1e-5) < 1e-5


def test_smooth_background_jets():
    f = fixtures.smooth_background(order=3)
    rng = np.random.default_rng(2)
    px, py = rng.uniform(0, 1, (2, 30))
    assert fixtures.verify_jets(f, px, py, 1e-5) < 1e-5


def test_singular_fixture_exponent_window():
    dom = gallery.disk(1 / 64)
    with pytest.raises(ValueError):
        fixtures.singular_fixture(dom, 1, 2.0, s=1.5)
    f = fixtures.singular_fixture(dom, 1, 2.0, s=0.9, order=1)
    assert "radial" in f.name
    # default s is the window midpoint
    g = fixtures.singular_fixture(dom, 2, 1.5, order=2)
    assert g is not None


def test_boundary_point_on_rasterized_boundary():
    dom = gallery.disk(1 / 64)
    bx, by = fixtures.boundary_point(dom)
    i, j = int(bx / dom.h - 0.25), int(by / dom.h - 0.25)
    # the point is a cell-edge midpoint: one coordinate is a grid line
    on_line = (abs(bx / dom.h - round(bx / dom.h)) < 1e-9
               or abs(by / dom.h - round(by / dom.h)) < 1e-9)
    assert on_line
    # adjacent to the interior
    cells = np.argwhere(dom.interior)
    d = np.abs((cells + 0.5) * dom.h - np.array([bx, by])).max(axis=1)
    assert d.min() <= dom.h * 0.5 + 1e-9


def test_singular_fixture_blows_up_near_boundary():
    dom = gallery.disk(1 / 64)
    f = fixtures.singular_fixture(dom, 1, 2.0, s=0.6, order=1)
    b = fixtures.boundary_point(dom)
    near = np.array([b[0] + 1e-6]), np.array([b[1] + 1e-6])
    far = np.array([0.5]), np.array([0.5])
    g_near = np.hypot(f.derivative((1, 0), *near), f.derivative((0, 1), *near))
    g_far = np.hypot(f.derivative((1, 0), *far), f.derivative((0, 1), *far))
    assert g_near > 100 * g_far
