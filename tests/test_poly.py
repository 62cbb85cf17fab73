"""Tests for the averaged-derivative polynomial fits and their constants."""

import functools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from qhlab import fixtures, gallery
from qhlab.grid import DomainError
from qhlab.qh import QhMetric
from qhlab.whitney import whitney_decompose
from qhlab.decomposition import build_core_tentacle
from qhlab.poly import (
    MOMENT_TOL,
    chaining_check,
    fit_cubes,
    fit_polynomial,
    norm_equivalence_check,
)

H = 1 / 16
CELLS = np.argwhere(np.ones((16, 16), dtype=bool))


def _value(poly, x, y, alpha=(0, 0)):
    """grad^alpha of a one-row fit at the points."""
    return poly.jets(0, x, y, [alpha])[alpha]


def test_reproduces_low_degree_polynomials():
    u = fixtures.polynomial({(0, 0): 1, (1, 0): 2, (0, 1): -3, (1, 1): 0.5,
                             (2, 0): 1.25}, order=3)
    poly = fit_polynomial(u, CELLS[None], 3, H)
    x = np.array([0.13, 0.7, -0.4])
    y = np.array([0.9, 0.05, 2.0])
    assert np.abs(_value(poly, x, y) - u(x, y)).max() < 1e-10
    assert np.abs(_value(poly, x, y, (1, 1))
                  - u.derivative((1, 1), x, y)).max() < 1e-10


def test_order_one_fit_is_the_mean():
    f = fixtures.radial_power((0.0, 0.0), 0.9, order=1)
    poly = fit_polynomial(f, CELLS[None], 1, H)
    px, py = (CELLS[:, 0] + 0.5) * H, (CELLS[:, 1] + 0.5) * H
    assert _value(poly, np.array([0.3]), np.array([0.7]))[0] == \
        pytest.approx(float(f(px, py).mean()), abs=1e-12)


def test_matches_dense_moment_solve():
    # oracle: solve the full (non-triangular) moment system directly
    u = fixtures.polynomial({(2, 0): 1.0}, order=2)
    poly = fit_polynomial(u, CELLS[None], 2, H)
    px, py = (CELLS[:, 0] + 0.5) * H, (CELLS[:, 1] + 0.5) * H
    from math import factorial as ft

    basis = [(0, 0), (1, 0), (0, 1)]
    vals = {(0, 0): px**2, (1, 0): 2 * px, (0, 1): 0 * px}
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for i, al in enumerate(basis):
        b[i] = vals[al].mean()
        for j, (b1, b2) in enumerate(basis):
            if b1 >= al[0] and b2 >= al[1]:
                f = ft(b1) // ft(b1 - al[0]) * ft(b2) // ft(b2 - al[1])
                A[i, j] = f * (px ** (b1 - al[0]) * py ** (b2 - al[1])).mean()
    coef = np.linalg.solve(A, b)
    x, y = np.array([0.1, 0.8]), np.array([0.5, 0.2])
    dense = coef[0] + coef[1] * x + coef[2] * y
    assert np.abs(dense - _value(poly, x, y)).max() < 1e-12


def test_moment_residuals():
    f = fixtures.radial_power((-0.1, -0.1), 1.7, order=2)
    poly = fit_polynomial(f, CELLS[None], 2, H)
    for alpha, res in poly.residuals.items():
        if sum(alpha) <= 1:
            assert abs(res[0]) <= MOMENT_TOL
    # top-order residual is reported, not asserted
    assert any(sum(a) == 2 for a in poly.residuals)


def test_fit_independent_of_cell_ordering():
    f = fixtures.smooth_background(order=3)
    rng = np.random.default_rng(3)
    shuffled = CELLS[rng.permutation(len(CELLS))]
    p1 = fit_polynomial(f, CELLS[None], 3, H)
    p2 = fit_polynomial(f, shuffled[None], 3, H)
    x, y = np.array([0.4]), np.array([0.2])
    assert _value(p1, x, y)[0] == pytest.approx(_value(p2, x, y)[0],
                                                abs=1e-12)


def test_empty_set_rejected():
    f = fixtures.smooth_background()
    with pytest.raises(DomainError):
        fit_polynomial(f, np.empty((1, 0, 2), dtype=int), 2, H)


def _row_bits(poly, i: int) -> tuple:
    """Everything a fit holds for row i, as bytes."""
    return (poly.k, tuple(poly.coeffs), tuple(poly.residuals),
            np.array([c[i] for c in poly.coeffs.values()]).tobytes(),
            np.array([r[i] for r in poly.residuals.values()]).tobytes(),
            poly.centers[i].tobytes(), poly.scales[i].tobytes(),
            np.array([s[i] for s in poly.scale_powers]).tobytes())


@functools.cache
def _poly_radial_jets(k: int) -> dict:
    """Lambdified derivatives of order <= k of c . (x^a y^b, a + b <= 2)
    + |(x, y) - (bx, by)|^s, in x, y, c0..c5, bx, by and s."""
    x, y, bx, by, s = sp.symbols("x y bx by s", real=True)
    c = sp.symbols("c0:6", real=True)
    expr = sum(ci * x**a1 * y**a2
               for ci, (a1, a2) in zip(c, fixtures.multi_indices(2)))
    expr += ((x - bx)**2 + (y - by)**2) ** (s / 2)
    return {a: sp.lambdify((x, y, *c, bx, by, s),
                           sp.diff(expr, x, a[0], y, a[1]), "numpy")
            for a in fixtures.multi_indices(k)}


class _PolyRadial:
    """A polynomial-plus-radial field of order k with numeric parameters."""

    def __init__(self, k: int, params: tuple):
        self.order, self.params = k, params

    def derivative(self, alpha, px, py):
        out = _poly_radial_jets(self.order)[alpha](px, py, *self.params)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.shape(px)).copy()


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 3),
       blocks=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 56),
                                 st.integers(0, 56)), min_size=1, max_size=12),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       b=st.tuples(st.integers(-8, 72), st.integers(-8, 72)),
       s=st.floats(0.5, 3.0))
def test_batched_fits_equal_one_block_fits(k, blocks, coeffs, b, s):
    """Square blocks of one size fitted together, from one evaluation of a
    polynomial-plus-radial field at all their cells, give bitwise the
    one-block fits, row by row.  The radial centre b sits on a cell corner,
    never at a cell centre."""
    h = 1 / 64
    field = _PolyRadial(k, (*coeffs, b[0] * h, b[1] * h, s))
    for size in {size for size, _, _ in blocks}:
        corners = np.array([(i, j) for n, i, j in blocks if n == size])
        cells = corners[:, None] + np.argwhere(np.ones((size, size), bool))
        got = fit_polynomial(field, cells, k, h)
        assert len(got.scales) == len(cells)
        for i, block in enumerate(cells):
            want = fit_polynomial(field, block[None], k, h)
            assert _row_bits(got, i) == _row_bits(want, 0)


def test_scale_invariant_conditioning():
    # same configuration at a 1000x smaller physical scale fits identically
    f = fixtures.polynomial({(1, 0): 1.0, (0, 1): 2.0}, order=2)
    p_big = fit_polynomial(f, CELLS[None], 2, H)
    p_small = fit_polynomial(f, CELLS[None], 2, H / 1000)
    x, y = np.array([0.01]), np.array([0.02])
    assert _value(p_big, x, y)[0] == pytest.approx(f(x, y)[0], abs=1e-10)
    assert _value(p_small, x, y)[0] == pytest.approx(f(x, y)[0], abs=1e-10)


@pytest.fixture(scope="module")
def disk_ct():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    return dec, build_core_tentacle(dec, qh, 6)


def test_norm_equivalence_constant(disk_ct):
    dec, _ = disk_ct
    rep = norm_equivalence_check(dec, k=2, p=2.0, seed=4)
    assert rep.passed
    assert 1.0 <= rep.constant < np.inf
    assert rep.extra["bound_for_constants"] == pytest.approx(0.25 ** -0.5)


def test_chaining_constant_finite(disk_ct):
    dec, ct = disk_ct
    f = fixtures.smooth_background(order=2)
    rep = chaining_check(ct, f, k=2, p=2.0, max_pairs=25, seed=5)
    assert rep.passed
    assert 0 < rep.constant < np.inf


def test_chaining_zero_for_low_degree(disk_ct):
    dec, ct = disk_ct
    f = fixtures.polynomial({(0, 0): 2.0, (1, 0): -1.0, (0, 1): 3.0}, order=2)
    rep = chaining_check(ct, f, k=2, p=2.0, max_pairs=10, seed=6)
    # every fitted polynomial equals u, so all differences vanish;
    # the bound denominator is 0 too, so the measured constant stays 0
    assert rep.constant == 0.0


def test_fit_beyond_the_field_order_rejected(disk_ct):
    """A fit of degree k-1 above the field's jet order, and a chaining check
    that needs grad^k u beyond it, raise DomainError naming k and the order
    (not a KeyError from the solve)."""
    f = fixtures.radial_power((-0.1, -0.1), 0.9, order=1)
    with pytest.raises(DomainError, match=r"\(k=3\).*jet order 1"):
        fit_polynomial(f, CELLS[None], 3, H)
    for k in (2, 3):
        with pytest.raises(DomainError, match=rf"k={k} .*jet order 1"):
            chaining_check(disk_ct[1], f, k=k, p=2.0, max_pairs=5)


def test_fit_cubes_rows_are_the_one_cube_fits(disk_ct):
    """fit_cubes gives each cube (repeats dropped) a row equal bitwise to
    the fit of its cells alone, and no rows for no cubes."""
    dec, _ = disk_ct
    f = fixtures.smooth_background(order=3)
    cubes = list(range(0, len(dec.cubes), 37))
    rows, row = fit_cubes(f, dec, cubes + cubes[:3], 3)
    assert sorted(row) == sorted(cubes)
    assert sorted(row.values()) == list(range(len(cubes)))
    for q in cubes:
        want = fit_polynomial(f, dec.cube_cells(q)[None], 3, dec.domain.h)
        assert _row_bits(rows, row[q]) == _row_bits(want, 0)
    empty, none = fit_cubes(f, dec, [], 3)
    assert none == {} and len(empty.scales) == 0
