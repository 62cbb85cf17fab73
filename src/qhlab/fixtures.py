"""Analytic test functions with closed-form derivative jets.

Each field carries vectorized evaluators for u and every partial derivative
up to a requested order, generated symbolically once at construction.  The
singular family |x - b|^s with b on the boundary and s in (k - 2/p, k) has
p-integrable k-th derivatives but unbounded ones, which is exactly the
regime the approximation machinery is meant to handle.

sympy is imported when the first field is built, not with this module, so
runs that build no field (gallery, metrics, properties, decompose) never
load it.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def _sympy():
    """The sympy module and the real symbols x, y of every field."""
    import sympy as sp

    return sp, *sp.symbols("x y", real=True)


def multi_indices(order: int) -> list[tuple[int, int]]:
    """All 2-D multi-indices alpha with |alpha| <= order, graded order."""
    out = []
    for total in range(order + 1):
        for a in range(total, -1, -1):
            out.append((a, total - a))
    return out


class AnalyticField:
    """A scalar field on the plane with lambdified derivatives; ``expr`` is
    a sympy expression in the real symbols x and y."""

    def __init__(self, expr, order: int, name: str = "field"):
        sp, x, y = _sympy()
        self.expr = expr
        self.order = int(order)
        self.name = name
        self._fns: dict[tuple[int, int], object] = {}
        for alpha in multi_indices(order):
            d = sp.diff(expr, x, alpha[0], y, alpha[1])
            self._fns[alpha] = sp.lambdify((x, y), d, modules="numpy")

    def derivative(self, alpha: tuple[int, int], px: np.ndarray, py: np.ndarray
                   ) -> np.ndarray:
        if alpha not in self._fns:
            raise KeyError(f"derivative {alpha} beyond order {self.order}")
        out = self._fns[alpha](px, py)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(px)).copy()

    def __call__(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        return self.derivative((0, 0), px, py)


def polynomial(coeffs: dict[tuple[int, int], float], order: int = 3
               ) -> AnalyticField:
    """Polynomial sum of c * x^a y^b over the coefficient dictionary."""
    sp, x, y = _sympy()
    expr = sum(c * x**a * y**b for (a, b), c in coeffs.items())
    return AnalyticField(sp.sympify(expr), order, "poly")


def constant(value: float, order: int = 3) -> AnalyticField:
    sp, _, _ = _sympy()
    return AnalyticField(sp.sympify(value), order, "const")


def radial_power(b: tuple[float, float], s: float, order: int = 3
                 ) -> AnalyticField:
    """u(x) = |x - b|^s; singular at b when s is below the derivative order."""
    sp, x, y = _sympy()
    r2 = (x - b[0]) ** 2 + (y - b[1]) ** 2
    return AnalyticField(r2 ** (sp.Rational(1, 2) * s), order,
                         f"radial_{s:g}")


def smooth_background(order: int = 3) -> AnalyticField:
    """A generic bounded smooth field with nonvanishing mixed derivatives."""
    sp, x, y = _sympy()
    expr = sp.sin(3 * x) * sp.cos(2 * y) + sp.Rational(1, 2) * x * y
    return AnalyticField(expr, order, "smooth")


def singular_fixture(domain, k: int, p: float, s: float | None = None,
                     order: int | None = None) -> AnalyticField:
    """|x - b|^s with b on the domain boundary nearest a fixed probe point,
    and s inside (k - 2/p, k)."""
    lo, hi = k - 2.0 / p, float(k)
    if s is None:
        s = 0.5 * (lo + hi)
    if not lo < s < hi:
        raise ValueError(f"s={s} outside ({lo}, {hi}) for k={k}, p={p}")
    b = boundary_point(domain)
    return radial_power(b, s, order if order is not None else max(k, 2))


def boundary_point(domain) -> tuple[float, float]:
    """A deterministic point on the rasterized boundary: the midpoint of the
    shared edge between the first boundary-adjacent exterior cell in raster
    order and one of its interior 4-neighbors."""
    interior = domain.interior
    h = domain.h
    pad = np.pad(interior, 1)
    for i, j in np.argwhere(~interior):
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if pad[i + di + 1, j + dj + 1]:
                # midpoint of the edge between (i,j) and the interior cell
                return ((i + 0.5 + 0.5 * di) * h, (j + 0.5 + 0.5 * dj) * h)
    raise ValueError("domain has no boundary-adjacent exterior cell")


def verify_jets(field: AnalyticField, px: np.ndarray, py: np.ndarray,
                step: float, order: int | None = None) -> float:
    """Max relative mismatch between lambdified derivatives and second-order
    central differences of the next-lower derivative (self-check)."""
    order = field.order if order is None else order
    worst = 0.0
    for alpha in multi_indices(order):
        if alpha == (0, 0):
            continue
        if alpha[0] > 0:
            lower = (alpha[0] - 1, alpha[1])
            fd = (field.derivative(lower, px + step, py)
                  - field.derivative(lower, px - step, py)) / (2 * step)
        else:
            lower = (alpha[0], alpha[1] - 1)
            fd = (field.derivative(lower, px, py + step)
                  - field.derivative(lower, px, py - step)) / (2 * step)
        exact = field.derivative(alpha, px, py)
        scale = np.abs(exact).max() + 1.0
        worst = max(worst, float(np.abs(fd - exact).max() / scale))
    return worst
