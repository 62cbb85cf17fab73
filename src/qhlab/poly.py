"""Averaged-derivative polynomial approximation on cell sets, and the norm
equivalence / chaining constants it relies on.

For a degree-(k-1) polynomial P fitted to u on a cell set E, the defining
moment conditions are: for every multi-index alpha with |alpha| <= k-1, the
average of grad^alpha (u - P) over E is zero.  In the shifted monomial basis
the system is triangular in derivative order and is solved top-down, after
an affine normalization of E that makes conditioning independent of the cell
set's physical size.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from math import factorial

import numpy as np

from .decomposition import chain_pair_classes
from .fixtures import multi_indices
from .grid import DomainError
from .properties import PropertyReport

MOMENT_TOL = 1e-10
_ETA = 0.25  # least share of a cube the norm_equivalence_check sets cover
_NORM_CUBES, _NORM_PAIRS = 20, 8  # its cubes, and its (E, F) pairs per cube


@dataclass
class PolyApprox:
    """Polynomial in normalized coordinates t = (x - center)/scale."""

    coeffs: dict[tuple[int, int], float]  # basis t1^a t2^b
    center: tuple[float, float]
    scale: float
    k: int
    cells: np.ndarray = dfield(repr=False, default=None)
    moment_residuals: dict[tuple[int, int], float] = dfield(default_factory=dict)

    def derivative(self, alpha: tuple[int, int], px: np.ndarray,
                   py: np.ndarray) -> np.ndarray:
        """grad^alpha P at physical points (closed form)."""
        tx = (np.asarray(px, dtype=float) - self.center[0]) / self.scale
        ty = (np.asarray(py, dtype=float) - self.center[1]) / self.scale
        return _derivative(self.coeffs, tx, ty, alpha,
                           self.scale ** (alpha[0] + alpha[1]))

    def __call__(self, px, py):
        return self.derivative((0, 0), px, py)


def _derivative(coeffs, tx, ty, alpha, scale_power) -> np.ndarray:
    """grad^alpha of sum c_beta t^beta at normalized points, divided by
    ``scale_power`` (the scale to the power |alpha|); the coefficients and
    scale power are numbers or arrays that broadcast against the points."""
    out = np.zeros(np.shape(tx), dtype=float)
    a1, a2 = alpha
    for (b1, b2), c in coeffs.items():
        if b1 < a1 or b2 < a2:
            continue
        f = (factorial(b1) // factorial(b1 - a1)) * \
            (factorial(b2) // factorial(b2 - a2))
        out += c * f * tx ** (b1 - a1) * ty ** (b2 - a2)
    return out / scale_power


class PolyStack:
    """Polynomials of one degree evaluated together, each point with the
    polynomial its index names; bitwise ``PolyApprox.derivative``."""

    def __init__(self, polys: list[PolyApprox]):
        self.coeffs = {b: np.array([p.coeffs[b] for p in polys])
                       for b in (polys[0].coeffs if polys else ())}
        self.center = np.array([p.center for p in polys]).reshape(-1, 2)
        self.scale = np.array([p.scale for p in polys])
        self.scale_power = [np.array([p.scale ** n for p in polys])
                            for n in range(polys[0].k + 1 if polys else 0)]

    def jets(self, which: np.ndarray, px: np.ndarray, py: np.ndarray,
             alphas) -> dict:
        """grad^alpha of polynomial which[i] at (px[i], py[i])."""
        scale = self.scale[which]
        tx = (px - self.center[which, 0]) / scale
        ty = (py - self.center[which, 1]) / scale
        coeffs = {b: c[which] for b, c in self.coeffs.items()}
        return {a: _derivative(coeffs, tx, ty, a,
                               self.scale_power[a[0] + a[1]][which])
                for a in alphas}


def _points_of_cells(cells: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    cells = np.asarray(cells)
    return (cells[..., 0] + 0.5) * spacing, (cells[..., 1] + 0.5) * spacing


def fit_polynomial(field, cells: np.ndarray, k: int,
                   spacing: float) -> PolyApprox:
    """Fit the degree-(k-1) polynomial matching all averaged derivatives of
    the field over the cell set (cells at the given grid spacing): the
    derivatives of order <= min(k, field order) sampled at the cell centres,
    solved as a batch of one by ``fit_polynomials``."""
    cells = np.asarray(cells)
    if len(cells) == 0:
        raise DomainError("cannot fit a polynomial on an empty cell set")
    px, py = _points_of_cells(cells, spacing)
    samples = {alpha: field.derivative(alpha, px, py)[None]
               for alpha in multi_indices(min(k, field.order))}
    return fit_polynomials(cells[None], samples, k, spacing)[0]


def fit_polynomials(cells: np.ndarray, samples: dict, k: int,
                    spacing: float) -> list[PolyApprox]:
    """The fits of ``fit_polynomial`` on n cell sets of c cells each, solved
    together: ``cells`` is (n, c, 2) and ``samples`` maps each alpha with
    |alpha| <= k-1 (and those of order k whose residuals are reported) to
    the (n, c) field derivatives at the cells' centres.

    Solved top-down: coefficients of degree k-1 come directly from the
    top-order derivative averages; each lower order then subtracts the
    known higher terms.  Every set is solved row by row with the operations
    of a one-set solve (row means, Python powers of each scale), so a fit
    does not depend on the batch it is made in.
    """
    px, py = _points_of_cells(cells, spacing)
    cx, cy = px.mean(axis=1), py.mean(axis=1)
    scale = np.maximum(np.maximum(px.max(axis=1) - px.min(axis=1),
                                  py.max(axis=1) - py.min(axis=1)), spacing)
    tx = (px - cx[:, None]) / scale[:, None]
    ty = (py - cy[:, None]) / scale[:, None]
    power = [np.array([s ** n for s in scale.tolist()]) for n in range(k + 1)]

    # averaged field derivatives, expressed in normalized coordinates
    avg_u = {alpha: samples[alpha].mean(axis=1) * power[sum(alpha)]
             for alpha in multi_indices(k - 1)}
    # normalized monomial moments avg of t^beta, needed up to degree k-1
    mom = {(a, b): (tx ** a * ty ** b).mean(axis=1)
           for (a, b) in multi_indices(k - 1)}

    coeffs: dict[tuple[int, int], np.ndarray] = {}
    for order in range(k - 1, -1, -1):
        for alpha in [m for m in multi_indices(k - 1) if sum(m) == order]:
            a1, a2 = alpha
            # avg grad^alpha P = sum over beta >= alpha of
            #   c_beta * beta!/(beta-alpha)! * avg t^(beta-alpha)
            rhs = avg_u[alpha]
            for (b1, b2), c in coeffs.items():
                if b1 >= a1 and b2 >= a2 and (b1, b2) != alpha:
                    f = (factorial(b1) // factorial(b1 - a1)) * \
                        (factorial(b2) // factorial(b2 - a2))
                    rhs = rhs - c * f * mom[(b1 - a1, b2 - a2)]
            coeffs[alpha] = rhs / (factorial(a1) * factorial(a2))

    # residuals: |alpha| <= k-1 asserted, |alpha| = k reported only
    columns = {b: c[:, None] for b, c in coeffs.items()}
    residuals = {}
    for alpha in [a for a in multi_indices(k) if a in samples]:
        n = sum(alpha)
        res = (samples[alpha] - _derivative(columns, tx, ty, alpha,
                                            power[n][:, None])).mean(axis=1)
        den = np.abs(avg_u.get(alpha, 0.0)) / power[n] + 1.0
        residuals[alpha] = res / den
        bad = np.flatnonzero(np.abs(residuals[alpha]) > MOMENT_TOL)
        if n <= k - 1 and len(bad):
            i = bad[0]
            lo = cells[i].min(axis=0)
            size = int((cells[i].max(axis=0) - lo).max()) + 1
            raise DomainError(
                f"moment condition {alpha} violated on the cells at corner "
                f"{tuple(lo.tolist())}, size {size}: residual {res[i]:.2e}")

    rows = zip(np.column_stack([*coeffs.values()]).tolist(), cx.tolist(),
               cy.tolist(), scale.tolist(),
               np.column_stack([*residuals.values()]).tolist())
    return [PolyApprox(dict(zip(coeffs, c)), (x, y), s, k, cells[i],
                       dict(zip(residuals, r)))
            for i, (c, x, y, s, r) in enumerate(rows)]


def poly_difference_norm(p1: PolyApprox, p2: PolyApprox,
                         alpha: tuple[int, int], cells: np.ndarray,
                         spacing: float, p: float) -> float:
    px, py = _points_of_cells(cells, spacing)
    diff = p1.derivative(alpha, px, py) - p2.derivative(alpha, px, py)
    return float((np.abs(diff) ** p).sum() * spacing ** 2) ** (1.0 / p)


def norm_equivalence_check(dec, k: int, p: float,
                           seed: int = 0) -> PropertyReport:
    """Measured constant in ||P||_Lp(E) <= C ||P||_Lp(F) over random subsets
    E, F of Whitney cubes with |E|, |F| > eta |Q| (eta = _ETA), for random
    degree-(k-1) polynomials."""
    rng = np.random.default_rng(seed)
    dom = dec.domain
    rep = PropertyReport("norm_equivalence", 1.0, seed=seed, resolution=dom.h)
    unflagged = [q.index for q in dec.cubes if not q.flagged and q.size >= 2]
    idx = rng.choice(len(unflagged), size=min(_NORM_CUBES, len(unflagged)),
                     replace=False)
    for qi in (unflagged[i] for i in idx):
        cells = dec.cube_cells(qi)
        nq = len(cells)
        keep = max(int(np.ceil(_ETA * nq)) + 1, 1)
        for _ in range(_NORM_PAIRS):
            e = cells[rng.choice(nq, size=min(nq, keep + rng.integers(0, nq - keep + 1)), replace=False)]
            f = cells[rng.choice(nq, size=min(nq, keep + rng.integers(0, nq - keep + 1)), replace=False)]
            coeffs = {a: float(rng.normal()) for a in multi_indices(k - 1)}
            center = tuple((cells.mean(0) + 0.5) * dom.h)
            poly = PolyApprox(coeffs, center, dec.cubes[qi].l, k)
            ne = poly_norm(poly, e, dom.h, p)
            nf = poly_norm(poly, f, dom.h, p)
            if nf == 0:
                continue
            rep.constant = max(rep.constant, ne / nf)
    rep.extra = {"eta": _ETA, "k": k, "p": p,
                 "bound_for_constants": _ETA ** (-1.0 / p)}
    rep.passed = np.isfinite(rep.constant)
    return rep


def poly_norm(poly: PolyApprox, cells: np.ndarray, spacing: float,
              p: float) -> float:
    px, py = _points_of_cells(cells, spacing)
    return float((np.abs(poly(px, py)) ** p).sum() * spacing ** 2) ** (1.0 / p)


def chaining_check(ct, field, k: int, p: float, pairs=None,
                   max_pairs: int = 60, seed: int = 0) -> PropertyReport:
    """Measured constant in the chained-oscillation estimate: for cube pairs
    (Q, Q') joined by a face-adjacent chain, and |alpha| <= k-1,

      ||grad^alpha (P_Q - P_Q')||_Lp(Q)
          <= C l(Q)^(k - |alpha|) ||grad^k u||_Lp(union of chain cubes)
             * |Q|^(1/p) / |union|^(1/p-ish)

    Reports the max ratio with the size factors of the oscillation
    estimate; asserts finiteness."""
    dec, dom = ct.dec, ct.domain
    rng = np.random.default_rng(seed)
    if pairs is None:
        all_pairs = chain_pair_classes(ct)
        if len(all_pairs) > max_pairs:
            sel = rng.choice(len(all_pairs), size=max_pairs, replace=False)
            pairs = [all_pairs[i] for i in sel]
        else:
            pairs = all_pairs
    rep = PropertyReport("chaining", 0.0, seed=seed, resolution=dom.h)
    fits: dict[int, PolyApprox] = {}

    def fit(q):
        if q not in fits:
            fits[q] = fit_polynomial(field, dec.cube_cells(q), k, dom.h)
        return fits[q]

    top = [a for a in multi_indices(k) if sum(a) == k]
    for q1, q2 in pairs:
        chain = ct.chain(q1, q2)
        cells1 = dec.cube_cells(q1)
        px, py = _points_of_cells(
            np.concatenate([dec.cube_cells(q) for q in chain]), dom.h)
        grad_k = sum(np.abs(field.derivative(a, px, py)) ** p for a in top)
        rhs_norm = float(grad_k.sum() * dom.h ** 2) ** (1.0 / p)
        l1 = dec.cubes[q1].l
        p1, p2 = fit(q1), fit(q2)
        for alpha in multi_indices(k - 1):
            lhs = poly_difference_norm(p1, p2, alpha, cells1, dom.h, p)
            denom = l1 ** (k - sum(alpha)) * rhs_norm
            if denom > 0:
                rep.constant = max(rep.constant, lhs / denom)
        rep.samples.append({"pair": [int(q1), int(q2)], "chain_len": len(chain)})
    rep.extra = {"k": k, "p": p, "n_pairs": len(pairs)}
    rep.passed = np.isfinite(rep.constant)
    return rep
