"""Averaged-derivative polynomial approximation on cell sets, and the norm
equivalence / chaining constants it relies on.

For a degree-(k-1) polynomial P fitted to u on a cell set E, the defining
moment conditions are: for every multi-index alpha with |alpha| <= k-1, the
average of grad^alpha (u - P) over E is zero.  In the shifted monomial basis
the system is triangular in derivative order and is solved top-down, after
an affine normalization of E that makes conditioning independent of the cell
set's physical size.

Fitted polynomials are array rows (``Polynomials``): ``fit_polynomial``
fits n cell sets of c cells each in one solve, sampling the field at their
cell centres, and ``fit_cubes`` fits a list of Whitney cubes with one such
call per cube size.  A row does not depend on the batch it was fitted in.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class Polynomials:
    """Degree-(k-1) polynomials as rows: row i is sum_beta coeffs[beta][i]
    t^beta in the normalized coordinates t = (x - centers[i]) / scales[i]."""

    coeffs: dict[tuple[int, int], np.ndarray]  # per beta, one value a row
    centers: np.ndarray  # (n, 2)
    scales: np.ndarray  # (n,)
    k: int
    residuals: dict[tuple[int, int], np.ndarray]  # moment residual per alpha
    scale_powers: list[np.ndarray]  # [n]: Python powers scale ** n, n <= k

    def jets(self, which, px: np.ndarray, py: np.ndarray, alphas) -> dict:
        """grad^alpha at the points (px, py) for each alpha, of row
        ``which`` at every point (an int) or of row which[i] at point i."""
        scale = self.scales[which]
        tx = (px - self.centers[which, 0]) / scale
        ty = (py - self.centers[which, 1]) / scale
        coeffs = {b: c[which] for b, c in self.coeffs.items()}
        return {a: _derivative(coeffs, tx, ty, a,
                               self.scale_powers[a[0] + a[1]][which])
                for a in alphas}


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


def _points_of_cells(cells: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    return (cells[..., 0] + 0.5) * spacing, (cells[..., 1] + 0.5) * spacing


def _lp_norm(values: np.ndarray, spacing: float, p: float) -> float:
    """Discrete L^p norm of values at the centres of cells of the given
    spacing."""
    return float((np.abs(values) ** p).sum() * spacing ** 2) ** (1.0 / p)


def fit_polynomial(field, cells: np.ndarray, k: int,
                   spacing: float) -> Polynomials:
    """One row per cell set: the degree-(k-1) polynomial matching all
    averaged derivatives of the field over the set.  ``cells`` is (n, c, 2),
    n sets of c cells at the given grid spacing; the field's derivatives of
    order <= min(k, field order) are sampled at the cell centres, those of
    order k only for the reported residuals.

    Solved top-down: coefficients of degree k-1 come directly from the
    top-order derivative averages; each lower order then subtracts the
    known higher terms.  Every set is solved row by row with the operations
    of a one-set solve (row means, Python powers of each scale), so a fit
    does not depend on the batch it is made in.
    """
    cells = np.asarray(cells)
    if cells.shape[1] == 0:
        raise DomainError("cannot fit a polynomial on an empty cell set")
    if k - 1 > field.order:
        raise DomainError(
            f"a fit of degree k-1 = {k - 1} (k={k}) needs derivatives beyond "
            f"the field's jet order {field.order}")
    px, py = _points_of_cells(cells, spacing)
    samples = {alpha: field.derivative(alpha, px, py)
               for alpha in multi_indices(min(k, field.order))}
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
    return Polynomials(coeffs, np.column_stack([cx, cy]), scale, k,
                       residuals, power)


def fit_cubes(field, dec, cubes, k: int) -> tuple[Polynomials, dict[int, int]]:
    """The field's degree-(k-1) fits on the Whitney cubes ``cubes`` as one
    set of rows, and each cube's row.  One ``fit_polynomial`` call per cube
    side fits that side's cubes, each from its cells in ``cube_cells``
    order, so every row is bitwise the fit of its cube alone."""
    cubes = np.array(list(dict.fromkeys(cubes)), dtype=np.int64)
    side = dec.cubes.side[cubes]
    by_side = [cubes[side == s] for s in dict.fromkeys(side.tolist())]
    blocks = [dec.cube_cells(qs) for qs in by_side]
    # no cubes: one batch of no cell sets, so zero rows
    fits = [fit_polynomial(field, cells, k, dec.domain.h)
            for cells in blocks or [np.empty((0, 1, 2), dtype=int)]]
    rows = Polynomials(
        {b: np.concatenate([f.coeffs[b] for f in fits]) for b in fits[0].coeffs},
        np.concatenate([f.centers for f in fits]),
        np.concatenate([f.scales for f in fits]), k,
        {a: np.concatenate([f.residuals[a] for f in fits])
         for a in fits[0].residuals},
        [np.concatenate([f.scale_powers[n] for f in fits])
         for n in range(k + 1)])
    order = [q for qs in by_side for q in qs.tolist()]
    return rows, {q: i for i, q in enumerate(order)}


def norm_equivalence_check(dec, k: int, p: float,
                           seed: int = 0) -> PropertyReport:
    """Measured constant in ||P||_Lp(E) <= C ||P||_Lp(F) over random subsets
    E, F of Whitney cubes with |E|, |F| > eta |Q| (eta = _ETA), for random
    degree-(k-1) polynomials."""
    rng = np.random.default_rng(seed)
    dom = dec.domain
    rep = PropertyReport("norm_equivalence", 1.0, seed=seed, resolution=dom.h)
    l = dec.cubes.l
    unflagged = np.flatnonzero(~dec.cubes.flagged & (dec.cubes.side >= 2))
    idx = rng.choice(len(unflagged), size=min(_NORM_CUBES, len(unflagged)),
                     replace=False)
    for qi in (unflagged[i] for i in idx):
        cells = dec.cube_cells(qi)
        nq = len(cells)
        keep = max(int(np.ceil(_ETA * nq)) + 1, 1)
        for _ in range(_NORM_PAIRS):
            e = cells[rng.choice(nq, size=min(nq, keep + rng.integers(0, nq - keep + 1)), replace=False)]
            f = cells[rng.choice(nq, size=min(nq, keep + rng.integers(0, nq - keep + 1)), replace=False)]
            coeffs = {a: np.array([rng.normal()]) for a in multi_indices(k - 1)}
            center = (cells.mean(0) + 0.5) * dom.h
            scale = float(l[qi])
            poly = Polynomials(coeffs, center[None], np.array([scale]), k, {},
                               [np.array([scale ** n]) for n in range(k + 1)])
            ne, nf = (_lp_norm(poly.jets(0, *_points_of_cells(sub, dom.h),
                                         [(0, 0)])[(0, 0)], dom.h, p)
                      for sub in (e, f))
            if nf == 0:
                continue
            rep.constant = max(rep.constant, ne / nf)
    rep.extra = {"eta": _ETA, "k": k, "p": p,
                 "bound_for_constants": _ETA ** (-1.0 / p)}
    rep.passed = np.isfinite(rep.constant)
    return rep


def chaining_check(ct, field, k: int, p: float, max_pairs: int = 60,
                   seed: int = 0) -> PropertyReport:
    """Measured constant in the chained-oscillation estimate over the cube
    pairs (Q, Q') of ``chain_pair_classes``, a random ``max_pairs`` of them
    when there are more: the largest ratio, over the pairs and |alpha| <= k-1
    with a positive denominator (0 when there is none),

      ||grad^alpha (P_Q - P_Q')||_Lp(Q)
          / ( l(Q)^(k - |alpha|) ||grad^k u||_Lp(union of the chain cubes) )

    where the chain joins Q to Q' by face-adjacent cubes and |grad^k u|^p
    sums |grad^beta u|^p over |beta| = k.  Passes when it is finite."""
    if k > field.order:
        raise DomainError(
            f"order k={k} exceeds the field's jet order {field.order}")
    dec, dom = ct.dec, ct.domain
    rng = np.random.default_rng(seed)
    pairs = chain_pair_classes(ct)
    if len(pairs) > max_pairs:
        sel = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sel]
    rep = PropertyReport("chaining", 0.0, seed=seed, resolution=dom.h)
    polys, row = fit_cubes(field, dec, [q for pair in pairs for q in pair], k)
    alphas = multi_indices(k - 1)
    top = [a for a in multi_indices(k) if sum(a) == k]
    l = dec.cubes.l
    for q1, q2 in pairs:
        chain = ct.chain(q1, q2)
        px, py = _points_of_cells(
            np.concatenate([dec.cube_cells(q) for q in chain]), dom.h)
        grad_k = sum(np.abs(field.derivative(a, px, py)) ** p for a in top)
        rhs_norm = float(grad_k.sum() * dom.h ** 2) ** (1.0 / p)
        l1 = float(l[q1])
        px, py = _points_of_cells(dec.cube_cells(q1), dom.h)
        j1, j2 = (polys.jets(row[q], px, py, alphas) for q in (q1, q2))
        for alpha in alphas:
            lhs = _lp_norm(j1[alpha] - j2[alpha], dom.h, p)
            denom = l1 ** (k - sum(alpha)) * rhs_norm
            if denom > 0:
                rep.constant = max(rep.constant, lhs / denom)
        rep.samples.append({"pair": [int(q1), int(q2)], "chain_len": len(chain)})
    rep.extra = {"k": k, "p": p, "n_pairs": len(pairs)}
    rep.passed = np.isfinite(rep.constant)
    return rep
