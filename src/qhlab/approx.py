"""Assembly of the smooth approximant and its error/decay measurements.

The approximant at level m is

    u_m = ( sum_Q psi-hat_Q * P_Q  +  sum_i phi-hat_i * P_i
            + sum_j xi-hat_j * u ) / S,

with S the raw hat-sum, P_Q the averaged-derivative polynomial of u on the
band cube Q, and P_i the polynomial of the tentacle group's assigned cube.
All factors carry closed-form jets, so derivatives of u_m up to order k come
from exact product and quotient rules on the evaluation grid -- u_m is smooth
with bounded derivatives even when u blows up at the boundary.

Since the xi-terms reproduce u exactly, u - u_m is supported precisely in
the union of the psi/phi supports, which concentrates near the boundary as
m grows; the error decay check measures the L^{k,p} error against the
tail seminorm of u outside a fractional-level core.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .decomposition import (CoreTentacleDecomposition, _cells_mask,
                            build_levels, core_mask_at_level)
from .fixtures import AnalyticField, multi_indices
from .grid import DomainError, GridDomain
from .pou import PartitionOfUnity, Jet, add_jet, build_partition, \
    jet_product, jet_quotient, jet_zero
from .poly import Polynomials, fit_cubes
from .properties import PropertyReport
from .qh import QhMetric
from .whitney import WhitneyDecomposition, whitney_decompose


class EvalGrid:
    """Refinement of the domain's cell grid for quadrature and sampling.

    Points are the centers of refined cells whose parent domain cell is
    interior; the refinement factor is capped so grids stay at desk scale.
    """

    MAX_SIDE = 1024

    def __init__(self, domain: GridDomain, refine: int = 2):
        refine = int(refine)
        while refine > 1 and max(domain.shape) * refine > self.MAX_SIDE:
            refine //= 2
        self.domain = domain
        self.refine = max(refine, 1)
        self.spacing = domain.h / self.refine
        fine = np.kron(domain.interior,
                       np.ones((self.refine, self.refine), dtype=bool))
        self.cells = np.argwhere(fine)
        self.x = (self.cells[:, 0] + 0.5) * self.spacing
        self.y = (self.cells[:, 1] + 0.5) * self.spacing
        self.parent = self.cells // self.refine
        self.cell_area = self.spacing ** 2

    def region(self, domain_mask: np.ndarray) -> np.ndarray:
        """Boolean selector of evaluation points over a domain-cell mask."""
        return domain_mask[self.parent[:, 0], self.parent[:, 1]]


@dataclass
class SampledFunction:
    """A field with its jet materialized on an evaluation grid."""

    grid: EvalGrid
    field: AnalyticField
    k: int
    p: float
    jets: Jet = dfield(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 1 <= self.p < np.inf:
            raise DomainError(f"integrability exponent out of range: {self.p}")
        if self.k > self.field.order:
            raise DomainError(
                f"order k={self.k} exceeds the field's jet order")
        for alpha in multi_indices(self.k):
            self.jets[alpha] = self.field.derivative(
                alpha, self.grid.x, self.grid.y)


def seminorm(jets: Jet, sel: np.ndarray, k: int, p: float,
             cell_area: float) -> float:
    """L^{k,p} seminorm (top-order derivatives) by midpoint quadrature."""
    total = 0.0
    for alpha in multi_indices(k):
        if sum(alpha) != k:
            continue
        vals = jets[alpha][sel] if sel is not None else jets[alpha]
        total += float((np.abs(vals) ** p).sum() * cell_area)
    return total ** (1.0 / p)


@dataclass
class Approximant:
    m: int
    jets: Jet = dfield(repr=False, default=None)  # u_m and derivatives
    sum_jet: Jet = dfield(repr=False, default=None)
    polynomials: Polynomials = dfield(repr=False, default=None)  # donor fits
    rows: dict = dfield(default_factory=dict)  # donor cube -> its row
    sup_norms: dict = dfield(default_factory=dict)
    error_selector: np.ndarray = dfield(repr=False, default=None)

    def error_jets(self, u: SampledFunction) -> Jet:
        return {a: u.jets[a] - self.jets[a] for a in self.jets}


def _donor_jets(jets: Jet, which: np.ndarray, polys: Polynomials,
                x: np.ndarray, y: np.ndarray) -> Jet:
    """``jets`` with each (hat, point) pair of a psi or phi hat (which >= 0)
    replaced by the jet of the hat's donor polynomial (row ``which``)."""
    carried = which >= 0
    if carried.any():
        pj = polys.jets(which[carried], x[carried], y[carried], list(jets))
        for a, v in jets.items():
            v[carried] = pj[a]
    return jets


def assemble(u: SampledFunction, pou: PartitionOfUnity,
             ct: CoreTentacleDecomposition) -> Approximant:
    """Evaluate u_m and its derivatives up to order k on the grid: each
    chunk of (hat, point) pairs from ``pou.hat_jets`` is multiplied by the
    hats' donor jets (u itself for xi hats) and added into S and N."""
    alphas = multi_indices(u.k)
    x, y = u.grid.x, u.grid.y

    polys, rows = fit_cubes(
        u.field, ct.dec, [hat.donor for hat in pou.hats if hat.donor >= 0], u.k)
    which = np.array([rows.get(hat.donor, -1) for hat in pou.hats])

    S = jet_zero(x.shape, alphas)  # accumulated in hat order, as sum_jet
    N = jet_zero(x.shape, alphas)
    err_sel = np.zeros(len(x), dtype=bool)  # union of psi/phi supports
    for hats, pts, hj in pou.hat_jets(x, y, alphas):
        fj = _donor_jets({a: u.jets[a][pts] for a in alphas}, which[hats],
                         polys, x[pts], y[pts])
        add_jet(S, pts, hj)
        add_jet(N, pts, jet_product(hj, fj, alphas))
        err_sel[pts[(which[hats] >= 0) & (hj[(0, 0)] > 0)]] = True
    um = jet_quotient(N, S, alphas)

    out = Approximant(ct.m, um, S, polys, rows, error_selector=err_sel)
    for a in alphas:
        out.sup_norms[a] = float(np.abs(um[a]).max())
    return out


def reproduction_error(u: SampledFunction, approx: Approximant) -> float:
    """Max pointwise |u - u_m| over the grid (0 for degree <= k-1 inputs)."""
    return float(np.abs(u.jets[(0, 0)] - approx.jets[(0, 0)]).max())


def check_analysts_trick(u: SampledFunction, approx: Approximant,
                         pou: PartitionOfUnity, ct: CoreTentacleDecomposition,
                         n_cubes: int = 3, seed: int = 0) -> float:
    """Max mismatch between the direct jet of u_m and the telescoped
    expansion that subtracts a reference cube polynomial from every term.

    For |alpha| = k and points in a band cube's neighborhood:
      grad^a u_m = sum_{b<a} [ sum_Q grad^b(P_Q - P_ref) grad^(a-b) psi_Q
                   + sum_i grad^b(P_i - P_ref) grad^(a-b) phi_i
                   + sum_j grad^b(u - P_ref) grad^(a-b) xi_j ]
                   + grad^a u * sum_j xi_j.
    """
    k = u.k
    alphas = multi_indices(k)
    rng = np.random.default_rng(seed)
    psi_cubes = [h.key for h in pou.hats if h.kind == "psi"]
    if not psi_cubes:
        return 0.0
    pick = rng.choice(psi_cubes, size=min(n_cubes, len(psi_cubes)),
                      replace=False)
    worst = 0.0
    top = [a for a in alphas if sum(a) == k]
    polys, rows = approx.polynomials, approx.rows
    which = np.array([rows.get(hat.donor, -1) for hat in pou.hats])
    for q in pick:
        sel = u.grid.region(_cells_mask(ct.domain.shape, ct.bq[q]))
        idx = np.flatnonzero(sel)
        if len(idx) > 400:
            idx = idx[rng.choice(len(idx), size=400, replace=False)]
        x, y = u.grid.x[idx], u.grid.y[idx]
        chunks = list(pou.hat_jets(x, y, alphas))  # every hat once
        S = jet_zero(len(x), alphas)
        for _, pts, hj in chunks:
            add_jet(S, pts, hj)
        xi_sum = np.zeros(len(x))
        rebuilt = {a: np.zeros(len(x)) for a in top}
        for hats, pts, hj in chunks:
            nj = jet_quotient(hj, {a: S[a][pts] for a in alphas}, alphas)
            px, py = x[pts], y[pts]
            src = _donor_jets({a: u.field.derivative(a, px, py)
                               for a in alphas}, which[hats], polys, px, py)
            ref = polys.jets(rows[q], px, py, alphas)
            fj = {a: src[a] - ref[a] for a in alphas}
            prod = jet_product(fj, nj, top)
            # beta < alpha terms only
            add_jet(rebuilt, pts, {a: prod[a] - fj[a] * nj[(0, 0)]
                                   for a in top})
            xi = which[hats] < 0
            np.add.at(xi_sum, pts[xi], nj[(0, 0)][xi])
        for a in top:
            direct = approx.jets[a][idx]
            full = rebuilt[a] + u.field.derivative(a, x, y) * xi_sum
            scale = np.abs(direct).max() + 1.0
            worst = max(worst, float(np.abs(full - direct).max() / scale))
    return worst


def error_localization(u: SampledFunction, approx: Approximant) -> float:
    """Fraction of the p-mass of |grad^k (u - u_m)| lying outside the
    psi/phi supports (zero up to rounding: the xi-terms reproduce u)."""
    diff = approx.error_jets(u)
    inside = seminorm(diff, approx.error_selector, u.k, u.p,
                      u.grid.cell_area) ** u.p
    total = seminorm(diff, None, u.k, u.p, u.grid.cell_area) ** u.p
    if total == 0:
        return 0.0
    return (total - inside) / total


# error_decay's tail at level m lies outside the core at level _ALPHA_TAIL*m
_ALPHA_TAIL = 0.6
# error_decay's evaluation grid: each domain cell split _REFINE x _REFINE
_REFINE = 2


def error_decay(field: AnalyticField, domain: GridDomain, k: int, p: float,
                m_list, qh: QhMetric | None = None,
                dec: WhitneyDecomposition | None = None,
                levels=None) -> PropertyReport:
    """Per-level error, tail seminorm, and sup-norms of the approximant on
    the (m, decomposition or skip reason) pairs of ``build_levels``: the
    ``levels`` given, else ``m_list``'s built here with the default c0.
    A level with an empty band is skipped too.  The caller asserts
    decay/boundedness."""
    dec = dec or whitney_decompose(domain)
    if levels is None:
        levels = build_levels(dec, qh or QhMetric(domain), m_list)
    grid = EvalGrid(domain, _REFINE)
    u = SampledFunction(grid, field, k, p)
    total = seminorm(u.jets, None, k, p, grid.cell_area)
    rep = PropertyReport("error_decay", 0.0, resolution=domain.h)
    rows = []
    for m, ct in levels:
        if not isinstance(ct, str) and not ct.P:
            # xi hats only: u_m = u by construction, so its 0 measures nothing
            ct = f"empty band at m={m}: no band cubes, so u_m = u"
        if isinstance(ct, str):
            rows.append({"m": int(m), "skipped": ct})
            continue
        pou = build_partition(ct, kmax=k)
        approx = assemble(u, pou, ct)
        diff = approx.error_jets(u)
        err = seminorm(diff, None, k, p, grid.cell_area)
        tail_sel = grid.region(~core_mask_at_level(dec, _ALPHA_TAIL * m))
        tail = seminorm(u.jets, tail_sel, k, p, grid.cell_area)
        rows.append({
            "m": int(m),
            "error": err,
            "tail": tail,
            "ratio": err / tail if tail > 0 else float("inf"),
            "sup_norms": {str(a): v for a, v in approx.sup_norms.items()},
            "localization_leak": error_localization(u, approx),
        })
        del ct, pou, approx, diff  # free this level before the next build
    done = [r for r in rows if "error" in r]
    rep.samples = rows
    rep.extra = {
        "k": k, "p": p, "alpha_tail": _ALPHA_TAIL,
        "total_seminorm": total,
        "errors": [r["error"] for r in done],
        "ratios": [r["ratio"] for r in done],
        "levels": [r["m"] for r in done],
    }
    # last error over first; a zero first error gives 0 when the last is 0
    # too and inf otherwise, as ``ratio`` does for a zero tail
    rep.constant = 0.0
    if len(done) > 1:
        first, last = done[0]["error"], done[-1]["error"]
        rep.constant = last / first if first > 0 else (
            float("inf") if last > 0 else 0.0)
    rep.passed = bool(done) and all(np.isfinite(r["error"]) for r in done)
    return rep
