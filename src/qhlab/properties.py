"""Empirical checkers for separation / Gehring-Hayman / uniformity properties.

Every checker returns a PropertyReport whose ``constant`` is the measured
extremal ratio over the sampled witnesses (or the minimal passing constant
found by bisection).  Reports are plain data and serialize to JSON/CSV in the
report module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .grid import (GridDomain, _component_at, intrinsic_diameter_distance,
                   intrinsic_distance)
from .qh import Geodesic, QhMetric, sample_nodes

LOG2 = float(np.log(2.0))


@dataclass
class PropertyReport:
    name: str
    constant: float
    bound: float | None = None
    passed: bool | None = None
    seed: int | None = None
    resolution: float | None = None
    samples: list[dict] = dfield(default_factory=list)
    extra: dict = dfield(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "constant": self.constant,
            "bound": self.bound,
            "passed": self.passed,
            "seed": self.seed,
            "resolution": self.resolution,
            "n_samples": len(self.samples),
            "samples": self.samples,
            "extra": self.extra,
        }


def sample_pairs(domain: GridDomain, n: int, seed: int):
    nodes = sample_nodes(domain, 2 * n, seed)
    return [
        (tuple(domain.node_cells[int(nodes[2 * t])]),
         tuple(domain.node_cells[int(nodes[2 * t + 1])]))
        for t in range(n)
    ]


def distinct(pairs) -> list:
    """The pairs of two different cells: every checker samples those only."""
    return [(x, y) for x, y in pairs if tuple(x) != tuple(y)]


def pair_geodesics(qh: QhMetric, pairs) -> list[Geodesic]:
    return [qh.geodesic(x, y) for x, y in distinct(pairs)]


def _cumlen(steps: np.ndarray) -> np.ndarray:
    """Length along a path from its start, at each node, from its steps."""
    return np.concatenate([[0.0], np.cumsum(steps)])


# -- ball separation ---------------------------------------------------------


_SLACK = 2.0  # cells


def _separation_state(domain: GridDomain, lam_field: np.ndarray, z_d: float,
                      c: float, nx: int, ny: int) -> str:
    """'skip' (an endpoint inside the ball), 'separated' or 'connected'."""
    radius = c * z_d
    # endpoints within grid slack of the ball boundary count as inside: the
    # pair x, y must lie in the geodesic minus the ball, and metrication can
    # push a continuum boundary case marginally outside
    slack = _SLACK * domain.h
    if lam_field[nx] <= radius + slack or lam_field[ny] <= radius + slack:
        return "skip"
    cells = domain.node_cells
    outside = np.zeros(domain.shape, dtype=bool)
    outside[tuple(cells[lam_field > radius].T)] = True
    if _component_at(outside, cells[nx])[tuple(cells[ny])]:
        return "connected"
    return "separated"


def check_ball_separation(
    qh: QhMetric,
    geodesics: list[Geodesic],
    c: float | None = None,
    z_per_geodesic: int = 3,
    seed: int = 0,
) -> PropertyReport:
    """Minimal c such that B(z, c d(z)) (intrinsic lambda-ball) separates the
    two geodesic endpoints for every sampled interior geodesic point z.

    When ``c`` is given, reports pass/fail at that value instead.  Without
    it, a z whose ball holds an endpoint already at the smallest c tested
    (0.05) passes at every c: it is sampled as a ``skip`` state and bounds
    the constant below by that smallest c only.
    """
    domain = qh.domain
    dvals = domain.node_dist()
    eng = domain.length_engine()
    report = PropertyReport("ball_separation", 0.0, bound=c, seed=seed,
                            resolution=domain.h)
    c_lo_all, c_hi_all = 0.05, 64.0
    c_top = c_hi_all if c is None else c  # the largest c any state tests
    worst = 0.0
    all_pass = True
    for gi, geo in enumerate(geodesics):
        n = len(geo.nodes)
        if n < 5:
            continue
        z_idx = np.linspace(1, n - 2, z_per_geodesic).astype(int)
        nx, ny = int(geo.nodes[0]), int(geo.nodes[-1])
        cum = _cumlen(geo.steps)
        for zi in np.unique(z_idx):
            nz = int(geo.nodes[zi])
            z_d = float(dvals[nz])
            # A state reads lambda up to its radius plus the endpoint slack,
            # and every radius reaching the nearer endpoint skips; the
            # geodesic's arc from z bounds lambda to that endpoint.
            near_end = min(cum[zi], cum[-1] - cum[zi]) * (1 + 1e-9)
            lam_field = eng.min_from_set(
                [nz], min(c_top * z_d + _SLACK * domain.h, near_end))

            def state(cv):
                return _separation_state(domain, lam_field, z_d, cv, nx, ny)

            if c is not None:
                st = state(c)
                ok = st in ("skip", "separated")
                all_pass &= ok
                report.samples.append(
                    {"geodesic": gi, "z_index": int(zi), "state": st, "c": c})
                continue
            # bisection (log scale) for the minimal passing c; a ball
            # holding an endpoint at the smallest c tested passes at every c
            if state(c_lo_all) == "skip":
                worst = max(worst, c_lo_all)
                report.samples.append(
                    {"geodesic": gi, "z_index": int(zi), "state": "skip"})
                continue
            if state(c_hi_all) == "connected":
                worst = float("inf")
                all_pass = False
                report.samples.append(
                    {"geodesic": gi, "z_index": int(zi), "state": "connected",
                     "c": c_hi_all})
                continue
            lo, hi = c_lo_all, c_hi_all
            while hi / lo > 1.01:
                mid = float(np.sqrt(lo * hi))
                if state(mid) == "connected":
                    lo = mid
                else:
                    hi = mid
            worst = max(worst, hi)
            report.samples.append(
                {"geodesic": gi, "z_index": int(zi), "minimal_c": hi})
    report.constant = worst if c is None else float(c)
    report.passed = all_pass if c is not None else np.isfinite(worst)
    return report


# -- Gehring-Hayman ----------------------------------------------------------


MODES = ("length", "diameter")


def _intrinsic(domain: GridDomain, x, y, mode: str,
               bound: float = np.inf) -> float:
    """lambda (length mode) or delta (diameter mode) between two cells;
    ``bound``, the length of an x-y path, limits the lambda search."""
    if mode == "length":
        return intrinsic_distance(domain, x, y, bound=bound)
    return intrinsic_diameter_distance(domain, x, y, bound=bound)


def _extent(curve, mode: str) -> float:
    """A curve's euclidean length (length mode) or diameter."""
    return curve.length if mode == "length" else curve.diameter


def _capital(domain: GridDomain, x, y, dist: float) -> float:
    """Lambda or Delta, log(1 + dist/(d(x) ^ d(y))), from lambda or delta."""
    dmin = min(domain.boundary_distance(x), domain.boundary_distance(y))
    return float(np.log1p(dist / dmin))


def _record_shortness(report: PropertyReport, geo: Geodesic, x, y, mode: str,
                      denom: float) -> None:
    """Sample the length or diameter of the geodesic of a pair of distinct
    cells over ``denom``."""
    ratio = _extent(geo, mode) / denom
    report.samples.append({"x": list(map(int, x)), "y": list(map(int, y)),
                           "ratio": ratio})
    report.constant = max(report.constant, ratio)


def check_gehring_hayman(
    qh: QhMetric, pairs, mode: str = "length", seed: int = 0
) -> PropertyReport:
    """Max over pairs of l(geodesic)/lambda or diam(geodesic)/delta; the
    geodesic's length bounds the lambda search."""
    if mode not in MODES:
        raise ValueError("mode must be 'length' or 'diameter'")
    domain = qh.domain
    report = PropertyReport(f"gehring_hayman_{mode}", 1.0, seed=seed,
                            resolution=domain.h)
    for x, y in distinct(pairs):
        geo = qh.geodesic(x, y)
        _record_shortness(report, geo, x, y, mode,
                          _intrinsic(domain, x, y, mode, geo.length))
    return report


def check_local_gehring_hayman(
    qh: QhMetric, pairs, c: float, R: float, mode: str = "length",
    alternate: bool = False,
) -> PropertyReport:
    """(c, R)-local Gehring-Hayman: the mode inequality restricted to pairs
    with Lambda (length) or Delta (diameter) at most R.

    With ``alternate`` the reformulated filter is used instead: comparable
    boundary distances (1/R <= d(x)/d(y) <= R) and lambda-or-delta <= R (d^d).
    """
    domain = qh.domain
    report = PropertyReport(
        f"local_gehring_hayman_{mode}" + ("_alt" if alternate else ""),
        1.0, bound=c, resolution=domain.h)

    qualifying = 0
    for x, y in distinct(pairs):
        denom = _intrinsic(domain, x, y, mode)
        if alternate:
            dx, dy = domain.boundary_distance(x), domain.boundary_distance(y)
            ok = max(dx / dy, dy / dx) <= R and denom <= R * min(dx, dy)
        else:
            ok = _capital(domain, x, y, denom) <= R
        if ok:
            qualifying += 1
            _record_shortness(report, qh.geodesic(x, y), x, y, mode, denom)
    report.extra["qualifying_pairs"] = qualifying
    report.passed = report.constant <= c
    return report


# -- uniformity --------------------------------------------------------------


def record_uniformity(report: PropertyReport, pairs, curve
                      ) -> tuple[float, float]:
    """Sample the uniform-curve constants of one curve per distinct pair:
    A1 = length over chord, and A2 = max over the curve's points z of the
    smaller of the two sub-lengths over the boundary distance at z.
    ``curve(x, y)`` gives the chord, the length of each step of the curve
    and the boundary distance at its points.  Sets ``report.constant`` to
    max(A1, A2) and returns (A1, A2)."""
    a1 = a2 = 0.0
    for x, y in distinct(pairs):
        chord, steps, dvals = curve(x, y)
        cum = _cumlen(steps)
        sub = np.minimum(cum, cum[-1] - cum)
        with np.errstate(divide="ignore"):
            r1, r2 = float(cum[-1]) / chord, float((sub / dvals).max())
        report.samples.append({"x": list(map(int, x)), "y": list(map(int, y)),
                               "A1": r1, "A2": r2})
        a1, a2 = max(a1, r1), max(a2, r2)
    report.constant = max(a1, a2)
    return a1, a2


def check_uniformity(qh: QhMetric, pairs, seed: int = 0) -> PropertyReport:
    """Measured uniformity constants of the geodesic family (Def of uniform
    curves: length bounded by A|x-y|, and double-cone: min of the two
    sub-lengths at each curve point bounded by A d(z))."""
    domain = qh.domain
    dvals = domain.node_dist()
    report = PropertyReport("uniformity", 0.0, seed=seed, resolution=domain.h)

    def geodesic(x, y):
        geo = qh.geodesic(x, y)
        chord = float(np.hypot(*(domain.position(x) - domain.position(y))))
        return chord, geo.steps, dvals[geo.nodes]

    a1, a2 = record_uniformity(report, pairs, geodesic)
    report.extra = {"A1": a1, "A2": a2, "doubly_john_A": a2}
    return report


# -- radial hyperbolicity ----------------------------------------------------


def check_radially_hyperbolic(
    qh: QhMetric, c0: float, c: float, R: float,
    n_samples: int = 20, seed: int = 0,
) -> PropertyReport:
    """(c0, c, R)-radial hyperbolicity with center x0.

    Checks the c0/10-ball separation on radial geodesics, the
    (c, R)-diameter Gehring-Hayman property along each sampled radial
    geodesic, and for pairs of radial geodesics sharing a non-root node the
    (c, R)-length-or-diameter property of the union curve.
    """
    domain = qh.domain
    tree = qh.radial_tree()
    nodes = sample_nodes(domain, n_samples, seed)
    report = PropertyReport("radially_hyperbolic", 0.0, bound=c, seed=seed,
                            resolution=domain.h)
    geos = [qh.geodesic_from_nodes(tree.path_nodes(int(v))) for v in nodes
            if int(v) != tree.root]
    sep = check_ball_separation(qh, geos[: max(4, n_samples // 4)],
                                c=c0 / 10.0, seed=seed)
    worst = 0.0
    ok_all = sep.passed

    # (i) diameter GH along each radial geodesic
    rng = np.random.default_rng(seed + 1)
    for geo in geos:
        n = len(geo.nodes)
        if n < 4:
            continue
        i, j = sorted(rng.choice(n, size=2, replace=False))
        u = tuple(domain.node_cells[int(geo.nodes[i])])
        v = tuple(domain.node_cells[int(geo.nodes[j])])
        arc = domain.polyline(geo.nodes[i : j + 1])
        delta = intrinsic_diameter_distance(domain, u, v, bound=arc.length)
        if _capital(domain, u, v, delta) > R:
            continue
        ratio = arc.diameter / delta
        worst = max(worst, ratio)
        ok = ratio <= c
        ok_all = ok_all and ok
        report.samples.append({"kind": "radial_diameter", "ratio": ratio,
                               "ok": bool(ok)})

    # (ii) unions of two radial geodesics sharing a non-root node
    for a in range(0, len(geos) - 1, 2):
        gx, gy = geos[a], geos[a + 1]
        in_y = np.isin(gx.nodes, gy.nodes)
        if not (in_y & (gx.nodes != tree.root)).any():
            report.samples.append({"kind": "union", "vacuous": True})
            continue
        # union curve from x down to the divergence node and up to y
        ix = int(np.flatnonzero(in_y)[-1])
        iy = int(np.nonzero(gy.nodes == gx.nodes[ix])[0][0])
        union_nodes = np.concatenate([gx.nodes[ix:][::-1], gy.nodes[iy + 1 :]])
        x = tuple(domain.node_cells[int(union_nodes[0])])
        y = tuple(domain.node_cells[int(union_nodes[-1])])
        if x == y:
            continue
        curve = domain.polyline(union_nodes)
        held, applicable = [], False
        for mode in MODES:
            dist = _intrinsic(domain, x, y, mode, curve.length)
            if _capital(domain, x, y, dist) <= R:
                applicable = True
                if _extent(curve, mode) / dist <= c:
                    held.append(mode)
        ok = (not applicable) or bool(held)
        ok_all = ok_all and ok
        report.samples.append({"kind": "union", "held": held,
                               "applicable": bool(applicable), "ok": bool(ok)})
    report.constant = worst
    report.passed = bool(ok_all)
    report.extra = {"separation_minimal_c": sep.constant,
                    "separation_passed": sep.passed}
    return report


# -- geodesic tail diameter --------------------------------------------------


_TAIL_M_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def check_geodesic_tail_diameter(
    qh: QhMetric, pairs, tol: float = 0.05,
) -> PropertyReport:
    """Minimal M in _TAIL_M_GRID such that every component of geodesic
    minus the euclidean ball B(x, M delta(x,y)) has quasihyperbolic
    diameter at most log 2 (plus tolerance)."""
    domain = qh.domain
    threshold = LOG2 * (1.0 + tol)
    data = []
    for x, y in distinct(pairs):
        geo = qh.geodesic(x, y)
        delta = intrinsic_diameter_distance(domain, x, y, bound=geo.length)
        px = domain.position(x)
        radii = np.sqrt(((geo.points - px) ** 2).sum(1))
        data.append((geo, delta, radii))
    report = PropertyReport("geodesic_tail_diameter", float("inf"),
                            bound=threshold, resolution=domain.h)
    chosen = None
    for M in _TAIL_M_GRID:
        ok = True
        worst = 0.0
        for geo, delta, radii in data:
            # consecutive runs of nodes outside the ball are the components
            step = np.diff(np.concatenate([[0], radii > M * delta, [0]]))
            for s, e in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1)):
                kdiam = qh.k_length_of(geo.nodes[s:e])
                worst = max(worst, kdiam)
                if kdiam > threshold:
                    ok = False
        report.samples.append({"M": M, "worst_component_kdiam": worst,
                               "ok": bool(ok)})
        if ok and chosen is None:
            chosen = M
    report.constant = chosen if chosen is not None else float("inf")
    report.passed = chosen is not None
    return report


# -- auxiliary bound checks (used by the test suite) -------------------------


def midpoint_john_check(qh: QhMetric, pairs, A: float):
    """At geodesic midpoints z with delta(x,y) >= d(z)/2, the half-geodesic
    length is bounded by 3 A delta(x,y) (forward John/diameter bound), up to
    20% and two cells."""
    domain = qh.domain
    dvals = domain.node_dist()
    out = []
    for x, y in distinct(pairs):
        geo = qh.geodesic(x, y)
        cum = _cumlen(geo.steps)
        mid = int(np.searchsorted(cum, cum[-1] / 2))
        mid = min(mid, len(geo.nodes) - 1)
        dz = float(dvals[int(geo.nodes[mid])])
        delta = intrinsic_diameter_distance(domain, x, y, bound=cum[-1])
        if delta < dz / 2:
            continue
        lhs = float(cum[mid])
        out.append((lhs, 3 * A * delta, lhs <= 3 * A * delta * (1 + 0.2) + 2 * domain.h))
    return out
