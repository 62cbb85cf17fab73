"""Quasihyperbolic metric, geodesics, radial tree and hyperbolicity estimate.

The metric graph reuses the domain's 16-neighbor cell graph; an edge (a, b)
weighs its euclidean length times the trapezoidal average of the density
1/d: len * (1/d(a) + 1/d(b)) / 2.  This quadrature is second-order accurate
for the line integral of 1/d and exact for constant d, and because d is
1-Lipschitz along edges the discrete distance obeys the classical lower
bounds k >= log(1 + lambda/(d(x) ^ d(y))) and k >= |log(d(x)/d(y))| exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Cell, GridDomain, Polyline, UnreachableError, _walk


@dataclass
class Geodesic(Polyline):
    """A discrete quasihyperbolic geodesic: a polyline and its k-length."""

    k_length: float

    def as_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "euclidean_length": self.length,
            "euclidean_diameter": self.diameter,
            "k_length": self.k_length,
        }


@dataclass
class GeodesicTree:
    """Single-source shortest-path tree over the quasihyperbolic graph."""

    root: int
    dist: np.ndarray  # k(x0, node) per node
    pred: np.ndarray  # parent node per node (-9999 at root)

    def path_nodes(self, node: int) -> np.ndarray:
        return np.asarray(_walk(self.pred, self.root, node))


class QhMetric:
    """Quasihyperbolic distance oracle for one grid domain; ``edge_weights``,
    per entry of the domain's edge table, is its engine's weight array."""

    def __init__(self, domain: GridDomain):
        self.domain = domain
        # len * (1/d(a) + 1/d(b)) / 2 per entry, in place
        self.edge_weights = domain.entry_sums(1.0 / domain.node_dist())
        self.edge_weights *= domain.edges()[2]
        self.edge_weights *= 0.5
        self.engine = domain.graph(self.edge_weights)
        self._tree: GeodesicTree | None = None

    def min_field(self, nodes, limit: float = np.inf) -> np.ndarray:
        """k(S, .) = min over sources; one multi-source Dijkstra, inf where
        it exceeds ``limit`` (every finite value is exact)."""
        return self.engine.min_from_set(nodes, limit)

    def k_length_of(self, nodes) -> float:
        """Quasihyperbolic length of a node path: its edges' weights."""
        return float(self.engine.steps(nodes).sum())

    def geodesic_from_nodes(self, nodes) -> Geodesic:
        line = self.domain.polyline(nodes)
        return Geodesic(**vars(line), k_length=self.k_length_of(line.nodes))

    # -- metric queries -----------------------------------------------------

    def distance(self, x: Cell, y: Cell) -> float:
        nx, ny = map(self.domain.require_interior, (x, y))
        return self.engine.distance(nx, ny)

    def geodesic(self, x: Cell, y: Cell) -> Geodesic:
        nx, ny = map(self.domain.require_interior, (x, y))
        return self.geodesic_from_nodes(self.engine.path(nx, ny))

    def radial_tree(self) -> GeodesicTree:
        if self._tree is None:
            root = self.domain.require_interior(self.domain.x0)
            dist, pred = self.engine.from_source(root)
            self._tree = GeodesicTree(root, dist, pred)
        return self._tree


def sample_nodes(domain: GridDomain, n: int, seed: int) -> np.ndarray:
    """Deterministic interior node sample, uniform over physical positions.

    Sampling in physical coordinates (not node indices) keeps samples
    comparable across grid refinements of the same fixture.
    Each candidate point maps to the nearest interior cell (no rejection), so
    the t-th sample is a stable function of the t-th physical point and the
    pairing of consecutive samples survives refinement.
    Samples avoid the single boundary-adjacent cell layer (d ~ h/2), where
    the trapezoidal 1/d quadrature error is largest; each point snaps to the
    nearest cell outside that layer.
    """
    rng = np.random.default_rng(seed)
    ext = np.asarray(domain.shape) * domain.h
    pts = rng.uniform(0, 1, size=(n, 2)) * ext
    dvals = domain.node_dist()
    ok = dvals >= 1.5 * domain.h
    candidates = domain.node_cells[ok] if ok.any() else domain.node_cells
    nodes = domain.cell_node[tuple(candidates.T)]
    cells = np.floor(pts / domain.h).astype(int)
    out = []
    for c in cells:
        best = int(np.argmin(((candidates - c) ** 2).sum(1)))
        out.append(int(nodes[best]))
    return np.asarray(out, dtype=int)


@dataclass
class DeltaEstimate:
    value: float
    triangles: int
    seed: int
    argmax: tuple[Cell, Cell, Cell] | None
    per_triangle: list[float] = field(default_factory=list, repr=False)


def search_limits(start: float, cap: float):
    """Limits for a distance field, tried in turn until it reaches what its
    caller reads: ``start`` doubled while below ``cap``, a limit that
    suffices up to quadrature; then ``cap`` and no limit.  Every finite
    value of a field searched to a limit is exact."""
    limit = start
    while 0 < limit < cap:
        yield limit
        limit *= 2
    yield cap
    yield np.inf


def estimate_delta(
    qh: QhMetric, n_triangles: int = 100, seed: int = 0
) -> DeltaEstimate:
    """Thin-triangles Gromov constant over sampled geodesic triangles.

    For each sampled triangle the thinness is the max over points w on one
    side of dist_k(w, union of the other two sides); the estimate is the max
    over triangles.  Uses the thin-triangle definition directly; see
    ``four_point_delta`` for the cross-check variant.
    """
    dom = qh.domain
    nodes = sample_nodes(dom, 3 * n_triangles, seed)
    best, arg = 0.0, None
    per = []
    for t in range(n_triangles):
        a, b, c = (int(v) for v in nodes[3 * t : 3 * t + 3])
        if len({a, b, c}) < 3:
            per.append(0.0)
            continue
        ends = ((a, b), (a, c), (b, c))
        try:
            # the search from b stops at k(b, a) + k(a, c), which bounds k(b, c)
            k_ab, k_ac = qh.engine.distance(a, b), qh.engine.distance(a, c)
            sides = [np.asarray(qh.engine.path(u, v, bound)) for (u, v), bound
                     in zip(ends, (k_ab, k_ac, k_ab + k_ac))]
        except UnreachableError:
            per.append(0.0)
            continue
        thin = 0.0
        for i, (u, v) in enumerate(ends):
            others = np.unique(np.concatenate([sides[(i + 1) % 3], sides[(i + 2) % 3]]))
            # a side's thinness rarely exceeds the thinness measured before
            # it (of its triangle, or of the earlier triangles for a first
            # side) by much; the other sides hold the side's ends, and each
            # node of a geodesic lies within half its k-length of one
            half = 0.5 * qh.engine.distance(u, v)
            for limit in search_limits(1.25 * (thin if i else best), half):
                near = qh.min_field(others, limit * (1 + 1e-9))[sides[i]]
                if np.isfinite(near).all():
                    break
            thin = max(thin, float(near.max()))
        per.append(thin)
        if thin > best:
            best = thin
            arg = tuple(tuple(dom.node_cells[v]) for v in (a, b, c))
    return DeltaEstimate(best, n_triangles, seed, arg, per)


def four_point_delta(qh: QhMetric, n_samples: int = 100, seed: int = 0) -> float:
    """Four-point-condition hyperbolicity constant (cross-check only)."""
    nodes = sample_nodes(qh.domain, max(8, int(np.sqrt(n_samples) * 2)), seed)
    nodes = np.unique(nodes)
    fields = {int(v): qh.engine.from_source(int(v))[0] for v in nodes}
    rng = np.random.default_rng(seed + 1)
    best = 0.0
    for _ in range(n_samples):
        x, y, z, w = (int(v) for v in rng.choice(nodes, size=4, replace=False))
        s1 = fields[x][y] + fields[z][w]
        s2 = fields[x][z] + fields[y][w]
        s3 = fields[x][w] + fields[y][z]
        a, b, c = sorted((float(s1), float(s2), float(s3)))
        best = max(best, (c - b) / 2.0)
    return best
