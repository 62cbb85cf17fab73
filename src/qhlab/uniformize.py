"""Conformal deformation of the quasihyperbolic metric by an exponential
density, and empirical uniformity/bilipschitz checks of the deformed space.

The density rho_eps(x) = exp(-eps k(x, x0)) rescales quasihyperbolic length:
d_eps(x, y) = inf over paths of the integral of rho_eps against k-arclength.
The deformed space is bounded (diameter about 2/eps) and, on Gromov
hyperbolic domains, uniform; its own quasihyperbolic metric k_rho built from
the deformed boundary distance d_rho is bilipschitz to k.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainError, _DijkstraCache
from .properties import PropertyReport, distinct, record_uniformity
from .qh import QhMetric


class DeformedMetric:
    """Deformed length metric d_eps over one domain's cell graph.

    ``d_rho`` is the deformed distance to the boundary: distance to the
    boundary-adjacent cell layer plus the closed-form tail integral of the
    density along the remaining fall to the boundary.  With k growing like
    -log t at distance t from the boundary, the density decays like t^eps and
    the tail from a cell with value rho(b) integrates to rho(b)/eps.
    """

    def __init__(self, qh: QhMetric, epsilon: float):
        if epsilon <= 0:
            raise DomainError(f"deformation parameter must be positive, got {epsilon}")
        self.qh = qh
        self.domain = qh.domain
        self.epsilon = float(epsilon)
        tree = qh.radial_tree()
        self.rho = np.exp(-self.epsilon * tree.dist)

        # k-len * (rho(a) + rho(b)) / 2 per entry, in place
        self.edge_weights = self.domain.entry_sums(self.rho)
        self.edge_weights *= qh.edge_weights
        self.edge_weights *= 0.5
        self.engine = self.domain.graph(self.edge_weights)

        # deformed boundary distance: one Dijkstra from a virtual boundary
        # node attached to every boundary-adjacent cell with the tail weight
        n = self.domain.n_nodes
        near = np.flatnonzero(self.domain.node_dist() <= self.domain.h)
        aug = self.domain.graph(self.edge_weights,
                                exits=(near, self.rho[near] / self.epsilon))
        self.d_rho = aug.min_from_set([n])[:n]

        self._k_rho_engine: _DijkstraCache | None = None

    # -- metric queries -----------------------------------------------------

    def distance(self, x, y) -> float:
        nx, ny = map(self.domain.require_interior, (x, y))
        return self.engine.distance(nx, ny)

    def diameter_from(self, x) -> float:
        """Max deformed distance from x (the space is bounded)."""
        dist, _ = self.engine.from_source(self.domain.require_interior(x))
        return float(dist[np.isfinite(dist)].max())

    # -- quasihyperbolic metric of the deformed space -----------------------

    def k_rho_engine(self) -> _DijkstraCache:
        if self._k_rho_engine is None:
            # d_eps-len * 2 / (d_rho(a) + d_rho(b)) per entry, in place
            weights = self.domain.entry_sums(self.d_rho)
            np.divide(self.edge_weights, weights, out=weights)
            weights *= 2.0
            self._k_rho_engine = self.domain.graph(weights)
        return self._k_rho_engine


def build_deformation(qh: QhMetric, epsilon: float = 0.2) -> DeformedMetric:
    return DeformedMetric(qh, epsilon)


EPSILON_SWEEP = (0.05, 0.1, 0.2, 0.4)


def check_deformed_uniformity(
    metric: DeformedMetric, pairs, seed: int = 0
) -> PropertyReport:
    """Uniform-space constants of (domain, d_eps) measured on d_eps-geodesics.

    A1 = max path-length/d_eps (1 up to quadrature, geodesics realize the
    metric); A2 = max over path points z of the smaller sub-length divided by
    the deformed boundary distance d_rho(z).  Each d_eps search stops at the
    d_eps length of the pair's k-geodesic.
    """
    report = PropertyReport("deformed_uniformity", 0.0, seed=seed,
                            resolution=metric.domain.h)

    def geodesic(x, y):
        geo = metric.qh.geodesic(x, y)
        src, dst = geo.nodes[0], geo.nodes[-1]
        bound = metric.engine.steps(geo.nodes).sum()
        nodes = np.asarray(metric.engine.path(src, dst, bound))
        return (metric.engine.distance(src, dst, bound),
                metric.engine.steps(nodes), metric.d_rho[nodes])

    a1, a2 = record_uniformity(report, pairs, geodesic)
    report.extra = {
        "A1": a1,
        "A2": a2,
        "deformed_diameter_bound": 2 * metric.diameter_from(metric.domain.x0),
        "epsilon": metric.epsilon,
    }
    return report


def check_bilipschitz(
    metric: DeformedMetric, pairs, seed: int = 0
) -> PropertyReport:
    """C = max over pairs of max(k_rho/k, k/k_rho) between the deformed and
    original quasihyperbolic metrics.  Each k_rho search stops at the k_rho
    length of the pair's k-geodesic."""
    report = PropertyReport("bilipschitz", 1.0, seed=seed,
                            resolution=metric.domain.h)
    for x, y in distinct(pairs):
        # k is the search's: the geodesic's k_length can differ in last bits
        k, geo = metric.qh.distance(x, y), metric.qh.geodesic(x, y)
        k_rho = metric.k_rho_engine()
        kr = k_rho.distance(geo.nodes[0], geo.nodes[-1],
                            k_rho.steps(geo.nodes).sum())
        if k <= 0 or kr <= 0:
            continue
        ratio = max(kr / k, k / kr)
        report.samples.append({"x": list(map(int, x)), "y": list(map(int, y)),
                               "k": k, "k_rho": kr, "ratio": ratio})
        report.constant = max(report.constant, ratio)
    report.extra = {"epsilon": metric.epsilon}
    return report
