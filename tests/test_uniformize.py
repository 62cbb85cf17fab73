"""Tests for the exponential-density deformation of the qh metric."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from qhlab import gallery
from qhlab.grid import DomainError
from qhlab.properties import sample_pairs
from qhlab.qh import QhMetric
from qhlab.uniformize import (
    EPSILON_SWEEP,
    build_deformation,
    check_bilipschitz,
    check_deformed_uniformity,
)


@pytest.fixture(scope="module")
def disk_qh():
    return QhMetric(gallery.disk(1 / 128))


@pytest.fixture(scope="module")
def disk_def(disk_qh):
    return build_deformation(disk_qh, 0.2)


def test_epsilon_must_be_positive(disk_qh):
    with pytest.raises(DomainError):
        build_deformation(disk_qh, 0.0)
    with pytest.raises(DomainError):
        build_deformation(disk_qh, -1.0)


def test_density_invariants(disk_qh, disk_def):
    dom = disk_qh.domain
    rho = disk_def.rho
    assert rho[dom.require_interior(dom.x0)] == pytest.approx(1.0)
    assert 0 < rho.min() and rho.max() <= 1.0 + 1e-12
    # multiplicative Lipschitz along edges: |log rho(a)-log rho(b)| <= eps*w
    indptr, ib, _ = dom.edges()
    ia = np.repeat(np.arange(dom.n_nodes), np.diff(indptr))
    gap = np.abs(np.log(rho[ia]) - np.log(rho[ib]))
    assert (gap <= 0.2 * disk_qh.edge_weights + 1e-9).all()


def test_rho_monotone_along_tree_paths(disk_qh, disk_def):
    tree = disk_qh.radial_tree()
    from qhlab.qh import sample_nodes

    for v in sample_nodes(disk_qh.domain, 10, seed=3):
        path = tree.path_nodes(int(v))
        vals = disk_def.rho[path]
        assert (np.diff(vals) <= 1e-12).all()


def test_small_epsilon_limit_matches_k(disk_qh):
    dm = build_deformation(disk_qh, 1e-4)
    pairs = sample_pairs(disk_qh.domain, 6, seed=5)
    for x, y in pairs:
        if tuple(x) == tuple(y):
            continue
        k = disk_qh.distance(x, y)
        assert dm.distance(x, y) == pytest.approx(k, rel=2e-3)


def test_radial_integral_bound(disk_qh, disk_def):
    # along any path from x0, d_eps <= (1 - exp(-eps k))/eps; the trapezoid
    # rule overestimates the convex integrand, hence the quadrature slack
    pairs = sample_pairs(disk_qh.domain, 8, seed=7)
    eps = disk_def.epsilon
    x0 = disk_qh.domain.x0
    for _, y in pairs:
        k = disk_qh.distance(x0, y)
        bound = (1.0 - np.exp(-eps * k)) / eps
        assert disk_def.distance(x0, y) <= bound * (1 + 1e-3)


def test_deformed_weights_below_qh(disk_def):
    assert (disk_def.edge_weights <= disk_def.qh.edge_weights + 1e-15).all()


def test_symmetry_and_triangle(disk_def):
    dom = disk_def.domain
    a, b, c = dom.cell_at((0.3, 0.4)), dom.cell_at((0.7, 0.6)), dom.cell_at((0.5, 0.8))
    ab, bc, ac = (disk_def.distance(a, b), disk_def.distance(b, c),
                  disk_def.distance(a, c))
    assert ab == pytest.approx(disk_def.distance(b, a), rel=1e-12)
    assert ac <= ab + bc + 1e-12


def test_space_is_bounded(disk_qh):
    # deformed diameter about 2/eps regardless of how deep k runs
    for eps in (0.2, 0.4):
        dm = build_deformation(disk_qh, eps)
        assert dm.diameter_from(dm.domain.x0) <= 1.0 / eps + 1e-9


def test_deformed_uniformity_disk(disk_def):
    pairs = sample_pairs(disk_def.domain, 10, seed=9)
    rep = check_deformed_uniformity(disk_def, pairs)
    assert rep.extra["A1"] == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(rep.extra["A2"]) and rep.extra["A2"] > 0
    assert np.isfinite(rep.extra["deformed_diameter_bound"])


def test_deformed_uniformity_refinement_stable():
    vals = []
    for h in (1 / 128, 1 / 256):
        qh = QhMetric(gallery.disk(h))
        dm = build_deformation(qh, 0.2)
        pairs = sample_pairs(qh.domain, 10, seed=9)
        vals.append(check_deformed_uniformity(dm, pairs).extra["A2"])
    assert abs(vals[0] - vals[1]) / vals[1] < 0.15


def test_bilipschitz_disk_stable():
    consts = []
    for h in (1 / 128, 1 / 256):
        qh = QhMetric(gallery.disk(h))
        dm = build_deformation(qh, 0.2)
        pairs = sample_pairs(qh.domain, 12, seed=11)
        rep = check_bilipschitz(dm, pairs)
        assert np.isfinite(rep.constant) and rep.constant >= 1.0
        consts.append(rep.constant)
    assert abs(consts[0] - consts[1]) / consts[1] < 0.10


def test_epsilon_sweep_reports(disk_qh):
    pairs = sample_pairs(disk_qh.domain, 6, seed=13)
    rows = []
    for eps in EPSILON_SWEEP:
        dm = build_deformation(disk_qh, eps)
        rep = check_bilipschitz(dm, pairs)
        rows.append((eps, rep.constant, dm.d_rho.max()))
    assert all(np.isfinite(c) for _, c, _ in rows)
    # larger eps shrinks the space: max deformed boundary distance decreases
    drho = [r[2] for r in rows]
    assert drho == sorted(drho, reverse=True)


@pytest.mark.parametrize("fixture, h", [("disk", 1 / 128), ("spiral", 1 / 256)])
def test_deformed_uniformity_samples_equal_summed_edge_weights(fixture, h):
    """A1 and A2 bitwise equal to the cumulative sum of the path's edge
    weights, each edge looked up in the two-way edge table."""
    dom = gallery.make(fixture, h)
    metric = build_deformation(QhMetric(dom), 0.2)
    indptr, indices, _ = dom.edges()
    table = sparse.csr_matrix((metric.edge_weights, indices, indptr),
                              shape=(dom.n_nodes, dom.n_nodes))
    rep = check_deformed_uniformity(metric, sample_pairs(dom, 10, 4))
    assert len(rep.samples) >= 8
    for s in rep.samples:
        value = metric.distance(s["x"], s["y"])
        nodes = np.asarray(metric.engine.path(
            *map(dom.require_interior, (s["x"], s["y"]))))
        a, b = nodes[:-1], nodes[1:]
        steps = np.asarray(table[a, b]).ravel()
        sub = np.concatenate([[0.0], steps]).cumsum()
        cone = np.minimum(sub, sub[-1] - sub)
        assert s["A1"] == float(sub[-1]) / value
        assert s["A2"] == float((cone / metric.d_rho[nodes]).max())


def test_steps_along_each_engines_path_sum_to_its_distance():
    """For the lambda, k, d_eps and k_rho engines, the steps of the
    engine's own path sum to its distance (to rounding), and their
    cumulative sum is bitwise the search's field along the path."""
    dom = gallery.dumbbell(1 / 64)
    metric = build_deformation(QhMetric(dom), 0.2)
    engines = (dom.length_engine(), metric.qh.engine, metric.engine,
               metric.k_rho_engine())
    picks = np.linspace(0, dom.n_nodes - 1, 6).astype(int)
    for eng in engines:
        for src, dst in zip(picks[::2], picks[1::2]):
            nodes = eng.path(src, dst)
            steps = eng.steps(nodes)
            assert len(steps) == len(nodes) - 1 > 0
            assert steps.sum() == pytest.approx(eng.distance(src, dst),
                                                rel=1e-12)
            cum = np.concatenate([[0.0], np.cumsum(steps)])
            assert np.array_equal(cum, eng.from_source(src)[0][nodes])


@pytest.mark.parametrize("fixture", ["disk", "dumbbell"])
def test_d_rho_equals_virtual_node_reference(fixture):
    """d_rho bitwise equal to scipy's undirected search from a virtual node
    joined to the boundary layer, on a one-orientation matrix of the same
    edges weighed by the quadratures written out per edge."""
    dom = gallery.make(fixture, 1 / 128)
    metric = build_deformation(QhMetric(dom), 0.2)
    n = dom.n_nodes
    indptr, indices, lengths = dom.edges()
    rows = np.repeat(np.arange(n), np.diff(indptr))
    once = indices > rows
    ia, ib = rows[once], indices[once]
    inv_d = 1.0 / dom.node_dist()
    k = lengths[once] * 0.5 * (inv_d[ia] + inv_d[ib])
    eps = k * 0.5 * (metric.rho[ia] + metric.rho[ib])
    near = np.flatnonzero(dom.node_dist() <= dom.h)
    ref = sparse.csr_matrix(
        (np.concatenate([eps, metric.rho[near] / metric.epsilon]),
         (np.concatenate([ia, near]), np.concatenate([ib, np.full(len(near), n)]))),
        shape=(n + 1, n + 1))
    want = csgraph.dijkstra(ref, directed=False, indices=[n], min_only=True)
    assert np.array_equal(metric.d_rho, want[:n])
