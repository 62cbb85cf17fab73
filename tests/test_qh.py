"""Tests for the quasihyperbolic metric, geodesics and delta estimation."""

import numpy as np
import pytest

from qhlab import gallery
from qhlab.grid import _walk, intrinsic_distance
from qhlab.qh import (
    QhMetric,
    estimate_delta,
    four_point_delta,
    sample_nodes,
)
from qhlab.whitney import whitney_decompose


def cells_of(dom, nodes):
    return [tuple(dom.node_cells[int(v)]) for v in nodes]


def test_disk_radial_values():
    dom = gallery.disk(1 / 256, radius=0.47)
    qh = QhMetric(dom)
    c = dom.cell_at((0.5, 0.5))
    for r in (0.25, 0.5, 0.75):
        y = dom.cell_at((0.5 + 0.47 * r, 0.5))
        k = qh.distance(c, y)
        assert k == pytest.approx(np.log(1 / (1 - r)), rel=0.03)


def test_half_plane_log_ratio():
    # wide box; near the bottom edge the domain is locally a half-plane and
    # vertically aligned points satisfy k = log(d(y)/d(x))
    dom = gallery.square(1 / 256, margin=0.0)
    qh = QhMetric(dom)
    x = dom.cell_at((0.5, 0.06))
    y = dom.cell_at((0.5, 0.06 * np.e))
    dx, dy = dom.boundary_distance(x), dom.boundary_distance(y)
    assert qh.distance(x, y) == pytest.approx(np.log(dy / dx), rel=0.02)


def test_identity_and_symmetry():
    dom = gallery.slit_disk(1 / 128)
    qh = QhMetric(dom)
    a, b = dom.cell_at((0.3, 0.35)), dom.cell_at((0.75, 0.6))
    assert qh.distance(a, a) == 0.0
    assert qh.distance(a, b) == pytest.approx(qh.distance(b, a), rel=1e-12)


def test_geodesic_realizes_value_and_subpath_optimality():
    dom = gallery.slit_disk(1 / 128)
    qh = QhMetric(dom)
    rng = np.random.default_rng(5)
    nodes = sample_nodes(dom, 40, seed=9)
    for t in range(10):
        a, b = int(nodes[2 * t]), int(nodes[2 * t + 1])
        ca, cb = cells_of(dom, [a, b])
        k, geo = qh.distance(ca, cb), qh.geodesic(ca, cb)
        assert geo.k_length == pytest.approx(k, rel=1e-9)
        if len(geo.nodes) > 2:
            cut = rng.integers(1, len(geo.nodes) - 1)
            k1 = qh.k_length_of(geo.nodes[: cut + 1])
            k2 = qh.k_length_of(geo.nodes[cut:])
            assert k1 + k2 == pytest.approx(k, rel=1e-9)


def test_lower_bounds_eq2_eq3():
    for name in ("disk", "slit_disk", "comb"):
        dom = gallery.make(name, 1 / 128)
        qh = QhMetric(dom)
        dv = dom.node_dist()
        nodes = sample_nodes(dom, 60, seed=17)
        for t in range(30):
            a, b = int(nodes[2 * t]), int(nodes[2 * t + 1])
            if a == b:
                continue
            ca, cb = cells_of(dom, [a, b])
            k = qh.distance(ca, cb)
            lam = intrinsic_distance(dom, ca, cb)
            dmin = min(dv[a], dv[b])
            assert k >= np.log1p(lam / dmin) - 0.02 * k - 1e-12
            assert k >= abs(np.log(dv[a] / dv[b])) - 0.02 * k - 1e-12


def _sample_nodes_reference(domain, n, seed):
    """sample_nodes with one argmin over the candidate table per point."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2)) * np.asarray(domain.shape) * domain.h
    ok = domain.node_dist() >= 1.5 * domain.h
    candidates = domain.node_cells[ok] if ok.any() else domain.node_cells
    nodes = domain.cell_node[tuple(candidates.T)]
    out = []
    for c in np.floor(pts / domain.h).astype(int):
        out.append(int(nodes[int(np.argmin(((candidates - c) ** 2).sum(1)))]))
    return np.asarray(out, dtype=int)


@pytest.mark.parametrize("name, h, n, seeds", [
    *((name, 1 / 128, 2000, (17,)) for name in sorted(gallery.GALLERY)),
    ("spiral", 1 / 512, 16, (1, 2, 3))])
def test_sample_nodes_equal_per_point_loop(name, h, n, seeds):
    dom = gallery.make(name, h)
    for seed in seeds:
        got, want = sample_nodes(dom, n, seed), _sample_nodes_reference(
            dom, n, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_radial_tree_is_the_engine_root_field():
    """The radial tree is a view of the k engine's root field: made on
    first use, outside the engine's LRU, and the same arrays each time."""
    dom = gallery.comb(1 / 128)
    qh = QhMetric(dom)
    assert qh.engine._root_field is None
    tree = qh.radial_tree()
    assert tree.root == dom.require_interior(dom.x0) == qh.engine.root
    assert tree.dist is qh.radial_tree().dist
    assert tree.dist is qh.engine.from_source(tree.root)[0]
    assert not qh.engine._cache


def test_radial_tree_matches_pairwise_distance():
    dom = gallery.comb(1 / 128)
    qh = QhMetric(dom)
    tree = qh.radial_tree()
    nodes = sample_nodes(dom, 50, seed=23)
    for v in nodes[:25]:
        cv = tuple(dom.node_cells[int(v)])
        assert tree.dist[int(v)] == pytest.approx(
            qh.distance(dom.x0, cv), rel=1e-9
        )
        path = tree.path_nodes(int(v))
        assert qh.k_length_of(path) == pytest.approx(tree.dist[int(v)], rel=1e-9)


def test_disk_tree_paths_nearly_radial():
    dom = gallery.disk(1 / 128, radius=0.47)
    qh = QhMetric(dom)
    tree = qh.radial_tree()
    center = dom.position(dom.x0)
    for v in sample_nodes(dom, 12, seed=31):
        pts = dom.polyline(tree.path_nodes(int(v))).points
        target = pts[-1] - center
        norm = np.linalg.norm(target)
        if norm < 0.1:
            continue
        u = target / norm
        rel = pts - center
        perp = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0])
        assert perp.max() < 0.035  # within a few cells of the true radius


def test_estimate_delta_disk_refinement_stable():
    vals = []
    for h in (1 / 128, 1 / 256):
        qh = QhMetric(gallery.disk(h))
        vals.append(estimate_delta(qh, 60, seed=2).value)
    assert vals[1] > 0
    assert abs(vals[0] - vals[1]) / vals[1] < 0.10


def test_estimate_delta_deterministic_and_fourpoint_below():
    qh = QhMetric(gallery.disk(1 / 64))
    e1 = estimate_delta(qh, 30, seed=4)
    e2 = estimate_delta(qh, 30, seed=4)
    assert e1.value == e2.value and e1.argmax == e2.argmax
    # four-point constant is a lower-bound-style cross-check: finite, modest
    fp = four_point_delta(qh, 60, seed=4)
    assert 0 <= fp < 10 * max(e1.value, 1.0)


def test_min_field_limit_keeps_exact_values_within_it():
    qh = QhMetric(gallery.spiral(1 / 128))
    sources = sample_nodes(qh.domain, 5, seed=3)
    full = qh.min_field(sources)
    limit = float(np.median(full))
    near = qh.min_field(sources, limit)
    inside = full <= limit
    assert inside.any() and not inside.all()
    assert np.array_equal(near[inside], full[inside])
    assert np.isinf(near[full > limit * (1 + 1e-12)]).all()


@pytest.mark.parametrize("name", ["spiral", "slit_disk"])
def test_estimate_delta_equals_unbounded_fields(name, monkeypatch):
    """The bounded thinness fields change no value, and a side that comes
    back unreached is recomputed without the bound."""
    qh = QhMetric(gallery.make(name, 1 / 128))
    got = estimate_delta(qh, 12, seed=5)
    unbounded = QhMetric.min_field
    for bounded in (lambda self, nodes, limit=np.inf: unbounded(self, nodes),
                    lambda self, nodes, limit=np.inf: (
                        unbounded(self, nodes) if limit == np.inf
                        else np.full(self.domain.n_nodes, np.inf))):
        monkeypatch.setattr(QhMetric, "min_field", bounded)
        want = estimate_delta(qh, 12, seed=5)
        assert (got.value, got.argmax) == (want.value, want.argmax)
        assert got.per_triangle == want.per_triangle


def _thinness_reference(qh, n_triangles, seed):
    """Per-triangle thinness from unbounded fields, written out."""
    nodes = sample_nodes(qh.domain, 3 * n_triangles, seed)
    out = []
    for t in range(n_triangles):
        a, b, c = (int(v) for v in nodes[3 * t : 3 * t + 3])
        if len({a, b, c}) < 3:
            out.append(0.0)
            continue
        full = {u: qh.engine.from_source(u)[1] for u in (a, b)}
        sides = [np.asarray(_walk(full[u], u, v))
                 for u, v in ((a, b), (a, c), (b, c))]
        thin = 0.0
        for i in range(3):
            others = np.concatenate([sides[(i + 1) % 3], sides[(i + 2) % 3]])
            thin = max(thin, float(qh.min_field(others)[sides[i]].max()))
        out.append(thin)
    return out


@pytest.mark.parametrize("name", ["disk", "dumbbell"])
def test_estimate_delta_per_triangle_equals_unbounded_reference(name):
    qh = QhMetric(gallery.make(name, 1 / 128))
    got = estimate_delta(qh, 16, seed=9)
    want = _thinness_reference(QhMetric(qh.domain), 16, 9)
    assert got.per_triangle == want
    assert got.value == max(want)


def test_punctured_lattice_delta_grows():
    vals = []
    for spacing in (0.25, 0.125, 0.0625):
        dom = gallery.punctured_square(1 / 128, spacing=spacing)
        qh = QhMetric(dom)
        vals.append(estimate_delta(qh, 40, seed=6).value)
    assert vals[0] < vals[1] < vals[2]


def test_geodesic_length_within_whitney_cubes():
    # l(geodesic ∩ Q) <= 5 l(Q) for every Whitney cube, conservative count
    for name in ("disk", "slit_disk"):
        dom = gallery.make(name, 1 / 128)
        dec = whitney_decompose(dom)
        l = dec.cubes.l
        qh = QhMetric(dom)
        nodes = sample_nodes(dom, 20, seed=41)
        for t in range(10):
            a, b = cells_of(dom, nodes[2 * t : 2 * t + 2])
            geo = qh.geodesic(a, b)
            cube_ids = dec.cell_cube[tuple(dom.node_cells[geo.nodes].T)]
            seg = np.sqrt((np.diff(geo.points, axis=0) ** 2).sum(1))
            for qid in np.unique(cube_ids):
                inside = (cube_ids[:-1] == qid) | (cube_ids[1:] == qid)
                assert seg[inside].sum() <= 5 * l[qid] + 4 * dom.h
