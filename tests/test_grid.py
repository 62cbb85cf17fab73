"""Tests for the occupancy-grid domain and the base metrics d, lambda, delta."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage, sparse
from scipy.sparse import csgraph

from qhlab import gallery, grid
from qhlab.grid import (
    DomainError,
    GridDomain,
    UnreachableError,
    _STRUCT8,
    _euclid_diameter,
    _masked_geodesic,
    _walk,
    components,
    intrinsic_diameter_distance,
    intrinsic_distance,
)
from qhlab.qh import QhMetric, sample_nodes
from qhlab.uniformize import build_deformation

RNG = np.random.default_rng(7)


def sample_cells(dom, n, seed=0):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, dom.n_nodes, size=n)
    return [tuple(dom.node_cells[p]) for p in picks]


RECTS = st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24),
                           st.integers(2, 14), st.integers(2, 14)),
                 min_size=1, max_size=5)


def _rect_bitmap(rects) -> np.ndarray:
    bitmap = np.zeros((32, 32), dtype=bool)
    for i0, j0, ni, nj in rects:
        bitmap[i0 : i0 + ni, j0 : j0 + nj] = True
    return bitmap


def _rect_union(rects, data) -> GridDomain:
    """The component of a drawn cell in a union of rectangles."""
    bitmap = _rect_bitmap(rects)
    cells = np.argwhere(bitmap)
    x0 = cells[data.draw(st.integers(0, len(cells) - 1))]
    return GridDomain(bitmap, 1 / 32, x0, trim=True)


# A U of three rectangles round a two-cell-wide pocket, which is cut out of
# whatever rectangles are drawn over it: a path between the tips of the U's
# arms bends round the pocket's end, far wider than their chord.
_POCKET_U = [(12, 4, 3, 28), (17, 4, 3, 28), (12, 4, 8, 3)]
_POCKET = (slice(15, 17), slice(7, 32))
_POCKET_TIPS = [(13, 31), (18, 31)]


def _pocket_union(rects, data):
    """The component of a drawn cell of the U in the union of the drawn
    rectangles and the U, the pocket cut out; and the U's tips as cells of
    that domain."""
    bitmap = _rect_bitmap(rects + _POCKET_U)
    bitmap[_POCKET] = False
    cells = np.argwhere(_rect_bitmap(_POCKET_U) & bitmap)
    x0 = cells[data.draw(st.integers(0, len(cells) - 1))]
    dom = GridDomain(bitmap, 1 / 32, x0, trim=True)
    shift = np.subtract(dom.x0, x0)  # a bitmap touching its edge is padded
    return dom, tuple(tuple(np.add(t, shift).tolist()) for t in _POCKET_TIPS)


def _diameter_table(pts):
    """Max over the full table of pairwise distances, row by row."""
    return max(float(np.sqrt(((p - pts) ** 2).sum(-1)).max()) for p in pts)


# -- construction and boundary distance -------------------------------------


def test_construction_rejects_exterior_base_point():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:6, 2:6] = True
    with pytest.raises(DomainError):
        GridDomain(mask, 0.1, (0, 0))


def test_construction_rejects_disconnected_interior():
    mask = np.zeros((10, 10), dtype=bool)
    mask[1:3, 1:3] = True
    mask[6:9, 6:9] = True
    with pytest.raises(DomainError):
        GridDomain(mask, 0.1, (1, 1))
    dom = GridDomain(mask, 0.1, (1, 1), trim=True)
    assert dom.n_nodes == 4


def test_construction_joins_cells_as_the_cell_graph_does():
    """Squares meeting only at a corner are two components: the graph has
    no step across the corner."""
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:3, 3:5] = True
    mask[3:5, 1:3] = True
    with pytest.raises(DomainError):
        GridDomain(mask, 0.1, (1, 3))
    dom = GridDomain(mask, 0.1, (1, 3), trim=True)
    assert dom.n_nodes == 4
    assert np.isfinite(dom.length_engine().from_source(0)[0]).all()


def test_boundary_distance_square_center():
    h = 1 / 256
    dom = gallery.square(h, margin=0.0)  # full unit square
    c = dom.cell_at((0.5, 0.5))
    assert dom.boundary_distance(c) == pytest.approx(0.5, abs=h)


def test_boundary_distance_adjacent_cell():
    h = 1 / 64
    dom = gallery.square(h)
    # cell just inside the left wall
    i = int(0.06 / h) + 1
    j = dom.shape[1] // 2
    assert dom.interior[i, j]
    d = dom.boundary_distance((i, j))
    assert 0.0 < d <= h + 1e-12


def test_boundary_distance_disk_analytic():
    h = 1 / 256
    dom = gallery.disk(h, radius=0.47)
    x = dom.cell_at((0.8, 0.5))  # offset 0.3 from center
    assert dom.boundary_distance(x) == pytest.approx(0.47 - 0.3, abs=2 * h)


def test_distance_field_analytic_agreement_on_fixtures():
    h = 1 / 128
    for dom, exact in [
        (gallery.disk(h, radius=0.47), lambda p: 0.47 - np.hypot(p[0] - 0.5, p[1] - 0.5)),
        (
            gallery.square(h, margin=0.06),
            lambda p: min(p[0] - 0.06, 0.94 - p[0], p[1] - 0.06, 0.94 - p[1]),
        ),
    ]:
        for cell in sample_cells(dom, 200, seed=3):
            p = dom.position(cell)
            assert dom.boundary_distance(cell) == pytest.approx(exact(p), abs=2 * h)


def test_distance_field_lipschitz_across_edges():
    dom = gallery.slit_disk(1 / 128)
    indptr, ib, w = dom.edges()
    ia = np.repeat(np.arange(dom.n_nodes), np.diff(indptr))
    dvals = dom.node_dist()
    assert np.all(np.abs(dvals[ia] - dvals[ib]) <= w + 1e-12)


def test_exterior_query_raises():
    dom = gallery.disk(1 / 64)
    with pytest.raises(DomainError):
        dom.boundary_distance((0, 0))


# -- intrinsic length metric -------------------------------------------------


def test_intrinsic_distance_identity_and_symmetry():
    dom = gallery.disk(1 / 64)
    a, b = dom.cell_at((0.3, 0.4)), dom.cell_at((0.7, 0.6))
    assert intrinsic_distance(dom, a, a) == 0.0
    assert intrinsic_distance(dom, a, b) == pytest.approx(
        intrinsic_distance(dom, b, a), rel=1e-12
    )


def test_intrinsic_distance_convex_near_euclidean():
    dom = gallery.square(1 / 128)
    for _ in range(20):
        a, b = sample_cells(dom, 2, seed=RNG.integers(1 << 30))
        lam = intrinsic_distance(dom, a, b)
        eu = float(np.hypot(*(dom.position(a) - dom.position(b))))
        assert lam >= eu - 1e-12
        assert lam <= 1.03 * eu + 2 * dom.h  # 16-neighbor metrication bound


def test_intrinsic_distance_triangle_inequality():
    dom = gallery.slit_disk(1 / 64)
    for seed in range(10):
        a, b, c = sample_cells(dom, 3, seed=seed)
        ab = intrinsic_distance(dom, a, b)
        bc = intrinsic_distance(dom, b, c)
        ac = intrinsic_distance(dom, a, c)
        assert ac <= ab + bc + 1e-9


def test_intrinsic_distance_slit_refinement_oracle():
    x_pt, y_pt = (0.8, 0.53), (0.8, 0.47)
    vals = []
    for h in (1 / 128, 1 / 256):
        dom = gallery.slit_disk(h)
        vals.append(intrinsic_distance(dom, dom.cell_at(x_pt), dom.cell_at(y_pt)))
    # forced around the slit tip at x=0.5: roughly 2*0.3; refinement agrees
    assert vals[1] > 0.55
    assert abs(vals[0] - vals[1]) / vals[1] < 0.05


def test_masked_geodesic_none_when_the_mask_separates():
    dom = gallery.disk(1 / 64)
    a, b = dom.cell_at((0.2, 0.5)), dom.cell_at((0.8, 0.5))
    wall = np.zeros(dom.shape, dtype=bool)
    i = dom.cell_at((0.5, 0.5))[0]
    wall[i : i + 2, :] = True  # two columns: a knight move jumps over one
    assert _masked_geodesic(dom, dom.interior & ~wall, a, b) is None
    assert _masked_geodesic(dom, dom.interior, a, b) is not None


def test_masked_geodesic_steps_over_a_one_cell_wall():
    """The mask restricts the path's cells, not a knight move's clearance
    cells: a one-column wall is stepped over, on cells of the mask only."""
    dom = gallery.disk(1 / 64)
    a, b = dom.cell_at((0.2, 0.5)), dom.cell_at((0.8, 0.5))
    i = dom.cell_at((0.5, 0.5))[0]
    mask = dom.interior.copy()
    mask[i, :] = False
    path = _masked_geodesic(dom, mask, a, b)
    assert path is not None
    cells = dom.node_cells[path.nodes]
    assert mask[tuple(cells.T)].all()
    cols = cells[:, 0]
    assert ((cols[:-1] < i) & (cols[1:] > i)).any()


def test_masked_geodesic_full_mask_is_the_length_geodesic():
    dom = gallery.slit_disk(1 / 64)
    for seed in range(6):
        a, b = sample_cells(dom, 2, seed=seed)
        path = _masked_geodesic(dom, dom.interior, a, b)
        want = dom.length_engine().path(*map(dom.require_interior, (a, b)))
        assert np.array_equal(path.nodes, want)


def _masked_reference(dom, mask, a, b) -> float:
    """Shortest length from a to b over the edge table's entries whose two
    ends are masked (inf when none joins them)."""
    indptr, indices, lengths = dom.edges()
    ok = mask[tuple(dom.node_cells.T)]
    rows = np.repeat(np.arange(dom.n_nodes), np.diff(indptr))
    keep = ok[rows] & ok[indices]
    table = sparse.csr_matrix((lengths[keep], (rows[keep], indices[keep])),
                              shape=(dom.n_nodes, dom.n_nodes))
    na, nb = dom.require_interior(a), dom.require_interior(b)
    return float(csgraph.dijkstra(table, indices=na)[nb])


def _lens(dom, x, y, radius) -> np.ndarray:
    """Interior cells within ``radius`` of both x and y, as
    intrinsic_diameter_distance builds its masks."""
    centers = (dom.node_cells + 0.5) * dom.h
    near = np.ones(dom.n_nodes, dtype=bool)
    for end in (x, y):
        near &= np.hypot(*(centers - dom.position(end)).T) <= radius
    mask = np.zeros(dom.shape, dtype=bool)
    mask[tuple(dom.node_cells[near].T)] = True
    return mask


@pytest.mark.parametrize("name", ["disk", "slit_disk", "comb"])
def test_masked_geodesic_on_lens_masks(name, monkeypatch):
    """On lens masks -- those intrinsic_diameter_distance searches, lenses
    of radius a little above the chord, and each with one endpoint
    unmasked -- the path lies in the mask, walks edges of the length
    engine and matches a reference Dijkstra over the edge table's entries
    whose two ends are masked; None comes back exactly when an endpoint
    is unmasked or the reference finds no path."""
    dom = gallery.make(name, 1 / 64)
    searched = []
    original = grid._masked_geodesic

    def recorded(domain, mask, x, y):
        searched.append((mask, x, y))
        return original(domain, mask, x, y)

    monkeypatch.setattr(grid, "_masked_geodesic", recorded)
    masks = []
    for seed in range(8):
        x, y = sample_cells(dom, 2, seed=seed)
        intrinsic_diameter_distance(dom, x, y)
        chord = float(np.hypot(*(dom.position(x) - dom.position(y))))
        for scale in (1.0, 1.02, 1.1, 1.5):
            masks.append((_lens(dom, x, y, scale * chord), x, y))
        unmasked = masks[-1][0].copy()
        unmasked[y] = False
        masks.append((unmasked, x, y))
    masks += searched
    found = 0
    for mask, x, y in masks:
        path = original(dom, mask, x, y)
        want = _masked_reference(dom, mask, x, y)
        assert (path is None) == (not (mask[x] and mask[y])
                                  or not np.isfinite(want))
        if path is None:
            continue
        found += 1
        assert mask[tuple(dom.node_cells[path.nodes].T)].all()
        dom.length_engine().steps(path.nodes)
        assert path.length == pytest.approx(want, rel=1e-12)
    assert found >= 8 and found < len(masks)


# -- intrinsic diameter metric ----------------------------------------------


def test_diameter_distance_identity_and_bounds():
    dom = gallery.slit_disk(1 / 64)
    a, b = dom.cell_at((0.3, 0.3)), dom.cell_at((0.6, 0.7))
    assert intrinsic_diameter_distance(dom, a, a) == 0.0
    delta = intrinsic_diameter_distance(dom, a, b)
    lam = intrinsic_distance(dom, a, b)
    eu = float(np.hypot(*(dom.position(a) - dom.position(b))))
    assert eu - 1e-9 <= delta <= lam + 1e-9


def _diameter_reference(domain, x, y):
    """intrinsic_diameter_distance(detail=True) bisecting on lens masks
    over the whole bitmap."""
    nx, ny = domain.require_interior(x), domain.require_interior(y)
    best_path = domain.polyline(domain.length_engine().path(nx, ny))
    best = best_path.diameter
    px, py = domain.position(x), domain.position(y)
    centers = (domain.node_cells + 0.5) * domain.h
    dxf = np.full(domain.shape, np.inf)
    dyf = np.full(domain.shape, np.inf)
    dxf[tuple(domain.node_cells.T)] = np.sqrt(((centers - px) ** 2).sum(1))
    dyf[tuple(domain.node_cells.T)] = np.sqrt(((centers - py) ** 2).sum(1))
    lo, hi, feasible = float(np.hypot(*(px - py))), best, None
    for _ in range(24):
        if hi - lo <= max(domain.h / 4.0, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        mask = domain.interior & (dxf <= mid) & (dyf <= mid)
        labels, _ = ndimage.label(mask, structure=_STRUCT8)
        if labels[tuple(x)] and labels[tuple(x)] == labels[tuple(y)]:
            hi, feasible = mid, mask
        else:
            lo = mid
    if feasible is not None:
        path = _masked_geodesic(domain, feasible, x, y)
        if path is not None and path.diameter < best:
            best, best_path = path.diameter, path
    return float(best), float(lo), best_path


def _assert_diameter_equals_reference(dom, x, y):
    value, lo, path = intrinsic_diameter_distance(dom, x, y, detail=True)
    want = _diameter_reference(dom, x, y)
    assert (value, lo) == want[:2]
    assert np.array_equal(path.nodes, want[2].nodes)


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_diameter_window_equals_whole_bitmap(name):
    """Bisecting on the window of cells near both ends gives the value,
    the certified lower bound and the path of the whole-bitmap bisection."""
    dom = gallery.make(name, 1 / 128)
    for seed in range(4):
        _assert_diameter_equals_reference(dom, *sample_cells(dom, 2, seed))


@settings(max_examples=30, deadline=None)
@given(rects=RECTS, data=st.data())
def test_diameter_window_clipped_at_the_bitmap_edge(rects, data):
    """Pairs with an end in a cell next to the bitmap's exterior ring,
    whose window reaches past the bitmap and is clipped to it.  The drawn
    rectangles join a U along the bitmap's edge, whose pocket, where they
    leave it, makes paths that bend back and so a bisection to run."""
    dom = _rect_union(rects + [(0, 0, 3, 32), (0, 0, 32, 3), (29, 0, 3, 32)],
                      data)
    i, j = dom.node_cells.T
    edge = dom.node_cells[(i == i.min()) | (i == i.max())
                          | (j == j.min()) | (j == j.max())]
    x = tuple(edge[data.draw(st.integers(0, len(edge) - 1))])
    # the end whose path from x is longest against the chord
    lam = dom.length_engine().from_source(dom.cell_node[x])[0]
    far = np.argmax(lam - np.hypot(*(dom.node_cells - x).T) * dom.h)
    for y in (tuple(edge[data.draw(st.integers(0, len(edge) - 1))]),
              tuple(dom.node_cells[far])):
        _assert_diameter_equals_reference(dom, x, y)


def test_capital_lambda_and_delta_from_lambda_and_delta():
    """Lambda = log(1 + lambda/(d^d)) and Delta likewise from delta."""
    dom = gallery.slit_disk(1 / 128)
    x = dom.cell_at((0.3, 0.3))
    assert intrinsic_distance(dom, x, x) == 0.0
    assert intrinsic_diameter_distance(dom, x, x) == 0.0

    sq = gallery.square(1 / 128)
    a, b = sq.cell_at((0.3, 0.4)), sq.cell_at((0.6, 0.62))
    dmin = min(sq.boundary_distance(a), sq.boundary_distance(b))
    lam = np.log1p(intrinsic_distance(sq, a, b) / dmin)
    dia = np.log1p(intrinsic_diameter_distance(sq, a, b) / dmin)
    eu = float(np.hypot(*(sq.position(a) - sq.position(b))))
    expect = np.log1p(eu / dmin)
    assert lam == pytest.approx(expect, rel=0.05)
    assert dia == pytest.approx(expect, rel=0.05)
    assert dia <= lam + 1e-12

    x, y = dom.cell_at((0.8, 0.53)), dom.cell_at((0.8, 0.47))
    # strict: going around the slit is long but not wide
    assert intrinsic_diameter_distance(dom, x, y) < intrinsic_distance(dom, x, y)


@settings(max_examples=30, deadline=None)
@given(rects=RECTS, pocket=st.booleans(), data=st.data())
def test_generated_domains_order_euclid_delta_lambda_and_bound_k(rects, pocket,
                                                                 data):
    """On a connected union of random rectangles: |x-y| <= delta <= lambda,
    and criterion 2's bounds k >= log(1 + lambda/(d^d)) and
    k >= |log(d(x)/d(y))|, each with 2% slack.  With a pocket cut in, the
    pair across its mouth also makes the delta search bisect its lenses."""
    if pocket:
        dom, tips = _pocket_union(rects, data)
        pairs = [tips]
    else:
        dom, pairs = _rect_union(rects, data), []
    qh = QhMetric(dom)
    nodes = data.draw(st.lists(st.integers(0, dom.n_nodes - 1),
                               min_size=2, max_size=8))
    pairs += [(tuple(dom.node_cells[a]), tuple(dom.node_cells[b]))
              for a, b in zip(nodes[::2], nodes[1::2])]
    with mock.patch.object(grid, "_component_at",
                           wraps=grid._component_at) as lens:
        for x, y in pairs:
            eu = float(np.hypot(*(dom.position(x) - dom.position(y))))
            lam = intrinsic_distance(dom, x, y)
            delta = intrinsic_diameter_distance(dom, x, y)
            assert eu - 1e-9 <= delta <= lam + 1e-9
            k = qh.distance(x, y)
            dmin = min(dom.boundary_distance(x), dom.boundary_distance(y))
            assert k >= np.log1p(lam / dmin) - 0.02 * k - 1e-12
            ratio = dom.boundary_distance(x) / dom.boundary_distance(y)
            assert k >= abs(np.log(ratio)) - 0.02 * k - 1e-12
    if pocket:
        assert lens.call_count > 0


@settings(max_examples=40, deadline=None)
@given(rects=RECTS, data=st.data())
def test_bounded_queries_equal_unbounded_on_generated_domains(rects, data):
    """On the lambda and k graphs of a union of rectangles, a bound that is
    tight, loose or too small to reach the target changes no distance, path
    or reached value, and a later from_source returns the full field."""
    dom = _rect_union(rects, data)
    src, dst = (data.draw(st.integers(0, dom.n_nodes - 1)) for _ in range(2))
    for weights in (dom.edges()[2], QhMetric(dom).edge_weights):
        full_dist, full_pred = dom.graph(weights).from_source(src)
        want = full_dist[dst]
        for scale in (1.0, 3.0, 0.5):
            eng = dom.graph(weights)
            bound = scale * want
            assert eng.distance(src, dst, bound) == want
            assert eng.path(src, dst, bound) == _walk(full_pred, src, dst)
            dist, pred = eng.field(src, dst, bound)
            reached = np.isfinite(dist)
            assert np.array_equal(dist[reached], full_dist[reached])
            assert np.array_equal(pred[reached], full_pred[reached])
            assert (full_dist[~reached] > bound).all()
            if scale < 1 and want > 0:  # searched again without the bound
                assert reached.all()
            dist, pred = eng.from_source(src)
            assert np.array_equal(dist, full_dist)
            assert np.array_equal(pred, full_pred)


@settings(max_examples=30, deadline=None)
@given(rects=RECTS, data=st.data())
def test_tree_bounded_queries_equal_unbounded_search(rects, data):
    """Without a caller's bound, each engine bounds a query by its root
    tree's path, yet distance and path equal those of a search with no
    limit (dist bitwise, the same nodes): for a drawn pair, x == y, an end
    at the root, and both ends on one branch of the tree.  The tree path
    is never shorter than the distance, beyond the margin the engine adds
    for a sum taken in another order."""
    dom = _rect_union(rects, data)
    a, b = (data.draw(st.integers(0, dom.n_nodes - 1)) for _ in range(2))
    deformed = build_deformation(QhMetric(dom), 0.2)
    for eng in (dom.length_engine(), deformed.qh.engine, deformed.engine,
                deformed.k_rho_engine()):
        root = eng.root
        assert root == dom.cell_node[dom.x0]
        tree = csgraph.dijkstra(eng.matrix, indices=root,
                                return_predecessors=True)[1]
        branch = _walk(tree, root, a)
        mid = branch[len(branch) // 2]
        for u, v in ((a, b), (a, a), (root, a), (a, root), (a, mid),
                     (mid, a)):
            dist, pred = csgraph.dijkstra(eng.matrix, indices=u,
                                          return_predecessors=True)
            fresh = dom.graph(eng.matrix.data)
            assert fresh.distance(u, v) == dist[v]
            assert fresh.path(u, v) == _walk(pred, u, v)
            assert dist[v] <= fresh.tree_length(u, v) * (1 + 1e-9)
        assert fresh.root_field()[1].tolist() == tree.tolist()


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_tree_bound_never_reruns_unbounded(name, monkeypatch):
    """200 unbounded k and lambda queries per fixture: each search stops at
    its root tree path's length, and none falls short and searches again
    without a limit."""
    dom = gallery.make(name, 1 / 128)
    limits, real = [], grid._DijkstraCache._search

    def search(self, node, limit):
        limits.append(limit)
        return real(self, node, limit)

    monkeypatch.setattr(grid._DijkstraCache, "_search", search)
    qh = QhMetric(dom)
    nodes = sample_nodes(dom, 400, seed=17)
    for a, b in zip(nodes[::2].tolist(), nodes[1::2].tolist()):
        x, y = tuple(dom.node_cells[a]), tuple(dom.node_cells[b])
        qh.distance(x, y)
        intrinsic_distance(dom, x, y)
    assert limits and np.isfinite(limits).all()


_HALF_NEIGHBORS = [  # offset, clearance cells (the cell graph's definition)
    ((1, 0), []), ((0, 1), []),
    ((1, 1), [(1, 0), (0, 1)]), ((1, -1), [(1, 0), (0, -1)]),
    ((2, 1), [(1, 0), (1, 1)]), ((2, -1), [(1, 0), (1, -1)]),
    ((1, 2), [(0, 1), (1, 1)]), ((1, -2), [(0, -1), (1, -1)]),
]


def _one_orientation_edges(dom):
    """(ia, ib, length) of each cell-graph edge once, found cell by cell."""
    ia, ib, w = [], [], []
    for i, j in dom.node_cells:
        for (di, dj), clearance in _HALF_NEIGHBORS:
            cells = [(i + di, j + dj)] + [(i + a, j + b) for a, b in clearance]
            if all(0 <= a < dom.shape[0] and 0 <= b < dom.shape[1]
                   and dom.interior[a, b] for a, b in cells):
                ia.append(dom.cell_node[i, j])
                ib.append(dom.cell_node[i + di, j + dj])
                w.append(dom.h * float(np.hypot(di, dj)))
    return np.array(ia), np.array(ib), np.array(w)


@settings(max_examples=30, deadline=None)
@given(rects=RECTS, data=st.data())
def test_engines_equal_undirected_search_of_one_orientation(rects, data):
    """The lambda and k engines' weights, from_source, bounded field and
    min_from_set are bitwise those of scipy's undirected search of a
    one-orientation matrix of the same edges (dist and pred); so are those
    of unit weights, whose exact ties give most nodes several
    shortest-path predecessors."""
    dom = _rect_union(rects, data)
    qh = QhMetric(dom)
    n = dom.n_nodes
    ia, ib, lengths = _one_orientation_edges(dom)
    src = data.draw(st.integers(0, n - 1))
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=4))
    # the trapezoidal quadrature of 1/d, written out per edge
    inv_d = 1.0 / dom.node_dist()
    k_weights = lengths * 0.5 * (inv_d[ia] + inv_d[ib])
    unit = dom.graph(np.ones(2 * len(lengths)))
    for eng, w in ((dom.length_engine(), lengths), (qh.engine, k_weights),
                   (unit, np.ones(len(lengths)))):
        assert eng.matrix.nnz == 2 * len(w)
        for a, b in ((ia, ib), (ib, ia)):
            assert np.array_equal(np.asarray(eng.matrix[a, b]).ravel(), w)
        ref = sparse.csr_matrix((w, (ia, ib)), shape=(n, n))

        def reference(**kw):
            return csgraph.dijkstra(ref, directed=False, **kw)

        dist, pred = reference(indices=src, return_predecessors=True)
        got = eng.from_source(src)
        assert np.array_equal(got[0], dist) and np.array_equal(got[1], pred)
        dst = data.draw(st.integers(0, n - 1))
        got = dom.graph(eng.matrix.data).field(src, dst, dist[dst])
        want = reference(indices=src, return_predecessors=True,
                         limit=dist[dst] * (1 + 1e-9))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        for limit in (np.inf, np.median(dist)):
            assert np.array_equal(
                eng.min_from_set(sources, limit),
                reference(indices=sources, min_only=True, limit=limit))


def test_engine_serves_a_bounded_field_where_it_reached():
    dom = gallery.disk(1 / 64)
    eng = dom.graph(dom.edges()[2])
    full = dom.graph(dom.edges()[2]).from_source(0)[0]
    order = np.argsort(full)
    near, mid, far = (int(order[int(q * (dom.n_nodes - 1))])
                      for q in (0.1, 0.3, 0.9))
    dist = eng.field(0, mid, full[mid])[0]
    assert np.isinf(dist[far])
    # a query the cached field reached is served from it
    assert eng.field(0, near, full[far])[0] is dist
    assert eng.distance(0, near) == full[near]
    # one it did not reach, and from_source, search again
    assert eng.field(0, far, full[far])[0] is not dist
    assert np.isinf(eng.field(0, far, full[far])[0]).any()
    assert np.isfinite(eng.from_source(0)[0]).all()
    assert eng._limits == {0: np.inf} and len(eng._cache) == 1


def test_steps_are_the_engine_weights_of_a_path():
    """steps() reads each step's entry of the engine's matrix, in either
    direction; a one-node path has none and a non-edge step raises."""
    dom = gallery.slit_disk(1 / 32)
    eng = QhMetric(dom).engine
    nodes = eng.path(0, dom.n_nodes - 1)
    a, b = np.asarray(nodes[:-1]), np.asarray(nodes[1:])
    want = np.asarray(eng.matrix[a, b]).ravel()
    assert np.array_equal(eng.steps(nodes), want)
    assert np.array_equal(eng.steps(nodes[::-1]), want[::-1])
    assert eng.steps(nodes[:1]).shape == (0,)
    with pytest.raises(DomainError, match="not joined by an edge"):
        eng.steps([nodes[0], nodes[3]])
    with pytest.raises(DomainError):
        eng.steps([nodes[0], nodes[0]])


def test_one_node_paths_have_length_zero():
    dom = gallery.disk(1 / 32)
    x = dom.cell_at((0.3, 0.6))
    geo = QhMetric(dom).geodesic(x, x)
    assert len(geo.nodes) == 1 and geo.length == 0.0 and geo.k_length == 0.0
    value, lower, path = intrinsic_diameter_distance(dom, x, x, detail=True)
    assert value == lower == path.length == path.diameter == 0.0
    assert len(path.nodes) == 1 and intrinsic_distance(dom, x, x) == 0.0


def test_diameter_distance_convex_is_euclidean():
    dom = gallery.square(1 / 128)
    for seed in range(8):
        a, b = sample_cells(dom, 2, seed=seed)
        eu = float(np.hypot(*(dom.position(a) - dom.position(b))))
        delta = intrinsic_diameter_distance(dom, a, b)
        assert delta <= 1.03 * eu + 3 * dom.h


def test_diameter_distance_slit_bracketed_by_ball_search_oracle():
    """Exhaustive ball-center feasibility search on a coarse slit disk.

    A path inside a ball of diameter D has diameter <= D, and by Jung's
    theorem any path of diameter D fits in a ball of diameter 2D/sqrt(3),
    so the oracle brackets the true value within that factor.
    """
    from scipy import ndimage

    h = 1 / 32
    dom = gallery.slit_disk(h, slit_width=0.04)
    x, y = dom.cell_at((0.8, 0.55)), dom.cell_at((0.8, 0.45))
    val, lower, path = intrinsic_diameter_distance(dom, x, y, detail=True)
    centers = (dom.node_cells + 0.5) * h
    best_up = np.inf
    for D in np.linspace(0.2, 1.0, 81):
        ok = False
        for c in centers[::2]:
            ball = np.zeros(dom.shape, dtype=bool)
            ball[tuple(dom.node_cells.T)] = ((centers - c) ** 2).sum(1) <= (D / 2) ** 2
            ball &= dom.interior
            labels, _ = ndimage.label(ball, structure=np.ones((3, 3), bool))
            if labels[tuple(x)] and labels[tuple(x)] == labels[tuple(y)]:
                ok = True
                break
        if ok:
            best_up = D
            break
    assert val >= lower - 1e-9
    assert lower <= best_up  # oracle upper bound respects our certified lower
    assert val <= best_up * 2 / np.sqrt(3) + 2 * h
    # value is genuinely forced around the slit
    assert val > 0.28


def test_diameter_triangle_concatenation_bound():
    dom = gallery.disk(1 / 64)
    for seed in range(6):
        a, b, c = sample_cells(dom, 3, seed=seed + 50)
        dab = intrinsic_diameter_distance(dom, a, b)
        dbc = intrinsic_diameter_distance(dom, b, c)
        dac = intrinsic_diameter_distance(dom, a, c)
        assert dac <= dab + dbc + dom.h


def test_unreachable_raises():
    mask = np.zeros((12, 12), dtype=bool)
    mask[1:5, 1:5] = True
    dom = GridDomain(mask, 0.1, (2, 2))
    with pytest.raises(DomainError):
        intrinsic_distance(dom, (2, 2), (9, 9))


# -- components --------------------------------------------------------------


def test_components_no_forbidden_single_label():
    dom = gallery.disk(1 / 64)
    labels = components(dom)
    assert set(np.unique(labels)) == {-1, 0}


def test_components_dumbbell_corridor_cut():
    dom = gallery.dumbbell(1 / 64)
    px = (np.arange(dom.shape[0])[:, None] + 0.5) * dom.h
    forbidden = dom.interior & (np.abs(px - 0.5) < 0.02)
    labels = components(dom, forbidden)
    labs = set(np.unique(labels)) - {-1}
    assert len(labs) == 2
    assert labels[dom.x0] == 0  # x0 component labeled 0


def test_components_all_forbidden_empty():
    dom = gallery.disk(1 / 64)
    labels = components(dom, dom.interior.copy())
    assert set(np.unique(labels)) == {-1}


def _components_per_label(domain, forbidden):
    """Reference relabelling: one full-array pass per label."""
    mask = domain.interior & ~forbidden
    raw, n = ndimage.label(mask, structure=_STRUCT8)
    out = np.full(domain.shape, -1, dtype=np.int64)
    if n == 0:
        return out
    order: list[int] = []
    if mask[domain.x0]:
        order.append(int(raw[domain.x0]))
    first = ndimage.minimum(
        np.arange(mask.size).reshape(domain.shape), raw, index=range(1, n + 1)
    )
    for lab in np.argsort(first) + 1:
        if lab not in order:
            order.append(int(lab))
    for new, lab in enumerate(order):
        out[raw == lab] = new
    return out


@settings(max_examples=200, deadline=None)
@given(forbidden=arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))),
       data=st.data())
def test_components_lookup_equals_per_label_loop(forbidden, data):
    ni, nj = forbidden.shape
    x0 = (data.draw(st.integers(0, ni - 1)), data.draw(st.integers(0, nj - 1)))
    dom = GridDomain(np.ones((ni, nj), dtype=bool), 0.1, x0)  # padded
    forbidden = np.pad(forbidden, 1)
    labels = components(dom, forbidden)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, _components_per_label(dom, forbidden))


# -- path reconstruction -----------------------------------------------------


def test_walk_equals_engine_path_and_realizes_distance():
    dom = gallery.slit_disk(1 / 64)
    eng = dom.length_engine()
    weights = eng.matrix
    rng = np.random.default_rng(11)
    for src, dst in rng.integers(0, dom.n_nodes, size=(12, 2)):
        dist, pred = eng.from_source(src)
        nodes = _walk(pred, src, dst)
        ref = [int(dst)]  # predecessor loop, written out
        while ref[-1] != src:
            ref.append(int(pred[ref[-1]]))
        assert nodes == ref[::-1] == eng.path(src, dst)
        assert nodes[0] == src and nodes[-1] == dst
        steps = np.asarray(weights[nodes[:-1], nodes[1:]]).ravel()
        assert (steps > 0).all()  # consecutive nodes are graph edges
        assert np.isclose(steps.sum(), dist[dst], rtol=1e-12)
    # a dict of predecessors (breadth-first search) walks the same way
    assert _walk({4: -1, 7: 4, 9: 7}, 4, 9) == [4, 7, 9]
    assert _walk({4: -1}, 4, 4) == [4]


def test_engine_keeps_the_newest_fields_within_its_byte_budget(monkeypatch):
    dom = gallery.disk(1 / 64)
    eng = dom.graph(dom.edges()[2])
    first = eng.from_source(0)
    field_bytes = sum(a.nbytes for a in first)
    monkeypatch.setattr(grid, "_CACHE_BYTES", 2 * field_bytes)
    kept = eng.from_source(1)
    eng.from_source(2)
    assert list(eng._cache) == [1, 2]
    again = eng.from_source(1)
    assert again[0] is kept[0] and again[1] is kept[1]
    # a field larger than the whole budget is still kept, alone
    monkeypatch.setattr(grid, "_CACHE_BYTES", field_bytes - 1)
    eng.from_source(3)
    assert list(eng._cache) == [3]


def test_refinement_lambda_drift_small():
    pair = ((0.35, 0.35), (0.62, 0.58))
    vals = []
    for h in (1 / 64, 1 / 128):
        dom = gallery.disk(h)
        vals.append(intrinsic_distance(dom, dom.cell_at(pair[0]), dom.cell_at(pair[1])))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.03


@pytest.mark.parametrize("step", [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1),
                                  (-1, 2)])
@pytest.mark.parametrize("n", [2, 400, 401, 2000])
def test_euclid_diameter_of_straight_lattice_paths(step, n):
    start = np.array([3000, 3000])
    cells = start + np.arange(n)[:, None] * np.array(step)
    for h in (1 / 128, 1 / 1024):
        pts = (cells + 0.5) * h
        want = _diameter_table(pts)
        assert _euclid_diameter(pts) == want
        shuffled = pts[np.random.default_rng(n).permutation(n)]
        assert _euclid_diameter(shuffled) == want


def test_euclid_diameter_of_bent_path_uses_hull():
    t = np.arange(1000)
    pts = np.column_stack([t, np.where(t < 700, 0, t - 700)]) / 256.0
    assert _euclid_diameter(pts) == _diameter_table(pts)
