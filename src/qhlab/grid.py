"""Occupancy-grid domains and the three base metrics d, lambda, delta.

A domain is a boolean occupancy bitmap over an axis-aligned bounding box with
square cells of side ``h``.  Cell ``(i, j)`` has center ``((i+0.5)h, (j+0.5)h)``;
the first index runs along the x-axis.  Interior cells carry a positive
boundary-distance value, paths live on a 16-neighbor cell graph (8 neighbors
plus knight moves) whose metrication error for euclidean length is below 2.8%.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import csgraph

Cell = tuple[int, int]


class DomainError(ValueError):
    """Invalid domain construction or query (exterior point, bad bitmap...)."""


class UnreachableError(DomainError):
    """Two query points lie in different connected components."""


# The 16-neighborhood in the order a row of the edge table lists it: the
# offsets to larger-numbered cells ascending (nodes are numbered in raster
# order), then their negations ascending, as scipy's undirected Dijkstra
# scans a one-orientation matrix and its transpose.  The order decides no
# result: scipy 1.17 keeps the same one of tied predecessors whatever order
# a row lists them in.  Each offset carries the cells, relative to the
# row's cell, that a segment to the neighbor passes next to: requiring
# those clearance cells to be interior prevents paths from cutting
# exterior corners.
_HALF_OFFSETS: list[tuple[Cell, list[Cell]]] = [
    ((0, 1), []),
    ((1, -2), [(0, -1), (1, -1)]),
    ((1, -1), [(1, 0), (0, -1)]),
    ((1, 0), []),
    ((1, 1), [(1, 0), (0, 1)]),
    ((1, 2), [(0, 1), (1, 1)]),
    ((2, -1), [(1, 0), (1, -1)]),
    ((2, 1), [(1, 0), (1, 1)]),
]
_OFFSETS = _HALF_OFFSETS + sorted(
    ((-di, -dj), [(ci - di, cj - dj) for ci, cj in clearance])
    for (di, dj), clearance in _HALF_OFFSETS)

# Entries per block where per-entry weights are computed in place.
_BLOCK = 1 << 16

_STRUCT8 = np.ones((3, 3), dtype=bool)


def _component_at(mask: np.ndarray, cell) -> np.ndarray:
    """The 8-connected component of ``mask`` holding ``cell`` (empty when
    the cell is not in the mask)."""
    labels, _ = ndimage.label(mask, structure=_STRUCT8)
    lab = labels[tuple(cell)]
    return labels == lab if lab else np.zeros(mask.shape, dtype=bool)


def _euclid_diameter(points: np.ndarray) -> float:
    """Max pairwise distance of an (n, 2) float array."""
    if len(points) <= 1:
        return 0.0
    pts = points
    if len(pts) > 400:
        from scipy.spatial import ConvexHull, QhullError

        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            # all points on one line (a straight lattice path): the two
            # lexicographic extremes are the ends, and each of their
            # coordinate differences is the largest of any pair
            order = np.lexsort((pts[:, 1], pts[:, 0]))
            pts = pts[order[[0, -1]]]
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


@dataclass
class Polyline:
    """A path through interior cell centers: its graph nodes, their centers
    and each step's lambda length, read from the length engine."""

    nodes: np.ndarray  # graph node ids along the path
    points: np.ndarray  # (n, 2) cell centers
    steps: np.ndarray  # lambda length of each of the n - 1 steps

    @property
    def length(self) -> float:
        return float(self.steps.sum())

    @property
    def diameter(self) -> float:
        return _euclid_diameter(self.points)


# Bytes of (dist, pred) fields one shortest-path engine keeps: 29 fields of
# the 187,563-node spiral at h=1/512, 7 of the disk at h=1/1024.
_CACHE_BYTES = 64 * 2**20


class _DijkstraCache:
    """Single-source shortest paths on a weighted graph whose CSR
    ``matrix`` holds every edge in both orientations, searched directed.
    Fields are kept least-recently-used first and evicted while they exceed
    _CACHE_BYTES; the newest field is always kept.

    A query given a ``bound`` on its distance grows the field only to that
    distance.  Every finite value of a search with a limit, and every
    predecessor of a reached node, is bitwise that of the unbounded search,
    so a bound changes no result; a bound too small to reach the target
    costs a second, unbounded search.  Each field is stored with its limit:
    it serves any query whose target it reached, and ``from_source`` only
    when unbounded.

    An engine that ``GridDomain.graph`` builds has a ``root``, the base
    point's node, and a root tree: its own unbounded search from the root
    (``root_field``), made on the first query that needs it, never in
    ``__init__``, and kept outside the LRU.  It answers every unbounded
    query from the root, and every query from the root once made.  A query
    from elsewhere with no bound of its caller's that misses the cache is
    bounded by ``tree_length``: the ``steps()`` length of the tree's path
    from ``src`` up to the ends' lowest common ancestor and down to
    ``dst``.  Any path's length bounds the distance, so this bound too
    changes no result, and the unbounded rerun catches one that falls
    short by rounding.  On the spiral at h=1/512 (36 sampled k queries)
    the tree path costs 0.7 ms in the median and lies within 1.0001-1.72
    times k (median 1.08).  The bound is computed on a miss only: a hit
    needs no search to bound.

    The engines of one domain share the index arrays of its edge table
    (``GridDomain.edges``) and differ in their weights only.  Searching a
    two-way table directed spares the transpose scipy builds on every
    undirected search: on the spiral at h=1/512 a search limited to 1e-9
    took 1.7 ms, against 6.5 ms undirected on a one-orientation matrix.
    Threads do not help: scipy's Dijkstra holds the GIL (8 spiral fields
    took 0.71 s on 2 threads, 0.66 s in sequence).

    A path's length in the engine's metric is read from the engine's own
    weights (``steps``), so each metric's step rule is written once, in
    the weights its engine is built from."""

    def __init__(self, matrix: sparse.csr_matrix, root: int | None = None):
        self.matrix = matrix
        self.root = root
        self._root_field: tuple[np.ndarray, np.ndarray] | None = None
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._limits: dict[int, float] = {}
        self._bytes = 0

    def _search(self, node: int, limit: float) -> tuple[np.ndarray, np.ndarray]:
        dist, pred = csgraph.dijkstra(
            self.matrix, indices=node, return_predecessors=True,
            limit=limit,
        )
        old = self._cache.pop(node, None)
        if old is not None:
            self._bytes -= old[0].nbytes + old[1].nbytes
        self._cache[node] = (dist, pred)
        self._limits[node] = limit
        self._bytes += dist.nbytes + pred.nbytes
        while self._bytes > _CACHE_BYTES and len(self._cache) > 1:
            key, old = self._cache.popitem(last=False)
            del self._limits[key]
            self._bytes -= old[0].nbytes + old[1].nbytes
        return dist, pred

    def root_field(self) -> tuple[np.ndarray, np.ndarray]:
        """(dist, pred) of the unbounded search from the root."""
        if self._root_field is None:
            self._root_field = csgraph.dijkstra(
                self.matrix, indices=self.root, return_predecessors=True)
        return self._root_field

    def tree_length(self, src: int, dst: int) -> float:
        """Length of the root tree's path src -> lca -> dst, which bounds
        their distance; inf without a root or when the tree misses an
        end."""
        if self.root is None:
            return np.inf
        dist, pred = self.root_field()
        if not (np.isfinite(dist[src]) and np.isfinite(dist[dst])):
            return np.inf
        up, down = (np.asarray(_walk(pred, self.root, v)) for v in (src, dst))
        n = min(len(up), len(down))
        # both start at the root; the last node they share is the lca
        lca = int(np.argmin(np.append(up[:n] == down[:n], False))) - 1
        return float(self.steps(np.concatenate([up[lca:][::-1],
                                                down[lca + 1:]])).sum())

    def from_source(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        node = int(node)
        if node == self.root:
            return self.root_field()
        if self._limits.get(node) == np.inf:
            self._cache.move_to_end(node)
            return self._cache[node]
        return self._search(node, np.inf)

    def field(self, src: int, dst: int, bound: float = np.inf
              ) -> tuple[np.ndarray, np.ndarray]:
        """(dist, pred) of a search from ``src`` that reached ``dst`` (or
        an unbounded one), grown to ``bound``, or without one to
        ``tree_length``, when not already kept."""
        src, dst = int(src), int(dst)
        if src == self.root and (bound == np.inf
                                 or self._root_field is not None):
            return self.root_field()
        if src in self._cache:
            self._cache.move_to_end(src)
            cached = self._cache[src]
            if np.isfinite(cached[0][dst]) or self._limits[src] == np.inf:
                return cached
        if bound == np.inf:
            bound = self.tree_length(src, dst)
        for limit in (bound * (1 + 1e-9), np.inf):
            dist, pred = self._search(src, limit)
            if np.isfinite(dist[dst]) or limit == np.inf:
                return dist, pred

    def min_from_set(self, nodes, limit: float = np.inf) -> np.ndarray:
        """Distance to the nearest of ``nodes``; inf beyond ``limit``."""
        return csgraph.dijkstra(
            self.matrix, indices=list(nodes), min_only=True,
            limit=limit,
        )

    def distance(self, src: int, dst: int, bound: float = np.inf) -> float:
        value = float(self.field(src, dst, bound)[0][dst])
        if not np.isfinite(value):
            raise UnreachableError(f"nodes {src} and {dst} are not connected")
        return value

    def path(self, src: int, dst: int, bound: float = np.inf) -> list[int]:
        self.distance(src, dst, bound)
        return _walk(self.field(src, dst, bound)[1], src, dst)

    def steps(self, nodes) -> np.ndarray:
        """The weight of each step of a node path (none for one node); a
        step that is not an edge of the graph raises DomainError."""
        nodes = np.asarray(nodes, dtype=np.int64)
        a, b = nodes[:-1], nodes[1:]
        m = self.matrix
        lo, hi = m.indptr[a, None], m.indptr[a + 1, None]
        # the entries of each step's row, padded to the longest of them
        at = lo + np.arange(int((hi - lo).max(initial=0)))
        hit = (at < hi) & (m.indices[np.minimum(at, m.nnz - 1)] == b[:, None])
        joined = hit.any(1)
        if not joined.all():
            i = int(np.argmin(joined))
            raise DomainError(f"nodes {a[i]} and {b[i]} are not joined by an edge")
        return m.data[at[hit]]


def _walk(pred, src: int, dst: int) -> list[int]:
    """Nodes from src to dst along a predecessor map (array or dict) of a
    shortest-path tree rooted at src."""
    out = [int(dst)]
    while out[-1] != src:
        out.append(int(pred[out[-1]]))
    out.reverse()
    return out


class GridDomain:
    """Rasterized open domain with boundary-distance field and metric oracles."""

    def __init__(
        self,
        interior: np.ndarray,
        h: float,
        x0: Cell,
        name: str = "domain",
        trim: bool = False,
    ):
        interior = np.asarray(interior, dtype=bool)
        if interior.ndim != 2:
            raise DomainError("occupancy bitmap must be 2-dimensional")
        if h <= 0:
            raise DomainError("cell size h must be positive")
        x0 = (int(x0[0]), int(x0[1]))
        if not (0 <= x0[0] < interior.shape[0] and 0 <= x0[1] < interior.shape[1]):
            raise DomainError(f"base point {x0} outside the bounding box")
        if not interior[x0]:
            raise DomainError(f"base point {x0} is not an interior cell")
        border = (
            interior[0, :].any()
            or interior[-1, :].any()
            or interior[:, 0].any()
            or interior[:, -1].any()
        )
        if border:  # keep an exterior ring so every facet is representable
            interior = np.pad(interior, 1)
            x0 = (x0[0] + 1, x0[1] + 1)
        # the component the cell graph joins: a diagonal or knight step
        # needs its clearance cells, so graph-connected is 4-connected
        labels, _ = ndimage.label(interior)
        keep = labels == labels[x0]
        if not trim and keep.sum() != interior.sum():
            raise DomainError(
                "interior is not a single connected component containing x0 "
                "(pass trim=True to keep only the component of x0)"
            )
        interior = keep
        if not interior.any() or interior.all():
            raise DomainError("domain must have interior and exterior cells")

        self.interior = interior
        self.h = float(h)
        self.x0 = x0
        self.name = name
        # Distance to the nearest exterior-cell boundary facet: exact EDT to
        # exterior cell centers minus the half-cell offset keeps d positive on
        # boundary-adjacent interior cells and 1-Lipschitz across the grid.
        edt = ndimage.distance_transform_edt(interior, sampling=self.h)
        self.dist = np.where(interior, edt - self.h / 2.0, 0.0)

        idx = np.flatnonzero(interior.ravel())
        self.node_cells = np.column_stack(np.unravel_index(idx, interior.shape))
        self.cell_node = np.full(interior.shape, -1, dtype=np.int64)
        self.cell_node[tuple(self.node_cells.T)] = np.arange(len(idx))
        self._edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._length_engine: _DijkstraCache | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.interior.shape

    @property
    def n_nodes(self) -> int:
        return len(self.node_cells)

    def position(self, cell: Cell) -> np.ndarray:
        return (np.asarray(cell, dtype=float) + 0.5) * self.h

    def cell_at(self, point) -> Cell:
        """Interior cell containing a physical point (nearest if rasterized out)."""
        raw = np.floor(np.asarray(point, dtype=float) / self.h).astype(int)
        raw = np.clip(raw, 0, np.asarray(self.shape) - 1)
        cell = (int(raw[0]), int(raw[1]))
        if self.interior[cell]:
            return cell
        near = self.node_cells - raw
        best = int(np.argmin((near**2).sum(1)))
        return tuple(self.node_cells[best])

    def require_interior(self, cell: Cell) -> int:
        cell = (int(cell[0]), int(cell[1]))
        if not (0 <= cell[0] < self.shape[0] and 0 <= cell[1] < self.shape[1]):
            raise DomainError(f"cell {cell} out of bounds")
        node = self.cell_node[cell]
        if node < 0:
            raise DomainError(f"cell {cell} is exterior")
        return int(node)

    def boundary_distance(self, cell: Cell) -> float:
        self.require_interior(cell)
        return float(self.dist[tuple(cell)])

    def node_dist(self) -> np.ndarray:
        """Boundary distance per graph node."""
        return self.dist[tuple(self.node_cells.T)]

    # -- cell graph ---------------------------------------------------------

    def edges(self):
        """Edge table (indptr, indices, lengths) of the 16-neighbor cell
        graph: CSR arrays holding each edge in both orientations, a row
        listing its cell's neighbors in ``_OFFSETS`` order, with the
        euclidean length of each entry."""
        if self._edges is not None:
            return self._edges
        # shifted lookups on the bitmap, padded so no neighbor leaves it
        stride = self.shape[1] + 4
        flat = (self.node_cells[:, 0] + 2) * stride + self.node_cells[:, 1] + 2
        inter = np.pad(self.interior, 2).ravel()
        node = np.pad(self.cell_node.astype(np.int32), 2,
                      constant_values=-1).ravel()
        nbr = np.empty((self.n_nodes, len(_OFFSETS)), dtype=np.int32)
        for s, ((di, dj), clearance) in enumerate(_OFFSETS):
            nbr[:, s] = node[flat + di * stride + dj]
            for ci, cj in clearance:
                nbr[~inter[flat + ci * stride + cj], s] = -1
        has = nbr >= 0
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int32)
        np.cumsum(has.sum(1), out=indptr[1:])
        slot_lengths = [self.h * float(np.hypot(*off)) for off, _ in _OFFSETS]
        lengths = np.broadcast_to(slot_lengths, has.shape)[has]
        self._edges = (indptr, nbr[has], lengths)
        return self._edges

    def entry_sums(self, values: np.ndarray) -> np.ndarray:
        """values[r] + values[c] per entry (r, c) of the edge table, in
        entry order, computed in blocks: the sum is symmetric, so both
        orientations of an edge get the same bits."""
        indptr, indices, _ = self.edges()
        out = np.repeat(values, np.diff(indptr))
        for lo in range(0, len(out), _BLOCK):
            out[lo : lo + _BLOCK] += values[indices[lo : lo + _BLOCK]]
        return out

    def graph(self, weights: np.ndarray, exits=None) -> _DijkstraCache:
        """Shortest-path engine on the cell graph, entry i of the edge
        table weighing ``weights[i]`` (the array is kept, not copied).
        ``exits = (nodes, costs)``, nodes ascending, joins those nodes to
        one extra node, numbered ``n_nodes``, at those costs.  The
        engine's root is the base point's node."""
        indptr, indices, _ = self.edges()
        n = self.n_nodes
        if exits is not None:
            nodes, costs = exits
            # one entry at the end of each exit node's row, then the extra
            # node's row
            at = np.concatenate([indptr[nodes + 1],
                                 np.full(len(nodes), len(indices))])
            indices = np.insert(indices, at,
                                np.concatenate([np.full(len(nodes), n), nodes]))
            weights = np.insert(weights, at, np.concatenate([costs, costs]))
            indptr = np.append(indptr + np.searchsorted(nodes, np.arange(n + 1)),
                               len(indices)).astype(np.int32)
            n += 1
        return _DijkstraCache(
            sparse.csr_matrix((weights, indices, indptr), shape=(n, n)),
            root=int(self.cell_node[self.x0]))

    def length_engine(self) -> _DijkstraCache:
        """Euclidean path length (lambda) engine."""
        if self._length_engine is None:
            self._length_engine = self.graph(self.edges()[2])
        return self._length_engine

    def polyline(self, nodes) -> Polyline:
        nodes = np.asarray(nodes, dtype=int)
        return Polyline(nodes, (self.node_cells[nodes] + 0.5) * self.h,
                        self.length_engine().steps(nodes))


# -- module-level metric operations ----------------------------------------


def components(domain: GridDomain, forbidden: np.ndarray | None = None) -> np.ndarray:
    """Connected-component labels of interior cells minus ``forbidden``.

    Returns an int array over the bitmap: -1 outside the remaining set, and
    component ids 0,1,... with the component of x0 labeled 0 when present,
    the rest ordered by first raster-scan occurrence.
    """
    mask = domain.interior.copy()
    if forbidden is not None:
        mask &= ~forbidden
    raw, n = ndimage.label(mask, structure=_STRUCT8)
    first = ndimage.minimum(
        np.arange(mask.size).reshape(domain.shape), raw, index=range(1, n + 1)
    )
    order = np.argsort(first) + 1
    if mask[domain.x0]:
        lab0 = raw[domain.x0]
        order = np.concatenate([[lab0], order[order != lab0]])
    lut = np.full(n + 1, -1, dtype=np.int64)  # raw label -> id; 0 -> -1
    lut[order] = np.arange(n)
    return lut[raw]


def intrinsic_distance(domain: GridDomain, x: Cell, y: Cell,
                       bound: float = np.inf) -> float:
    """Shortest euclidean path length inside the domain (lambda metric);
    ``bound``, the length of any x-y path, limits the search."""
    nx, ny = domain.require_interior(x), domain.require_interior(y)
    return domain.length_engine().distance(nx, ny, bound)


def _masked_geodesic(domain: GridDomain, mask: np.ndarray, x: Cell, y: Cell):
    """Shortest-length path between x and y whose cells all lie in ``mask``
    (None when no such path exists).

    The mask restricts the path's cells only: a diagonal or knight move
    needs its clearance cells to be interior, not in the mask, so the path
    can step over a one-cell-wide gap in the mask.  Its diameter therefore
    remains a certified upper bound for delta.

    The search runs on the length engine's submatrix of the masked nodes,
    which keeps each row's entries in their order in the whole table."""
    node_ok = mask[tuple(domain.node_cells.T)]
    nx, ny = domain.require_interior(x), domain.require_interior(y)
    if not (node_ok[nx] and node_ok[ny]):
        return None
    nodes = np.flatnonzero(node_ok)
    sub = _DijkstraCache(domain.length_engine().matrix[nodes][:, nodes])
    try:
        path = sub.path(*np.searchsorted(nodes, (nx, ny)))
    except UnreachableError:
        return None
    return domain.polyline(nodes[path])


def intrinsic_diameter_distance(domain: GridDomain, x: Cell, y: Cell,
                                detail: bool = False, bound: float = np.inf):
    """Min over in-domain paths of the path's euclidean diameter (delta metric).

    Binary search over candidate diameters D.  A path of diameter <= D stays
    within distance D of both endpoints, so connectivity of x,y inside that
    lens is a necessary condition -- its failure certifies the lower bound.
    The reported value is the actual diameter of a shortest path found in the
    smallest feasible lens, a certified upper bound.  ``bound`` limits the
    lambda search as in ``intrinsic_distance``.

    Every lens lies within the first path's diameter of both ends, so the
    bisection measures and labels only the window of cells that close to
    both; the feasible lens is then set into the whole bitmap for the
    masked search.
    """
    nx, ny = domain.require_interior(x), domain.require_interior(y)
    best_path = domain.polyline(domain.length_engine().path(nx, ny, bound))
    best = best_path.diameter
    px, py = domain.position(x), domain.position(y)
    # the window: cells whose centre lies within best of both ends per
    # axis, grown by a cell
    start = np.maximum(np.floor((np.maximum(px, py) - best) / domain.h - 0.5)
                       .astype(np.int64) - 1, 0)
    stop = np.minimum(np.ceil((np.minimum(px, py) + best) / domain.h - 0.5)
                      .astype(np.int64) + 2, domain.shape)
    window = tuple(slice(a, b) for a, b in zip(start.tolist(), stop.tolist()))
    inside = domain.interior[window]
    centers = (np.argwhere(inside) + start + 0.5) * domain.h
    dxf = np.full(inside.shape, np.inf)
    dyf = np.full(inside.shape, np.inf)
    dxf[inside] = np.sqrt(((centers - px) ** 2).sum(1))
    dyf[inside] = np.sqrt(((centers - py) ** 2).sum(1))
    wx, wy = tuple(np.subtract(x, start)), tuple(np.subtract(y, start))
    lo = float(np.hypot(*(px - py)))
    hi = best
    feasible_mask = None
    for _ in range(24):
        if hi - lo <= max(domain.h / 4.0, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        mask = inside & (dxf <= mid) & (dyf <= mid)
        if _component_at(mask, wx)[wy]:
            hi = mid
            feasible_mask = mask
        else:
            lo = mid
    if feasible_mask is not None:
        lens = np.zeros(domain.shape, dtype=bool)
        lens[window] = feasible_mask
        path = _masked_geodesic(domain, lens, x, y)
        if path is not None and path.diameter < best:
            best = path.diameter
            best_path = path
    value = float(best)
    return (value, float(lo), best_path) if detail else value
