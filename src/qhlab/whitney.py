"""Dyadic Whitney decomposition of a grid domain.

Cubes are dyadic blocks of cells anchored at the bounding-box corner, found
level by level below the (always rejected) root: a level's candidates are
the children of the blocks rejected one level up.  A block is accepted when
it is fully interior (its interior-cell count, read from one integral image
of the bitmap zero-padded to the root, is size^2) and satisfies diam(Q) <=
dist(Q), with dist measured cell-accurately as the boundary-distance field
sampled at the block's center cell; the descent then gives dist(Q) <= 4
diam(Q) for every accepted cube.  Boundary cells too close to the boundary
for even a one-cell cube are attached as flagged one-cell cubes so the cover
stays exact.

The cubes are one table, ``WhitneyDecomposition.cubes``: a record array with
a row per cube, by corner, then side, so a cube's index is its row.  Its
columns are the low ``corner`` cell, the ``side`` in cells (a power of two),
the euclidean side ``l``, the boundary distance ``dist`` sampled at the centre
cell, and ``flagged`` (diam > dist: a sub-scale boundary cell).  Each cube
formula is written once, for many cubes at a time: ``boxes`` (dilated closed
boxes), ``centre_cells`` and ``cube_cells``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridDomain

SQRT2 = float(np.sqrt(2.0))
# corner offsets of a block's four children, in units of the child's side
_QUARTERS = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
_CUBE_DTYPE = np.dtype([("corner", np.int64, (2,)), ("side", np.int64),
                        ("l", np.float64), ("dist", np.float64),
                        ("flagged", bool)])


class WhitneyDecomposition:
    def __init__(self, domain: GridDomain, cubes: np.recarray):
        self.domain = domain
        self.cubes = cubes
        self.cell_cube = np.full(domain.shape, -1, dtype=np.int64)
        for s in np.unique(cubes.side).tolist():
            idx = np.flatnonzero(cubes.side == s)
            self.cell_cube[tuple(self.cube_cells(idx).T)] = idx
        self._adjacency: list[set[int]] | None = None

    @property
    def adjacency(self) -> list[set[int]]:
        """Face-adjacency (shared edge segment) between distinct cubes."""
        if self._adjacency is None:
            adj: list[set[int]] = [set() for _ in range(len(self.cubes))]
            cc = self.cell_cube
            for a, b in (
                (cc[:-1, :], cc[1:, :]),
                (cc[:, :-1], cc[:, 1:]),
            ):
                pairs = np.column_stack([a.ravel(), b.ravel()])
                pairs = pairs[(pairs[:, 0] >= 0) & (pairs[:, 1] >= 0)]
                pairs = pairs[pairs[:, 0] != pairs[:, 1]]
                for u, v in np.unique(pairs, axis=0).tolist():
                    adj[u].add(v)
                    adj[v].add(u)
            self._adjacency = adj
        return self._adjacency

    def cube_cells(self, idx) -> np.ndarray:
        """Cell coordinates, row-major: (side^2, 2) of one cube, or
        (n, side^2, 2) of an array of n cubes of one side."""
        s = int(np.max(self.cubes.side[idx]))
        return (self.cubes.corner[idx][..., None, :]
                + np.argwhere(np.ones((s, s), dtype=bool)))

    def centre_cells(self, idx) -> np.ndarray:
        """(n, 2) centre cells of cubes: of an even side, the low one of the
        middle four."""
        return self.cubes.corner[idx] + (self.cubes.side[idx, None] - 1) // 2

    def boxes(self, idx, scale: float) -> np.ndarray:
        """(n, 4) closed physical boxes (x0, x1, y0, y1) of cubes dilated
        about their centres by ``scale``."""
        cubes = self.cubes[idx]
        mid = (cubes.corner + cubes.side[:, None] / 2.0) * self.domain.h
        half = (scale * cubes.l / 2.0)[:, None]
        return np.stack([mid - half, mid + half], axis=2).reshape(-1, 4)


def whitney_decompose(domain: GridDomain) -> WhitneyDecomposition:
    interior, h = domain.interior, domain.h
    size_top = 1 << int(np.ceil(np.log2(max(domain.shape))))
    # count[i, j]: interior cells in [0, i) x [0, j); beyond the bitmap, none
    count = np.zeros((size_top + 1, size_top + 1), dtype=np.int32)
    count[1 : interior.shape[0] + 1, 1 : interior.shape[1] + 1] = interior
    np.cumsum(count, axis=0, out=count)
    np.cumsum(count, axis=1, out=count)

    found = []  # per level, the rows of its cubes
    corners, size = np.zeros((1, 2), dtype=np.int64), size_top
    while size > 1:
        # the children of the blocks rejected one level up, inside the bitmap
        size //= 2
        corners = (corners[:, None] + _QUARTERS * size).reshape(-1, 2)
        corners = corners[(corners < domain.shape).all(axis=1)]
        i, j = corners.T
        full = (count[i + size, j + size] - count[i, j + size]
                - count[i + size, j] + count[i, j]) == size * size
        # rasterized dist(Q, boundary): the d field at a full block's centre
        d = np.zeros(len(corners))
        d[full] = domain.dist[i[full] + size // 2, j[full] + size // 2]
        close = size * h * SQRT2 <= d
        keep = full & (close | (size == 1))
        n = int(keep.sum())
        found.append(np.rec.fromarrays(
            [corners[keep], np.full(n, size), np.full(n, size * h), d[keep],
             ~close[keep]], dtype=_CUBE_DTYPE))
        corners = corners[~keep]
    cubes = np.concatenate(found).view(np.recarray)
    # deterministic order: by corner, then side
    return WhitneyDecomposition(domain, cubes[np.lexsort(
        (cubes.side, cubes.corner[:, 1], cubes.corner[:, 0]))])
