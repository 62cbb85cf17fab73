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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain

SQRT2 = float(np.sqrt(2.0))
# corner offsets of a block's four children, in units of the child's side
_QUARTERS = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])


@dataclass
class WhitneyCube:
    index: int
    corner: tuple[int, int]  # cell coordinates of the low corner
    size: int  # side length in cells (power of two)
    l: float  # euclidean side length
    dist: float  # boundary distance sampled at the center cell
    flagged: bool  # True when diam > dist (sub-scale boundary cell)

    @property
    def diam(self) -> float:
        return self.l * SQRT2

    @property
    def level(self) -> int:
        return int(self.size).bit_length() - 1

    def cell_slices(self) -> tuple[slice, slice]:
        i0, j0 = self.corner
        return slice(i0, i0 + self.size), slice(j0, j0 + self.size)

    def center_cell(self) -> tuple[int, int]:
        i0, j0 = self.corner
        return (i0 + (self.size - 1) // 2, j0 + (self.size - 1) // 2)

    def box(self, h: float, scale: float = 1.0) -> tuple[float, float, float, float]:
        """Physical closed box (x0, x1, y0, y1) of the cube dilated by ``scale``."""
        i0, j0 = self.corner
        cx, cy = (i0 + self.size / 2.0) * h, (j0 + self.size / 2.0) * h
        half = scale * self.l / 2.0
        return (cx - half, cx + half, cy - half, cy + half)


class WhitneyDecomposition:
    def __init__(self, domain: GridDomain, cubes: list[WhitneyCube]):
        self.domain = domain
        self.cubes = cubes
        self.cell_cube = np.full(domain.shape, -1, dtype=np.int64)
        for q in cubes:
            self.cell_cube[q.cell_slices()] = q.index
        self._adjacency: list[set[int]] | None = None

    @property
    def adjacency(self) -> list[set[int]]:
        """Face-adjacency (shared edge segment) between distinct cubes."""
        if self._adjacency is None:
            adj: list[set[int]] = [set() for _ in self.cubes]
            cc = self.cell_cube
            for a, b in (
                (cc[:-1, :], cc[1:, :]),
                (cc[:, :-1], cc[:, 1:]),
            ):
                pairs = np.column_stack([a.ravel(), b.ravel()])
                pairs = pairs[(pairs[:, 0] >= 0) & (pairs[:, 1] >= 0)]
                pairs = pairs[pairs[:, 0] != pairs[:, 1]]
                for u, v in np.unique(pairs, axis=0):
                    adj[u].add(int(v))
                    adj[v].add(int(u))
            self._adjacency = adj
        return self._adjacency

    def cube_cells(self, index: int) -> np.ndarray:
        """(n, 2) array of cell coordinates of a cube."""
        q = self.cubes[index]
        return np.argwhere(np.ones((q.size, q.size), dtype=bool)) + q.corner


def whitney_decompose(domain: GridDomain) -> WhitneyDecomposition:
    interior, h = domain.interior, domain.h
    size_top = 1 << int(np.ceil(np.log2(max(domain.shape))))
    # count[i, j]: interior cells in [0, i) x [0, j); beyond the bitmap, none
    count = np.zeros((size_top + 1, size_top + 1), dtype=np.int32)
    count[1 : interior.shape[0] + 1, 1 : interior.shape[1] + 1] = interior
    np.cumsum(count, axis=0, out=count)
    np.cumsum(count, axis=1, out=count)

    found = []  # (i0, j0, size, dist, flagged) of each cube
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
        found += zip(*corners[keep].T.tolist(), [size] * int(keep.sum()),
                     d[keep].tolist(), (~close[keep]).tolist())
        corners = corners[~keep]
    # deterministic order: by corner, then size
    return WhitneyDecomposition(domain, [
        WhitneyCube(k, (i0, j0), s, s * h, d, f)
        for k, (i0, j0, s, d, f) in enumerate(sorted(found))])
