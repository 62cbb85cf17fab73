"""Dyadic Whitney decomposition of a grid domain.

Cubes are dyadic blocks of cells anchored at the bounding-box corner.  A block
is accepted as soon as it is fully interior and satisfies diam(Q) <= dist(Q),
with dist measured cell-accurately as the boundary-distance field sampled at
the block's center cell; descending from the (always rejected) root then gives
dist(Q) <= 4 diam(Q) for every accepted cube.  Boundary cells too close to
the boundary for even a one-cell cube are attached as flagged one-cell cubes
so the cover stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain

SQRT2 = float(np.sqrt(2.0))


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
    interior = domain.interior
    size_top = 1 << int(np.ceil(np.log2(max(domain.shape))))

    # all-interior pyramid per dyadic level; partial blocks count as exterior
    all_int = [interior]
    while all_int[-1].shape[0] > 1 or all_int[-1].shape[1] > 1:
        a = all_int[-1]
        ni = (a.shape[0] + 1) // 2
        nj = (a.shape[1] + 1) // 2
        pa = np.zeros((2 * ni, 2 * nj), dtype=bool)
        pa[: a.shape[0], : a.shape[1]] = a
        all_int.append(
            pa[0::2, 0::2] & pa[1::2, 0::2] & pa[0::2, 1::2] & pa[1::2, 1::2]
        )

    cubes: list[WhitneyCube] = []
    h = domain.h

    stack = [(0, 0, size_top)]
    while stack:
        i0, j0, size = stack.pop()
        lvl = size.bit_length() - 1
        bi, bj = i0 >> lvl, j0 >> lvl
        if lvl < len(all_int) and bi < all_int[lvl].shape[0] and bj < all_int[lvl].shape[1]:
            full = bool(all_int[lvl][bi, bj])
        else:
            full = False
        # rasterized dist(Q, boundary): the d field at a full block's centre
        d = float(domain.dist[i0 + size // 2, j0 + size // 2]) if full else 0.0
        if full and size * h * SQRT2 <= d and size < size_top:
            cubes.append(WhitneyCube(len(cubes), (i0, j0), size, size * h, d, False))
            continue
        if size == 1:
            if 0 <= i0 < domain.shape[0] and 0 <= j0 < domain.shape[1] and interior[i0, j0]:
                d1 = float(domain.dist[i0, j0])
                cubes.append(
                    WhitneyCube(
                        len(cubes), (i0, j0), 1, h, d1, flagged=not (h * SQRT2 <= d1)
                    )
                )
            continue
        half = size // 2
        for di in (0, half):
            for dj in (0, half):
                stack.append((i0 + di, j0 + dj, half))

    # deterministic order: by corner, then size
    cubes.sort(key=lambda q: (q.corner[0], q.corner[1], q.size))
    for new_idx, q in enumerate(cubes):
        q.index = new_idx
    return WhitneyDecomposition(domain, cubes)
