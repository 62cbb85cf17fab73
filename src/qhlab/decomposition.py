"""Core/tentacle decomposition of a domain at a dyadic level m.

The construction splits the domain into a fat connected core around the base
point (union of Whitney cubes of side at least 2^-m), a band of small cubes
on the core's rim, and the residual components.  Dilated neighborhoods of the
band cubes block off the residual "tentacles"; pruning, relabeling into thick
(U) and thin (V) components, and grouping of blocking cubes produce a cover
of the domain by neighborhoods with bounded overlap, which later carries a
smooth partition of unity.

All set operations are cell-exact on the occupancy grid.  Physical dyadic
sizes assume the gallery's unit bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .grid import DomainError, GridDomain, components, _STRUCT8
from .properties import PropertyReport
from .qh import QhMetric
from .whitney import WhitneyDecomposition


class Rect(NamedTuple):
    """Cell rectangle: first row and column, and its extent in cells."""

    i0: int
    j0: int
    ni: int
    nj: int


def mask_rectangles(mask: np.ndarray) -> list[Rect]:
    """Exact cover of a boolean mask by maximal-run rectangles, sorted.

    Horizontal runs per row, merged vertically while runs coincide: each
    rectangle is a chain of identical (j0, j1) runs in consecutive rows.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return []
    padded = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    rows, j0 = np.nonzero(step == 1)  # row-major: the k-th start and the
    _, j1 = np.nonzero(step == -1)  # k-th end bound the same run
    order = np.lexsort((rows, j1, j0))
    rows, j0, j1 = rows[order], j0[order], j1[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ((j0[1:] != j0[:-1]) | (j1[1:] != j1[:-1])
                 | (rows[1:] != rows[:-1] + 1))
    starts = np.flatnonzero(first)
    ni = np.diff(np.append(starts, len(rows)))
    i0, j0, nj = rows[starts], j0[starts], (j1 - j0)[starts]
    order = np.lexsort((j0, i0))
    return [Rect(*map(int, r))
            for r in zip(i0[order], j0[order], ni[order], nj[order])]


def _cells_mask(shape, cells: np.ndarray) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    if len(cells):
        out[cells[:, 0], cells[:, 1]] = True
    return out


def dilated_component_cells(
    domain: GridDomain, dec: WhitneyDecomposition, qidx: int, scale: float
) -> np.ndarray:
    """Cells of the connected component (through the cube) of the dilated
    concentric box intersected with the domain.

    The dilated box is closed; a cell belongs when its center lies inside.
    """
    q = dec.cubes[qidx]
    x0b, x1b, y0b, y1b = q.box(domain.h, scale)
    h = domain.h
    i0 = max(int(np.floor(x0b / h - 0.5)), 0)
    i1 = min(int(np.ceil(x1b / h - 0.5)) + 1, domain.shape[0])
    j0 = max(int(np.floor(y0b / h - 0.5)), 0)
    j1 = min(int(np.ceil(y1b / h - 0.5)) + 1, domain.shape[1])
    ii = (np.arange(i0, i1) + 0.5) * h
    jj = (np.arange(j0, j1) + 0.5) * h
    inside = ((ii >= x0b) & (ii <= x1b))[:, None] & ((jj >= y0b) & (jj <= y1b))[None, :]
    window = inside & domain.interior[i0:i1, j0:j1]
    labels, _ = ndimage.label(window, structure=_STRUCT8)
    ci, cj = q.center_cell()
    lab = labels[ci - i0, cj - j0]
    if lab == 0:  # degenerate: center not in the window (should not happen)
        raise DomainError(f"cube {qidx} outside its own dilation window")
    cells = np.argwhere(labels == lab)
    cells[:, 0] += i0
    cells[:, 1] += j0
    return cells


@dataclass
class TentacleGroup:
    """A group of blocking cubes with its assigned components and cube."""

    index: int  # index of the generating cube in the band enumeration
    cubes: frozenset[int]  # Whitney cube indices
    assigned_cube: int  # lowest-index cube; donor of polynomial values
    members: list[int] = dfield(default_factory=list)  # V component ids


class CoreTentacleDecomposition:
    """All index sets of the level-m core/tentacle construction.

    Attributes (cube entries are Whitney cube indices):
      core_mask  - cells of the core component around the base point
      W1         - cubes fully inside the core
      P1         - band cubes: core cubes with 2^-m <= l < 2^-(m-2)
      P_minus    - band cubes blocked by another band cube
      P          - pruned band P1 minus P_minus
      halo       - per band cube, cells of the c0-dilated component
      bq         - per band cube, cells of the 11/10*c0-dilated component
      comp_labels- component labels of the domain minus the pruned-band halos
      U_ids/V_ids- component ids relabeled thick/thin
      U_cubes/V_cubes - per component, the band cubes whose halos bound it
      groups     - tentacle groups (maximal distinct halo collections)
      Um         - band cubes not used by any group
    """

    def __init__(
        self,
        dec: WhitneyDecomposition,
        qh: QhMetric,
        m: int,
        c0: float = 10.0,
    ):
        if c0 < 10:
            raise DomainError(f"dilation constant must be at least 10, got {c0}")
        self.dec = dec
        self.qh = qh
        self.domain = dec.domain
        self.m = int(m)
        self.c0 = float(c0)
        self._trails: np.ndarray | None = None
        self._trail_cols: dict[int, int] | None = None
        self._chain_cache: dict[tuple[int, int], list[int]] = {}
        self._k_fields: dict[int, np.ndarray] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        dec, dom = self.dec, self.domain
        l_min = 2.0 ** (-self.m)
        l_cap = 2.0 ** (-(self.m - 2))

        big = np.zeros(dom.shape, dtype=bool)
        for q in dec.cubes:
            if not q.flagged and q.l >= l_min - 1e-12:
                big[q.cell_slices()] = True
        if not big[dom.x0]:
            raise DomainError(
                f"level m={self.m} too coarse: base point's cube is smaller "
                f"than {l_min}"
            )
        labels, _ = ndimage.label(big, structure=_STRUCT8)
        self.core_mask = labels == labels[dom.x0]

        self.W1 = [
            q.index
            for q in dec.cubes
            if not q.flagged and self.core_mask[q.cell_slices()].all()
        ]
        self._w1 = np.array(self.W1, dtype=np.int64)  # for cover()
        self.P1 = [
            i for i in self.W1
            if l_min - 1e-12 <= dec.cubes[i].l < l_cap - 1e-12
        ]

        self.halo: dict[int, np.ndarray] = {}
        self.bq: dict[int, np.ndarray] = {}
        for i in self.P1:
            self.halo[i] = dilated_component_cells(dom, dec, i, self.c0)
            self.bq[i] = dilated_component_cells(dom, dec, i, 1.1 * self.c0)

        # pruning: drop band cubes whose neighborhood is blocked by another
        self.P_minus = self._prune()
        self.P = [i for i in self.P1 if i not in set(self.P_minus)]

        # components of the domain minus the closed halos of the pruned band
        removed = np.zeros(dom.shape, dtype=bool)
        for i in self.P:
            cells = self.halo[i]
            removed[cells[:, 0], cells[:, 1]] = True
        if removed[dom.x0]:
            raise DomainError(
                "base point swallowed by a blocking neighborhood; "
                "increase m or decrease c0"
            )
        self.comp_labels = components(dom, removed)
        n_comp = int(self.comp_labels.max()) + 1

        # bounding band cubes per component: halo dilated by one cell ring
        touch: list[set[int]] = [set() for _ in range(n_comp)]
        for i in self.P:
            hm = _cells_mask(dom.shape, self.halo[i])
            ring = ndimage.binary_dilation(hm, structure=_STRUCT8)
            labs = np.unique(self.comp_labels[ring])
            for lab in labs:
                if lab >= 0:
                    touch[int(lab)].add(i)

        # relabel: thick components are those all of whose incident Whitney
        # cubes have l >= 2^-(m-2); the base component is always thick
        self.U_ids: list[int] = []
        self.V_ids: list[int] = []
        for lab in range(n_comp):
            cells_mask = self.comp_labels == lab
            incident = np.unique(dec.cell_cube[cells_mask])
            incident = incident[incident >= 0]
            thick = all(
                dec.cubes[int(ci)].l >= l_cap - 1e-12
                and not dec.cubes[int(ci)].flagged
                for ci in incident
            )
            if lab == 0 or thick:
                self.U_ids.append(lab)
            else:
                self.V_ids.append(lab)
        self.U_cubes = [touch[lab] for lab in self.U_ids]
        self.V_cubes = [touch[lab] for lab in self.V_ids]

        self._group()

    def _prune(self) -> list[int]:
        dom = self.domain
        node_label_x0 = dom.x0
        bq_nodes = {
            i: self.bq[i] for i in self.P1
        }
        blocked: set[int] = set()
        for qp in self.P1:
            forbidden = _cells_mask(dom.shape, self.halo[qp])
            if forbidden[node_label_x0]:
                continue  # halo swallows the base point: cannot separate
            raw, n = ndimage.label(dom.interior & ~forbidden, structure=_STRUCT8)
            if n <= 1:
                continue  # removal does not disconnect: blocks nothing
            lab0 = raw[node_label_x0]
            for q in self.P1:
                if q == qp or q in blocked:
                    continue
                cells = bq_nodes[q]
                labs = raw[cells[:, 0], cells[:, 1]]
                outside = labs > 0
                if not outside.any():
                    continue  # degenerate: neighborhood inside the removal
                if (labs[outside] != lab0).all():
                    blocked.add(q)
        return sorted(blocked)

    def _group(self) -> None:
        # band enumeration: ascending cube index
        enum = sorted(self.P)
        pos = {q: j for j, q in enumerate(enum)}
        vm: set[int] = set().union(*self.V_cubes) if self.V_cubes else set()
        self.V_union_cubes = vm

        raw: list[tuple[int, frozenset[int]]] = []
        for j, qj in enumerate(enum):
            fams = [vc for vc in self.V_cubes if qj in vc]
            if not fams:
                continue
            union = frozenset().union(*fams)
            raw.append((j, union))
        # maximal distinct subfamily covering every thin-bounding cube:
        # drop duplicates (keep the smallest generator), then iteratively
        # drop any family whose cube union is inside the union of the rest
        seen: dict[frozenset[int], int] = {}
        for j, cubes in raw:
            if cubes not in seen:
                seen[cubes] = j
        chosen = sorted((j, cubes) for cubes, j in seen.items())
        changed = True
        while changed:
            changed = False
            for t, (j, cubes) in enumerate(chosen):
                rest: set[int] = set()
                for tt, (_, cc) in enumerate(chosen):
                    if tt != t:
                        rest |= cc
                if cubes <= rest:
                    chosen.pop(t)
                    changed = True
                    break
        assert set().union(*(c for _, c in chosen)) == vm if chosen else not vm

        self.groups: list[TentacleGroup] = [
            TentacleGroup(j, cubes, assigned_cube=min(cubes))
            for j, cubes in chosen
        ]

        # assign each thin component the smallest group that separates it
        dom = self.domain
        for vpos, lab in enumerate(self.V_ids):
            vmask = self.comp_labels == lab
            placed = False
            for g in self.groups:
                forbidden = np.zeros(dom.shape, dtype=bool)
                for q in g.cubes:
                    cells = self.halo[q]
                    forbidden[cells[:, 0], cells[:, 1]] = True
                labels = components(dom, forbidden)
                lab0 = labels[dom.x0]
                labs = labels[vmask]
                if (labs >= 0).any() and (labs[labs >= 0] != lab0).all():
                    g.members.append(vpos)
                    placed = True
                    break
            if not placed:
                raise DomainError(
                    f"thin component {lab} not separated by any group"
                )
        self.groups = [g for g in self.groups]
        used = set().union(*(g.cubes for g in self.groups)) if self.groups else set()
        self.Um = [q for q in self.P if q not in used]
        self._enum = enum
        self._pos = pos

    # -- derived sets -------------------------------------------------------

    def component_mask(self, lab: int) -> np.ndarray:
        return self.comp_labels == lab

    def bui_mask(self, idx: int) -> np.ndarray:
        """Neighborhood of a thick component: dilation by 2^-m/100 (sub-cell,
        so cell-exactly the component itself; the analytic dilation lives in
        the partition-of-unity ramps)."""
        return self.component_mask(self.U_ids[idx])

    def tentacle_mask(self, g: TentacleGroup) -> np.ndarray:
        out = np.zeros(self.domain.shape, dtype=bool)
        for vpos in g.members:
            out |= self.component_mask(self.V_ids[vpos])
        for q in g.cubes:
            cells = self.bq[q]
            out[cells[:, 0], cells[:, 1]] = True
        return out

    def overlap_counts(self) -> np.ndarray:
        """Cell-wise count of the covering neighborhoods (band cubes not in
        groups, thick components, tentacles)."""
        counts = np.zeros(self.domain.shape, dtype=np.int32)
        for q in self.Um:
            cells = self.bq[q]
            counts[cells[:, 0], cells[:, 1]] += 1
        for i in range(len(self.U_ids)):
            counts += self.bui_mask(i)
        for g in self.groups:
            counts += self.tentacle_mask(g)
        return counts

    def core_fraction(self) -> float:
        return float(self.core_mask.sum() / self.domain.interior.sum())

    def omega_m_mask(self) -> np.ndarray:
        """Union of the thick components (the level-m trimmed domain)."""
        out = np.zeros(self.domain.shape, dtype=bool)
        for lab in self.U_ids:
            out |= self.comp_labels == lab
        return out

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "c0": self.c0,
            "core_cells": int(self.core_mask.sum()),
            "core_fraction": self.core_fraction(),
            "W1": self.W1,
            "P1": self.P1,
            "P_minus": self.P_minus,
            "P": self.P,
            "U_components": len(self.U_ids),
            "V_components": len(self.V_ids),
            "V_cube_counts": [len(s) for s in self.V_cubes],
            "groups": [
                {
                    "index": g.index,
                    "cubes": sorted(g.cubes),
                    "assigned_cube": g.assigned_cube,
                    "members": g.members,
                }
                for g in self.groups
            ],
            "unused_band_cubes": self.Um,
        }

    # -- blocking (exposed for tests) ---------------------------------------

    def blocks(self, qidx: int, cells: np.ndarray) -> tuple[bool, bool]:
        """Does removing the cube's closed halo separate the cell set from
        the base point?  Returns (blocked, degenerate); degenerate means the
        set lies entirely inside the removed closure (by convention not
        blocked)."""
        if not len(cells):
            raise DomainError("blocking query against an empty cell set")
        dom = self.domain
        forbidden = _cells_mask(dom.shape, self.halo[qidx])
        if forbidden[dom.x0]:
            return False, True
        labels = components(dom, forbidden)
        labs = labels[cells[:, 0], cells[:, 1]]
        outside = labs >= 0
        if not outside.any():
            return False, True
        return bool((labs[outside] != labels[dom.x0]).all()), False

    # -- trails and covers --------------------------------------------------

    def _trail_matrix(self) -> tuple[np.ndarray, dict[int, int]]:
        """Packed bitset per node of band cubes its radial path passes."""
        if self._trails is None:
            dom = self.domain
            tree = self.qh.radial_tree()
            cols = {q: t for t, q in enumerate(sorted(self.P1))}
            words = max(1, (len(cols) + 63) // 64)
            T = np.zeros((dom.n_nodes, words), dtype=np.uint64)
            cube_of_node = self.dec.cell_cube[tuple(dom.node_cells.T)]
            order = np.argsort(tree.dist, kind="stable")
            pred = tree.pred
            for v in order:
                p = pred[v]
                if p >= 0:
                    T[v] |= T[p]
                q = int(cube_of_node[v])
                if q in cols:
                    t = cols[q]
                    T[v, t >> 6] |= np.uint64(1 << (t & 63))
            self._trails = T
            self._trail_cols = cols
        return self._trails, self._trail_cols

    def trail_nodes(self, qidx: int) -> np.ndarray:
        """Node mask of the trail of a band cube (points whose radial
        geodesic meets the cube)."""
        T, cols = self._trail_matrix()
        t = cols[qidx]
        return (T[:, t >> 6] >> np.uint64(t & 63)) & np.uint64(1) > 0

    def cover(self, qidx: int) -> tuple[list[int], list[int], np.ndarray]:
        """Cover of a band cube's neighborhood: core cubes meeting it plus
        band cubes whose trail meets it.  Returns (direct, via_trail,
        uncovered cell array); the neighborhood is covered when every cell
        is in a core cube or on some band cube's trail."""
        dom = self.domain
        cells = self.bq[qidx]
        cubes_here = self.dec.cell_cube[cells[:, 0], cells[:, 1]]
        direct = np.intersect1d(cubes_here, self._w1).tolist()
        nodes = dom.cell_node[cells[:, 0], cells[:, 1]]
        nodes = nodes[nodes >= 0]
        T, cols = self._trail_matrix()
        rows = T[nodes]
        # column t of the trail matrix is the t-th band cube in index order
        hit = np.bitwise_or.reduce(rows, axis=0).astype("<u8")
        bits = np.unpackbits(hit.view(np.uint8), bitorder="little")
        band = sorted(cols)
        via = [band[t] for t in np.flatnonzero(bits[:len(band)])]
        cube_of = self.dec.cell_cube[tuple(dom.node_cells[nodes].T)]
        covered = np.isin(cube_of, self._w1) | (rows != 0).any(axis=1)
        uncovered = dom.node_cells[nodes[~covered]]
        return direct, via, uncovered

    # -- chains -------------------------------------------------------------

    def chain(self, q1: int, q2: int) -> list[int]:
        """Face-adjacent cube chain following the quasihyperbolic geodesic
        between the two cube centers; symmetric in its arguments."""
        key = (min(q1, q2), max(q1, q2))
        if key in self._chain_cache:
            path = self._chain_cache[key]
            return path if key == (q1, q2) else path[::-1]
        a, b = key
        ca = self.dec.cubes[a].center_cell()
        cb = self.dec.cubes[b].center_cell()
        _, geo = self.qh.distance(ca, cb, with_geodesic=True)
        raw = self.dec.cell_cube[tuple(geo.polyline.cells.T)]
        seq: list[int] = []
        for q in raw:
            q = int(q)
            if not seq or seq[-1] != q:
                seq.append(q)
        # repair: 16-neighbor moves can hop over a face neighbor
        adj = self.dec.adjacency
        out = [seq[0]]
        for q in seq[1:]:
            while q not in adj[out[-1]] and q != out[-1]:
                bridge = self._bridge(out[-1], q)
                if bridge is None:
                    break
                out.extend(bridge)
            if q != out[-1]:
                out.append(q)
        self._chain_cache[key] = out
        return out if key == (q1, q2) else out[::-1]

    def _bridge(self, a: int, b: int) -> list[int] | None:
        """Shortest cube-adjacency path strictly between two cubes (BFS)."""
        from collections import deque

        adj = self.dec.adjacency
        prev = {a: -1}
        dq = deque([a])
        while dq:
            u = dq.popleft()
            if b in adj[u]:
                path = []
                while u != a:
                    path.append(u)
                    u = prev[u]
                return path[::-1]
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    dq.append(v)
        return None

    # -- quasihyperbolic distances between cubes ----------------------------

    def cube_k_field(self, qidx: int) -> np.ndarray:
        if qidx not in self._k_fields:
            cells = self.dec.cube_cells(qidx)
            nodes = self.domain.cell_node[cells[:, 0], cells[:, 1]]
            self._k_fields[qidx] = self.qh.min_field(nodes[nodes >= 0])
            if len(self._k_fields) > 800:
                self._k_fields.pop(next(iter(self._k_fields)))
        return self._k_fields[qidx]

    def cube_k_dist(self, q1: int, q2: int) -> float:
        field = self.cube_k_field(q1)
        cells = self.dec.cube_cells(q2)
        nodes = self.domain.cell_node[cells[:, 0], cells[:, 1]]
        nodes = nodes[nodes >= 0]
        return float(field[nodes].min()) if len(nodes) else float("inf")


def build_core_tentacle(
    dec: WhitneyDecomposition, qh: QhMetric, m: int, c0: float = 10.0
) -> CoreTentacleDecomposition:
    return CoreTentacleDecomposition(dec, qh, m, c0)


# -- verification passes ----------------------------------------------------


def verify_bounded_overlap(ct: CoreTentacleDecomposition) -> PropertyReport:
    """1 <= cover multiplicity <= c' at every interior cell."""
    counts = ct.overlap_counts()
    interior = ct.domain.interior
    lo = int(counts[interior].min())
    hi = int(counts[interior].max())
    rep = PropertyReport("bounded_overlap", float(hi), resolution=ct.domain.h)
    rep.extra = {"min": lo, "max": hi, "m": ct.m, "c0": ct.c0}
    rep.passed = lo >= 1
    return rep


def verify_tiling(ct: CoreTentacleDecomposition) -> bool:
    """Domain minus the pruned-band halos equals the disjoint union of the
    thick and thin components, cell-exactly."""
    removed = np.zeros(ct.domain.shape, dtype=bool)
    for q in ct.P:
        cells = ct.halo[q]
        removed[cells[:, 0], cells[:, 1]] = True
    rest = ct.domain.interior & ~removed
    labeled = ct.comp_labels >= 0
    return bool(np.array_equal(rest, labeled))


def verify_remark_inclusion(
    ct: CoreTentacleDecomposition, dec, qh
) -> bool | None:
    """Core at a coarse level M with 2^-M > 10 c0 2^-m is inside the union
    of thick components.  None when no such level hosts the base point."""
    target = 10.0 * ct.c0 * 2.0 ** (-ct.m)
    M = int(np.floor(-np.log2(target * (1 + 1e-9))))
    if M < 0:
        return None
    # the coarse set is just the level-M core: component of the base point in
    # the union of unflagged cubes with l >= 2^-M
    dom = ct.domain
    l_min = 2.0 ** (-M)
    big = np.zeros(dom.shape, dtype=bool)
    for q in dec.cubes:
        if not q.flagged and q.l >= l_min - 1e-12:
            big[q.cell_slices()] = True
    if not big[dom.x0]:
        return None
    labels, _ = ndimage.label(big, structure=_STRUCT8)
    coarse_core = labels == labels[dom.x0]
    omega_m = ct.omega_m_mask()
    return bool((~coarse_core | omega_m).all())


def verify_distance_lemmas(ct: CoreTentacleDecomposition) -> PropertyReport:
    """Max quasihyperbolic distances over the pair classes used by the
    oscillation estimates: covering cubes with intersecting trails; band
    cubes with overlapping neighborhoods; group cubes against their assigned
    cube."""
    shape = ct.domain.shape
    rep = PropertyReport("distance_lemmas", 0.0, resolution=ct.domain.h)
    T, cols = ct._trail_matrix()

    # column co-occurrence over radial trails, from the unique trail rows
    ncols = len(cols)
    co = np.zeros((ncols, ncols), dtype=bool)
    for row in np.unique(T, axis=0):
        bits = []
        for w, word in enumerate(row.tolist()):
            while word:
                low = word & -word
                bits.append(w * 64 + low.bit_length() - 1)
                word ^= low
        if len(bits) > 1:
            idx = np.asarray(bits)
            co[np.ix_(idx, idx)] = True

    # trail-linked covering pairs
    max_trail = 0.0
    for q in ct.P:
        _, via, _ = ct.cover(q)
        for a in range(len(via)):
            for b in range(a + 1, len(via)):
                if not co[cols[via[a]], cols[via[b]]]:
                    continue
                max_trail = max(max_trail, ct.cube_k_dist(via[a], via[b]))

    # overlapping band neighborhoods
    max_band = 0.0
    bq_masks = {q: _cells_mask(shape, ct.bq[q]) for q in ct.P}
    plist = sorted(ct.P)
    for a in range(len(plist)):
        for b in range(a + 1, len(plist)):
            if (bq_masks[plist[a]] & bq_masks[plist[b]]).any():
                max_band = max(max_band, ct.cube_k_dist(plist[a], plist[b]))

    # group cubes to assigned cube
    max_group = 0.0
    for g in ct.groups:
        for q in g.cubes:
            if q != g.assigned_cube:
                max_group = max(max_group, ct.cube_k_dist(q, g.assigned_cube))

    rep.extra = {
        "trail_pairs_max": max_trail,
        "band_overlap_max": max_band,
        "group_assigned_max": max_group,
        "m": ct.m,
    }
    rep.constant = max(max_trail, max_band, max_group)
    rep.passed = np.isfinite(rep.constant)
    return rep


def verify_cover(ct: CoreTentacleDecomposition) -> PropertyReport:
    """Every band cube's neighborhood is covered by core cubes and trails;
    the cover cardinality maximum is reported.

    Meaningful only when the band's bottom scale is resolved by the grid
    (2^-m >= h): below that, cells in flagged sub-scale cubes can be entered
    by radial geodesics straight from cubes above the band, which in the
    continuum would pass through resolvable band-or-smaller cubes instead.
    The ``level_resolved`` extra records the gate.
    """
    rep = PropertyReport("cover", 0.0, resolution=ct.domain.h)
    rep.extra = {"m": ct.m,
                 "level_resolved": bool(2.0 ** (-ct.m) >= ct.domain.h - 1e-12)}
    worst = 0
    ok = True
    for q in ct.P:
        direct, via, uncovered = ct.cover(q)
        n = len(set(direct) | set(via))
        worst = max(worst, n)
        if len(uncovered):
            ok = False
            rep.samples.append({"cube": q, "uncovered": uncovered.tolist()})
    rep.constant = float(worst)
    rep.passed = ok
    return rep


def chain_pair_classes(ct: CoreTentacleDecomposition):
    """The four families of cube pairs that require chains: (band cube,
    covering cube meeting its neighborhood), (band, band with overlapping
    neighborhoods), (assigned, assigned with overlapping tentacles),
    (band, assigned with neighborhood meeting the tentacle)."""
    shape = ct.domain.shape
    pairs: set[tuple[int, int]] = set()
    bq_masks = {q: _cells_mask(shape, ct.bq[q]) for q in ct.P}

    for q in ct.P:
        direct, via, _ = ct.cover(q)
        for qp in set(direct) | set(via):
            if qp == q:
                continue
            cube_mask = np.zeros(shape, dtype=bool)
            cube_mask[ct.dec.cubes[qp].cell_slices()] = True
            if (cube_mask & bq_masks[q]).any():
                pairs.add((min(q, qp), max(q, qp)))

    plist = sorted(ct.P)
    for a in range(len(plist)):
        for b in range(a + 1, len(plist)):
            if (bq_masks[plist[a]] & bq_masks[plist[b]]).any():
                pairs.add((plist[a], plist[b]))

    tmasks = [ct.tentacle_mask(g) for g in ct.groups]
    for a in range(len(ct.groups)):
        for b in range(a + 1, len(ct.groups)):
            if (tmasks[a] & tmasks[b]).any():
                qa, qb = ct.groups[a].assigned_cube, ct.groups[b].assigned_cube
                if qa != qb:
                    pairs.add((min(qa, qb), max(qa, qb)))
    for q in ct.P:
        for g, tm in zip(ct.groups, tmasks):
            if q != g.assigned_cube and (bq_masks[q] & tm).any():
                pairs.add((min(q, g.assigned_cube), max(q, g.assigned_cube)))
    return sorted(pairs)


def verify_chain_overlap(ct: CoreTentacleDecomposition) -> PropertyReport:
    """Each cube belongs to a bounded number of chains over the four pair
    classes; reports the maximal membership count and chain length."""
    pairs = chain_pair_classes(ct)
    member: dict[int, int] = {}
    longest = 0
    for q1, q2 in pairs:
        chain = ct.chain(q1, q2)
        longest = max(longest, len(chain))
        for q in set(chain):
            member[q] = member.get(q, 0) + 1
    rep = PropertyReport("chain_overlap", float(max(member.values()) if member else 0),
                         resolution=ct.domain.h)
    rep.extra = {"n_pairs": len(pairs), "longest_chain": longest, "m": ct.m}
    rep.passed = True
    return rep
