"""Core/tentacle decomposition of a domain at a dyadic level m.

The construction splits the domain into a fat connected core around the base
point (union of Whitney cubes of side at least 2^-m), a band of small cubes
on the core's rim, and the residual components.  Dilated neighborhoods of the
band cubes block off the residual "tentacles"; pruning, relabeling into thick
(U) and thin (V) components, and grouping of blocking cubes produce a cover
of the domain by neighborhoods with bounded overlap, which later carries a
smooth partition of unity.

All set operations are cell-exact on the occupancy grid.  Physical dyadic
sizes assume the gallery's unit bounding box.  A level's halos,
neighbourhoods and prune cuts are labelled in array passes: windows of the
bitmap stacked in batches, one ``ndimage.label`` call per batch, 8-connected
inside each window and not across windows.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field as dfield
from functools import cache
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage, sparse

from .grid import (DomainError, GridDomain, components, _STRUCT8,
                   _component_at, _walk)
from .properties import PropertyReport
from .qh import QhMetric, search_limits
from .whitney import WhitneyDecomposition


def rectangle_cover(cell_sets: list[np.ndarray], shape: tuple[int, int]
                    ) -> tuple[np.ndarray, ...]:
    """Exact cover of each (n, 2) set of distinct cells of a bitmap of the
    given shape by maximal-run rectangles.

    Each set's rows are cut into horizontal runs, merged vertically while
    runs coincide: each rectangle is a chain of identical (j0, j1) runs in
    consecutive rows.  Returns (set, i0, j0, ni, nj) arrays, the set as its
    position in ``cell_sets``, sorted by set, then i0, then j0.  The sets
    are covered in array passes over batches of about one bitmap's worth
    of cells, so no temporary outgrows a few masks of the bitmap.
    """
    out = [_cover_batch(cell_sets[b], b.start, shape) for b in
           _batches([len(c) for c in cell_sets], shape[0] * shape[1])]
    return tuple(np.concatenate(a) for a in zip(*out))


def _batches(sizes, most: int, padded: bool = False):
    """Slices of consecutive items whose ``sizes`` sum to at most ``most``,
    or of one item.  ``padded`` counts each item of a batch at the size of
    its last one instead, for ascending sizes padded to the largest."""
    first, held = 0, 0
    for k, n in enumerate(sizes):
        if k > first and ((k - first + 1) * n if padded else held + n) > most:
            yield slice(first, k)
            first, held = k, 0
        held += n
    yield slice(first, len(sizes))


def _cover_batch(cell_sets: list[np.ndarray], first: int,
                 shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """``rectangle_cover`` of a batch of sets, numbered from ``first``."""
    sizes = [len(c) for c in cell_sets]
    if not sum(sizes):
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(5))
    cells = np.concatenate(cell_sets)
    # each cell's position in copies of the bitmap laid end to end, one per
    # set, each row and each copy followed by a blank one: a run is a
    # stretch of consecutive positions
    height, width = shape[0] + 1, shape[1] + 1
    at = np.repeat(np.arange(len(sizes)) * height, sizes)
    at += cells[:, 0]
    at *= width
    at += cells[:, 1]
    at.sort(kind="stable")
    start = np.append(True, at[1:] != at[:-1] + 1)
    first_at, last_at = at[start], at[np.append(start[1:], True)]
    row, j0, j1 = first_at // width, first_at % width, last_at % width + 1
    # rectangles: chains of identical runs in consecutive rows
    by = np.lexsort((row, j1, j0))
    row, j0, j1 = row[by], j0[by], j1[by]
    start = np.append(True, (j0[1:] != j0[:-1]) | (j1[1:] != j1[:-1])
                      | (row[1:] != row[:-1] + 1))
    ni = np.diff(np.append(np.flatnonzero(start), len(row)))
    row, j0, nj = row[start], j0[start], (j1 - j0)[start]
    by = np.argsort(row * width + j0)
    row, j0, ni, nj = row[by], j0[by], ni[by], nj[by]
    return row // height + first, row % height, j0, ni, nj


def _cells_mask(shape, *cell_arrays: np.ndarray) -> np.ndarray:
    """Mask of the union of (n, 2) cell arrays, scattered one by one."""
    out = np.zeros(shape, dtype=bool)
    for cells in cell_arrays:
        if len(cells):
            out[cells[:, 0], cells[:, 1]] = True
    return out


# offsets of the 8 neighbors of a cell
_RING8 = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]


def core_mask_at_level(dec: WhitneyDecomposition, level: float) -> np.ndarray:
    """Component of the base point in the union of unflagged cubes of side
    at least 2^-level (fractional levels allowed); empty when the base
    point's cube is smaller."""
    l_min = 2.0 ** (-level)
    # per cube; the extra last entry answers cell_cube's -1
    q = dec.cubes
    big = np.append(~q.flagged & (q.l >= l_min - 1e-12), False)
    return _component_at(big[dec.cell_cube], dec.domain.x0)


def _window_cut(domain: GridDomain, halos: list[np.ndarray],
                boxes: np.ndarray):
    """Per halo, raw labels of the interior minus the halo on a window that
    decides which cells lie off the base point's component.  Yields
    (position in ``halos``, the window's labels, their number, the base
    point's label (0 when the halo holds it), the window's origin cell),
    batch by batch; ``boxes`` holds each halo's first and last cell.

    The window is the halo's bounding box grown by one cell.  The halo is
    interior and the bitmap keeps an exterior ring, so that window stays in
    bounds.  Every cell outside the window reaches the window's one-cell
    border ring inside the connected domain, and the halo lies strictly
    inside that ring.  A path in the domain between two ring cells runs
    outside the window, where the halo changes nothing, or crosses the
    window inside one component of its interior cells.  So when the halo
    splits the ring cells of no such component, every ring cell, and every
    cell outside the window, lies in one component of the domain minus the
    halo: the window's ring labels are merged into one, and its components
    are the global ones.  When the base point also lies outside the window,
    in that component or in the halo, only cells inside the window can lie
    off the base point's component.  When the halo splits such a
    component's ring cells, or the base point sits in a pocket, the whole
    bitmap is labelled instead: its ring is exterior, so it always decides.

    Windows are taken in order of size and stacked in batches, each padded
    to its largest window and holding at most ``_WINDOW_CELLS`` cells or
    one window; each window is masked to its own part, and a batch is
    labelled in one call.
    """
    if not len(halos):
        return
    lo, hi = boxes[:, 0] - 1, boxes[:, 1] + 2
    side = (hi - lo).max(1)
    order = np.argsort(side, kind="stable")
    x0 = np.array(domain.x0)
    for b in _batches(side[order] ** 2, _WINDOW_CELLS, padded=True):
        idx = order[b]
        p = np.arange(len(idx))
        shape = (hi[idx] - lo[idx]).max(0)
        start = np.minimum(lo[idx], np.subtract(domain.shape, shape))
        off, stop = lo[idx] - start, hi[idx] - start
        win = _windows(domain.interior, start, shape)
        for a in (0, 1):
            cut = (np.arange(shape[a]) >= off[:, a, None]) \
                & (np.arange(shape[a]) < stop[:, a, None])
            win &= cut[:, :, None] if a == 0 else cut[:, None, :]
        # each halo cell's position in the flattened stack
        cells = np.concatenate([halos[k] for k in idx])
        at = np.repeat((p * shape[0] - start[:, 0]) * shape[1] - start[:, 1],
                       [len(halos[k]) for k in idx])
        at += cells[:, 0] * shape[1]
        at += cells[:, 1]
        cut = win.copy()
        cut.reshape(-1)[at] = False
        raw, count = ndimage.label(cut, structure=_STACK8)
        # each window's labels follow the previous windows' ones
        top = raw.reshape(len(idx), -1).max(1)
        n = np.maximum(top - np.append(0, np.maximum.accumulate(top)[:-1]), 0)
        ring = _ring(raw, off, stop)
        ring_max = ring.max(1)
        ring_min = np.where(ring > 0, ring, count + 1).min(1)
        torn = np.zeros(len(idx), dtype=bool)
        split = np.flatnonzero(ring_min < ring_max)
        if len(split):
            # a halo tears a window component when its ring cells get
            # distinct labels; otherwise the window's ring labels merge
            # into its least one
            whole, _ = ndimage.label(win[split], structure=_STACK8)
            whole = _ring(whole, off[split], stop[split])
            ring, at = ring[split], np.repeat(split, ring.shape[1])
            keep = ring.ravel() > 0
            whole, ring, at = whole.ravel()[keep], ring.ravel()[keep], at[keep]
            by = np.lexsort((ring, whole))
            whole, ring, at = whole[by], ring[by], at[by]
            torn[at[1:][(whole[1:] == whole[:-1]) & (ring[1:] != ring[:-1])]] \
                = True
            labs, once = np.unique(ring, return_index=True)
            n[split] -= np.bincount(at[once], minlength=len(idx))[split] - 1
            lut = np.arange(count + 1, dtype=raw.dtype)
            lut[labs] = ring_min[at[once]]
            raw[split] = lut[raw[split]]
        inside = ((x0 >= lo[idx]) & (x0 < hi[idx])).all(1)
        at = np.clip(x0 - start, 0, shape - 1)
        lab_x0 = np.where(inside, raw[p, at[:, 0], at[:, 1]], 0)
        pocket = (lab_x0 > 0) & (ring_max > 0) & (lab_x0 != ring_min)
        lab0 = np.where(inside, lab_x0, np.where(ring_max > 0, ring_min, 0))
        for t, k in enumerate(idx.tolist()):
            if torn[t] or pocket[t]:
                raw_k, n_k = ndimage.label(
                    domain.interior & ~_cells_mask(domain.shape, halos[k]),
                    structure=_STRUCT8)
                yield (k, raw_k, n_k, int(raw_k[domain.x0]),
                       np.zeros(2, dtype=np.int64))
            else:
                (i0, j0), (i1, j1) = off[t], stop[t]
                yield k, raw[t, i0:i1, j0:j1], int(n[t]), int(lab0[t]), lo[k]


# a batch of stacked windows holds about this many cells, a 256 x 256
# bitmap's worth: enough that a batch's fixed cost is small against its
# labelling, few enough that its temporaries stay a few megabytes
_WINDOW_CELLS = 1 << 16

# 8-connectivity inside each window of a (windows, rows, cols) stack, and
# none across windows
_STACK8 = np.zeros((3, 3, 3), dtype=bool)
_STACK8[1] = True


def _windows(mask: np.ndarray, start: np.ndarray, shape) -> np.ndarray:
    """The windows of the given shape of a mask at (n, 2) start cells, as a
    stacked copy."""
    return sliding_window_view(mask, tuple(shape))[start[:, 0], start[:, 1]]


def _ring(stack: np.ndarray, off: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per window of a stack, in one row, the stack's rows and columns
    through the border ring of the window's part [off, stop); entries off
    that part are 0."""
    p = np.arange(len(stack))
    return np.concatenate([stack[p, off[:, 0]], stack[p, stop[:, 0] - 1],
                           stack[p, :, off[:, 1]],
                           stack[p, :, stop[:, 1] - 1]], axis=1)


def _halos_and_bqs(dec: WhitneyDecomposition, cubes: list[int], c0: float
                   ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Per Whitney cube of ``cubes``, the cells, in row order, of the
    components through its centre cell of the domain inside its c0- and
    11/10*c0-dilated concentric boxes: its halo and ``bq``.  Also returns
    their bounding boxes, (2, n, 2, 2): per set (halo, then bq) and cube,
    its first and last cell.

    A box is closed and a cell belongs when its centre lies inside, tested
    elementwise on the boxes ``WhitneyDecomposition.boxes`` gives.  The
    cubes of one side share a window shape: the larger box's cell range, at
    most the bitmap.  Each window is cut out of the bitmap so that it holds
    every cell of the cube's larger box, and so of its smaller one; the
    windows' other cells fail the box test.  Both boxes of a batch of cubes
    are labelled in one stacked call.
    """
    domain, h, n = dec.domain, dec.domain.h, len(cubes)
    cubes = np.asarray(cubes, dtype=np.int64)
    out: list = [None] * (2 * n)
    boxes = np.zeros((2, n, 2, 2), dtype=np.int64)
    side = dec.cubes.side[cubes]
    for s in dict.fromkeys(side.tolist()):
        ks = np.flatnonzero(side == s)
        box = np.stack([dec.boxes(cubes[ks], c0),
                        dec.boxes(cubes[ks], 1.1 * c0)])
        lo, hi = box[..., 0::2], box[..., 1::2]  # (box, cube, axis)
        low = np.floor(lo[1] / h - 0.5).astype(np.int64)
        shape = np.minimum((np.ceil(hi[1] / h - 0.5).astype(np.int64) + 1
                            - low).max(0), domain.shape)
        start = np.clip(low, 0, np.subtract(domain.shape, shape))
        centre = dec.centre_cells(cubes[ks]) - start
        ok = []  # per box, cube and window row (column): inside the box
        for a in (0, 1):
            x = (start[:, a, None] + np.arange(shape[a]) + 0.5) * h
            ok.append((x >= lo[:, :, a, None]) & (x <= hi[:, :, a, None]))
        for b in _batches([2 * shape.prod()] * len(ks), _WINDOW_CELLS):
            nb = len(ks[b])
            stack = (_windows(domain.interior, start[b], shape)
                     & ok[0][:, b, :, None] & ok[1][:, b, None, :])
            raw, _ = ndimage.label(stack.reshape(2 * nb, *shape),
                                   structure=_STACK8)
            at = np.tile(centre[b], (2, 1))
            lab = raw[np.arange(2 * nb), at[:, 0], at[:, 1]]
            if not lab.all():  # should not happen
                q = cubes[ks[b][np.flatnonzero(lab == 0)[0] % nb]]
                raise DomainError(
                    f"cube {q} outside its own dilation window")
            keep = raw == lab[:, None, None]
            # per set, its cells as np.argwhere lays them out, and its
            # first and last row (column)
            origin = np.tile(start[b], (2, 1))
            pos = np.concatenate([ks[b], ks[b] + n]).tolist()
            for p, w, o in zip(pos, keep, origin.tolist()):
                out[p] = np.argwhere(w) + o
            for a, seen in enumerate((keep.any(2), keep.any(1))):
                ends = np.stack([seen.argmax(1), seen.shape[1] - 1
                                 - seen[:, ::-1].argmax(1)], axis=1)
                boxes[..., a][:, ks[b]] = (ends + origin[:, a, None]
                                           ).reshape(2, nb, 2)
    return out[:n], out[n:], boxes


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
      V_cubes    - per thin component, the band cubes whose halos bound it
      groups     - tentacle groups (maximal distinct halo collections)
      Um         - band cubes not used by any group
      trails()   - per graph node, the band cubes its radial geodesic meets
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
        self._trails: list[tuple[int, ...]] | None = None
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        dec, dom = self.dec, self.domain
        l_min = 2.0 ** (-self.m)
        l_cap = 2.0 ** (-(self.m - 2))

        self.core_mask = core_mask_at_level(dec, self.m)
        if not self.core_mask[dom.x0]:
            raise DomainError(
                f"level m={self.m} too coarse: base point's cube is smaller "
                f"than {l_min}"
            )

        # the core is a union of whole unflagged cubes: those meeting it
        self.W1 = np.unique(dec.cell_cube[self.core_mask]).tolist()
        # per cube: in W1; the extra last entry answers cell_cube's -1
        self._in_w1 = np.zeros(len(dec.cubes) + 1, dtype=bool)
        self._in_w1[self.W1] = True
        l = dec.cubes.l[self.W1]
        self.P1 = np.asarray(self.W1)[
            (l_min - 1e-12 <= l) & (l < l_cap - 1e-12)].tolist()

        halos, bqs, boxes = _halos_and_bqs(dec, self.P1, self.c0)
        self.halo: dict[int, np.ndarray] = dict(zip(self.P1, halos))
        self.bq: dict[int, np.ndarray] = dict(zip(self.P1, bqs))
        # a band halo holding the base point swallows it: no other halo can
        # cut that cube's bq, which holds the base point too, off it
        x0 = np.array(dom.x0)
        near = ((boxes[0, :, 0] <= x0) & (x0 <= boxes[0, :, 1])).all(1)
        if any((halos[k] == x0).all(1).any() for k in np.flatnonzero(near)):
            raise DomainError("base point swallowed by a blocking "
                              "neighborhood; increase m or decrease c0")

        # pruning: drop band cubes whose neighborhood is blocked by another
        self.P_minus = self._prune(boxes)
        pruned = set(self.P_minus)
        self.P = [i for i in self.P1 if i not in pruned]

        # components of the domain minus the closed halos of the pruned band
        removed = _cells_mask(dom.shape, *(self.halo[i] for i in self.P))
        self.comp_labels = components(dom, removed)
        n_comp = int(self.comp_labels.max()) + 1

        # bounding band cubes per component: the labels next to each halo
        # (halos are interior, so the neighbours stay inside the bitmap), in
        # one pass over the (label, cube) pairs; only the halo cells next to
        # a labelled cell can contribute, which keeps the pass small
        near = ndimage.binary_dilation(self.comp_labels >= 0,
                                       structure=_STRUCT8)
        cells = [self.halo[i][near[tuple(self.halo[i].T)]] for i in self.P]
        owner = np.repeat(np.array(self.P, dtype=np.int64),
                          [len(c) for c in cells])
        cells = np.concatenate(cells) if cells else np.empty((0, 2), int)
        pairs = np.concatenate([
            np.column_stack([self.comp_labels[cells[:, 0] + di,
                                              cells[:, 1] + dj], owner])
            for di, dj in _RING8])
        touch: list[set[int]] = [set() for _ in range(n_comp)]
        for lab, i in np.unique(pairs[pairs[:, 0] >= 0], axis=0).tolist():
            touch[lab].add(i)

        # relabel: thick components are those all of whose incident Whitney
        # cubes are unflagged with l >= 2^-(m-2); the base component is
        # always thick
        thin_cube = dec.cubes.flagged | (dec.cubes.l < l_cap - 1e-12)
        cells = (self.comp_labels >= 0) & (dec.cell_cube >= 0)
        thin = np.zeros(n_comp, dtype=bool)
        thin[self.comp_labels[cells][thin_cube[dec.cell_cube[cells]]]] = True
        thin[0] = False
        self.U_ids: list[int] = np.flatnonzero(~thin).tolist()
        self.V_ids: list[int] = np.flatnonzero(thin).tolist()
        self.V_cubes = [touch[lab] for lab in self.V_ids]

        self._group()

    def _prune(self, boxes: np.ndarray) -> list[int]:
        """Band cubes whose ``bq`` some other band cube's halo cuts off the
        base point's component; ``boxes`` as ``_halos_and_bqs`` gives."""
        band, bqs = self.P1, list(self.bq.values())
        centre = self.dec.centre_cells(band)
        lo, hi = boxes[1, :, 0], boxes[1, :, 1]
        blocked = np.zeros(len(band), dtype=bool)
        for k, raw, n, lab0, origin in _window_cut(
                self.domain, list(self.halo.values()), boxes[0]):
            if n <= 1:
                continue  # disconnects nothing (no halo holds the base point)
            # only a neighbourhood inside the labelled extent can lie off
            # the base label, and not when its centre cell (bq is the
            # component through it) carries that label
            inside = ((lo >= origin) & (hi < np.add(origin, raw.shape))).all(1)
            inside &= ~blocked
            inside[k] = False
            idx = np.flatnonzero(inside)
            ci, cj = (centre[idx] - origin).T
            idx = idx[raw[ci, cj] != lab0].tolist()
            if not idx:
                continue
            # cut off: some bq cells lie off the halo (label 0), and none
            # carries the base label; read in batches of cells small enough
            # to stay in cache
            sizes = [len(bqs[t]) for t in idx]
            for b in _batches(sizes, _WINDOW_CELLS // 4):
                cells = np.concatenate([bqs[t] for t in idx[b]]) - origin
                labs = raw[cells[:, 0], cells[:, 1]]
                first = np.cumsum(sizes[b]) - sizes[b]
                cut = np.logical_or.reduceat(labs > 0, first)
                cut &= ~np.logical_or.reduceat(labs == lab0, first)
                blocked[np.array(idx[b])[cut]] = True
        return [q for q, b in zip(band, blocked) if b]

    def _group(self) -> None:
        # band enumeration: ascending cube index; the j-th cube generates
        # the union of the thin families it bounds
        seen: dict[frozenset[int], int] = {}
        for j, qj in enumerate(self.P):
            fams = [vc for vc in self.V_cubes if qj in vc]
            if fams:
                seen.setdefault(frozenset().union(*fams), j)
        # maximal distinct subfamily covering every thin-bounding cube:
        # drop duplicates (keep the smallest generator), then iteratively
        # drop any family whose cube union is inside the union of the rest
        chosen = sorted((j, cubes) for cubes, j in seen.items())
        changed = True
        while changed:
            changed = False
            for t, (j, cubes) in enumerate(chosen):
                rest = chosen[:t] + chosen[t + 1:]
                if cubes <= set().union(*(cc for _, cc in rest)):
                    chosen.pop(t)
                    changed = True
                    break
        if set().union(*(c for _, c in chosen)) != set().union(*self.V_cubes):
            raise DomainError("tentacle groups do not cover the thin-bounding "
                              "band cubes")

        self.groups: list[TentacleGroup] = [
            TentacleGroup(j, cubes, assigned_cube=min(cubes))
            for j, cubes in chosen
        ]

        # assign each thin component the first group that separates it.  A
        # thin component is connected and lies off every group's halos, so
        # it lies in one component of the domain minus a group's halos, and
        # its first cell tells which (components labels the base one 0)
        dom = self.domain
        cuts = [components(dom, _cells_mask(
                    dom.shape, *(self.halo[q] for q in g.cubes)))
                for g in self.groups]
        labs, first = np.unique(self.comp_labels, return_index=True)
        for vpos, lab in enumerate(self.V_ids):
            cell = np.unravel_index(first[np.searchsorted(labs, lab)],
                                    dom.shape)
            for g, cut in zip(self.groups, cuts):
                if cut[cell]:
                    g.members.append(vpos)
                    break
            else:
                raise DomainError(
                    f"thin component {lab} not separated by any group"
                )
        used = set().union(*(g.cubes for g in self.groups)) if self.groups else set()
        self.Um = [q for q in self.P if q not in used]

    # -- derived sets -------------------------------------------------------

    def component_mask(self, lab: int) -> np.ndarray:
        return self.comp_labels == lab

    def tentacle_mask(self, g: TentacleGroup) -> np.ndarray:
        out = _cells_mask(self.domain.shape, *(self.bq[q] for q in g.cubes))
        for vpos in g.members:
            out |= self.component_mask(self.V_ids[vpos])
        return out

    def overlap_counts(self) -> np.ndarray:
        """Cell-wise count of the covering neighborhoods (band cubes not in
        groups, thick components, tentacles)."""
        counts = np.zeros(self.domain.shape, dtype=np.int32)
        for q in self.Um:
            cells = self.bq[q]
            counts[cells[:, 0], cells[:, 1]] += 1
        # a thick component's 2^-m/100 neighborhood is sub-cell: cell-exactly
        # the component itself (the analytic dilation lives in the ramps)
        for lab in self.U_ids:
            counts += self.component_mask(lab)
        for g in self.groups:
            counts += self.tentacle_mask(g)
        return counts

    def core_fraction(self) -> float:
        return float(self.core_mask.sum() / self.domain.interior.sum())

    def omega_m_mask(self) -> np.ndarray:
        """Union of the thick components (the level-m trimmed domain)."""
        return np.isin(self.comp_labels, self.U_ids)

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

    # -- trails and covers --------------------------------------------------

    def trails(self) -> list[tuple[int, ...]]:
        """Per graph node, the band cubes its radial geodesic meets, in path
        order; a band cube's trail is the nodes whose tuple lists it.  A node
        that adds no cube shares its parent's tuple."""
        if self._trails is None:
            tree = self.qh.radial_tree()
            band = set(self.P1)
            cube_of = self.dec.cell_cube[tuple(self.domain.node_cells.T)]
            cube_of, pred = cube_of.tolist(), tree.pred.tolist()
            trails: list[tuple[int, ...]] = [()] * len(pred)
            for v in np.argsort(tree.dist, kind="stable").tolist():
                t = trails[pred[v]] if pred[v] >= 0 else ()
                q = cube_of[v]
                trails[v] = t + (q,) if q in band and q not in t else t
            self._trails = trails
        return self._trails

    def cover(self, qidx: int) -> tuple[list[int], list[int], np.ndarray]:
        """Cover of a band cube's neighborhood: core cubes meeting it plus
        band cubes whose trail meets it.  Returns (direct, via_trail,
        uncovered cell array); the neighborhood is covered when every cell
        is in a core cube or on some band cube's trail."""
        cells = self.bq[qidx]
        where = tuple(cells.T)
        cubes_here = self.dec.cell_cube[where]
        in_w1 = self._in_w1[cubes_here]
        direct = np.unique(cubes_here[in_w1]).tolist()
        # bq cells are interior, so each one is a graph node
        trails = self.trails()
        rows = [trails[v] for v in self.domain.cell_node[where].tolist()]
        via = sorted(set().union(*rows))
        covered = in_w1 | np.array([bool(r) for r in rows], dtype=bool)
        return direct, via, cells[~covered]

    # -- chains -------------------------------------------------------------

    def chain(self, q1: int, q2: int) -> list[int]:
        """Face-adjacent cube chain following the quasihyperbolic geodesic
        between the two cube centers; symmetric in its arguments."""
        a, b = min(q1, q2), max(q1, q2)
        geo = self.qh.geodesic(*self.dec.centre_cells([a, b]))
        raw = self.dec.cell_cube[tuple(self.domain.node_cells[geo.nodes].T)]
        seq = raw[np.append(True, raw[1:] != raw[:-1])].tolist()
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
        return out if a == q1 else out[::-1]

    def _bridge(self, a: int, b: int) -> list[int] | None:
        """Shortest cube-adjacency path strictly between two cubes (BFS)."""
        adj = self.dec.adjacency
        prev = {a: -1}
        dq = deque([a])
        while dq:
            u = dq.popleft()
            if b in adj[u]:
                return _walk(prev, a, u)[1:]
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    dq.append(v)
        return None

    # -- band neighborhood overlaps -----------------------------------------

    def band_overlap_pairs(self) -> list[tuple[int, int]]:
        """Pairs qa < qb of pruned band cubes with overlapping neighborhoods
        bq: the off-diagonal nonzeros of B B^T for the sparse band x cell
        incidence matrix B."""
        band = self.P
        if not band:
            return []
        ny = self.domain.shape[1]
        cells = np.concatenate([self.bq[q] for q in band])
        rows = np.repeat(np.arange(len(band)), [len(self.bq[q]) for q in band])
        B = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int32),
             (rows, cells[:, 0] * ny + cells[:, 1])),
            shape=(len(band), self.domain.interior.size))
        a, b = sparse.triu(B @ B.T, k=1).nonzero()
        return sorted((band[i], band[j]) for i, j in zip(a, b))


def build_core_tentacle(
    dec: WhitneyDecomposition, qh: QhMetric, m: int, c0: float = 10.0
) -> CoreTentacleDecomposition:
    return CoreTentacleDecomposition(dec, qh, m, c0)


def build_levels(dec: WhitneyDecomposition, qh: QhMetric, m_list,
                 c0: float = 10.0):
    """Yield (m, decomposition, or why it degenerates) per level of
    ``m_list``, each built when reached.  Iterating it, error_decay drops
    each level once the next is built; report.run keeps every level in a
    list, because its decompose and approx stages both read them."""
    for m in m_list:
        try:
            yield m, build_core_tentacle(dec, qh, m, c0)
        except DomainError as exc:
            yield m, str(exc)


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
    rest = ct.domain.interior & ~_cells_mask(
        ct.domain.shape, *(ct.halo[q] for q in ct.P))
    labeled = ct.comp_labels >= 0
    return bool(np.array_equal(rest, labeled))


def verify_remark_inclusion(ct: CoreTentacleDecomposition) -> bool | None:
    """Core at a coarse level M with 2^-M > 10 c0 2^-m is inside the union
    of thick components.  None when no such level hosts the base point."""
    target = 10.0 * ct.c0 * 2.0 ** (-ct.m)
    M = int(np.floor(-np.log2(target * (1 + 1e-9))))
    if M < 0:
        return None
    coarse_core = core_mask_at_level(ct.dec, M)
    if not coarse_core[ct.domain.x0]:
        return None
    omega_m = ct.omega_m_mask()
    return bool((~coarse_core | omega_m).all())


def verify_distance_lemmas(ct: CoreTentacleDecomposition) -> PropertyReport:
    """Max quasihyperbolic distances over the pair classes used by the
    oscillation estimates: covering cubes with intersecting trails; band
    cubes with overlapping neighborhoods; group cubes against their assigned
    cube."""
    rep = PropertyReport("distance_lemmas", 0.0, resolution=ct.domain.h)
    # band cube pairs (qa < qb) on one radial trail, from the distinct trails
    linked = {pair for row in set(ct.trails())
              for pair in combinations(sorted(row), 2)}

    # (class, second cube) queries by first cube: trail-linked covering
    # pairs, overlapping band neighborhoods, group cubes to assigned cube
    queries = defaultdict(list)
    for q in ct.P:
        _, via, _ = ct.cover(q)
        for qa, qb in combinations(via, 2):
            if (qa, qb) in linked:
                queries[qa].append((0, qb))
    for qa, qb in ct.band_overlap_pairs():
        queries[qa].append((1, qb))
    for g in ct.groups:
        for q in g.cubes:
            if q != g.assigned_cube:
                queries[q].append((2, g.assigned_cube))

    # one k-field per first cube, read at all its targets, then dropped
    # (the field comes from the first cube: the sums are not symmetric).
    # It grows from the largest value so far until every target cube has a
    # reached node, whose minimum is then exact; a path through the base
    # point bounds the limit needed.
    root = ct.qh.radial_tree().dist
    # a cube's graph nodes, row-major: its cells are interior
    cell_node = ct.domain.cell_node
    cube_nodes = cache(lambda q: cell_node[tuple(ct.dec.cube_cells(q).T)])
    maxima = [0.0, 0.0, 0.0]
    for qa, targets in queries.items():
        sources = cube_nodes(qa)
        nodes = [cube_nodes(qb) for _, qb in targets]
        starts = np.cumsum([0] + [len(v) for v in nodes[:-1]])
        nodes = np.concatenate(nodes)
        cap = root[sources].min() + np.minimum.reduceat(root[nodes], starts).max()
        for limit in search_limits(max(maxima), cap):
            field = ct.qh.min_field(sources, limit * (1 + 1e-9))
            dist = np.minimum.reduceat(field[nodes], starts)
            if np.isfinite(dist).all():
                break
        for (cls, _), value in zip(targets, dist.tolist()):
            maxima[cls] = max(maxima[cls], value)
    max_trail, max_band, max_group = maxima

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
    pairs: set[tuple[int, int]] = set(ct.band_overlap_pairs())
    tmasks = [ct.tentacle_mask(g) for g in ct.groups]
    for q in ct.P:
        direct, via, _ = ct.cover(q)
        cells = tuple(ct.bq[q].T)
        meets = set(ct.dec.cell_cube[cells].tolist())
        partners = (set(direct) | set(via)) & meets
        partners |= {g.assigned_cube for g, tm in zip(ct.groups, tmasks)
                     if tm[cells].any()}
        pairs |= {(min(q, qp), max(q, qp)) for qp in partners - {q}}
    for (ga, ta), (gb, tb) in combinations(zip(ct.groups, tmasks), 2):
        qa, qb = ga.assigned_cube, gb.assigned_cube
        if qa != qb and (ta & tb).any():
            pairs.add((min(qa, qb), max(qa, qb)))
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
