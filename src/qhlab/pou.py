"""Smooth partition of unity subordinate to the core/tentacle cover.

Every bump is assembled from closed-form tensor box bumps, so values and
all partial derivatives up to order 3 are evaluated analytically at any
point -- no numeric convolution and no grid dependence.  Each covered set is
decomposed into disjoint axis-aligned rectangles; the set's raw bump is the
complemented product 1 - prod(1 - b_rect) of per-rectangle plateau bumps,
which is exactly 1 on the set, supported in the rectangles' dilations, and
smooth.

The 1-D ramp is g(t) = f(t) / (f(t) + f(1 - t)) with f(t) = exp(-1/t):
identically 0 for t <= 0, identically 1 for t >= 1, C-infinity in between
with closed-form derivatives.  Ramp widths scale with the level (2^-m), so
the derivative bounds grow like 2^(m |alpha|).

Three bump families mirror the cover:
  psi  - per unused band cube Q: 1 on the cube's blocking neighborhood,
         supported in (a half-cell of) the 11/10-dilated concentric box;
  phi  - per tentacle group: 1 on the member components and the group cubes'
         blocking neighborhoods, supported in their 2^-m/100-neighborhoods
         and 11/10-dilated boxes;
  xi   - per thick component U: 1 on U, supported in B(U, 2^-m/100).
The normalized partition divides each raw bump by the total sum.

A box is one row of 8 profile parameters: lo, hi, w_lo, w_hi of its x
profile (0 -> 1 over [lo - w_lo, lo], 1 on [lo, hi], 1 -> 0 over
[hi, hi + w_hi]), then of its y profile.  A hat's boxes are an (n, 8)
array (``SetBump.boxes``), built for all hats of a level in array passes:
the rectangle covers of every cube's blocking neighborhood and of every
component (``rectangle_cover``), and the ramp widths clipped elementwise.

Evaluation engine (``_hat_jets``): all hats of a partition are evaluated
at once over a table of (hat, point, box) pairs, the point strictly inside
the box support.  The points are bucketed by domain cell, so finding the
pairs costs what the pairs found cost.  The distinct profiles of each axis
are found by sorting the boxes' parameter rows (``_Profiles``); each is
evaluated once on the points' distinct coordinates inside its support, with
one ``_plateau`` call per derivative order for all profiles, and every pair
gathers its box factors from these profile tables.  The table is built in
chunks of whole (hat, bucket row) groups, about ``_POINT_BLOCK`` candidate
pairs each: a point lies in one bucket row, so every (hat, point) group is
whole in its chunk.  Each chunk is folded in one pass, rank by rank (the
r-th box acting on each (hat, point) pair, in box order), so every jet is
bitwise that of a box-by-box loop.  A (hat, point) group whose point lies
in the closed plateau of one of its boxes is a unit group: that box alone
fixes the jet at exactly (1.0, -0.0, ...), the loop's result (see
``_fold``), so it is written without gathering a factor and only the other
groups are folded.  ``sum_jet``, the approximant's assembly and a single
set bump all take the engine's chunks, and sums over hats are accumulated
with ``np.add.at`` in hat order.
``measured_sup`` probes a normalized hat once for every alpha, in one
engine pass over its probe points that yields both the hat sum and the
hat's own jet, and keeps the sups in a memo owned by the partition, keyed
by hat position, which a new partition starts empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .decomposition import CoreTentacleDecomposition, rectangle_cover
from .fixtures import multi_indices
from .grid import DomainError

KMAX = 3
ALPHAS = multi_indices(KMAX)

Jet = dict  # alpha -> ndarray


def _ramp_inside(t: np.ndarray, d: int) -> np.ndarray:
    """Ramp derivatives on (0, 1) via the numerically stable logistic form
    g(t) = sigma(z(t)) with z = 1/t - 1/(1-t) and sigma(z) = 1/(1+e^z):
    the exponential is only ever taken of a non-positive argument, so large
    |z| underflows to 0/1 instead of overflowing."""
    t = np.maximum(t, 1e-50)  # sigma is 0 below: no 0 * inf from 1/t**4
    z = 1.0 / t - 1.0 / (1.0 - t)
    ez = np.exp(-np.abs(z))
    sig = np.where(z > 0, ez / (1.0 + ez), 1.0 / (1.0 + ez))
    if d == 0:
        return sig
    s1 = -sig * (1.0 - sig)  # d sigma / dz
    z1 = -1.0 / t**2 - 1.0 / (1.0 - t) ** 2
    if d == 1:
        return s1 * z1
    s2 = s1 * (1.0 - 2.0 * sig)
    z2 = 2.0 / t**3 - 2.0 / (1.0 - t) ** 3
    if d == 2:
        return s2 * z1**2 + s1 * z2
    s3 = s1 * (1.0 - 6.0 * sig + 6.0 * sig**2)
    z3 = -6.0 / t**4 - 6.0 / (1.0 - t) ** 4
    return s3 * z1**3 + 3.0 * s2 * z1 * z2 + s1 * z3


@lru_cache(maxsize=1)
def ramp_derivative_maxima() -> tuple[float, ...]:
    """sup |g^(d)| on [0, 1] by dense sampling (g is fixed, so this is a
    constant of the construction)."""
    tt = np.linspace(1e-9, 1 - 1e-9, 20001)
    return tuple(float(np.abs(_ramp_inside(tt, d)).max())
                 for d in range(KMAX + 1))


def _ramp(t: np.ndarray, d: int) -> np.ndarray:
    """d-th derivative of the unit ramp at t (0 below 0, 1 above 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = (t > 0) & (t < 1)
    if d == 0:
        out[t >= 1] = 1.0
    if inside.any():
        out[inside] = _ramp_inside(t[inside], d)
    return out


def _plateau(t, lo, hi, w_lo, w_hi, up_scale, down_scale, d: int
             ) -> np.ndarray:
    """d-th derivative of plateau profiles at t; the parameters are scalars
    or arrays matching t, with up_scale = w_lo**d and
    down_scale = (-1/w_hi)**d.  Both ramps take one ``_ramp`` call."""
    n = len(t)
    ramps = _ramp(np.concatenate([(t - (lo - w_lo)) / w_lo,
                                  ((hi + w_hi) - t) / w_hi]), d)
    out = np.where(t <= lo, ramps[:n] / up_scale, 0.0 if d else 1.0)
    return np.where(t >= hi, ramps[n:] * down_scale, out)


def _supports(rows: np.ndarray) -> np.ndarray:
    """Supports of parameter rows, axis by axis: (n, 4) profile rows (lo,
    hi, w_lo, w_hi) give (n, 2) rows (lo - w_lo, hi + w_hi), and (n, 8) box
    rows give (x0, x1, y0, y1)."""
    lo, hi, w_lo, w_hi = (rows[:, k::4] for k in range(4))
    return np.stack([lo - w_lo, hi + w_hi], axis=2).reshape(len(rows), -1)


@lru_cache(maxsize=None)
def _leibniz(alphas: tuple) -> tuple:
    """Per alpha, the terms (c, beta, alpha - beta) of the Leibniz rule."""
    return tuple((a, tuple((comb(a[0], b1) * comb(a[1], b2), (b1, b2),
                            (a[0] - b1, a[1] - b2))
                           for b1 in range(a[0] + 1)
                           for b2 in range(a[1] + 1)))
                 for a in alphas)


def jet_product(j1: Jet, j2: Jet, alphas=ALPHAS) -> Jet:
    """Jet of the product, each alpha summed term by term from 0.0 in the
    order of ``_leibniz`` (a factor c = 1 is exact, so it is skipped)."""
    out = {}
    for a, terms in _leibniz(tuple(alphas)):
        acc = 0.0
        for c, b, rest in terms:
            term = j1[b] * j2[rest] if c == 1 else c * j1[b] * j2[rest]
            if isinstance(acc, float):
                acc = acc + term
            else:
                acc += term
        out[a] = acc
    return out


def jet_quotient(num: Jet, den: Jet, alphas=ALPHAS) -> Jet:
    """Jet of num/den, solved triangularly from the Leibniz identity."""
    out: Jet = {}
    for a in alphas:  # graded order: lower |a| first
        acc = num[a]
        for b1 in range(a[0] + 1):
            for b2 in range(a[1] + 1):
                if (b1, b2) == a:
                    continue
                c = comb(a[0], b1) * comb(a[1], b2)
                acc = acc - c * out[(b1, b2)] * den[(a[0] - b1, a[1] - b2)]
        out[a] = acc / den[(0, 0)]
    return out


def jet_zero(shape, alphas=ALPHAS) -> Jet:
    return {a: np.zeros(shape) for a in alphas}


def jet_one(shape, alphas=ALPHAS) -> Jet:
    """Jet of the constant 1."""
    out = jet_zero(shape, alphas)
    out[(0, 0)] = np.ones(shape)
    return out


def add_jet(total: Jet, points: np.ndarray, jet: Jet) -> None:
    """total[a][points] += jet[a] one entry after another (``np.add.at``),
    so a sum accumulated over hats in hat order is bitwise the per-hat
    ``+=`` of the same jets."""
    for a, acc in total.items():
        np.add.at(acc, points, jet[a])


def _one_minus(acc: Jet) -> Jet:
    """Jet of 1 - f from the jet of f, in place."""
    for a, v in acc.items():
        if a == (0, 0):
            np.subtract(1.0, v, out=v)
        else:
            np.negative(v, out=v)
    return acc


# Candidate (hat, point, box) pairs per chunk of the pair table, and
# profile values per ``_plateau`` call: bounds the engine's temporaries
# whatever the number of hats and points.
_POINT_BLOCK = 1 << 13

# Most buckets per axis of the pair search.
_MAX_BUCKETS = 1024
_PROBES_PER_RAMP = 6  # Hat.probe_points inside each ramp band, per axis


class _Profiles:
    """The distinct profiles of one axis of a box list, found from its
    (n, 4) parameter rows (lo, hi, w_lo, w_hi): parameters, supports and
    ramp scales as arrays, and each box's profile index.  The ramp scales
    are Python powers of each distinct profile's widths, so that every value
    is bitwise the one a box-by-box evaluation computes."""

    def __init__(self, params: np.ndarray):
        # the rows sorted, each distinct one numbered in that order
        by = np.lexsort(params.T[::-1])
        ordered = params[by]
        new = np.ones(len(by), dtype=bool)
        new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        self.of_box = np.empty(len(by), dtype=np.int64)
        self.of_box[by] = np.cumsum(new) - 1
        distinct = ordered[new]
        self.params = tuple(distinct.T)
        self.support = _supports(distinct)
        w_lo, w_hi = self.params[2:]
        self.scales = [(np.array([w ** d for w in w_lo.tolist()]),
                        np.array([(-1.0 / w) ** d for w in w_hi.tolist()]))
                       for d in range(KMAX + 1)]

    def table(self, t: np.ndarray, used: np.ndarray, orders, most: int):
        """Every used profile on the distinct coordinates of the points t
        strictly inside its support, with one ``_plateau`` call per order:
        the value of profile p at t[i] is values[d][start[p] + at[i]].
        None if that is more than ``most`` values (see ``_hat_jets``)."""
        coords = np.unique(t)
        lo = np.searchsorted(coords, self.support[used, 0], side="right")
        hi = np.searchsorted(coords, self.support[used, 1], side="left")
        n = np.maximum(hi - lo, 0)
        if n.sum() > most:
            return None
        offset = np.cumsum(n) - n
        start = np.zeros(len(self.support), dtype=np.int64)
        start[used] = offset - lo
        values = self._values(coords[np.repeat(lo - offset, n)
                                     + np.arange(n.sum())],
                              np.repeat(used, n), orders)
        return np.searchsorted(coords, t).astype(np.int32), start, values

    def factors(self, table, box: np.ndarray, point: np.ndarray,
                t: np.ndarray, orders) -> dict:
        """Each box's profile at its point's coordinate t[point], per order:
        gathered from the table, or evaluated pair by pair without one."""
        if table is None:
            return self._values(t[point], self.of_box[box], orders)
        at, start, values = table
        i = start[self.of_box[box]] + at[point]
        return {d: v[i] for d, v in values.items()}

    def _values(self, t: np.ndarray, prof: np.ndarray, orders) -> dict:
        """Profiles prof at t, one ``_plateau`` call per order and per
        ``_POINT_BLOCK`` values."""
        out = {d: np.empty(len(t)) for d in orders}
        for lo in range(0, len(t), _POINT_BLOCK):
            at = slice(lo, lo + _POINT_BLOCK)
            p = prof[at]
            params = [v[p] for v in self.params]
            for d in orders:
                out[d][at] = _plateau(t[at], *params, self.scales[d][0][p],
                                      self.scales[d][1][p], d)
        return out


class _HatBoxes:
    """The boxes of a sequence of hats, given as each hat's (n, 8) box rows,
    hat after hat: each box's hat, support, plateau (x lo, x hi, y lo,
    y hi) and per-axis profile index."""

    def __init__(self, hats: list[np.ndarray]):
        boxes = np.concatenate(hats)
        self.hat = np.repeat(np.arange(len(hats)), [len(h) for h in hats])
        self.support = _supports(boxes)
        self.plateau = boxes[:, [0, 1, 4, 5]]
        self.axes = (_Profiles(boxes[:, :4]), _Profiles(boxes[:, 4:]))


def _bucket_runs(support: np.ndarray, x: np.ndarray, y: np.ndarray,
                 cell: float):
    """Pair search: bucket the points by square cells of side ``cell`` (at
    most ``_MAX_BUCKETS`` per axis) and cover each box support by one run of
    bucket-sorted points per bucket row.  Returns the points' bucket order
    and, per run, its box, bucket row, first point (in bucket order) and
    length; every point strictly inside a support lies in one of its box's
    runs, because the bucket index is monotone in the coordinate."""
    ox, oy = x.min(), y.min()
    cell = max(cell, (x.max() - ox) / _MAX_BUCKETS,
               (y.max() - oy) / _MAX_BUCKETS)
    bucket = ((x - ox) / cell).astype(np.int64)
    bj = ((y - oy) / cell).astype(np.int64)
    ni, nj = int(bucket.max()) + 1, int(bj.max()) + 1
    bucket *= nj
    bucket += bj
    del bj
    order = np.argsort(bucket, kind="stable")
    start = np.zeros(ni * nj + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket, minlength=ni * nj), out=start[1:])
    i0, i1 = (np.floor((support[:, c] - ox) / cell) for c in (0, 1))
    j0, j1 = (np.floor((support[:, c] - oy) / cell) for c in (2, 3))
    live = np.flatnonzero((i1 >= 0) & (i0 < ni) & (j1 >= 0) & (j0 < nj))
    i0, i1, j0, j1 = (np.clip(v[live], 0, top).astype(np.int64)
                      for v, top in ((i0, ni - 1), (i1, ni - 1),
                                     (j0, nj - 1), (j1, nj - 1)))
    rows = i1 - i0 + 1
    row = np.repeat(i0, rows) + np.arange(rows.sum()) - np.repeat(
        np.cumsum(rows) - rows, rows)
    first = start[row * nj + np.repeat(j0, rows)]
    length = start[row * nj + np.repeat(j1, rows) + 1] - first
    return order, np.repeat(live, rows), row, first, length


def _hat_jets(boxes: _HatBoxes, x: np.ndarray, y: np.ndarray, alphas,
              cell: float):
    """Raw jets 1 - prod(1 - b) of the hats at the 1-D points x, y, as
    chunks (hats, points, jets) over the (hat, point) pairs where some box
    of the hat acts (the point is strictly inside its support); the chunks
    come in hat order and each is sorted by hat.

    A point lies in one bucket row, so the runs of ``_bucket_runs`` of one
    (hat, bucket row) hold every box of that hat acting on its points.  The
    runs are ordered by hat, then row, box order kept within each group, and
    the (hat, point, box) table is built from whole groups at a time: a
    chunk is cut where the group changes, once it holds about
    ``_POINT_BLOCK`` candidate pairs, so it may exceed that by one group
    (and when every point shares one bucket row, a hat's pairs make one
    chunk).  Each chunk is sorted by hat, then point, then box, and folded
    whole by ``_fold``, which writes the unit groups (a point in the closed
    plateau, lo <= t <= hi on both axes, of one of the group's boxes)
    directly and folds the rest.  Each profile is evaluated once on the
    distinct coordinates inside its support, and the pairs gather their box
    factors from these profile tables.  On an axis where such a table would
    outgrow the candidate pairs (points whose coordinates seldom repeat,
    spread far beyond a few small boxes), each pair's factor is evaluated
    directly; grid and probe points share their coordinates, and on the
    gallery fixtures they never take that path.
    """
    if (0, 0) not in alphas:  # every product after the first reads values
        raise DomainError(f"hat jets need the (0, 0) entry, got {alphas}")
    if not len(x):
        return
    orders = sorted({c for a in alphas for c in a})
    order, rbox, row, first, length = _bucket_runs(boxes.support, x, y, cell)
    some = np.flatnonzero(length > 0)
    if not len(some):
        return
    # the runs by hat, then row; a stable sort keeps box order in each group
    by = some[np.lexsort((row[some], boxes.hat[rbox[some]]))]
    rbox, row, first, length = rbox[by], row[by], first[by], length[by]
    rhat = boxes.hat[rbox]
    used = np.unique(rbox)
    tables = [axis.table(t, np.unique(axis.of_box[used]), orders,
                         length.sum()) for axis, t in zip(boxes.axes, (x, y))]
    # cut at the first (hat, row) group starting past each multiple of the
    # budget; a run covers the keys hat * n + (position in bucket order)
    group = np.flatnonzero(np.diff(rhat) | np.diff(row)) + 1
    past = (np.cumsum(length) - length)[group] // _POINT_BLOCK
    cuts = group[np.diff(past, prepend=0) > 0]
    n, s = len(x), boxes.support
    for r0, r1 in zip([0, *cuts], [*cuts, len(rbox)]):
        m = length[r0:r1]
        key = (np.repeat(rhat[r0:r1] * n + first[r0:r1] - (np.cumsum(m) - m),
                         m) + np.arange(m.sum()))
        box = np.repeat(rbox[r0:r1], m)
        point = order[key % n]
        px, py = x[point], y[point]
        keep = np.flatnonzero((px > s[box, 0]) & (px < s[box, 1])
                              & (py > s[box, 2]) & (py < s[box, 3]))
        keep = keep[np.argsort(key[keep], kind="stable")]
        point, box, px, py = point[keep], box[keep], px[keep], py[keep]
        del key, keep
        p = boxes.plateau[box]
        flat = ((px >= p[:, 0]) & (px <= p[:, 1])
                & (py >= p[:, 2]) & (py <= p[:, 3]))
        del px, py, p
        hat = boxes.hat[box]

        def one_minus_box(sel):
            """Jet of 1 - b at the pairs sel, b the pair's box."""
            fx, fy = (axis.factors(table, box[sel], point[sel], t, orders)
                      for axis, table, t in zip(boxes.axes, tables, (x, y)))
            comp = {a: -(fx[a[0]] * fy[a[1]]) for a in alphas}
            comp[(0, 0)] = 1.0 - fx[0] * fy[0]
            return comp

        if len(point):
            heads, jets = _fold(hat, point, flat, one_minus_box, alphas)
            yield hat[heads], point[heads], jets


def _fold(hat, point, flat, one_minus_box, alphas):
    """1 - prod(1 - b) of every (hat, point) group of the sorted pairs, with
    ``one_minus_box(pairs)`` the jets of 1 - b: returns the index of each
    group's first pair and the groups' jets.  1 - b is multiplied in rank by
    rank, the r-th box acting on each group in box order, so every group sees
    the operations of a box-by-box loop in the same order.

    A group holding a ``flat`` pair (its point in the box's closed plateau)
    is a unit group and gathers no factor: its product stays +0.0 in every
    entry, which is what the loop computes.  On the closed plateau that box
    is exactly 1 with derivatives +-0 (at lo and hi the ramp argument is 1
    up to rounding, where sigma rounds to 1.0), so its 1 - b jet is +-0,
    every Leibniz term of the product holds a factor of it, and each entry,
    summed from 0.0, is +0.0 from that rank on.  The group's jet is then
    (1.0, -0.0, ...)."""
    new = np.ones(len(point), dtype=bool)
    new[1:] = (hat[1:] != hat[:-1]) | (point[1:] != point[:-1])
    heads = np.flatnonzero(new)
    gid = np.cumsum(new) - 1
    unit = np.zeros(len(heads), dtype=bool)
    unit[gid[flat]] = True
    acc = jet_zero(len(heads), alphas)
    pairs = np.flatnonzero(~unit[gid])  # the other groups' pairs
    if len(pairs):
        gid = gid[pairs]
        rank = pairs - heads[gid]
        # the pairs by rank: rank 0 is every group's first pair, in order
        by = np.argsort(rank, kind="stable")
        ends = np.cumsum(np.bincount(rank))
        gid = gid[by]
        comp = one_minus_box(pairs[by])
        # rank 0 times the constant 1: each entry from 0.0, as jet_product
        # sums
        dst = gid[:ends[0]]
        for a, c in comp.items():
            acc[a][dst] = 0.0 + c[:ends[0]]
        for r0, r1 in zip(ends[:-1], ends[1:]):
            dst = gid[r0:r1]
            prod = jet_product({a: acc[a][dst] for a in alphas},
                               {a: c[r0:r1] for a, c in comp.items()},
                               alphas)
            for a in alphas:
                acc[a][dst] = prod[a]
    return heads, _one_minus(acc)


class SetBump:
    """Smooth bump equal to 1 on a cell set, supported in its dilation:
    1 - prod(1 - b) over its boxes, evaluated by the partition's engine
    (``_hat_jets``) as a partition of one hat, whose jets are bitwise
    those of a box-by-box loop.  ``boxes`` holds the boxes' (n, 8)
    parameter rows."""

    def __init__(self, boxes: np.ndarray):
        if not len(boxes):
            raise DomainError("bump over an empty rectangle list")
        self.boxes = boxes

    @cached_property
    def bbox(self) -> tuple:
        """(x0, x1, y0, y1) of the union of the box supports."""
        s = _supports(self.boxes)
        return (s[:, 0].min(), s[:, 1].max(), s[:, 2].min(), s[:, 3].max())

    def jet(self, x: np.ndarray, y: np.ndarray, alphas=ALPHAS) -> Jet:
        """1 - prod(1 - b) over the boxes at every point."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fx, fy = x.ravel(), y.ravel()
        x0, x1, y0, y1 = self.bbox
        idx = np.flatnonzero((fx > x0) & (fx < x1) & (fy > y0) & (fy < y1))
        out = _one_minus(jet_one(x.size, alphas))
        table = _HatBoxes([self.boxes])
        s = table.support  # buckets of the narrowest support side
        cell = min((s[:, 1] - s[:, 0]).min(), (s[:, 3] - s[:, 2]).min())
        for _, pts, hj in _hat_jets(table, fx[idx], fy[idx], alphas, cell):
            for a in alphas:
                out[a][idx[pts]] = hj[a]
        return {a: v.reshape(x.shape) for a, v in out.items()}


@dataclass
class Hat:
    """One raw (un-normalized) member of the partition."""

    kind: str  # "psi" | "phi" | "xi"
    key: int  # cube index / group position / thick-component position
    donor: int  # cube whose polynomial a psi or phi hat carries; -1 for xi
    bump: SetBump
    allowed_rects: np.ndarray  # rows (x0, x1, y0, y1), for (iv) checks

    def jet(self, x, y, alphas=ALPHAS) -> Jet:
        return self.bump.jet(x, y, alphas)

    def probe_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Points straddling every ramp band of every box, _PROBES_PER_RAMP
        inside each ramp (for sup-norm measurement of sub-grid ramps): per
        box, the ij grid of its x and y probe coordinates, box after box."""
        def axis(rows: np.ndarray) -> np.ndarray:
            (s0, s1), (lo, hi) = _supports(rows).T, rows[:, :2].T
            n = _PROBES_PER_RAMP + 2
            return np.hstack([np.linspace(s0, lo, n, axis=1)[:, 1:-1],
                              np.linspace(hi, s1, n, axis=1)[:, 1:-1],
                              np.linspace(lo, hi, 4, axis=1)])

        ax, ay = axis(self.bump.boxes[:, :4]), axis(self.bump.boxes[:, 4:])
        k = ax.shape[1]
        return np.repeat(ax, k, axis=1).ravel(), np.tile(ay, k).ravel()


def _split(rows: np.ndarray, owner: np.ndarray, n: int) -> list:
    """The rows of each of n owners, from rows sorted by owner."""
    return np.split(rows, np.searchsorted(owner, np.arange(1, n)))


def _cube_boxes(ct: CoreTentacleDecomposition, cubes: list[int]) -> list:
    """Per cube, the boxes of its blocking neighborhood's rectangles, with
    per-side ramps clipped to its 11/10-dilated box, never exceeding it by
    more than half a domain cell and never thinner than h/4; and that box
    as the one row of the allowed region."""
    if not cubes:
        return []
    h = ct.domain.h
    owner, i0, j0, ni, nj = rectangle_cover([ct.halo[q] for q in cubes],
                                            ct.domain.shape)
    allowed = ct.dec.boxes(cubes, 1.1 * ct.c0)
    ramp = (0.05 * ct.c0 * ct.dec.cubes.l[cubes])[owner]

    def w(gap):
        return np.maximum(np.minimum(ramp, gap + 0.5 * h), 0.25 * h)

    x0, x1, y0, y1 = i0 * h, (i0 + ni) * h, j0 * h, (j0 + nj) * h
    ax0, ax1, ay0, ay1 = allowed[owner].T
    params = np.column_stack([x0, x1, w(x0 - ax0), w(ax1 - x1),
                              y0, y1, w(y0 - ay0), w(ay1 - y1)])
    return list(zip(_split(params, owner, len(cubes)), allowed[:, None]))


def _component_boxes(ct: CoreTentacleDecomposition, labels: list[int],
                     delta: float) -> list:
    """Per component label, the boxes of its rectangles with ramps
    delta/sqrt(2), and the rectangles grown by delta as its allowed
    region."""
    h = ct.domain.h
    owner, i0, j0, ni, nj = rectangle_cover(
        [np.argwhere(ct.component_mask(lab)) for lab in labels],
        ct.domain.shape)
    x0, x1, y0, y1 = i0 * h, (i0 + ni) * h, j0 * h, (j0 + nj) * h
    ramp = np.full(len(x0), delta / np.sqrt(2.0))
    params = np.column_stack([x0, x1, ramp, ramp, y0, y1, ramp, ramp])
    grown = np.column_stack([x0 - delta, x1 + delta, y0 - delta, y1 + delta])
    return list(zip(_split(params, owner, len(labels)),
                    _split(grown, owner, len(labels))))


class PartitionOfUnity:
    """All hats of a level-m decomposition plus the normalizing sum."""

    def __init__(self, ct: CoreTentacleDecomposition, kmax: int = KMAX):
        if kmax > KMAX:
            raise DomainError(f"derivative order capped at {KMAX}")
        self.ct = ct
        self.domain = ct.domain
        self.alphas = multi_indices(kmax)
        self.delta = 2.0 ** (-ct.m) / 100.0
        cubes = list(dict.fromkeys(
            [*ct.Um, *(q for g in ct.groups for q in sorted(g.cubes))]))
        labels = list(dict.fromkeys(
            [*(ct.V_ids[v] for g in ct.groups for v in g.members),
             *ct.U_ids]))
        cube_part = dict(zip(cubes, _cube_boxes(ct, cubes)))
        component_part = dict(zip(labels,
                                  _component_boxes(ct, labels, self.delta)))

        def new_hat(kind: str, key: int, donor: int, parts) -> Hat:
            return Hat(kind, key, donor,
                       SetBump(np.concatenate([b for b, _ in parts])),
                       np.concatenate([a for _, a in parts]))

        self.hats = [new_hat("psi", q, q, [cube_part[q]]) for q in ct.Um]
        for gi, g in enumerate(ct.groups):
            parts = [cube_part[q] for q in sorted(g.cubes)]
            parts += [component_part[ct.V_ids[v]] for v in g.members]
            self.hats.append(new_hat("phi", gi, g.assigned_cube, parts))
        self.hats += [new_hat("xi", ui, -1, [component_part[lab]])
                      for ui, lab in enumerate(ct.U_ids)]

        self._positions = {id(hat): i for i, hat in enumerate(self.hats)}
        self._boxes: _HatBoxes | None = None  # built at the first evaluation
        # measured_sup memo: hat position -> {alpha: sup}
        self._sups: dict[int, dict] = {}

    # -- evaluation ---------------------------------------------------------

    def sum_jet(self, x: np.ndarray, y: np.ndarray, alphas=None) -> Jet:
        """Jet of the raw hat-sum S (>= 1 on the domain)."""
        alphas = alphas or self.alphas
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = jet_zero(x.size, alphas)
        for _, pts, hj in self.hat_jets(x.ravel(), y.ravel(), alphas):
            add_jet(total, pts, hj)
        return {a: v.reshape(x.shape) for a, v in total.items()}

    def hat_jets(self, x: np.ndarray, y: np.ndarray, alphas):
        """Raw jets of all hats at the 1-D points, every hat evaluated once:
        chunks (hat positions, point indices, jets) in hat order, over the
        (hat, point) pairs where some box of the hat acts (elsewhere the
        jet is 0).  See ``_hat_jets``."""
        if self._boxes is None:
            self._boxes = _HatBoxes([hat.bump.boxes for hat in self.hats])
        return _hat_jets(self._boxes, x, y, alphas, self.domain.h)

    # -- measurements -------------------------------------------------------

    def measured_sup(self, hat: Hat, alpha: tuple[int, int]) -> float:
        """sup |grad^alpha (hat / S)| over ramp-straddling probe points
        (accurate even when ramps are narrower than any evaluation grid).
        One probe, a single engine pass (``_probe_jet``), gives every
        alpha's sup, kept for the partition's life."""
        pos = self._positions.get(id(hat))
        if pos is None:
            raise DomainError("hat is not a member of this partition")
        if pos not in self._sups:
            jet = self._probe_jet(pos)
            self._sups[pos] = {a: float(np.abs(v).max(initial=0.0))
                               for a, v in jet.items()}
        return self._sups[pos][alpha]

    def _probe_jet(self, pos: int) -> Jet:
        """The normalized jet of the hat at position pos at its probe points
        in interior cells, from one engine pass: S accumulated as
        ``sum_jet`` does, and the hat's own groups taken into the jet that
        ``SetBump.jet`` gives where none of its boxes acts, so both are
        bitwise the box loop's."""
        x, y = self.hats[pos].probe_points()
        ok = self.domain.interior[
            np.clip((x / self.domain.h).astype(int), 0,
                    self.domain.shape[0] - 1),
            np.clip((y / self.domain.h).astype(int), 0,
                    self.domain.shape[1] - 1),
        ]
        x, y = x[ok], y[ok]
        total = jet_zero(len(x), self.alphas)
        own = _one_minus(jet_one(len(x), self.alphas))
        for hats, pts, hj in self.hat_jets(x, y, self.alphas):
            add_jet(total, pts, hj)
            mine = hats == pos
            for a in self.alphas:
                own[a][pts[mine]] = hj[a][mine]
        return jet_quotient(own, total, self.alphas)

    def support_violation(self, hat: Hat, x: np.ndarray, y: np.ndarray,
                          tol: float = 1e-12) -> int:
        """Number of points where the hat is positive outside its allowed
        support region."""
        val = hat.jet(x, y, alphas=[(0, 0)])[(0, 0)]
        inside = np.zeros(len(x), dtype=bool)
        for x0, x1, y0, y1 in hat.allowed_rects:
            inside |= (x >= x0 - tol) & (x <= x1 + tol) & \
                      (y >= y0 - tol) & (y <= y1 + tol)
        return int(((val > tol) & ~inside).sum())


def build_partition(ct: CoreTentacleDecomposition, kmax: int = KMAX
                    ) -> PartitionOfUnity:
    return PartitionOfUnity(ct, kmax)
