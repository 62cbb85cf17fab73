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

Evaluation engine: a set bump evaluates its boxes only at the points inside
its bounding box.  In fixed-size point blocks it finds the (point, box)
pairs, evaluates the profile ramps of all pairs with one ``_ramp`` call per
derivative order, and folds the product rank by rank (the r-th box acting on
each point, in box order), so its jets are bitwise those of a box-by-box
loop.  ``PartitionOfUnity.local_jets`` evaluates each hat once per point
set; ``sum_jet`` and the approximant's assembly both accumulate from it.
``measured_sup`` probes a hat once for every alpha and keeps the sups in a
memo owned by the partition, keyed by hat position and normalization, which
a new partition starts empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .decomposition import (CoreTentacleDecomposition, _cells_mask,
                            mask_rectangles)
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


@dataclass(frozen=True)
class Profile:
    """1-D plateau profile: 0 -> 1 over [lo-w_lo, lo], 1 on [lo, hi],
    1 -> 0 over [hi, hi+w_hi]."""

    lo: float
    hi: float
    w_lo: float
    w_hi: float

    def eval(self, t: np.ndarray, d: int) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _plateau(t.ravel(), self.lo, self.hi, self.w_lo, self.w_hi,
                        self.w_lo**d, (-1.0 / self.w_hi) ** d,
                        d).reshape(t.shape)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo - self.w_lo, self.hi + self.w_hi)


@dataclass(frozen=True)
class BoxBump:
    """Tensor-product bump: plateau on [lo,hi]^2 rectangle with per-side
    ramps; value and all derivatives up to KMAX are closed-form."""

    px: Profile
    py: Profile

    def jet(self, x: np.ndarray, y: np.ndarray, alphas=ALPHAS) -> Jet:
        vx = {d: self.px.eval(x, d) for d in {a[0] for a in alphas}}
        vy = {d: self.py.eval(y, d) for d in {a[1] for a in alphas}}
        return {a: vx[a[0]] * vy[a[1]] for a in alphas}

    @property
    def support(self) -> tuple[float, float, float, float]:
        sx, sy = self.px.support, self.py.support
        return (sx[0], sx[1], sy[0], sy[1])


def jet_product(j1: Jet, j2: Jet, alphas=ALPHAS) -> Jet:
    out = {}
    for a in alphas:
        acc = 0.0
        for b1 in range(a[0] + 1):
            for b2 in range(a[1] + 1):
                c = comb(a[0], b1) * comb(a[1], b2)
                acc = acc + c * j1[(b1, b2)] * j2[(a[0] - b1, a[1] - b2)]
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


# Points per block of the pair search in ``SetBump``: bounds the
# (point, box) temporaries whatever the number of points evaluated.
_POINT_BLOCK = 512


def _one_minus(acc: Jet) -> Jet:
    """Jet of 1 - f from the jet of f."""
    out = {a: -v for a, v in acc.items()}
    out[(0, 0)] = 1.0 - acc[(0, 0)]
    return out


class SetBump:
    """Smooth bump equal to 1 on a cell set, supported in its dilation:
    1 - prod(1 - b) over its boxes.

    Evaluation finds the (point, box) pairs with the point strictly inside
    the box support, evaluates the profiles of all pairs at once, and folds
    the product rank by rank: the r-th box acting on each point, boxes in
    list order.  Every point sees the same operations in the same order as
    a box-by-box loop, so the jets are bitwise those of that loop.
    """

    def __init__(self, boxes: list[BoxBump]):
        if not boxes:
            raise DomainError("bump over an empty rectangle list")
        self.boxes = boxes
        sups = np.array([b.support for b in boxes])
        self.bbox = (sups[:, 0].min(), sups[:, 1].max(),
                     sups[:, 2].min(), sups[:, 3].max())

    def jet(self, x: np.ndarray, y: np.ndarray, alphas=ALPHAS) -> Jet:
        """1 - prod(1 - b) over the boxes, accumulated only where boxes act."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc = jet_zero(x.size, alphas)
        acc[(0, 0)] = np.ones(x.size)
        idx, local = self._local_product(x.ravel(), y.ravel(), alphas)
        for a in alphas:
            acc[a][idx] = local[a]
        return {a: v.reshape(x.shape) for a, v in _one_minus(acc).items()}

    def local_jet(self, x: np.ndarray, y: np.ndarray, alphas=ALPHAS
                  ) -> tuple[np.ndarray, Jet]:
        """Indices of the 1-D points inside the bbox and the jet there."""
        idx, local = self._local_product(x, y, alphas)
        return idx, _one_minus(local)

    def _local_product(self, x, y, alphas) -> tuple[np.ndarray, Jet]:
        """Jet of prod(1 - b) at the 1-D points inside the bbox."""
        x0, x1, y0, y1 = self.bbox
        idx = np.flatnonzero((x > x0) & (x < x1) & (y > y0) & (y < y1))
        acc = jet_zero(len(idx), alphas)
        acc[(0, 0)] = np.ones(len(idx))
        if len(idx):
            boxes = _BoxTable(self.boxes, {c for a in alphas for c in a})
            for lo in range(0, len(idx), _POINT_BLOCK):
                block = idx[lo:lo + _POINT_BLOCK]
                boxes.fold(acc, x[block], y[block], lo, alphas)
        return idx, acc


class _BoxTable:
    """Supports and profile parameters of a box list as arrays, the x
    profiles of all boxes first, then their y profiles.  The ramp scales
    are the Python powers ``Profile.eval`` takes, so that every value is
    bitwise the one a box-by-box evaluation computes."""

    def __init__(self, boxes: list[BoxBump], orders):
        self.supports = np.array([b.support for b in boxes])
        profs = [b.px for b in boxes] + [b.py for b in boxes]
        self.n_boxes = len(boxes)
        self.params = tuple(np.array([getattr(p, f) for p in profs])
                            for f in ("lo", "hi", "w_lo", "w_hi"))
        self.scales = {d: (np.array([p.w_lo**d for p in profs]),
                           np.array([(-1.0 / p.w_hi) ** d for p in profs]))
                       for d in orders}

    def fold(self, acc: Jet, x, y, start: int, alphas) -> None:
        """Multiply acc at start, start+1, ... by (1 - b) for every box b
        acting on the corresponding points x, y."""
        s = self.supports
        near = np.flatnonzero((s[:, 0] < x.max()) & (s[:, 1] > x.min())
                              & (s[:, 2] < y.max()) & (s[:, 3] > y.min()))
        s = s[near]
        xc, yc = x[:, None], y[:, None]
        pt, k = np.nonzero((xc > s[:, 0]) & (xc < s[:, 1])
                           & (yc > s[:, 2]) & (yc < s[:, 3]))
        if not len(pt):
            return
        box = near[k]  # pairs sorted by point, then by box
        first = np.ones(len(pt), dtype=bool)
        first[1:] = pt[1:] != pt[:-1]
        starts = np.flatnonzero(first)
        rank = np.arange(len(pt)) - np.repeat(starts, np.diff(
            np.append(starts, len(pt))))
        n = len(pt)
        t = np.concatenate([x[pt], y[pt]])
        prof = np.concatenate([box, box + self.n_boxes])
        lo, hi, w_lo, w_hi = (a[prof] for a in self.params)
        vals = {d: _plateau(t, lo, hi, w_lo, w_hi, up[prof], down[prof], d)
                for d, (up, down) in self.scales.items()}
        comp = {a: -(vals[a[0]][:n] * vals[a[1]][n:]) for a in alphas}
        comp[(0, 0)] = 1.0 - vals[0][:n] * vals[0][n:]
        for r in range(int(rank.max()) + 1):
            at = rank == r
            dst = start + pt[at]
            prod = jet_product({a: acc[a][dst] for a in alphas},
                               {a: c[at] for a, c in comp.items()}, alphas)
            for a in alphas:
                acc[a][dst] = prod[a]


@dataclass
class Hat:
    """One raw (un-normalized) member of the partition."""

    kind: str  # "psi" | "phi" | "xi"
    key: int  # cube index / group position / thick-component position
    bump: SetBump
    allowed_rects: list[tuple[float, float, float, float]]  # for (iv) checks

    def jet(self, x, y, alphas=ALPHAS) -> Jet:
        return self.bump.jet(x, y, alphas)

    def probe_points(self, samples_per_ramp: int = 6
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Points straddling every ramp band of every box (for sup-norm
        measurement of sub-grid ramps)."""
        def axis(p: Profile) -> np.ndarray:
            lo, hi = p.support
            return np.concatenate([
                np.linspace(lo, p.lo, samples_per_ramp + 2)[1:-1],
                np.linspace(p.hi, hi, samples_per_ramp + 2)[1:-1],
                np.linspace(p.lo, p.hi, 4),
            ])

        xs, ys = [], []
        for box in self.bump.boxes:
            mx, my = np.meshgrid(axis(box.px), axis(box.py), indexing="ij")
            xs.append(mx.ravel())
            ys.append(my.ravel())
        return np.concatenate(xs), np.concatenate(ys)


def _rects_physical(mask: np.ndarray, h: float, origin=(0, 0)
                    ) -> list[tuple[float, float, float, float]]:
    """Physical rectangles of a cell mask whose cell (0, 0) is ``origin``."""
    oi, oj = origin
    return [((oi + r.i0) * h, (oi + r.i0 + r.ni) * h,
             (oj + r.j0) * h, (oj + r.j0 + r.nj) * h)
            for r in mask_rectangles(mask)]


def _cells_rects(cells: np.ndarray, h: float):
    """Physical rectangles of a cell set, covered on its bounding window."""
    if not len(cells):
        return []
    lo = cells.min(axis=0)
    window = _cells_mask(tuple(cells.max(axis=0) - lo + 1), cells - lo)
    return _rects_physical(window, h, (int(lo[0]), int(lo[1])))


def _uniform_bump(rects, delta: float) -> SetBump:
    boxes = [
        BoxBump(Profile(x0, x1, delta, delta), Profile(y0, y1, delta, delta))
        for x0, x1, y0, y1 in rects
    ]
    return SetBump(boxes)


def _clipped_bump(rects, ramp: float, allowed, h: float) -> SetBump:
    """Per-side ramps clipped to the allowed outer box, never exceeding it by
    more than half a domain cell, and never thinner than h/4."""
    ax0, ax1, ay0, ay1 = allowed
    boxes = []
    for x0, x1, y0, y1 in rects:
        def w(gap):
            return max(min(ramp, gap + 0.5 * h), 0.25 * h)

        boxes.append(BoxBump(
            Profile(x0, x1, w(x0 - ax0), w(ax1 - x1)),
            Profile(y0, y1, w(y0 - ay0), w(ay1 - y1)),
        ))
    return SetBump(boxes)


class PartitionOfUnity:
    """All hats of a level-m decomposition plus the normalizing sum."""

    def __init__(self, ct: CoreTentacleDecomposition, kmax: int = KMAX):
        if kmax > KMAX:
            raise DomainError(f"derivative order capped at {KMAX}")
        self.ct = ct
        self.domain = ct.domain
        self.alphas = multi_indices(kmax)
        self.delta = 2.0 ** (-ct.m) / 100.0
        h = self.domain.h
        dec = ct.dec
        self.hats: list[Hat] = []

        def cube_hat(kind: str, key: int, q: int) -> Hat:
            cube = dec.cubes[q]
            ramp = 0.05 * ct.c0 * cube.l
            allowed = cube.box(h, 1.1 * ct.c0)
            rects = _cells_rects(ct.halo[q], h)
            return Hat(kind, key, _clipped_bump(rects, ramp, allowed, h),
                       [allowed])

        def grown(rects):
            d = self.delta
            return [(x0 - d, x1 + d, y0 - d, y1 + d)
                    for x0, x1, y0, y1 in rects]

        for q in ct.Um:
            self.hats.append(cube_hat("psi", q, q))

        delta_box = self.delta / np.sqrt(2.0)
        for gi, g in enumerate(ct.groups):
            boxes: list[BoxBump] = []
            allowed = []
            for q in sorted(g.cubes):
                hat_q = cube_hat("phi", gi, q)
                boxes.extend(hat_q.bump.boxes)
                allowed += hat_q.allowed_rects
            for vpos in g.members:
                rects = _rects_physical(
                    ct.component_mask(ct.V_ids[vpos]), h)
                boxes.extend(_uniform_bump(rects, delta_box).boxes)
                allowed += grown(rects)
            self.hats.append(Hat("phi", gi, SetBump(boxes), allowed))

        for ui, lab in enumerate(ct.U_ids):
            rects = _rects_physical(ct.component_mask(lab), h)
            self.hats.append(Hat("xi", ui, _uniform_bump(rects, delta_box),
                                 grown(rects)))

        self._positions = {id(hat): i for i, hat in enumerate(self.hats)}
        # measured_sup memo: (hat position, normalized) -> {alpha: sup}
        self._sups: dict[tuple[int, bool], dict] = {}

    # -- evaluation ---------------------------------------------------------

    def sum_jet(self, x: np.ndarray, y: np.ndarray, alphas=None) -> Jet:
        """Jet of the raw hat-sum S (>= 1 on the domain)."""
        alphas = alphas or self.alphas
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = jet_zero(x.size, alphas)
        for _, idx, hj in self.local_jets(x.ravel(), y.ravel(), alphas):
            for a in alphas:
                total[a][idx] += hj[a]
        return {a: v.reshape(x.shape) for a, v in total.items()}

    def local_jets(self, x: np.ndarray, y: np.ndarray, alphas):
        """(hat, indices, raw jet) for each hat acting on some of the 1-D
        points, in hat order: every hat is evaluated once, only inside its
        bbox."""
        for hat in self.hats:
            idx, hj = hat.bump.local_jet(x, y, alphas)
            if len(idx):
                yield hat, idx, hj

    def check_coverage(self, x: np.ndarray, y: np.ndarray) -> None:
        s = self.sum_jet(x, y, alphas=[(0, 0)])[(0, 0)]
        if (s < 1.0 - 1e-9).any():
            i = int(np.argmin(s))
            raise DomainError(
                f"partition coverage hole at ({x.flat[i]:.4f}, "
                f"{y.flat[i]:.4f}): hat sum {s.flat[i]:.6f} < 1")

    def normalized_jet(self, hat: Hat, x, y, sum_jet: Jet | None = None,
                       alphas=None) -> Jet:
        alphas = alphas or self.alphas
        if sum_jet is None:
            sum_jet = self.sum_jet(x, y, alphas)
        return jet_quotient(hat.jet(x, y, alphas), sum_jet, alphas)

    # -- measurements -------------------------------------------------------

    def measured_sup(self, hat: Hat, alpha: tuple[int, int],
                     normalized: bool = True) -> float:
        """sup |grad^alpha| over ramp-straddling probe points (accurate even
        when ramps are narrower than any evaluation grid).  One probe gives
        the sups of every alpha; they are kept for the partition's life."""
        pos = self._positions.get(id(hat))
        if pos is None:
            raise DomainError("hat is not a member of this partition")
        key = (pos, normalized)
        if key not in self._sups:
            self._sups[key] = self._probe_sups(hat, normalized)
        return self._sups[key][alpha]

    def _probe_sups(self, hat: Hat, normalized: bool) -> dict:
        x, y = hat.probe_points()
        ok = self.domain.interior[
            np.clip((x / self.domain.h).astype(int), 0,
                    self.domain.shape[0] - 1),
            np.clip((y / self.domain.h).astype(int), 0,
                    self.domain.shape[1] - 1),
        ]
        x, y = x[ok], y[ok]
        if not len(x):
            return {a: 0.0 for a in self.alphas}
        if normalized:
            jet = self.normalized_jet(hat, x, y, alphas=self.alphas)
        else:
            jet = hat.jet(x, y, self.alphas)
        return {a: float(np.abs(jet[a]).max()) for a in self.alphas}

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
