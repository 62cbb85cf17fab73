"""Tests for the closed-form smooth partition of unity."""

import functools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from qhlab import gallery, pou as pou_module
from qhlab.grid import DomainError, GridDomain
from qhlab.qh import QhMetric
from qhlab.whitney import whitney_decompose
from qhlab.decomposition import (_cells_mask, build_core_tentacle,
                                 rectangle_cover, verify_bounded_overlap,
                                 verify_tiling)
from qhlab.fixtures import multi_indices
from qhlab.pou import (
    ALPHAS,
    SetBump,
    _HatBoxes,
    _hat_jets,
    _ramp,
    build_partition,
    jet_product,
    jet_quotient,
    jet_zero,
    ramp_derivative_maxima,
)


class Profile(NamedTuple):
    """1-D plateau profile: 0 -> 1 over [lo-w_lo, lo], 1 on [lo, hi],
    1 -> 0 over [hi, hi+w_hi]."""

    lo: float
    hi: float
    w_lo: float
    w_hi: float

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo - self.w_lo, self.hi + self.w_hi)


class BoxBump(NamedTuple):
    """Tensor-product box: an x and a y profile."""

    px: Profile
    py: Profile

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (*self.px.support, *self.py.support)


def box_params(boxes):
    """The (n, 8) parameter rows of a ``BoxBump`` list, as ``SetBump`` and
    the engine take them."""
    return np.array([(*b.px, *b.py) for b in boxes],
                    dtype=float).reshape(-1, 8)


def box_list(rows):
    """The ``BoxBump`` list of (n, 8) parameter rows."""
    return [BoxBump(Profile(*r[:4]), Profile(*r[4:])) for r in rows.tolist()]


def test_ramp_endpoints_and_monotonicity():
    t = np.linspace(-0.5, 1.5, 401)
    g = _ramp(t, 0)
    assert (g[t <= 0] == 0).all()
    assert (g[t >= 1] == 1).all()
    assert (np.diff(g) >= -1e-12).all()
    assert _ramp(np.array([0.5]), 0)[0] == pytest.approx(0.5)
    assert (_ramp(t, 1) >= -1e-12).all()


def test_ramp_derivatives_vanish_below_overflow_of_inverse_powers():
    # sigma underflows to 0 while 1/t**(d+1) overflows: 0, not 0 * inf
    t = np.array([5e-324, 1e-300, 1e-160, 1e-80, 1e-52])
    for d in range(4):
        assert (_ramp(t, d) == 0).all(), d


def test_ramp_derivative_maxima_finite():
    maxima = ramp_derivative_maxima()
    assert len(maxima) == 4
    assert maxima[0] == pytest.approx(1.0, abs=1e-6)
    assert all(np.isfinite(m) and m > 0 for m in maxima[1:])


def _profile_jet(prof: Profile, t, d: int) -> np.ndarray:
    """prof^(d) at t, through a one-box SetBump whose y profile has its
    plateau at y = 0."""
    t = np.asarray(t, dtype=float)
    box = BoxBump(prof, Profile(-1.0, 1.0, 0.5, 0.5))
    return SetBump(box_params([box])).jet(t, np.zeros_like(t))[(d, 0)]


def test_profile_plateau_and_support():
    prof = Profile(0.2, 0.6, 0.1, 0.05)
    t = np.array([0.05, 0.15, 0.2, 0.4, 0.6, 0.63, 0.7])
    v = _profile_jet(prof, t, 0)
    assert v[0] == 0.0
    assert 0 < v[1] < 1
    assert v[2] == 1.0 and v[3] == 1.0 and v[4] == 1.0
    assert 0 < v[5] < 1
    assert v[6] == 0.0
    # derivatives vanish on the plateau and outside the support
    d1 = _profile_jet(prof, t, 1)
    assert d1[2] == d1[3] == d1[4] == 0.0
    assert d1[0] == d1[6] == 0.0
    assert prof.support == (pytest.approx(0.1), pytest.approx(0.65))


def test_box_bump_tensor_jet():
    bump = BoxBump(Profile(0.0, 0.5, 0.1, 0.1), Profile(0.0, 0.5, 0.1, 0.1))
    x = np.array([0.25, -0.05, 0.55])
    y = np.array([0.25, 0.25, -0.05])
    j = SetBump(box_params([bump])).jet(x, y)
    assert j[(0, 0)][0] == 1.0
    assert 0 < j[(0, 0)][1] < 1
    assert j[(0, 0)][2] == pytest.approx(
        _profile_jet(bump.px, [0.55], 0)[0]
        * _profile_jet(bump.py, [-0.05], 0)[0])
    # mixed derivative on the plateau is zero
    assert j[(1, 1)][0] == 0.0


def test_jet_product_and_quotient_against_closed_forms():
    # f = x^2 y, g = 1 + x^2: compare jets of f*g and f/g with sympy
    import sympy as sp

    xs, ys = sp.symbols("x y")
    f_expr, g_expr = xs**2 * ys, 1 + xs**2
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 0.9, 20)
    y = rng.uniform(0.1, 0.9, 20)

    def jet_of(expr):
        return {
            a: np.broadcast_to(np.asarray(sp.lambdify(
                (xs, ys), sp.diff(expr, xs, a[0], ys, a[1]))(x, y),
                dtype=float), x.shape)
            for a in ALPHAS
        }

    jf, jg = jet_of(f_expr), jet_of(g_expr)
    prod = jet_product(jf, jg)
    quot = jet_quotient(jf, jg)
    prod_ref = jet_of(f_expr * g_expr)
    quot_ref = jet_of(f_expr / g_expr)
    for a in ALPHAS:
        assert np.abs(prod[a] - prod_ref[a]).max() < 1e-9
        assert np.abs(quot[a] - quot_ref[a]).max() < 1e-9


@pytest.fixture(scope="module")
def disk_pou():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    ct = build_core_tentacle(dec, qh, 6)
    pou = build_partition(ct)
    cells = np.argwhere(dom.interior)
    x = (cells[:, 0] + 0.5) * dom.h
    y = (cells[:, 1] + 0.5) * dom.h
    return dom, ct, pou, x, y


def test_partition_families(disk_pou):
    dom, ct, pou, x, y = disk_pou
    kinds = {}
    for hat in pou.hats:
        kinds[hat.kind] = kinds.get(hat.kind, 0) + 1
    assert kinds["psi"] == len(ct.Um)
    assert kinds["xi"] == len(ct.U_ids)
    assert kinds.get("phi", 0) == len(ct.groups)
    for hat in pou.hats:
        assert hat.donor == _donor(ct, hat), (hat.kind, hat.key)


def _donor(ct, hat):
    """The cube whose polynomial the hat carries: a psi hat's own cube, a
    phi hat's group's assigned cube, and none (-1) for a xi hat."""
    if hat.kind == "phi":
        return ct.groups[hat.key].assigned_cube
    return hat.key if hat.kind == "psi" else -1


def test_hat_sum_at_least_one(disk_pou):
    dom, ct, pou, x, y = disk_pou
    s = pou.sum_jet(x, y, alphas=[(0, 0)])[(0, 0)]
    assert s.min() >= 1.0 - 1e-9


def test_normalized_sum_is_one(disk_pou):
    dom, ct, pou, x, y = disk_pou
    S = pou.sum_jet(x, y)
    total = np.zeros(len(x))
    for hat in pou.hats:
        nj = jet_quotient(hat.jet(x, y, [(0, 0)]), S, [(0, 0)])
        val = nj[(0, 0)]
        assert val.min() >= -1e-12 and val.max() <= 1.0 + 1e-12
        total += val
    assert np.abs(total - 1.0).max() < 1e-12


def test_support_containment(disk_pou):
    dom, ct, pou, x, y = disk_pou
    for hat in pou.hats:
        # psi ramps may overhang the dilated box by half a domain cell at
        # the resolution floor; phi/xi containment is exact
        tol = dom.h / 2 + 1e-9 if hat.kind == "psi" else 1e-9
        assert pou.support_violation(hat, x, y, tol=tol) == 0


def test_xi_exclusive_deep_inside(disk_pou):
    dom, ct, pou, x, y = disk_pou
    x0 = np.array([(dom.x0[0] + 0.5) * dom.h])
    y0 = np.array([(dom.x0[1] + 0.5) * dom.h])
    for hat in pou.hats:
        v = hat.jet(x0, y0, alphas=[(0, 0)])[(0, 0)][0]
        assert v == pytest.approx(1.0 if hat.kind == "xi" else 0.0, abs=1e-12)


def test_derivative_sup_scales_with_level():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    sups = []
    for m in (6, 7):
        pou = build_partition(build_core_tentacle(dec, qh, m))
        psi = [h for h in pou.hats if h.kind == "psi"]
        sups.append(max(
            np.abs(h.jet(*_probe_points(pou, h), pou.alphas)[(1, 0)]).max(
                initial=0.0)
            for h in psi[:40]))
    # raw ramp slope doubles with each level
    assert sups[1] > 1.5 * sups[0]


def test_order_cap():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    ct = build_core_tentacle(dec, qh, 6)
    with pytest.raises(DomainError):
        build_partition(ct, kmax=4)


def test_dumbbell_phi_hat():
    dom = gallery.dumbbell(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    ct = build_core_tentacle(dec, qh, 7)
    pou = build_partition(ct)
    phis = [h for h in pou.hats if h.kind == "phi"]
    assert len(phis) == 1
    # the phi hat is 1 somewhere on the tentacle component
    tm = ct.tentacle_mask(ct.groups[0])
    cells = np.argwhere(tm & dom.interior)
    x = (cells[:, 0] + 0.5) * dom.h
    y = (cells[:, 1] + 0.5) * dom.h
    vals = phis[0].jet(x, y, alphas=[(0, 0)])[(0, 0)]
    assert vals.max() == pytest.approx(1.0)
    for hat in pou.hats:
        assert hat.donor == _donor(ct, hat), (hat.kind, hat.key)


# -- the box-bump engine against a box-by-box reference -----------------------

def _reference_profile(p: Profile, t: np.ndarray, d: int) -> np.ndarray:
    up = _ramp((t - (p.lo - p.w_lo)) / p.w_lo, d) / p.w_lo**d
    out = np.where(t <= p.lo, up, 0.0 if d else 1.0)
    down = _ramp(((p.hi + p.w_hi) - t) / p.w_hi, d) * (-1.0 / p.w_hi) ** d
    return np.where(t >= p.hi, down, out)


def _reference_jet(boxes, x, y, alphas):
    """1 - prod(1 - b), multiplied in one box at a time over the points the
    box acts on."""
    acc = jet_zero(x.shape, alphas)
    acc[(0, 0)] = np.ones(x.shape)
    for box in boxes:
        s = box.support
        sel = (x > s[0]) & (x < s[1]) & (y > s[2]) & (y < s[3])
        if not sel.any():
            continue
        bj = {a: _reference_profile(box.px, x[sel], a[0])
              * _reference_profile(box.py, y[sel], a[1]) for a in alphas}
        comp = {a: (1.0 - bj[a] if a == (0, 0) else -bj[a]) for a in alphas}
        prod = jet_product({a: acc[a][sel] for a in alphas}, comp, alphas)
        for a in alphas:
            acc[a][sel] = prod[a]
    out = {a: -acc[a] for a in alphas}
    out[(0, 0)] = 1.0 - acc[(0, 0)]
    return out


_ramp_width = st.floats(0.004, 0.2)
_boxes = st.lists(
    st.builds(
        lambda x0, wx, y0, wy, r: BoxBump(Profile(x0, x0 + wx, r[0], r[1]),
                                          Profile(y0, y0 + wy, r[2], r[3])),
        st.floats(0.0, 0.5), st.floats(0.0, 0.4),
        st.floats(0.0, 0.5), st.floats(0.0, 0.4),
        st.tuples(_ramp_width, _ramp_width, _ramp_width, _ramp_width)),
    min_size=1, max_size=8)


def _edge_points(boxes):
    """Points exactly on every support edge, plateau edge and corner."""
    xs, ys = [], []
    for b in boxes:
        sx, sy = b.px.support, b.py.support
        gx = [sx[0], b.px.lo, 0.5 * (b.px.lo + b.px.hi), b.px.hi, sx[1]]
        gy = [sy[0], b.py.lo, 0.5 * (b.py.lo + b.py.hi), b.py.hi, sy[1]]
        mx, my = np.meshgrid(gx, gy)
        xs.append(mx.ravel())
        ys.append(my.ravel())
    return np.concatenate(xs), np.concatenate(ys)


def _points_inside(boxes, fractions):
    """Points of each box support, at the given fractions of its sides."""
    sups = np.array([b.support for b in boxes])
    fx, fy = np.array(fractions).T[:, :, None]
    x = sups[:, 0] + fx * (sups[:, 1] - sups[:, 0])
    y = sups[:, 2] + fy * (sups[:, 3] - sups[:, 2])
    return x.ravel(), y.ravel()


@settings(max_examples=80, deadline=None)
@given(boxes=_boxes,
       points=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
                       max_size=40),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8),
       alphas=st.sampled_from([ALPHAS, multi_indices(2), [(0, 0)]]),
       block=st.sampled_from([1, 3, 2048]))
def test_set_bump_jet_bitwise_equals_box_loop(boxes, points, fractions,
                                              alphas, block):
    ex, ey = _edge_points(boxes)
    ix, iy = _points_inside(boxes, fractions)
    px = np.array([p[0] for p in points])
    py = np.array([p[1] for p in points])
    # and two points outside the bbox
    x = np.concatenate([ex, ix, px, [-1.0, 3.0]])
    y = np.concatenate([ey, iy, py, [0.5, 0.5]])
    with mock.patch.object(pou_module, "_POINT_BLOCK", block):
        got = SetBump(box_params(boxes)).jet(x, y, alphas)
    want = _reference_jet(boxes, x, y, alphas)
    for a in alphas:
        assert np.isfinite(got[a]).all(), a
        assert got[a].tobytes() == want[a].tobytes(), a


def test_set_bump_jet_prefilters_by_bbox_and_keeps_shape():
    boxes = [BoxBump(Profile(0.1, 0.3, 0.05, 0.1), Profile(0.2, 0.4, 0.1, 0.02)),
             BoxBump(Profile(0.25, 0.5, 0.1, 0.1), Profile(0.3, 0.6, 0.05, 0.05))]
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-0.2, 1.0, (2, 500))
    bump = SetBump(box_params(boxes))
    full = bump.jet(x, y)
    b = bump.bbox
    outside = ~((x > b[0]) & (x < b[1]) & (y > b[2]) & (y < b[3]))
    assert 0 < outside.sum() < len(x)
    want = _reference_jet(boxes, x, y, ALPHAS)
    untouched = _untouched(outside.sum(), ALPHAS)
    for a in ALPHAS:
        assert full[a].tobytes() == want[a].tobytes()
        assert full[a][outside].tobytes() == untouched[a].tobytes()
    grid = bump.jet(x.reshape(20, 25), y.reshape(20, 25))
    assert grid[(1, 2)].shape == (20, 25)
    assert grid[(1, 2)].ravel().tobytes() == full[(1, 2)].tobytes()


# -- rectangle covers ---------------------------------------------------------

def _mask_rects(mask):
    """The rectangles (i0, j0, ni, nj) of a mask's cover, as a list."""
    cover = rectangle_cover([np.argwhere(mask)], mask.shape)
    return list(zip(*(a.tolist() for a in cover[1:])))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(
    st.integers(60, 120), st.integers(60, 120)), n_sets=st.integers(1, 4),
    side=st.integers(1, 40))
def test_windowed_cells_rects_equal_full_mask(seed, shape, n_sets, side):
    """The rectangles of several cell sets covered at once, each set's
    cells shuffled, are each set's cover of its full mask: in one batch,
    and in batches of about one bitmap's worth of cells (a side x side
    bitmap holding every set)."""
    rng = np.random.default_rng(seed)
    sets = [rng.permutation(np.unique(rng.integers(
        0, side, (rng.integers(1, 40), 2)), axis=0)) for _ in range(n_sets)]
    want = [(o, *r) for o, c in enumerate(sets)
            for r in _mask_rects(_cells_mask((side, side), c))]
    got = rectangle_cover(sets, (side, side))
    assert list(zip(*(a.tolist() for a in got))) == want
    offset = rng.integers(0, np.array(shape) - 40)
    got = rectangle_cover([c + offset for c in sets], shape)
    assert list(zip(*(a.tolist() for a in got))) == [
        (o, i0 + offset[0], j0 + offset[1], ni, nj)
        for o, i0, j0, ni, nj in want]
    assert [len(a) for a in rectangle_cover([], shape)] == [0] * 5


# -- measured sups ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_ct():
    dom = gallery.disk(1 / 32)
    return build_core_tentacle(whitney_decompose(dom), QhMetric(dom), 6)


def _probe_points(part, hat):
    """The hat's probe points in an interior cell of the domain."""
    x, y = hat.probe_points()
    dom = part.domain
    i = np.clip((x / dom.h).astype(int), 0, dom.shape[0] - 1)
    j = np.clip((y / dom.h).astype(int), 0, dom.shape[1] - 1)
    keep = dom.interior[i, j]
    return x[keep], y[keep]


def _probe_jet(part, hat):
    """The normalized hat's jet at its probe points."""
    x, y = _probe_points(part, hat)
    return jet_quotient(hat.jet(x, y, part.alphas),
                        part.sum_jet(x, y, part.alphas), part.alphas)


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(3 * 10)))
def test_measured_sup_is_max_of_the_probe_jet_in_any_call_order(small_ct,
                                                                order):
    part = build_partition(small_ct)  # a fresh, empty memo
    hats = part.hats[::len(part.hats) // 3][:3]
    calls = [(h, a) for h in hats for a in part.alphas]
    assert len(calls) == len(order)
    jets = {id(h): _probe_jet(part, h) for h in hats}
    for c in order:
        hat, a = calls[c]
        want = float(np.abs(jets[id(hat)][a]).max())
        assert part.measured_sup(hat, a) == want


def test_measured_sup_rejects_a_foreign_hat(small_ct):
    first, second = build_partition(small_ct), build_partition(small_ct)
    with pytest.raises(DomainError):
        first.measured_sup(second.hats[0], (1, 0))


@pytest.mark.parametrize("n_boxes", [1, 2])
def test_jets_without_the_value_entry_are_rejected(small_ct, n_boxes):
    """Every product after a hat's first box reads the (0, 0) entries, so a
    list of alphas without it is refused, with one acting box or two."""
    side = Profile(0.2, 0.25, 0.05, 0.05)
    boxes = [BoxBump(Profile(0.3, 0.4, 0.05, 0.05), side),
             BoxBump(Profile(0.35, 0.45, 0.05, 0.05), side)][:n_boxes]
    x, y = np.array([0.37]), np.array([0.22])
    bump = SetBump(box_params(boxes))
    assert bump.jet(x, y, [(0, 0), (1, 0)]).keys() == {(0, 0), (1, 0)}
    with pytest.raises(DomainError):
        bump.jet(x, y, [(1, 0)])
    part = build_partition(small_ct)
    px, py = _probe_points(part, part.hats[0])
    with pytest.raises(DomainError):
        part.sum_jet(px, py, [(1, 0)])
    with pytest.raises(DomainError):
        list(part.hat_jets(px, py, [(1, 0)]))


# -- the multi-hat engine, hat by hat, against the box-by-box reference -------

def _untouched(n, alphas):
    """A hat's jet where none of its boxes acts: 1 - 1 and its derivatives."""
    out = {a: np.full(n, -0.0) for a in alphas}
    out[(0, 0)] = np.zeros(n)
    return out


def _jets_by_hat(chunks, alphas):
    """hat -> (points, jets there) from the engine's chunks, checking that
    the chunks come in hat order and name each (hat, point) pair once."""
    parts, last = {}, 0
    for hats, pts, hj in chunks:
        assert len(hats) and (np.diff(hats) >= 0).all() and hats[0] >= last
        last = hats[-1]
        for h in np.unique(hats):
            at = hats == h
            parts.setdefault(h, []).append((pts[at], {a: hj[a][at]
                                                      for a in alphas}))
    out = {}
    for h, got in parts.items():
        pts = np.concatenate([p for p, _ in got])
        assert len(np.unique(pts)) == len(pts)
        out[h] = pts, {a: np.concatenate([j[a] for _, j in got])
                       for a in alphas}
    return out


def _hat_jet_at(jets_by_hat, h, idx, alphas):
    """Hat h's jet at the sorted points idx, which must hold every point
    the engine named for it."""
    out = _untouched(len(idx), alphas)
    if h in jets_by_hat:
        pts, jets = jets_by_hat[h]
        at = np.searchsorted(idx, pts)
        assert (at < len(idx)).all() and (idx[np.minimum(at, len(idx) - 1)]
                                          == pts).all()
        for a in alphas:
            out[a][at] = jets[a]
    return out


@settings(max_examples=60, deadline=None)
@given(hats=st.lists(_boxes, min_size=1, max_size=4),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=6),
       alphas=st.sampled_from([ALPHAS, multi_indices(2), [(0, 0)]]),
       block=st.sampled_from([1, 2, 5, pou_module._POINT_BLOCK]),
       cell=st.sampled_from([0.003, 0.05, 0.4]))
def test_hat_jets_bitwise_equal_box_loop_hat_by_hat(hats, fractions, alphas,
                                                    block, cell):
    """Every hat's jet is bitwise the box loop's, whatever the chunk budget:
    ``_jets_by_hat`` checks that chunk hats never decrease and that no
    (hat, point) pair appears twice, in one chunk or in two."""
    boxes = [b for hat in hats for b in hat]
    ex, ey = _edge_points(boxes)  # support and plateau edges, shared rows
    ix, iy = _points_inside(boxes, fractions)
    # repeated points and coordinates, and two points outside every box
    x = np.concatenate([ex, ix, ex[::2], ix, [-1.0, 3.0]])
    y = np.concatenate([ey, iy, ey[::2], iy[::-1], [0.5, 0.5]])
    with mock.patch.object(pou_module, "_POINT_BLOCK", block):
        chunks = list(_hat_jets(_HatBoxes([box_params(h) for h in hats]),
                                x, y, alphas, cell))
    got = _jets_by_hat(chunks, alphas)
    if block == 1:  # a cut at every (hat, bucket row) group
        assert all(len(np.unique(hs)) == 1 for hs, _, _ in chunks)
    everywhere = np.arange(len(x))
    for h, hat in enumerate(hats):
        jet = _hat_jet_at(got, h, everywhere, alphas)
        want = _reference_jet(hat, x, y, alphas)
        for a in alphas:
            assert np.isfinite(jet[a]).all(), a
            assert jet[a].tobytes() == want[a].tobytes(), a


def _plateau_edge_points(boxes):
    """Per box, the grid of its plateau edges, one ulp either side of each,
    the plateau's middle and the middle of each ramp, on both axes: edges,
    corners, and edge points whose other coordinate lies in a ramp."""
    def axis(p: Profile) -> np.ndarray:
        edges = np.array([p.lo, p.hi])
        return np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf),
                               [0.5 * (p.lo + p.hi), p.lo - 0.5 * p.w_lo,
                                p.hi + 0.5 * p.w_hi]])

    xs, ys = [], []
    for b in boxes:
        mx, my = np.meshgrid(axis(b.px), axis(b.py))
        xs.append(mx.ravel())
        ys.append(my.ravel())
    return np.concatenate(xs), np.concatenate(ys)


@settings(max_examples=60, deadline=None)
@given(hats=st.lists(_boxes, min_size=1, max_size=4),
       alphas=st.sampled_from([ALPHAS, multi_indices(2), [(0, 0)]]),
       block=st.sampled_from([1, 5, pou_module._POINT_BLOCK]),
       cell=st.sampled_from([0.003, 0.05, 0.4]))
def test_unit_groups_skip_the_fold_bitwise(hats, alphas, block, cell):
    """A (hat, point) group whose point lies in the closed plateau of one of
    its boxes is written as (1.0, -0.0, ...) without a factor gathered; the
    jets stay bitwise the box loop's on plateau edges and corners and one
    ulp either side of them.  Both paths run in every example: a point in
    the ramp of the box reaching lowest in x lies in no plateau of its hat."""
    x, y = _plateau_edge_points([b for hat in hats for b in hat])
    counts = {"unit": 0, "folded": 0, "pairs": 0, "factors": 0}
    fold = pou_module._fold

    def spy(hat, point, flat, one_minus_box, alphas):
        groups = hat * len(x) + point
        unit = np.isin(groups, groups[flat])
        counts["unit"] += len(np.unique(groups[unit]))
        counts["folded"] += len(np.unique(groups[~unit]))
        counts["pairs"] += int((~unit).sum())

        def factors(sel):
            counts["factors"] += len(sel)
            return one_minus_box(sel)

        return fold(hat, point, flat, factors, alphas)

    with mock.patch.object(pou_module, "_POINT_BLOCK", block), \
            mock.patch.object(pou_module, "_fold", spy):
        chunks = list(_hat_jets(_HatBoxes([box_params(h) for h in hats]),
                                x, y, alphas, cell))
    assert counts["unit"] > 0 and counts["folded"] > 0
    # the unit groups' pairs gather no factor
    assert counts["factors"] == counts["pairs"]
    got = _jets_by_hat(chunks, alphas)
    everywhere = np.arange(len(x))
    for h, hat in enumerate(hats):
        jet = _hat_jet_at(got, h, everywhere, alphas)
        want = _reference_jet(hat, x, y, alphas)
        for a in alphas:
            assert jet[a].tobytes() == want[a].tobytes(), (h, a)


def _separated_box(x0, y0):
    """A 0.05-wide box with ramps 0.01 at (x0, y0)."""
    return BoxBump(Profile(x0, x0 + 0.05, 0.01, 0.01),
                   Profile(y0, y0 + 0.05, 0.01, 0.01))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scattered_points_take_the_per_pair_fallback(seed):
    """Scattered points seldom share a coordinate, so a profile table over
    a support's strip would outgrow the candidate pairs: every axis falls
    back to evaluating each pair's factor, on the engine's path and on a
    set bump's, and the jets stay bitwise the box loop's."""
    hats = [[_separated_box(0.1, 0.1), _separated_box(0.3, 0.6)],
            [_separated_box(0.55, 0.2)],
            [_separated_box(0.8, 0.8), _separated_box(0.7, 0.4)]]
    x, y = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 2000))
    tables = []
    table = pou_module._Profiles.table

    def spy(self, *args):
        tables.append(table(self, *args))
        return tables[-1]

    with mock.patch.object(pou_module._Profiles, "table", spy):
        chunks = list(_hat_jets(_HatBoxes([box_params(h) for h in hats]),
                                x, y, ALPHAS, 1 / 128))
        bumps = [SetBump(box_params(hats[h])).jet(x, y) for h in (0, 2)]
    assert len(tables) == 2 + 2 * len(bumps)
    assert all(t is None for t in tables)
    got = _jets_by_hat(chunks, ALPHAS)
    assert len(got) == len(hats)
    everywhere = np.arange(len(x))
    for h, hat in enumerate(hats):
        jet = _hat_jet_at(got, h, everywhere, ALPHAS)
        want = _reference_jet(hat, x, y, ALPHAS)
        for a in ALPHAS:
            assert jet[a].tobytes() == want[a].tobytes(), (h, a)
    for h, bump in zip((0, 2), bumps):
        want = _reference_jet(hats[h], x, y, ALPHAS)
        for a in ALPHAS:
            assert bump[a].tobytes() == want[a].tobytes(), (h, a)


def _in_bbox(hat, x, y):
    x0, x1, y0, y1 = hat.bump.bbox
    return np.flatnonzero((x > x0) & (x < x1) & (y > y0) & (y < y1))


def _check_every_hat(part, x, y, hats=None):
    """Every hat of the partition from one ``hat_jets`` pass, bitwise the box
    loop at the points of its bbox and untouched elsewhere."""
    got = _jets_by_hat(part.hat_jets(x, y, part.alphas), part.alphas)
    for i in range(len(part.hats)) if hats is None else hats:
        hat = part.hats[i]
        idx = _in_bbox(hat, x, y)
        jet = _hat_jet_at(got, i, idx, part.alphas)
        want = _reference_jet(box_list(hat.bump.boxes), x[idx], y[idx],
                              part.alphas)
        for a in part.alphas:
            assert jet[a].tobytes() == want[a].tobytes(), (i, a)


@functools.cache
def _level(name, m):
    """The level-m decomposition of a fixture at h = 1/128, and its
    partition for order 2."""
    dom = gallery.make(name, 1 / 128)
    ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), m)
    return ct, build_partition(ct, kmax=2)


_LEVELS = [("disk", 6), ("disk", 7), ("dumbbell", 7)]


def _reference_parts(ct):
    """Per hat, its boxes and allowed rectangles built one rectangle at a
    time: a cube's boxes cover its halo with per-side ramps
    max(min(ramp, gap + h/2), h/4), the gap measured to its 11/10-dilated
    box; a component's boxes cover it with ramps delta/sqrt(2), allowed
    where grown by delta.  Hats come psi, then phi, then xi."""
    h, d = ct.domain.h, 2.0 ** (-ct.m) / 100.0

    def rects(mask):
        return [(i0 * h, (i0 + ni) * h, j0 * h, (j0 + nj) * h)
                for i0, j0, ni, nj in _mask_rects(mask)]

    def cube_part(q):
        row = ct.dec.cubes[q]
        (i0, j0), s, l = row.corner.tolist(), int(row.side), float(row.l)
        cx, cy = (i0 + s / 2.0) * h, (j0 + s / 2.0) * h
        half = 1.1 * ct.c0 * l / 2.0
        allowed = ax0, ax1, ay0, ay1 = (cx - half, cx + half,
                                        cy - half, cy + half)
        ramp = 0.05 * ct.c0 * l

        def w(gap):
            return max(min(ramp, gap + 0.5 * h), 0.25 * h)

        return ([BoxBump(Profile(x0, x1, w(x0 - ax0), w(ax1 - x1)),
                         Profile(y0, y1, w(y0 - ay0), w(ay1 - y1)))
                 for x0, x1, y0, y1 in rects(
                     _cells_mask(ct.domain.shape, ct.halo[q]))], [allowed])

    def component_part(lab):
        r, w = rects(ct.component_mask(lab)), d / np.sqrt(2.0)
        return ([BoxBump(Profile(x0, x1, w, w), Profile(y0, y1, w, w))
                 for x0, x1, y0, y1 in r],
                [(x0 - d, x1 + d, y0 - d, y1 + d) for x0, x1, y0, y1 in r])

    hats = [[cube_part(q)] for q in ct.Um]
    hats += [[cube_part(q) for q in sorted(g.cubes)]
             + [component_part(ct.V_ids[v]) for v in g.members]
             for g in ct.groups]
    hats += [[component_part(lab)] for lab in ct.U_ids]
    return [([b for boxes, _ in parts for b in boxes],
             [r for _, allowed in parts for r in allowed]) for parts in hats]


@pytest.mark.parametrize("name, m", _LEVELS)
def test_box_lists_equal_per_rectangle_reference(name, m):
    ct, part = _level(name, m)
    want = _reference_parts(ct)
    assert len(part.hats) == len(want)
    for hat, (boxes, allowed) in zip(part.hats, want):
        assert hat.bump.boxes.shape == (len(boxes), 8)
        assert hat.bump.boxes.tobytes() == box_params(boxes).tobytes()
        sups = np.array([b.support for b in boxes])
        bbox = (sups[:, 0].min(), sups[:, 1].max(),
                sups[:, 2].min(), sups[:, 3].max())
        assert np.array(hat.bump.bbox).tobytes() == np.array(bbox).tobytes()
        assert np.array(hat.allowed_rects).tobytes() == \
            np.array(allowed).tobytes()


@pytest.mark.parametrize("name, m", _LEVELS)
def test_every_hat_at_grid_and_probe_points(name, m):
    from qhlab.approx import EvalGrid

    ct, part = _level(name, m)
    dom = ct.domain
    kinds = {h.kind for h in part.hats}
    assert kinds == ({"psi", "phi", "xi"} if name == "dumbbell"
                     else {"psi", "xi"})
    grid = EvalGrid(dom, 2)
    _check_every_hat(part, grid.x, grid.y)
    # each hat alone at its own probe points, and all hats at once at the
    # probe points of every 25th hat
    for hat in part.hats:
        px, py = hat.probe_points()
        want = _reference_jet(box_list(hat.bump.boxes), px, py,
                              part.alphas)
        got = hat.jet(px, py, part.alphas)
        for a in part.alphas:
            assert got[a].tobytes() == want[a].tobytes()
    probes = [h.probe_points() for h in part.hats[::25]]
    px, py = (np.concatenate(c) for c in zip(*probes))
    hats = [i for i, h in enumerate(part.hats) if len(_in_bbox(h, px, py))]
    _check_every_hat(part, px, py, hats)


def _check_probe_jets(part, hats):
    """The one-pass probe jet of each hat, bitwise the two-pass reference
    (the hat's own jet over the hat sum); returns the reference jets."""
    wants = []
    for i in hats:
        wants.append(_probe_jet(part, part.hats[i]))
        got = part._probe_jet(i)
        for a in part.alphas:
            assert got[a].tobytes() == wants[-1][a].tobytes(), (i, a)
    return wants


@pytest.mark.parametrize("name, m", [("disk", 6), ("dumbbell", 7)])
def test_one_pass_probe_equals_two_pass_reference(name, m):
    _, part = _level(name, m)
    _check_probe_jets(part, range(len(part.hats)))


@pytest.mark.parametrize("m", [6, 7])
def test_one_pass_probe_on_the_smallest_psi_hats(m):
    """Three evenly spaced psi hats over the cubes of side 2^-m of disk
    h=1/256, the sup-norm probe's subset at levels 6 and 7."""
    dom = gallery.disk(1 / 256)
    dec = whitney_decompose(dom)
    part = build_partition(build_core_tentacle(dec, QhMetric(dom), m),
                           kmax=2)
    small = [i for i, h in enumerate(part.hats) if h.kind == "psi"
             and abs(dec.cubes[h.key].l - 2.0 ** (-m)) < 1e-12]
    hats = small[::max(1, len(small) // 3)][:3]
    assert len(hats) == 3
    for i, want in zip(hats, _check_probe_jets(part, hats)):
        for a in part.alphas:
            assert part.measured_sup(part.hats[i], a) == float(
                np.abs(want[a]).max()), (i, a)


def _reference_probe_points(boxes):
    """Each box's probe points from its profiles, box by box: 6 inside each
    ramp and 4 across the plateau per axis, on an ij grid."""
    def axis(p: Profile) -> np.ndarray:
        lo, hi = p.support
        return np.concatenate([np.linspace(lo, p.lo, 8)[1:-1],
                               np.linspace(p.hi, hi, 8)[1:-1],
                               np.linspace(p.lo, p.hi, 4)])

    xs, ys = [], []
    for box in boxes:
        mx, my = np.meshgrid(axis(box.px), axis(box.py), indexing="ij")
        xs.append(mx.ravel())
        ys.append(my.ravel())
    return np.concatenate(xs), np.concatenate(ys)


@pytest.mark.parametrize("name, m", _LEVELS)
def test_probe_points_equal_box_by_box_reference(name, m):
    _, part = _level(name, m)
    for hat in part.hats:
        got = hat.probe_points()
        want = _reference_probe_points(box_list(hat.bump.boxes))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(rects=st.lists(st.tuples(st.integers(0, 52), st.integers(0, 52),
                                st.integers(4, 28), st.integers(4, 28)),
                      min_size=1, max_size=5))
def test_partition_of_unity_on_generated_domains(rects):
    """On a connected union of random rectangles at h = 1/64, every level
    m = 4..9 that can be built tiles the domain with overlap at least 1, and
    its normalized hats sum to 1 at every hat's interior probe points."""
    bitmap = np.zeros((64, 64), dtype=bool)
    for i0, j0, ni, nj in rects:
        bitmap[i0:i0 + ni, j0:j0 + nj] = True
    # the base point at a deepest cell, where the coarse cubes are
    depth = ndimage.distance_transform_edt(np.pad(bitmap, 1))[1:-1, 1:-1]
    x0 = np.unravel_index(np.argmax(depth), bitmap.shape)
    dom = GridDomain(bitmap, 1 / 64, x0, trim=True)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    for m in range(4, 10):
        try:
            ct = build_core_tentacle(dec, qh, m)
        except DomainError:
            continue
        assert verify_tiling(ct), m
        assert verify_bounded_overlap(ct).extra["min"] >= 1, m
        part = build_partition(ct, kmax=0)
        probes = [_probe_points(part, hat) for hat in part.hats]
        x, y = (np.concatenate(c) for c in zip(*probes))
        s = part.sum_jet(x, y)[(0, 0)]
        total = np.zeros(len(x))
        for _, pts, jets in part.hat_jets(x, y, part.alphas):
            np.add.at(total, pts, jets[(0, 0)] / s[pts])
        assert np.abs(total - 1.0).max() < 1e-12, m
