"""Tests for the dyadic Whitney decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhlab import gallery
from qhlab.grid import GridDomain
from qhlab.whitney import SQRT2, whitney_decompose


def check_invariants(dom, dec):
    q = dec.cubes
    counts = np.zeros(dom.shape, dtype=int)
    for (i0, j0), s in zip(q.corner.tolist(), q.side.tolist()):
        counts[i0 : i0 + s, j0 : j0 + s] += 1
    diam, dist = (q.l * SQRT2)[~q.flagged], q.dist[~q.flagged]
    assert (diam <= dist + 1e-12).all()
    assert (dist <= 4 * diam + 1e-12).all()
    assert np.array_equal(counts > 0, dom.interior)  # exact tiling ...
    assert counts.max() <= 1  # ... with disjoint cubes
    side = q.side.tolist()
    for k, s in enumerate(side):
        for j in dec.adjacency[k]:
            ratio = max(s, side[j]) / min(s, side[j])
            assert ratio <= 4


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_invariants_gallery(name):
    dom = gallery.make(name, 1 / 128)
    check_invariants(dom, whitney_decompose(dom))


@settings(max_examples=200, deadline=None)
@given(rects=st.lists(st.tuples(st.integers(0, 28), st.integers(0, 28),
                                st.integers(1, 16), st.integers(1, 16)),
                      min_size=1, max_size=5),
       data=st.data())
def test_invariants_on_rectangle_unions(rects, data):
    """The invariants on the component of a drawn cell in a union of
    random rectangles, one-cell-wide ones included."""
    bitmap = np.zeros((32, 32), dtype=bool)
    for i0, j0, ni, nj in rects:
        bitmap[i0 : i0 + ni, j0 : j0 + nj] = True
    cells = np.argwhere(bitmap)
    x0 = cells[data.draw(st.integers(0, len(cells) - 1))]
    dom = GridDomain(bitmap, 1 / 32, x0, trim=True)
    check_invariants(dom, whitney_decompose(dom))


def _depth_first_cubes(domain):
    """Reference cover: the depth-first block recursion checked against a
    pyramid of all-interior masks.  Returns (index, corner, size, l, dist,
    flagged) of each cube in (corner, size) order, and the cells' cubes."""
    interior, h = domain.interior, domain.h
    size_top = 1 << int(np.ceil(np.log2(max(domain.shape))))
    all_int = [interior]  # partial blocks count as exterior
    while all_int[-1].shape[0] > 1 or all_int[-1].shape[1] > 1:
        a = all_int[-1]
        pa = np.zeros((a.shape[0] + a.shape[0] % 2,
                       a.shape[1] + a.shape[1] % 2), dtype=bool)
        pa[: a.shape[0], : a.shape[1]] = a
        all_int.append(pa[0::2, 0::2] & pa[1::2, 0::2]
                       & pa[0::2, 1::2] & pa[1::2, 1::2])
    cubes = []
    stack = [(0, 0, size_top)]
    while stack:
        i0, j0, size = stack.pop()
        lvl = size.bit_length() - 1
        bi, bj = i0 >> lvl, j0 >> lvl
        full = (lvl < len(all_int) and bi < all_int[lvl].shape[0]
                and bj < all_int[lvl].shape[1] and bool(all_int[lvl][bi, bj]))
        d = float(domain.dist[i0 + size // 2, j0 + size // 2]) if full else 0.0
        if full and size * h * SQRT2 <= d and size < size_top:
            cubes.append(((i0, j0), size, size * h, d, False))
        elif size == 1:
            if i0 < domain.shape[0] and j0 < domain.shape[1] \
                    and interior[i0, j0]:
                d1 = float(domain.dist[i0, j0])
                cubes.append(((i0, j0), 1, h, d1, not h * SQRT2 <= d1))
        else:
            half = size // 2
            stack += [(i0 + di, j0 + dj, half)
                      for di in (0, half) for dj in (0, half)]
    cubes.sort(key=lambda q: (q[0], q[1]))
    cell_cube = np.full(domain.shape, -1, dtype=np.int64)
    for k, ((i0, j0), size, *_) in enumerate(cubes):
        cell_cube[i0 : i0 + size, j0 : j0 + size] = k
    return [(k, *q) for k, q in enumerate(cubes)], cell_cube


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(2, 40), st.integers(2, 40)),
       rects=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                                st.integers(1, 40), st.integers(1, 40)),
                      min_size=1, max_size=5),
       h=st.sampled_from([1 / 64, 1 / 7, 1.0]), data=st.data())
def test_level_passes_equal_depth_first_recursion(shape, rects, h, data):
    """The level-by-level cover is the depth-first recursion's, cube for
    cube and cell for cell, on non-square bitmaps, those touching the edge
    (padded by ``GridDomain``) included."""
    bitmap = np.zeros(shape, dtype=bool)
    for fi, fj, ni, nj in rects:
        i0, j0 = int(fi * (shape[0] - 1)), int(fj * (shape[1] - 1))
        bitmap[i0 : i0 + ni, j0 : j0 + nj] = True
    cells = np.argwhere(bitmap)
    x0 = cells[data.draw(st.integers(0, len(cells) - 1))]
    dom = GridDomain(bitmap, h, x0, trim=True)
    dec = whitney_decompose(dom)
    want, cell_cube = _depth_first_cubes(dom)
    q = dec.cubes
    assert list(zip(range(len(q)), map(tuple, q.corner.tolist()),
                    q.side.tolist(), q.l.tolist(), q.dist.tolist(),
                    q.flagged.tolist())) == want
    assert np.array_equal(dec.cell_cube, cell_cube)


def test_unit_square_central_quarter_cubes():
    dom = gallery.square(1 / 256, margin=0.0)
    dec = whitney_decompose(dom)
    quarters = np.flatnonzero(np.abs(dec.cubes.l - 0.25) < 1e-12)
    assert len(quarters) == 4
    corners = sorted(map(tuple, dec.cubes.corner[quarters].tolist()))
    assert corners == [(64, 64), (64, 128), (128, 64), (128, 128)]


def test_minimal_square_single_cube():
    # a 4x4-cell square block far enough from the boundary to be one cube
    mask = np.zeros((16, 16), dtype=bool)
    mask[6:10, 6:10] = True
    h = 1.0
    dom = GridDomain(mask, h, (7, 7))
    dec = whitney_decompose(dom)
    # the central block is too close to its own boundary for a 4-cube
    # (dist ~ 2h < diam 4h*sqrt2); expect a valid decomposition regardless
    check_invariants(dom, dec)


def test_scaling_self_similarity():
    # same physical disk rasterized at h and h/2 with radii r and r：identical
    # cell masks arise for (r, h) vs (r/2, h/2) after coordinate scaling, so
    # the cube multiset scales exactly by one dyadic level.
    a = gallery.disk(1 / 64, radius=0.4)
    b = gallery.disk(1 / 128, radius=0.4)  # same shape, double resolution

    deca, decb = whitney_decompose(a), whitney_decompose(b)
    # cubes of physical size l at h correspond to cubes of size l at h/2 in
    # similar counts; exact equality holds for the scaled mask construction:
    c = GridDomain(np.kron(a.interior, np.ones((2, 2), bool)), 1 / 128,
                   (2 * a.x0[0], 2 * a.x0[1]), trim=True)
    # skip the padding ring difference: compare multisets of levels per count
    decc = whitney_decompose(c)
    sizes_a = sorted((deca.cubes.side[~deca.cubes.flagged] * 2).tolist())
    sizes_c = sorted(decc.cubes.side[~decc.cubes.flagged].tolist())
    # doubling the mask doubles distances, so every unflagged cube at h
    # reappears doubled (finer splitting may add small cubes near boundary)
    from collections import Counter

    ca, cc = Counter(sizes_a), Counter(sizes_c)
    assert max(ca) == max(cc)  # coarse structure identical
    for size, cnt in ca.items():
        if size >= 8:  # away from the one-cell threshold the rule is exact
            assert abs(cc[size] - cnt) <= max(2, 0.2 * cnt)


def test_locate_cube():
    dom = gallery.disk(1 / 128)
    dec = whitney_decompose(dom)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        node = rng.integers(0, dom.n_nodes)
        cell = tuple(dom.node_cells[node])
        q = dec.cell_cube[cell]
        (i0, j0), s = dec.cubes.corner[q], dec.cubes.side[q]
        assert i0 <= cell[0] < i0 + s and j0 <= cell[1] < j0 + s
    assert not dom.interior[0, 0] and dec.cell_cube[0, 0] == -1


def test_locate_cube_center_and_same_cell():
    dom = gallery.disk(1 / 64)
    dec = whitney_decompose(dom)
    q = np.flatnonzero(dec.cubes.side >= 4)[0]
    assert dec.cell_cube[tuple(dec.centre_cells([q])[0])] == q


@pytest.mark.parametrize("h", [1 / 128, 1 / 100])
def test_cube_table_columns_and_formulas(h):
    """The cubes are one record array whose columns shadow no ndarray
    attribute; boxes, centre cells and cells are the closed forms, cube by
    cube; and a row reads as perfbench reads it."""
    dom = gallery.disk(h)
    dec = whitney_decompose(dom)
    q = dec.cubes
    assert isinstance(q, np.recarray)
    assert [(name, q.dtype[name]) for name in q.dtype.names] == [
        ("corner", np.dtype((np.int64, (2,)))), ("side", np.int64),
        ("l", np.float64), ("dist", np.float64), ("flagged", np.bool_)]
    assert not set(q.dtype.names) & set(dir(np.ndarray))
    assert q.corner.shape == (len(q), 2)
    idx = np.arange(len(q))
    scales = (1.0, 10.0, 1.1 * 10.0)
    boxes = [dec.boxes(idx, scale).tolist() for scale in scales]
    centres = dec.centre_cells(idx).tolist()
    for k, ((i0, j0), s, l) in enumerate(zip(q.corner.tolist(),
                                             q.side.tolist(), q.l.tolist())):
        assert l == s * h
        cx, cy = (i0 + s / 2.0) * h, (j0 + s / 2.0) * h
        for scale, got in zip(scales, boxes):
            half = scale * l / 2.0
            assert got[k] == [cx - half, cx + half, cy - half, cy + half]
        assert centres[k] == [i0 + (s - 1) // 2, j0 + (s - 1) // 2]
        assert dec.cube_cells(k).tolist() == [
            [i, j] for i in range(i0, i0 + s) for j in range(j0, j0 + s)]
    # many cubes of one side at once: the one-cube cells, stacked
    same = np.flatnonzero(q.side == q.side.max())
    assert np.array_equal(dec.cube_cells(same),
                          np.stack([dec.cube_cells(k) for k in same]))
    # perfbench reads a row's l and the table's length
    assert len(dec.cubes) == len(idx) > 0
    assert [dec.cubes[k].l for k in (0, len(q) - 1)] == [q.l[0], q.l[-1]]
    assert int((q.side ** 2).sum()) == int(dom.interior.sum())


def test_runtime_budget():
    import time

    for name in sorted(gallery.GALLERY):
        dom = gallery.make(name, 1 / 256)
        t0 = time.time()
        whitney_decompose(dom)
        assert time.time() - t0 < 10.0
