"""Tests for the core/tentacle decomposition and its verification passes."""

import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from qhlab import decomposition, gallery
from qhlab.grid import (DomainError, GridDomain, _STRUCT8, _component_at,
                        components)
from qhlab.qh import QhMetric
from qhlab.whitney import whitney_decompose
from qhlab.decomposition import (
    _cells_mask,
    _window_cut,
    build_core_tentacle,
    chain_pair_classes,
    core_mask_at_level,
    rectangle_cover,
    verify_bounded_overlap,
    verify_chain_overlap,
    verify_cover,
    verify_distance_lemmas,
    verify_remark_inclusion,
    verify_tiling,
)


@pytest.fixture(scope="module")
def disk_ctx():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    return dom, qh, dec


@pytest.fixture(scope="module")
def ct6(disk_ctx):
    dom, qh, dec = disk_ctx
    return build_core_tentacle(dec, qh, 6)


@pytest.fixture(scope="module")
def ct7(disk_ctx):
    dom, qh, dec = disk_ctx
    return build_core_tentacle(dec, qh, 7)


@pytest.fixture(scope="module")
def dumbbell_ctx():
    dom = gallery.dumbbell(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    return dom, qh, dec, build_core_tentacle(dec, qh, 7)


def test_dilation_constant_guard(disk_ctx):
    dom, qh, dec = disk_ctx
    with pytest.raises(DomainError):
        build_core_tentacle(dec, qh, 6, c0=9.0)


def test_level_too_coarse_raises(disk_ctx):
    # the base point's cube has side 1/8 < 1/2
    dom, qh, dec = disk_ctx
    with pytest.raises(DomainError, match="too coarse"):
        build_core_tentacle(dec, qh, 1)


def test_degenerate_level_swallows_base_point(disk_ctx):
    # at m=5 the dilated band neighborhoods reach the base point
    dom, qh, dec = disk_ctx
    with pytest.raises(DomainError, match="swallowed"):
        build_core_tentacle(dec, qh, 5)


def test_core_contains_base_point_and_is_connected(ct6):
    dom = ct6.domain
    assert ct6.core_mask[dom.x0]
    _, n = ndimage.label(ct6.core_mask, structure=_STRUCT8)
    assert n == 1
    assert ct6.core_mask.sum() <= dom.interior.sum()


def test_band_cubes_in_size_window(ct6, ct7):
    for ct in (ct6, ct7):
        lo, hi = 2.0 ** (-ct.m), 2.0 ** (-(ct.m - 2))
        w1 = set(ct.W1)
        flagged, l = ct.dec.cubes.flagged, ct.dec.cubes.l
        for q in ct.P1:
            assert not flagged[q]
            assert lo - 1e-12 <= l[q] < hi - 1e-12
            assert q in w1


def test_core_cubes_fully_inside(ct6):
    corner, side = ct6.dec.cubes.corner, ct6.dec.cubes.side
    for q in ct6.W1:
        (i0, j0), s = corner[q], side[q]
        assert ct6.core_mask[i0 : i0 + s, j0 : j0 + s].all()


def test_disk_has_no_tentacles(ct6):
    assert ct6.U_ids == [0]
    assert ct6.V_ids == []
    assert ct6.groups == []
    assert sorted(ct6.Um) == sorted(ct6.P)


def test_halo_inside_neighborhood(ct6):
    for q in ct6.P1[:20]:
        halo = {tuple(c) for c in ct6.halo[q]}
        bq = {tuple(c) for c in ct6.bq[q]}
        assert halo <= bq
        # both contain the cube itself
        cells = {tuple(c) for c in ct6.dec.cube_cells(q)}
        assert cells <= halo


def test_tiling_cell_exact(ct6, ct7, dumbbell_ctx):
    assert verify_tiling(ct6)
    assert verify_tiling(ct7)
    assert verify_tiling(dumbbell_ctx[3])


def test_bounded_overlap(ct6, ct7, dumbbell_ctx):
    for ct in (ct6, ct7, dumbbell_ctx[3]):
        rep = verify_bounded_overlap(ct)
        assert rep.passed
        assert rep.extra["min"] >= 1
        assert np.isfinite(rep.constant) and rep.constant >= 1


def test_core_fraction_grows_with_level(disk_ctx, ct6, ct7):
    dom, qh, dec = disk_ctx
    ct8 = build_core_tentacle(dec, qh, 8)
    fracs = [ct6.core_fraction(), ct7.core_fraction(), ct8.core_fraction()]
    assert fracs[0] <= fracs[1] <= fracs[2]
    assert 0 < fracs[0] < 1


def test_dumbbell_has_one_tentacle(dumbbell_ctx):
    dom, qh, dec, ct = dumbbell_ctx
    assert len(ct.U_ids) == 1 and ct.U_ids[0] == 0
    assert len(ct.V_ids) == 1
    assert len(ct.groups) == 1
    g = ct.groups[0]
    assert g.members == [0]
    assert g.assigned_cube == min(g.cubes)
    assert g.cubes <= set(ct.P)
    assert sorted(set(ct.Um) | g.cubes) == sorted(ct.P)


def _cut_off(raw, lab0, where):
    """Do the cells ``where`` (a mask or an index tuple) lie off the base
    point's label ``lab0`` of the raw labels ``raw``?  None (degenerate)
    when every cell is removed (label 0)."""
    labs = raw[where]
    labs = labs[labs > 0]
    if not len(labs):
        return None
    return bool((labs != lab0).all())


def _halo_cut(ct, cubes):
    """Raw labels of the interior minus the union of the cubes' closed
    halos, their number, and the base point's label (0 when the union holds
    the base point), labelled on the whole bitmap."""
    dom = ct.domain
    removed = _cells_mask(dom.shape, *(ct.halo[q] for q in cubes))
    raw, n = ndimage.label(dom.interior & ~removed, structure=_STRUCT8)
    return raw, n, int(raw[dom.x0])


def test_dumbbell_blocking(dumbbell_ctx):
    dom, qh, dec, ct = dumbbell_ctx
    cells = np.argwhere(dom.interior)
    far = cells[(cells[:, 0] + 0.5) * dom.h > 0.65]
    cuts = [_halo_cut(ct, [q]) for q in ct.P1]
    blockers = [q for q, (raw, _, lab0) in zip(ct.P1, cuts)
                if lab0 and _cut_off(raw, lab0, tuple(far.T))]
    assert blockers, "some band cube separates the far chamber"
    # the base point's cell is never blocked off
    near = tuple(np.array([dom.x0]).T)
    for raw, _, lab0 in cuts[:10]:
        assert lab0 and _cut_off(raw, lab0, near) is False


def test_blocking_degenerate_inside_halo(dumbbell_ctx):
    dom, qh, dec, ct = dumbbell_ctx
    q = ct.P1[0]
    raw, _, lab0 = _halo_cut(ct, [q])
    assert lab0 and _cut_off(raw, lab0, tuple(ct.halo[q].T)) is None


def test_tentacle_mask_disjoint_from_core_component(dumbbell_ctx):
    dom, qh, dec, ct = dumbbell_ctx
    tm = ct.tentacle_mask(ct.groups[0])
    assert tm.any()
    assert not tm[dom.x0]


def test_trail_contains_own_cube(ct6):
    dom = ct6.domain
    trails = ct6.trails()
    for q in ct6.P1[:10]:
        cells = ct6.dec.cube_cells(q)
        nodes = dom.cell_node[cells[:, 0], cells[:, 1]]
        assert all(q in trails[v] for v in nodes[nodes >= 0])


def _band_on_path(ct, node):
    """The distinct band cubes along a node's radial path, in path order."""
    path = ct.qh.radial_tree().path_nodes(node)
    cubes = ct.dec.cell_cube[tuple(ct.domain.node_cells[path].T)].tolist()
    band = set(ct.P1)
    return tuple(dict.fromkeys(q for q in cubes if q in band))


def test_trails_are_the_band_cubes_on_each_radial_path(ct6, dumbbell_ctx):
    for ct in (ct6, dumbbell_ctx[3]):
        trails = ct.trails()
        assert len(trails) == ct.domain.n_nodes
        assert any(trails)
        for v in range(0, ct.domain.n_nodes, 7):
            assert trails[v] == _band_on_path(ct, v), v


def test_band_lists_ascending(ct6, ct7, dumbbell_ctx):
    for ct in (ct6, ct7, dumbbell_ctx[3]):
        assert ct.P1 == sorted(set(ct.P1))
        assert ct.P == sorted(set(ct.P))


def test_cover_at_resolved_levels(ct6, ct7, dumbbell_ctx):
    for ct in (ct6, ct7, dumbbell_ctx[3]):
        rep = verify_cover(ct)
        assert rep.extra["level_resolved"]
        assert rep.passed, rep.samples[:2]
        assert rep.constant >= 1


def test_cover_gate_below_resolution(disk_ctx):
    dom, qh, dec = disk_ctx
    ct8 = build_core_tentacle(dec, qh, 8)
    rep = verify_cover(ct8)
    assert not rep.extra["level_resolved"]


def test_chains_face_adjacent(ct6):
    adj = ct6.dec.adjacency
    plist = sorted(ct6.P)
    q = plist[0]
    assert ct6.chain(q, q) == [q]
    # a face-adjacent band pair chains in two cubes
    pair = next(
        (a, b) for a in plist for b in plist if b in adj[a]
    )
    assert ct6.chain(*pair) == list(pair)
    # symmetry and consecutive adjacency on arbitrary pairs
    for a, b in [(plist[0], plist[-1]), (plist[3], plist[40])]:
        ch = ct6.chain(a, b)
        assert ch[0] == a and ch[-1] == b
        assert ct6.chain(b, a) == ch[::-1]
        for u, v in zip(ch, ch[1:]):
            assert v in adj[u]


def test_distance_lemma_maxima(ct6):
    rep = verify_distance_lemmas(ct6)
    assert rep.passed
    assert rep.extra["trail_pairs_max"] > 0
    assert rep.extra["band_overlap_max"] > 0
    assert rep.extra["group_assigned_max"] == 0.0  # no groups on the disk


def test_distance_lemma_group_max(dumbbell_ctx):
    rep = verify_distance_lemmas(dumbbell_ctx[3])
    assert rep.passed and np.isfinite(rep.constant)


def test_distance_lemmas_equal_unbounded_fields(dumbbell_ctx, monkeypatch):
    """The limited cube fields change no maximum, and a first cube whose
    targets come back unreached is searched again without the limit."""
    ct = dumbbell_ctx[3]
    got = verify_distance_lemmas(ct).extra
    unbounded = QhMetric.min_field
    for bounded in (lambda self, nodes, limit=np.inf: unbounded(self, nodes),
                    lambda self, nodes, limit=np.inf: (
                        unbounded(self, nodes) if limit == np.inf
                        else np.full(self.domain.n_nodes, np.inf))):
        monkeypatch.setattr(QhMetric, "min_field", bounded)
        assert verify_distance_lemmas(ct).extra == got


def test_chain_overlap_bounded(ct6):
    pairs = chain_pair_classes(ct6)
    assert pairs and all(a < b for a, b in pairs)
    rep = verify_chain_overlap(ct6)
    assert rep.passed
    assert rep.constant >= 1
    assert rep.extra["longest_chain"] >= 2


def test_remark_inclusion_vacuous_when_unqualified(ct6):
    # with c0=10 a qualifying coarse level needs m >= 10
    assert verify_remark_inclusion(ct6) is None


def test_as_dict_roundtrip(ct6, dumbbell_ctx):
    for ct in (ct6, dumbbell_ctx[3]):
        blob = json.dumps(ct.as_dict())
        back = json.loads(blob)
        assert back["m"] == ct.m
        assert sorted(back["P"]) == sorted(ct.P)
        assert back["V_components"] == len(ct.V_ids)


def _mask_rects(mask):
    """The rectangles (i0, j0, ni, nj) of ``rectangle_cover`` on a mask's
    cells as one set."""
    cover = rectangle_cover([np.argwhere(mask)], mask.shape)
    return list(zip(*(a.tolist() for a in cover[1:])))


def test_mask_rectangles_exact_cover():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = rng.random((17, 23)) < 0.4
        rects = _mask_rects(mask)
        rebuilt = np.zeros_like(mask)
        count = np.zeros(mask.shape, dtype=int)
        for i0, j0, ni, nj in rects:
            rebuilt[i0:i0 + ni, j0:j0 + nj] = True
            count[i0:i0 + ni, j0:j0 + nj] += 1
        assert np.array_equal(rebuilt, mask)
        assert count.max(initial=0) <= 1  # disjoint
    assert _mask_rects(np.zeros((4, 4), dtype=bool)) == []
    assert _mask_rects(np.ones((3, 2), dtype=bool)) == [(0, 0, 3, 2)]


def _greedy_rectangles(mask):
    """Row-by-row greedy cover: horizontal runs merged downwards while the
    run in the next row is identical."""
    rects = []
    open_runs = {}  # (j0, j1) -> (i0, rows)
    for i in range(mask.shape[0]):
        row = mask[i]
        runs = []
        j = 0
        while j < len(row):
            if row[j]:
                j0 = j
                while j < len(row) and row[j]:
                    j += 1
                runs.append((j0, j))
            else:
                j += 1
        new_open = {}
        for r in runs:
            if r in open_runs:
                i0, rows = open_runs.pop(r)
                new_open[r] = (i0, rows + 1)
            else:
                new_open[r] = (i, 1)
        rects += [(i0, j0, rows, j1 - j0)
                  for (j0, j1), (i0, rows) in open_runs.items()]
        open_runs = new_open
    rects += [(i0, j0, rows, j1 - j0)
              for (j0, j1), (i0, rows) in open_runs.items()]
    return sorted(rects)


@settings(max_examples=200, deadline=None)
@given(mask=arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24))))
def test_mask_rectangles_equal_greedy_cover(mask):
    assert _mask_rects(mask) == _greedy_rectangles(mask)


def _reference_cover(ct, qidx, on_path):
    """cover() as specified, walking each node's radial path
    (``on_path(node)``: the band cubes on it) instead of the trails."""
    dom = ct.domain
    cells = ct.bq[qidx]
    cubes_here = np.unique(ct.dec.cell_cube[cells[:, 0], cells[:, 1]])
    w1set = set(ct.W1)
    direct = sorted(int(c) for c in cubes_here if int(c) in w1set)
    nodes = dom.cell_node[cells[:, 0], cells[:, 1]]
    nodes = nodes[nodes >= 0]
    rows = [on_path(v) for v in nodes.tolist()]
    via = set().union(*rows)
    cube_of = ct.dec.cell_cube[tuple(dom.node_cells[nodes].T)]
    on_trail = np.array([len(r) > 0 for r in rows], dtype=bool)
    covered = np.isin(cube_of, list(w1set)) | on_trail
    return direct, sorted(via), dom.node_cells[nodes[~covered]]


def test_cover_matches_radial_path_reference(ct6):
    ct = ct6
    assert ct.P
    on_path = functools.cache(lambda v: _band_on_path(ct, v))
    for q in ct.P:
        direct, via, uncovered = ct.cover(q)
        ref_direct, ref_via, ref_uncovered = _reference_cover(ct, q, on_path)
        assert direct == ref_direct
        assert via == ref_via
        assert all(type(v) is int for v in direct + via)
        assert np.array_equal(uncovered, ref_uncovered)


def _cut_by_components(labels, x0, cells_where):
    """Reference cut-off test on components() labels: None when every cell
    is removed, else whether all remaining cells lie off the base point's
    component."""
    labs = labels[cells_where]
    outside = labs >= 0
    if not outside.any():
        return None
    return bool((labs[outside] != labels[x0]).all())


@pytest.mark.parametrize("name", ["dumbbell", "slit_disk"])
def test_halo_cut_equals_components_formulation(name):
    dom = gallery.make(name, h=1 / 128)
    ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), 7)
    # query sets: the cutter's own halo (always degenerate), and the
    # neighborhoods of about 16 band and 8 blocked cubes spread over the band
    sample = ct.P1[::max(1, len(ct.P1) // 16)] \
        + ct.P_minus[::max(1, len(ct.P_minus) // 8)]
    seen = set()
    for qp in ct.P1:  # every band cube as the cutter
        removed = _cells_mask(dom.shape, ct.halo[qp])
        labels = components(dom, removed)
        raw, _, lab0 = _halo_cut(ct, [qp])
        assert (lab0 == 0) == bool(removed[dom.x0])
        for cells in [ct.halo[qp]] + [ct.bq[q] for q in sample]:
            where = tuple(cells.T)
            got = _cut_off(raw, lab0, where)
            assert got == _cut_by_components(labels, dom.x0, where)
            seen.add(got)
    assert seen == {None, False, True}
    for g in ct.groups:
        removed = _cells_mask(dom.shape, np.concatenate(
            [ct.halo[q] for q in g.cubes]))
        labels = components(dom, removed)
        raw, _, lab0 = _halo_cut(ct, g.cubes)
        for lab in ct.V_ids:
            vmask = ct.comp_labels == lab
            assert _cut_off(raw, lab0, vmask) \
                == _cut_by_components(labels, dom.x0, vmask)
    assert [g.members for g in ct.groups] == _members_reference(ct)


def _band_pairs_dense(ct):
    """Reference: pairwise AND of full-domain neighborhood masks."""
    masks = {q: _cells_mask(ct.domain.shape, ct.bq[q]) for q in ct.P}
    band = sorted(ct.P)
    return [(a, b) for i, a in enumerate(band) for b in band[i + 1:]
            if (masks[a] & masks[b]).any()]


def test_band_overlap_pairs_equal_dense_and(ct6, ct7, dumbbell_ctx):
    for ct in (ct6, ct7, dumbbell_ctx[3]):
        ref = _band_pairs_dense(ct)
        assert ref
        assert ct.band_overlap_pairs() == ref


def _prune_reference(ct, targets=None):
    """The whole-domain loop: one label of the domain per band cube as the
    cutter, every other band cube's neighbourhood (or only those of the
    band cubes ``targets``) tested on it."""
    blocked = set()
    for qp in ct.P1:
        raw, n, lab0 = _halo_cut(ct, [qp])
        if not lab0 or n <= 1:
            continue
        for q in ct.P1 if targets is None else targets:
            if q != qp and q not in blocked \
                    and _cut_off(raw, lab0, tuple(ct.bq[q].T)):
                blocked.add(q)
    return sorted(blocked)


def _boxes(cell_sets):
    """Each (n, 2) cell set's first and last cell, (sets, 2, 2)."""
    return np.array([[c.min(0), c.max(0)] for c in cell_sets],
                    dtype=np.int64).reshape(-1, 2, 2)


def _prune_paths(ct):
    """Per cutter: None for the whole-bitmap label, else whether the base
    point lies inside the cutter's window (and off its halo)."""
    halos = list(ct.halo.values())
    out, seen = [None] * len(halos), []
    for k, raw, _, lab0, origin in _window_cut(ct.domain, halos,
                                               _boxes(halos)):
        seen.append(k)
        if raw.shape != ct.domain.shape:
            x0 = np.subtract(ct.domain.x0, origin)
            out[k] = bool(lab0) and bool(((x0 >= 0) & (x0 < raw.shape)).all())
    assert sorted(seen) == list(range(len(halos)))
    return out


def _halo_and_bq_reference(dec, q, c0):
    """Cells of the components, through the cube's centre cell, of the
    domain inside the cube's c0- and 11/10*c0-dilated concentric boxes, one
    cube at a time: each box's cells tested in the larger box's window,
    clipped to the bitmap, and labelled on it."""
    domain, h, row = dec.domain, dec.domain.h, dec.cubes[q]
    (ci, cj), s, l = row.corner.tolist(), int(row.side), float(row.l)
    cx, cy = (ci + s / 2.0) * h, (cj + s / 2.0) * h
    small, big = ((cx - half, cx + half, cy - half, cy + half)
                  for half in (c0 * l / 2.0, 1.1 * c0 * l / 2.0))
    x0b, x1b, y0b, y1b = big
    i0 = max(int(np.floor(x0b / h - 0.5)), 0)
    i1 = min(int(np.ceil(x1b / h - 0.5)) + 1, domain.shape[0])
    j0 = max(int(np.floor(y0b / h - 0.5)), 0)
    j1 = min(int(np.ceil(y1b / h - 0.5)) + 1, domain.shape[1])
    ii = (np.arange(i0, i1) + 0.5) * h
    jj = (np.arange(j0, j1) + 0.5) * h
    interior = domain.interior[i0:i1, j0:j1]
    centre = (ci + (s - 1) // 2 - i0, cj + (s - 1) // 2 - j0)
    out = []
    for x0b, x1b, y0b, y1b in (small, big):
        inside = np.outer((ii >= x0b) & (ii <= x1b), (jj >= y0b) & (jj <= y1b))
        cells = np.argwhere(_component_at(inside & interior, centre))
        assert len(cells)
        out.append(cells + (i0, j0))
    return out


def _assert_halos_equal_reference(dec, cubes, c0, halos, bqs, boxes=None):
    """Each cube's halo and bq equal the per-cube reference, cell for cell
    and in row order, and ``boxes`` their first and last cells."""
    assert len(halos) == len(bqs) == len(cubes)
    for k, q in enumerate(cubes):
        for s, (got, want) in enumerate(zip(
                (halos[k], bqs[k]), _halo_and_bq_reference(dec, q, c0))):
            assert got.dtype == want.dtype and np.array_equal(got, want), q
            if boxes is not None:
                assert np.array_equal(boxes[s, k], _boxes([want])[0])


def _record_bands(monkeypatch):
    """Record each ``_halos_and_bqs`` call a build makes, even one whose
    level then raises: (cubes, c0, halos, bqs, boxes)."""
    calls, real = [], decomposition._halos_and_bqs

    def record(dec, cubes, c0):
        out = real(dec, cubes, c0)
        calls.append((cubes, c0, *out))
        return out
    monkeypatch.setattr(decomposition, "_halos_and_bqs", record)
    return calls


def _swallowed_reference(dec, cubes, halos, bqs):
    """Does the whole-bitmap prune loop leave a band cube whose halo holds
    the base point?  The band as one ``_halos_and_bqs`` call gives it.
    Whether a cube is pruned does not depend on the other cubes tested, so
    only those whose halo holds the base point are."""
    band = SimpleNamespace(domain=dec.domain, P1=list(cubes),
                           halo=dict(zip(cubes, halos)),
                           bq=dict(zip(cubes, bqs)))
    holding = [q for q in band.P1
               if (band.halo[q] == dec.domain.x0).all(1).any()]
    return bool(holding) and bool(
        set(holding) - set(_prune_reference(band, holding)))


def _build_checking_swallowed(dec, qh, m, c0):
    """Build a level, or return its DomainError text, checking that it
    raises "swallowed" exactly when the whole-bitmap prune loop leaves a
    band halo holding the base point, and then before any prune."""
    prunes, real = [], decomposition.CoreTentacleDecomposition._prune

    def prune(self, boxes):
        prunes.append(self.m)
        return real(self, boxes)
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_bands(mp)
        mp.setattr(decomposition.CoreTentacleDecomposition, "_prune", prune)
        try:
            out = build_core_tentacle(dec, qh, m, c0)
        except DomainError as exc:
            out = str(exc)
    swallowed = isinstance(out, str) and "swallowed" in out
    for cubes, _, halos, bqs, _ in calls:
        assert swallowed == _swallowed_reference(dec, cubes, halos, bqs)
    assert calls or not swallowed
    assert not (swallowed and prunes), (m, c0)
    return out


def test_swallowed_reads_halo_cells_not_boxes(disk_ctx, monkeypatch):
    """Only a halo cell at the base point swallows it, not a halo's
    bounding box around it: with the base point cut out of every halo, the
    swallowed disk level m=5 goes on to the prune."""
    dom, qh, dec = disk_ctx
    real = decomposition._halos_and_bqs

    def punched(dec, cubes, c0):
        halos, bqs, boxes = real(dec, cubes, c0)
        return [c[(c != dom.x0).any(1)] for c in halos], bqs, boxes
    assert "swallowed" in _build_checking_swallowed(dec, qh, 5, 10.0)
    monkeypatch.setattr(decomposition, "_halos_and_bqs", punched)
    out = _build_checking_swallowed(dec, qh, 5, 10.0)
    assert not (isinstance(out, str) and "swallowed" in out)


@pytest.mark.parametrize("name", ["comb", "spiral"])
def test_swallowed_level_labels_only_cubes_near_the_base_point(
        name, monkeypatch):
    """A swallowed level labels the halos of the band cubes whose c0 box
    holds the base point's centre, in one call, and never the rest of its
    band; a level that builds labels the rest in a second call."""
    dom = gallery.make(name, 1 / 128)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    calls = _record_bands(monkeypatch)
    at = (np.array(dom.x0) + 0.5) * dom.h
    outcomes = []
    for m in (6, 7, 8):
        # the band, as the level's P1 is defined
        w1 = np.unique(dec.cell_cube[core_mask_at_level(dec, m)])
        l = dec.cubes.l[w1]
        band = w1[(2.0 ** -m - 1e-12 <= l) & (l < 2.0 ** (2 - m) - 1e-12)]
        box = dec.boxes(band, 10.0)
        holds = ((box[:, 0::2] <= at) & (at <= box[:, 1::2])).all(1)
        del calls[:]
        try:
            build_core_tentacle(dec, qh, m)
            outcomes.append("built")
        except DomainError as exc:
            assert "swallowed" in str(exc)
            outcomes.append("swallowed")
        assert list(calls[0][0]) == band[holds].tolist()
        if outcomes[-1] == "swallowed":
            assert len(calls) == 1 and holds.sum() < len(band)
        else:
            assert len(calls) == 2
            assert list(calls[1][0]) == band[~holds].tolist()
    assert outcomes == ["swallowed", "swallowed", "built"]


def _assert_level_halos(ct):
    """The level's halo and bq dicts run in P1 order and equal the per-cube
    reference."""
    assert list(ct.halo) == list(ct.bq) == ct.P1
    _assert_halos_equal_reference(
        ct.dec, ct.P1, ct.c0, list(ct.halo.values()), list(ct.bq.values()))


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_prune_equals_whole_domain_loop(name, monkeypatch):
    """Levels m = 3..9: each is swallowed exactly when the whole-bitmap
    loop says, before pruning, and each one built prunes as that loop
    does."""
    dom = gallery.make(name, h=1 / 128)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    paths, swallowed = [], 0
    calls = _record_bands(monkeypatch)
    for m in range(3, 10):
        ct = _build_checking_swallowed(dec, qh, m, 10.0)
        if isinstance(ct, str):
            swallowed += "swallowed" in ct
            continue  # not constructible at this level
        _assert_level_halos(ct)
        assert ct.P_minus == _prune_reference(ct)
        paths += _prune_paths(ct)
    # every level's halos, those of levels that then raise included
    for cubes, c0, *out in calls:
        _assert_halos_equal_reference(dec, cubes, c0, *out)
    if name in ("spiral", "dumbbell", "slit_disk"):
        assert None in paths  # split windows: the whole-domain label
    if name != "punctured_square":  # its only level has an empty band
        assert False in paths  # decided on the window
    assert swallowed


@pytest.mark.parametrize("name, h, m, c0", [("dumbbell", 1 / 256, 7, 10.0),
                                            ("slit_disk", 1 / 128, 7, 20.0)])
def test_prune_equals_whole_domain_loop_finer(name, h, m, c0):
    dom = gallery.make(name, h=h)
    ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), m, c0)
    assert ct.P_minus and ct.P_minus == _prune_reference(ct)
    paths = _prune_paths(ct)
    assert None in paths and False in paths
    if name == "slit_disk":
        assert True in paths  # the base point inside a decided window


@pytest.mark.parametrize("name, h, levels", [
    ("disk", 1 / 256, (6, 7)), ("dumbbell", 1 / 256, (6, 7)),
    ("disk", 1 / 100, (5, 6, 7)), ("dumbbell", 1 / 100, (5, 6, 7))])
def test_halos_equal_per_cube_reference(name, h, levels, monkeypatch):
    """Finer and non-dyadic grids: the box test stays elementwise, so a
    non-dyadic h gives the same cells as the per-cube construction."""
    dom = gallery.make(name, h=h)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    calls = _record_bands(monkeypatch)
    built = 0
    for m in levels:
        try:
            ct = build_core_tentacle(dec, qh, m)
        except DomainError:
            continue
        built += 1
        _assert_level_halos(ct)
        assert ct.P_minus == _prune_reference(ct)
    # a swallowed level labels its band in one call, a built one in two
    assert len(calls) == len(levels) + built
    for cubes, c0, *out in calls:
        _assert_halos_equal_reference(dec, cubes, c0, *out)


@pytest.mark.parametrize("name, m", [("dumbbell", 7), ("punctured_square", 9)])
def test_window_batches_change_no_output(name, m, monkeypatch):
    """Batches of one window, and of a few, give the same level as the
    default budget; punctured_square's level has an empty band."""
    dom = gallery.make(name, h=1 / 128)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    want = build_core_tentacle(dec, qh, m)
    real = decomposition._batches
    for budget in (0, 1000):
        splits = []

        def batches(sizes, most, padded=False):
            out = list(real(sizes, most, padded))
            splits.append((len(sizes), len(out)))
            return out
        monkeypatch.setattr(decomposition, "_WINDOW_CELLS", budget)
        monkeypatch.setattr(decomposition, "_batches", batches)
        got = build_core_tentacle(dec, qh, m)
        assert got.as_dict() == want.as_dict()
        assert got.P_minus == want.P_minus
        assert list(got.halo) == list(want.halo) == want.P1
        for q in want.P1:
            assert np.array_equal(got.halo[q], want.halo[q])
            assert np.array_equal(got.bq[q], want.bq[q])
        assert all(b > 1 for n, b in splits if n > 1)
        assert (max((n for n, _ in splits), default=0) > 1) == bool(want.P1)


def _members_reference(ct):
    """Each group's thin components, each assigned to the first group that
    cuts off its full mask on the whole-bitmap label of the group's halos."""
    members = [[] for _ in ct.groups]
    cuts = [_halo_cut(ct, g.cubes) for g in ct.groups]
    for vpos, lab in enumerate(ct.V_ids):
        vmask = ct.comp_labels == lab
        k = next(k for k, (raw, _, lab0) in enumerate(cuts)
                 if _cut_off(raw, lab0, vmask))
        members[k].append(vpos)
    return members


def _rooms_and_corridors(rooms, corridors) -> GridDomain:
    """Rectangular rooms (i0, j0, ni, nj) joined by L-shaped corridors
    (a, b, width) that run from room a's centre along its rows to room b's
    centre column, then along that column: a 64x64 bitmap at h = 1/64 with
    the base point at a deepest cell."""
    bitmap = np.zeros((62, 62), dtype=bool)
    centres = []
    for i0, j0, ni, nj in rooms:
        bitmap[i0:i0 + ni, j0:j0 + nj] = True
        centres.append((min(i0 + ni // 2, 61), min(j0 + nj // 2, 61)))
    for a, b, w in corridors:
        (ia, ja), (ib, jb) = centres[a % len(rooms)], centres[b % len(rooms)]
        bitmap[ia:ia + w, min(ja, jb):max(ja, jb) + w] = True
        bitmap[min(ia, ib):max(ia, ib) + w, jb:jb + w] = True
    bitmap = np.pad(bitmap, 1)
    depth = ndimage.distance_transform_edt(bitmap)
    x0 = np.unravel_index(np.argmax(depth), bitmap.shape)
    return GridDomain(bitmap, 1 / 64, x0, trim=True)


@settings(max_examples=50, deadline=None)
@given(rooms=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49),
                                st.integers(4, 28), st.integers(4, 28)),
                      min_size=1, max_size=4),
       corridors=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.integers(1, 3)), max_size=3))
def test_prune_and_groups_on_generated_domains(rooms, corridors):
    """On rooms joined by corridors, every level m = 3..9 with c0 = 10 or
    14 is swallowed exactly as the whole-bitmap loop says, before pruning;
    every one that can be built has the per-cube halos and bq, prunes as
    the whole-bitmap loop does, and assigns each thin component as the
    full-mask test on whole-bitmap labels does."""
    dom = _rooms_and_corridors(rooms, corridors)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    for c0 in (10.0, 14.0):
        for m in range(3, 10):
            ct = _build_checking_swallowed(dec, qh, m, c0)
            if isinstance(ct, str):
                continue  # not constructible at this level
            _assert_level_halos(ct)
            assert ct.P_minus == _prune_reference(ct), (c0, m)
            assert [g.members for g in ct.groups] \
                == _members_reference(ct), (c0, m)


def _assert_window_cuts_exact(dom, halos):
    """``_window_cut`` of the halos in one call: each halo yielded once,
    with the component count, base label and off-base cells of the whole
    bitmap's label.  Returns the halos whose window decided."""
    seen, decided = [], []
    for k, raw, n_w, lab0_w, origin in _window_cut(dom, halos, _boxes(halos)):
        seen.append(k)
        ref, n = ndimage.label(
            dom.interior & ~_cells_mask(dom.shape, halos[k]),
            structure=_STRUCT8)
        lab0 = ref[dom.x0]
        assert n_w == n and bool(lab0_w) == bool(lab0), k
        # the window labels the interior cells off the base component exactly
        win = np.zeros(dom.shape, dtype=bool)
        i0, j0 = origin
        win[i0:i0 + raw.shape[0], j0:j0 + raw.shape[1]] = \
            (raw > 0) & (raw != lab0_w)
        if lab0:
            assert np.array_equal(win, (ref > 0) & (ref != lab0)), k
        if raw.shape != dom.shape:
            decided.append(k)
    assert sorted(seen) == list(range(len(halos)))
    return decided


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(8, 24), st.integers(8, 24)),
       seed=st.integers(0, 2**32 - 1), density=st.floats(0.5, 0.95),
       data=st.data())
def test_window_cut_equals_whole_domain_label(shape, seed, density, data):
    # generated domains: random cells kept with the given density, the
    # component of a random interior cell as the domain
    bitmap = np.random.default_rng(seed).random(shape) < density
    bitmap[[0, -1], :] = bitmap[:, [0, -1]] = False
    cells = np.argwhere(bitmap)
    if len(cells) < 2:
        return
    pick = data.draw(st.integers(0, len(cells) - 1))
    dom = GridDomain(bitmap, 1 / 16, tuple(cells[pick]), trim=True)
    inner = np.argwhere(dom.interior)
    # one to three halos, cut in one call: each the interior cells of a box
    # frame around an interior cell (a full box when the frame is thick),
    # so that it may enclose pockets
    halos = []
    for _ in range(data.draw(st.integers(1, 3))):
        ci, cj = inner[data.draw(st.integers(0, len(inner) - 1))]
        r = data.draw(st.integers(0, 8))
        t = data.draw(st.integers(1, r + 1))
        box = np.zeros(dom.shape, dtype=bool)
        box[max(ci - r, 0):ci + r + 1, max(cj - r, 0):cj + r + 1] = True
        box[max(ci - r + t, 0):max(ci + r - t + 1, 0),
            max(cj - r + t, 0):max(cj + r - t + 1, 0)] = False
        halo = np.argwhere(box & dom.interior)
        if len(halo):
            halos.append(halo)
    if halos:
        _assert_window_cuts_exact(dom, halos)


def test_window_cut_joins_arms_and_skips_empty_windows():
    """Two cases the generated domains seldom reach.  A frame across both
    arms of a U, which join below the window, splits neither arm: the
    window decides, with its two ring labels as one component and a pocket
    in each arm.  A window left with no cell (its halo holds the whole
    room) between two others in one batch: the windows after it count
    their own components only."""
    u = np.zeros((26, 18), dtype=bool)
    u[1:25, 1:7] = u[1:25, 11:17] = u[19:25, 1:17] = True
    dom = GridDomain(u, 1 / 16, (22, 8))
    frame = np.zeros(u.shape, dtype=bool)
    frame[6:13, 3:15] = True
    frame[7:12, 4:14] = False
    halo = np.argwhere(frame & dom.interior)
    assert _assert_window_cuts_exact(dom, [halo]) == [0]
    room = np.zeros((7, 7), dtype=bool)
    room[1:5, 1:5] = True
    dom = GridDomain(room, 1 / 16, (3, 3))
    halos = [np.array([[2, 2]]), np.argwhere(room), np.array([[1, 1], [4, 4]])]
    assert _assert_window_cuts_exact(dom, halos) == [0, 1, 2]
