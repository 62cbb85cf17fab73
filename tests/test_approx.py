"""Tests for the assembled approximant, seminorms, and error decay."""

import gc
import weakref
from math import factorial

import numpy as np
import pytest

from qhlab import fixtures, gallery, poly
from qhlab.grid import DomainError, GridDomain
from qhlab.qh import QhMetric
from qhlab.whitney import whitney_decompose
from qhlab.decomposition import CoreTentacleDecomposition, build_core_tentacle
from qhlab.fixtures import multi_indices
from qhlab.poly import fit_cubes, fit_polynomial
from qhlab.pou import build_partition, jet_product, jet_quotient, jet_zero
from qhlab.approx import (
    EvalGrid,
    SampledFunction,
    assemble,
    check_analysts_trick,
    core_mask_at_level,
    error_decay,
    error_localization,
    reproduction_error,
    seminorm,
)


@pytest.fixture(scope="module")
def disk_setup():
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    ct = build_core_tentacle(dec, qh, 6)
    grid = EvalGrid(dom, 2)
    return dom, qh, dec, ct, grid


@pytest.fixture(scope="module")
def pou2(disk_setup):
    return build_partition(disk_setup[3], kmax=2)


def unit_square(n=32):
    return GridDomain(np.ones((n, n), dtype=bool), 1.0 / n,
                      (n // 2, n // 2), name="full", trim=False)


def test_eval_grid_refines_and_caps():
    dom = gallery.disk(1 / 128)
    g = EvalGrid(dom, 2)
    assert g.spacing == pytest.approx(dom.h / 2)
    assert len(g.x) == 4 * dom.interior.sum()
    capped = EvalGrid(dom, 64)  # 128*64 > 1024 -> falls back
    assert max(dom.shape) * capped.refine <= EvalGrid.MAX_SIDE


def test_sampled_function_guards():
    g = EvalGrid(gallery.disk(1 / 64), 2)
    f = fixtures.smooth_background(order=2)
    with pytest.raises(DomainError):
        SampledFunction(g, f, 3, 2.0)  # k beyond field order
    with pytest.raises(DomainError):
        SampledFunction(g, f, 1, 0.5)  # p < 1
    u = SampledFunction(g, f, 2, 2.0)
    # central differences of the sampled field agree with its jets
    idx = np.random.default_rng(0).choice(len(g.x), size=200, replace=False)
    assert fixtures.verify_jets(u.field, g.x[idx], g.y[idx], g.spacing / 64,
                                order=u.k) < 1e-6


def test_seminorm_linear_field():
    dom = unit_square()
    grid = EvalGrid(dom, 2)
    u = SampledFunction(grid, fixtures.polynomial({(1, 0): 1.0}, order=1),
                        1, 2.0)
    assert seminorm(u.jets, None, 1, 2.0, grid.cell_area) == pytest.approx(1.0)
    zero = SampledFunction(grid, fixtures.constant(0.0, order=1), 1, 2.0)
    assert seminorm(zero.jets, None, 1, 2.0, grid.cell_area) == 0.0


def test_seminorm_radial_vs_analytic():
    # f = |x|^s on the quarter-plane square: int |grad f|^p has a closed form
    dom = unit_square(64)
    grid = EvalGrid(dom, 2)
    s, p = 1.4, 2.0
    f = fixtures.radial_power((0.0, 0.0), s, order=1)
    u = SampledFunction(grid, f, 1, p)
    # integrate |grad f|^p = s^p r^(p(s-1)) over the unit square
    # numerically on a fine reference grid; the domain gets padded with an
    # exterior ring, so the square physically occupies [h, 1+h]^2
    t = dom.h + (np.arange(2048) + 0.5) / 2048
    xx, yy = np.meshgrid(t, t, indexing="ij")
    rr = np.hypot(xx, yy)
    ref = ((s * rr ** (s - 1)) ** p).mean() ** (1 / p)
    assert seminorm(u.jets, None, 1, p, grid.cell_area) == \
        pytest.approx(ref, rel=0.01)


def test_constant_reproduction(disk_setup, pou2):
    dom, qh, dec, ct, grid = disk_setup
    u = SampledFunction(grid, fixtures.constant(3.25, order=2), 2, 2.0)
    ap = assemble(u, pou2, ct)
    assert reproduction_error(u, ap) < 1e-12
    assert ap.sup_norms[(1, 0)] < 1e-10


def test_polynomial_reproduction(disk_setup, pou2):
    dom, qh, dec, ct, grid = disk_setup
    f = fixtures.polynomial({(0, 0): 1, (1, 0): 2, (0, 1): -0.7}, order=2)
    u = SampledFunction(grid, f, 2, 2.0)
    ap = assemble(u, pou2, ct)
    assert reproduction_error(u, ap) < 1e-10
    diff = ap.error_jets(u)
    assert seminorm(diff, None, 2, 2.0, grid.cell_area) < 1e-10


@pytest.fixture(scope="module")
def singular_approx(disk_setup):
    dom, qh, dec, ct, grid = disk_setup
    f = fixtures.singular_fixture(dom, 1, 2.0, s=0.6, order=1)
    u = SampledFunction(grid, f, 1, 2.0)
    pou = build_partition(ct, kmax=1)
    return u, assemble(u, pou, ct), pou, ct


def test_singular_sup_norms_bounded(singular_approx):
    u, ap, pou, ct = singular_approx
    for a, v in ap.sup_norms.items():
        assert np.isfinite(v)
    # the approximant flattens the singular gradient: its sup stays orders
    # of magnitude below the field's values arbitrarily close to the corner
    bx, by = fixtures.boundary_point(u.grid.domain)
    close = np.hypot(u.field.derivative((1, 0), np.array([bx + 1e-8]),
                                        np.array([by])), 0.0)
    assert ap.sup_norms[(1, 0)] < close[0] / 10


def test_error_localized_to_band_supports(singular_approx):
    u, ap, pou, ct = singular_approx
    assert abs(error_localization(u, ap)) < 1e-12
    # the selector is a strict subset of the grid
    assert 0 < ap.error_selector.sum() < len(u.grid.x)


def test_telescoped_derivative_identity(singular_approx):
    u, ap, pou, ct = singular_approx
    assert check_analysts_trick(u, ap, pou, ct, n_cubes=2, seed=1) < 1e-8


def test_core_mask_levels_nest(disk_setup):
    dom, qh, dec, ct, grid = disk_setup
    m3 = core_mask_at_level(dec, 3.0)
    m5 = core_mask_at_level(dec, 5.0)
    assert m3.sum() <= m5.sum()
    assert (~m3 | m5).all()


def test_error_decay_reports():
    dom = gallery.disk(1 / 64)
    f = fixtures.singular_fixture(dom, 1, 2.0, s=0.6, order=1)
    rep = error_decay(f, dom, 1, 2.0, [5, 6, 7])
    assert rep.passed
    done = [r for r in rep.samples if "error" in r]
    assert done, "at least one level built"
    for r in done:
        assert np.isfinite(r["error"]) and np.isfinite(r["tail"])
        assert abs(r["localization_leak"]) < 1e-12
    skipped = [r for r in rep.samples if "skipped" in r]
    assert len(done) + len(skipped) == 3


def test_error_decay_holds_one_level_at_a_time(monkeypatch):
    live = weakref.WeakSet()
    alive_at_build = []
    init = CoreTentacleDecomposition.__init__

    def tracking_init(self, *args, **kwargs):
        gc.collect()
        alive_at_build.append(len(live))
        init(self, *args, **kwargs)
        live.add(self)

    monkeypatch.setattr(CoreTentacleDecomposition, "__init__", tracking_init)
    dom = gallery.disk(1 / 64)
    f = fixtures.singular_fixture(dom, 1, 2.0, s=0.6, order=1)
    rep = error_decay(f, dom, 1, 2.0, [5, 6, 7])
    assert len([r for r in rep.samples if "error" in r]) >= 2
    assert alive_at_build == [0, 0, 0]


def test_error_decay_zero_for_low_degree():
    # a constant has degree <= k-1 for k=1, so every fit reproduces it
    dom = gallery.disk(1 / 64)
    f = fixtures.constant(2.5, order=1)
    rep = error_decay(f, dom, 1, 2.0, [6])
    done = [r for r in rep.samples if "error" in r]
    assert done and done[0]["error"] < 1e-10


@pytest.mark.parametrize("field", [
    fixtures.constant(0.0, order=1),
    fixtures.polynomial({(0, 0): 1.0}, order=1),
])
def test_error_decay_constant_is_zero_when_every_level_is_exact(field):
    rep = error_decay(field, gallery.disk(1 / 64), 1, 2.0, [5, 6, 7])
    done = [r for r in rep.samples if "error" in r]
    assert len(done) > 1 and all(r["error"] == 0.0 for r in done)
    assert rep.constant == 0.0


def test_error_decay_skips_a_level_with_an_empty_band():
    # on the disk at h=1/128 the m=9 band is empty: only xi hats act, so
    # u_m = u and its zero error measures nothing
    dom = gallery.disk(1 / 128)
    f = fixtures.singular_fixture(dom, 2, 2.0, order=2)
    rep = error_decay(f, dom, 2, 2.0, [6, 8, 9])
    rows = {r["m"]: r for r in rep.samples}
    assert "error" in rows[6] and "error" in rows[8]
    assert "empty band" in rows[9]["skipped"]
    assert rep.extra["levels"] == [6, 8]
    assert rep.constant == rows[8]["error"] / rows[6]["error"] > 0


# -- assembly against a per-hat reference -------------------------------------

def _one_fit_derivative(fit, alpha, px, py):
    """grad^alpha of a one-row fit at physical points, evaluated alone from
    Python-float coefficients, centre and scale powers."""
    coeffs = {b: float(c[0]) for b, c in fit.coeffs.items()}
    cx, cy = fit.centers[0].tolist()
    scale = float(fit.scales[0])
    tx, ty = (px - cx) / scale, (py - cy) / scale
    out = np.zeros(np.shape(tx), dtype=float)
    a1, a2 = alpha
    for (b1, b2), c in coeffs.items():
        if b1 < a1 or b2 < a2:
            continue
        f = (factorial(b1) // factorial(b1 - a1)) * \
            (factorial(b2) // factorial(b2 - a2))
        out += c * f * tx ** (b1 - a1) * ty ** (b2 - a2)
    return out / float(fit.scale_powers[a1 + a2][0])


def _reference_assemble(u, part, ct):
    """The per-hat assembly: each hat's jet evaluated alone at the points of
    its bbox (the hats themselves are checked against the box-by-box loop
    in tests/test_pou.py), each donor cube fitted alone from the field at
    its cells and evaluated alone, and S and N accumulated hat after hat."""
    alphas = multi_indices(u.k)
    x, y = u.grid.x, u.grid.y
    S, N = jet_zero(len(x), alphas), jet_zero(len(x), alphas)
    sel = np.zeros(len(x), dtype=bool)
    polys = {}
    for hat in part.hats:
        x0, x1, y0, y1 = hat.bump.bbox
        idx = np.flatnonzero((x > x0) & (x < x1) & (y > y0) & (y < y1))
        if not len(idx):
            continue
        hj = hat.jet(x[idx], y[idx], alphas)
        if hat.kind == "xi":
            fj = {a: u.jets[a][idx] for a in alphas}
        else:
            q = hat.key if hat.kind == "psi" \
                else ct.groups[hat.key].assigned_cube
            if q not in polys:
                polys[q] = fit_polynomial(u.field, ct.dec.cube_cells(q)[None],
                                          u.k, ct.domain.h)
            fj = {a: _one_fit_derivative(polys[q], a, x[idx], y[idx])
                  for a in alphas}
            sel[idx[hj[(0, 0)] > 0]] = True
        term = jet_product(hj, fj, alphas)
        for a in alphas:
            S[a][idx] += hj[a]
            N[a][idx] += term[a]
    return jet_quotient(N, S, alphas), S, sel, polys


@pytest.mark.parametrize("name, levels, k", [
    pytest.param("disk", (6, 7), 2, id="disk-levels0"),
    pytest.param("dumbbell", (7,), 2, id="dumbbell-levels1"),
    pytest.param("disk", (6,), 1, id="disk-k1"),
    pytest.param("dumbbell", (7,), 3, id="dumbbell-k3")])
def test_assemble_bitwise_equals_per_hat_assembly(name, levels, k):
    """Degree k-1 donor fits (batched per cube size) and the assembled jets
    equal the per-hat, per-cube reference bitwise."""
    dom = gallery.make(name, 1 / 128)
    qh, dec = QhMetric(dom), whitney_decompose(dom)
    field = fixtures.radial_power(fixtures.boundary_point(dom), 1.6,
                                  order=max(k, 2))
    u = SampledFunction(EvalGrid(dom, 2), field, k, 1.5)
    for m in levels:
        ct = build_core_tentacle(dec, qh, m)
        part = build_partition(ct, kmax=k)
        ap = assemble(u, part, ct)
        jets, S, sel, polys = _reference_assemble(u, part, ct)
        for a in jets:
            assert ap.jets[a].tobytes() == jets[a].tobytes(), (m, a)
            assert ap.sum_jet[a].tobytes() == S[a].tobytes(), (m, a)
        assert np.array_equal(ap.error_selector, sel)
        assert sorted(ap.rows) == sorted(polys)
        got = ap.polynomials
        for q, want in polys.items():
            i = ap.rows[q]
            assert got.k == want.k and list(got.coeffs) == list(want.coeffs)
            for b in want.coeffs:
                assert got.coeffs[b][i] == want.coeffs[b][0]
            for a in want.residuals:
                assert got.residuals[a][i] == want.residuals[a][0]
            assert got.centers[i].tobytes() == want.centers[0].tobytes()
            assert got.scales[i] == want.scales[0]
        got_S = part.sum_jet(u.grid.x, u.grid.y, multi_indices(k))
        for a in S:
            assert got_S[a].tobytes() == S[a].tobytes()


def test_moment_violation_names_the_cube(monkeypatch):
    """The batched fit's moment check raises for the first violating cube
    of a batch, naming its corner and size."""
    dec = whitney_decompose(gallery.disk(1 / 32))
    cubes = np.flatnonzero(dec.cubes.side == 2)[:3].tolist()
    i0, j0 = dec.cubes.corner[cubes[0]].tolist()
    monkeypatch.setattr(poly, "MOMENT_TOL", -1.0)
    with pytest.raises(DomainError, match=(
            rf"moment condition \(0, 0\) violated on the cells at corner "
            rf"\({i0}, {j0}\), size 2: residual")):
        fit_cubes(fixtures.smooth_background(2), dec, cubes, 2)
