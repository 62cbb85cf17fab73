"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion gathers all its measurements first, prints a single
``CRITERION n: PASS/FAIL`` summary line with the key numbers, and only then
asserts, so the line appears in the captured output of failing runs too.
Tolerances are asserted exactly as stated, even where the discrete model
cannot reach them; those cases fail honestly with the measured values shown.
"""

import time

import numpy as np
import pytest

from qhlab import fixtures, gallery
from qhlab.approx import error_decay
from qhlab.decomposition import (
    build_core_tentacle,
    verify_bounded_overlap,
    verify_distance_lemmas,
    verify_remark_inclusion,
    verify_tiling,
)
from qhlab.grid import DomainError, intrinsic_distance
from qhlab.poly import chaining_check, fit_polynomial
from qhlab.pou import build_partition, jet_quotient
from qhlab.properties import (
    check_ball_separation,
    check_gehring_hayman,
    check_geodesic_tail_diameter,
    pair_geodesics,
    sample_pairs,
)
from qhlab.qh import QhMetric, estimate_delta, sample_nodes
from qhlab.uniformize import build_deformation, check_bilipschitz, \
    check_deformed_uniformity
from qhlab.whitney import SQRT2, whitney_decompose

ALL_FIXTURES = sorted(gallery.GALLERY)


def verdict(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} ({title}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


@pytest.fixture(scope="module")
def disk256():
    dom = gallery.disk(1 / 256)
    qh = QhMetric(dom)
    return dom, qh, whitney_decompose(dom)


def test_criterion_1_whitney_invariants():
    worst_time = 0.0
    failures = []
    for name in ALL_FIXTURES:
        for h in (1 / 128, 1 / 256):
            dom = gallery.make(name, h)
            t0 = time.monotonic()
            dec = whitney_decompose(dom)
            counts = np.zeros(dom.shape, dtype=int)
            q = dec.cubes
            for k, ((i0, j0), s, diam, dist, flagged) in enumerate(zip(
                    q.corner.tolist(), q.side.tolist(),
                    (q.l * SQRT2).tolist(), q.dist.tolist(),
                    q.flagged.tolist())):
                counts[i0 : i0 + s, j0 : j0 + s] += 1
                if flagged:
                    # single cells where the dyadic cascade bottoms out;
                    # they violate diam <= dist by construction
                    if s != 1 or diam <= dist:
                        failures.append((name, h, k, "flag"))
                elif not (diam <= dist + 1e-12
                          and dist <= 4 * diam + 1e-12):
                    failures.append((name, h, k, "distance"))
            if not (np.array_equal(counts > 0, dom.interior)
                    and counts.max() <= 1):
                failures.append((name, h, -1, "tiling"))
            worst_time = max(worst_time, time.monotonic() - t0)
    ok = not failures and worst_time < 10.0
    verdict(1, "whitney invariants", ok,
            f"{len(ALL_FIXTURES)} fixtures x 2 resolutions, "
            f"violations={len(failures)}, slowest {worst_time:.1f}s "
            f"(flagged one-cell cubes checked separately)")


def test_criterion_2_metric_oracles(disk256):
    dom, qh, _ = disk256
    center = dom.cell_at((0.5, 0.5))
    radial_err = 0.0
    for r in (0.25, 0.5, 0.75):
        k = qh.distance(center, dom.cell_at((0.5 + 0.47 * r, 0.5)))
        exact = np.log(1.0 / (1.0 - r))
        radial_err = max(radial_err, abs(k - exact) / exact)

    violations = 0
    worst_time = 0.0
    for name in ALL_FIXTURES:
        t0 = time.monotonic()
        fdom = gallery.make(name, 1 / 128)
        fqh = QhMetric(fdom)
        dv = fdom.node_dist()
        nodes = sample_nodes(fdom, 2000, seed=17)
        for t in range(1000):
            a, b = int(nodes[2 * t]), int(nodes[2 * t + 1])
            if a == b:
                continue
            ca = tuple(fdom.node_cells[a])
            cb = tuple(fdom.node_cells[b])
            k = fqh.distance(ca, cb)
            lam = intrinsic_distance(fdom, ca, cb)
            dmin = min(dv[a], dv[b])
            if k < np.log1p(lam / dmin) - 0.02 * k - 1e-12:
                violations += 1
            if k < abs(np.log(dv[a] / dv[b])) - 0.02 * k - 1e-12:
                violations += 1
        worst_time = max(worst_time, time.monotonic() - t0)
    ok = radial_err < 0.03 and violations == 0 and worst_time < 60.0
    verdict(2, "metric oracles", ok,
            f"disk radial err {radial_err:.3%} (tol 3%), lower-bound "
            f"violations {violations}/1000x{len(ALL_FIXTURES)} pairs "
            f"(tol 2%), slowest fixture {worst_time:.0f}s")


def test_criterion_3_delta_thinness():
    t0 = time.monotonic()
    disk_vals = []
    for h in (1 / 128, 1 / 256):
        qh = QhMetric(gallery.disk(h))
        disk_vals.append(estimate_delta(qh, 60, seed=2).value)
    drift = abs(disk_vals[0] - disk_vals[1]) / disk_vals[1]

    lattice_vals = []
    for spacing in (0.25, 0.125, 0.0625):
        qh = QhMetric(gallery.punctured_square(1 / 128, spacing=spacing))
        lattice_vals.append(estimate_delta(qh, 40, seed=6).value)
    increasing = lattice_vals[0] < lattice_vals[1] < lattice_vals[2]
    elapsed = time.monotonic() - t0
    ok = drift < 0.10 and increasing and elapsed < 300.0
    verdict(3, "delta thinness", ok,
            f"disk drift {drift:.2%} (tol 10%), lattice deltas "
            f"{[round(v, 3) for v in lattice_vals]} "
            f"{'increasing' if increasing else 'NOT increasing'}, "
            f"{elapsed:.0f}s")


def test_criterion_4_property_checkers():
    consts: dict[tuple, list[float]] = {}
    for name in ("disk", "slit_disk"):
        for h in (1 / 128, 1 / 256):
            qh = QhMetric(gallery.make(name, h))
            pairs = sample_pairs(qh.domain, 25, seed=7)
            geos = pair_geodesics(qh, pairs[:8])
            consts.setdefault((name, "ball_sep"), []).append(
                check_ball_separation(qh, geos, z_per_geodesic=2).constant)
            for mode in ("length", "diameter"):
                consts.setdefault((name, mode), []).append(
                    check_gehring_hayman(qh, pairs, mode).constant)
    stable = True
    for key, (c0, c1) in consts.items():
        if not (np.isfinite(c0) and np.isfinite(c1)
                and abs(c0 - c1) / c1 < 0.10):
            stable = False

    convex_dev = 0.0
    convex_detail = []
    for name in ("disk", "square"):
        qh = QhMetric(gallery.make(name, 1 / 128))
        pairs = sample_pairs(qh.domain, 25, seed=7)
        for mode in ("length", "diameter"):
            c = check_gehring_hayman(qh, pairs, mode).constant
            convex_dev = max(convex_dev, abs(c - 1.0))
            convex_detail.append(f"{name}/{mode}={c:.3f}")

    qh = QhMetric(gallery.disk(1 / 128))
    pairs = sample_pairs(qh.domain, 25, seed=7)
    tail = check_geodesic_tail_diameter(qh, pairs, tol=0.05)

    ok = stable and convex_dev <= 0.03 and bool(tail.passed) \
        and np.isfinite(tail.constant)
    verdict(4, "property checkers", ok,
            f"constants stable(<10%)={stable}, convex GH "
            f"[{', '.join(convex_detail)}] (tol 1±3%; the length ratio of a "
            f"curved geodesic over the straight chord approaches pi/2, so "
            f"the length mode exceeds it), tail-diameter M="
            f"{tail.constant} passed={tail.passed}")


def test_criterion_5_decomposition_invariants(disk256):
    overlap_ok = True
    valid_levels = 0
    max_overlap = 0
    max_members = 0
    remark_results = []
    rows = []
    for name in ALL_FIXTURES:
        if name == "disk":
            dom, qh, dec = disk256
        else:
            dom = gallery.make(name, 1 / 256)
            qh = QhMetric(dom)
            dec = whitney_decompose(dom)
        for m in range(5, 10):
            try:
                ct = build_core_tentacle(dec, qh, m)
            except DomainError:
                continue  # degenerate level: base cube coarser than 2^-m
                # or swallowed by a halo; only valid levels are assertable
            valid_levels += 1
            ov = verify_bounded_overlap(ct)
            if ov.extra["min"] < 1 or not verify_tiling(ct):
                overlap_ok = False
                rows.append(f"{name}/m{m}")
            max_overlap = max(max_overlap, ov.extra["max"])
            for g in ct.groups:
                max_members = max(max_members, len(g.members))
            remark_results.append(verify_remark_inclusion(ct))

    remark_ok = all(r in (None, True) for r in remark_results)
    vacuous = sum(1 for r in remark_results if r is None)

    dl_consts = []
    dom = gallery.disk(1 / 128)
    qh = QhMetric(dom)
    dec = whitney_decompose(dom)
    for m in (6, 7, 8):
        dl_consts.append(
            verify_distance_lemmas(build_core_tentacle(dec, qh, m)).constant)
    flat = max(dl_consts) / min(dl_consts)

    ok = overlap_ok and valid_levels > 0 and remark_ok and flat < 2.0 \
        and np.isfinite(max_overlap)
    verdict(5, "decomposition invariants", ok,
            f"overlap in [1, {max_overlap}] at {valid_levels} valid "
            f"(fixture, m) levels{' except ' + ','.join(rows) if rows else ''}"
            f", max #thin-components/group {max_members}, coarse-inclusion "
            f"{vacuous}/{len(remark_results)} vacuous rest exact, "
            f"distance-lemma maxima {[round(c, 2) for c in dl_consts]} "
            f"max/min {flat:.2f} (tol < 2)")


def test_criterion_6_partition_of_unity(disk256):
    dom128 = gallery.disk(1 / 128)
    qh128 = QhMetric(dom128)
    ct = build_core_tentacle(whitney_decompose(dom128), qh128, 6)
    pou = build_partition(ct)
    cells = np.argwhere(dom128.interior)
    x = (cells[:, 0] + 0.5) * dom128.h
    y = (cells[:, 1] + 0.5) * dom128.h
    S = pou.sum_jet(x, y)
    total = np.zeros(len(x))
    for hat in pou.hats:
        total += jet_quotient(hat.jet(x, y, [(0, 0)]), S, [(0, 0)])[(0, 0)]
    sum_dev = float(np.abs(total - 1.0).max())
    support_bad = sum(
        pou.support_violation(hat, x, y,
                              tol=dom128.h / 2 + 1e-9
                              if hat.kind == "psi" else 1e-9)
        for hat in pou.hats)

    dom, qh, dec = disk256
    alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    sups = {a: [] for a in alphas}
    ms = (6, 7, 8)
    l = dec.cubes.l
    for m in ms:
        pm = build_partition(build_core_tentacle(dec, qh, m), kmax=2)
        small = [h for h in pm.hats if h.kind == "psi"
                 and abs(l[h.key] - 2.0 ** (-m)) < 1e-12]
        sel = small[::max(1, len(small) // 60)]
        for a in alphas:
            sups[a].append(max(pm.measured_sup(h, a) for h in sel))
    slopes = {a: float(np.polyfit(ms, np.log2(sups[a]), 1)[0])
              for a in alphas}
    slope_ok = all(abs(slopes[a] - sum(a)) <= 0.15 for a in alphas)

    ok = sum_dev < 1e-12 and support_bad == 0 and slope_ok
    verdict(6, "partition of unity", ok,
            f"sum dev {sum_dev:.2e} (tol 1e-12), support violations "
            f"{support_bad}, growth slopes "
            f"{ {a: round(s, 2) for a, s in slopes.items()} } "
            f"(tol |alpha| +- 0.15)")


def test_criterion_7_polynomial_machinery():
    h = 1 / 16
    cells = np.argwhere(np.ones((16, 16), dtype=bool))
    f = fixtures.radial_power((-0.1, -0.1), 1.7, order=2)
    poly = fit_polynomial(f, cells[None], 2, h)
    moment_worst = max(abs(r[0]) for a, r in poly.residuals.items()
                       if sum(a) <= 1)

    g = fixtures.polynomial({(0, 0): 1, (1, 0): 2, (0, 1): -3}, order=2)
    fitted = fit_polynomial(g, cells[None], 2, h)
    xs = np.array([0.13, 0.7, -0.4])
    ys = np.array([0.9, 0.05, 2.0])
    repro_err = float(np.abs(fitted.jets(0, xs, ys, [(0, 0)])[(0, 0)]
                             - g(xs, ys)).max())

    chain_consts = []
    smooth = fixtures.smooth_background(order=2)
    for hh in (1 / 128, 1 / 256):
        dom = gallery.disk(hh)
        ct = build_core_tentacle(whitney_decompose(dom), QhMetric(dom), 6)
        chain_consts.append(
            chaining_check(ct, smooth, k=2, p=2.0, max_pairs=40,
                           seed=5).constant)
    drift = abs(chain_consts[0] - chain_consts[1]) / chain_consts[1]

    ok = moment_worst < 1e-10 and repro_err < 1e-10 \
        and all(np.isfinite(c) for c in chain_consts) and drift < 0.10
    verdict(7, "polynomial machinery", ok,
            f"moments {moment_worst:.1e} (tol 1e-10), reproduction "
            f"{repro_err:.1e} (tol 1e-10), chaining "
            f"{[round(c, 2) for c in chain_consts]} drift {drift:.1%}")


def test_criterion_8_density():
    all_ok = True
    details = []
    for name in ("disk", "slit_disk"):
        dom = gallery.make(name, 1 / 256)
        for k, p, s in ((1, 2.0, 0.9), (2, 1.5, 1.6)):
            field = fixtures.singular_fixture(dom, k, p, s=s, order=k)
            t0 = time.monotonic()
            rep = error_decay(field, dom, k, p, [5, 6, 7, 8, 9])
            elapsed = time.monotonic() - t0
            errors = rep.extra["errors"]
            ratios = rep.extra["ratios"]
            decreasing = all(b < a for a, b in zip(errors, errors[1:]))
            final_ratio = errors[-1] / errors[0]
            sup_finite = all(
                np.isfinite(v) for r in rep.samples if "error" in r
                for v in r["sup_norms"].values())
            bounded = max(ratios) / min(ratios) < 5.0
            cfg_ok = decreasing and final_ratio < 0.1 and sup_finite \
                and bounded and elapsed < 600.0
            all_ok = all_ok and cfg_ok
            details.append(
                f"{name} k={k} p={p}: errors "
                f"{[f'{e:.3g}' for e in errors]} "
                f"decreasing={decreasing} final/initial={final_ratio:.2f} "
                f"ratio-spread={max(ratios) / min(ratios):.2f} "
                f"sup_finite={sup_finite} {elapsed:.0f}s")
    verdict(8, "density", all_ok, "; ".join(details))


def test_criterion_9_uniformization():
    qh = QhMetric(gallery.disk(1 / 128))
    tiny = build_deformation(qh, 1e-4)
    pairs = sample_pairs(qh.domain, 8, seed=5)
    eps_dev = 0.0
    for x, y in pairs:
        if tuple(x) == tuple(y):
            continue
        k = qh.distance(x, y)
        eps_dev = max(eps_dev, abs(tiny.distance(x, y) - k) / k)

    bili = []
    for h in (1 / 128, 1 / 256):
        q = QhMetric(gallery.disk(h))
        dm = build_deformation(q, 0.2)
        bili.append(check_bilipschitz(
            dm, sample_pairs(q.domain, 12, seed=11)).constant)
    drift = abs(bili[0] - bili[1]) / bili[1]

    uni = check_deformed_uniformity(build_deformation(qh, 0.2),
                                    sample_pairs(qh.domain, 10, seed=9))
    A_finite = np.isfinite(uni.constant) and uni.constant > 0

    ok = eps_dev < 0.01 and drift < 0.10 \
        and all(np.isfinite(c) for c in bili) and bool(A_finite)
    verdict(9, "uniformization", ok,
            f"eps->0 deviation {eps_dev:.3%} (tol 1%), bilipschitz "
            f"{[round(c, 3) for c in bili]} drift {drift:.1%}, "
            f"uniformity A={uni.constant:.2f}")
