"""The benchmark's workloads: how each builds its inputs from a seed, what
its timed section calls, and the output checks run after it.

Every workload is a closed loop with one caller: the runner repeats rounds
of (set-up, timed section), one call after another.  Sizes live in
``SIZES``; the self-check swaps in ``TINY``.  The library is always called
through its module attributes (``approx.error_decay``), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy import ndimage

from qhlab import (approx, decomposition, fixtures, gallery, pou,
                   properties, qh, report, uniformize, whitney)

PROBE_ALPHAS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

SIZES = {
    "decay-disk": dict(fixture="disk", h=1 / 128, k=2, p=1.5, s=1.6,
                       levels=(6, 7)),
    "probe-disk": dict(fixture="disk", h=1 / 256, levels=(6, 7),
                       hats_per_level=3),
    "report-dumbbell": dict(fixture="dumbbell", h=1 / 128, levels=(7, 8)),
    "metric-spiral": dict(fixture="spiral", h=1 / 512, pairs=8, triangles=4,
                          separation_geodesics=2, epsilon=0.2),
}

# Smallest inputs on which every code path and every check still runs.
TINY = {
    "decay-disk": dict(SIZES["decay-disk"], h=1 / 64, levels=(6,)),
    "probe-disk": dict(SIZES["probe-disk"], h=1 / 128, levels=(6, 7),
                       hats_per_level=1),
    "report-dumbbell": dict(SIZES["report-dumbbell"], h=1 / 64,
                            levels=(7,)),
    "metric-spiral": dict(SIZES["metric-spiral"], h=1 / 64, pairs=3,
                          triangles=2, separation_geodesics=1),
}


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (size, seed, workdir) -> inputs
    timed: Callable  # (inputs) -> result
    check: Callable  # (inputs, result) -> [(name, ok, detail)]
    operations: Callable  # (size) -> library calls per timed section


def _finite_positive(values) -> bool:
    arr = np.asarray(list(values), dtype=float)
    return bool(arr.size and np.isfinite(arr).all() and (arr > 0).all())


@contextmanager
def _keep_results(module, attr: str):
    """Collect the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    kept = []

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        kept.append(out)
        return out

    setattr(module, attr, recorder)
    try:
        yield kept
    finally:
        setattr(module, attr, original)


# -- decay-disk ---------------------------------------------------------------

def seeded_boundary_point(dom, seed: int) -> tuple[float, float]:
    """Midpoint of a seeded edge between an interior and an exterior cell."""
    inner = dom.interior
    mids = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        out = ~np.roll(inner, (-di, -dj), axis=(0, 1)) & inner
        cells = np.argwhere(out)
        mids.append((cells + 0.5 + 0.5 * np.array([di, dj])) * dom.h)
    mids = np.concatenate(mids)
    pick = mids[np.random.default_rng(seed).integers(len(mids))]
    return float(pick[0]), float(pick[1])


def decay_setup(size, seed, workdir):
    dom = gallery.make(size["fixture"], size["h"])
    b = seeded_boundary_point(dom, seed)
    return SimpleNamespace(
        size=size, dom=dom, metric=qh.QhMetric(dom),
        dec=whitney.whitney_decompose(dom),
        field=fixtures.radial_power(b, size["s"], order=size["k"]))


def decay_timed(inp):
    s = inp.size
    with _keep_results(approx, "assemble") as approximants:
        rep = approx.error_decay(inp.field, inp.dom, s["k"], s["p"],
                                 list(s["levels"]), qh=inp.metric,
                                 dec=inp.dec)
    return SimpleNamespace(report=rep, approximants=approximants)


def decay_check(inp, res):
    rows = res.report.samples
    done = [r for r in rows if "error" in r]
    checks = [("every level built", len(done) == len(inp.size["levels"]),
               [r.get("skipped") for r in rows])]
    for r in done:
        m = r["m"]
        checks += [
            (f"m={m} localization_leak <= 1e-12",
             r["localization_leak"] <= 1e-12, r["localization_leak"]),
            (f"m={m} error, tail, ratio finite and > 0",
             _finite_positive([r["error"], r["tail"], r["ratio"]]),
             (r["error"], r["tail"], r["ratio"])),
            (f"m={m} sup-norms finite and > 0",
             _finite_positive(r["sup_norms"].values()), r["sup_norms"]),
        ]
    for a in res.approximants:
        low = float(a.sum_jet[(0, 0)].min())
        checks.append((f"m={a.m} raw hat sum >= 1 at every point",
                       low >= 1.0 - 1e-12, low))
    return checks


# -- probe-disk ---------------------------------------------------------------

def probe_setup(size, seed, workdir):
    """Partitions at each level and an evenly spaced subset of the psi hats
    over the smallest cubes (side 2^-m).  The subset is fixed, because a
    call's cost grows with the hat's box count; the seed orders the calls."""
    dom = gallery.make(size["fixture"], size["h"])
    metric = qh.QhMetric(dom)
    dec = whitney.whitney_decompose(dom)
    n = size["hats_per_level"]
    levels = []
    for m in size["levels"]:
        part = pou.build_partition(
            decomposition.build_core_tentacle(dec, metric, m), kmax=2)
        small = [h for h in part.hats if h.kind == "psi"
                 and abs(dec.cubes[h.key].l - 2.0 ** (-m)) < 1e-12]
        levels.append((m, part, small[::max(1, len(small) // n)][:n]))
    calls = [(i, hat, a) for i, (_, _, hats) in enumerate(levels)
             for hat in hats for a in PROBE_ALPHAS]
    order = np.random.default_rng(seed).permutation(len(calls))
    return SimpleNamespace(size=size, dom=dom, levels=levels,
                           calls=[calls[j] for j in order])


def probe_timed(inp):
    """sup |d^alpha psi-hat| per alpha and level, maximized over the subset."""
    sups = {a: [0.0] * len(inp.levels) for a in PROBE_ALPHAS}
    for i, hat, a in inp.calls:
        sups[a][i] = max(sups[a][i], inp.levels[i][1].measured_sup(hat, a))
    return sups


def _quotient(num, den):
    """Jet of num/den up to order 2, from the quotient rule written out."""
    q00 = num[(0, 0)] / den[(0, 0)]
    q10 = (num[(1, 0)] - q00 * den[(1, 0)]) / den[(0, 0)]
    q01 = (num[(0, 1)] - q00 * den[(0, 1)]) / den[(0, 0)]
    return {
        (0, 0): q00, (1, 0): q10, (0, 1): q01,
        (2, 0): (num[(2, 0)] - 2 * q10 * den[(1, 0)] - q00 * den[(2, 0)])
        / den[(0, 0)],
        (0, 2): (num[(0, 2)] - 2 * q01 * den[(0, 1)] - q00 * den[(0, 2)])
        / den[(0, 0)],
        (1, 1): (num[(1, 1)] - q10 * den[(0, 1)] - q01 * den[(1, 0)]
                 - q00 * den[(1, 1)]) / den[(0, 0)],
    }


def probe_check(inp, sups):
    """Recompute the normalized hats at the probe points from the raw hat
    jets alone (own hat sum, own quotient rule): they must sum to 1 with
    vanishing derivatives, and their sups must equal the measured ones."""
    checks = []
    alphas = [(0, 0)] + list(PROBE_ALPHAS)
    for i, (m, part, hats) in enumerate(inp.levels):
        checks.append((f"m={m} hats probed",
                       len(hats) == inp.size["hats_per_level"], len(hats)))
        points = []
        for hat in hats:
            x, y = hat.probe_points()
            # the points measured_sup keeps: those in an interior cell
            cell = np.clip((np.column_stack([x, y]) / inp.dom.h).astype(int),
                           0, np.array(inp.dom.shape) - 1)
            keep = inp.dom.interior[cell[:, 0], cell[:, 1]]
            points.append((x[keep], y[keep]))
        x, y = (np.concatenate(c) for c in zip(*points))
        raw = [hat.jet(x, y, alphas) for hat in part.hats]
        S = {a: sum(r[a] for r in raw) for a in alphas}
        total = {a: np.zeros(len(x)) for a in alphas}
        scale = {a: np.zeros(len(x)) for a in alphas}
        for r in raw:
            q = _quotient(r, S)
            for a in alphas:
                total[a] += q[a]
                scale[a] += np.abs(q[a])
        dev0 = float(np.abs(total[(0, 0)] - 1.0).max())
        checks.append((f"m={m} normalized hats sum to 1", dev0 <= 1e-12,
                       dev0))
        # |alpha| >= 1: zero up to rounding, relative to the terms summed
        rel = max(float((np.abs(total[a]) / np.maximum(scale[a], 1.0)).max())
                  for a in PROBE_ALPHAS)
        checks.append((f"m={m} derivatives of the sum vanish", rel <= 1e-12,
                       rel))
        ends = np.cumsum([0] + [len(px) for px, _ in points])
        own = [_quotient(hat.jet(x[lo:hi], y[lo:hi], alphas),
                         {a: s[lo:hi] for a, s in S.items()})
               for hat, lo, hi in zip(hats, ends[:-1], ends[1:])]
        for a in PROBE_ALPHAS:
            want = max(float(np.abs(q[a]).max()) for q in own)
            got = sups[a][i]
            checks.append((f"m={m} alpha={a} sup finite, > 0 and equal to "
                           "the recomputed one",
                           bool(np.isfinite(got) and got > 0
                                and abs(got - want) <= 1e-9 * want),
                           (got, want)))
    return checks


# -- report-dumbbell ----------------------------------------------------------

def report_setup(size, seed, workdir):
    cfg = report.ExperimentConfig(
        fixture=size["fixture"], h=size["h"], m_list=tuple(size["levels"]),
        seed=seed, outdir=tempfile.mkdtemp(prefix="report-", dir=workdir))
    cfg.validate()
    return cfg


def report_timed(cfg):
    return report.run(cfg, "report")


def report_check(cfg, status):
    root = Path(cfg.outdir)
    manifest = json.loads((root / "manifest.json").read_text())
    checks = [("exit status 0", status == 0, (status, manifest["failures"]))]
    bad = [name for name, digest in manifest["files"].items()
           if not (root / name).is_file() or hashlib.sha256(
               (root / name).read_bytes()).hexdigest() != digest]
    checks.append(("manifest files exist with matching sha256",
                   bool(manifest["files"]) and not bad, bad))
    for m in cfg.m_list:
        path = root / f"decomposition_m{m}.json"
        checks.append((f"m={m} decomposition built", path.is_file(), m))
        if not path.is_file():
            continue
        dec = json.loads(path.read_text())
        checks.append((f"m={m} tiling", dec["tiling"] is True, dec["tiling"]))
        low = dec["bounded_overlap"]["extra"]["min"]
        checks.append((f"m={m} overlap minimum >= 1", low >= 1, low))
    decay = json.loads((root / "error_decay.json").read_text())
    leaks = [r["localization_leak"] for r in decay["samples"] if "error" in r]
    checks.append(("localization_leak <= 1e-12",
                   bool(leaks) and max(leaks) <= 1e-12, leaks))
    shutil.rmtree(root)
    return checks


# -- metric-spiral ------------------------------------------------------------

def metric_setup(size, seed, workdir):
    dom = gallery.make(size["fixture"], size["h"])
    return SimpleNamespace(
        size=size, seed=seed, dom=dom, metric=qh.QhMetric(dom),
        pairs=properties.sample_pairs(dom, size["pairs"], seed))


def metric_timed(inp):
    s, metric, pairs, seed = inp.size, inp.metric, inp.pairs, inp.seed
    delta = qh.estimate_delta(metric, s["triangles"], seed)
    geos = properties.pair_geodesics(metric, pairs)
    reports = [
        properties.check_ball_separation(
            metric, geos[:s["separation_geodesics"]], seed=seed),
        properties.check_gehring_hayman(metric, pairs, "length", seed=seed),
        properties.check_gehring_hayman(metric, pairs, "diameter", seed=seed),
        properties.check_uniformity(metric, pairs, seed=seed),
    ]
    deformed = uniformize.build_deformation(metric, s["epsilon"])
    reports.append(uniformize.check_deformed_uniformity(deformed, pairs,
                                                        seed=seed))
    reports.append(uniformize.check_bilipschitz(deformed, pairs, seed=seed))
    return SimpleNamespace(delta=delta, geodesics=geos, reports=reports,
                           deformed=deformed)


def metric_check(inp, res):
    dom, metric = inp.dom, inp.metric
    pairs = [(x, y) for x, y in inp.pairs if tuple(x) != tuple(y)]
    # independent boundary distance: EDT to exterior cell centers, less the
    # half cell to the shared facet
    d = ndimage.distance_transform_edt(dom.interior, sampling=dom.h) \
        - dom.h / 2
    xs, ys = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    dx, dy = d[tuple(xs.T)], d[tuple(ys.T)]
    k = np.array([metric.distance(x, y) for x, y in pairs])
    k_back = np.array([metric.distance(y, x) for x, y in pairs])
    lam = np.hypot(*((xs - ys) * dom.h).T)
    log_chord = np.log1p(lam / np.minimum(dx, dy))
    log_ratio = np.abs(np.log(dx / dy))
    geo_err = max(abs(g.k_length - kv) / kv for g, kv in
                  zip(res.geodesics, k))
    d_eps = np.array([res.deformed.distance(x, y) for x, y in pairs])
    consts = [res.delta.value] + [r.constant for r in res.reports]
    return [
        ("k >= log(1 + |x-y| / min d) within 2%",
         bool((k >= 0.98 * log_chord).all()), float((k / log_chord).min())),
        ("k >= |log d(x)/d(y)| within 2%",
         bool((k >= 0.98 * log_ratio).all()),
         float((k - 0.98 * log_ratio).min())),
        ("k symmetric", bool(np.allclose(k, k_back, rtol=1e-9, atol=0)),
         float(np.abs(k - k_back).max())),
        ("geodesic k_length_of equals k to 1e-9", geo_err <= 1e-9, geo_err),
        ("d_eps <= k", bool((d_eps <= k * (1 + 1e-12)).all()),
         float((d_eps / k).max())),
        ("delta and every constant finite",
         bool(np.isfinite(consts).all()), consts),
    ]


WORKLOADS = {
    "decay-disk": Workload(decay_setup, decay_timed, decay_check,
                           lambda s: 1),
    "probe-disk": Workload(
        probe_setup, probe_timed, probe_check,
        lambda s: len(PROBE_ALPHAS) * len(s["levels"]) * s["hats_per_level"]),
    "report-dumbbell": Workload(report_setup, report_timed, report_check,
                                lambda s: 1),
    "metric-spiral": Workload(metric_setup, metric_timed, metric_check,
                              lambda s: 9),
}
