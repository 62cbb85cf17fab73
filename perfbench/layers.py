"""Per-layer metrics of the traced run: which qhlab functions are wrapped,
under which span name, and what is counted at each boundary.

A ``<name>_s`` metric is the summed self time of the spans called
``<name>``, except the ``report.stage_*_s`` metrics, which are inclusive
(a stage's whole duration).  Counts are computed from the public objects a
wrapped call takes or returns.
"""

from __future__ import annotations

import numpy as np

from qhlab import (approx, decomposition, fixtures, gallery, poly, pou,
                   properties, qh, report, svg, uniformize, whitney)

STAGES = ("gallery", "metrics", "properties", "decompose", "approx")

# (metric, unit, better); the order is the order of BENCHMARK.json
METRICS = [
    ("gallery.make_s", "s", "lower"),
    ("qh.metric_build_s", "s", "lower"),
    ("whitney.decompose_s", "s", "lower"),
    ("whitney.cubes", "count", "lower"),
    ("fixtures.field_s", "s", "lower"),
    ("approx.sample_s", "s", "lower"),
    ("pou.build_s", "s", "lower"),
    ("pou.hats", "count", "lower"),
    ("pou.boxes", "count", "lower"),
    ("pou.sum_jet_s", "s", "lower"),
    ("pou.sum_jet_calls", "count", "lower"),
    ("pou.sum_jet_points", "count", "lower"),
    ("approx.assemble_s", "s", "lower"),
    ("approx.eval_points", "count", "lower"),
    ("approx.hat_point_pairs", "count", "lower"),
    ("approx.seminorm_s", "s", "lower"),
    ("poly.fit_s", "s", "lower"),
    ("poly.fits", "count", "lower"),
    ("pou.measured_sup_s", "s", "lower"),
    ("pou.measured_sup_calls", "count", "lower"),
    ("decomposition.build_s", "s", "lower"),
    ("decomposition.band_cubes", "count", "lower"),
    ("decomposition.groups", "count", "lower"),
    ("decomposition.verify_cover_s", "s", "lower"),
    ("decomposition.verify_other_s", "s", "lower"),
    *[(f"report.stage_{s}_s", "s", "lower") for s in STAGES],
    ("svg.emit_s", "s", "lower"),
    ("report.artifacts", "count", "higher"),
    ("report.artifact_bytes", "bytes", "lower"),
    ("qh.distance_s", "s", "lower"),
    ("qh.distance_calls", "count", "lower"),
    ("qh.delta_s", "s", "lower"),
    ("properties.geodesics_s", "s", "lower"),
    ("properties.ball_separation_s", "s", "lower"),
    ("properties.gehring_hayman_s", "s", "lower"),
    ("properties.uniformity_s", "s", "lower"),
    ("uniformize.build_s", "s", "lower"),
    ("uniformize.checks_s", "s", "lower"),
    ("qh.cache_entries", "count", "lower"),
    ("qh.cache_mb", "MB", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _count_partition(tracer, args, _):
    part = args[0]
    tracer.count("pou.hats", len(part.hats))
    tracer.count("pou.boxes", sum(len(h.bump.boxes) for h in part.hats))


def _count_sum_jet(tracer, args, _):
    tracer.count("pou.sum_jet_calls")
    tracer.count("pou.sum_jet_points", np.size(args[1]))


def _count_assemble(tracer, args, _):
    """Evaluation points, and for each hat the points inside its bbox
    (the predicate ``assemble`` itself applies), summed over hats."""
    u, part = args[0], args[1]
    order = np.argsort(u.grid.x, kind="stable")
    xs, ys = u.grid.x[order], u.grid.y[order]
    pairs = 0
    for hat in part.hats:
        x0, x1, y0, y1 = hat.bump.bbox
        lo = np.searchsorted(xs, x0, side="right")
        hi = np.searchsorted(xs, x1, side="left")
        seg = ys[lo:hi]
        pairs += int(np.count_nonzero((seg > y0) & (seg < y1)))
    tracer.count("approx.eval_points", len(xs))
    tracer.count("approx.hat_point_pairs", pairs)


def _count_decomposition(tracer, args, _):
    ct = args[0]
    tracer.count("decomposition.band_cubes", len(ct.P))
    tracer.count("decomposition.groups", len(ct.groups))


def _count_artifacts(tracer, args, _):
    em = args[0]
    tracer.count("report.artifacts", len(em.files))
    tracer.count("report.artifact_bytes",
                 sum((em.root / name).stat().st_size for name in em.files))


def instrument(tracer, live_metrics: list) -> None:
    """Wrap every traced function; QhMetric instances built while traced
    are appended to ``live_metrics`` for the cache metrics."""
    fn, method = tracer.patch_function, tracer.patch_method
    fn(gallery.make, "gallery.make")
    method(qh.QhMetric, "__init__", "qh.metric_build",
           lambda t, a, r: live_metrics.append(a[0]))
    fn(whitney.whitney_decompose, "whitney.decompose",
       lambda t, a, r: t.count("whitney.cubes", len(r.cubes)))
    method(fixtures.AnalyticField, "__init__", "fixtures.field")
    method(approx.SampledFunction, "__post_init__", "approx.sample")
    method(pou.PartitionOfUnity, "__init__", "pou.build", _count_partition)
    method(pou.PartitionOfUnity, "sum_jet", "pou.sum_jet", _count_sum_jet)
    method(pou.PartitionOfUnity, "measured_sup", "pou.measured_sup",
           lambda t, a, r: t.count("pou.measured_sup_calls"))
    fn(approx.assemble, "approx.assemble", _count_assemble)
    fn(approx.seminorm, "approx.seminorm")
    fn(poly.fit_polynomial, "poly.fit",
       lambda t, a, r: t.count("poly.fits"))
    method(decomposition.CoreTentacleDecomposition, "__init__",
           "decomposition.build", _count_decomposition)
    fn(decomposition.verify_cover, "decomposition.verify_cover")
    for check in (decomposition.verify_bounded_overlap,
                  decomposition.verify_tiling,
                  decomposition.verify_remark_inclusion):
        fn(check, "decomposition.verify_other")
    for stage in STAGES:
        fn(getattr(report, f"stage_{stage}"), f"report.stage_{stage}")
    fn(svg.emit_svg, "svg.emit")
    method(report.Emitter, "finish", "report.finish", _count_artifacts)
    method(qh.QhMetric, "distance", "qh.distance",
           lambda t, a, r: t.count("qh.distance_calls"))
    fn(qh.estimate_delta, "qh.delta")
    fn(properties.pair_geodesics, "properties.geodesics")
    fn(properties.check_ball_separation, "properties.ball_separation")
    fn(properties.check_gehring_hayman, "properties.gehring_hayman")
    fn(properties.check_uniformity, "properties.uniformity")
    method(uniformize.DeformedMetric, "__init__", "uniformize.build")
    for check in (uniformize.check_deformed_uniformity,
                  uniformize.check_bilipschitz):
        fn(check, "uniformize.checks")


def cache_usage(live_metrics: list) -> tuple[int, float]:
    """Entries and MB of the (dist, pred) arrays the metrics' Dijkstra
    caches hold.  Reads the cache's private mapping: qhlab exposes no
    public size for it."""
    entries, nbytes = 0, 0
    for metric in live_metrics:
        cache = metric.engine._cache
        entries += len(cache)
        nbytes += sum(a.nbytes for pair in cache.values() for a in pair)
    return entries, nbytes / 2**20


def round_metrics(tracer, live_metrics: list, cpu_s: float) -> dict:
    """Every per-layer metric except ``trace.overhead_s`` for one round."""
    own, whole = tracer.totals()
    entries, mb = cache_usage(live_metrics)
    out = {"qh.cache_entries": float(entries), "qh.cache_mb": mb,
           "process.cpu_s": cpu_s}
    for name, unit, _ in METRICS:
        if name in out or name == "trace.overhead_s":
            continue
        if name.startswith("report.stage_"):
            out[name] = whole.get(name[:-2], 0.0)
        elif unit == "s":
            out[name] = own.get(name[:-2], 0.0)
        else:
            out[name] = float(tracer.counts.get(name, 0))
    return out
