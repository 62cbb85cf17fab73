"""Run one qhlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decay-disk --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: qhlab is imported from ``src/``.  The
run repeats rounds of (set-up, timed section) in this one process, one call
after another, and starts another round only while it is expected to end
within ``--seconds`` (at least one round; with ``--trace 1``, at least one
untraced and one traced round, alternating).  The output checks run once,
on the last round's results.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

  --trace 0  setup_s, wall_s and peak_rss_mb (see README.md)
  --trace 1  the per-layer metrics of layers.METRICS, as medians over the
             traced rounds; the spans are written to
             perfbench/out/trace-<workload>-seed<n>.json
"""

import os
import sys
import time

START = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import qhlab from this checkout's src/ (and nothing else)."""
    if not (SRC / "qhlab" / "__init__.py").is_file():
        fail(f"no qhlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhlab

    if Path(qhlab.__file__).resolve().parent != (SRC / "qhlab").resolve():
        fail(f"imported qhlab from {qhlab.__file__}, not {SRC}")
    sys.path.insert(0, str(BENCH))
    import layers
    import workloads
    from tracing import Tracer

    return layers, workloads, Tracer


class Round:
    __slots__ = ("traced", "setup_s", "wall_s", "cpu_s", "inputs", "result",
                 "layers")


def one_round(wl, size, seed, workdir, tracer=None, layers=None):
    r = Round()
    r.traced = tracer is not None
    live = []
    if tracer is not None:
        layers.instrument(tracer, live)
    try:
        t0 = time.perf_counter()
        r.inputs = wl.setup(size, seed, workdir)
        t1, c1 = time.perf_counter(), time.process_time()
        r.result = wl.timed(r.inputs)
        t2, c2 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.restore()
    r.setup_s, r.wall_s, r.cpu_s = t1 - t0, t2 - t1, c2 - c1
    r.layers = (layers.round_metrics(tracer, live, r.cpu_s)
                if tracer is not None else None)
    return r


def run_rounds(wl, size, seed, seconds, trace, workdir, layers, Tracer):
    """Rounds until the next one would end after ``seconds``; the last
    round's inputs and results are kept for the checks, earlier ones are
    dropped before the next set-up so they do not inflate peak RSS."""
    rounds, tracers, last = [], [], None
    begin = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        if last is not None:
            last.inputs = last.result = None
        last = one_round(wl, size, seed, workdir, tracer, layers)
        rounds.append(last)
        if tracer is not None:
            tracers.append(tracer)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.setup_s + r.wall_s for r in rounds)
        paired = not trace or len(rounds) % 2 == 0  # untraced + traced
        if paired and elapsed + typical > seconds:
            return rounds, tracers, last


def main(argv=None) -> int:
    layers, workloads, Tracer = import_library()
    import_s = time.perf_counter() - START
    args = parse_args(sorted(workloads.WORKLOADS), argv)
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        rounds, tracers, last = run_rounds(wl, size, args.seed, args.seconds,
                                           args.trace, workdir, layers,
                                           Tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        checks = wl.check(last.inputs, last.result)
    failed = sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    attempted = len(rounds) * wl.operations(size) + len(checks)

    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics = {name: statistics.median(r.layers[name] for r in traced)
                   for name in traced[0].layers}
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in rounds if not r.traced))
        units = {name: unit for name, unit, _ in layers.METRICS}
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent"],
            "rounds": [{"spans": t.spans, "counts": t.counts}
                       for t in tracers]}))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(r.setup_s
                                                    for r in rounds),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, nproc={NPROC}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
