"""Fast self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on ``workloads.TINY``
sizes, requires every output check to pass and every per-layer metric to be
reported, and feeds two corrupted results to the checks to see them fail.
Exits 0 when all of that holds.
"""

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

layers, workloads, Tracer = run.import_library()


def main() -> int:
    problems = []
    expected = {name for name, _, _ in layers.METRICS} - {"trace.overhead_s"}
    run.OUT.mkdir(exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        size = workloads.TINY[name]
        for traced in (False, True):
            t0 = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                r = run.one_round(wl, size, 3, work,
                                  Tracer() if traced else None, layers)
                checks = wl.check(r.inputs, r.result)
            bad = [(c, detail) for c, ok, detail in checks if not ok]
            problems += [f"{name}: check failed: {c} ({d})" for c, d in bad]
            if traced and set(r.layers) != expected:
                problems.append(f"{name}: per-layer metrics differ: "
                                f"{sorted(set(r.layers) ^ expected)}")
            print(f"{name:16s} traced={int(traced)} {len(checks)} checks, "
                  f"{len(bad)} failed, {time.perf_counter() - t0:.1f}s")

    # the checks must reject wrong outputs
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        wl = workloads.WORKLOADS["report-dumbbell"]
        r = run.one_round(wl, workloads.TINY["report-dumbbell"], 3, work)
        (Path(r.inputs.outdir) / "domain.json").write_text("{}\n")
        if all(ok for _, ok, _ in wl.check(r.inputs, r.result)):
            problems.append("report-dumbbell: a changed artifact passed")
    wl = workloads.WORKLOADS["probe-disk"]
    r = run.one_round(wl, workloads.TINY["probe-disk"], 3, None)
    r.result[(2, 0)][0] *= 1 + 1e-6
    if all(ok for _, ok, _ in wl.check(r.inputs, r.result)):
        problems.append("probe-disk: a perturbed sup-norm passed")

    for p in problems:
        print(p, file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
