"""Run one workload once per seed and summarize every metric.

    python3 perfbench/sweep.py --workload decay-disk --seeds 1-10 --seconds 15

Each run is ``run.py`` in its own process, one after another.  For every
metric the summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, which is the spread the benchmark's bounds are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + json.dumps(results[-1]), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares {shares}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:7.2%}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
