"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads s3-cold,s4-cold,cli-mixed \\
        --seeds 1-10 [--seconds 20] [--json out.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, which is what a
metric's bound in BENCHMARK.json is compared with.  Exits 1 if any run
reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="a range such as 1-10, or a list 1,5,9")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--json", default=None, help="also write every run's result here")
    args = ap.parse_args()
    runs = []
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(workload)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:14s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} spread={spread:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
