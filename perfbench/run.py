"""patstat's benchmark: one seeded workload, every output checked, one JSON line.

    python3 perfbench/run.py --workload s3-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; patstat is imported from ``src/``.

Workloads (perfbench/workloads.py) are closed loops: one client, one
process, no threads, the next op sent when the previous one returns.

- ``s3-cold``: 194 distinct (n, set of 1-3 S3 patterns) keys; profile
  queries and full enumerations.  Exercises the length-3 automata of the
  search and the leaf accumulator.
- ``s4-cold``: 504 distinct keys that each hold a length-4 pattern (S4
  singletons and pairs, {S3, S4} pairs).  Exercises the anchored
  long-pattern matcher.
- ``cli-mixed``: 155 small in-process ``patstat.cli.main`` commands whose
  keys repeat, so the engine answers mostly from its cache; exercises
  polynomial arithmetic and formatting, formulas, words and verify.

A run repeats its stream in fresh interpreters (so the profile cache
starts empty each time) until about ``--seconds`` have passed, then
checks every output with perfbench/oracle.py.  Times are wall times
scaled to a nominal host speed by perfbench/clock.py.

``--trace 0`` prints the end-to-end metrics:

- ``run_s``: the time of one pass over the stream, as the sum over its
  ops of each op's median time over the passes;
- ``op_p50_ms``, ``op_p90_ms``: quantiles of those per-op medians, one
  sample per op of the stream (``attempted`` counts every execution);
- ``setup_s``: median time from starting a fresh interpreter until
  ``import patstat`` and ``count_avoiders(0, [])`` have returned;
- ``peak_rss_mib``: median peak RSS of one pass's process;
- ``ok_ratio``: 1 - failed/attempted.  A failed op is an exception, a
  wrong output or an unexpected exit code.  The failure ratio itself can
  be 0, which a metric compared as a share of its median cannot be, so
  it is reported as ``failed``/``attempted`` and as this complement.

``--trace 1`` alternates plain and traced passes and prints per-layer
metrics from the traced ones (perfbench/tracer.py), the tracing overhead,
and ``engine.fanout.speedup``: the heaviest profile ops run again with
PATSTAT_THREADS=1 and =2, whose outputs must be identical.  Spans of the
last traced pass go to perfbench/out/.

perfbench/spread.py runs many seeds and prints each metric's quartile
spread; perfbench/baseline.json holds the figures of the commit the
benchmark was written against.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
details go to stderr.  Exit status: 0 when every output is correct, 1
when some output is wrong, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
FANOUT_OPS = 3
FANOUT_ROUNDS = 2
COLD_WORKLOADS = ("s3-cold", "s4-cold")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PATSTAT_THREADS", None)
    if threads is not None:
        env["PATSTAT_THREADS"] = str(threads)
    return env


def _run_child(args: list[str], env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> float:
    """Median scaled seconds from spawning an interpreter to patstat answering."""
    code = ("import time, patstat; patstat.count_avoiders(0, []); t = time.monotonic(); "
            "import clock; print(repr(t), repr(clock.speed_sample()))")
    env = _env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import patstat failed:\n{proc.stderr[-2000:]}")
        if i:  # the first probe may be compiling bytecode
            ready, cal = map(float, proc.stdout.split())
            samples.append((ready - t0) * NOMINAL_S / cal)
    return statistics.median(samples)


def _pass_time(report: dict) -> float:
    return sum(r["t"] for r in report["ops"])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Plain and traced passes, each in a fresh interpreter, while another
    pass as long as the last one still fits in `seconds`.

    Without tracing every pass is plain; with tracing they alternate.  The
    first plain pass also runs avoids_all over large enumerations.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    spent = 0.0
    last = 0.0
    while not plain or (trace and not traced) or spent + last <= seconds:
        tracing = trace and len(traced) < len(plain)
        args = ["--workload", workload, "--seed", str(seed)]
        if tracing:
            OUT.mkdir(exist_ok=True)
            args += ["--trace", "1", "--spans", str(OUT / f"spans-{workload}.jsonl")]
        elif not plain:
            args += ["--check-avoidance", "1"]
        t0 = time.monotonic()
        report = _run_child(args, _env())
        last = time.monotonic() - t0
        spent += last
        (traced if tracing else plain).append(report)
    return plain, traced


def check_outputs(ops: list[dict], reports: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every op of every pass; the
    first report must be the one made with --check-avoidance."""
    from oracle import Oracle
    from workloads import op_label

    oracle = Oracle()
    verdicts: dict[tuple[int, str], list[str]] = {}
    attempted = failed = 0
    messages: list[str] = []
    for report in reports:
        for r in report["ops"]:
            attempted += 1
            if r["err"] is not None:
                problems = [r["err"]]
            else:
                # passes must agree; only the first one carries avoid_ok
                out = r["out"]
                if isinstance(out, dict) and "avoid_ok" in out:
                    out = {k: v for k, v in out.items() if k != "avoid_ok"}
                key = (r["i"], json.dumps(out, sort_keys=True))
                if key not in verdicts:
                    verdicts[key] = oracle.check_op(ops[r["i"]], r["out"])
                problems = verdicts[key]
            if problems:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"{op_label(ops[r['i']])}: {'; '.join(problems)}")
    return attempted, failed, messages


def fanout_probe(workload: str, seed: int, ops: list[dict], plain: list[dict]) -> tuple[float, list[str]]:
    """Speedup of the heaviest profile ops from 1 to 2 worker processes."""
    by_op: dict[int, list[float]] = {}
    for report in plain:
        for r in report["ops"]:
            if ops[r["i"]]["kind"] != "enum":
                by_op.setdefault(r["i"], []).append(r["t"])
    heaviest = sorted(by_op, key=lambda i: statistics.median(by_op[i]), reverse=True)[:FANOUT_OPS]
    only = ",".join(map(str, sorted(heaviest)))
    workers = min(2, os.cpu_count() or 1)
    times: dict[int, list[float]] = {1: [], workers: []}
    outputs: dict[int, list] = {1: [], workers: []}
    for _ in range(FANOUT_ROUNDS):
        for threads in (1, workers):
            report = _run_child(["--workload", workload, "--seed", str(seed), "--only", only],
                                _env(threads))
            times[threads].append(_pass_time(report))
            outputs[threads].append([(r["out"], r["err"]) for r in report["ops"]])
    problems = []
    if any(o != outputs[1][0] for t in outputs for o in outputs[t]):
        problems.append(f"outputs differ between PATSTAT_THREADS=1 and ={workers}")
    return statistics.median(times[1]) / statistics.median(times[workers]), problems


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "patstat" / "__init__.py").is_file():
        print(f"perfbench: no patstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_ops

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    ops = make_ops(args.workload, args.seed)

    try:
        setup_s = None if args.trace else measure_setup()
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed, messages = check_outputs(ops, plain + traced)
        metrics: dict[str, dict] = {}
        problems: list[str] = []
        # each op's median over the passes: a burst of host noise during one
        # pass moves none of them
        op_s = [statistics.median(ts) for ts in zip(*([r["t"] for r in p["ops"]] for p in plain))]
        run_s = sum(op_s)
        if args.trace:
            for name in traced[0]["layers"]:
                values = [r["layers"][name] for r in traced]
                unit = ("count" if name.endswith((".calls", ".count")) else
                        "ratio" if name.endswith("ratio") else
                        "1/s" if name.endswith("_per_s") else "s")
                metrics[name] = _metric(statistics.median(values), unit)
            if args.workload in COLD_WORKLOADS and metrics["engine.profile.hit_ratio"]["value"] != 0:
                problems.append("engine.profile.hit_ratio is not 0 on a cold workload")
            speedup, fan_problems = fanout_probe(args.workload, args.seed, ops, plain)
            problems += fan_problems
            metrics["engine.fanout.speedup"] = _metric(speedup, "ratio")
            traced_s = statistics.median(_pass_time(r) for r in traced)
            plain_s = statistics.median(_pass_time(r) for r in plain)
            metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s, "ratio")
        else:
            metrics = {
                "run_s": _metric(run_s, "s"),
                "op_p50_ms": _metric(statistics.median(op_s) * 1e3, "ms"),
                "op_p90_ms": _metric(_percentile(op_s, 90) * 1e3, "ms"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mib": _metric(statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
                "ok_ratio": _metric(1 - failed / attempted, "ratio"),
            }
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for msg in messages + problems:
        print(f"perfbench: FAIL {msg}", file=sys.stderr)
    wall_s = statistics.median(sum(r["wall"] for r in p["ops"]) for p in plain)
    print(f"perfbench: {args.workload} seed={args.seed} passes={len(plain)}+{len(traced)} "
          f"ops/pass={len(ops)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4f} unscaled_run_s={wall_s:.3f}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
