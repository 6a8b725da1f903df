"""One measured pass over a workload's op stream, in a fresh interpreter.

run.py starts this script once per pass so that every pass begins with
patstat's caches empty.  It prints a single JSON object on stdout: the
scaled time (see clock.py), wall time and output of every op, the
process's peak RSS and, when tracing, the per-layer summary with its
times scaled like the ops'.  Each op is timed alone; the work of
summarising its output happens after its timer stops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time

import workloads
from clock import ScaledClock
from oracle import BRUTE_MAX_N, digest_perms

#: Enumerations beyond brute-force size have this many of their elements,
#: plus the first and the last, checked with perms.avoids_all.
AVOID_SAMPLE = 400


def _summarize_enum(found: list, n: int, patterns, check_avoidance: bool) -> dict:
    full = list(range(1, n + 1))
    out = {
        "count": len(found),
        "ordered": all(a < b for a, b in zip(found, found[1:])),
        "valid": all(sorted(p) == full for p in found),
        "digest": digest_perms(found),
    }
    if check_avoidance and n > BRUTE_MAX_N:
        from patstat.perms import avoids_all

        rng = random.Random(out["digest"])
        picked = found[:1] + found[-1:] + rng.sample(found, min(AVOID_SAMPLE, len(found)))
        out["avoid_ok"] = all(avoids_all(p, patterns) for p in picked)
    return out


def run_op(op: dict, check_avoidance: bool):
    """(seconds, output, error) of one op."""
    from patstat import cli, engine

    kind = op["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # reported as a failed op
                return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, None

    n = op["n"]
    patterns = [tuple(p) for p in op["patterns"]]
    t0 = time.perf_counter()
    try:
        if kind == "enum":
            value = list(engine.enumerate_avoiders(n, patterns))
        elif kind == "count":
            value = engine.count_avoiders(n, patterns)
        elif kind == "majdes":
            value = engine.maj_des_poly(n, patterns)
        else:
            value = engine.stat_poly(n, patterns, kind)
    except Exception as exc:  # reported as a failed op
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if kind == "enum":
        value = _summarize_enum(value, n, patterns, check_avoidance)
    elif kind == "majdes":
        value = [list(t) for t in value.terms]
    elif kind != "count":
        value = list(value.coeffs)
    return elapsed, value, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    ap.add_argument("--check-avoidance", type=int, choices=(0, 1), default=0,
                    help="run avoids_all over samples of enumerations too large "
                         "for brute force")
    ap.add_argument("--only", default=None, help="comma-separated op indices to run")
    args = ap.parse_args()

    ops = workloads.make_ops(args.workload, args.seed)
    indices = ([int(i) for i in args.only.split(",")] if args.only
               else list(range(len(ops))))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = ScaledClock()
    results = []
    for i in indices:
        elapsed, out, err = run_op(ops[i], bool(args.check_avoidance) and tracer is None)
        results.append({"i": i, "t": clock.scale(elapsed), "wall": elapsed, "out": out, "err": err})
    report = {
        "ops": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        scale = sum(r["t"] for r in results) / sum(r["wall"] for r in results)
        layers = tracer.summary()
        for name in layers:
            if name.endswith("_per_s"):
                layers[name] /= scale
            elif name.endswith(("_s", ".s")):
                layers[name] *= scale
        report["layers"] = layers
        report["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
