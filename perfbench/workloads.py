"""Seeded op streams for the three benchmark workloads.

An op is a plain JSON-able dict, so the parent and the child processes
rebuild the same stream from (workload, seed) without passing it around:

- ``{"kind": k, "n": n, "patterns": [[...], ...]}`` with k one of
  ``count``, ``inv``, ``maj``, ``majdes`` (one profile query through the
  library) or ``enum`` (full consumption of ``enumerate_avoiders``);
- ``{"kind": "cli", "argv": [...]}``: one in-process ``patstat.cli.main``.

The cold workloads draw their keys without replacement, so every key is
new in a stream and the engine's profile cache never hits.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("s3-cold", "s4-cold", "cli-mixed")

PROFILE_KINDS = ("count", "inv", "maj", "majdes")

#: One key in this many of each stratum is consumed through
#: enumerate_avoiders instead of a profile query.
ENUM_EVERY = 5

S3 = tuple(itertools.permutations((1, 2, 3)))
S4 = tuple(itertools.permutations((1, 2, 3, 4)))

# A cold workload's pool is a list of strata (pattern sets, n, how many
# to draw); a stratum's keys cost about the same, so which ones the seed
# draws hardly changes the work of a stream.

# s3-cold: S3 subsets of size 1-3.  Singletons stop at n=11 (Catalan(11) =
# 58786 leaves); pairs and triples have small classes, so they go further
# before their search gets as heavy.  The pairs at n=13 and the singletons
# at n=10 are where the slowest tenth of the ops begins, so op_p90_ms
# falls among them rather than in a gap between unlike ops.
_S3_SINGLES = tuple((p,) for p in S3)
_S3_PAIRS = tuple(itertools.combinations(S3, 2))
_S3_TRIPLES = tuple(itertools.combinations(S3, 3))
_S3_COLD_STRATA = (
    *((_S3_SINGLES, n, 6) for n in range(5, 11)),
    (_S3_SINGLES, 11, 3),
    *((_S3_PAIRS, n, 15) for n in range(9, 14)),
    *((_S3_TRIPLES, n, 20) for n in range(11, 15)),
)

# s4-cold: every key holds a length-4 pattern, so the anchored
# long-pattern matcher runs at every node.
_S4_SINGLES = tuple((p,) for p in S4)
_S4_PAIRS = tuple(itertools.combinations(S4, 2))
_S3_S4_MIXED = tuple((a, b) for a in S3 for b in S4)
# Where the ops' median and 90th percentile fall, strata are taken whole,
# so those quantiles do not move with the seed's draws: the median lies in
# the 276 S4 pairs at n=5 and the 90th percentile in the 24 singletons at
# n=6.  Drawn strata are either uniform in cost (S4 singletons at n=8) or
# few and far from both quantiles.
_S4_COLD_STRATA = (
    (_S4_SINGLES, 5, 24),
    (_S4_SINGLES, 6, 24),
    (_S4_SINGLES, 7, 24),
    (_S4_SINGLES, 8, 4),
    (_S4_PAIRS, 5, len(_S4_PAIRS)),
    (_S4_PAIRS, 7, 4),
    (_S3_S4_MIXED, 6, len(_S3_S4_MIXED)),
    (_S3_S4_MIXED, 8, 4),
)

_FORMATS = ("text", "json", "csv")
_SERIES_IDS = ("gf-231-321", "gf-312-321", "gf-231-312-321")
_FORMULA_IDS = (
    "inv-231-321", "inv-132-231", "inv-132-321", "inv-132-213",
    "maj-132-213", "maj-132-231", "maj-132-321", "maj-213-321",
    "inv-132-213-321", "inv-132-231-312", "inv-132-231-321", "inv-231-312-321",
    "maj-triple-A", "maj-triple-B", "maj-213-312-321", "maj-132-231-321",
)
# A Mahonian pair from the formula catalog: maj over Av(132,213) and inv
# over Av(132,231) are both prod (1 + q^i), so this pair exits 0.
_TRUE_MAHONIAN = ("132,213", "132,231")
# The heaviest commands come from fixed multisets, so the slowest tenth
# of a stream (verify, then the series of order 8-10) is the same for
# every seed; the other commands' sizes stay below them.
_VERIFY_NMAX = (3, 4, 5)
_SERIES_ORDERS = (8, 9, 10, 8, 9, 10)


def _fmt(p) -> str:
    return "".join(map(str, p))


def _fmt_set(ps) -> str:
    return ",".join(_fmt(p) for p in ps)


def _cold_ops(strata, rng: random.Random) -> list[dict]:
    """One op per drawn key; every ENUM_EVERY-th key of a stratum enumerates.

    Which keys enumerate follows the order of the drawn keys, not a seeded
    choice: enumeration cost differs much more between the pattern sets of
    one stratum than a profile query's does.
    """
    ops = []
    for pool, n, draw in strata:
        for rank, patterns in enumerate(sorted(rng.sample(pool, draw))):
            kind = "enum" if rank % ENUM_EVERY == 0 else rng.choice(PROFILE_KINDS)
            ops.append({"kind": kind, "n": n, "patterns": [list(p) for p in patterns]})
    rng.shuffle(ops)
    return ops


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(4, 14)))


def _cli_mixed(rng: random.Random) -> list[dict]:
    # a small hot set of pattern sets, so poly/enumerate/mahonian keys repeat
    hot = [_fmt_set(s) for s in rng.sample(_S3_SINGLES, 3) + rng.sample(_S3_PAIRS, 4)]
    argvs: list[list[str]] = []
    for _ in range(40):
        argvs.append(["poly", "--stat", rng.choice(("inv", "maj", "majdes")),
                      "--n", str(rng.randint(4, 8)), "--avoid", rng.choice(hot)])
    for _ in range(16):
        argvs.append(["classify", "--k", "3", "--size", str(rng.randint(1, 3)),
                      "--stat", rng.choice(("inv", "maj", "maj-des")),
                      "--nmax", str(rng.randint(4, 6))])
    for gf in _SERIES_IDS:
        for order in _SERIES_ORDERS:
            argvs.append(["series", "--gf", gf, "--order", str(order)])
    for _ in range(24):
        argvs.append(["formula", "--id", rng.choice(_FORMULA_IDS),
                      "--n", str(rng.randint(1, 12))])
    for _ in range(14):
        argv = ["foata", "--word", _word(rng)]
        if rng.random() < 0.5:
            argv.append("--inverse")
        argvs.append(argv)
    for _ in range(10):
        argvs.append(["decompose", "--word", _word(rng)])
    for _ in range(14):
        left, right = (_TRUE_MAHONIAN if rng.random() < 0.5
                       else (rng.choice(hot), rng.choice(hot)))
        argvs.append(["mahonian", "--left", left, "--right", right,
                      "--n", str(rng.randint(4, 7))])
    for _ in range(16):
        argvs.append(["enumerate", "--n", str(rng.randint(3, 6)),
                      "--avoid", rng.choice(hot)])
    for nmax in _VERIFY_NMAX:
        argvs.append(["verify", "--suite", "paper", "--nmax", str(nmax)])
    for argv in argvs:
        argv += ["--format", rng.choice(_FORMATS)]
    rng.shuffle(argvs)
    return [{"kind": "cli", "argv": argv} for argv in argvs]


_STREAMS = {
    "s3-cold": lambda rng: _cold_ops(_S3_COLD_STRATA, rng),
    "s4-cold": lambda rng: _cold_ops(_S4_COLD_STRATA, rng),
    "cli-mixed": _cli_mixed,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op stream of one workload; the same seed gives the same stream."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def op_label(op: dict) -> str:
    """Short human-readable form of an op, for failure messages."""
    if op["kind"] == "cli":
        return "patstat " + " ".join(op["argv"])
    return f"{op['kind']} n={op['n']} avoid={_fmt_set(op['patterns']) or '-'}"
