"""Tests of the benchmark's own parts: the oracle, the workloads, the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import BruteForce, Oracle  # noqa: E402
from patstat import engine  # noqa: E402
from tracer import Tracer  # noqa: E402

S3_SUBSETS = [s for k in range(4) for s in itertools.combinations(workloads.S3, k)]


def test_simion_schmidt_matches_brute_force():
    brute = BruteForce()
    for subset in S3_SUBSETS:
        for n in range(8):
            assert oracle.simion_schmidt(n, subset) == len(brute.avoiders(n, subset)), (n, subset)


def test_brute_force_is_exhaustive():
    for n in range(7):
        for pats in (((1, 3, 2),), ((1, 3, 2, 4), (2, 1, 3)), ((4, 3, 2, 1),)):
            want = [p for p in itertools.permutations(range(1, n + 1))
                    if all(not _contains(p, q) for q in pats)]
            assert BruteForce().avoiders(n, pats) == want


def _contains(p, q):
    k = len(q)
    return any(
        all((sub[a] < sub[b]) == (q[a] < q[b]) for a in range(k) for b in range(k))
        for sub in itertools.combinations(p, k)
    )


def test_symmetry_routes_match_brute_force():
    brute = BruteForce()
    covered_inv = covered_majdes = 0
    for subset in S3_SUBSETS:
        for n in range(8):
            inv_b, majdes_b = brute.polys(n, subset)
            inv_f = oracle.closed_form_inv(n, subset)
            majdes_f = oracle.closed_form_majdes(n, subset)
            if inv_f is not None:
                covered_inv += 1
                assert inv_f == inv_b, (n, subset)
            if majdes_f is not None:
                covered_majdes += 1
                assert majdes_f == majdes_b, (n, subset)
    assert covered_inv > covered_majdes > 0


@pytest.mark.parametrize("kind", ["inv", "maj", "majdes"])
def test_oracle_flags_a_corrupted_polynomial(kind):
    o = Oracle()
    n, pats = 11, [(1, 3, 2)]  # beyond brute force: c_poly is the route
    if kind == "majdes":
        n, pats = 10, [(3, 1, 2)]  # the bivariate 312 recursion is the route
    op = {"kind": kind, "n": n, "patterns": pats}
    if kind == "majdes":
        good = [list(t) for t in engine.maj_des_poly(n, pats).terms]
        bad = [list(t) for t in good]
        # move one unit between two terms: the value at (1, 1) stays right
        bad[0][2] -= 1
        bad[-1][2] += 1
    else:
        good = list(engine.stat_poly(n, pats, kind).coeffs)
        bad = list(good)
        bad[1] -= 1
        bad[2] += 1
    assert o.check_op(op, good) == []
    assert o.check_op(op, bad)
    assert o.check_op(op, good[:-1])


def test_oracle_flags_wrong_counts_and_enumerations():
    o = Oracle()
    op = {"kind": "count", "n": 12, "patterns": [[1, 2, 3], [1, 3, 2]]}
    assert o.check_op(op, 2048) == []
    assert o.check_op(op, 2047)
    found = list(engine.enumerate_avoiders(6, [(2, 3, 1, 4)]))
    enum = {"kind": "enum", "n": 6, "patterns": [[2, 3, 1, 4]]}
    summary = {"count": len(found), "ordered": True, "valid": True,
               "digest": oracle.digest_perms(found)}
    assert o.check_op(enum, summary) == []
    swapped = found[:1] + [(1, 2, 3, 4, 5, 6)] + found[2:]
    assert o.check_op(enum, {**summary, "digest": oracle.digest_perms(swapped)})
    big = {"kind": "enum", "n": 10, "patterns": [[3, 2, 1]]}
    summary = {"count": 16796, "ordered": True, "valid": True, "digest": "x"}
    assert o.check_op(big, {**summary, "avoid_ok": True}) == []
    assert o.check_op(big, summary)
    assert o.check_op(big, {**summary, "avoid_ok": True, "ordered": False})


def test_oracle_flags_wrong_cli_output():
    o = Oracle()
    argv = ["poly", "--stat", "inv", "--n", "3", "--avoid", "312", "--format", "text"]
    good = {"code": 0, "stdout": "1 + 2*q + q^2 + q^3\n", "stderr": ""}
    assert o.check_op({"kind": "cli", "argv": argv}, good) == []
    assert o.check_op({"kind": "cli", "argv": argv}, {**good, "stdout": "1 + 2*q + q^3\n"})
    assert o.check_op({"kind": "cli", "argv": argv}, {**good, "code": 1})
    false_pair = ["mahonian", "--left", "123", "--right", "132", "--n", "5", "--format", "json"]
    out = {"code": 1, "stdout": json.dumps({"n": 5, "left": "123", "right": "132",
                                            "mahonian": False}) + "\n", "stderr": ""}
    assert o.check_op({"kind": "cli", "argv": false_pair}, out) == []
    assert o.check_op({"kind": "cli", "argv": false_pair}, {**out, "code": 0})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded_and_cold_keys_distinct(workload):
    ops = workloads.make_ops(workload, 7)
    assert ops == workloads.make_ops(workload, 7)
    assert ops != workloads.make_ops(workload, 8)
    assert len(ops) >= 100
    if workload != "cli-mixed":
        keys = [(op["n"], tuple(sorted(map(tuple, op["patterns"])))) for op in ops]
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_every_s3_cold_op_has_an_independent_count(seed):
    o = Oracle()
    for op in workloads.make_ops("s3-cold", seed):
        assert o.expected(op["n"], op["patterns"])["count"] is not None


def test_every_cli_op_has_an_expected_output():
    o = Oracle()
    for op in workloads.make_ops("cli-mixed", 3):
        code, text = o.expected_cli(op["argv"])
        assert code in (0, 1)
        assert text or op["argv"][0] == "enumerate"


def test_self_time_subtracts_direct_children():
    t = Tracer()
    a, b, c = (t._intern(x) for x in "abc")
    for nid, parent, start, end in ((a, -1, 0.0, 10.0), (b, 0, 1.0, 4.0), (c, 1, 2.0, 3.0)):
        t.name.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    assert t.self_times() == [7.0, 2.0, 1.0]


def test_traced_child_reports_every_layer(tmp_path):
    ops = workloads.make_ops("cli-mixed", 2)
    only = [i for i, op in enumerate(ops) if op["argv"][0] in ("enumerate", "poly")][:20]
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "cli-mixed", "--seed", "2",
         "--trace", "1", "--spans", str(spans), "--only", ",".join(map(str, only))],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    layers = report["layers"]
    for layer in ("cli", "engine", "polynomials", "formulas", "words", "perms", "verify"):
        assert f"{layer}.self_s" in layers
    assert layers["cli.self_s"] > 0 and layers["engine.profile.calls"] > 0
    lines = spans.read_text().splitlines()
    names = json.loads(lines[0])["names"]
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == report["spans"]
    # cli binds format_perm from perms; the rebinding must route that call
    # through the wrapper, so it shows up as a child of cli.main
    parent_names = {names[rows[r[1]][0]] for r in rows
                    if names[r[0]] == "perms.format_perm" and r[1] >= 0}
    assert "cli.main" in parent_names
