"""Output checks that do not go through the backtracking search.

Every op of every workload is checked here, outside the timed region:

- counts against Simion and Schmidt's formulas for every subset of S3
  of size at most 3, and against brute force for n <= BRUTE_MAX_N;
- polynomials against the closed-form catalog, transported along the
  square symmetries that carry the statistic (the inv-preserving and
  inv-reversing ones for ``inv``, complement for ``maj``/``des``), the
  q-Catalan polynomials ``c_poly``/``ct_poly`` for 132/312, the bivariate
  312 recursion, and brute force for n <= BRUTE_MAX_N;
- every polynomial's value at 1 against the count, which is the identity
  inv_poly(1) == count == majdes(1, 1);
- enumerations for order, validity, count, and either set identity with
  brute force (n <= BRUTE_MAX_N) or ``perms.avoids_all`` on a sample of
  elements (taken in child.py, where the enumeration is in memory);
- CLI ops against the same values recomputed through the library, with
  the exit code that follows from them.

The brute force never calls the engine: Av_n(p) is built from
Av_(n-1)(p) by inserting n at every position and keeping the
permutations that ``perms.avoids_all`` accepts.  That is complete because
deleting the largest entry of an avoider leaves an avoider.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Iterable, Optional, Sequence

from patstat import engine, formulas, verify, words
from patstat.formulas import CLOSED_FORMS, c_poly, closed_form, ct_poly, m312_recursive
from patstat.perms import (
    INV_PRESERVING,
    SYMMETRIES,
    apply_symmetry,
    avoids_all,
    des,
    format_perm,
    inv,
    maj,
    parse_pattern_set,
)
from patstat.polynomials import QPoly, QTPoly

Perm = tuple[int, ...]


class Mismatch(Exception):
    """A library value disagrees with an independent route."""


BRUTE_MAX_N = 8

_S3 = frozenset(itertools.permutations((1, 2, 3)))
_INC, _DEC = (1, 2, 3), (3, 2, 1)
_SS_QUADRATIC_PAIRS = {
    frozenset(s) for s in (
        ((1, 3, 2), (3, 2, 1)), ((2, 1, 3), (3, 2, 1)),
        ((1, 2, 3), (2, 3, 1)), ((1, 2, 3), (3, 1, 2)),
    )
}
_SS_FIBONACCI_TRIPLES = {
    frozenset(((1, 2, 3), (1, 3, 2), (2, 1, 3))),
    frozenset(((2, 3, 1), (3, 1, 2), (3, 2, 1))),
}


def canonical(patterns: Iterable[Sequence[int]]) -> tuple[Perm, ...]:
    return tuple(sorted({tuple(p) for p in patterns}))


def simion_schmidt(n: int, patterns: Iterable[Sequence[int]]) -> Optional[int]:
    """|Av_n(R)| for R a subset of S3 with at most three elements, from
    Simion and Schmidt, "Restricted permutations" (1985); None otherwise."""
    r = frozenset(canonical(patterns))
    if not r <= _S3 or len(r) > 3:
        return None
    if not r:
        return math.factorial(n)
    if len(r) == 1:
        return math.comb(2 * n, n) // (n + 1)
    monotone_pair = _INC in r and _DEC in r  # Erdos-Szekeres: none past n = 4
    if len(r) == 2:
        if monotone_pair:
            return (1, 1, 2, 4, 4)[n] if n < 5 else 0
        if r in _SS_QUADRATIC_PAIRS:
            return 1 + math.comb(n, 2)
        return 2 ** (n - 1) if n else 1
    if monotone_pair:
        return (1, 1, 2, 3, 1)[n] if n < 5 else 0
    if r in _SS_FIBONACCI_TRIPLES:
        a, b = 1, 1
        for _ in range(n):
            a, b = b, a + b
        return a
    return n if n else 1


class BruteForce:
    """Avoidance classes for n <= BRUTE_MAX_N from ``perms.avoids_all``.

    A single pattern's class grows by one-point extension; a larger set's
    class is the class of its shortest pattern filtered by the others.
    Results are kept for reuse.
    """

    def __init__(self) -> None:
        self._levels: dict[Perm, list[list[Perm]]] = {}
        self._sets: dict[tuple[int, tuple[Perm, ...]], list[Perm]] = {}
        self._stats: dict[tuple[int, tuple[Perm, ...]], tuple[QPoly, QTPoly]] = {}

    def _single(self, n: int, pattern: Perm) -> list[Perm]:
        levels = self._levels.setdefault(pattern, [[()] if avoids_all((), [pattern]) else []])
        while len(levels) <= n:
            m = len(levels)
            grown = {p[:i] + (m,) + p[i:] for p in levels[-1] for i in range(m)}
            levels.append(sorted(p for p in grown if avoids_all(p, [pattern])))
        return levels[n]

    def avoiders(self, n: int, patterns: Iterable[Sequence[int]]) -> list[Perm]:
        """Av_n(patterns) in lexicographic order."""
        if n > BRUTE_MAX_N:
            raise ValueError(f"brute force stops at n = {BRUTE_MAX_N}")
        key = canonical(patterns)
        if not key:
            return sorted(itertools.permutations(range(1, n + 1)))
        if (n, key) not in self._sets:
            first = min(key, key=len)
            rest = [p for p in key if p != first]
            self._sets[(n, key)] = [p for p in self._single(n, first) if avoids_all(p, rest)]
        return self._sets[(n, key)]

    def polys(self, n: int, patterns: Iterable[Sequence[int]]) -> tuple[QPoly, QTPoly]:
        """(inv polynomial, maj/des polynomial) summed over Av_n."""
        key = (n, canonical(patterns))
        if key not in self._stats:
            inv_hist = [0] * (math.comb(n, 2) + 1)
            majdes: dict[tuple[int, int], int] = {}
            for p in self.avoiders(n, key[1]):
                inv_hist[inv(p)] += 1
                k = (maj(p), des(p))
                majdes[k] = majdes.get(k, 0) + 1
            self._stats[key] = (QPoly(inv_hist), QTPoly.from_counts(majdes))
        return self._stats[key]


def _catalog(kind: str) -> dict[tuple[Perm, ...], str]:
    return {s: fid for fid, e in CLOSED_FORMS.items() if e.kind == kind
            for s in e.pattern_sets}


_INV_CATALOG = _catalog("q")
_MAJDES_CATALOG = _catalog("qt")


def _complement_majdes(p: QTPoly, n: int) -> QTPoly:
    """Complement sends maj to C(n,2) - maj and des to n - 1 - des."""
    if n == 0:
        return p
    top = math.comb(n, 2)
    return QTPoly(tuple((top - qe, n - 1 - te, c) for qe, te, c in p.terms))


def closed_form_inv(n: int, patterns: tuple[Perm, ...]) -> Optional[QPoly]:
    for sym in SYMMETRIES:
        image = canonical(apply_symmetry(sym, p) for p in patterns)
        if image in _INV_CATALOG:
            poly = closed_form(_INV_CATALOG[image], n)
        elif image == ((1, 3, 2),):
            poly = c_poly(n)
        elif image == ((3, 1, 2),):
            poly = ct_poly(n)
        else:
            continue
        return poly if sym in INV_PRESERVING else poly.reverse(n)
    return None


def closed_form_majdes(n: int, patterns: tuple[Perm, ...]) -> Optional[QTPoly]:
    for sym in ("R0", "r0"):
        image = canonical(apply_symmetry(sym, p) for p in patterns)
        if image in _MAJDES_CATALOG:
            poly = closed_form(_MAJDES_CATALOG[image], n)
        elif image == ((3, 1, 2),):
            poly = m312_recursive(n)
        else:
            continue
        return poly if sym == "R0" else _complement_majdes(poly, n)
    return None


def digest_perms(perms: Iterable[Sequence[int]]) -> str:
    """Order-sensitive digest of a permutation list."""
    h = hashlib.sha256()
    for p in perms:
        h.update(bytes(p))
        h.update(b"\xff")
    return h.hexdigest()


class Oracle:
    """Checks op outputs; returns a list of problems, empty when correct."""

    def __init__(self) -> None:
        self.brute = BruteForce()
        self._cli_cache: dict[tuple[str, ...], tuple[int, str] | Mismatch] = {}

    # -- profile and enumeration ops ---------------------------------------

    def expected(self, n: int, patterns: Sequence[Sequence[int]]) -> dict:
        """Every independent value known for the key: count, inv, majdes,
        and (for small n) the avoiders themselves."""
        key = canonical(patterns)
        exp = {"count": simion_schmidt(n, key), "inv": closed_form_inv(n, key),
               "majdes": closed_form_majdes(n, key), "avoiders": None}
        if n <= BRUTE_MAX_N:
            avoiders = self.brute.avoiders(n, key)
            inv_b, majdes_b = self.brute.polys(n, key)
            for name, value in (("count", len(avoiders)), ("inv", inv_b), ("majdes", majdes_b)):
                if exp[name] is not None and exp[name] != value:
                    exp["conflict"] = f"brute force and formula disagree on {name}"
                exp[name] = value
            exp["avoiders"] = avoiders
        return exp

    def check_op(self, op: dict, out) -> list[str]:
        if op["kind"] == "cli":
            return self.check_cli(op["argv"], out)
        exp = self.expected(op["n"], op["patterns"])
        if "conflict" in exp:
            return [exp["conflict"]]
        count = exp["count"]
        if count is None:
            return ["no independent route gives the count"]
        kind = op["kind"]
        if kind == "count":
            return [] if out == count else [f"count {out} != {count}"]
        if kind == "enum":
            return self._check_enum(op, out, exp)
        if kind == "majdes":
            got = QTPoly(tuple(tuple(t) for t in out))
            want = exp["majdes"]
            at_one = sum(c for _, _, c in got.terms)
        else:
            got = QPoly(tuple(out))
            want = exp["inv"] if kind == "inv" else (
                exp["majdes"].specialize_t1() if exp["majdes"] is not None else None)
            at_one = sum(got.coeffs)
        problems = []
        if at_one != count:
            problems.append(f"{kind} polynomial at 1 is {at_one}, count is {count}")
        if want is not None and got != want:
            problems.append(f"{kind} polynomial {got} != {want}")
        return problems

    def _check_enum(self, op: dict, out: dict, exp: dict) -> list[str]:
        problems = []
        if out["count"] != exp["count"]:
            problems.append(f"enumerated {out['count']} permutations, expected {exp['count']}")
        if not out["ordered"]:
            problems.append("enumeration is not strictly increasing")
        if not out["valid"]:
            problems.append(f"enumeration holds a non-permutation of length {op['n']}")
        if exp["avoiders"] is not None:
            if out["digest"] != digest_perms(exp["avoiders"]):
                problems.append("enumerated set differs from brute force")
        elif out.get("avoid_ok") is not True:
            problems.append("a sampled enumerated permutation failed avoids_all")
        return problems

    # -- CLI ops -----------------------------------------------------------

    def check_cli(self, argv: Sequence[str], out: dict) -> list[str]:
        try:
            code, text = self.expected_cli(argv)
        except Mismatch as exc:
            return [str(exc)]
        problems = []
        if out["code"] != code:
            problems.append(f"exit code {out['code']} != {code}")
        got = out["stdout"]
        fmt = _options(argv).get("--format", "text")
        if fmt == "json":
            same = _json_equal(argv[0], got, text)
        else:
            same = got == text
        if not same:
            problems.append(f"stdout {got[:200]!r} != expected {text[:200]!r}")
        return problems

    def expected_cli(self, argv: Sequence[str]) -> tuple[int, str]:
        key = tuple(argv)
        if key not in self._cli_cache:
            try:
                self._cli_cache[key] = self._expected_cli(argv)
            except Mismatch as exc:
                self._cli_cache[key] = exc
        found = self._cli_cache[key]
        if isinstance(found, Mismatch):
            raise found
        return found

    def _expected_cli(self, argv: Sequence[str]) -> tuple[int, str]:
        cmd, opt = argv[0], _options(argv)
        fmt = opt.get("--format", "text")
        code, lines = 0, []
        if cmd == "poly":
            n, stat, pats = int(opt["--n"]), opt["--stat"], parse_pattern_set(opt["--avoid"])
            poly = (engine.maj_des_poly(n, pats) if stat == "majdes"
                    else engine.stat_poly(n, pats, stat))
            self._check_library_poly(n, pats, stat, poly)
            lines = _poly_lines(poly, fmt, {"n": n, "patterns": [format_perm(p) for p in pats],
                                            "stat": stat})
        elif cmd == "formula":
            poly = closed_form(opt["--id"], int(opt["--n"]))
            lines = _poly_lines(poly, fmt, {"id": opt["--id"], "n": int(opt["--n"])})
        elif cmd == "classify":
            report = engine.classify(int(opt["--k"]), int(opt["--size"]), opt["--stat"],
                                     int(opt["--nmax"]))
            if fmt == "json":
                lines = [json.dumps(report.to_json())]
            else:
                lines = [" | ".join(c) for c in report.to_json()]
        elif cmd == "series":
            s = formulas.series_expand(opt["--gf"], int(opt["--order"]))
            if fmt == "json":
                lines = [json.dumps({"id": opt["--gf"], "order": int(opt["--order"]),
                                     "coeffs": s.to_json()})]
            elif fmt == "csv":
                lines = ["x,q,t,c"] + [f"{i},{qe},{te},{v}" for i, c in enumerate(s.coeffs)
                                       for qe, te, v in c.terms]
            else:
                lines = [f"x^{i}: {c}" for i, c in enumerate(s.coeffs)]
        elif cmd == "foata":
            w = words.parse_word(opt["--word"])
            image = words.foata_inverse(w) if "--inverse" in opt else words.foata(w)
            if fmt == "json":
                lines = [json.dumps({"word": words.format_word(w) if w else "",
                                     "image": words.format_word(image) if image else ""})]
            else:
                lines = [words.format_word(image)]
        elif cmd == "decompose":
            w = words.parse_word(opt["--word"])
            lam, d, beta, rho = words.lambda_of(w), words.durfee(w), words.beta_of(w), words.rho_of(w)
            if fmt == "json":
                lines = [json.dumps({"lambda": list(lam), "d": d,
                                     "beta": list(beta), "rho": list(rho)})]
            else:
                lines = [f"lambda={words.format_partition(lam)}", f"d={d}",
                         f"beta={words.format_partition(beta)}",
                         f"rho={words.format_partition(rho)}"]
        elif cmd == "mahonian":
            n = int(opt["--n"])
            ok = (engine.stat_poly(n, parse_pattern_set(opt["--left"]), "maj")
                  == engine.stat_poly(n, parse_pattern_set(opt["--right"]), "inv"))
            code = 0 if ok else 1
            if fmt == "json":
                lines = [json.dumps({"n": n, "left": opt["--left"], "right": opt["--right"],
                                     "mahonian": ok})]
            else:
                lines = ["true" if ok else "false"]
        elif cmd == "enumerate":
            n, avoid = int(opt["--n"]), opt["--avoid"]
            found = list(engine.enumerate_avoiders(n, parse_pattern_set(avoid)))
            if n <= BRUTE_MAX_N and found != self.brute.avoiders(n, parse_pattern_set(avoid)):
                raise Mismatch("library enumeration differs from brute force")
            text = [format_perm(p) for p in found]
            if fmt == "json":
                lines = [json.dumps({"n": n, "patterns": avoid.split(",") if avoid else [],
                                     "avoiders": text})]
            elif fmt == "csv":
                lines = ["perm"] + text
            else:
                lines = text
        elif cmd == "verify":
            results = verify.run_paper_suite(int(opt["--nmax"]))
            code = 0 if all(r.passed for r in results) else 1
            if fmt == "json":
                lines = [json.dumps([_verify_record(r.name, r.passed, r.cases, list(r.failures))
                                     for r in results])]
            else:
                passed = sum(r.passed for r in results)
                lines = [r.line() for r in results] + [f"{passed}/{len(results)} checks passed"]
        else:
            raise ValueError(f"the oracle has no route for {cmd!r}")
        return code, "".join(line + "\n" for line in lines)

    def _check_library_poly(self, n, pats, stat, poly) -> None:
        """Cross-check the library value itself against the independent routes."""
        out = poly.terms if stat == "majdes" else poly.coeffs
        problems = self.check_op({"kind": stat, "n": n, "patterns": pats}, out)
        if problems:
            raise Mismatch(f"library {stat} polynomial: {'; '.join(problems)}")


def _options(argv: Sequence[str]) -> dict[str, str]:
    opt: dict[str, str] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opt[argv[i]] = argv[i + 1]
            i += 2
        else:
            opt[argv[i]] = ""
            i += 1
    return opt


def _poly_lines(poly, fmt: str, meta: dict) -> list[str]:
    if fmt == "json":
        return [json.dumps({**meta, "poly": poly.to_json()})]
    if fmt == "csv":
        if isinstance(poly, QPoly):
            rows = [f"{i},0,{c}" for i, c in enumerate(poly.coeffs) if c]
        else:
            rows = [f"{qe},{te},{c}" for qe, te, c in poly.terms]
        return ["q,t,c"] + rows
    return [str(poly)]


def _verify_record(name, passed, cases, failures) -> dict:
    return {"name": name, "passed": passed, "cases": cases, "failures": failures}


def _json_equal(cmd: str, got: str, want: str) -> bool:
    """JSON outputs compare as values; verify compares only its named fields,
    so extra per-check fields (such as timings) do not count as wrong."""
    try:
        g, w = json.loads(got), json.loads(want)
    except ValueError:
        return False
    if cmd == "verify" and isinstance(g, list):
        g = [_verify_record(r.get("name"), r.get("passed"), r.get("cases"), r.get("failures"))
             if isinstance(r, dict) else r for r in g]
    return g == w
