"""Named verification checks backing the `verify` command.

The "paper" suite re-derives every structural identity the library relies
on (symmetry transport, oracle-versus-enumeration agreement, bijection
statistics, series coefficients, round trips); the "conjectures" suite
re-verifies the empirically supported statements inside documented bounds.
Failures are returned as data so the command line can list them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import engine, formulas, perms, words
from .polynomials import QPoly, QTPoly, TruncatedSeries, pochhammer, q_int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    failures: tuple[str, ...]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name} ({self.cases} cases)"
        if self.failures:
            msg += ": " + "; ".join(self.failures[:3])
            if len(self.failures) > 3:
                msg += f"; ... {len(self.failures) - 3} more"
        return msg


def _result(name: str, cases: int, failures: list[str]) -> CheckResult:
    return CheckResult(name, not failures, cases, tuple(failures))


# ---------------------------------------------------------------------------
# permutation-level identities


def check_inv_symmetry(nmax: int = 7) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for n in range(min(nmax, 7) + 1):
        top = math.comb(n, 2)
        for p in perms.all_perms(n):
            base = perms.inv(p)
            for f in perms.SYMMETRIES:
                cases += 1
                got = perms.inv(perms.apply_symmetry(f, p))
                want = base if f in perms.INV_PRESERVING else top - base
                if got != want:
                    failures.append(f"inv {f}({perms.format_perm(p)}) = {got} != {want}")
    return _result("inv-under-symmetries", cases, failures)


def check_maj_complement(nmax: int = 7) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for n in range(min(nmax, 7) + 1):
        top = math.comb(n, 2)
        for p in perms.all_perms(n):
            cases += 1
            if perms.maj(perms.complement(p)) != top - perms.maj(p):
                failures.append(f"maj complement fails at {perms.format_perm(p)}")
    return _result("maj-under-complement", cases, failures)


def check_containment_transport(nmax: int = 6) -> CheckResult:
    failures: list[str] = []
    cases = 0
    patterns = [q for k in range(4) for q in perms.all_perms(k)]
    for n in range(min(nmax, 6) + 1):
        for p in perms.all_perms(n):
            for pat in patterns:
                base = perms.contains(p, pat)
                for f in perms.SYMMETRIES:
                    cases += 1
                    if perms.contains(perms.apply_symmetry(f, p), perms.apply_symmetry(f, pat)) != base:
                        failures.append(
                            f"containment not preserved by {f} on "
                            f"({perms.format_perm(p)}, {perms.format_perm(pat)})"
                        )
    return _result("containment-under-symmetries", cases, failures)


def check_symmetry_group_law(nmax: int = 5) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for f in perms.SYMMETRIES:
        for g in perms.SYMMETRIES:
            h = perms.compose_symmetries(f, g)
            for n in range(min(nmax, 5) + 1):
                for p in perms.all_perms(n):
                    cases += 1
                    if perms.apply_symmetry(f, perms.apply_symmetry(g, p)) != perms.apply_symmetry(h, p):
                        failures.append(f"{f}∘{g} != {h} at {perms.format_perm(p)}")
    return _result("symmetry-group-law", cases, failures)


def check_inflation_laws(seed: int = 20120405) -> CheckResult:
    failures: list[str] = []
    cases = 0
    rng = random.Random(seed)

    def random_perm(max_n: int) -> perms.Perm:
        n = rng.randrange(max_n + 1)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        return tuple(vals)

    for n in range(6):
        for p in perms.all_perms(n):
            cases += 1
            if perms.inflate(p, ((1,),) * n) != p:
                failures.append(f"singleton inflation moved {perms.format_perm(p)}")
    for _ in range(300):
        base = random_perm(4)
        mids = [random_perm(3) for _ in base]
        leaves = [[random_perm(2) for _ in mid] for mid in mids]
        cases += 1
        nested = perms.inflate(base, [perms.inflate(m, lv) for m, lv in zip(mids, leaves)])
        flat = perms.inflate(
            perms.inflate(base, mids), [x for lv in leaves for x in lv]
        )
        if nested != flat:
            failures.append(f"inflation associativity fails on base {base}")
    return _result("inflation-laws", cases, failures)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def check_ring_axioms(seed: int = 97, rounds: int = 200) -> CheckResult:
    failures: list[str] = []
    cases = 0
    rng = random.Random(seed)

    def rand_qpoly() -> QPoly:
        return QPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(5))])

    def rand_qtpoly() -> QTPoly:
        return QTPoly(
            tuple(
                (rng.randrange(4), rng.randrange(3), rng.randrange(-5, 6))
                for _ in range(rng.randrange(5))
            )
        )

    for _ in range(rounds):
        a, b, c = rand_qpoly(), rand_qpoly(), rand_qpoly()
        cases += 1
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c) or a + b != b + a:
            failures.append(f"q-polynomial axiom fails on {a}, {b}, {c}")
        x, y, z = rand_qtpoly(), rand_qtpoly(), rand_qtpoly()
        cases += 1
        if (x + y) * z != x * z + y * z or (x * y) * z != x * (y * z) or x * y != y * x:
            failures.append(f"(q,t)-polynomial axiom fails on {x}, {y}, {z}")
    return _result("polynomial-ring-axioms", cases, failures)


def check_coefficient_reversal(seed: int = 11, rounds: int = 200) -> CheckResult:
    failures: list[str] = []
    cases = 0
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randrange(7)
        top = math.comb(n, 2)
        p = QPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(top + 2))])
        cases += 1
        if p.reverse(n).reverse(n) != p:
            failures.append(f"double reversal moved {p} (n={n})")
    return _result("coefficient-reversal-involution", cases, failures)


def check_series_inverse(seed: int = 13, rounds: int = 60) -> CheckResult:
    failures: list[str] = []
    cases = 0
    rng = random.Random(seed)
    for _ in range(rounds):
        order = rng.randrange(1, 7)
        coeffs = [QTPoly.one()] + [
            QTPoly(
                tuple(
                    (rng.randrange(3), rng.randrange(2), rng.randrange(-3, 4))
                    for _ in range(rng.randrange(3))
                )
            )
            for _ in range(order)
        ]
        s = TruncatedSeries(order, tuple(coeffs))
        cases += 1
        if s * s.invert() != TruncatedSeries.one(order):
            failures.append(f"inverse round trip failed at order {order}")
    return _result("series-inverse-roundtrip", cases, failures)


def check_counts_from_polynomials(nmax: int = 9) -> CheckResult:
    failures: list[str] = []
    cases = 0
    ground = sorted(perms.all_perms(3))
    for size in range(len(ground) + 1):
        for subset in itertools.combinations(ground, size):
            for n in range(min(nmax, 9) + 1):
                cases += 1
                # the profile's polynomial at q = 1 against the search's leaves
                poly_count = engine.stat_poly(n, subset, "inv").eval_at_q1()
                if poly_count != sum(1 for _ in engine.enumerate_avoiders(n, subset)):
                    failures.append(
                        f"count mismatch for {perms.format_pattern_set(subset)} at n={n}"
                    )
    return _result("counts-from-polynomials", cases, failures)


# ---------------------------------------------------------------------------
# engine-level transport


def _patterns_s3_s4() -> list[perms.Perm]:
    return [p for k in (3, 4) for p in perms.all_perms(k)]


def check_inv_poly_transport(nmax: int = 8) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for pat in _patterns_s3_s4():
        for f in perms.SYMMETRIES:
            image = perms.apply_symmetry(f, pat)
            for n in range(min(nmax, 8) + 1):
                cases += 1
                left = engine.stat_poly(n, (image,), "inv")
                base = engine.stat_poly(n, (pat,), "inv")
                want = base if f in perms.INV_PRESERVING else base.reverse(n)
                if left != want:
                    failures.append(
                        f"inv transport fails: {f}({perms.format_perm(pat)}) at n={n}"
                    )
    return _result("inv-polynomial-transport", cases, failures)


def check_maj_poly_complement(nmax: int = 8) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for pat in _patterns_s3_s4():
        image = perms.complement(pat)
        for n in range(min(nmax, 8) + 1):
            cases += 1
            left = engine.stat_poly(n, (image,), "maj")
            want = engine.stat_poly(n, (pat,), "maj").reverse(n)
            if left != want:
                failures.append(
                    f"maj complement transport fails at {perms.format_perm(pat)}, n={n}"
                )
    return _result("maj-polynomial-complement", cases, failures)


def check_classify_stability(nmax: int = 8) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for stat in ("inv", "maj"):
        for size in (1, 2):
            rep = engine.classify(3, size, stat, min(nmax, 8))
            again = engine.classify(3, size, stat, min(nmax, 8))
            cases += 1
            if rep != again:
                failures.append(f"classify not deterministic ({stat}, size {size})")
            cases += 1
            if rep.classes != tuple(sorted(tuple(sorted(c)) for c in rep.classes)):
                failures.append(f"classify output not canonical ({stat}, size {size})")
            cases += 1
            if any(cls[0] != min(cls) for cls in rep.classes):
                failures.append(f"class representative not minimal ({stat}, size {size})")
    return _result("classify-canonical-form", cases, failures)


# ---------------------------------------------------------------------------
# oracle agreement


def check_catalog_against_enumeration(nmax: int = 9, inv_nmax: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for fid, entry in formulas.CLOSED_FORMS.items():
        bound = inv_nmax if entry.kind == "q" else nmax
        for pats in entry.pattern_sets:
            for n in range(bound + 1):
                cases += 1
                if entry.kind == "q":
                    want = engine.stat_poly(n, pats, "inv")
                else:
                    want = engine.maj_des_poly(n, pats)
                if formulas.closed_form(fid, n) != want:
                    failures.append(
                        f"{fid} disagrees with enumeration on "
                        f"{perms.format_pattern_set(pats)} at n={n}"
                    )
    return _result("closed-forms-vs-enumeration", cases, failures)


def check_q_catalan(nmax: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for n in range(nmax + 1):
        cases += 1
        if formulas.ct_poly(n) != engine.stat_poly(n, ((3, 1, 2),), "inv"):
            failures.append(f"reversed q-Catalan != enumeration at n={n}")
        if formulas.c_poly(n) != engine.stat_poly(n, ((1, 3, 2),), "inv"):
            failures.append(f"q-Catalan != enumeration at n={n}")
    return _result("q-catalan-recursions", cases, failures)


def check_product_form_bridge(nmax: int = 12) -> CheckResult:
    """Setting t = 1 in the distinct-parts product must give the inversion
    product form: the polynomial identity behind one of the Mahonian pairs."""
    failures: list[str] = []
    cases = 0
    for n in range(nmax + 1):
        cases += 1
        left = formulas.closed_form("maj-132-213", n)
        right = formulas.closed_form("inv-132-231", n)
        if left.specialize_t1() != right:
            failures.append(f"product forms disagree at n={n}")
    return _result("product-form-bridge", cases, failures)


def check_series_coefficients(nmax: int = 10) -> CheckResult:
    failures: list[str] = []
    cases = 0
    targets = {
        "gf-231-321": ((2, 3, 1), (3, 2, 1)),
        "gf-312-321": ((3, 1, 2), (3, 2, 1)),
        "gf-231-312-321": ((2, 3, 1), (3, 1, 2), (3, 2, 1)),
    }
    order = min(nmax, 10)
    for sid, pats in targets.items():
        s = formulas.series_expand(sid, order)
        for n in range(order + 1):
            cases += 1
            if s[n] != engine.maj_des_poly(n, pats):
                failures.append(f"{sid} coefficient of x^{n} disagrees")
    return _result("series-vs-enumeration", cases, failures)


def check_fibonacci_bridge(nmax: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for n in range(nmax + 1):
        cases += 1
        if formulas.closed_form("inv-231-312-321", n).eval_at_q1() != formulas.fibonacci(n):
            failures.append(f"q=1 of the binomial sum misses F_{n}")
    return _result("fibonacci-bridge", cases, failures)


# ---------------------------------------------------------------------------
# word-level identities


def _words_up_to(length: int):
    for n in range(length + 1):
        yield from itertools.product((0, 1), repeat=n)


def check_foata_properties(max_len: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for v in _words_up_to(max_len):
        w = words.foata(v)
        cases += 1
        sv, sw = words.word_stats(v), words.word_stats(w)
        if len(w) != len(v) or sw.inv != sv.maj:
            failures.append(f"statistic transport fails at {words.format_word(v)}")
        elif words.durfee(w) != sv.des:
            failures.append(f"descents vs square side fails at {words.format_word(v)}")
        elif words.foata_inverse(w) != v:
            failures.append(f"inverse fails at {words.format_word(v)}")
    return _result("run-rearrangement-bijection", cases, failures)


def check_durfee_roundtrip(max_len: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for w in _words_up_to(max_len):
        cases += 1
        if words.from_durfee(words.durfee(w), words.beta_of(w), words.rho_of(w)) != w:
            failures.append(f"decomposition round trip fails at {words.format_word(w)}")
        if sum(words.lambda_of(w)) != words.word_stats(w).inv:
            failures.append(f"diagram size != inversions at {words.format_word(w)}")
    return _result("durfee-roundtrip", cases, failures)


def check_image_characterizations(max_len: int = 12) -> CheckResult:
    failures: list[str] = []
    cases = 0
    by_len_L: dict[int, set] = {}
    by_len_R: dict[int, set] = {}
    by_len_P: dict[int, set] = {}
    for v in _words_up_to(max_len):
        if words.in_start_one_set(v):
            by_len_L.setdefault(len(v), set()).add(words.foata(v))
        if words.in_end_zero_set(v):
            by_len_R.setdefault(len(v), set()).add(words.foata(v))
        if words.in_sparse_set(v):
            by_len_P.setdefault(len(v), set()).add(words.foata(v))
    for n in range(max_len + 1):
        all_n = set(itertools.product((0, 1), repeat=n))
        cases += 3
        want_L = {
            w for w in all_n if all(p < words.durfee(w) for p in words.beta_of(w))
        }
        if by_len_L.get(n, set()) != want_L:
            failures.append(f"start-with-1 image characterization fails at length {n}")
        want_R = {w for w in all_n if words.in_end_zero_set(w)}
        if by_len_R.get(n, set()) != want_R:
            failures.append(f"end-with-0 image fixedness fails at length {n}")
        want_P = {w for w in all_n if not words.rho_of(w)}
        if by_len_P.get(n, set()) != want_P:
            failures.append(f"empty-right-part image characterization fails at length {n}")
    return _result("image-characterizations", cases, failures)


def check_word_transport(nmax: int = 10) -> CheckResult:
    """Summing q^maj t^des over each word set must reproduce the avoidance
    polynomial carried over by the descent-preserving bijections."""
    failures: list[str] = []
    cases = 0
    targets = (
        (words.in_start_one_set, ((2, 3, 1), (3, 2, 1)), "start-with-1"),
        (words.in_end_zero_set, ((3, 1, 2), (3, 2, 1)), "end-with-0"),
        (words.in_sparse_set, ((2, 3, 1), (3, 1, 2), (3, 2, 1)), "no-11-end-0"),
    )
    for n in range(min(nmax, 10) + 1):
        for member, pats, label in targets:
            acc: dict[tuple[int, int], int] = {}
            for v in itertools.product((0, 1), repeat=n):
                if member(v):
                    s = words.word_stats(v)
                    acc[(s.maj, s.des)] = acc.get((s.maj, s.des), 0) + 1
            cases += 1
            if QTPoly.from_counts(acc) != engine.maj_des_poly(n, pats):
                failures.append(f"word sum != avoidance polynomial ({label}, n={n})")
    return _result("word-generating-functions", cases, failures)


def check_bijection_suite(nmax: int = 8, partition_nmax: int = 9) -> CheckResult:
    failures: list[str] = []
    cases = 0
    for n in range(min(nmax, 8) + 1):
        for pats, fwd, back, member in (
            (((2, 3, 1), (3, 2, 1)), words.to_word_231_321, words.from_word_231_321,
             words.in_start_one_set),
            (((3, 1, 2), (3, 2, 1)), words.to_word_312_321, words.from_word_312_321,
             words.in_end_zero_set),
            (((2, 3, 1), (3, 1, 2), (3, 2, 1)), words.to_word_231_312_321,
             words.from_word_231_312_321, words.in_sparse_set),
        ):
            avoiders = list(engine.enumerate_avoiders(n, pats))
            images = [fwd(p) for p in avoiders]
            target = [w for w in itertools.product((0, 1), repeat=n) if member(w)]
            cases += 1
            if sorted(images) != sorted(target):
                failures.append(f"word bijection not onto for {pats} at n={n}")
            elif any(words.word_stats(w).descents != perms.descent_set(p)
                     for p, w in zip(avoiders, images)):
                failures.append(f"descents not preserved for {pats} at n={n}")
            elif any(back(w) != p for p, w in zip(avoiders, images)):
                failures.append(f"inverse fails for {pats} at n={n}")
        avoiders = list(engine.enumerate_avoiders(n, ((1, 3, 2),)))
        images = [words.map_132_to_231(p) for p in avoiders]
        cases += 1
        if sorted(images) != list(engine.enumerate_avoiders(n, ((2, 3, 1),))):
            failures.append(f"descent transport map not onto at n={n}")
        elif any(perms.descent_set(p) != perms.descent_set(t)
                 for p, t in zip(avoiders, images)):
            failures.append(f"descent transport map moves descents at n={n}")
        elif any(words.map_231_to_132(t) != p for p, t in zip(avoiders, images)):
            failures.append(f"descent transport inverse fails at n={n}")
    for n in range(min(partition_nmax, 9) + 1):
        for pats, fwd, back, stat in (
            (((1, 3, 2), (2, 1, 3)), words.descent_partition_132_213,
             words.from_descent_partition_132_213, "maj"),
            (((1, 3, 2), (2, 3, 1)), words.prefix_partition_132_231,
             words.from_prefix_partition_132_231, "inv"),
        ):
            avoiders = list(engine.enumerate_avoiders(n, pats))
            images = [fwd(p) for p in avoiders]
            ground = range(n - 1, 0, -1)
            target = [
                lam
                for size in range(len(ground) + 1)
                for lam in itertools.combinations(ground, size)
            ]
            cases += 1
            if sorted(images) != sorted(target):
                failures.append(f"partition bijection not onto for {pats} at n={n}")
            elif any(back(lam, n) != p for p, lam in zip(avoiders, images)):
                failures.append(f"partition inverse fails for {pats} at n={n}")
            else:
                statfn = perms.maj if stat == "maj" else perms.inv
                if any(sum(lam) != statfn(p) for p, lam in zip(avoiders, images)):
                    failures.append(f"partition size misses {stat} for {pats} at n={n}")
                if stat == "maj" and any(
                    len(lam) != perms.des(p) for p, lam in zip(avoiders, images)
                ):
                    failures.append(f"part count misses des for {pats} at n={n}")
    return _result("bijection-suite", cases, failures)


# ---------------------------------------------------------------------------
# conjecture re-verification


CONJECTURE_NAMES = (
    "trivial-inv-wilf",
    "inflation-maj",
    "sporadic-maj",
    "i321-recursion",
    "maj-parity",
)


def _inv_symmetry_orbit(p: perms.Perm) -> tuple[perms.Perm, ...]:
    return tuple(sorted({perms.apply_symmetry(f, p) for f in perms.INV_PRESERVING}))


def conjecture_suite(
    name: str,
    n_max: int = 8,
    pattern_length: int = 4,
    max_inflation_length: int = 6,
    parity_lengths: tuple[int, ...] = (1, 3, 7),
) -> CheckResult:
    """Re-verify one conjecture empirically inside the given bounds.

    Failures are reported verbatim as data, never raised.
    """
    failures: list[str] = []
    cases = 0

    if name == "trivial-inv-wilf":
        # singleton inversion classes should coincide with orbits under the
        # inv-preserving symmetries
        report = engine.classify(pattern_length, 1, "inv", n_max)
        for cls in report.classes:
            members = tuple(sorted(s[0] for s in cls))
            # orbits[0] is the orbit of members[0], the least member
            orbits = sorted({_inv_symmetry_orbit(p) for p in members})
            cases += 1
            if members == orbits[0]:
                continue
            names = [perms.format_perm(p) for p in members]
            orbit_names = [[perms.format_perm(p) for p in o] for o in orbits]
            if len(members) == sum(map(len, orbits)):
                # symmetry keeps orbits whole, so several orbits in one class
                # only means the bound is too small to tell them apart
                failures.append(
                    f"class {names} joins orbits {', '.join(map(str, orbit_names))}: "
                    f"not separated up to n_max={n_max}"
                )
            else:
                failures.append(f"class {names} != orbit {orbit_names[0]}")
    elif name == "inflation-maj":
        for total in range(1, max_inflation_length + 1):
            for m in range(total):
                k = total - 1 - m
                comps = (tuple(range(1, m + 1)), (1,), tuple(range(k, 0, -1)))
                left = perms.inflate((1, 3, 2), comps)
                right = perms.inflate((2, 3, 1), comps)
                for n in range(n_max + 1):
                    cases += 1
                    if engine.stat_poly(n, (left,), "maj") != engine.stat_poly(n, (right,), "maj"):
                        failures.append(
                            f"maj polynomials differ at n={n} for "
                            f"{perms.format_perm(left)} vs {perms.format_perm(right)} "
                            f"(m={m}, k={k})"
                        )
    elif name == "sporadic-maj":
        for triple in (((1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3)),
                       ((3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2))):
            base = triple[0]
            for other in triple[1:]:
                for n in range(n_max + 1):
                    cases += 1
                    if engine.stat_poly(n, (base,), "maj") != engine.stat_poly(n, (other,), "maj"):
                        failures.append(
                            f"maj polynomials differ at n={n} for "
                            f"{perms.format_perm(base)} vs {perms.format_perm(other)}"
                        )
    elif name == "i321-recursion":
        for n in range(n_max + 1):
            cases += 1
            brute = engine.stat_poly(n, ((3, 2, 1),), "inv")
            if formulas.i321_conjectured(n) != brute:
                failures.append(f"recursion disagrees with brute force at n={n}")
    elif name == "maj-parity":
        for n in parity_lengths:
            cases += 1
            prof = formulas.parity_profile(engine.stat_poly(n, ((3, 2, 1),), "maj"))
            if not prof.holds:
                failures.append(
                    f"maj parity fails at n={n}: odd exponents {prof.odd_exponents}"
                )
    else:
        raise ValueError(f"unknown conjecture {name!r}; expected one of {CONJECTURE_NAMES}")

    return _result(name, cases, failures)


# ---------------------------------------------------------------------------
# suites


PAPER_CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = (
    ("inv-under-symmetries", lambda nmax: check_inv_symmetry(min(nmax, 7))),
    ("maj-under-complement", lambda nmax: check_maj_complement(min(nmax, 7))),
    ("containment-under-symmetries", lambda nmax: check_containment_transport(min(nmax, 6))),
    ("symmetry-group-law", lambda nmax: check_symmetry_group_law(min(nmax, 5))),
    ("inflation-laws", lambda nmax: check_inflation_laws()),
    ("polynomial-ring-axioms", lambda nmax: check_ring_axioms()),
    ("coefficient-reversal-involution", lambda nmax: check_coefficient_reversal()),
    ("series-inverse-roundtrip", lambda nmax: check_series_inverse()),
    ("counts-from-polynomials", lambda nmax: check_counts_from_polynomials(min(nmax, 9))),
    ("inv-polynomial-transport", lambda nmax: check_inv_poly_transport(min(nmax, 8))),
    ("maj-polynomial-complement", lambda nmax: check_maj_poly_complement(min(nmax, 8))),
    ("classify-canonical-form", lambda nmax: check_classify_stability(min(nmax, 8))),
    ("closed-forms-vs-enumeration", lambda nmax: check_catalog_against_enumeration(
        min(nmax, 9), min(nmax + 3, 12))),
    ("q-catalan-recursions", lambda nmax: check_q_catalan(min(nmax + 4, 12))),
    ("product-form-bridge", lambda nmax: check_product_form_bridge(min(nmax + 4, 12))),
    ("series-vs-enumeration", lambda nmax: check_series_coefficients(min(nmax + 2, 10))),
    ("fibonacci-bridge", lambda nmax: check_fibonacci_bridge(min(nmax + 4, 12))),
    ("run-rearrangement-bijection", lambda nmax: check_foata_properties(min(nmax + 4, 12))),
    ("durfee-roundtrip", lambda nmax: check_durfee_roundtrip(min(nmax + 4, 12))),
    ("image-characterizations", lambda nmax: check_image_characterizations(min(nmax + 4, 12))),
    ("word-generating-functions", lambda nmax: check_word_transport(min(nmax + 2, 10))),
    ("bijection-suite", lambda nmax: check_bijection_suite(min(nmax, 8), min(nmax + 1, 9))),
)


def _polled(should_stop: Optional[Callable[[], bool]], check: Callable[..., CheckResult],
            *args, **kwargs) -> CheckResult:
    """check(*args, **kwargs), unless should_stop fires first."""
    if should_stop is not None and should_stop():
        raise engine.SearchCancelled("verification stopped")
    return check(*args, **kwargs)


def run_paper_suite(nmax: int = 8,
                    should_stop: Optional[Callable[[], bool]] = None) -> list[CheckResult]:
    """Every paper check in turn; should_stop is polled before each one."""
    return [_polled(should_stop, fn, nmax) for _, fn in PAPER_CHECKS]


def run_conjecture_suite(nmax: int = 8,
                         should_stop: Optional[Callable[[], bool]] = None) -> list[CheckResult]:
    """Every conjecture check in turn; should_stop is polled before each one."""
    return [_polled(should_stop, conjecture_suite, name, n_max=min(nmax, 8))
            for name in CONJECTURE_NAMES]
