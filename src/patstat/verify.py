"""Named verification checks backing the `verify` command.

The "paper" suite re-derives every structural identity the library relies
on (symmetry transport, oracle-versus-enumeration agreement, bijection
statistics, series coefficients, round trips); the "conjectures" suite
re-verifies the empirically supported statements inside documented bounds.

Each check is a generator that yields one outcome per case: True for a
pass, a failure message otherwise, or a tuple of two such outcomes for a
case that can fail in two ways.  One runner, `_run`, counts the cases, collects the
failures and polls the deadline before each case.  Failures are returned
as data so the command line can list them.

A suite's checks share no state, so `_run_suite` may share them out between
this process and forked workers; it returns the same results, in the same
order, either way.  A should_stop is polled in whichever process runs the
case, so it must answer alike in every process, as a clock deadline does.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import math
import os
import random
import sys
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import engine, formulas, perms, words
from .polynomials import QPoly, QTPoly, TruncatedSeries

Outcome = Union[bool, str, tuple[Union[bool, str], ...]]
Outcomes = Iterator[Outcome]
Stop = Optional[Callable[[], bool]]


class CheckResult(NamedTuple):
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


def _run(name: str, outcomes: Outcomes, should_stop: Stop) -> CheckResult:
    """Count one case per outcome and keep every failure message; should_stop
    is polled before each case."""
    failures: list[str] = []
    cases = 0
    while True:
        if should_stop is not None and should_stop():
            raise engine.SearchCancelled("verification stopped")
        outcome = next(outcomes, None)
        if outcome is None:
            return CheckResult(name, not failures, cases, tuple(failures))
        cases += 1
        if outcome is True:
            continue
        for part in outcome if isinstance(outcome, tuple) else (outcome,):
            if part is not True:
                failures.append(part)


def _polled(items: Iterable, should_stop: Stop) -> Iterator:
    """items, polling should_stop before every 256th: for a long pass within one case."""
    for i, item in enumerate(items):
        if should_stop is not None and i % 256 == 0 and should_stop():
            raise engine.SearchCancelled("verification stopped")
        yield item


class _Table(dict):
    """kernel's value on each of keys, for a check whose cases read the same
    value many times.  Any other key is computed and stored when it is first
    read, so an image that a broken map sends outside keys reads what a direct
    call returns.  Each check call makes its own tables; none outlives it."""

    def __init__(self, kernel: Callable, keys: Iterable = ()) -> None:
        super().__init__({key: kernel(key) for key in keys})
        self._kernel = kernel

    def __missing__(self, key):
        value = self[key] = self._kernel(key)
        return value


# ---------------------------------------------------------------------------
# permutation-level identities


def _inv_symmetry(nmax: int) -> Outcomes:
    for n in range(nmax + 1):
        top = math.comb(n, 2)
        inv = _Table(perms.inv, perms.all_perms(n))  # every image of p is again in S_n
        for p in perms.all_perms(n):
            base = inv[p]
            for f in perms.SYMMETRIES:
                got = inv[perms.apply_symmetry(f, p)]
                want = base if f in perms.INV_PRESERVING else top - base
                yield got == want or f"inv {f}({perms.format_perm(p)}) = {got} != {want}"


def _maj_complement(nmax: int) -> Outcomes:
    for n in range(nmax + 1):
        top = math.comb(n, 2)
        maj = _Table(perms.maj, perms.all_perms(n))
        for p in perms.all_perms(n):
            yield (maj[perms.complement(p)] == top - maj[p]
                   or f"maj complement fails at {perms.format_perm(p)}")


def _images(p: perms.Perm) -> tuple[perms.Perm, ...]:
    """p under each of perms.SYMMETRIES, in that order."""
    return tuple(perms.apply_symmetry(f, p) for f in perms.SYMMETRIES)


def _containment_transport(nmax: int) -> Outcomes:
    patterns = [(q, _images(q)) for k in range(4) for q in perms.all_perms(k)]
    for n in range(nmax + 1):
        # every image of a pair (p, pat) is again such a pair
        contains = _Table(lambda pair: perms.contains(*pair),
                          itertools.product(perms.all_perms(n), [q for q, _ in patterns]))
        for p in perms.all_perms(n):
            images = _images(p)
            for pat, pat_images in patterns:
                base = contains[p, pat]
                for f, image, pat_image in zip(perms.SYMMETRIES, images, pat_images):
                    yield (
                        contains[image, pat_image] == base
                        or f"containment not preserved by {f} on "
                        f"({perms.format_perm(p)}, {perms.format_perm(pat)})"
                    )


def _symmetry_group_law(nmax: int) -> Outcomes:
    image = {p: dict(zip(perms.SYMMETRIES, _images(p)))
             for n in range(nmax + 1) for p in perms.all_perms(n)}
    for f in perms.SYMMETRIES:
        for g in perms.SYMMETRIES:
            h = perms.compose_symmetries(f, g)
            for n in range(nmax + 1):
                for p in perms.all_perms(n):
                    yield (image[image[p][g]][f] == image[p][h]
                           or f"{f}∘{g} != {h} at {perms.format_perm(p)}")


def _inflation_laws(rng: random.Random) -> Outcomes:
    def random_perm(max_n: int) -> perms.Perm:
        n = rng.randrange(max_n + 1)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        return tuple(vals)

    for n in range(6):
        for p in perms.all_perms(n):
            yield (perms.inflate(p, ((1,),) * n) == p
                   or f"singleton inflation moved {perms.format_perm(p)}")
    for _ in range(300):
        base = random_perm(4)
        mids = [random_perm(3) for _ in base]
        leaves = [[random_perm(2) for _ in mid] for mid in mids]
        nested = perms.inflate(base, [perms.inflate(m, lv) for m, lv in zip(mids, leaves)])
        flat = perms.inflate(
            perms.inflate(base, mids), [x for lv in leaves for x in lv]
        )
        yield nested == flat or f"inflation associativity fails on base {base}"


# ---------------------------------------------------------------------------
# polynomial arithmetic


def _ring_axioms(rng: random.Random) -> Outcomes:
    def rand_qpoly() -> QPoly:
        return QPoly([rng.randrange(-6, 7) for _ in range(rng.randrange(5))])

    def rand_qtpoly() -> QTPoly:
        return QTPoly(
            tuple(
                (rng.randrange(4), rng.randrange(3), rng.randrange(-5, 6))
                for _ in range(rng.randrange(5))
            )
        )

    def axioms_hold(a, b, c) -> bool:
        # each product is built once
        ab, bc = a * b, b * c
        return ((a + b) * c == a * c + bc and ab * c == a * bc
                and a + b == b + a and ab == b * a)

    for _ in range(200):
        a, b, c = rand_qpoly(), rand_qpoly(), rand_qpoly()
        yield axioms_hold(a, b, c) or f"q-polynomial axiom fails on {a}, {b}, {c}"
        x, y, z = rand_qtpoly(), rand_qtpoly(), rand_qtpoly()
        yield axioms_hold(x, y, z) or f"(q,t)-polynomial axiom fails on {x}, {y}, {z}"


def _coefficient_reversal(rng: random.Random) -> Outcomes:
    for _ in range(200):
        n = rng.randrange(7)
        top = math.comb(n, 2)
        p = QPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(top + 2))])
        yield p.reverse(n).reverse(n) == p or f"double reversal moved {p} (n={n})"


def _series_inverse(rng: random.Random) -> Outcomes:
    for _ in range(60):
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
        yield (s * s.invert() == TruncatedSeries.one(order)
               or f"inverse round trip failed at order {order}")


def _counts_from_polynomials(nmax: int, should_stop: Stop) -> Outcomes:
    ground = sorted(perms.all_perms(3))
    for size in range(len(ground) + 1):
        for subset in itertools.combinations(ground, size):
            for n in range(nmax + 1):
                # the profile's polynomial at q = 1 against the search's leaves
                count = engine.stat_poly(n, subset, "inv", should_stop).eval_at_q1()
                yield (count == sum(1 for _ in engine.enumerate_avoiders(n, subset, should_stop))
                       or f"count mismatch for {perms.format_pattern_set(subset)} at n={n}")


# ---------------------------------------------------------------------------
# engine-level transport


def _patterns_s3_s4() -> list[perms.Perm]:
    return [p for k in (3, 4) for p in perms.all_perms(k)]


def _least_of_orbit(pat: perms.Perm) -> bool:
    return perms.orbit((pat,), perms.STAT_MOVES)[0] == (pat,)


def _independent_run(n: int, pat: perms.Perm, tag: str, should_stop: Stop) -> Outcome:
    """A _dp_profile run on the image of pat under tag, one of perms.STAT_MOVES,
    against a run on pat moved by Profile.moved.  Neither is read from the cache
    and the runs walk different states, so they do not agree by construction."""
    mate = perms.image(tag, (pat,))
    return (engine._dp_profile(n, mate, should_stop)
            == engine._dp_profile(n, (pat,), should_stop).moved(n, tag)
            or f"profile of {perms.format_pattern_set(mate)} moved from "
            f"{perms.format_perm(pat)} != its own run at n={n}")


def _inv_poly_transport(nmax: int, should_stop: Stop) -> Outcomes:
    # a pattern's polynomial at each length; every image of a pattern is again
    # one of the patterns.  Filled as the cases first read it, so the engine
    # meets the same first requests in the same order as without the table.
    polys = _Table(lambda pat: [engine.stat_poly(n, (pat,), "inv", should_stop)
                                for n in range(nmax + 1)])
    for pat in _patterns_s3_s4():
        least = _least_of_orbit(pat)
        kept = polys[pat]
        flipped = [want.reverse(n) for n, want in enumerate(kept)]
        for f, image in zip(perms.SYMMETRIES, _images(pat)):
            wants = flipped if f in perms.INV_REVERSING else kept
            lefts = polys[image]
            for n in range(nmax + 1):
                # once per orbit and length; below the pattern's length
                # every permutation avoids it, and each run counts all of S_n
                due = least and f == "R0" and n >= len(pat)
                run = _independent_run(n, pat, "rinf", should_stop) if due else True
                yield (lefts[n] == wants[n]
                       or f"inv transport fails: {f}({perms.format_perm(pat)}) at n={n}", run)


def _maj_poly_complement(nmax: int, should_stop: Stop) -> Outcomes:
    for pat in _patterns_s3_s4():
        least = _least_of_orbit(pat)
        image = perms.complement(pat)
        for n in range(nmax + 1):
            run = _independent_run(n, pat, "r0", should_stop) if least and n >= len(pat) else True
            left = engine.stat_poly(n, (image,), "maj", should_stop)
            want = engine.profile(n, (pat,), should_stop).moved(n, "r0").majdes_poly
            yield (left == want.specialize_t1()
                   or f"maj complement transport fails at {perms.format_perm(pat)}, n={n}", run)


def _classify_stability(nmax: int, should_stop: Stop) -> Outcomes:
    for stat in ("inv", "maj"):
        for size in (1, 2):
            rep = engine.classify(3, size, stat, nmax, should_stop=should_stop)
            again = engine.classify(3, size, stat, nmax, should_stop=should_stop)
            yield rep == again or f"classify not deterministic ({stat}, size {size})"
            yield (rep.classes == tuple(sorted(tuple(sorted(c)) for c in rep.classes))
                   or f"classify output not canonical ({stat}, size {size})")
            yield (all(cls[0] == min(cls) for cls in rep.classes)
                   or f"class representative not minimal ({stat}, size {size})")


# ---------------------------------------------------------------------------
# oracle agreement


def _catalog_against_enumeration(nmax: int, inv_nmax: int, should_stop: Stop) -> Outcomes:
    for fid, entry in formulas.CLOSED_FORMS.items():
        bound = inv_nmax if entry.kind == "q" else nmax
        forms = [formulas.closed_form(fid, n) for n in range(bound + 1)]
        for pats in entry.pattern_sets:
            for n in range(bound + 1):
                if entry.kind == "q":
                    want = engine.stat_poly(n, pats, "inv", should_stop)
                else:
                    want = engine.maj_des_poly(n, pats, should_stop)
                yield (forms[n] == want
                       or f"{fid} disagrees with enumeration on "
                       f"{perms.format_pattern_set(pats)} at n={n}")


def _q_catalan(nmax: int, should_stop: Stop) -> Outcomes:
    for n in range(nmax + 1):
        yield (
            formulas.ct_poly(n) == engine.stat_poly(n, ((3, 1, 2),), "inv", should_stop)
            or f"reversed q-Catalan != enumeration at n={n}",
            formulas.c_poly(n) == engine.stat_poly(n, ((1, 3, 2),), "inv", should_stop)
            or f"q-Catalan != enumeration at n={n}",
        )


def _product_form_bridge(nmax: int) -> Outcomes:
    """Setting t = 1 in the distinct-parts product must give the inversion
    product form: the polynomial identity behind one of the Mahonian pairs."""
    for n in range(nmax + 1):
        left = formulas.closed_form("maj-132-213", n)
        right = formulas.closed_form("inv-132-231", n)
        yield left.specialize_t1() == right or f"product forms disagree at n={n}"


def _series_coefficients(order: int, should_stop: Stop) -> Outcomes:
    for name, b in words.BIJECTIONS.items():
        if b.words:
            sid = f"gf-{name}"
            s = formulas.series_expand(sid, order, should_stop)
            for n in range(order + 1):
                yield (s[n] == engine.maj_des_poly(n, b.patterns, should_stop)
                       or f"{sid} coefficient of x^{n} disagrees")


def _fibonacci_bridge(nmax: int) -> Outcomes:
    """At q = 1 the binomial sum sum_k C(n-k, k) q^k is the Fibonacci number."""
    for n in range(nmax + 1):
        got = formulas.closed_form("inv-231-312-321", n).eval_at_q1()
        yield (got == formulas.fibonacci(n) == sum(math.comb(n - k, k) for k in range(n + 1))
               or f"q=1 of the binomial sum misses F_{n}")


# ---------------------------------------------------------------------------
# word-level identities


def _words_up_to(length: int):
    for n in range(length + 1):
        yield from itertools.product((0, 1), repeat=n)


def _foata_properties(max_len: int) -> Outcomes:
    for n in range(max_len + 1):
        # foata keeps the length, so the image's statistics are in the table
        stats = _Table(words.word_stats, itertools.product((0, 1), repeat=n))
        for v in itertools.product((0, 1), repeat=n):
            w = words.foata(v)
            sv, sw = stats[v], stats[w]
            if len(w) != len(v) or sw.inv != sv.maj:
                yield f"statistic transport fails at {words.format_word(v)}"
            elif words.durfee(w) != sv.des:
                yield f"descents vs square side fails at {words.format_word(v)}"
            else:
                yield words.foata_inverse(w) == v or f"inverse fails at {words.format_word(v)}"


def _durfee_roundtrip(max_len: int) -> Outcomes:
    for w in _words_up_to(max_len):
        lam, d, beta, rho = words.decomposition(w)
        yield (
            words.from_durfee(d, beta, rho) == w
            or f"decomposition round trip fails at {words.format_word(w)}",
            sum(lam) == words.word_stats(w).inv
            or f"diagram size != inversions at {words.format_word(w)}",
        )


def _image_characterizations(max_len: int, should_stop: Stop) -> Outcomes:
    # the word set each word bijection lands on, and its claimed image
    claims = [(name, b.words, b.foata) for name, b in words.BIJECTIONS.items() if b.foata]
    images: list[dict[int, set]] = [{} for _ in claims]
    for v in _polled(_words_up_to(max_len), should_stop):
        rearranged = None  # foata(v), computed once, when v is in some word set
        for (_, member, _), by_len in zip(claims, images):
            if member(v):
                if rearranged is None:
                    rearranged = words.foata(v)
                by_len.setdefault(len(v), set()).add(rearranged)
    for n in range(max_len + 1):
        all_n = set(itertools.product((0, 1), repeat=n))
        for (name, _, image), by_len in zip(claims, images):
            yield (by_len.get(n, set()) == {w for w in all_n if image(w)}
                   or f"run rearrangement of the {name} words misses its image at length {n}")


def _word_transport(nmax: int, should_stop: Stop) -> Outcomes:
    """Summing q^maj t^des over each word set must reproduce the avoidance
    polynomial carried over by the descent-preserving bijections."""
    for n in range(nmax + 1):
        for name, b in words.BIJECTIONS.items():
            if b.words:
                acc: dict[tuple[int, int], int] = {}
                for v in itertools.product((0, 1), repeat=n):
                    if b.words(v):
                        s = words.word_stats(v)
                        acc[(s.maj, s.des)] = acc.get((s.maj, s.des), 0) + 1
                yield (QTPoly.from_counts(acc) == engine.maj_des_poly(n, b.patterns, should_stop)
                       or f"word sum != avoidance polynomial ({name}, n={n})")


def _image_set(b: words.Bijection, n: int, should_stop: Stop) -> list:
    """What b maps Av_n(b.patterns) onto, sorted."""
    if b.words:
        return [w for w in itertools.product((0, 1), repeat=n) if b.words(w)]
    if b.onto:
        return list(engine.enumerate_avoiders(n, b.onto, should_stop))
    return sorted(lam for size in range(max(n, 1))
                  for lam in itertools.combinations(range(n - 1, 0, -1), size))


def _bijection_suite(nmax: int, partition_nmax: int, should_stop: Stop) -> Outcomes:
    for name, b in words.BIJECTIONS.items():
        for n in range((partition_nmax if b.needs_n else nmax) + 1):
            avoiders = list(engine.enumerate_avoiders(n, b.patterns, should_stop))
            images = [b.map(p) for p in _polled(avoiders, should_stop)]
            if sorted(images) != _image_set(b, n, should_stop):
                yield f"{name} is not onto its image at n={n}"
            elif not all(map(b.carries, avoiders, images)):
                yield f"{name} does not keep its statistics at n={n}"
            else:
                yield (all(b.back(image, n) == p
                           for p, image in _polled(zip(avoiders, images), should_stop))
                       or f"{name} inverse fails at n={n}")


# ---------------------------------------------------------------------------
# conjecture re-verification


def _inv_symmetry_orbit(p: perms.Perm) -> tuple[perms.Perm, ...]:
    return tuple(q for q, in perms.orbit((p,), perms.INV_PRESERVING))


def _trivial_inv_wilf(n_max: int, k: int, should_stop: Stop) -> Outcomes:
    # the singleton inv classes of S_k should be the orbits of the inv-preserving symmetries
    report = engine.classify(k, 1, "inv", n_max, should_stop=should_stop)
    for cls in report.classes:
        members = tuple(sorted(s[0] for s in cls))
        # orbits[0] is the orbit of members[0], the least member
        orbits = sorted({_inv_symmetry_orbit(p) for p in members})
        if members == orbits[0]:
            yield True
            continue
        names = [perms.format_perm(p) for p in members]
        orbit_names = [[perms.format_perm(p) for p in o] for o in orbits]
        if len(members) == sum(map(len, orbits)):
            # symmetry keeps orbits whole, so several orbits in one class
            # only means the bound is too small to tell them apart
            yield (f"class {names} joins orbits {', '.join(map(str, orbit_names))}: "
                   f"not separated up to n_max={n_max}")
        else:
            yield f"class {names} != orbit {orbit_names[0]}"


def _maj_polys_agree(n_max: int, left: perms.Perm, right: perms.Perm, note: str,
                     should_stop: Stop) -> Outcomes:
    for n in range(n_max + 1):
        yield (engine.stat_poly(n, (left,), "maj", should_stop)
               == engine.stat_poly(n, (right,), "maj", should_stop)
               or f"maj polynomials differ at n={n} for "
               f"{perms.format_perm(left)} vs {perms.format_perm(right)}{note}")


def _inflation_maj(n_max: int, max_total: int, should_stop: Stop) -> Outcomes:
    for total in range(1, max_total + 1):
        for m in range(total):
            k = total - 1 - m
            comps = (perms.increasing(m), (1,), perms.decreasing(k))
            yield from _maj_polys_agree(
                n_max, perms.inflate((1, 3, 2), comps), perms.inflate((2, 3, 1), comps),
                f" (m={m}, k={k})", should_stop)


def _sporadic_maj(n_max: int, should_stop: Stop) -> Outcomes:
    for base, *others in (((1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3)),
                          ((3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2))):
        for other in others:
            yield from _maj_polys_agree(n_max, base, other, "", should_stop)


def _i321_recursion(n_max: int, should_stop: Stop) -> Outcomes:
    for n in range(n_max + 1):
        yield (formulas.i321_conjectured(n) == engine.stat_poly(n, ((3, 2, 1),), "inv", should_stop)
               or f"recursion disagrees with brute force at n={n}")


def _maj_parity(lengths: tuple[int, ...], should_stop: Stop) -> Outcomes:
    for n in lengths:
        prof = formulas.parity_profile(engine.stat_poly(n, ((3, 2, 1),), "maj", should_stop))
        yield prof.holds or f"maj parity fails at n={n}: odd exponents {prof.odd_exponents}"


# ---------------------------------------------------------------------------
# suites


Check = tuple[str, Callable[..., CheckResult]]


def _check(name: str, outcomes: Callable[[int, Stop], Outcomes]) -> Check:
    """A PAPER_CHECKS or CONJECTURE_CHECKS row: fn(nmax, should_stop=None) runs outcomes(nmax,
    should_stop), which hands should_stop on to the engine, so that a long case stops inside it."""
    return name, lambda n, should_stop=None: _run(name, outcomes(n, should_stop), should_stop)


PAPER_CHECKS: tuple[Check, ...] = (
    _check("inv-under-symmetries", lambda n, _: _inv_symmetry(min(n, 7))),
    _check("maj-under-complement", lambda n, _: _maj_complement(min(n, 7))),
    _check("containment-under-symmetries", lambda n, _: _containment_transport(min(n, 6))),
    _check("symmetry-group-law", lambda n, _: _symmetry_group_law(min(n, 5))),
    _check("inflation-laws", lambda n, _: _inflation_laws(random.Random(20120405))),
    _check("polynomial-ring-axioms", lambda n, _: _ring_axioms(random.Random(97))),
    _check("coefficient-reversal-involution",
           lambda n, _: _coefficient_reversal(random.Random(11))),
    _check("series-inverse-roundtrip", lambda n, _: _series_inverse(random.Random(13))),
    _check("counts-from-polynomials", lambda n, stop: _counts_from_polynomials(min(n, 9), stop)),
    _check("inv-polynomial-transport", lambda n, stop: _inv_poly_transport(min(n, 8), stop)),
    _check("maj-polynomial-complement", lambda n, stop: _maj_poly_complement(min(n, 8), stop)),
    _check("classify-canonical-form", lambda n, stop: _classify_stability(max(3, min(n, 8)), stop)),
    _check("closed-forms-vs-enumeration", lambda n, stop: _catalog_against_enumeration(
        min(n, 9), min(n + 3, 12), stop)),
    _check("q-catalan-recursions", lambda n, stop: _q_catalan(min(n + 4, 12), stop)),
    _check("product-form-bridge", lambda n, _: _product_form_bridge(min(n + 4, 12))),
    _check("series-vs-enumeration", lambda n, stop: _series_coefficients(min(n + 2, 10), stop)),
    _check("fibonacci-bridge", lambda n, _: _fibonacci_bridge(min(n + 4, 12))),
    _check("run-rearrangement-bijection", lambda n, _: _foata_properties(min(n + 4, 12))),
    _check("durfee-roundtrip", lambda n, _: _durfee_roundtrip(min(n + 4, 12))),
    _check("image-characterizations",
           lambda n, stop: _image_characterizations(min(n + 4, 12), stop)),
    _check("word-generating-functions", lambda n, stop: _word_transport(min(n + 2, 10), stop)),
    _check("bijection-suite", lambda n, stop: _bijection_suite(min(n, 8), min(n + 1, 9), stop)),
)

CONJECTURE_CHECKS: tuple[Check, ...] = (
    # classify needs a bound of at least the pattern length
    _check("trivial-inv-wilf", lambda n, stop: _trivial_inv_wilf(max(n, 4), 4, stop)),
    _check("inflation-maj", lambda n, stop: _inflation_maj(n, 6, stop)),
    _check("sporadic-maj", _sporadic_maj),
    _check("i321-recursion", _i321_recursion),
    # the parity is claimed at lengths n = 2^k - 1 only, so n is not read
    _check("maj-parity", lambda n, stop: _maj_parity((1, 3, 7), stop)),
)
CONJECTURE_NAMES = tuple(name for name, _ in CONJECTURE_CHECKS)


def conjecture_suite(name: str, n_max: int = 8, should_stop: Stop = None) -> CheckResult:
    """Re-verify one conjecture empirically inside n_max and the bounds of its
    CONJECTURE_CHECKS row.  Failures are reported verbatim as data, never raised."""
    checks = dict(CONJECTURE_CHECKS)
    if name not in checks:
        raise ValueError(f"unknown conjecture {name!r}; expected one of {CONJECTURE_NAMES}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return checks[name](n_max, should_stop)


Call = Callable[[], CheckResult]
#: signal.SIGKILL on Linux, the one system where suites fork; `signal` itself
#: is not loaded by a bare interpreter, and the CLI's start-up would pay for it
_SIGKILL = 9


def _workers(checks: int) -> int:
    """How many workers _run_suite forks for a suite of `checks` checks: one
    fewer than min(usable CPUs, checks) on Linux with os.fork, in a process of
    one thread (forking one with more is unsafe); 0 elsewhere."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 0
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 0
    return min(len(os.sched_getaffinity(0)), checks) - 1 if threads == 1 else 0


def _claims(fd: int) -> Iterator[int]:
    """The check indices read one byte at a time from the pipe fd until it is
    empty; each byte goes to exactly one of the processes that read the pipe."""
    return (byte[0] for byte in iter(functools.partial(os.read, fd, 1), b""))


def _fork_worker(calls: Sequence[Call], claims: int) -> tuple[int, BinaryIO]:
    """(pid, read end of its report pipe) of a forked worker that runs each
    check it claims from claims and reports (index, fields of its CheckResult),
    marshalled, until no check is left or one raises.  Whatever happens the
    worker leaves by os._exit, so it flushes no buffer it inherited, runs no
    exit handler and never returns into its parent's code."""
    reports, out = os.pipe()
    parent = os.getpid()
    pid = None
    try:
        pid = os.fork()
        if pid == 0:
            os.close(reports)  # so that a report to a parent that is gone fails
            with open(out, "wb", closefd=False) as pipe:
                for i in _claims(claims):
                    marshal.dump((i, tuple(calls[i]())), pipe)
                    pipe.flush()
    finally:
        if os.getpid() != parent:
            os._exit(0)
        os.close(out)
        if pid is None:  # the fork failed
            os.close(reports)
    return pid, open(reports, "rb")


def _reports(pipe: BinaryIO) -> Iterator[tuple[int, CheckResult]]:
    """The (index, result) pairs on a worker's report pipe, read until the
    worker has left; a report it was cut off in is dropped."""
    while True:
        try:
            i, fields = marshal.load(pipe)
        except EOFError:
            return
        yield i, CheckResult(*fields)


def _run_suite(calls: Sequence[Call]) -> list[CheckResult]:
    """[call() for call in calls], with the checks shared between this process
    and the workers _workers allows (at most 256 checks).  Each process claims
    the next unrun check from one pipe of indices, so with no worker this
    process claims them all, in order.  It then runs itself every check that
    no worker reported, because its worker died or the check raised, in
    order, so it raises what an in-order run raises.  Every worker is killed
    and reaped before this returns or raises."""
    results: dict[int, CheckResult] = {}
    raised: dict[int, Exception] = {}
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(calls))))
    os.close(feed)
    forked: dict[int, BinaryIO] = {}
    try:
        for _ in range(_workers(len(calls))):
            try:
                pid, reports = _fork_worker(calls, claims)
            except OSError:  # no process to spare: this one runs more checks
                break
            forked[pid] = reports
        for i in _claims(claims):
            try:
                results[i] = calls[i]()
            except Exception as exc:  # raised below, in its place in order
                raised[i] = exc
                break
        for pid, reports in forked.items():
            if raised:
                os.kill(pid, _SIGKILL)
            results.update(_reports(reports))
    finally:
        os.close(claims)
        for pid, reports in forked.items():
            os.kill(pid, _SIGKILL)  # one that has left stays, unreaped, until waitpid
            os.waitpid(pid, 0)
            reports.close()
    for i, call in enumerate(calls):
        if i in raised:
            raise raised[i]
        if i not in results:
            results[i] = call()
    return [results[i] for i in range(len(calls))]


def _run_checks(checks: Sequence[Check], nmax: int, should_stop: Stop) -> list[CheckResult]:
    """Every check of checks at nmax, through _run_suite; a negative nmax is refused first."""
    if nmax < 0:
        raise ValueError("n_max must be nonnegative")
    return _run_suite([functools.partial(fn, nmax, should_stop) for _, fn in checks])


def run_paper_suite(nmax: int = 8, should_stop: Stop = None) -> list[CheckResult]:
    """Every paper check, in PAPER_CHECKS order, perhaps in forked workers;
    should_stop is polled before each case in the process that runs it, so it
    must answer alike in every process, as a clock deadline does and a counter
    or a flag set in this process only does not."""
    return _run_checks(PAPER_CHECKS, nmax, should_stop)


def run_conjecture_suite(nmax: int = 8, should_stop: Stop = None) -> list[CheckResult]:
    """Every conjecture check at min(nmax, 8), in CONJECTURE_CHECKS order,
    perhaps in forked workers; should_stop is polled as run_paper_suite says."""
    return _run_checks(CONJECTURE_CHECKS, min(nmax, 8), should_stop)
