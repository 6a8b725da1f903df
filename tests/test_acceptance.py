"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the PASS
lines).
"""

import itertools

from patstat import engine, formulas, perms, verify, words
from patstat.engine import AvoidanceQuery

P = perms.parse_perm


def _pset(text: str) -> tuple:
    return tuple(sorted(P(part) for part in text.split(",")))


def _classes(*class_texts: str) -> set:
    """Each argument is one class written as 'set; set; ...'."""
    return {
        tuple(sorted(_pset(s.strip()) for s in text.split(";")))
        for text in class_texts
    }


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_catalan_baseline():
    assert formulas.catalan(10) == 16796
    for pat in perms.all_perms(3):
        for n in range(21):
            assert engine.count_avoiders(n, (pat,)) == formulas.catalan(n), (pat, n)
    _report(1, "every single length-3 pattern counts Catalan up to n=20")


def test_criterion_02_carlitz_riordan():
    for n in range(21):
        ct = formulas.ct_poly(n)
        assert formulas.i312_recursive(n) == ct, n
        assert ct == engine.stat_poly(n, (P("312"),), "inv"), n
        assert formulas.c_poly(n) == engine.stat_poly(n, (P("132"),), "inv"), n
    _report(2, "both q-Catalan recursions match the engine up to n=20")


def test_criterion_03_321_recursion():
    for n in range(21):
        assert formulas.i321_conjectured(n) == engine.stat_poly(n, (P("321"),), "inv"), n
    _report(3, "the 321 inversion recursion matches the engine up to n=20")


def test_criterion_04_bivariate_312_recursion():
    for n in range(21):
        assert formulas.m312_recursive(n) == engine.maj_des_poly(n, (P("312"),)), n
    _report(4, "the bivariate 312 recursion matches the engine up to n=20")


def test_criterion_05_parity():
    for n in (1, 3, 7, 15, 31):
        prof = formulas.parity_profile(engine.stat_poly(n, (P("321"),), "inv"))
        assert prof.holds, (n, prof)
        maj_prof = formulas.parity_profile(engine.stat_poly(n, (P("321"),), "maj"))
        assert maj_prof.holds, (n, maj_prof)
    _report(5, "inv and maj parity profiles hold at n = 1, 3, 7, 15, 31")


def test_criterion_05_parity_length_15():
    poly = engine.stat_poly(15, (P("321"),), "inv")
    assert poly.eval_at_q1() == formulas.catalan(15) == 9694845
    assert formulas.parity_profile(poly).holds
    _report(5, "inv parity profile holds at n = 15 (9694845 permutations)")


# the equivalence classes each closed form covers, straight from the
# classification theorems (bivariate product forms list the sets proved
# by an explicit descent-preserving construction)
EXPECTED_CATALOG_CLASSES = {
    "inv-231-321": _classes("231,321; 312,321"),
    "inv-132-231": _classes("132,231; 132,312; 213,231; 213,312"),
    "inv-132-321": _classes("132,321; 213,321"),
    "inv-132-213": _classes("132,213"),
    "maj-132-213": _classes("132,213; 132,312; 213,231"),
    "maj-132-231": _classes("132,231"),
    "maj-132-321": _classes("132,321"),
    "maj-213-321": _classes("213,321"),
    "inv-132-213-321": _classes("132,213,321"),
    "inv-132-231-312": _classes("132,231,312; 213,231,312"),
    "inv-132-231-321": _classes("132,231,321; 132,312,321; 213,231,321; 213,312,321"),
    "inv-231-312-321": _classes("231,312,321"),
    "maj-triple-A": _classes("132,213,321; 132,312,321; 213,231,321"),
    "maj-triple-B": _classes("132,213,231; 132,231,312"),
    "maj-213-312-321": _classes("213,312,321"),
    "maj-132-231-321": _classes("132,231,321"),
}


def test_criterion_06_closed_forms():
    assert len(formulas.CLOSED_FORMS) == 16
    for fid, entry in formulas.CLOSED_FORMS.items():
        assert {entry.pattern_sets} == EXPECTED_CATALOG_CLASSES[fid], fid
        bound = 12 if entry.kind == "q" else 9
        for pats in entry.pattern_sets:
            for n in range(bound + 1):
                got = formulas.closed_form(fid, n)
                if entry.kind == "q":
                    assert got == engine.stat_poly(n, pats, "inv"), (fid, pats, n)
                else:
                    assert got == engine.maj_des_poly(n, pats), (fid, pats, n)
    # the fourth member of the univariate class behind maj-132-213 agrees
    # once t is set to 1 (it differs bivariately, being a complement image)
    for n in range(10):
        assert formulas.closed_form("maj-132-213", n).specialize_t1() == \
            engine.stat_poly(n, _pset("231,312"), "maj"), n
    _report(6, "all sixteen closed forms match enumeration across their classes")


EXPECTED_NONTRIVIAL = {
    ("inv", 1): _classes("132; 213", "231; 312"),
    ("maj", 1): _classes("132; 231", "213; 312"),
    ("inv", 2): _classes(
        "123,132; 123,213",
        "231,321; 312,321",
        "123,231; 123,312",
        "132,321; 213,321",
        "132,231; 132,312; 213,231; 213,312",
    ),
    ("maj", 2): _classes("132,213; 132,312; 213,231; 231,312"),
    ("inv", 3): _classes(
        "123,132,231; 123,132,312; 123,213,231; 123,213,312",
        "132,231,321; 132,312,321; 213,231,321; 213,312,321",
        "132,213,231; 132,213,312",
        "132,231,312; 213,231,312",
        # the two pairs above {123,321} forced by inv-preserving symmetries
        "123,132,321; 123,213,321",
        "123,231,321; 123,312,321",
    ),
    ("maj", 3): _classes(
        "123,132,312; 123,213,231; 123,231,312",
        "132,213,321; 132,312,321; 213,231,321",
        "132,213,231; 132,231,312",
        "132,213,312; 213,231,312",
    ),
    ("inv", 4): None,  # orbit check below
    ("maj", 4): _classes(
        "123,132,213,231; 123,132,231,312",
        "123,132,213,312; 123,213,231,312",
        "123,132,312,321; 123,213,231,321",
        "132,213,231,321; 132,231,312,321",
        "132,213,312,321; 213,231,312,321",
    ),
    ("inv", 5): None,
    ("maj", 5): _classes(
        "123,132,213,231,321; 123,132,231,312,321",
        "123,132,213,312,321; 123,213,231,312,321",
    ),
    ("inv", 6): None,
    ("maj", 6): set(),
}


def _orbit_partition(ground_length: int, size: int) -> set:
    """Partition of subsets into orbits under the inv-preserving symmetries."""
    ground = sorted(perms.all_perms(ground_length))
    seen = set()
    orbits = set()
    for subset in itertools.combinations(ground, size):
        if subset in seen:
            continue
        orbit = {
            tuple(sorted(perms.apply_symmetry(f, p) for p in subset))
            for f in perms.INV_PRESERVING
        }
        seen |= orbit
        orbits.add(tuple(sorted(orbit)))
    return orbits


def test_criterion_07_classification():
    for size in range(1, 7):
        inv_report = engine.classify(3, size, "inv", 8)
        maj_report = engine.classify(3, size, "maj", 8)
        # every inversion equivalence, including those among supersets of
        # {123, 321}, is forced by an inv-preserving symmetry
        assert set(inv_report.classes) == _orbit_partition(3, size), ("inv", size)
        expected = EXPECTED_NONTRIVIAL[("inv", size)]
        if expected is not None:
            assert set(inv_report.nontrivial_classes()) == expected, ("inv", size)
        assert set(maj_report.nontrivial_classes()) == EXPECTED_NONTRIVIAL[("maj", size)], (
            "maj",
            size,
        )
    _report(7, "classification reproduces every published class list at n_max=8")


def test_criterion_08_run_rearrangement():
    seen_by_length = [set() for _ in range(13)]
    for n in range(13):
        for v in itertools.product((0, 1), repeat=n):
            image = words.foata(v)
            stats = words.word_stats(v)
            assert len(image) == n
            assert words.word_stats(image).inv == stats.maj
            assert words.durfee(image) == stats.des
            assert words.foata_inverse(image) == v
            seen_by_length[n].add(image)
        assert len(seen_by_length[n]) == 2**n
    _report(8, "the run rearrangement transports maj to inv bijectively, |v| <= 12")


def test_criterion_09_series():
    targets = {
        "gf-231-321": _pset("231,321"),
        "gf-312-321": _pset("312,321"),
        "gf-231-312-321": _pset("231,312,321"),
    }
    for sid, pats in targets.items():
        s = formulas.series_expand(sid, 10)
        for n in range(11):
            assert s[n] == engine.maj_des_poly(n, pats), (sid, n)
    fib_series = formulas.series_expand("gf-231-312-321", 10)
    for n in range(11):
        assert fib_series[n].eval_at(1, 1) == formulas.fibonacci(n), n
    _report(9, "all three series match enumeration to order 10")


MAHONIAN_BOXES = (
    (("132,213", "132,312", "213,231", "231,312"),
     ("132,231", "132,312", "213,231", "213,312")),
    (("132,213,231", "132,231,312"),
     ("132,231,312", "213,231,312")),
    (("132,213,312", "213,231,312"),
     ("132,213,231", "132,213,312")),
    (("123,132,312", "123,213,231", "123,231,312"),
     ("123,132,231", "123,132,312", "123,213,231", "123,213,312")),
    (("132,213,321", "132,312,321", "213,231,321"),
     ("132,231,321", "132,312,321", "213,231,321", "213,312,321")),
)


def test_criterion_10_mahonian_pairs():
    pairs = 0
    for maj_row, inv_row in MAHONIAN_BOXES:
        for maj_text in maj_row:
            for inv_text in inv_row:
                for n in range(10):
                    assert engine.mahonian_pair_check(
                        AvoidanceQuery(n, _pset(maj_text)),
                        AvoidanceQuery(n, _pset(inv_text)),
                    ), (maj_text, inv_text, n)
                pairs += 1
    for n in range(7):
        assert engine.mahonian_pair_check(AvoidanceQuery(n, ()), AvoidanceQuery(n, ()))
    assert not engine.mahonian_pair_check(
        AvoidanceQuery(3, (P("123"),)), AvoidanceQuery(3, (P("321"),))
    )
    _report(10, f"{pairs} table pairings hold up to n=9 and the control fails")


def test_criterion_11_bijection_suite():
    word_cases = (
        ("231,321", words.to_word_231_321, words.from_word_231_321,
         words.in_start_one_set),
        ("312,321", words.to_word_312_321, words.from_word_312_321,
         words.in_end_zero_set),
        ("231,312,321", words.to_word_231_312_321, words.from_word_231_312_321,
         words.in_sparse_set),
    )
    for n in range(9):
        for text, fwd, back, member in word_cases:
            avoiders = list(engine.enumerate_avoiders(n, _pset(text)))
            images = [fwd(p) for p in avoiders]
            target = sorted(
                w for w in itertools.product((0, 1), repeat=n) if member(w)
            )
            assert sorted(images) == target, (text, n)
            for p, w in zip(avoiders, images):
                assert words.word_stats(w).descents == perms.descent_set(p)
                assert back(w) == p
        av132 = list(engine.enumerate_avoiders(n, (P("132"),)))
        images = [words.map_132_to_231(p) for p in av132]
        assert sorted(images) == list(engine.enumerate_avoiders(n, (P("231"),)))
        for p, t in zip(av132, images):
            assert perms.descent_set(p) == perms.descent_set(t)
            assert words.map_231_to_132(t) == p
    for n in range(10):
        ground = range(n - 1, 0, -1)
        partitions = sorted(
            lam
            for size in range(len(ground) + 1)
            for lam in itertools.combinations(ground, size)
        )
        avoiders = list(engine.enumerate_avoiders(n, _pset("132,213")))
        images = [words.descent_partition_132_213(p) for p in avoiders]
        assert sorted(images) == partitions
        for p, lam in zip(avoiders, images):
            assert sum(lam) == perms.maj(p) and len(lam) == perms.des(p)
            assert words.from_descent_partition_132_213(lam, n) == p
        avoiders = list(engine.enumerate_avoiders(n, _pset("132,231")))
        images = [words.prefix_partition_132_231(p) for p in avoiders]
        assert sorted(images) == partitions
        for p, lam in zip(avoiders, images):
            assert sum(lam) == perms.inv(p)
            assert words.from_prefix_partition_132_231(lam, n) == p
    _report(11, "all five bijections verified with their statistic transport")


def test_criterion_12_conjectures():
    trivial = verify.conjecture_suite("trivial-inv-wilf", n_max=8)
    assert trivial.passed, trivial.failures
    inflation = verify.conjecture_suite("inflation-maj", n_max=8)
    assert inflation.passed, inflation.failures
    sporadic = verify.conjecture_suite("sporadic-maj", n_max=8)
    assert sporadic.passed, sporadic.failures
    _report(12, "all conjecture re-verifications pass at their stated bounds")
