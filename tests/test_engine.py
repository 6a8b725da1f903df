import functools
import hashlib
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_avoiders, brute_profile, grown_avoiders, raw_scan, scan,
                      scan_avoiders, tally)
from patstat import engine, perms, verify
from patstat.engine import AvoidanceQuery, SearchCancelled
from patstat.polynomials import QPoly, QTPoly

S3 = sorted(perms.all_perms(3))
S4 = sorted(perms.all_perms(4))


def _mixed_pattern_sets(count: int = 40, seed: int = 4) -> list[tuple[tuple[int, ...], ...]]:
    """Seeded sets of 1-3 patterns of lengths 1-5, so short and long rules mix."""
    rng = random.Random(seed)
    sets = [((1, 3, 2), (1, 2, 3, 4)), ((2, 1), (3, 1, 4, 2)), ((2, 3, 1), (1, 2, 4, 5, 3))]
    while len(sets) < count:
        lengths = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        sets.append(tuple(tuple(rng.sample(range(1, k + 1), k)) for k in lengths))
    return sets


def test_enumerate_examples():
    assert list(engine.enumerate_avoiders(3, ((3, 1, 2),))) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1)
    ]
    for n in range(5, 8):
        assert list(engine.enumerate_avoiders(n, ((1, 2, 3), (3, 2, 1)))) == []
    assert engine.count_avoiders(5, ((2, 3, 1), (3, 1, 2), (3, 2, 1))) == 8
    assert list(engine.enumerate_avoiders(0, ((1, 2, 3),))) == [()]


def test_enumerate_matches_brute_filter():
    pattern_sets = [
        (),
        ((1, 2),),
        ((2, 1),),
        ((1,),),
        ((),),
        ((2, 1, 4, 3),),
        ((1, 4, 2, 3), (2, 1, 3)),
        ((1, 2, 3, 4, 5),),
        ((1, 2), (2, 1)),
    ]
    pattern_sets += _mixed_pattern_sets()
    for pats in pattern_sets:
        for n in range(7):
            assert list(engine.enumerate_avoiders(n, pats)) == brute_avoiders(n, pats), (
                pats,
                n,
            )
    # every S3 set and {S3, S4} pair from one scan of S_n per length: at
    # n = 7 the walk leaves out the dead children of states with 5 and 6
    # values free, and most multi-pattern sets have some; S4 singletons and
    # pairs are in test_copy_tables_do_not_depend_on_query_order
    sets = [s for r in (1, 2, 3) for s in itertools.combinations(S3, r)]
    sets += itertools.product(S3, S4)
    for n in range(8):
        for pats in sets:
            assert list(engine.enumerate_avoiders(n, pats)) == scan_avoiders(n, pats), (pats, n)


def _query(n, pats):
    """Enumeration and profile of one set, past the profile cache."""
    prof = engine._dp_profile(n, pats, None)
    return list(engine.enumerate_avoiders(n, pats)), prof.inv_poly, prof.majdes_poly


def test_copy_tables_do_not_depend_on_query_order():
    # the pattern tables outlive a query, so a set must get the same answer
    # whether its tables start empty or were filled by other sets first
    pattern_sets = [(p,) for p in S4] + list(itertools.combinations(S4, 2))
    want = {(n, pats): brute_profile(n, pats) for n in range(8) for pats in pattern_sets}
    keys = list(want)
    for key in keys:
        engine._copy_tables.cache_clear()
        assert _query(*key) == want[key], key
    random.Random(10).shuffle(keys)
    for key in keys:
        assert _query(*key) == want[key], key


def test_scan_from_deletions_equals_the_raw_scan():
    assert scan(6) == raw_scan(6)


def test_s4_profiles_match_the_scan_at_8():
    for pats in [(p,) for p in S4] + list(itertools.combinations(S4, 2)):
        prof = engine.profile(8, pats)
        avoiders, inv, majdes = brute_profile(8, pats)
        assert (prof.count, prof.inv_poly, prof.majdes_poly) == (len(avoiders), inv, majdes), pats


def test_nearest_entries_decide_whether_a_copy_extends():
    # _step_copies extends a copy t of pat[:j] (t[i] the cut of the entry
    # matched to pat[i]) by the free value of rank r iff every entry below
    # pat[j] has cut <= r and every entry above has cut > r.  Cuts grow with
    # the values they stand for, so the nearest entry on each side, as named
    # by perms._match_plan, decides that with two comparisons.
    def every_entry(pat, t, r):
        j = len(t)
        return (all(t[i] <= r for i in range(j) if pat[i] < pat[j])
                and all(t[i] > r for i in range(j) if pat[i] > pat[j]))

    def nearest(pat, t, r):
        lo, hi = perms._match_plan(pat)[len(t)]
        return (lo < 0 or t[lo] <= r) and (hi < 0 or t[hi] > r)

    rng = random.Random(14)
    seen = Counter()
    for k in range(3, 7):
        for pat in perms.all_perms(k):
            for _ in range(12):
                j = rng.randrange(1, k)
                m = rng.randrange(1, 2 * k)
                cuts = sorted(rng.randrange(m + 1) for _ in range(j))
                t = [0] * j
                for c, i in zip(cuts, sorted(range(j), key=pat.__getitem__)):
                    t[i] = c
                r = rng.randrange(m)
                want = every_entry(pat, t, r)
                assert nearest(pat, t, r) == want, (pat, t, r)
                seen[want] += 1
                # cuts that do not grow with the values break the shortcut
                shuffled = rng.sample(t, j)
                seen["differs"] += nearest(pat, shuffled, r) != every_entry(pat, shuffled, r)
    assert seen[True] and seen[False] and seen["differs"]


@functools.cache
def _gaps(pat):
    """order[j], the indices of pat[:j] by increasing value, and need[j][g],
    the entries of pat[j:] in gap g of pat[:j] (gap 0 below its least value)."""
    order = [tuple(sorted(range(j), key=pat.__getitem__)) for j in range(len(pat))]
    need = [tuple(sum(sum(pat[i] < x for i in order[j]) == g for x in pat[j:])
                  for g in range(j + 1)) for j in range(len(pat))]
    return order, need


def _fits(cuts, order, need, m):
    """Whether m free values leave room for the rest of a pattern copy: every
    gap between the copy's values must hold as many free values as the
    pattern still has entries to put there."""
    low = 0
    for i, want in zip(order, need):
        c = cuts[i]
        if c - low < want:
            return False
        low = c
    return m - low >= need[-1]


def _step_copies(pat, copies, r, m):
    """The copies of prefixes of pat after placing the free value of rank r,
    or None if a free value then completes a copy of pat: one entry of a
    row of engine._moves_row, computed by moving and fitting every copy."""
    k, plan, (order, need) = len(pat), perms._match_plan(pat), _gaps(pat)
    m1 = m - 1
    out = set()
    for t in copies:
        j = len(t)
        moved = tuple(c - 1 if c > r else c for c in t)
        if _fits(moved, order[j], need[j], m1):
            out.add(moved)
        lo, hi = plan[j]
        if (lo < 0 or t[lo] <= r) and (hi < 0 or t[hi] > r):
            longer = moved + (r,)
            if _fits(longer, order[j + 1], need[j + 1], m1):
                if j + 1 == k - 1:
                    return None
                out.add(longer)
    if _fits((r,), order[1], need[1], m1):
        out.add((r,))
    if pat[0] in (1, k):
        # a one-entry copy of a pattern that starts with its minimum (maximum)
        # completes whenever one with a larger (smaller) value does
        singles = [t for t in out if len(t) == 1]
        if len(singles) > 1:
            out.difference_update(singles)
            out.add(min(singles) if pat[0] == 1 else max(singles))
    return frozenset(out)


def test_move_rows_match_the_per_rank_step(monkeypatch):
    # _moves_row builds a row one gap of each copy at a time, which is
    # exact only if every copy of a held set fits its m free values (and,
    # for a pattern that starts with its extreme, at most one copy has one
    # entry).  The rows of a set of patterns are rows of its singletons: the
    # S4 singletons to n = 10 reach all 13,810 rows that the S4 pairs and
    # {S3, S4} pairs reach to n = 9, and the longer patterns 669 more
    monkeypatch.setattr(engine, "_COPY_ROWS_MAX", 10 ** 9)
    engine._copy_tables.cache_clear()
    longer = [(2, 4, 1, 5, 3), (1, 3, 5, 2, 4), (3, 1, 5, 2, 4), (1, 2, 3, 4, 5),
              (5, 4, 3, 2, 1), (2, 3, 1, 6, 4, 5)]
    jobs = [(p, n) for p in S4 for n in range(11)] + [(p, n) for p in longer for n in range(9)]
    for p, n in jobs:
        engine._dp_profile(n, (p,), None)
    rows = 0
    for p in S4 + longer:
        order, need = _gaps(p)
        for (held, m), row in engine._copy_tables(p).moves.items():
            assert all(_fits(t, order[len(t)], need[len(t)], m) for t in held), (p, held, m)
            assert p[0] not in (1, len(p)) or sum(len(t) == 1 for t in held) <= 1, (p, held)
            assert list(row) == [_step_copies(p, held, r, m) for r in range(m)], (p, held, m)
            rows += 1
    assert rows == 13810 + 669
    engine._copy_tables.cache_clear()


def test_cancelled_profile_keeps_only_complete_moves():
    # a row of moves is stored whole, so a cancelled run leaves only rows
    # with one move per rank, each the move the per-rank step computes
    pats = ((1, 3, 2, 4), (2, 4, 1, 3))
    for k in (1, 10, 100):
        engine._copy_tables.cache_clear()
        polls = 0

        def stop():
            nonlocal polls
            polls += 1
            return polls >= k

        with pytest.raises(SearchCancelled):
            engine._dp_profile(7, pats, stop)
        assert polls == k
        for p in pats:
            for (held, m), row in engine._copy_tables(p).moves.items():
                assert len(row) == m
                assert list(row) == [_step_copies(p, held, r, m) for r in range(m)]
        assert _query(7, pats) == brute_profile(7, pats)


def test_full_tables_are_emptied_and_refilled(monkeypatch):
    monkeypatch.setattr(engine, "_COPY_ROWS_MAX", 4)
    engine._copy_tables.cache_clear()
    for pats in [((1, 3, 2, 4),), ((1, 3, 2, 4), (2, 4, 1, 3)), ((1, 2, 3, 4), (4, 3, 2, 1))]:
        assert _query(7, pats) == brute_profile(7, pats)
        assert all(len(engine._copy_tables(p).moves) <= 4 for p in S4)
    engine._copy_tables.cache_clear()


def test_profiles_of_long_patterns_are_pinned():
    # the SHA-1 of _dp_profile while its states still held the cut of the
    # previous entry: every S4 singleton at n <= 9, every 7th S4 pair at n <= 7
    digest = hashlib.sha1()
    keys = [((p,), n) for p in S4 for n in range(10)]
    keys += [(pats, n) for pats in list(itertools.combinations(S4, 2))[::7] for n in range(8)]
    for pats, n in keys:
        prof = engine._dp_profile(n, pats, None)
        digest.update(repr((pats, n, prof.inv_poly.coeffs, prof.majdes_poly.terms)).encode())
    assert digest.hexdigest() == "3ec0e23286732af9adc5d63d6a8a882cbb0817b0"


def test_profile_computes_each_states_children_once_per_level(monkeypatch):
    # a level is keyed by (prev_cut, state); the children of a state met
    # with several prev cuts are computed once and shared by all of them
    calls = Counter()
    transitions = engine._transitions

    def counted(n, pats):
        root, children = transitions(n, pats)

        def wrapped(state, m):
            calls[m, state] += 1
            return children(state, m)
        return root, wrapped

    monkeypatch.setattr(engine, "_transitions", counted)
    engine._dp_profile(10, ((1, 3, 2, 4),), None)
    assert sum(calls.values()) == 497
    assert set(calls.values()) == {1}


def test_profiles_of_short_patterns_are_pinned():
    # the SHA-1 of _dp_profile while its states held the least and greatest
    # cuts and every inner cut: every set of patterns from S3, 12 and 21 at
    # n <= 14, every {S3, S4} pair at n <= 8
    short = S3 + [(1, 2), (2, 1)]
    sets = [s for r in range(len(short) + 1) for s in itertools.combinations(short, r)]
    keys = [(engine.canonical_patterns(pats), n) for pats in sets for n in range(15)]
    keys += [(engine.canonical_patterns([a, b]), n) for a in S3 for b in S4 for n in range(9)]
    digest = hashlib.sha1()
    for pats, n in keys:
        prof = engine._dp_profile(n, pats, None)
        digest.update(repr((pats, n, prof.inv_poly.coeffs, prof.majdes_poly.terms)).encode())
    assert digest.hexdigest() == "6e428a4732de332cf2bdc7b9ac308da7b0673aec"


def _widest_level(n, pats, monkeypatch):
    """The most keys of one level of _dp_profile(n, pats): the distinct
    (r, child) pairs that the children of one level's states return."""
    levels = {}
    transitions = engine._transitions

    def counted(n, pats):
        root, children = transitions(n, pats)

        def wrapped(state, m):
            out = children(state, m)
            levels.setdefault(m, set()).update(out)
            return out
        return root, wrapped

    monkeypatch.setattr(engine, "_transitions", counted)
    engine._dp_profile(n, pats, None)
    monkeypatch.undo()
    return max(len(keys) for keys in levels.values())


def test_short_pattern_states_keep_only_the_cuts_a_placement_tests(monkeypatch):
    # under 132, 231 can test no inner cut but lo, and under 312, 213 none
    # but hi, so {132, 231}, {213, 312}, {123, 132, 231} and {213, 312, 321}
    # hold n keys a level; 213, 231, {123, 231} and {213, 321} keep every
    # inner cut and stay wide
    wide = {"213": 1024, "231": 1024, "123,231": 1025, "213,321": 1025,
            "123": 29, "321": 29, "123,213": 29, "123,312": 29, "123,321": 30,
            "132,321": 29, "231,321": 29}
    for pats in [s for r in (1, 2, 3) for s in itertools.combinations(S3, r)]:
        name = perms.format_pattern_set(pats).replace(" ", "")
        assert _widest_level(16, pats, monkeypatch) == wide.get(name, 16), name


def test_sets_whose_states_kept_every_inner_cut_stay_under_an_rss_cap():
    # while their states kept every inner cut, these held 1,024 keys a level
    # at n = 16 and ran out of memory at n = 30; now they hold n keys a
    # level, and the process peaks at about 20 MiB
    sets = [((1, 3, 2), (2, 3, 1)), ((2, 1, 3), (3, 1, 2)),
            ((1, 2, 3), (1, 3, 2), (2, 3, 1)), ((2, 1, 3), (3, 1, 2), (3, 2, 1))]
    assert _peak_kib(f"assert [engine._dp_profile(30, p, None).count for p in {sets}]"
                     " == [2**29, 2**29, 30, 30]") < 40 * 1024


def test_enumeration_is_lexicographic_and_duplicate_free():
    for pats in [((1, 3, 2),), ((2, 1, 3), (3, 2, 1)), ()]:
        for n in range(7):
            out = list(engine.enumerate_avoiders(n, pats))
            assert out == sorted(set(out))


def test_enumeration_matches_brute_filters_across_table_depths():
    # tables have min(6, max(4, n - 3)) values free: n = 7, 8, 9 build them
    # at 4, 5 and 6, each from rank codes of the states below
    for pats in [s for r in range(7) for s in itertools.combinations(S3, r)]:
        for n in range(10):
            out = list(engine.enumerate_avoiders(n, pats))
            assert out == grown_avoiders(n, pats), (pats, n)
            assert all(a < b for a, b in zip(out, out[1:])), (pats, n)
    for pats in [(p,) for p in S4] + list(itertools.combinations(S4, 2))[::7]:
        out = list(engine.enumerate_avoiders(8, pats))
        assert out == scan_avoiders(8, pats), pats
        assert all(a < b for a, b in zip(out, out[1:])), pats


def test_enumeration_of_prev_free_states_matches_brute_filters():
    # a state holds no cut of the previous entry, so placements of distinct
    # ranks can reach one state; each must still yield its own avoiders
    def check(pats, n, want):
        out = list(engine.enumerate_avoiders(n, pats))
        assert out == want, (pats, n)
        assert all(a < b for a, b in zip(out, out[1:])), (pats, n)

    for n in range(9):
        for p in S4:
            check((p,), n, scan_avoiders(n, (p,)))
    cases = [((p,), 8) for p in sorted(perms.all_perms(5))[::10]]
    cases += [(pats, 7) for pats in list(itertools.combinations(S4, 2))[::7]]
    cases += [(pats, 7) for pats in list(itertools.product(S3, S4))[::5]]
    for pats, top in cases:
        for n in range(top + 1):
            check(pats, n, grown_avoiders(n, pats))


def test_enumeration_of_every_s3_set_is_pinned():
    # the SHA-1 of what the walk yielded before its tables were built from
    # rank codes: every S3 set at n <= 10, the empty set at n <= 9
    digest = hashlib.sha1()
    for pats in [s for r in range(7) for s in itertools.combinations(S3, r)]:
        for n in range(11 if pats else 10):
            digest.update(repr((pats, n)).encode())
            for p in engine.enumerate_avoiders(n, pats):
                digest.update(bytes(p))
    assert digest.hexdigest() == "3d4bf25847a963ea0e40ebe9d4c9d912b50fba29"


def test_table_getters_are_shared_and_bounded():
    for p in S4:
        assert sum(1 for _ in engine.enumerate_avoiders(9, [p])) > 0
    # one getter per order of k <= 6 free values at most: 1! + ... + 6!
    assert engine._getter.cache_info().currsize <= 873
    # a code is the lexicographic rank of its order
    for k in range(2, 6):
        assert ([engine._getter(k, code)(range(k)) for code in range(math.factorial(k))]
                == sorted(itertools.permutations(range(k))))


def test_profiles_are_built_and_moved_in_term_order():
    # _dp_profile reads its terms off the slots in QTPoly's order and
    # Profile.moved sorts its moved terms once; both must equal building
    # from a {(maj, des): count} dict, term for term
    for pats in [s for r in range(7) for s in itertools.combinations(S3, r)] + [(p,) for p in S4]:
        for n in range(9):
            prof = engine._dp_profile(n, pats, None)
            terms = prof.majdes_poly.terms
            assert terms == QTPoly.from_counts({(q, t): c for q, t, c in terms}).terms, (pats, n)
            assert prof.inv_poly.coeffs == QPoly(prof.inv_poly.coeffs).coeffs, (pats, n)
            for tag, rule in perms.STAT_MOVES.items():
                want = QTPoly.from_counts({rule(n, q, t): c for q, t, c in terms})
                assert prof.moved(n, tag).majdes_poly.terms == want.terms, (pats, n, tag)


def _check_profile(n, pats, avoiders):
    prof = engine.profile(n, pats)
    assert prof.count == len(avoiders), (pats, n)
    assert (prof.inv_poly, prof.majdes_poly) == tally(avoiders), (pats, n)


_PATTERN = st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1)).map(tuple))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.lists(_PATTERN, min_size=1, max_size=3).map(tuple))
# reverse-complement maps {132, 213} to itself; 2413 and 3142 start in the middle
@example(((1, 3, 2), (2, 1, 3)))
@example(((2, 4, 1, 3),))
@example(((2, 1, 3), (3, 1, 4, 2)))
@example(((2, 3, 1), (2, 4, 1, 3), (3, 1, 4, 2)))
def _drawn_sets_match_brute_force(pats):
    for n in range(7):
        _check_profile(n, pats, brute_avoiders(n, pats))


def test_profile_statistics_match_independent_implementations():
    # the empty pattern and a length-1 pattern, alone and beside others
    for pats in [((),), ((1,),), ((1,), (1, 2)), ((), (1, 2, 3))]:
        for n in range(7):
            _check_profile(n, pats, brute_avoiders(n, pats))
    _drawn_sets_match_brute_force()
    # beyond the brute filter's reach, enumeration shares the DP's rules, so
    # this checks the DP's bookkeeping: slot packing, the descent shift and,
    # for a set run in its reverse-complement orientation or served from a
    # cached mate, the moves of perms.STAT_MOVES; the empty set stops at
    # n = 7, since the statistics of S_9 would take most of the time (S4
    # singletons and pairs meet brute force at n = 8 in
    # test_s4_profiles_match_the_scan_at_8)
    pattern_sets = [s for r in range(7) for s in itertools.combinations(S3, r)]
    for pats in pattern_sets:
        for n in range(10 if pats else 8):
            _check_profile(n, pats, list(engine.enumerate_avoiders(n, pats)))


def test_count_examples():
    from patstat.formulas import catalan

    for n in range(9):
        assert engine.count_avoiders(n, ((1, 3, 2),)) == catalan(n)
        assert engine.count_avoiders(n, ((2, 1, 3), (3, 2, 1))) == 1 + math.comb(n, 2)
        assert engine.count_avoiders(0, (S3[0],)) == 1
    assert engine.count_avoiders(0, ()) == 1


def test_stat_poly_examples():
    assert str(engine.stat_poly(3, ((3, 1, 2),), "inv")) == "1 + 2*q + q^2 + q^3"
    assert engine.maj_des_poly(3, ((2, 1, 3), (3, 2, 1))) == QTPoly(
        ((0, 0, 1), (1, 1, 1), (2, 1, 2))
    )
    assert engine.stat_poly(0, ((1, 3, 2),), "inv") == QPoly.one()
    with pytest.raises(ValueError):
        engine.stat_poly(3, (), "exc")


def test_stat_poly_checks_the_statistic_before_the_search():
    pats = ((1, 3, 2, 4),)
    engine._profile_cache.pop((9, pats), None)
    with pytest.raises(ValueError, match="unknown statistic 'des'"):
        engine.stat_poly(9, pats, "des")
    assert (9, pats) not in engine._profile_cache


def test_stat_multiset():
    pats = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1))
    assert engine.stat_multiset(pats, "inv") == (0, 1, 1, 2, 3)
    assert engine.stat_multiset(pats, "maj") == (0, 1, 2, 2, 3)
    assert engine.stat_multiset((), "inv") == ()
    with pytest.raises(ValueError, match="unknown statistic 'foo'"):
        engine.stat_multiset([(1, 2)], "foo")


def test_patterns_canonicalized():
    # duplicates and order do not matter anywhere in the engine
    a = engine.stat_poly(6, ((1, 3, 2), (2, 1, 3), (1, 3, 2)), "inv")
    b = engine.stat_poly(6, ((2, 1, 3), (1, 3, 2)), "inv")
    assert a == b


def test_classify_singletons_inv():
    report = engine.classify(3, 1, "inv", 8)
    classes = {tuple(s[0] for s in cls) for cls in report.classes}
    assert classes == {
        ((1, 2, 3),),
        ((3, 2, 1),),
        ((1, 3, 2), (2, 1, 3)),
        ((2, 3, 1), (3, 1, 2)),
    }


def test_classify_singletons_maj():
    report = engine.classify(3, 1, "maj", 8)
    classes = {tuple(s[0] for s in cls) for cls in report.classes}
    assert classes == {
        ((1, 2, 3),),
        ((3, 2, 1),),
        ((1, 3, 2), (2, 3, 1)),
        ((2, 1, 3), (3, 1, 2)),
    }


def test_classify_reports_are_canonical_and_stable():
    a = engine.classify(3, 2, "maj", 6)
    b = engine.classify(3, 2, "maj", 6)
    assert a == b
    assert a.classes == tuple(sorted(tuple(sorted(c)) for c in a.classes))
    for cls in a.classes:
        assert cls[0] == min(cls)
    assert a.class_of(((2, 1, 3), (1, 3, 2)))  # lookup by unsorted spelling
    with pytest.raises(KeyError):
        a.class_of(((1, 2, 3), (1, 2, 3), (1, 3, 2), (3, 2, 1)))


def test_classify_guards():
    with pytest.raises(ValueError):
        engine.classify(3, 1, "inv", 2)  # n_max below the pattern length
    with pytest.raises(ValueError):
        engine.classify(4, 3, "inv", 4, max_subsets=10)


def test_classify_rejects_unknown_stat():
    with pytest.raises(ValueError, match="maj-des"):
        engine.classify(3, 1, "des", 5)
    # a subset size with no subsets still validates the statistic
    with pytest.raises(ValueError, match="maj-des"):
        engine.classify(3, 7, "des", 5)


def test_classify_maj_des_variant():
    # bivariate classification refines the univariate one
    uni = engine.classify(3, 1, "maj", 6)
    bi = engine.classify(3, 1, "maj-des", 6)
    assert len(bi.classes) >= len(uni.classes)
    for cls in bi.classes:
        assert len(uni.class_of(cls[0])) >= len(cls)


def test_mahonian_pair_checks():
    for n in range(7):
        s = AvoidanceQuery(n, ((1, 3, 2), (2, 1, 3)))
        t = AvoidanceQuery(n, ((1, 3, 2), (2, 3, 1)))
        assert engine.mahonian_pair_check(s, t)
        whole = AvoidanceQuery(n, ())
        assert engine.mahonian_pair_check(whole, whole)
    assert not engine.mahonian_pair_check(
        AvoidanceQuery(3, ((1, 2, 3),)), AvoidanceQuery(3, ((3, 2, 1),))
    )


def test_conjecture_suite_smoke():
    # S_4 singletons separate from n = 6 on; the runs at the documented
    # bound n_max=8 live in the acceptance suite
    rep = verify.conjecture_suite("trivial-inv-wilf", n_max=6)
    assert rep.passed and rep.cases > 0
    rep = verify.conjecture_suite("inflation-maj", n_max=5)
    assert rep.passed
    rep = verify.conjecture_suite("sporadic-maj", n_max=6)
    assert rep.passed
    rep = verify.conjecture_suite("i321-recursion", n_max=7)
    assert rep.passed
    rep = verify.conjecture_suite("maj-parity")
    assert rep.passed
    with pytest.raises(ValueError):
        verify.conjecture_suite("gondola")


def test_cancellation():
    calls = [0]

    def stop():
        calls[0] += 1
        return True

    with pytest.raises(SearchCancelled):
        for _ in engine.enumerate_avoiders(9, (), should_stop=stop):
            pass
    assert calls[0] >= 1


def test_enumeration_yields_before_listing_more():
    # Av_10(empty) has 10! members, Av_13(1324) over 10^8; the first must
    # come without holding others (a first avoider of the latter once took
    # 0.68 s)
    for n, pats, want in [(10, (), tuple(range(1, 11))),
                          (13, [(1, 3, 2, 4)], tuple(range(1, 14)))]:
        tracemalloc.start()
        try:
            first = next(engine.enumerate_avoiders(n, pats))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == want
        assert peak < 2**20, (n, pats, peak)


# Av_n(123, 132, 231): n, ..., 1 with one value moved to the end
_AV_123_132_231 = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def _av_123_132_231(n):
    return [tuple(v for v in range(n, 0, -1) if v != j) + (j,) for j in range(n, 0, -1)]


def test_enumeration_walks_no_dead_state_twice():
    # Av_20(123, 132, 231) has 20 members, and over a million prefixes that
    # none of them extends, but about 200 states: the walk takes about 300
    # steps, and polls once per engine._STOP_CHECK_INTERVAL of them (walking
    # every dead prefix took over 700,000 steps)
    polls = []
    out = list(engine.enumerate_avoiders(20, _AV_123_132_231,
                                         should_stop=lambda: polls.append(1) and False))
    assert out == _av_123_132_231(20)
    assert polls == []


def test_stop_while_dead_prefixes_are_settled():
    # Av_15(123, 132, 3241) walks over 9,000 steps of dead prefixes before
    # its first avoider, 14, ..., 1, 15, so the first poll comes before
    # anything is yielded
    pats = ((1, 2, 3), (1, 3, 2), (3, 2, 4, 1))
    got = []
    with pytest.raises(SearchCancelled):
        for p in engine.enumerate_avoiders(15, pats, should_stop=lambda: True):
            got.append(p)
    assert got == []
    assert next(engine.enumerate_avoiders(15, pats)) == tuple(range(14, 0, -1)) + (15,)


_MATE_TAGS = ("rinf", "r0", "R180")


def _image(tag, pats):
    return engine.canonical_patterns(perms.apply_symmetry(tag, p) for p in pats)


def _forget_orbit(n, pats):
    for tag in ("R0",) + _MATE_TAGS:
        engine._profile_cache.pop((n, _image(tag, pats)), None)


def test_orbit_mates_are_served_by_the_statistic_moves():
    # each image of a cached set under reversal, complement and
    # reverse-complement is served from it by that symmetry's own entry of
    # perms.STAT_MOVES: against brute force to n = 7 and against a run of
    # the DP on the image itself to n = 9
    sets = [s for r in range(7) for s in itertools.combinations(S3, r)]
    sets += [(p,) for p in S4] + list(itertools.combinations(S4, 2))[::23]
    for pats in sets:
        for n in range(10):
            _forget_orbit(n, pats)
            engine.profile(n, pats)
            images = {_image(tag, pats) for tag in _MATE_TAGS} - {pats}
            for image in images:
                # pats is the only cached member of its orbit
                for other in images:
                    engine._profile_cache.pop((n, other), None)
                served = engine.profile(n, image)
                assert served == engine._dp_profile(n, image, None), (pats, image, n)
                if n <= 7:
                    assert (served.inv_poly, served.majdes_poly) == brute_profile(n, image)[1:], (
                        pats, image, n)


def _count_dp_runs(monkeypatch):
    """A Counter of _dp_profile runs by length, from now on."""
    runs = Counter()
    run = engine._dp_profile

    def counted(n, patterns, should_stop):
        runs[n] += 1
        return run(n, patterns, should_stop)

    monkeypatch.setattr(engine, "_dp_profile", counted)
    return runs


def test_classify_runs_one_dp_per_orbit(monkeypatch):
    # the 24 S4 singletons fall in 8 orbits under reversal and complement,
    # the 276 pairs in 84
    runs = _count_dp_runs(monkeypatch)
    engine._profile_cache.clear()
    engine.classify(4, 1, "inv", 7)
    assert runs == {n: 8 for n in range(8)}
    runs.clear()
    engine._profile_cache.clear()
    engine.classify(4, 2, "inv", 6)
    assert runs == {n: 84 for n in range(7)}


def test_classify_refuses_before_it_builds_the_ground_set(monkeypatch):
    # the guard reads the size of S_k, and size 0 needs only the empty subset
    def unbuilt(k):
        raise AssertionError(f"S_{k} built")

    monkeypatch.setattr(engine, "all_perms", unbuilt)
    with pytest.raises(ValueError, match=r"^479001600 subsets exceed the guard of 20000; "):
        engine.classify(12, 1, "inv", 12)
    rep = engine.classify(12, 0, "inv", 12)
    assert rep.classes == (((),),)


def test_a_mate_is_served_without_a_run(monkeypatch):
    pats = ((1, 3, 4, 2), (2, 1, 3))
    _forget_orbit(9, pats)
    runs = _count_dp_runs(monkeypatch)
    engine.profile(9, pats)
    assert runs == {9: 1}
    for tag in _MATE_TAGS:
        engine.profile(9, _image(tag, pats))
    assert runs == {9: 1}


def test_enumeration_depth_is_not_bounded_by_recursion():
    # a walk that recursed once per value would pass the default limit of 1000
    assert list(engine.enumerate_avoiders(1500, [(1, 2)])) == [tuple(range(1500, 0, -1))]


def test_profile_cancellation_caches_nothing():
    pats = ((1, 3, 2, 4),)
    calls = [0]

    def stop_later():
        calls[0] += 1
        return calls[0] > 3

    # a cached mate would serve the query without a run to cancel
    _forget_orbit(9, pats)
    for query in (
        lambda: engine.count_avoiders(9, pats, should_stop=stop_later),
        lambda: engine.stat_poly(9, pats, "maj", should_stop=stop_later),
        lambda: engine.maj_des_poly(9, pats, should_stop=stop_later),
        lambda: engine.mahonian_pair_check(AvoidanceQuery(9, pats), AvoidanceQuery(9, pats),
                                           should_stop=stop_later),
    ):
        calls[0] = 0
        with pytest.raises(SearchCancelled):
            query()
        assert calls[0] == 4
        for tag in ("R0",) + _MATE_TAGS:
            assert (9, _image(tag, pats)) not in engine._profile_cache
    # a run that is never stopped polls without effect and is cached
    assert engine.count_avoiders(9, pats, should_stop=lambda: False) == 94776
    assert (9, pats) in engine._profile_cache


def test_count_is_checked_against_64_bits():
    from patstat.formulas import catalan

    assert engine.count_avoiders(35, ((3, 2, 1),)) == catalan(35) == 3116285494907301262
    # every inv coefficient of Av_36(321) fits, their sum Catalan(36) does not
    poly = engine.stat_poly(36, ((3, 2, 1),), "inv")
    assert max(poly.coeffs) < 2**63 < catalan(36)
    with pytest.raises(OverflowError):
        engine.count_avoiders(36, ((3, 2, 1),))


def _peak_kib(statement):
    """VmHWM of a fresh interpreter that imports the engine and runs the
    statement.  Linux carries ru_maxrss over from the forking process
    (pytest, here), while VmHWM starts afresh with the new program."""
    code = (f"from patstat import engine; {statement}; "
            "print(*[line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_largest_accepted_n_stays_under_an_rss_cap():
    # 1324 at n = 13, the largest S4 profile the ROADMAP times, peaks at
    # about 32 MiB for the whole process, and at about 36 MiB when its
    # pattern table is not emptied at engine._COPY_ROWS_MAX rows
    assert _peak_kib("assert engine.count_avoiders(13, [(1, 3, 2, 4)]) == 173453058") < 36 * 1024


def test_enumeration_stays_under_an_rss_cap():
    # Av_10(1324) (591,950 members) is walked, not stored: the process
    # peaks at about 17.6 MiB, 1.3 MiB above patstat just imported, since
    # the states and their tables stay small whatever the size of the set
    assert _peak_kib("assert sum(1 for _ in engine.enumerate_avoiders(10, [(1, 3, 2, 4)]))"
                     " == 591950") < 20 * 1024


def test_import_does_not_load_verify():
    code = ("import sys, patstat; patstat.count_avoiders(0, []); "
            "print('patstat.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        list(engine.enumerate_avoiders(-1, ()))
    with pytest.raises(ValueError):
        engine.count_avoiders(-2, ())
