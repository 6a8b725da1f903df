import itertools
import math
import random

import pytest

from conftest import contains_brute
from patstat import perms


def test_inversion_set_worked_example():
    assert perms.inversion_set((4, 1, 5, 2, 3)) == frozenset(
        {(1, 2), (1, 4), (1, 5), (3, 4), (3, 5)}
    )
    assert perms.inv((4, 1, 5, 2, 3)) == 5


def test_inversions_extremes():
    assert perms.inversion_set((1, 2, 3, 4, 5)) == frozenset()
    assert perms.inversion_set((3, 2, 1)) == frozenset({(1, 2), (1, 3), (2, 3)})
    assert perms.inv(()) == 0
    for n in range(8):
        assert perms.inv(perms.decreasing(n)) == n * (n - 1) // 2


def test_descents_and_major_index():
    assert perms.descent_set((4, 1, 5, 2, 3)) == frozenset({1, 3})
    assert perms.maj((4, 1, 5, 2, 3)) == 4
    assert perms.descent_set((3, 2, 1)) == frozenset({1, 2})
    assert perms.maj((3, 2, 1)) == 3
    for n in range(6):
        assert perms.descent_set(perms.increasing(n)) == frozenset()
        assert perms.maj(perms.increasing(n)) == 0


def test_contains_examples():
    assert perms.contains((4, 3, 6, 1, 5, 2), (1, 3, 2))
    assert perms.contains((2, 4, 1, 3), ())
    assert perms.contains((), ())
    assert not perms.contains((1, 2, 3, 4, 5), (3, 2, 1))


def test_contains_matches_brute_force():
    patterns = [q for k in range(5) for q in perms.all_perms(k)]
    for n in range(6):
        for p in perms.all_perms(n):
            for pat in patterns:
                assert perms.contains(p, pat) == contains_brute(p, pat), (p, pat)


@pytest.mark.parametrize("p", [(10, 30, 20), (-1, -3, -2, 0), (0.5, -2.5, 1e9, 3.25, -1e-3),
                               (5, -5, 4, -4, 3, -3), (2**70, -(2**70), 0, 1.5),
                               (-math.inf, 7, math.inf, 2), (7, -math.inf), (-math.inf, 7),
                               (math.inf, 1, -math.inf, 0.5)])
def test_contains_on_values_that_are_not_one_to_n(p):
    # the matcher's bounds for a side with no chosen entry admit every value,
    # -inf and +inf alike
    for k in range(len(p) + 2):
        for pat in perms.all_perms(k):
            assert perms.contains(p, pat) == contains_brute(p, pat), (p, pat)


def test_pattern_with_a_repeated_value_is_rejected():
    # no sequence of distinct values is order isomorphic to (1, 1)
    with pytest.raises(ValueError, match=r"^pattern \(1, 1\) repeats a value$"):
        perms.contains((2, 1), (1, 1))
    with pytest.raises(ValueError):
        perms.contains((3, 1, 2), (2, 1, 2))


def test_pattern_of_distinct_nonconsecutive_values_matches_its_standard_form():
    # (2, 5, 3) is order isomorphic to 132 and matches exactly where 132 does
    for n in range(6):
        for p in perms.all_perms(n):
            assert perms.contains(p, (2, 5, 3)) == contains_brute(p, (1, 3, 2)), p
    assert perms.contains((4, 3, 6, 1, 5, 2), (2, 5, 3))
    assert not perms.contains((3, 2, 1), (2, 5, 3))


def test_avoids_all():
    assert not perms.avoids_all((4, 3, 6, 1, 5, 2), ((1, 3, 2),))
    assert perms.avoids_all((2, 4, 1, 3), ())
    # 243 inside 2413 is a 132 copy
    assert contains_brute((2, 4, 1, 3), (1, 3, 2))
    assert not perms.avoids_all((2, 4, 1, 3), ((1, 3, 2), (2, 1, 3)))


def test_parse_and_format_roundtrip():
    assert perms.parse_perm("41523") == (4, 1, 5, 2, 3)
    assert perms.parse_perm("10,1,2,3,4,5,6,7,8,9") == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert perms.parse_perm("ε") == ()
    assert perms.parse_perm("2, 1,3") == (2, 1, 3)
    assert perms.format_perm(()) == "ε"
    assert perms.format_perm((4, 1, 5, 2, 3)) == "41523"
    big = tuple(range(10, 0, -1))
    assert perms.parse_perm(perms.format_perm(big)) == big
    with pytest.raises(ValueError):
        perms.parse_perm("120")
    with pytest.raises(ValueError):
        perms.perm((1, 1))


def test_reverse_complement_inverse():
    assert perms.apply_symmetry("rinf", (4, 1, 5, 2, 3)) == (3, 2, 5, 1, 4)
    assert perms.apply_symmetry("r0", (4, 1, 5, 2, 3)) == (2, 5, 1, 4, 3)
    assert perms.apply_symmetry("r1", (3, 1, 2)) == perms.inverse((3, 1, 2)) == (2, 3, 1)
    assert perms.apply_symmetry("R90", (1, 3, 2)) == (2, 3, 1)
    assert perms.apply_symmetry("r∞", (2, 1)) == (1, 2)


def test_rotation_agrees_with_reflection_composition():
    # R90 must equal the vertical reflection after the diagonal one
    for n in range(6):
        for p in perms.all_perms(n):
            assert perms.apply_symmetry("R90", p) == perms.reverse(perms.inverse(p))
            assert perms.apply_symmetry("R180", p) == perms.reverse(perms.complement(p))


def test_symmetry_group_table():
    # the verify checks take these for granted: the eight tags are closed
    # under composition (how they act is the symmetry-group-law check), and
    # every tag not preserving inv reverses it (inv-under-symmetries)
    for f in perms.SYMMETRIES:
        for g in perms.SYMMETRIES:
            assert perms.compose_symmetries(f, g) in perms.SYMMETRIES
    assert perms.INV_REVERSING == tuple(
        f for f in perms.SYMMETRIES if f not in perms.INV_PRESERVING
    )


def test_unknown_symmetry_rejected():
    with pytest.raises(ValueError):
        perms.apply_symmetry("R45", (1, 2))
    with pytest.raises(ValueError, match=r"^unknown symmetry 'R45'; expected one of \("):
        perms.apply_symmetry("R45", ())


#: Point maps (x, y, m) -> (x', y') on the diagram {(i, a_i)}, with m = n + 1:
#: the eight symmetries written out independently of perms' own definition.
_POINT_MAPS = {
    "R0": lambda x, y, m: (x, y),
    "R90": lambda x, y, m: (m - y, x),
    "R180": lambda x, y, m: (m - x, m - y),
    "R270": lambda x, y, m: (y, m - x),
    "r-1": lambda x, y, m: (m - y, m - x),
    "r0": lambda x, y, m: (x, m - y),
    "r1": lambda x, y, m: (y, x),
    "rinf": lambda x, y, m: (m - x, y),
}


def _by_point_map(tag, p):
    f = _POINT_MAPS[perms.normalize_symmetry(tag)]
    out = [0] * len(p)
    for i, v in enumerate(p, 1):
        x, y = f(i, v, len(p) + 1)
        out[x - 1] = y
    return tuple(out)


def test_symmetry_tables_match_point_maps():
    for n in range(8):
        for p in perms.all_perms(n):
            for tag in perms.SYMMETRIES + ("r∞", "rINF"):
                assert perms.apply_symmetry(tag, p) == _by_point_map(tag, p), (tag, p)


def test_statistic_moves_match_the_statistics_of_the_images():
    # the engine serves a profile from a cached reverse/complement mate by
    # this table and INV_REVERSING, so both must hold on every permutation,
    # n = 0 included
    assert set(perms.STAT_MOVES) == {"R180", "rinf", "r0"}
    for n in range(8):
        for p in perms.all_perms(n):
            for tag, rule in perms.STAT_MOVES.items():
                image = _by_point_map(tag, p)
                assert rule(n, perms.maj(p), perms.des(p)) == (
                    perms.maj(image), perms.des(image)), (tag, p)
                inv = perms.inv(p)
                want = math.comb(n, 2) - inv if tag in perms.INV_REVERSING else inv
                assert perms.inv(image) == want, (tag, p)


@pytest.mark.parametrize("tags", [perms.INV_PRESERVING, tuple(perms.STAT_MOVES)],
                         ids=["inv-preserving", "stat-moves"])
def test_image_and_orbit_match_a_brute_force_closure(tags):
    def brute_image(tag, pats):
        return tuple(sorted(_by_point_map(tag, p) for p in pats))

    s3 = sorted(perms.all_perms(3))
    keys = [s for size in range(7) for s in itertools.combinations(s3, size)]
    for pats in keys + [(p,) for p in perms.all_perms(4)]:
        # every set that the tags reach from pats in any number of steps
        closure, frontier = set(), [tuple(sorted(pats))]
        while frontier:
            here = frontier.pop()
            if here not in closure:
                closure.add(here)
                for tag in tags:
                    found = brute_image(tag, here)
                    assert perms.image(tag, here[::-1]) == found, (tag, here)
                    frontier.append(found)
        assert perms.orbit(pats[::-1], tags) == tuple(sorted(closure)), pats


def test_sample_tells_the_symmetries_apart():
    # compose_symmetries names a composite by its image of the sample
    images = {perms.apply_symmetry(f, perms._SAMPLE) for f in perms.SYMMETRIES}
    assert len(images) == len(perms.SYMMETRIES)


def test_composition_acts_as_both_symmetries_in_turn():
    for f in perms.SYMMETRIES:
        for g in perms.SYMMETRIES:
            h = perms.compose_symmetries(f, g)
            for n in range(6):
                for p in perms.all_perms(n):
                    assert perms.apply_symmetry(h, p) == perms.apply_symmetry(
                        f, perms.apply_symmetry(g, p)
                    ), (f, g, p)


def test_inflate_worked_examples():
    assert perms.inflate((1, 3, 2), ((2, 1), (1,), (2, 1, 3))) == (2, 1, 6, 4, 3, 5)
    assert perms.inflate((1, 3, 2), ((), (1,), (2, 1, 3))) == (4, 2, 1, 3)


def _inflate_brute(base, components):
    """Concatenate the blocks, then standardize by block order: an entry's
    rank is taken by its base value first, then its value in the block."""
    keyed = [(b, v) for b, comp in zip(base, components) for v in comp]
    order = sorted(keyed)
    return tuple(order.index(e) + 1 for e in keyed)


def test_inflate_matches_a_brute_standardization():
    rng = random.Random(5)
    comps = [q for k in range(4) for q in perms.all_perms(k)]
    for n in range(6):
        for base in perms.all_perms(n):
            # every choice of blocks for a base of length 3 or less, else a seeded sample
            choices = (itertools.product(comps, repeat=n) if n <= 3
                       else ([rng.choice(comps) for _ in base] for _ in range(100)))
            for blocks in choices:
                assert perms.inflate(base, blocks) == _inflate_brute(base, blocks), (base, blocks)
    assert perms.inflate((2, 1), ((), ())) == ()


def test_inflate_component_count_checked():
    with pytest.raises(ValueError):
        perms.inflate((1, 2), ((1,),))


def test_inflate_associativity_spot_checks():
    base = (2, 1, 3)
    mids = [(1, 2), (1,), (2, 1)]
    leaves = [[(1,), (2, 1)], [()], [(1, 2, 3), (1,)]]
    nested = perms.inflate(base, [perms.inflate(m, lv) for m, lv in zip(mids, leaves)])
    flat = perms.inflate(perms.inflate(base, mids), [x for lv in leaves for x in lv])
    assert nested == flat


def test_named_families():
    assert perms.named_family("max-first", 4) == (4, 1, 2, 3)
    assert perms.named_family("min-last", 4) == (2, 3, 4, 1)
    assert perms.named_family("swap-last-two", 4) == (1, 2, 4, 3)
    assert perms.named_family("increasing", 0) == ()
    assert perms.named_family("decreasing", 3) == (3, 2, 1)
    # the swapped family is the inflation of 132 by two singleton blocks
    for n in range(2, 8):
        assert perms.named_family("swap-last-two", n) == perms.inflate(
            (1, 3, 2), (perms.increasing(n - 2), (1,), (1,))
        )
    with pytest.raises(ValueError):
        perms.named_family("max-first", 0)
    with pytest.raises(ValueError):
        perms.named_family("swap-last-two", 1)
    with pytest.raises(ValueError):
        perms.named_family("zigzag", 3)


def test_maxima_minima_helpers():
    assert perms.left_right_maxima((3, 1, 2)) == (1,)
    assert perms.left_right_maxima((2, 1, 3)) == (1, 3)
    assert perms.right_left_minima((2, 3, 1)) == (3,)
    assert perms.right_left_minima((1, 2, 3)) == (1, 2, 3)


def test_a_pattern_list_may_be_one_long_permutation():
    # format_perm writes a permutation longer than 9 with commas, so a list
    # that does not split into patterns is read as one permutation
    long = (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert perms.parse_pattern_set(perms.format_perm(long)) == (long,)
    assert perms.parse_pattern_set("12,21") == ((1, 2), (2, 1))
    # a text that is neither keeps the message of the list
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(1, 0\)$"):
        perms.parse_pattern_set("132,10,1")
    with pytest.raises(ValueError, match=r"^cannot parse permutation '1x2'$"):
        perms.parse_pattern_set("1x2")
