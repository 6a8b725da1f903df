import itertools

import pytest

from conftest import brute_avoiders, words_of_length
from patstat import perms, words


def test_word_stats_examples():
    s = words.word_stats((1, 0, 1, 1))
    assert (s.inv, s.maj, s.des) == (1, 1, 1)
    assert s.descents == frozenset({1})
    assert words.word_stats((0,) * 6) == (0, 0, 0, frozenset())
    assert words.word_stats((1, 0))[:2] == (1, 1)
    assert words.word_stats(()) == (0, 0, 0, frozenset())


def test_word_parse_format():
    assert words.parse_word("001101001") == (0, 0, 1, 1, 0, 1, 0, 0, 1)
    assert words.parse_word("") == ()
    assert words.format_word(()) == "ε"
    assert words.format_word((1, 0, 1)) == "101"
    with pytest.raises(ValueError):
        words.parse_word("012")


def test_lattice_decomposition_worked_example():
    w = words.parse_word("001101001")
    assert words.lambda_of(w) == (3, 3, 2)
    assert words.durfee(w) == 2
    assert words.beta_of(w) == (2, 0, 0)
    assert words.rho_of(w) == (2, 0)


def test_lattice_decomposition_extremes():
    assert words.lambda_of((1, 1, 1)) == ()
    assert words.durfee((1, 1, 1)) == 0
    assert words.rho_of((1, 1, 1)) == (0, 0, 0)
    assert words.beta_of((0, 0)) == (0, 0)
    assert words.lambda_of(()) == ()


def test_durfee_roundtrip_exhaustive():
    for n in range(13):
        for w in words_of_length(n):
            d = words.durfee(w)
            beta, rho = words.beta_of(w), words.rho_of(w)
            assert all(p <= d for p in beta)
            assert all(p <= d for p in rho)
            assert words.from_durfee(d, beta, rho) == w


def _boxes(w):
    """The diagram box by box: the box in column c from the left and row t
    from the top is there iff the (c+1)-th 1 of w comes before its (t+1)-th
    0 from the end, so the boxes are the inversions of w."""
    ones = [i for i, x in enumerate(w) if x == 1]
    zeros = [i for i, x in enumerate(w) if x == 0][::-1]
    return {(c, t) for c, i in enumerate(ones) for t, j in enumerate(zeros) if i < j}, ones, zeros


def test_decomposition_matches_a_box_count():
    for n in range(11):
        for w in words_of_length(n):
            boxes, ones, zeros = _boxes(w)
            rows = [sum((c, t) in boxes for c in range(len(ones))) for t in range(len(zeros))]
            cols = [sum((c, t) in boxes for t in range(len(zeros))) for c in range(len(ones))]
            d = max(s for s in range(min(len(ones), len(zeros)) + 1)
                    if all((c, t) in boxes for c in range(s) for t in range(s)))
            assert words.durfee(w) == d, w
            assert words.lambda_of(w) == tuple(r for r in rows if r), w
            assert words.beta_of(w) == tuple(rows[d:]), w
            assert words.rho_of(w) == tuple(cols[d:]), w
            assert words.decomposition(w) == (
                words.lambda_of(w), d, words.beta_of(w), words.rho_of(w)), w


def test_from_durfee_validation():
    with pytest.raises(ValueError):
        words.from_durfee(-1, (), ())
    with pytest.raises(ValueError):
        words.from_durfee(1, (2,), ())
    with pytest.raises(ValueError):
        words.from_durfee(2, (0, 1), ())


def test_foata_worked_examples():
    assert words.foata((1, 0, 1, 1)) == (1, 0, 1, 1)
    assert words.foata(()) == ()
    assert words.foata((1, 0, 0, 1)) == (0, 1, 0, 1)
    # sorted words are fixed
    assert words.foata((0, 0, 1, 1)) == (0, 0, 1, 1)
    assert words.foata_inverse(()) == ()


def test_word_set_predicates():
    assert words.in_start_one_set(())
    assert words.in_start_one_set((1, 0, 0))
    assert not words.in_start_one_set((0, 1))
    assert words.in_end_zero_set((1, 0))
    assert not words.in_end_zero_set((0, 1))
    assert words.in_sparse_set((1, 0, 1, 0))
    assert not words.in_sparse_set((1, 1, 0))
    assert not words.in_sparse_set((1, 0, 1))


def test_word_bijection_lr_maxima():
    assert words.to_word_231_321((3, 1, 2)) == (1, 0, 0)
    assert words.to_word_231_321((2, 1, 3)) == (1, 0, 1)
    for n in range(6):
        ident = perms.increasing(n)
        assert words.to_word_231_321(ident) == (1,) * n
    with pytest.raises(ValueError):
        words.to_word_231_321((2, 3, 1))
    with pytest.raises(ValueError):
        words.from_word_231_321((0, 1))


def test_word_bijection_rl_minima():
    assert words.to_word_312_321((2, 3, 1)) == (1, 1, 0)
    assert words.to_word_312_321((1, 2, 3)) == (0, 0, 0)
    for n in range(1, 6):
        assert words.to_word_312_321(perms.named_family("min-last", n)) == (1,) * (n - 1) + (0,)
    with pytest.raises(ValueError):
        words.to_word_312_321((3, 1, 2))
    with pytest.raises(ValueError):
        words.from_word_312_321((0, 1))


def test_word_bijection_sparse():
    assert words.to_word_231_312_321((2, 1, 3)) == (1, 0, 0)
    with pytest.raises(ValueError):
        words.to_word_231_312_321((3, 2, 1))
    with pytest.raises(ValueError):
        words.from_word_231_312_321((1, 1, 0))


def test_word_bijections_exhaustive():
    cases = (
        ([(2, 3, 1), (3, 2, 1)], words.to_word_231_321, words.from_word_231_321,
         words.in_start_one_set),
        ([(3, 1, 2), (3, 2, 1)], words.to_word_312_321, words.from_word_312_321,
         words.in_end_zero_set),
        ([(2, 3, 1), (3, 1, 2), (3, 2, 1)], words.to_word_231_312_321,
         words.from_word_231_312_321, words.in_sparse_set),
    )
    for n in range(9):
        for pats, fwd, back, member in cases:
            avoiders = brute_avoiders(n, pats)
            images = [fwd(p) for p in avoiders]
            assert sorted(images) == sorted(
                w for w in words_of_length(n) if member(w)
            )
            for p, w in zip(avoiders, images):
                assert words.word_stats(w).descents == perms.descent_set(p)
                assert back(w) == p


def test_partition_bijection_descents():
    assert words.descent_partition_132_213((3, 2, 1)) == (2, 1)
    assert words.descent_partition_132_213(perms.increasing(5)) == ()
    assert words.from_descent_partition_132_213((2, 1), 3) == (3, 2, 1)
    with pytest.raises(ValueError):
        words.descent_partition_132_213((1, 3, 2))
    with pytest.raises(ValueError):
        words.from_descent_partition_132_213((3,), 3)  # part exceeds n-1
    with pytest.raises(ValueError):
        words.from_descent_partition_132_213((1, 1), 4)  # not distinct


def test_partition_bijection_prefix():
    assert words.prefix_partition_132_231((4, 2, 1, 3)) == (3, 1)
    assert words.prefix_partition_132_231(perms.increasing(4)) == ()
    assert words.from_prefix_partition_132_231((3, 1), 4) == (4, 2, 1, 3)
    with pytest.raises(ValueError):
        words.prefix_partition_132_231((2, 3, 1))


@pytest.mark.parametrize("name", ["132-213-partition", "132-231-partition"])
def test_partition_inverses_refuse_a_negative_length(name):
    bijection = words.BIJECTIONS[name]
    for n in (-1, -2):
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            bijection.inverse((), n)
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            bijection.back((), n)
    assert bijection.back((), 0) == ()


def test_partition_bijections_exhaustive():
    # brute-filter oracle up to n=7; the acceptance suite drives the maps
    # at their full bound through the separately validated engine
    for n in range(8):
        bound_parts = list(range(n - 1, 0, -1))
        all_partitions = sorted(
            lam
            for size in range(len(bound_parts) + 1)
            for lam in itertools.combinations(bound_parts, size)
        )
        avoiders = brute_avoiders(n, [(1, 3, 2), (2, 1, 3)])
        images = [words.descent_partition_132_213(p) for p in avoiders]
        assert sorted(images) == all_partitions
        for p, lam in zip(avoiders, images):
            assert sum(lam) == perms.maj(p)
            assert len(lam) == perms.des(p)
            assert words.from_descent_partition_132_213(lam, n) == p

        avoiders = brute_avoiders(n, [(1, 3, 2), (2, 3, 1)])
        images = [words.prefix_partition_132_231(p) for p in avoiders]
        assert sorted(images) == all_partitions
        for p, lam in zip(avoiders, images):
            assert sum(lam) == perms.inv(p)
            assert words.from_prefix_partition_132_231(lam, n) == p


def test_descent_transport_map_examples():
    assert words.map_132_to_231(()) == ()
    assert words.map_132_to_231((1,)) == (1,)
    with pytest.raises(ValueError):
        words.map_132_to_231((1, 3, 2))
    with pytest.raises(ValueError):
        words.map_231_to_132((2, 3, 1))


def test_descent_transport_map_exhaustive():
    for n in range(8):
        av132 = brute_avoiders(n, [(1, 3, 2)])
        av231 = brute_avoiders(n, [(2, 3, 1)])
        images = [words.map_132_to_231(p) for p in av132]
        assert sorted(images) == av231
        for p, t in zip(av132, images):
            assert perms.descent_set(p) == perms.descent_set(t)
            assert words.map_231_to_132(t) == p
