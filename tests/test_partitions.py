"""Partition statistics, splittings, divisors, and up-down tableaux."""

from fractions import Fraction

import pytest

from klmov.errors import ParityMismatch
from klmov.partitions import (
    common_divisors,
    format_multipartition,
    format_partition,
    kappa,
    lemma72_sum,
    mobius,
    parse_multipartition,
    parse_partition,
    partitions_of,
    splittings,
    transpose,
    updown_dimension,
    z_stat,
    z_stat_multi,
)


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(3)) == 3


def test_z_stat():
    assert z_stat((1, 1)) == 2
    assert z_stat((2, 2)) == 8
    assert z_stat_multi(((2,), (2,))) == 4


def test_z_stat_telescopes():
    # sum over cycle types of n!/z_lambda counts all permutations
    from math import factorial

    for n in range(1, 7):
        assert sum(
            Fraction(factorial(n), z_stat(lam)) for lam in partitions_of(n)
        ) == factorial(n)


def test_kappa():
    assert kappa((1,)) == 0
    assert kappa((1, 1)) == -2
    assert kappa((4,)) == 12


def test_kappa_transpose_antisymmetry():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert kappa(lam) + kappa(transpose(lam)) == 0


def test_splittings_single_row():
    assert splittings(((1,),)) == [((((1,),),), Fraction(1))]
    assert splittings(((2,),)) == [((((2,),),), Fraction(1))]


def test_splittings_column_times_box():
    got = dict(splittings(((1, 1), (1,))))
    assert len(got) == 4
    assert got[(((1, 1), (1,)),)] == 1
    assert got[(((1, 1), ()), ((), (1,)))] == -1
    assert got[(((1,), (1,)), ((1,), ()))] == -1
    assert got[(((1,), ()), ((1,), ()), ((), (1,)))] == 1


def test_splittings_union_invariant():
    for mu in [((2, 1),), ((1, 1), (2,)), ((3, 1, 1),)]:
        for parts, _ in splittings(mu):
            rows = [sorted(sum((list(p[i]) for p in parts), [])) for i in range(len(mu))]
            assert rows == [sorted(comp) for comp in mu]


def test_splitting_coefficients_telescope():
    for mu in [((3, 2, 1),), ((2, 1), (3,))]:
        assert sum(c for _, c in splittings(mu)) == 0


def test_common_divisors():
    assert common_divisors(((2,), (2,))) == (1, 2)
    assert common_divisors(((2,), (1,))) == (1,)
    assert common_divisors(((6,),)) == (1, 2, 3, 6)


def test_mobius():
    assert [mobius(k) for k in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_updown_examples():
    assert updown_dimension((1,), 3) == 3
    assert updown_dimension((2,), 2) == 1
    with pytest.raises(ParityMismatch):
        updown_dimension((1,), 2)


def test_updown_dimension_squares():
    total = 0
    for m in (3, 1):
        for lam in partitions_of(m):
            total += updown_dimension(lam, 3) ** 2
    assert total == 15  # (2*3 - 1)!!


def test_updown_recursion():
    from klmov.partitions import _diagram_neighbors

    for lam, n in [((2, 1), 5), ((1, 1), 4)]:
        direct = updown_dimension(lam, n)
        via = sum(updown_dimension(nb, n - 1) for nb in _diagram_neighbors(lam))
        assert direct == via


def test_lemma72():
    assert lemma72_sum((1, 1)) == 0
    assert lemma72_sum((2,)) == 0
    assert lemma72_sum((1,)) == 1
    assert lemma72_sum((3, 2)) == 0


def test_parse_format():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("0") == ()
    assert parse_multipartition("1,1|1") == ((1, 1), (1,))
    assert parse_multipartition("0|2") == ((), (2,))
    assert format_partition((2, 1)) == "2,1"
    assert format_multipartition(((1, 1), ())) == "1,1|0"
    with pytest.raises(ValueError):
        parse_partition("1,2")
