"""Partition statistics, splittings, divisors, and up-down tableaux."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from klmov.errors import ParityMismatch
from klmov.partitions import (
    common_divisors,
    format_partition,
    is_partition,
    kappa,
    _multiset_partitions,
    lemma72_sum,
    mobius,
    parse_multipartition,
    parse_partition,
    partitions_of,
    splittings,
    sub_multisets,
    transpose,
    updown_dimension,
    z_stat,
    z_stat_multi,
)


# Reference enumerators: splittings by subtracting sub-multisets of the rows,
# and vector partitions by filtering every vector below a cap.  The second is
# the library's own recursion without its memo and its first-atom pruning, so
# test_partitions_oracle.py checks the vanishing sum against sympy as well.


def _sub_multisets(counter_items):
    """All nonzero sub-multisets of a multiset given as ((atom, mult), ...)."""
    if not counter_items:
        return
    atom, mult = counter_items[0]
    rest = counter_items[1:]
    tails = list(_sub_multisets(rest)) if rest else []
    for take in range(mult + 1):
        head = ((atom, take),) if take else ()
        if take:
            yield head
        for tail in tails:
            yield head + tail


def _atoms_to_multipartition(atom_counts, ncomp):
    comps = [[] for _ in range(ncomp)]
    for (alpha, row), m in atom_counts:
        comps[alpha].extend([row] * m)
    return tuple(tuple(sorted(c, reverse=True)) for c in comps)


def _reference_splittings(mu):
    ncomp = len(mu)
    atoms = Counter()
    for alpha, lam in enumerate(mu):
        for row in lam:
            atoms[(alpha, row)] += 1
    results = []

    def descend(remaining, max_part, acc):
        if not remaining:
            r = len(acc)
            aut = 1
            for m in Counter(acc).values():
                aut *= factorial(m)
            coeff = Fraction((-1) ** (r - 1) * factorial(r - 1), aut)
            results.append((tuple(sorted(acc, reverse=True)), coeff))
            return
        items = tuple(sorted(remaining.items()))
        for sub in _sub_multisets(items):
            part = _atoms_to_multipartition(sub, ncomp)
            if max_part is not None and part > max_part:
                continue
            rest = remaining - Counter(dict(sub))
            acc.append(part)
            descend(rest, part, acc)
            acc.pop()

    descend(atoms, None, [])
    return results


def _vector_partitions(target, cap):
    """Multisets of nonzero vectors <= cap (lexicographically) summing to target."""
    if all(v == 0 for v in target):
        yield ()
        return
    for v in product(*(range(b, -1, -1) for b in target)):
        if not any(v) or (cap is not None and v > cap):
            continue
        rest_target = tuple(a - b for a, b in zip(target, v))
        for rest in _vector_partitions(rest_target, v):
            yield (v,) + rest


def _reference_lemma72_sum(dvec):
    total = Fraction(0)
    for parts in _vector_partitions(tuple(dvec), None):
        r = len(parts)
        aut = 1
        for m in Counter(parts).values():
            aut *= factorial(m)
        denom = aut
        for v in parts:
            for entry in v:
                denom *= factorial(entry)
        total += Fraction((-1) ** (r - 1) * factorial(r - 1), denom)
    return total


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


def _degree_bound_mus():
    from klmov.verify import REGRESSION_PAIRS, _unlink_mus

    singles, doubles = _unlink_mus(6)
    return [mu for _, mu in REGRESSION_PAIRS] + singles + doubles


def test_splittings_match_reference():
    mus = _degree_bound_mus()
    assert len(mus) == 189
    for mu in mus + [((2, 2, 1, 1), (2, 1), (1,))]:
        assert Counter(splittings(mu)) == Counter(_reference_splittings(mu)), mu


def test_sub_multisets_split_every_multipartition_once():
    # every multi-partition of size <= 6 with 1-3 components, the zero ones
    # included: prod (m_i + 1) distinct (rho, rest) pairs reassembling mu
    for ncomp in (1, 2, 3):
        for sizes in product(range(7), repeat=ncomp):
            if sum(sizes) > 6:
                continue
            for mu in product(*map(partitions_of, sizes)):
                pairs = list(sub_multisets(mu))
                want = 1
                for lam in mu:
                    for m in Counter(lam).values():
                        want *= m + 1
                assert len(pairs) == len(set(pairs)) == want, mu
                for rho, rest in pairs:
                    assert len(rho) == len(rest) == ncomp
                    assert all(is_partition(lam) for lam in rho + rest)
                    assert [sorted(a + b) for a, b in zip(rho, rest)] == [
                        sorted(lam) for lam in mu]


def test_splittings_reject_zero():
    with pytest.raises(ValueError, match="cannot split the zero multi-partition"):
        splittings(((), ()))


def test_multiset_partitions_sorted_and_distinct():
    for counts in [(3,), (2, 1), (1, 0, 2), (2, 2, 1), (0, 0)]:
        got = list(_multiset_partitions(counts))
        assert len(set(got)) == len(got)
        for parts in got:
            assert list(parts) == sorted(parts, reverse=True)
            assert all(any(v) and len(v) == len(counts) for v in parts)
            assert tuple(map(sum, zip(*parts))) == (tuple(counts) if parts else ())
    assert list(_multiset_partitions((0, 0))) == [()]


def test_enumeration_order_is_pinned():
    # parts decreasing within a partition, partitions decreasing in turn
    assert list(_multiset_partitions((2, 1))) == [
        ((2, 1),),
        ((2, 0), (0, 1)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (0, 1)),
    ]
    assert list(_multiset_partitions((1, 0, 2))) == [
        ((1, 0, 2),),
        ((1, 0, 1), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 2)),
        ((1, 0, 0), (0, 0, 1), (0, 0, 1)),
    ]
    assert splittings(((2, 1), (1,))) == [
        ((((2, 1), (1,)),), Fraction(1)),
        ((((2, 1), ()), ((), (1,))), Fraction(-1)),
        ((((2,), (1,)), ((1,), ())), Fraction(-1)),
        ((((2,), ()), ((1,), (1,))), Fraction(-1)),
        ((((2,), ()), ((1,), ()), ((), (1,))), Fraction(2)),
    ]


def test_nine_atoms():
    assert len(list(_multiset_partitions((1,) * 9))) == 21147  # Bell(9)
    assert lemma72_sum((1,) * 9) == 0


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


@pytest.mark.parametrize("dvec", [(), (0, 0), (2, -1), (-1,), (1.0,)])
def test_lemma72_wants_a_nonzero_vector_of_nonnegative_ints(dvec):
    with pytest.raises(ValueError, match=r"^cannot sum over the weight vector "):
        lemma72_sum(dvec)


def test_lemma72_matches_reference():
    dvecs = [lam for n in range(1, 9) for lam in partitions_of(n)]
    for dvec in dvecs + [(1, 0, 2), (0, 1), (2, 2, 2)]:
        assert lemma72_sum(dvec) == _reference_lemma72_sum(dvec), dvec


def test_parse_format():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("0") == ()
    assert parse_multipartition("1,1|1") == ((1, 1), (1,))
    assert parse_multipartition("0|2") == ((), (2,))
    assert format_partition((2, 1)) == "2,1"
    with pytest.raises(ValueError):
        parse_partition("1,2")
