"""The multiset-partition enumerator against sympy's multiset partitions.

``partitions._multiset_partitions`` must give every partition of a multiset,
each once, as sympy's ``multiset_partitions`` does, and ``lemma72_sum`` must
equal the vanishing sum taken over sympy's partitions.  sympy is a test-only
dependency: the module is skipped when it is missing.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

sympy_iterables = pytest.importorskip("sympy.utilities.iterables")

from klmov.partitions import _multiset_partitions, lemma72_sum, partitions_of  # noqa: E402


def _sympy_partitions(counts):
    """sympy's partitions of the multiset, each spelled as sorted count vectors."""
    elements = [i for i, n in enumerate(counts) for _ in range(n)]
    out = []
    for blocks in sympy_iterables.multiset_partitions(elements):
        vectors = [tuple(block.count(i) for i in range(len(counts))) for block in blocks]
        out.append(tuple(sorted(vectors, reverse=True)))
    return out


def _compositions(total):
    """Every count vector with positive entries summing to total."""
    if not total:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@pytest.mark.parametrize("total", range(1, 8))
def test_matches_sympy(total):
    vectors = list(_compositions(total))
    # zero counts, an atom that no part holds
    vectors += [(0,) + c for c in vectors[:4]] + [c[:1] + (0, 0) + c[1:] for c in vectors[-4:]]
    for counts in vectors:
        got = list(_multiset_partitions(counts))
        assert len(set(got)) == len(got), counts
        assert Counter(got) == Counter(_sympy_partitions(counts)), counts


# verify's vanishing-sum check: 43 weight vectors, then the single box
VANISHING_DVECS = [lam for n in range(2, 8) for lam in partitions_of(n)] + [(1,)]


def test_vanishing_check_enumerates_4239_partitions():
    assert len(VANISHING_DVECS) == 44
    assert sum(len(list(_multiset_partitions(d))) for d in VANISHING_DVECS) == 4239


def _sympy_lemma72_sum(dvec):
    """The vanishing sum over sympy's partitions of the multiset dvec."""
    total = Fraction(0)
    for parts in _sympy_partitions(dvec):
        r = len(parts)
        denom = prod(factorial(m) for m in Counter(parts).values())
        denom *= prod(factorial(entry) for v in parts for entry in v)
        total += Fraction((-1) ** (r - 1) * factorial(r - 1), denom)
    return total


def test_vanishing_sum_matches_sympy():
    for dvec in VANISHING_DVECS:
        assert lemma72_sum(dvec) == _sympy_lemma72_sum(dvec), dvec
