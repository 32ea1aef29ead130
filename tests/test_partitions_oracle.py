"""Algorithm M against sympy's multiset partitions.

``partitions._multiset_partitions`` must give every partition of a multiset,
each once, as sympy's ``multiset_partitions`` does.  sympy is a test-only
dependency: the module is skipped when it is missing.
"""

from collections import Counter

import pytest

sympy_iterables = pytest.importorskip("sympy.utilities.iterables")

from klmov.partitions import _multiset_partitions, partitions_of  # noqa: E402


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
    # zero counts, which Algorithm M itself does not take
    vectors += [(0,) + c for c in vectors[:4]] + [c[:1] + (0, 0) + c[1:] for c in vectors[-4:]]
    for counts in vectors:
        got = list(_multiset_partitions(counts))
        assert len(set(got)) == len(got), counts
        assert Counter(got) == Counter(_sympy_partitions(counts)), counts


def test_vanishing_check_enumerates_4239_partitions():
    # verify's vanishing-sum check: 43 weight vectors, then the single box
    dvecs = [lam for n in range(2, 8) for lam in partitions_of(n)]
    assert len(dvecs) == 43
    assert sum(len(list(_multiset_partitions(d))) for d in dvecs + [(1,)]) == 4239
