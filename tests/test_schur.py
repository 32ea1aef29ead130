"""Power-sum / type-B Schur transitions and quantum dimensions."""

import re
from fractions import Fraction

import pytest

from klmov.golden import PB_IN_SB, SB_IN_PB, sb_closed_reference
from klmov.laurent import RationalQT, rational_product
from klmov.partitions import partitions_of, transpose
from klmov.schur import (
    evaluate_sb_element,
    pb_in_sb,
    pb_value,
    sb_closed_form,
    sb_in_pb,
    sb_in_pb_scaled,
    unknot_identity_check,
)
from klmov.torus import TorusLinkSpec, cable_terms, torus_invariant


def test_pb_in_sb_reference_lines():
    for mu, want in PB_IN_SB.items():
        assert pb_in_sb(mu) == {k: v for k, v in want.items() if v}


@pytest.mark.parametrize("transition", [pb_in_sb, sb_in_pb_scaled])
def test_memoised_transitions_are_read_only(transition):
    got = transition((2,))
    with pytest.raises(TypeError):
        got[(2,)] = 0
    assert transition((2,)) is got
    assert 0 not in got.values()


def test_sb_in_pb_is_a_fresh_dict():
    got = sb_in_pb((2,))
    got[(2,)] = 0
    assert sb_in_pb((2,)) == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2), (): -1}


@pytest.mark.parametrize("mu", [(2, 0), (1, 1, 0), (3, -1)])
def test_pb_in_sb_wants_a_class(mu):
    with pytest.raises(KeyError):
        pb_in_sb(mu)


@pytest.mark.parametrize("a", [(2, 3), (2, 0), (3, -1)])
def test_sb_in_pb_wants_a_partition(a):
    with pytest.raises(ValueError, match=rf"^not a partition: {re.escape(str(a))}$"):
        sb_in_pb(a)


def test_sb_in_pb_reference_lines():
    for a, want in SB_IN_PB.items():
        got = {k: Fraction(v) for k, v in sb_in_pb(a).items()}
        assert got == {k: Fraction(v) for k, v in want.items() if v}


def test_round_trip_is_identity():
    # substituting the sb_in_pb expansion back through pb_in_sb recovers sb_a
    for n in range(0, 7):
        for a in partitions_of(n):
            acc = {}
            for mu, c in sb_in_pb(a).items():
                for lam, ch in pb_in_sb(mu).items():
                    acc[lam] = acc.get(lam, 0) + c * ch
            assert {lam: c for lam, c in acc.items() if c} == {a: 1}


def test_closed_forms_match_reference():
    for a, want in sb_closed_reference().items():
        assert sb_closed_form(a) == want


def per_cell_product(a):
    """The quantum dimension of a as the product of one factor per cell,
    canonicalized by the generic route: each cell's numerator divided by
    q^h - q^-h with /, then row products and one content test."""
    at = transpose(a)

    def row(i):
        return a[i - 1] if i <= len(a) else 0

    def col(j):
        return at[j - 1] if j <= len(at) else 0

    cells = []
    for i in range(1, len(a) + 1):
        for j in range(1, a[i - 1] + 1):
            h = row(i) + col(j) - i - j + 1
            if i == j:
                e = row(j) - col(j)
                num = {(e, 1): 1, (-e, -1): -1}
                num[(h, 0)] = num.get((h, 0), 0) + 1
                num[(-h, 0)] = num.get((-h, 0), 0) - 1
            else:
                d = row(i) + row(j) - i - j + 1 if i < j else -col(i) - col(j) + i + j - 1
                num = {(d, 1): 1, (-d, -1): -1}
            cells.append(RationalQT(num) / RationalQT({(h, 0): 1, (-h, 0): -1}))
    return rational_product(cells)


def test_hook_product_matches_the_per_cell_route():
    # every Brauer label of size <= 10 (all partitions of 0..10)
    labels = [a for n in range(11) for a in partitions_of(n)]
    assert len(labels) == 139
    for a in labels:
        got, want = sb_closed_form(a), per_cell_product(a)
        assert got == want, a
        assert (got.scale, got.rows, got.mults) == (want.scale, want.rows, want.mults), a


def test_closed_form_vs_linear_algebra_route():
    # replacing each pb_mu in sb_in_pb(a) by its product evaluation must
    # reproduce the closed form
    for n in range(0, 5):
        for a in partitions_of(n):
            acc = RationalQT(0)
            for mu, c in sb_in_pb(a).items():
                term = RationalQT(1)
                for row in mu:
                    term = term * pb_value(row)
                acc = acc + term * c
            assert acc == sb_closed_form(a)


def test_quantum_dimension_positive_integers():
    # specializing t = q^(2N) gives a Laurent polynomial with nonnegative
    # integer coefficients once N exceeds the number of boxes
    for n in range(1, 5):
        lam = (n,)
        for big_n in range(n + 1, 5):
            poly = sb_closed_form(lam).specialize_t(2 * big_n)
            assert all(
                isinstance(c, int) or Fraction(c).denominator == 1 for c in poly.values()
            )
            assert all(c > 0 for c in poly.values())


def test_evaluate_sb_element():
    assert evaluate_sb_element({(1,): 1}) == sb_closed_form((1,))
    got = evaluate_sb_element(pb_in_sb((2,)))
    assert got == pb_value(2)
    assert evaluate_sb_element({}) == RationalQT(0)
    # term-dict coefficients: the Rosso-Jones sum of the trefoil colored (2),
    # the same under a prediction that is right, short by Phi_4 or has an
    # extra Phi_3
    want = torus_invariant(TorusLinkSpec(2, 3, 1), ((2,),))
    assert dict(want.mults) == {1: 2, 2: 2, 4: 1}
    terms = cable_terms(2, 3, ((2,),))
    for expect in (None, {1: 2, 2: 2, 4: 1}, {1: 2, 2: 2, 4: 0}, {1: 2, 2: 2, 3: 1, 4: 1}):
        assert evaluate_sb_element(terms, expect=expect) == want


def test_unknot_identity():
    for mu in [(1,), (2, 1), (1, 1, 1, 1), (3,), (2, 2)]:
        assert unknot_identity_check(mu)
