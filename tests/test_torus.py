"""Cabling constants and torus-link invariants."""

from fractions import Fraction
from itertools import product

import pytest

from klmov import torus
from klmov.errors import ComponentCountMismatch, NonIntegerExponent
from klmov.golden import (
    CTILDE_R1_L2,
    CTILDE_R1_L3,
    CTILDE_R2_L1,
    TORUS_SB_EXPANSIONS_2COMP,
    TORUS_SB_EXPANSIONS_KNOT,
)
from klmov.laurent import RationalQT
from klmov.lmov import free_energy, z_coefficient
from klmov.partitions import mp_len, mp_norm, partitions_of, transpose
from klmov.schur import loop_weight, pb_in_sb, sb_closed_form, sb_in_pb
from klmov.torus import (
    TorusLinkSpec,
    _torus_invariant_active,
    bracket_coefficients,
    cable_terms,
    ctilde,
    kauffman_bracket,
    torus_invariant,
    unlink_invariant,
)


def _mono(qe, te, c=1):
    return RationalQT({(qe, te): c})


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 4, 1).validate()
    assert TorusLinkSpec(1, 1, 2).validate().describe() == "T(2,2)"


def test_ctilde_tables():
    for table, r in ((CTILDE_R2_L1, 2), (CTILDE_R1_L2, 1), (CTILDE_R1_L3, 1)):
        for colors, want in table.items():
            got = ctilde(colors, r)
            for lam, val in want.items():
                assert got.get(lam, 0) == val, (colors, r, lam)
            assert not {k for k, v in got.items() if v} - set(want)


def test_ctilde_defining_identity():
    for colors in [((1,),), ((2,),), ((1, 1),), ((1,), (1,)), ((2,), (1,))]:
        for r in (1, 2):
            lhs = RationalQT(0)
            for lam, c in ctilde(colors, r).items():
                lhs = lhs + sb_closed_form(lam) * c
            rhs = RationalQT(1)
            for a in colors:
                rhs = rhs * sb_closed_form(a).substitute(qpow=r, tpow=r)
            assert lhs == rhs


def test_hopf_invariant():
    spec = TorusLinkSpec(1, 1, 2)
    got = torus_invariant(spec, ((1,), (1,)))
    want = (
        sb_closed_form((2,)) * _mono(2, 0)
        + sb_closed_form((1, 1)) * _mono(-2, 0)
        + _mono(0, -2)
    )
    assert got == want
    # the alternative closed form from the trace computation
    x = loop_weight()
    z = RationalQT({(1, 0): 1, (-1, 0): -1})
    tt = RationalQT({(0, 1): 1, (0, -1): -1})
    assert got == x * (tt / z + RationalQT(1) + z * tt)


@pytest.mark.parametrize("r, k, colors", [
    (3, 1, ((1,), (1,))),
    (2, 1, ((1,), (1,))),
    (3, 2, ((1,),)),
    (5, 3, ((1,),)),
    (2, 1, ((1,), (1,), (1,))),
    (5, 2, ((2,),)),
    (7, 2, ((2,),)),
])
def test_cabling_is_symmetric_in_r_and_k(r, k, colors):
    # T(rL, kL) = T(kL, rL): cabling through either parameter agrees
    assert _torus_invariant_active(r, k, colors) == _torus_invariant_active(k, r, colors)


def _signed_mirror(terms):
    """The terms with every monomial c q^a t^b mapped to (-1)^a c q^-a t^b."""
    return {lam: {(-a, b): -c if a % 2 else c for (a, b), c in m.items()}
            for lam, m in terms.items()}


@pytest.mark.parametrize("r, k", [(2, 3), (2, 5), (3, 4), (3, 5), (1, 1), (1, 2), (1, 3),
                                  (2, 1)])
def test_cable_terms_transpose_duality(r, k):
    # W_(A^T)(-1/q, t) = W_A(q, t) on the Rosso-Jones weights alone: the
    # terms of the transposed colors, signed and mirrored in q, are the
    # terms of the colors on the transposed labels
    for a in (a for n in (1, 2, 3) for a in partitions_of(n)):
        for colors in ((a,), (a, (1,))):
            dual = tuple(transpose(c) for c in colors)
            want = {transpose(lam): m for lam, m in cable_terms(r, k, colors).items()}
            assert _signed_mirror(cable_terms(r, k, dual)) == want, colors


# two rational points, so that q -> -1/q is checked on exact values
_POINTS = ((Fraction(3, 7), Fraction(5, 2)), (Fraction(-11, 4), Fraction(2, 9)))


def _value(x, q, t):
    """x at (q, t), as num / den in Fractions."""
    return (sum(c * q**a * t**b for (a, b), c in x.num.items())
            / sum(c * q**a for a, c in x.den.items()))


def _colors_upto(n, spec):
    """Every color of size at most n on each component of spec, the empty
    one included."""
    parts = [()] + [a for m in range(1, n + 1) for a in partitions_of(m)]
    return product(parts, repeat=spec.L)


@pytest.mark.parametrize("spec", [TorusLinkSpec(2, 3, 1), TorusLinkSpec(2, 5, 1),
                                  TorusLinkSpec(1, 1, 2), TorusLinkSpec(1, 2, 2)],
                         ids=["T(2,3)", "T(2,5)", "T(2,2)", "T(2,4)"])
def test_invariant_transpose_duality(spec):
    # W_(A^T)(-1/q, t) = W_A(q, t) on the whole invariant: cabling
    # constants, characters, framing and quantum dimensions together
    for colors in _colors_upto(2, spec):
        value = torus_invariant(spec, colors)
        dual = torus_invariant(spec, tuple(map(transpose, colors)))
        for q, t in _POINTS:
            assert _value(dual, -1 / q, t) == _value(value, q, t), colors


@pytest.mark.parametrize("spec", [TorusLinkSpec(2, 3, 1), TorusLinkSpec(1, 1, 2)],
                         ids=["T(2,3)", "T(2,2)"])
def test_free_energy_transpose_duality(spec):
    # F_mu(-1/q, t) = eps(mu) F_mu(q, t) + [mu is one row 2m] / m, with
    # eps(mu) = (-1)^(|mu| - l(mu)): the empty label of pb_(2m) in the
    # sb basis is not signed, and passes 1/m into F
    for mu in _colors_upto(3, spec):
        if not 0 < mp_norm(mu) <= 3:
            continue
        f = free_energy(spec, mu)
        eps = (-1) ** (mp_norm(mu) - mp_len(mu))
        rows = [row for lam in mu for row in lam]
        shift = Fraction(2, rows[0]) if len(rows) == 1 and rows[0] % 2 == 0 else 0
        for q, t in _POINTS:
            assert _value(f, -1 / q, t) == eps * _value(f, q, t) + shift, mu


def test_trefoil_invariant():
    got = torus_invariant(TorusLinkSpec(2, 3, 1), ((1,),))
    want = (
        sb_closed_form((2,)) * _mono(3, 0)
        - sb_closed_form((1, 1)) * _mono(-3, 0)
        + _mono(0, -3)
    ) * _mono(0, -3)
    assert got == want


def test_torus_expansion_sample():
    # one multi-term case from each family at one k value
    spec = TorusLinkSpec(1, 2, 2)
    terms = TORUS_SB_EXPANSIONS_2COMP[((2,), (2,))]
    want = RationalQT(0)
    for c, qs, ts, lam in terms:
        want = want + sb_closed_form(lam) * _mono(qs * 2, ts * 2, c)
    assert torus_invariant(spec, ((2,), (2,))) == want

    spec = TorusLinkSpec(2, 5, 1)
    terms = TORUS_SB_EXPANSIONS_KNOT[((1, 1),)]
    want = RationalQT(0)
    for c, qs, ts, lam in terms:
        want = want + sb_closed_form(lam) * _mono(qs * 5, ts * 5, c)
    assert torus_invariant(spec, ((1, 1),)) == want


def test_empty_component_deletion():
    spec = TorusLinkSpec(1, 1, 2)
    assert torus_invariant(spec, ((1,), ())) == sb_closed_form((1,))
    assert torus_invariant(spec, ((), ())) == RationalQT(1)
    spec3 = TorusLinkSpec(1, 1, 3)
    pairwise = torus_invariant(spec3, ((1,), (1,), ()))
    assert pairwise == torus_invariant(spec, ((1,), (1,)))


def test_component_count_mismatch():
    with pytest.raises(ComponentCountMismatch):
        torus_invariant(TorusLinkSpec(1, 1, 2), ((1,),))


def test_unlink_invariant():
    assert unlink_invariant(((1,),)) == sb_closed_form((1,))
    assert unlink_invariant(((), ())) == RationalQT(1)
    assert unlink_invariant(((1,), (1,))) == sb_closed_form((1,)) ** 2


def test_kauffman_bracket_unknot():
    assert kauffman_bracket(TorusLinkSpec(1, 1, 1)) == RationalQT(1)


def test_bracket_coefficients_hopf():
    got = bracket_coefficients(TorusLinkSpec(1, 1, 2))
    tau = RationalQT({(0, 1): 1, (0, -1): -1})
    assert got[-1] == tau
    assert got[0] == RationalQT(1)
    assert got[1] == tau
    assert set(got) == {-1, 0, 1}


def test_bracket_coefficients_t33():
    got = bracket_coefficients(TorusLinkSpec(1, 1, 3))
    tau = RationalQT({(0, 1): 1, (0, -1): -1})
    assert got[-2] == tau * tau
    assert got[-1] == 2 * tau
    assert got[0] == RationalQT(1) + 3 * tau * tau


def test_knot_exponents_integral_where_supported():
    # for one-component cables stray fractional framing exponents may only
    # occur where the cabling constant vanishes (checked for n*r <= 8)
    from fractions import Fraction

    from klmov.partitions import kappa, partitions_of

    for r, max_n in ((2, 4), (3, 2), (4, 2)):
        for n in range(1, max_n + 1):
            for a in partitions_of(n):
                for lam, c in ctilde((a,), r).items():
                    if not c:
                        continue
                    f2 = r * n - sum(lam)
                    assert Fraction(kappa(lam), r).denominator == 1, (r, a, lam)
                    assert Fraction(f2, r).denominator == 1, (r, a, lam)


def _fraction_ctilde(colors, r):
    """The cabling constants in Fraction arithmetic, an independent route: the
    product of the sb_in_pb expansions, Adams-transformed, expanded back over
    sb symbols."""
    prod = {(): 1}
    for a in colors:
        step = {}
        for k1, c1 in prod.items():
            for k2, c2 in sb_in_pb(a).items():
                key = tuple(sorted(k1 + k2, reverse=True))
                step[key] = step.get(key, 0) + c1 * c2
        prod = step
    out = {}
    for mu, c in prod.items():
        for lam, ch in pb_in_sb(tuple(r * p for p in mu)).items():
            out[lam] = out.get(lam, 0) + c * ch
    return {lam: Fraction(c) for lam, c in out.items() if c}


def _assert_integer_route(colors, r):
    got = ctilde(colors, r)
    assert got == _fraction_ctilde(colors, r), (colors, r)
    assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("r", [1, 2, 3])
def test_integer_ctilde_matches_the_fraction_route(r):
    # every ordered tuple of 1-3 nonempty colors with cable size r * n <= 8
    colors = [a for n in range(1, 9) for a in partitions_of(n)]
    checked = 0
    for m in (1, 2, 3):
        for tup in product(colors, repeat=m):
            if r * sum(map(sum, tup)) <= 8:
                _assert_integer_route(tup, r)
                checked += 1
    assert checked == {1: 919, 2: 33, 3: 4}[r]


def test_integer_ctilde_matches_the_fraction_route_on_single_colors():
    # every single color with cable size r * |a| <= 12; at r = 1 the table
    # is sb_a itself, which is exact and far cheaper than the Fraction route
    # past |a| = 8 (3 s at |a| = 12)
    for r in range(1, 13):
        for n in range(1, 12 // r + 1):
            for a in partitions_of(n):
                if r == 1:
                    assert ctilde((a,), 1) == {a: 1}, a
                else:
                    _assert_integer_route((a,), r)


def test_ctilde_edges():
    with pytest.raises(ValueError):
        ctilde(((1,),), 0)
    assert ctilde((), 2) == {(): 1}
    got = ctilde(((2,),), 2)
    want = dict(got)
    got.clear()
    assert want and ctilde(((2,),), 2) == want


def test_fractional_framing_exponent_is_rejected(monkeypatch):
    # T(3,4): 4 * kappa((2,)) / 3 is fractional, so a cabling constant at
    # (2,) must raise rather than be rounded; the memos are bypassed so the
    # patched table is read
    from klmov import lmov

    spec = TorusLinkSpec(3, 4, 1)
    unmemoised = torus.cable_terms.__wrapped__
    monkeypatch.setattr(torus, "_ctilde_entries", lambda colors, r: {(2,): Fraction(1)})
    monkeypatch.setattr(torus, "cable_terms", unmemoised)
    monkeypatch.setattr(lmov, "cable_terms", unmemoised)
    monkeypatch.setattr(torus, "_torus_invariant_active",
                        torus._torus_invariant_active.__wrapped__)
    with pytest.raises(NonIntegerExponent, match="at \\(2,\\) with coefficient 1"):
        torus_invariant(spec, ((1,),))
    with pytest.raises(NonIntegerExponent, match="at \\(2,\\) with coefficient 1"):
        z_coefficient.__wrapped__(spec, ((1,),))
