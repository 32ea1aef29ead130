"""Exact arithmetic: ring operations, substitution, division, z-basis,
valuation, rendering."""

import random
from fractions import Fraction
from math import comb

import pytest

from klmov import laurent
from klmov.errors import NotDivisible, NotPolynomial, NotZRepresentable, ZeroInput
from klmov.laurent import (
    RationalQT,
    from_z_basis,
    qdiff_inverse,
    rational_product,
    rational_sum,
    to_z_basis,
    valuation_at_q1,
)

Q = RationalQT({(1, 0): 1})
QI = RationalQT({(-1, 0): 1})
T = RationalQT({(0, 1): 1})
TI = RationalQT({(0, -1): 1})
Z = Q - QI
X = RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}) / Z


def over(num, den):
    """num / den for a term dict num and a q-only dict den, by /."""
    return RationalQT(num) / RationalQT({(a, 0): c for a, c in den.items()})


def test_difference_of_squares():
    assert (Q - QI) * (Q + QI) == RationalQT({(2, 0): 1, (-2, 0): -1})


def test_additive_inverse():
    assert (X + (-X)).is_zero


def test_loop_weight_times_z():
    assert X * Z == RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})


def test_substitute_t_sign():
    v = T - TI
    assert v.substitute(tsign=-1) == -(T - TI)


def test_substitute_q_power():
    assert Z.substitute(qpow=2, tpow=2) == RationalQT({(2, 0): 1, (-2, 0): -1})


def test_substitute_loop_weight():
    got = X.substitute(qpow=2, tpow=2)
    want = over({(2, 0): 1, (-2, 0): -1, (0, 2): 1, (0, -2): -1}, {2: 1, -2: -1})
    assert got == want


def test_substitute_identity_and_composition():
    assert X.substitute() == X
    assert X.substitute(qpow=2, tpow=3).substitute(qpow=3, tpow=2) == X.substitute(
        qpow=6, tpow=6
    )


def test_exact_div_q_only():
    num = RationalQT({(2, 0): 1, (-2, 0): -1})
    assert num / Z == Q + QI


def test_exact_div_t_only():
    num = RationalQT({(0, 2): 1, (0, -2): -1})
    assert num / (T - TI) == T + TI


def test_exact_div_failure():
    num = RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})
    with pytest.raises(NotDivisible):
        num / RationalQT({(0, 2): 1, (0, 0): -1})


def test_exact_div_rejects_a_quotient_outside_the_q_window():
    # flattened by t -> X^3, the univariate division is exact: -X^-6 - X^-7;
    # but an exact quotient has q-exponents in [0 - (-1), 2 - 1] = [1, 1],
    # and X^-6 maps back to q^3 t^-3
    with pytest.raises(NotDivisible) as window:
        (1 - Q**2) * TI**2 / (QI * T - Q)
    # a remainder gets the same message, with no flattened exponent
    with pytest.raises(NotDivisible) as remainder:
        (Q**2 - QI**2) * T / ((Q - QI) * (T + 1))
    assert str(window.value) == str(remainder.value) == "the divisor does not divide exactly"
    # a divisor wider in q than the dividend fails before flattening
    with pytest.raises(NotDivisible):
        T / (Q**3 * T + 1)


def test_exact_div_by_a_divisor_that_is_not_monic():
    # flattened, each divisor leads with 2 or 3, so the division runs in
    # Fractions; 2t + 2q keeps its content 2 and gives the quotient 1/2
    two_q_plus_1 = 2 * Q + 1
    assert two_q_plus_1 * (T + Q) / two_q_plus_1 == T + Q
    assert (T + Q) / (2 * T + 2 * Q) == Fraction(1, 2)
    y = 3 * Q**2 * T + Q + 2
    quotient = Q * T - 2 * QI + Fraction(5, 7)
    assert y * quotient / y == quotient
    for x, divisor in [(two_q_plus_1 * (T + Q) + 1, two_q_plus_1),
                       (y * quotient + T, y), (T + Q, 3 * T + Q)]:
        with pytest.raises(NotDivisible):
            x / divisor


def test_constants_hash_as_the_number_they_equal():
    for c in (2, -7, Fraction(3, 4), 0):
        x = RationalQT(c)
        assert x == c and hash(x) == hash(c)
        assert c in {x} and x in {c}
    assert 2 in {RationalQT(4) / 2}


def test_every_value_is_built_by_the_constructor(monkeypatch):
    # the arithmetic hands each result to RationalQT as a canonical triple,
    # so every value it builds, and only those, passes __init__
    built = []
    init = RationalQT.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalQT, "__init__", counted)
    # x - y is x + (-y): two values
    for op, values in [(lambda: X + T, 1), (lambda: X - T, 2), (lambda: X * T, 1),
                       (lambda: X * 3, 1), (lambda: -X, 1), (lambda: X / Z, 1),
                       (lambda: X.substitute(qpow=2, tsign=-1), 1),
                       (lambda: rational_sum([(X, 2), (T, Fraction(1, 3))]), 1)]:
        assert isinstance(op(), RationalQT)
        assert [type(x).__name__ for x in built] == ["_Canonical"] * values
        built.clear()
    # a copy or a raw value given to the constructor is counted once too
    assert RationalQT(X) == X and RationalQT({(0, 1): 1}) == T and len(built) == 2


def test_exact_div_zero_divisor():
    with pytest.raises(ZeroInput):
        Q / RationalQT(0)


@pytest.mark.parametrize("zero", [0, Fraction(0), RationalQT(0)],
                         ids=["int", "Fraction", "RationalQT"])
def test_every_zero_divisor_is_zero_input(zero):
    with pytest.raises(ZeroInput, match="division by zero polynomial"):
        RationalQT(1) / zero


def test_division_by_rational():
    w = X * (T - TI) + X * X
    assert w / X == (T - TI) + X


def test_z_basis_simple():
    assert to_z_basis(Z) == {(1, 0): 1}


def test_z_basis_even():
    got = to_z_basis(RationalQT({(2, 0): 1, (-2, 0): 1}))
    assert got == {(2, 0): 1, (0, 0): 2}


def test_z_basis_failure():
    with pytest.raises(NotZRepresentable):
        to_z_basis(Q + QI)


@pytest.mark.parametrize("value, leftover", [
    (Q + QI, "2*q^-1"),
    # both q-parity classes fail; the even one is reported
    (Z * Z * T + Q * Q + RationalQT({(3, 1): Fraction(1, 2), (-3, 1): Fraction(1, 2)}),
     "-q^-2"),
    (Z * T + RationalQT({(1, -1): 2, (-1, 2): 3}), "3*q^-1*t^2 + 2*q^-1*t^-1"),
], ids=["odd", "even-first", "several-t"])
def test_z_basis_failure_renders_the_leftover_terms(value, leftover):
    with pytest.raises(NotZRepresentable) as exc:
        to_z_basis(value)
    assert str(exc.value) == (
        f"value is not symmetric under q -> -1/q; leftover terms {leftover}"
    )


def test_not_polynomial_finding_follows_from_the_value():
    # the finding renders the remainder of the failing t-slice of least
    # t-exponent, whatever order the numerator's terms were inserted in
    terms = {(0, 1): 1, (1, 0): 1, (0, 0): -1, (0, -1): 2}
    forward = RationalQT(terms) / (Q - 1)
    backward = RationalQT(dict(reversed(list(terms.items())))) / (Q - 1)
    assert forward == backward
    for x in (forward, backward):
        with pytest.raises(NotPolynomial) as exc:
            to_z_basis(x)
        assert str(exc.value) == "remainder 2 in univariate division"


def test_z_basis_mixed_parity():
    value = Z * Z * Z + (T - TI) * Z * Z + RationalQT(5)
    got = to_z_basis(value)
    # the even q-parity class first, each z-power by descending t-exponent
    assert list(got.items()) == [((2, 1), 1), ((2, -1), -1), ((0, 0), 5), ((3, 0), 1)]
    assert from_z_basis(got) == value


def test_z_power_binomials_match_comb():
    for d in range(65):
        want = tuple((d - 2 * i, (-1) ** i * comb(d, i)) for i in range(d + 1))
        assert laurent._z_power_q(d) == want


def test_valuation_basics():
    assert valuation_at_q1(Z) == 1
    assert valuation_at_q1(RationalQT(1) / Z) == -1
    k5 = RationalQT({(5, 0): 1, (-5, 0): -1}) / Z
    assert valuation_at_q1(k5) == 0


def test_valuation_zero_input():
    with pytest.raises(ZeroInput):
        valuation_at_q1(RationalQT(0))


def test_valuation_additive_random():
    rng = random.Random(7)
    for _ in range(25):
        a = RationalQT(
            {(rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(1, 4)}
        ) / (Z if rng.random() < 0.5 else 1) + RationalQT(rng.randint(1, 3))
        b = Z ** rng.randint(0, 3) * rng.randint(1, 2)
        assert valuation_at_q1(a * b) == valuation_at_q1(a) + valuation_at_q1(b)


def test_canonical_denominator_is_monic_with_constant_term():
    x = over({(0, 0): 1}, {3: 2, 1: -2})
    assert min(x.den) == 0
    assert x.den[max(x.den)] == 1


def test_constructor_takes_a_numerator_only():
    x = over({(0, 0): 1}, {2: 1, -2: -1})
    assert RationalQT(x) == x
    for den in ({0: 1}, {2: 1, -2: -1}, None):
        with pytest.raises(TypeError):
            RationalQT({(2, 0): 1}, den)
    with pytest.raises(TypeError):
        RationalQT(x, {0: 1})


def test_denominator_is_stored_as_cyclotomic_multiplicities():
    # q^2 / (q^4 - 1) = q^2 / (Phi_1 Phi_2 Phi_4)
    x = over({(0, 0): 1}, {2: 1, -2: -1})
    assert x.mults == ((1, 1), (2, 1), (4, 1))
    assert x.num == {(2, 0): 1}
    assert x.den == {4: 1, 0: -1}
    assert x == over({(2, 0): 1}, {4: 1, 0: -1})
    # Phi_2(q^3) = Phi_2 Phi_6, Phi_4(q^3) = Phi_4 Phi_12, and so on
    assert x.substitute(qpow=3).mults == ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (12, 1))


@pytest.mark.parametrize("den", [{0: 3, 1: 1, 2: 1}, {0: Fraction(1, 2), 1: 1},
                                 {0: -2, 1: 1, 3: 1}],
                         ids=["q^2+q+3", "q+1/2", "(q-1)(q^2+q+2)"])
def test_non_cyclotomic_dense_denominator_raises(den):
    # no value has such a denominator: dividing by it fails unless the
    # factor that is not cyclotomic cancels
    with pytest.raises(NotDivisible, match="^the divisor does not divide exactly$"):
        over({(0, 0): 1}, den)
    with pytest.raises(NotDivisible):
        X * T / RationalQT({(a, 0): c for a, c in den.items()})
    assert over({(a, 1): 2 * c for a, c in den.items()}, den) == 2 * T


def test_division_keeps_a_non_cyclotomic_q_factor_in_the_numerator():
    f = RationalQT({(2, 0): 1, (1, 0): 1, (0, 0): 3})  # q^2 + q + 3
    w = T - TI + Q
    assert (X * f * w) / (f * w) == X
    with pytest.raises(NotDivisible):
        (X * w) / (f * w)


def test_ring_axioms_random():
    rng = random.Random(3)
    dens = [{0: 1}, {1: 1, -1: -1}, {1: 1, -1: 1}, {2: 1, 0: -2, -2: 1}]
    vals = []
    for _ in range(12):
        num = {
            (rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 3))
        }
        vals.append(over(num, rng.choice(dens)))
    for i in range(0, 12, 3):
        x, y, z = vals[i], vals[i + 1], vals[i + 2]
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def _eval_at(x, q0, t0):
    # independent oracle: evaluate the exact value at rational (q0, t0)
    num = sum(Fraction(c) * q0**a * t0**b for (a, b), c in x.num.items())
    den = sum(Fraction(c) * q0**a for a, c in x.den.items())
    return num / den


def test_arithmetic_matches_pointwise_evaluation():
    rng = random.Random(19)
    q0, t0 = Fraction(3, 2), Fraction(5, 7)
    dens = [{0: 1}, {1: 1, -1: -1}, {2: 1, 1: 1, 0: 1, -1: 1}]
    for _ in range(30):
        xs = []
        for _ in range(2):
            num = {
                (rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 4))
            }
            xs.append(over(num, rng.choice(dens)))
        x, y = xs
        assert _eval_at(x + y, q0, t0) == _eval_at(x, q0, t0) + _eval_at(y, q0, t0)
        assert _eval_at(x * y, q0, t0) == _eval_at(x, q0, t0) * _eval_at(y, q0, t0)
        assert _eval_at(x - y, q0, t0) == _eval_at(x, q0, t0) - _eval_at(y, q0, t0)
        # substitution evaluates to the value at the powered point
        assert _eval_at(x.substitute(qpow=2, tpow=3), q0, t0) == _eval_at(
            x, q0**2, t0**3
        )


def test_exact_div_matches_pointwise_evaluation():
    q0, t0 = Fraction(2), Fraction(3)
    w = {(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}
    x = RationalQT(w) * over({(2, 1): 3, (0, -1): 1}, {1: 1, -1: -1})
    quot = x / RationalQT(w)
    wval = q0 - 1 / q0 + t0 - 1 / t0
    assert _eval_at(quot, q0, t0) == _eval_at(x, q0, t0) / wval


def test_rational_sum_drops_zero_multiplier_coefficients():
    assert rational_sum([(RationalQT(1), {(0, 0): 0})]).is_zero
    got = rational_sum([(X, {(0, 0): 0, (1, 0): 2}), (T, 1), ((X, Q), {(2, 1): 0})])
    assert got == X * Q * 2 + T


def test_rational_sum_of_products():
    # a term may be a tuple of factors, RationalQT values or term dicts; it
    # stands for their product, and a zero factor drops the term
    num = {(1, 1): 3, (0, 0): -1}
    got = rational_sum([((X, num), Fraction(1, 2)), ((X, X, Z), -1), ((Q, RationalQT(0)), 5)])
    want = X * RationalQT(num) * Fraction(1, 2) - X * X * Z
    assert got == want
    assert rational_product([]) == 1
    assert rational_product([X]) is X
    assert rational_product([num, X, qdiff_inverse(2)]) == RationalQT(num) * X / (Q**2 - QI**2)


def test_equal_values_hash_alike_whatever_their_route():
    # (3/2 q t - q^-1) / (q - q^-1), built each way the library builds values
    want = RationalQT({(1, 1): Fraction(3, 2), (-1, 0): Fraction(-2, 2)}) / Z
    halved = RationalQT({(1, 1): 3, (-1, 0): -2})
    routes = [
        RationalQT({(1, 1): Fraction(3, 2), (-1, 0): -1}) / (Q - QI),
        # one product term whose sum cancels Phi_4 and the content 2
        rational_sum([((halved, Q + QI, qdiff_inverse(2)), Fraction(1, 2))]),
        rational_sum([(want, 3), (halved * Z, Fraction(-1, 1)), (want, -2), (halved * Z, 1)]),
        want.substitute(tsign=-1).substitute(tsign=-1),
        -(want * Fraction(-4, 3)) * Fraction(3, 4),
    ]
    table = {want: "found"}
    for x in routes:
        assert x == want and hash(x) == hash(want)
        assert table[x] == "found"
    doubled = over({(2, 2): Fraction(3, 2), (-2, 0): -1}, {2: 1, -2: -1})
    assert want.substitute(qpow=2, tpow=2) == doubled
    assert hash(want.substitute(qpow=2, tpow=2)) == hash(doubled)
