"""Differential tests of the exact arithmetic against sympy.

Canonical forms of ``RationalQT`` values, sums (pairwise and over one lcm),
sums of product terms, products, powers, exact division, the substitution
q -> q^k, t -> +-t^j and the valuation at q = 1 are compared with sympy's
``cancel`` (denominator made monic) on seeded random inputs, and the
specialization t = q^m with sympy's univariate division.  The
denominators are products of cyclotomic polynomials of low order or of
order 100 to 250, non-cyclotomic ones, ones with fractional coefficients,
and mixtures of these; a value num / den is built with ``/``, which must
raise ``NotDivisible`` exactly where sympy's cancelled denominator keeps a
factor that is not cyclotomic.  ``qdiff_inverse`` is compared with sympy's
1 / (q^n - q^-n), ``to_z_basis`` with sympy's substitution z = q - 1/q
(and ``from_z_basis`` must invert it), and the rendered text of a value
with sympy's reading of it.  The multiplicity of Phi_d found by derivative tests is
compared with sympy's, and ``rational_sum`` with the earlier route kept here
as a reference: dict products with each cofactor, then one Phi_d cancelled
per round while every t-slice allows it.  A sum over a predicted denominator
must equal sympy's value whether the prediction is right, one Phi_d short
(it falls back to the search over the whole lcm), one Phi_d long, names a
Phi_d outside the lcm, or the sum is zero.  The quantum dimension of the
transpose of a label, with q -> -1/q substituted by sympy, must equal the
label's own.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

sympy = pytest.importorskip("sympy")

from klmov.errors import NotDivisible, NotPolynomial, NotZRepresentable  # noqa: E402
from klmov import laurent  # noqa: E402
from klmov.laurent import (  # noqa: E402
    RationalQT,
    from_z_basis,
    qdiff_inverse,
    rational_product,
    rational_sum,
    render_qt,
    to_z_basis,
    valuation_at_q1,
)
from klmov.partitions import partitions_of, transpose  # noqa: E402
from klmov.schur import sb_closed_form  # noqa: E402

q, t = sympy.symbols("q t")


NON_CYCLOTOMIC = ({0: 3, 1: 1, 2: 1}, {0: -2, 3: 1}, {0: 5, 2: 1, 4: 1})
# orders 100 <= d <= 250 whose Phi_d has degree at most 48, so sympy stays fast
HIGH_ORDERS = [d for d in range(100, 251) if sympy.totient(d) <= 48]
FRACTIONAL = ({0: 1, 1: 2}, {0: Fraction(3, 4), 1: Fraction(1, 2)}, {0: Fraction(1, 3), 2: 1})


def rational(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


class Frac:
    """q^i t^j * num / den for sympy polynomials num and den."""

    def __init__(self, num, den, shift):
        self.num, self.den, self.shift = num, den, shift

    @classmethod
    def of(cls, num, den):
        (n, (i, j)), (d, (k, _)) = to_poly(num), to_poly({(a, 0): c for a, c in den.items()})
        return cls(n, d, (i - k, j))

    def _aligned(self, other):
        """Both numerators, over the smaller of the two monomial shifts."""
        i, j = min(self.shift[0], other.shift[0]), min(self.shift[1], other.shift[1])

        def lift(f):
            mono = q ** (f.shift[0] - i) * t ** (f.shift[1] - j)
            return f.num * sympy.Poly(mono, q, t, domain="QQ")

        return lift(self), lift(other), (i, j)

    def __add__(self, other):
        a, b, shift = self._aligned(other)
        return Frac(a * other.den + b * self.den, self.den * other.den, shift)

    def __sub__(self, other):
        a, b, shift = self._aligned(other)
        return Frac(a * other.den - b * self.den, self.den * other.den, shift)

    def __mul__(self, other):
        shift = (self.shift[0] + other.shift[0], self.shift[1] + other.shift[1])
        return Frac(self.num * other.num, self.den * other.den, shift)

    def expr(self):
        return self.num.as_expr() * q ** self.shift[0] * t ** self.shift[1] / self.den.as_expr()

    def divided_by(self, terms):
        poly, (i, j) = to_poly(terms)
        return Frac(self.num, self.den * poly, (self.shift[0] - i, self.shift[1] - j))

    def canonical(self):
        """(num, den) of the canonical form, read off sympy's cancelled fraction."""
        num, den = self.num.cancel(self.den, include=True)
        (i, j), rest = den.terms_gcd()
        lc = rest.LC()
        assert rest.degree(t) == 0
        i, j = self.shift[0] - i, self.shift[1] - j
        return (
            {(a + i, b + j): as_fraction(c / lc) for (a, b), c in num.terms()},
            {a: as_fraction(c / lc) for (a, _), c in rest.terms()},
        )


def to_poly(terms):
    """A Laurent dict as (sympy polynomial, (least qexp, least texp))."""
    i, j = min(a for a, _ in terms), min(b for _, b in terms)
    shifted = {(a - i, b - j): rational(c) for (a, b), c in terms.items()}
    return sympy.Poly.from_dict(shifted, q, t, domain="QQ"), (i, j)


def as_fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def canonical(x):
    return ({k: Fraction(c) for k, c in x.num.items()},
            {a: Fraction(c) for a, c in x.den.items()})


def cyclotomic(d):
    return {a: int(c) for (a,), c in sympy.Poly(sympy.cyclotomic_poly(d, q), q).terms()}


def q_poly(p):
    """A q-only Laurent dict times a power of q, as a sympy polynomial in q."""
    low = min(p)
    return sympy.Poly(sum(rational(c) * q ** (a - low) for a, c in p.items()), q, domain="QQ")


def is_cyclotomic_product(den):
    """Whether den, a unit c q^k times a product of the test's q-polynomials,
    has no factor from NON_CYCLOTOMIC or FRACTIONAL, which are irreducible
    and not cyclotomic; sympy checks the divisions."""
    poly = q_poly(den)
    return not any(poly.rem(q_poly(f)).is_zero for f in NON_CYCLOTOMIC + FRACTIONAL)


def over(num, den):
    """num / den by /, for a term dict num and a q-only dict den."""
    return RationalQT(num) / RationalQT({(a, 0): c for a, c in den.items()})


def built(num, den):
    """num / den, or None after checking that / raises NotDivisible, which
    it must exactly when sympy's cancelled denominator keeps a factor that
    is not cyclotomic."""
    if is_cyclotomic_product(Frac.of(num, den).canonical()[1]):
        return over(num, den)
    with pytest.raises(NotDivisible, match="^the divisor does not divide exactly$"):
        over(num, den)
    return None


def multiply(p1, p2):
    out = {}
    for a1, c1 in p1.items():
        for a2, c2 in p2.items():
            out[a1 + a2] = out.get(a1 + a2, 0) + c1 * c2
    return {a: c for a, c in out.items() if c}


def random_laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        c = rng.randint(-5, 5)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 6))
        key = (rng.randint(-4, 4), rng.randint(-2, 2))
        terms[key] = terms.get(key, 0) + c
    terms = {k: c for k, c in terms.items() if c}
    return terms or {(0, 0): 1}


def random_factors(rng, family):
    if family == "cyclotomic":
        pool = [cyclotomic(d) for d in rng.sample(range(1, 25), 3)]
    elif family == "high-order":
        pool = [cyclotomic(rng.choice(HIGH_ORDERS))]
    elif family == "non-cyclotomic":
        pool = list(NON_CYCLOTOMIC)
    elif family == "fractional":
        pool = list(FRACTIONAL)
    else:
        pool = [cyclotomic(d) for d in rng.sample(range(1, 13), 2)]
        pool.append(rng.choice(NON_CYCLOTOMIC + FRACTIONAL))
    return [f for f in pool for _ in range(rng.randint(0, 2))] or [pool[0]]


def random_rational(rng, family):
    """A random num / den whose numerator shares some factors with den."""
    factors = random_factors(rng, family)
    den = {0: 1}
    for f in factors:
        den = multiply(den, f)
    # a unit c * q^k in the denominator must not change the canonical form
    shift, unit = rng.randint(-3, 3), rng.choice((1, -2, Fraction(3, 5)))
    den = {a + shift: unit * c for a, c in den.items()}
    num = random_laurent(rng)
    for f in factors:
        if rng.random() < 0.5:
            num = times_q_poly(num, f)
    return num, den


def times_q_poly(num, p):
    out = {}
    for (a, b), c in num.items():
        for e, pc in p.items():
            out[(a + e, b)] = out.get((a + e, b), 0) + c * pc
    return {k: c for k, c in out.items() if c}


FAMILIES = ("cyclotomic", "non-cyclotomic", "fractional", "mixed", "high-order")
CYCLOTOMIC_FAMILIES = ("cyclotomic", "high-order")


@pytest.mark.parametrize("family", FAMILIES)
def test_canonical_form_matches_sympy(family):
    # built checks against sympy where / must raise NotDivisible; beyond the
    # cyclotomic families both outcomes occur
    rng = random.Random(f"canonical-{family}")
    outcomes = set()
    for _ in range(20):
        num, den = random_rational(rng, family)
        x = built(num, den)
        outcomes.add(x is None)
        if x is not None:
            assert canonical(x) == Frac.of(num, den).canonical()
    assert outcomes == ({False} if family in CYCLOTOMIC_FAMILIES else {False, True})


def test_qdiff_inverse_matches_division_and_sympy():
    for n in range(1, 31):
        x = qdiff_inverse(n)
        assert x == RationalQT(1) / RationalQT({(n, 0): 1, (-n, 0): -1})
        assert canonical(x) == Frac.of({(0, 0): 1}, {n: 1, -n: -1}).canonical()
        parsed = sympy.sympify(str(x).replace("^", "**"), locals={"q": q})
        assert sympy.cancel(parsed - 1 / (q**n - q**-n)) == 0


def test_rendering_parses_back_in_sympy():
    # str(x) is read by sympy's parser, an independent reading of the grammar
    rng = random.Random(11)
    cases = []
    for _ in range(25):
        num = {
            (rng.randint(-3, 3), rng.randint(-2, 2)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 4))
        }
        cases.append((num, rng.choice([{0: 1}, {1: 1, -1: -1}, {2: 1, 0: 1}])))
    fractional = {(1, 1): Fraction(3, 2), (-2, 0): Fraction(-5, 4), (0, -1): 7}
    cases += [(fractional, cyclotomic(d)) for d in (3, 4, 6)]
    for num, den in cases:
        x = over(num, den)
        parsed = sympy.sympify(str(x).replace("^", "**"), locals={"q": q, "t": t})
        assert sympy.cancel(parsed - Frac.of(num, den).expr()) == 0, str(x)


@pytest.mark.parametrize("family", FAMILIES)
def test_sum_and_product_match_sympy(family):
    rng = random.Random(f"ring-{family}")
    for _ in range(15):
        x = built(*random_rational(rng, family))
        y = built(*random_rational(rng, family))
        if x is None or y is None:
            continue
        fx, fy = Frac.of(x.num, x.den), Frac.of(y.num, y.den)
        assert canonical(x + y) == (fx + fy).canonical()
        assert canonical(x - y) == (fx - fy).canonical()
        assert canonical(x * y) == (fx * fy).canonical()


# t-dependent divisor factors: monic q t + c once flattened, leading
# coefficients other than +-1 (with int or Fraction coefficients), t-degree 2
# and negative t-exponents
T_FACTORS = (
    {(1, 1): 1, (0, 0): 1},
    {(1, 1): 1, (0, 0): -3},
    {(1, 1): 3, (0, 0): -2},
    {(2, 1): Fraction(-5, 2), (0, 0): 1, (-1, 0): Fraction(1, 3)},
    {(0, 2): 1, (1, 1): -2, (-1, 0): 3},
    {(2, 2): 2, (0, 1): 1, (0, 0): -1},
    {(0, -1): 1, (1, 0): 4},
    {(1, 1): 1, (-2, -2): -3},
)


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_div_matches_sympy(family):
    rng = random.Random(f"div-{family}")
    for _ in range(15):
        x = over(*random_rational(
            rng, family if family in CYCLOTOMIC_FAMILIES else "cyclotomic"))
        # divisor: a q-only factor times a t-dependent factor of the dividend
        qpart = rng.choice(random_factors(rng, family))
        tpart = rng.choice(T_FACTORS)
        divisor = times_q_poly(tpart, qpart)
        if is_cyclotomic_product(qpart):
            # the divisor's cyclotomic q-content moves to the denominator
            multiple = x * RationalQT(tpart)
        else:
            # any other q-factor must divide exactly, so the dividend carries it
            multiple = x * RationalQT(divisor)
            with pytest.raises(NotDivisible):
                x * RationalQT(tpart) / RationalQT(divisor)
        want = Frac.of(multiple.num, multiple.den).divided_by(divisor)
        assert canonical(multiple / RationalQT(divisor)) == want.canonical()


@pytest.mark.parametrize("family", FAMILIES)
def test_power_matches_sympy(family):
    rng = random.Random(f"power-{family}")
    for _ in range(6):
        x = built(*random_rational(rng, family))
        if x is None:
            continue
        fx, want = Frac.of(x.num, x.den), Frac.of({(0, 0): 1}, {0: 1})
        for n in range(5):
            got = x**n
            assert canonical(got) == want.canonical()
            assert got == reduce(RationalQT.__mul__, [x] * n, RationalQT(1))
            want = want * fx


def q1_order(poly):
    m = 0
    while poly.eval(q, 1).is_zero:
        poly = poly.exquo(sympy.Poly(q - 1, q, t, domain="QQ"))
        m += 1
    return m


@pytest.mark.parametrize("family", FAMILIES)
def test_valuation_at_q1_matches_sympy(family):
    rng = random.Random(f"valuation-{family}")
    for _ in range(20):
        num, den = random_rational(rng, family)
        if rng.random() < 0.5:
            num = times_q_poly(num, {1: 1, 0: -1})
        x = built(num, den)
        if x is None:
            continue
        f = Frac.of(num, den)
        n, d = f.num.cancel(f.den, include=True)
        assert valuation_at_q1(x) == q1_order(n) - q1_order(d)


def random_term(rng, family, previous):
    """(x, m) for rational_sum: x may be zero, share the previous term's
    denominator or raise the multiplicity of one of its factors, and is None
    when its denominator is not cyclotomic; m is an int (maybe 0), a
    Fraction or a monomial dict."""
    num, den = random_rational(rng, family)
    roll = rng.random()
    if roll < 0.15:
        x = RationalQT(0)
    elif roll < 0.35 and previous is not None:
        x = built(num, previous.den)
    elif roll < 0.6 and previous is not None:
        x = built(num, multiply(previous.den, rng.choice(random_factors(rng, family))))
    else:
        x = built(num, den)
    roll = rng.random()
    if roll < 0.3:
        m = rng.randint(-3, 3)
    elif roll < 0.6:
        m = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 9))
    else:
        c = rng.choice((1, -2, Fraction(5, 3)))
        m = {(rng.randint(-3, 3), rng.randint(-2, 2)): c}
    return x, m


def as_terms(m):
    return m if isinstance(m, dict) else {(0, 0): m}


@pytest.mark.parametrize("family", FAMILIES)
def test_rational_sum_matches_sympy(family):
    rng = random.Random(f"rational-sum-{family}")
    for _ in range(12):
        terms = []
        for _ in range(rng.randint(2, 8)):
            x, m = random_term(rng, family, terms[-1][0] if terms else None)
            if x is not None:
                terms.append((x, m))
        rng.shuffle(terms)
        fracs = [
            Frac.of(x.num, x.den) * Frac.of(as_terms(m), {0: 1})
            for x, m in terms
            if x.num and m
        ]
        want = reduce(Frac.__add__, fracs).canonical() if fracs else ({}, {0: Fraction(1)})
        got = rational_sum(terms)
        assert canonical(got) == want
        pairwise = (x * RationalQT(as_terms(m)) for x, m in terms)
        assert got == reduce(RationalQT.__add__, pairwise, RationalQT(0))


def random_factor(rng, previous):
    """A factor for a product term: a term dict, or a RationalQT whose
    denominator may be the previous factor's, raise one of its Phi_d or be
    scaled by a Fraction unit."""
    num, den = random_rational(rng, "cyclotomic")
    roll = rng.random()
    if roll < 0.25 and previous is not None:
        return over(num, previous.den)
    if roll < 0.5 and previous is not None:
        return over(num, multiply(previous.den, cyclotomic(rng.randint(1, 12))))
    if roll < 0.75:
        return num
    return over(num, den)


def num_den(f):
    return (f.num, f.den) if isinstance(f, RationalQT) else (f, {0: 1})


def test_rational_sum_of_products_matches_sympy():
    rng = random.Random("rational-sum-products")
    for i in range(10):
        terms, previous = [], None
        for _ in range(rng.randint(1, 4)):
            factors = []
            for _ in range(rng.randint(1, 2)):
                f = random_factor(rng, previous)
                previous = f if isinstance(f, RationalQT) else previous
                factors.append(f)
            m = rng.choice((1, -2, Fraction(3, 7), {(1, -1): Fraction(-5, 4)}))
            terms.append((tuple(factors), m))
        # one sum in three has a factor of high order, one in four a zero one
        factors, m = terms[-1]
        if i % 3 == 0:
            factors += (over(*random_rational(rng, "high-order")),)
        if i % 4 == 1:
            factors = (RationalQT(0) if i % 8 == 1 else {},) + factors
        terms[-1] = factors, m
        live = [(factors, m) for factors, m in terms if all(num_den(f)[0] for f in factors)]
        fracs = [
            reduce(Frac.__mul__, (Frac.of(*num_den(f)) for f in factors))
            * Frac.of(as_terms(m), {0: 1})
            for factors, m in live
        ]
        want = reduce(Frac.__add__, fracs).canonical() if fracs else ({}, {0: Fraction(1)})
        got = rational_sum(terms)
        assert canonical(got) == want
        pairwise = (
            reduce(RationalQT.__mul__, (over(*num_den(f)) for f in factors))
            * RationalQT(as_terms(m))
            for factors, m in terms
        )
        assert got == reduce(RationalQT.__add__, pairwise)


def z_substituted(terms):
    """sum c * (q - 1/q)^z * t^b as a Laurent dict, expanded by sympy."""
    expr = sum(rational(c) * (q - 1 / q) ** z * t**b for (z, b), c in terms.items())
    poly = sympy.Poly(sympy.expand(expr * q**8 * t**3), q, t, domain="QQ")
    return {(a - 8, b - 3): as_fraction(c) for (a, b), c in poly.terms()}


def random_z_terms(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        c = rng.choice((1, -1)) * rng.randint(1, 9)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 5))
        terms[(rng.randint(0, 6), rng.randint(-2, 2))] = c
    return terms


def test_to_z_basis_matches_sympy():
    rng = random.Random("z-basis")
    for _ in range(25):
        terms = random_z_terms(rng)
        lau = z_substituted(terms)
        # a common factor in num and den must cancel before the rewrite
        f = rng.choice([cyclotomic(d) for d in (1, 2, 3, 6, 4, 12, 105)])
        x = over(times_q_poly(lau, f), f)
        assert to_z_basis(x) == terms
        assert from_z_basis(to_z_basis(x)) == x
        # / cancels a common factor that is not cyclotomic as well
        y = over(times_q_poly(lau, NON_CYCLOTOMIC[0]), NON_CYCLOTOMIC[0])
        assert y == x and to_z_basis(y) == terms
        a = rng.choice((-3, -2, -1, 1, 2, 3))
        asymmetric = dict(lau)
        asymmetric[(a, 0)] = asymmetric.get((a, 0), 0) + 1
        with pytest.raises(NotZRepresentable):
            to_z_basis(RationalQT(asymmetric))


@pytest.mark.parametrize("family", CYCLOTOMIC_FAMILIES)
def test_to_z_basis_fails_exactly_when_mults_remain(family):
    # no Phi_d of a canonical value's mults divides every t-slice, so a value
    # with mults is not a Laurent polynomial and one without is its num
    rng = random.Random(f"z-basis-mults-{family}")
    seen = set()
    for _ in range(20):
        terms = random_z_terms(rng)
        factors = random_factors(rng, family)
        den = reduce(multiply, factors, {0: rng.choice((1, -2, Fraction(3, 5)))})
        num = z_substituted(terms)
        for f in factors:
            if rng.random() < 0.7:
                num = times_q_poly(num, f)
        x = over(num, den)
        assert (Frac.of(num, den).canonical()[1] == {0: 1}) == (not x.mults)
        seen.add(bool(x.mults))
        if not x.mults:
            assert from_z_basis(to_z_basis(x)) == x
            continue
        # the finding renders the remainder of the least failing t-slice
        slices = {}
        for (a, b), c in x.num.items():
            slices.setdefault(b, {})[a] = c
        rems = (q_poly(slices[b]).rem(q_poly(x.den)) for b in sorted(slices))
        rem = next(r for r in rems if not r.is_zero)
        rest = render_qt({(a, 0): as_fraction(c) for (a,), c in rem.terms()})
        with pytest.raises(NotPolynomial) as exc:
            to_z_basis(x)
        assert str(exc.value) == f"remainder {rest} in univariate division"
    assert seen == {False, True}


def random_q_laurent(rng, lead):
    """A q-only Laurent dict with negative exponents and the given leading
    coefficient; others are ints or Fractions."""
    lo = rng.randint(-4, 2)
    p = {}
    for a in range(lo, lo + rng.randint(0, 4)):
        c = rng.randint(-4, 4)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 5))
        if c:
            p[a] = c
    p[max(p, default=lo) + rng.randint(1, 2)] = lead
    return p


def test_q_only_division_matches_sympy():
    # divisors that are not monic, with int or Fraction coefficients; half
    # the dividends are perturbed so the division mostly fails.  / agrees
    # with sympy's quotient when it divides, with sympy's cancelled fraction
    # when only a cyclotomic factor is left over, and refuses the rest; over
    # a cyclotomic denominator, to_z_basis renders sympy's remainder
    rng = random.Random("p1-div-exact")
    fails, monic, seen = 0, set(), set()
    for i in range(60):
        den = random_q_laurent(rng, rng.choice((1, -1, 3, -2, Fraction(3, 4), Fraction(-5, 2))))
        num = multiply(random_q_laurent(rng, rng.choice((1, -3, Fraction(2, 7)))), den)
        if i % 2:
            e = rng.randint(min(num) - 2, max(num))
            num[e] = num.get(e, 0) + rng.choice((1, -2, Fraction(1, 3)))
            num = {a: c for a, c in num.items() if c}
        terms = {(a, 0): c for a, c in num.items()}
        x, y = RationalQT(terms), RationalQT({(a, 0): c for a, c in den.items()})
        monic.add(y.rows[-1][2][-1] == 1)
        quo, rem = q_poly(num).div(q_poly(den))
        if rem.is_zero:
            got = x / y
            shift = min(num) - min(den)
            want = {(a + shift, 0): as_fraction(c) for (a,), c in quo.terms()}
            assert (got.num, got.mults) == (want, ())
            assert all(type(c) in (int, Fraction) for c in got.num.values())
        else:
            fails += 1
            _, left = q_poly(num).cancel(q_poly(den), include=True)
            pole_only = all(f.is_cyclotomic for f, _ in left.factor_list()[1])
            seen.add(pole_only)
            if pole_only:
                assert canonical(x / y) == Frac.of(terms, den).canonical()
            else:
                with pytest.raises(NotDivisible) as exc:
                    x / y
                assert str(exc.value) == "the divisor does not divide exactly"
        cyclotomic_den = reduce(multiply, map(cyclotomic, rng.sample(range(1, 13), 2)), {0: 1})
        pole = over(terms, cyclotomic_den)
        if pole.mults:
            seen.add("pole")
            rest = q_poly({a: c for (a, _), c in pole.num.items()}).rem(q_poly(pole.den))
            rest = render_qt({(a, 0): as_fraction(c) for (a,), c in rest.terms()})
            with pytest.raises(NotPolynomial) as exc:
                to_z_basis(pole)
            assert str(exc.value) == f"remainder {rest} in univariate division"
    assert 10 < fails < 50 and monic == {False, True} and seen == {False, True, "pole"}


@pytest.mark.parametrize("m", (-3, -1, 2, 5))
def test_specialize_t_matches_sympy(m):
    # num = F den + (t - q^m) G specializes at t = q^m to F(q, q^m) den, yet
    # keeps den in mults; one value in three is perturbed by a monomial, so
    # its specialization is mostly not a Laurent polynomial
    rng = random.Random(f"specialize-t-{m}")
    seen = set()
    for i in range(15):
        den = reduce(multiply, random_factors(rng, "cyclotomic"), {0: 1})
        num = times_q_poly(random_laurent(rng), den)
        for key, c in times_qt_poly(random_laurent(rng), {(0, 1): 1, (m, 0): -1}).items():
            num[key] = num.get(key, 0) + c
        if i % 3 == 2:
            key = (rng.randint(-4, 4), rng.randint(-2, 2))
            num[key] = num.get(key, 0) + Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        num = {key: c for key, c in num.items() if c}
        x = over(num, den)
        merged = {}
        for (a, b), c in num.items():
            merged[a + m * b] = merged.get(a + m * b, 0) + c
        quo, rem = q_poly({a: c for a, c in merged.items() if c}).div(q_poly(den))
        seen.add((x.scale > 1, bool(x.mults), rem.is_zero))
        if rem.is_zero:
            shift = min(a for a, c in merged.items() if c) - min(den)
            assert x.specialize_t(m) == {a + shift: as_fraction(c) for (a,), c in quo.terms()}
        else:
            with pytest.raises(NotDivisible, match="^the divisor does not divide exactly$"):
                x.specialize_t(m)
    assert {(True, True, True), (True, True, False)} <= seen


@pytest.mark.parametrize("k", range(1, 9))
def test_substitute_matches_sympy(k):
    # Phi_d(q^k) splits into the Phi_e(q) with e | dk and e / gcd(e, k) = d
    rng = random.Random(f"substitute-{k}")
    for _ in range(6):
        num, den = random_rational(rng, "cyclotomic")
        j, sign = rng.randint(1, 3), rng.choice((1, -1))
        got = over(num, den).substitute(qpow=k, tsign=sign, tpow=j)
        num = {(a * k, b * j): -c if sign < 0 and b % 2 else c for (a, b), c in num.items()}
        den = {a * k: c for a, c in den.items()}
        assert canonical(got) == Frac.of(num, den).canonical()


@pytest.mark.parametrize("n", range(6))
def test_quantum_dimension_transpose_duality(n):
    # sb_closed_form(A^T)(-1/q, t) = sb_closed_form(A)(q, t): transposing
    # keeps each hook length and negates each cell's content
    for a in partitions_of(n):
        x, y = sb_closed_form(transpose(a)), sb_closed_form(a)
        dual = Frac.of(x.num, x.den).expr().subs(q, -1 / q)
        assert sympy.cancel(dual - Frac.of(y.num, y.den).expr()) == 0, a


# ---------------------------------------------------------------------------
# rational_sum against the earlier route: each term's int numerator times its
# cofactor as a dict product, accumulated into one dict, then cancelled one
# Phi_d at a time while every t-slice allows it
# ---------------------------------------------------------------------------


def dict_product(num, cofactor):
    out = {}
    for (a, b), c in num.items():
        for e, pc in cofactor.items():
            out[(a + e, b)] = out.get((a + e, b), 0) + c * pc
    return {k: c for k, c in out.items() if c}


def round_robin(num, mults):
    """(num', mults') of num / prod Phi_d^mults[d], dividing every slice by
    one Phi_d per round while all allow it."""
    if not num:
        return {}, ()
    slices = {}
    for (a, b), c in num.items():
        slices.setdefault(b, {})[a] = c
    slices = {b: (min(row), [row.get(a, 0) for a in range(min(row), max(row) + 1)])
              for b, row in slices.items()}
    kept = []
    for d, m in sorted(mults.items()):
        phi, k = laurent._cyclotomic(d), 0
        while k < m and not any(any(laurent._div_monic(p, phi)[1]) for _, p in slices.values()):
            slices = {b: (lo, laurent._div_monic(p, phi)[0]) for b, (lo, p) in slices.items()}
            k += 1
        if k < m:
            kept.append((d, m - k))
    num = {(lo + i, b): Fraction(c)
           for b, (lo, p) in slices.items() for i, c in enumerate(p) if c}
    return num, tuple(kept)


def reference_sum(terms):
    """The sum as Fraction dict products, built from each RationalQT's .num
    and .mults and the raw monomials, times each cofactor, then cancelled by
    round_robin."""
    parts = []
    for x, m in terms:
        num, mults = as_terms(m), {}
        for f in x if isinstance(x, tuple) else (x,):
            num = times_qt_poly(num, f.num)
            for d, e in f.mults:
                mults[d] = mults.get(d, 0) + e
        if num:
            parts.append((num, mults))
    top = {}
    for _, f in parts:
        for d, e in f.items():
            top[d] = max(e, top.get(d, 0))
    acc = {}
    for num, f in parts:
        cofactor = {a: c for a, c in enumerate(laurent._cofactor(top, f)) if c}
        for key, c in dict_product(num, cofactor).items():
            acc[key] = acc.get(key, 0) + c
    return round_robin({k: c for k, c in acc.items() if c}, top)


def times_qt_poly(p1, p2):
    out = {}
    for (a1, b1), c1 in p1.items():
        for (a2, b2), c2 in p2.items():
            out[(a1 + a2, b1 + b2)] = out.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def power(p, n):
    return reduce(multiply, [p] * n, {0: 1})


def phi12_term(rng):
    """A value whose numerator and denominator carry Phi_1 and Phi_2 to
    multiplicities up to 8, with slices of nonzero least exponent."""
    num = random_laurent(rng)
    num = {(a + rng.randint(-6, 6), b): c for (a, b), c in num.items()}
    num = times_q_poly(num, multiply(power(cyclotomic(1), rng.randint(0, 8)),
                                     power(cyclotomic(2), rng.randint(0, 8))))
    den = multiply(power(cyclotomic(1), rng.randint(0, 8)), power(cyclotomic(2), rng.randint(0, 8)))
    return over(num, den)


@pytest.mark.parametrize("family", ("cyclotomic", "mixed", "high-order", "phi-1-2"))
def test_rational_sum_matches_round_robin_reference(family):
    rng = random.Random(f"reference-{family}")
    for i in range(12):
        terms = []
        for _ in range(rng.randint(1, 6)):
            if family == "phi-1-2":
                x, m = phi12_term(rng), rng.choice((1, -3, Fraction(2, 5), {(3, -2): 2}))
            else:
                x, m = random_term(rng, family, terms[-1][0] if terms else None)
            if x is not None:
                terms.append((x, m))
        if i % 3 == 0 and terms:
            # a sum of products, and the negation of every term: the total is 0
            terms.append(((terms[0][0], terms[-1][0]), Fraction(-7, 3)))
            terms += [(x, -m if not isinstance(m, dict) else {k: -c for k, c in m.items()})
                      for x, m in terms]
        target = None
        if i % 3 == 1 and terms:
            # a last term over the lcm so far that leaves target, whose
            # numerator carries Phi_1 and Phi_2 beyond their multiplicities
            # in that lcm: the cap keeps them in the numerator
            target = RationalQT(times_q_poly(random_laurent(rng), multiply(
                power(cyclotomic(1), 3), power(cyclotomic(2), 2))))
            total = reduce(RationalQT.__add__, (x * RationalQT(as_terms(m)) for x, m in terms))
            terms.append((target - total, 1))
        got, (num, mults) = rational_sum(terms), reference_sum(terms)
        assert (canonical(got)[0], got.mults) == (num, mults)
        if i % 3 == 0:
            assert not got and got.mults == ()
        if target is not None:
            assert got == target


def sympy_multiplicity(p, d):
    poly, phi, m = q_poly(p), sympy.Poly(sympy.cyclotomic_poly(d, q), q, domain="QQ"), 0
    while poly.rem(phi).is_zero:
        poly, m = poly.exquo(phi), m + 1
    return m


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 12, 30] + HIGH_ORDERS[:2])
def test_multiplicity_matches_sympy(d):
    # the multiplicity of Phi_d in the gcd of the rows, found by testing the
    # successive derivatives; the cap bounds it
    rng = random.Random(f"multiplicity-{d}")
    for _ in range(8):
        rows = []
        for _ in range(rng.randint(1, 3)):
            p = multiply(power(cyclotomic(d), rng.randint(0, 4)),
                         {a: rng.randint(-3, 3) for a in range(rng.randint(0, 5))} or {0: 1})
            p = {a: c for a, c in p.items() if c} or {0: 1}
            rows.append([p.get(a, 0) for a in range(min(p), max(p) + 1)])
        want = min(sympy_multiplicity({a: c for a, c in enumerate(p) if c}, d) for p in rows)
        deg = min(len(p) for p in rows) - 1
        assert laurent._multiplicity(rows, d, deg) == want
        assert laurent._multiplicity(rows, d, max(want - 1, 0)) == max(want - 1, 0)
    # a nonzero constant has no cyclotomic factor; a zero row passes every
    # test, so there only the cap ends the search
    assert laurent._multiplicity([[5]], d, 3) == 0
    assert laurent._multiplicity([[0]], d, 3) == 3
    assert laurent._cyclotomic_content([[7]]) == ([[7]], {})


def product_frac(factors):
    return reduce(Frac.__mul__, (Frac.of(*num_den(f)) for f in factors))


@pytest.mark.parametrize("place", ("first", "middle", "last"))
def test_one_coefficient_factor_matches_sympy(place):
    # a monomial c q^a t^b with a negative Fraction c and b != 0 is applied
    # as a shift and a scale of the rows, wherever it stands in the product
    rng = random.Random(f"one-coefficient-{place}")
    for _ in range(8):
        factors, previous = [], None
        for _ in range(rng.randint(2, 3)):
            f = random_factor(rng, previous)
            previous = f if isinstance(f, RationalQT) else previous
            factors.append(f)
        c = -Fraction(rng.randint(1, 9), rng.randint(2, 7))
        mono = {(rng.randint(-4, 4), rng.choice((-2, -1, 1, 3))): c}
        at = {"first": 0, "middle": 1, "last": len(factors)}[place]
        factors.insert(at, mono)
        want = product_frac(factors).canonical()
        assert canonical(rational_product(factors)) == want
        # the same monomial as the multiplier of a one-term sum
        rest = factors[:at] + factors[at + 1:]
        assert canonical(rational_sum([(tuple(rest), mono)])) == want
        # and in a sum of two terms, next to a term without it
        other = over(*random_rational(rng, "cyclotomic"))
        got = rational_sum([(tuple(factors), 1), (other, Fraction(2, 3))])
        want2 = (product_frac(factors) + Frac.of(other.num, other.den)
                 * Frac.of({(0, 0): Fraction(2, 3)}, {0: 1})).canonical()
        assert canonical(got) == want2
    # a zero coefficient makes the product zero
    assert not rational_product([over(*random_rational(rng, "cyclotomic")), {(2, 1): 0}])


@pytest.mark.parametrize("m", (1, -1, Fraction(3, 2)))
def test_one_part_sum_matches_sympy(m):
    # a sum of one part takes its rows times its coefficient, with no
    # cofactor pass; the product's content test still cancels shared Phi_d
    rng = random.Random(f"one-part-{m}")
    for _ in range(10):
        num, den = random_rational(rng, "cyclotomic")
        x = over(num, den)
        scale = Frac.of({(0, 0): m}, {0: 1})
        assert canonical(rational_sum([(x, m)])) == (Frac.of(num, den) * scale).canonical()
        raw, _ = random_rational(rng, "cyclotomic")
        got = rational_sum([((x, raw), m)])
        assert canonical(got) == (Frac.of(num, den) * Frac.of(raw, {0: 1}) * scale).canonical()
        assert canonical(rational_sum([((raw,), m)])) == (Frac.of(raw, {0: 1}) * scale).canonical()


@pytest.mark.parametrize("case", ("leading", "trailing", "zero-slice", "no-cut"))
def test_sums_that_cut_slices_match_sympy(case):
    # x + y over one denominator, where the accumulated t-slice loses its
    # low end, its high end, all of it, or nothing
    x, y = {
        "leading": ({(0, 1): 2, (3, 1): 1, (1, 0): 1}, {(0, 1): -2}),
        "trailing": ({(0, 1): 1, (3, 1): 4, (1, 0): 1}, {(3, 1): -4, (2, 1): 1}),
        "zero-slice": ({(0, 1): 1, (2, 2): 3, (4, 2): -1}, {(2, 2): -3, (4, 2): 1}),
        "no-cut": ({(0, 1): 1, (-2, -1): 5}, {(1, 1): 1}),
    }[case]
    rng = random.Random(f"cut-{case}")
    for den in ({0: 1}, cyclotomic(3), multiply(cyclotomic(1), cyclotomic(6))):
        shift = rng.randint(-3, 3)
        x = {(a + shift, b): c for (a, b), c in x.items()}
        y = {(a + shift, b): c for (a, b), c in y.items()}
        got = rational_sum([(over(x, den), 1), (over(y, den), 1)])
        assert canonical(got) == (Frac.of(x, den) + Frac.of(y, den)).canonical()


def test_trimmed_cuts_zero_ends_and_keeps_an_uncut_row():
    row = [3, 0, -1]
    acc = {0: [2, [0, 0, 5, 0]], 1: [-1, [0, 0, 0]], 2: [0, [1, 0, 2, 0, 0]], 3: [4, row]}
    got = laurent._trimmed(acc)
    assert got == [(0, 4, [5]), (2, 0, [1, 0, 2]), (3, 4, [3, 0, -1])]
    assert got[-1][2] is row
    assert laurent._trimmed({5: [0, [0]]}) == []


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per predicted division of rational_sum: True where C left
    a remainder and the sum fell back to the search over the whole lcm."""
    seen = []
    predicted = laurent._predicted

    def spy(polys, top, expect):
        out = predicted(polys, top, expect)
        seen.append(out is None)
        return out

    monkeypatch.setattr(laurent, "_predicted", spy)
    return seen


def cancelling_sum(rng):
    """(terms, mults, lcm) of m y as the sum of (y + w) m and -m w: y and w
    are cyclotomic values, so the lcm of the terms holds w's denominator
    while the value keeps only y's, the mults of its canonical form."""
    while True:
        y, w = (over(*random_rational(rng, "cyclotomic")) for _ in range(2))
        m = rng.choice((1, -3, Fraction(2, 5), {(1, -1): Fraction(-5, 4)}))
        neg = {k: -c for k, c in m.items()} if isinstance(m, dict) else -m
        terms = [(y + w, m), (w, neg)]
        top = {}
        for x, _ in terms:
            for d, e in x.mults:
                top[d] = max(e, top.get(d, 0))
        mults = dict(y.mults)
        if mults and top != mults:
            return terms, mults, top


def sympy_sum(terms):
    fracs = [Frac.of(x.num, x.den) * Frac.of(as_terms(m), {0: 1}) for x, m in terms if x]
    return reduce(Frac.__add__, fracs).canonical()


@pytest.mark.parametrize("case", ("right", "one-phi-too-small", "one-phi-too-large",
                                  "outside-the-lcm"))
def test_predicted_denominator_matches_sympy(case, fallbacks):
    # the rows are divided once by lcm / gcd(lcm, expect); a prediction
    # short of one Phi_d leaves a remainder and falls back to the search
    # over the whole lcm, one Phi_d too many (or a Phi_d outside the lcm)
    # divides exactly and the search on min(lcm, expect) finds the rest
    rng = random.Random(f"predicted-{case}")
    for _ in range(8):
        terms, mults, top = cancelling_sum(rng)
        expect = dict(mults)
        if case == "one-phi-too-small":
            d = rng.choice(sorted(mults))
            expect[d] -= 1
        elif case == "one-phi-too-large":
            d = rng.choice(sorted(top))
            expect[d] = mults.get(d, 0) + 1
        elif case == "outside-the-lcm":
            expect[max(top) + rng.randint(1, 30)] = 2
        fallbacks.clear()
        got = rational_sum(terms, expect)
        assert canonical(got) == sympy_sum(terms)
        assert got == rational_sum(terms)
        assert fallbacks == [case == "one-phi-too-small"]


@pytest.mark.parametrize("expect", ({}, {1: 1, 2: 1}, {3: 2, 101: 1}))
def test_predicted_sum_that_cancels_to_zero(expect, fallbacks):
    rng = random.Random(f"predicted-zero-{sorted(expect)}")
    for _ in range(5):
        (x, m), (w, neg) = cancelling_sum(rng)[0]
        y = x - w
        terms = [(x, m), (w, neg), (y, neg)]
        got = rational_sum(terms, expect)
        assert got == RationalQT(0) and not got.mults
        fracs = (Frac.of(x.num, x.den) * Frac.of(as_terms(m), {0: 1}) for x, m in terms)
        assert reduce(Frac.__add__, fracs).num.is_zero
    assert fallbacks == []


def test_one_part_sum_keeping_a_pole_falls_back(fallbacks):
    # a Laurent polynomial predicted for a value with a pole: the division
    # by the whole denominator fails, and the finding of to_z_basis keeps
    # its text
    rng = random.Random("predicted-one-part")
    for _ in range(8):
        num, den = random_rational(rng, "cyclotomic")
        x = over(num, den)
        if not x.mults:
            continue
        raw, _ = random_rational(rng, "cyclotomic")
        fallbacks.clear()
        got = rational_sum([((x, raw), 2)], expect={})
        assert fallbacks == [True] and got.mults
        want = Frac.of(num, den) * Frac.of(raw, {0: 1}) * Frac.of({(0, 0): 2}, {0: 1})
        assert canonical(got) == want.canonical()
        plain = rational_sum([((x, raw), 2)])
        assert got == plain
        with pytest.raises(NotPolynomial) as predicted:
            to_z_basis(got)
        with pytest.raises(NotPolynomial) as unpredicted:
            to_z_basis(plain)
        assert str(predicted.value) == str(unpredicted.value)
