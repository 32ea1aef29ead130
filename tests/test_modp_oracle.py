"""Schwartz-Zippel identity test of Z_mu, F_mu, g_mu and the conjecture's
left-hand side modulo a prime.

The library's exact values are evaluated at seeded random points (q0, t0)
modulo p = 2^61 - 1, as num(q0, t0) * den(q0)^-1, and compared with the same
formulas recomputed here in scalars mod p.  Two different rational functions
agree at a random point with probability at most deg / p, so agreement at a
few points is strong evidence of equality (Schwartz, J. ACM 27, 1980; Zippel,
EUROSAM 1979).

The oracle takes only integer data from the library: Brauer characters
(brauer_character, multiplied over the components by the tests'
multi_character), z_mu (z_stat_multi), the cabling tables (ctilde), kappa,
the splittings and the Moebius function.  The framing exponents, the
hook-content quantum dimensions, the label-tuple sum, the Moebius sum over
the common row divisors and the conjecture's prefactor are written out here,
and the exact arithmetic module is never imported.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import pytest

from klmov.characters import brauer_character, brauer_labels
from klmov.lmov import conjecture_lhs, free_energy, reformulated_g, z_coefficient
from klmov.partitions import kappa, mobius, splittings, z_stat_multi
from klmov.torus import TorusLinkSpec, ctilde
from reference import multi_character

P = 2**61 - 1


class Vanishes(Exception):
    """A denominator vanishes at the chosen point."""


def inv(x):
    x %= P
    if not x:
        raise Vanishes
    return pow(x, P - 2, P)


def scalar(c):
    c = Fraction(c)
    return c.numerator * inv(c.denominator) % P


def power(x, e):
    return pow(x, e, P) if e >= 0 else pow(inv(x), -e, P)


def library_value(value, q0, t0):
    """A library RationalQT at (q0, t0): num(q0, t0) / den(q0) mod p."""
    num = sum(scalar(c) * power(q0, a) * power(t0, b) for (a, b), c in value.num.items())
    den = sum(scalar(c) * power(q0, a) for a, c in value.den.items())
    return num * inv(den) % P


def qdim(lam, q, t):
    """Hook-content quantum dimension of the orthogonal label lam.

    A diagonal cell (i, i) gives 1 + (t q^(l_i - l'_i) - 1/(t q^(l_i - l'_i)))
    / [h]; a cell (i, j) above the diagonal gives (t q^d - 1/(t q^d)) / [h]
    with d = l_i + l_j - i - j + 1, and one below it the same with
    d = i + j - 1 - l'_i - l'_j; [h] = q^h - q^-h for the hook length h.
    """
    def row(i):
        return lam[i - 1] if i <= len(lam) else 0

    def col(j):
        return sum(1 for part in lam if part >= j)

    out = 1
    for i in range(1, len(lam) + 1):
        for j in range(1, row(i) + 1):
            h = row(i) + col(j) - i - j + 1
            bracket = (power(q, h) - power(q, -h)) % P
            if i == j:
                d = row(i) - col(i)
            elif i < j:
                d = row(i) + row(j) - i - j + 1
            else:
                d = i + j - 1 - col(i) - col(j)
            x = t * power(q, d) % P
            cell = (x - inv(x)) * inv(bracket)
            out = out * ((cell + 1) if i == j else cell) % P
    return out


def cable_sum(r, k, colors, q, t):
    """The torus invariant of T(r, k) colored by a nonempty color tuple.

    sum_lam ctilde_lam q^(k (kappa(lam) - r^2 K) / r) t^(k (|lam| - r^2 n) / r)
    dim_q(lam), with n the total size and K the total kappa of the colors.
    """
    n = sum(sum(a) for a in colors)
    big_k = sum(kappa(a) for a in colors)
    out = 0
    for lam, c in ctilde(colors, r).items():
        qe, qrem = divmod(k * (kappa(lam) - r * r * big_k), r)
        te, trem = divmod(k * (sum(lam) - r * r * n), r)
        assert qrem == trem == 0, (r, k, colors, lam)
        out += scalar(c) * power(q, qe) * power(t, te) * qdim(lam, q, t)
    return out % P


@lru_cache(maxsize=None)
def z_mod_p(spec, mu, q, t):
    """Z_mu = sum over label tuples A of chi_A(mu) / z_mu W(A), where W drops
    the components with an empty label and W() = 1."""
    r, k = min(spec.r, spec.k), max(spec.r, spec.k)
    total = 0
    for avec in product(*(brauer_labels(sum(lam)) for lam in mu)):
        ch = multi_character(avec, mu)
        if not ch:
            continue
        active = tuple(a for a in avec if a)
        w = cable_sum(r, k, active, q, t) if active else 1
        total += scalar(Fraction(ch, z_stat_multi(mu))) * w
    return total % P


def f_mod_p(spec, mu, q, t):
    """F_mu = sum over splittings of coeff * prod Z_part."""
    total = 0
    for parts, coeff in splittings(mu):
        term = scalar(coeff)
        for part in parts:
            term = term * z_mod_p(spec, part, q, t) % P
        total += term
    return total % P


def g_mod_p(spec, mu, q, t):
    """g_mu = sum over the common divisors k of all rows of mu of
    mobius(k) / k F_{mu/k}(q^k, t^k)."""
    rows = gcd(*(row for lam in mu for row in lam))
    total = 0
    for k in range(1, rows + 1):
        if rows % k or not mobius(k):
            continue
        part = tuple(tuple(row // k for row in lam) for lam in mu)
        f = f_mod_p(spec, part, power(q, k), power(t, k))
        total += scalar(Fraction(mobius(k), k)) * f
    return total % P


def lhs_mod_p(spec, mu, q, t):
    """z_mu z^2 (g(q, t) - g(q, -t)) / 2 / prod_rows (q^row - q^-row)."""
    z = q - inv(q)
    odd = (g_mod_p(spec, mu, q, t) - g_mod_p(spec, mu, q, P - t)) * inv(2)
    out = z_stat_multi(mu) * z * z * odd
    for lam in mu:
        for row in lam:
            out = out * inv(power(q, row) - power(q, -row))
    return out % P


def z_basis_value(poly, q, t):
    """A z-basis dict {(zpow, texp): coefficient} at z = q - 1/q and t."""
    z = q - inv(q)
    return sum(scalar(c) * power(z, zp) * power(t, b) for (zp, b), c in poly.items()) % P


def points(seed, count=3):
    rng = random.Random(seed)
    while count:
        q0, t0 = rng.randrange(2, P - 1), rng.randrange(2, P - 1)
        yield q0, t0
        count -= 1


@pytest.mark.parametrize("mu", [(2, 1), (3, 1), (2, 2, 1)])
def test_oracle_quantum_dimensions_satisfy_the_unknot_identity(mu):
    # sum_A chi_A(mu) dim_q(A) = prod_i (1 + [t^mu_i] / [q^mu_i]) checks the
    # oracle's own hook-content formula against the characters alone
    for q, t in points(7):
        got = sum(
            brauer_character(a, mu) * qdim(a, q, t) for a in brauer_labels(sum(mu))
        ) % P
        want = 1
        for m in mu:
            ratio = (power(t, m) - power(t, -m)) * inv(power(q, m) - power(q, -m))
            want = want * (1 + ratio) % P
        assert got == want


ORACLE_CASES = [
    (TorusLinkSpec(1, 1, 2), ((4, 2), (2,))),  # table-large T(2,2) pool
    (TorusLinkSpec(2, 5, 1), ((3, 1),)),  # table-large T(2,5) pool
    (TorusLinkSpec(1, 2, 3), ((2,), (2,), (1, 1))),  # table-large T(3,6) pool
    (TorusLinkSpec(2, 3, 1), ((3,),)),
]


@pytest.mark.parametrize("spec, mu", ORACLE_CASES,
                         ids=["t22-4,2|2", "t25-3,1", "t36-2|2|1,1", "t23-3"])
def test_z_and_free_energy_agree_mod_p(spec, mu):
    z, f = z_coefficient(spec, mu), free_energy(spec, mu)
    checked = 0
    for q0, t0 in points(sum(map(sum, mu)) + 31 * spec.k):
        try:
            want_z, want_f = z_mod_p(spec, mu, q0, t0), f_mod_p(spec, mu, q0, t0)
            got_z, got_f = library_value(z, q0, t0), library_value(f, q0, t0)
        except Vanishes:
            continue
        assert got_z == want_z, (spec, mu, q0, t0)
        assert got_f == want_f, (spec, mu, q0, t0)
        checked += 1
    assert checked



@pytest.mark.parametrize("spec, mu", ORACLE_CASES + [(TorusLinkSpec(2, 3, 1), ((2, 2),))],
                         ids=["t22-4,2|2", "t25-3,1", "t36-2|2|1,1", "t23-3", "t23-2,2"])
def test_g_and_conjecture_lhs_agree_mod_p(spec, mu):
    g, lhs = reformulated_g(spec, mu), conjecture_lhs(spec, mu)
    checked = 0
    for q0, t0 in points(sum(map(sum, mu)) + 31 * spec.k + 1000):
        try:
            want_g, want_lhs = g_mod_p(spec, mu, q0, t0), lhs_mod_p(spec, mu, q0, t0)
            got_g = library_value(g, q0, t0)
        except Vanishes:
            continue
        assert got_g == want_g, (spec, mu, q0, t0)
        assert z_basis_value(lhs, q0, t0) == want_lhs, (spec, mu, q0, t0)
        checked += 1
    assert checked
