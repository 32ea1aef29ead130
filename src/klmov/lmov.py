"""Partition-function coefficients (for a torus link one Rosso-Jones sum over
cable labels), free energy, reformulated invariants, and the integrality /
degree / coefficient-relation checkers.

Everything is exact: a failed integrality or representability check raises a
typed error carrying the offending data, which the command-line layer reports
as a finding rather than a crash.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import NamedTuple

from .errors import ComponentCountMismatch, NonIntegerCoefficient
from .laurent import (
    RationalQT,
    Z,
    qdiff_inverse,
    rational_product,
    rational_sum,
    to_z_basis,
    valuation_at_q1,
)
from .partitions import (
    common_divisors,
    mobius,
    mp_div,
    mp_is_zero,
    mp_len,
    sub_multisets,
    z_stat_multi,
)
from .schur import evaluate_sb_element, pb_in_sb
from .torus import (
    TorusLinkSpec,
    bracket_coefficients,
    cable_terms,
    torus_invariant,
    unlink_invariant,
)

class UnlinkSpec(NamedTuple):
    """Disjoint union of L unknots."""

    L: int

    def describe(self):
        return f"unlink^{self.L}"


def invariant(src, colors):
    """Colored invariant of either source."""
    if isinstance(src, TorusLinkSpec):
        return torus_invariant(src, colors)
    if isinstance(src, UnlinkSpec):
        if len(colors) != src.L:
            raise ComponentCountMismatch(f"{len(colors)} colors for {src.L} components")
        return unlink_invariant(colors)
    raise TypeError(f"unknown invariant source {src!r}")


@lru_cache(maxsize=None)
def z_coefficient(src, mu):
    """Coefficient of pb_mu in the partition function.

    For a torus link or an unknot it is the Rosso-Jones sum: the label
    weights P_lam of _label_weights evaluated by schur.evaluate_sb_element,
    over the predicted denominator _row_poles(mu).  An unlink is the product
    of its one-component coefficients.
    """
    if len(mu) != src.L:
        raise ComponentCountMismatch(f"{len(mu)} colors for {src.L} components")
    if not isinstance(src, TorusLinkSpec) and src.L > 1:
        return rational_product(z_coefficient(UnlinkSpec(1), (lam,)) for lam in mu)
    return evaluate_sb_element(_label_weights(src, mu), expect=_row_poles(mu))


def _label_weights(src, mu):
    """The label weights {lam: P_lam} of Z_mu, each P_lam a {(a, b): c} term
    dict for the sum of c q^a t^b.

    sum_A chi_A(gamma_mu) / z_mu times the cable_terms of A, collected by
    cable label lam.  A runs over the label tuples of the sb-expansion of
    pb_mu, each a_i in pb_in_sb(mu_i), and chi_A is the product of those
    coefficients, the nonzero Brauer character values chi_(a_i)(gamma_(mu_i)).
    Empty labels drop their component, so the all-empty A gives lam = () with
    monomial 1; on an unknot the one label is A's color.  Coefficients that
    cancel stay in P_lam as zeros.
    """
    torus = isinstance(src, TorusLinkSpec)
    if torus:
        r, k = sorted(src.validate()[:2])
    z, collected = z_stat_multi(mu), {}
    for pairs in product(*(pb_in_sb(lam).items() for lam in mu)):
        active = tuple(a for a, _ in pairs if a)
        if torus and active:
            terms = cable_terms(r, k, active)
        else:
            terms = {active[0] if active else (): {(0, 0): 1}}
        w = Fraction(prod(c for _, c in pairs), z)
        for lam, monomial in terms.items():
            p = collected.setdefault(lam, {})
            for e, c in monomial.items():
                p[e] = p.get(e, 0) + w * c
    return collected


def _row_poles(mu):
    """The {d: m} of prod (q^row - q^-row) over every row of mu, each row
    adding one to the Phi_d with d | 2 row: the denominator that Z_mu has in
    every case tried (see rational_sum for what a miss costs)."""
    out = {}
    for lam in mu:
        for row in lam:
            for d, m in qdiff_inverse(row).mults:
                out[d] = out.get(d, 0) + m
    return out


@lru_cache(maxsize=None)
def free_energy(src, mu):
    """Coefficient of pb_mu in the logarithm of the partition function.

    The logarithmic-derivative recursion (Knuth, TAOCP Vol. 2, 4.7): Z =
    exp F and p_nu p_rho is p of the union of their rows, so the number c
    of copies of one row of one component is a derivation, and c(mu) Z_mu
    is the sum of c(rho) F_rho Z_(mu - rho) over the sub-multisets rho of
    mu's rows with c(rho) > 0.  The row is the largest of the first colored
    component, as it stays in every such rho.  So F_mu is one rational_sum
    of Z_mu and the terms -c(rho)/c(mu) F_rho Z_(mu - rho) over proper rho,
    each of at most two factors; a vanishing F_rho drops its term.  Counting
    every row instead takes about twice the terms.

    F_mu is predicted to be a Laurent polynomial when mu has two or more rows
    in all, and to be Z_mu, with its denominator, for one row.
    """
    if mp_is_zero(mu):
        raise ValueError("cannot split the zero multi-partition")
    alpha = next(i for i, lam in enumerate(mu) if lam)
    row = mu[alpha][0]
    n, terms = mu[alpha].count(row), [(z_coefficient(src, mu), 1)]
    for rho, rest in sub_multisets(mu):
        c = rho[alpha].count(row)
        if c and not mp_is_zero(rest):
            f = free_energy(src, rho)
            if not f.is_zero:
                terms.append(((f, z_coefficient(src, rest)), Fraction(-c, n)))
    return rational_sum(terms, expect={} if mp_len(mu) > 1 else _row_poles(mu))


@lru_cache(maxsize=None)
def reformulated_g(src, mu):
    """Moebius-inverted free energy over simultaneous row divisors.

    Predicted to have the simple pole Phi_1 Phi_2 for one row and to be a
    Laurent polynomial otherwise, as F is.
    """
    if mp_is_zero(mu):
        raise ValueError("needs a nonzero multi-partition")
    terms = []
    for k in common_divisors(mu):
        mk = mobius(k)
        if not mk:
            continue
        f = free_energy(src, mp_div(mu, k))
        terms.append((f.substitute(qpow=k, tpow=k), Fraction(mk, k)))
    return rational_sum(terms, expect={1: 1, 2: 1} if mp_len(mu) == 1 else {})


def conjecture_lhs(src, mu, antisymmetrize=True):
    """The candidate integer-coefficient polynomial in z and t, as the
    z-basis dict {(zpow, texp): coefficient} of to_z_basis.

    z_mu z^2 g / prod(q^row - q^-row), with g replaced by its odd t-part when
    antisymmetrize is set.  The value is one rational_sum term: z^2 and each
    1 / (q^row - q^-row) are its factors, so nothing is divided and it is
    canonicalized once, over the predicted denominator 1.  Raises
    NotPolynomial / NotZRepresentable when the value fails to land in the
    polynomial ring; callers treat those as findings.
    """
    g = reformulated_g(src, mu)
    factors = (Z, Z) + tuple(qdiff_inverse(row) for lam in mu for row in lam)
    if antisymmetrize:
        # the denominator is q-only, so (g(t) - g(-t)) / 2 keeps the odd-t terms
        g = rational_sum(((g, Fraction(1, 2)), (g.substitute(tsign=-1), Fraction(-1, 2))))
    return to_z_basis(rational_sum([((g,) + factors, z_stat_multi(mu))], expect={}))


def extract_n_table(poly, mu):
    """The N table {(g, beta): n} of a z-basis dict: its coefficient of
    z^2g t^beta, for g a half-integer Fraction, must be the integer n."""
    entries = {}
    for (zp, b), c in poly.items():
        frac = Fraction(c)
        if frac.denominator != 1:
            raise NonIntegerCoefficient(
                f"coefficient {frac} at z^{zp} t^{b} for mu={mu}"
            )
        entries[(Fraction(zp, 2), b)] = int(frac)
    return entries


class DegreeResult(NamedTuple):
    valuation: int | None
    bound: int
    passed: bool


def degree_check(src, mu):
    """Order of vanishing of the free energy at q = 1 against len(mu) - 2."""
    f = free_energy(src, mu)
    target = mp_len(mu) - 2
    if f.is_zero:
        return DegreeResult(None, target, True)
    val = valuation_at_q1(f)
    return DegreeResult(val, target, val >= target)


def column_integrality_check(src, dvec):
    """d! z^(2-d) F on column colors lands in the integer polynomial ring."""
    mu = tuple((1,) * d for d in dvec)
    f = free_energy(src, mu)
    if f.is_zero:
        return True
    d = sum(dvec)
    dfact = 1
    for di in dvec:
        dfact *= factorial(di)
    # z^(2-d): d - 2 factors 1/z, or one factor z below d = 2
    zs = (qdiff_inverse(1),) * (d - 2) if d >= 2 else (Z,)
    poly = to_z_basis(rational_sum((((f,) + zs, dfact),), expect={}))
    return all(c.denominator == 1 for c in poly.values())


def lickorish_millett_check(spec):
    """Verify the two low-order bracket-coefficient relations for a torus link.

    Both relations express p_{2-L} and p_{3-L} of the link through the
    coefficients of its knot components and pairwise sublinks; for torus
    links all components agree and all pairwise sublinks agree, so the
    permutation sums collapse to multiplicities.
    """
    spec = TorusLinkSpec(*spec).validate()
    L = spec.L
    if L == 1:
        return True
    tau = RationalQT({(0, 1): 1, (0, -1): -1})
    p_link = bracket_coefficients(spec)
    p_knot = bracket_coefficients(TorusLinkSpec(spec.r, spec.k, 1))
    k0 = p_knot.get(0, 0)
    k1 = p_knot.get(1, 0)
    k2 = p_knot.get(2, 0)

    # p_{2-L} = (L-1) tau^(L-2) k0^L + tau^(L-1) * L * k1 k0^(L-1)
    rhs = (L - 1) * tau ** (L - 2) * k0**L + L * tau ** (L - 1) * k1 * k0 ** (L - 1)
    if p_link.get(2 - L, 0) != rhs:
        return False

    # p_{3-L} = C(L-1,2) tau^(L-3) k0^L
    #         + tau^(L-2) C(L,2) p1(pair) k0^(L-2)
    #         - (L-2) tau^(L-1) L k2 k0^(L-1)
    pair = bracket_coefficients(TorusLinkSpec(spec.r, spec.k, 2))
    pair1 = pair.get(1, 0)
    rhs = comb(L, 2) * tau ** (L - 2) * pair1 * k0 ** (L - 2)
    if L >= 3:
        rhs = rhs + comb(L - 1, 2) * tau ** (L - 3) * k0**L
        rhs = rhs - (L - 2) * L * tau ** (L - 1) * k2 * k0 ** (L - 1)
    return p_link.get(3 - L, 0) == rhs
