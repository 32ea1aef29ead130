"""Power-sum and type-B Schur basis transitions, and quantum dimensions.

A combination of power-sum symbols pb_mu (the empty partition is the
constant 1) or of type-B Schur symbols sb_A over Brauer labels is a plain
mapping {partition: coefficient} with no zero coefficients.  The two bases
are exchanged through the Brauer character transition; the memoised
transitions hand out read-only views, so no caller can change the memo.  sb
symbols evaluate to exact rational functions of (q, t) through the
hook-content product formula for quantum dimensions, and evaluate_sb_element
is the one evaluator of their combinations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from . import laurent
from .characters import brauer_column, brauer_labels
from .errors import NonIntegerCoefficient
from .partitions import is_partition, partitions_of, transpose, z_stat


def render_basis(coeffs, symbol):
    """Text of a {partition: coefficient} combination over symbol(...),
    largest size first; the empty partition is the constant."""
    return laurent.render_terms(
        (coeffs[key], f"{symbol}({','.join(map(str, key))})" if key else "")
        for key in sorted(coeffs, key=lambda k: (sum(k), k), reverse=True)
    )


@lru_cache(maxsize=None)
def pb_in_sb(mu):
    """Expand pb_mu over sb symbols via the Brauer character transition."""
    mu = tuple(mu)
    column = zip(brauer_labels(sum(mu)), brauer_column(mu))
    return MappingProxyType({a: c for a, c in column if c})


@lru_cache(maxsize=None)
def sb_in_pb_scaled(a):
    """|a|! sb_a in power sums, with int coefficients: by orthogonality of the
    S_n block, sb_a = sum_mu chi_a(mu) / z_mu pb_mu - sum_b <chi_a, chi_b> sb_b
    over the smaller labels b, and n!/z_mu, <chi_a, chi_b> and n!/|b|! are
    integers.  chi_a(mu) is read off the S_n block that opens each Brauer
    column."""
    if not is_partition(a):
        raise ValueError(f"not a partition: {a}")
    n = sum(a)
    nfact = factorial(n)
    i = partitions_of(n).index(a)
    top = len(partitions_of(n))  # the smaller labels follow the partitions of n
    out, mult = {}, [0] * (len(brauer_labels(n)) - top)
    for mu in partitions_of(n):
        column = brauer_column(mu)
        out[mu] = chi = column[i] * (nfact // z_stat(mu))
        mult = [m + chi * x for m, x in zip(mult, column[top:])]
    for b, m in zip(brauer_labels(n)[top:], mult):
        if m % nfact:
            raise NonIntegerCoefficient(f"sb{b} has multiplicity {Fraction(m, nfact)} in sb{a}")
        for nu, c in sb_in_pb_scaled(b).items():
            out[nu] = out.get(nu, 0) - m // factorial(sum(b)) * c
    return MappingProxyType({mu: c for mu, c in out.items() if c})


def sb_in_pb(a):
    """Invert the transition: express sb_a in power sums, as a fresh
    {mu: Fraction} dict."""
    nfact = factorial(sum(a))
    return {mu: Fraction(c, nfact) for mu, c in sb_in_pb_scaled(tuple(a)).items()}


@lru_cache(maxsize=None)
def sb_closed_form(a):
    """Quantum dimension of the label a, as an exact rational function.

    Product over the Young diagram of a: diagonal cells (j, j) contribute
    1 + (t q^{a_j - a'_j} - t^-1 q^{a'_j - a_j}) / (q^h - q^-h) and every
    other cell (i, j) contributes (t q^d - t^-1 q^-d) / (q^h - q^-h), where
    h is the hook length and d the arm/leg displacement (with the transposed
    form when the cell sits below the diagonal).  laurent.hook_product
    multiplies them from the (d, h, diagonal) triples.
    """
    a = tuple(a)
    at = transpose(a)
    cells = []

    def row(i):
        return a[i - 1] if i <= len(a) else 0

    def col(j):
        return at[j - 1] if j <= len(at) else 0

    for i in range(1, len(a) + 1):
        for j in range(1, a[i - 1] + 1):
            h = row(i) + col(j) - i - j + 1
            if i == j:
                d = row(j) - col(j)
            elif i < j:
                d = row(i) + row(j) - i - j + 1
            else:
                d = -col(i) - col(j) + i + j - 1
            cells.append((d, h, i == j))
    return laurent.hook_product(cells)


def evaluate_sb_element(coeffs, expect=None):
    """The RationalQT value of {label: coefficient}, the one evaluator of sb
    combinations: one laurent.rational_sum of sb_closed_form(label) times each
    coefficient, an int, a Fraction or a term dict {(a, b): c} for c q^a t^b.
    expect, a predicted denominator {d: m}, is passed on to the sum."""
    terms = ((sb_closed_form(a), c) for a, c in coeffs.items())
    return laurent.rational_sum(terms, expect=expect)


def pb_value(n):
    """Value of pb_n under the principal evaluation: 1 + (t^n - t^-n)/(q^n - q^-n)."""
    num = {(n, 0): 1, (-n, 0): -1, (0, n): 1, (0, -n): -1}
    return laurent.rational_product((num, laurent.qdiff_inverse(n)))


def unknot_identity_check(mu):
    """Character sum of quantum dimensions against the product formula."""
    mu = tuple(mu)
    product = laurent.rational_product(pb_value(part) for part in mu)
    return evaluate_sb_element(pb_in_sb(mu)) == product


def loop_weight():
    """Quantum dimension of the vector representation: 1 + (t - 1/t)/(q - 1/q)."""
    return sb_closed_form((1,))
