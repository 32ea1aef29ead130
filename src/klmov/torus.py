"""Colored invariants of torus links via the cabling expansion.

``TorusLinkSpec(r, k, L)`` denotes the torus link T(rL, kL) with L components
and gcd(r, k) = 1.  Its colored invariant is the Rosso-Jones sum over cable
labels of quantum dimensions times ``cable_terms``: cabling constants times
framing monomials, evaluated by ``schur.evaluate_sb_element``.  The cabling
constants transport products of int-scaled Adams-transformed sb expansions
back to the sb basis, divided once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

from . import laurent
from .errors import ComponentCountMismatch, NonIntegerExponent
from .partitions import kappa
from .schur import (evaluate_sb_element, loop_weight, pb_in_sb, sb_closed_form,
                    sb_in_pb_scaled)


class TorusLinkSpec(NamedTuple):
    """The torus link T(rL, kL); r and k must be coprime."""

    r: int
    k: int
    L: int

    def validate(self):
        if self.r < 1 or self.k < 1 or self.L < 1:
            raise ValueError("torus parameters must be positive")
        if gcd(self.r, self.k) != 1:
            raise ValueError(f"gcd({self.r}, {self.k}) != 1")
        return self

    def describe(self):
        return f"T({self.r * self.L},{self.k * self.L})"


@lru_cache(maxsize=None)
def _ctilde_entries(colors, r):
    if r < 1:
        raise ValueError("cabling constants want r >= 1")
    prod, scale = {(): 1}, 1
    for a in colors:
        # pb_mu * pb_nu = pb_{mu union nu}, extended bilinearly
        step, right = {}, sb_in_pb_scaled(a).items()
        for k1, c1 in prod.items():
            for k2, c2 in right:
                key = tuple(sorted(k1 + k2, reverse=True))
                v = step.get(key, 0) + c1 * c2
                if v:
                    step[key] = v
                else:
                    del step[key]
        prod = step
        scale *= factorial(sum(a))
    collected = {}
    for mu, c in prod.items():
        # the Adams operation scales every row by r
        for lam, ch in pb_in_sb(tuple(r * p for p in mu)).items():
            collected[lam] = collected.get(lam, 0) + c * ch
    return {lam: Fraction(c, scale) for lam, c in collected.items() if c}


def ctilde(colors, r):
    """Cabling constants of the color tuple at cable degree r, as a fresh
    {lam: Fraction} dict over the cable labels with nonzero constants."""
    return dict(_ctilde_entries(tuple(tuple(a) for a in colors), r))


@lru_cache(maxsize=None)
def cable_terms(r, k, colors):
    """Rosso-Jones terms {lam: ctilde_lam q^a t^b} of T(r, k) on a nonempty
    color tuple; the invariant is their schur.evaluate_sb_element."""
    n = sum(sum(a) for a in colors)
    # the framing prefactor q^pq t^pt joins every term's monomial
    pq = -k * r * sum(kappa(a) for a in colors)
    pt = -k * (r - 1) * n
    terms = {}
    for lam, c in _ctilde_entries(colors, r).items():
        f2 = r * n - sum(lam)  # twice the contraction count
        qexp = Fraction(k * kappa(lam), r)
        texp = Fraction(-f2 * k, r)
        if qexp.denominator != 1 or texp.denominator != 1:
            raise NonIntegerExponent(
                f"fractional framing exponent at {lam} with coefficient {c}"
            )
        terms[lam] = {(int(qexp) + pq, int(texp) + pt): c}
    return terms


@lru_cache(maxsize=None)
def _torus_invariant_active(r, k, colors):
    # predicted: the denominator of the product of the colors' quantum dimensions
    expect = {}
    for a in colors:
        for d, m in sb_closed_form(a).mults:
            expect[d] = expect.get(d, 0) + m
    return evaluate_sb_element(cable_terms(r, k, colors), expect=expect)


def torus_invariant(spec, colors):
    """Colored invariant of a torus link; empty colors delete components.

    T(rL, kL) = T(kL, rL), so the link is cabled through min(r, k).  The
    sublink of T(rL, kL) on the components that remain colored is the torus
    link T(rL', kL') on those L' components, and the empty link has
    invariant 1.
    """
    spec = TorusLinkSpec(*spec).validate()
    colors = tuple(tuple(a) for a in colors)
    if len(colors) != spec.L:
        raise ComponentCountMismatch(
            f"{len(colors)} colors for {spec.L} components"
        )
    active = tuple(a for a in colors if a)
    if not active:
        return laurent.RationalQT(1)
    return _torus_invariant_active(min(spec.r, spec.k), max(spec.r, spec.k), active)


def unlink_invariant(colors):
    """Invariant of an unlink: product of quantum dimensions."""
    return laurent.rational_product(sb_closed_form(tuple(a)) for a in colors)


@lru_cache(maxsize=None)
def kauffman_bracket(spec):
    """Bracket polynomial of the torus link with the round-unknot normalization.

    Dividing the vector-colored invariant by the loop weight is exact; the
    failure of that division would contradict the skein normalization.
    """
    spec = TorusLinkSpec(*spec).validate()
    w = torus_invariant(spec, ((1,),) * spec.L)
    return w / loop_weight()


def bracket_coefficients(spec):
    """Coefficients p_n(t) of z^n in the bracket, n >= 1 - L, as RationalQT
    values with denominator 1.

    Computed by rewriting z^(L-1) * bracket in the z basis and shifting.
    """
    spec = TorusLinkSpec(*spec).validate()
    shift = spec.L - 1
    value = kauffman_bracket(spec)
    rows = {}
    for (zp, b), c in sorted(laurent.to_z_basis(value * laurent.Z**shift).items()):
        rows.setdefault(zp - shift, {})[(0, b)] = c
    return {n: laurent.RationalQT(row) for n, row in rows.items()}
