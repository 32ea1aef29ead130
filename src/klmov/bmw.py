"""The three-dimensional braid-monoid algebra on one generator pair.

Elements are c1*1 + cg*g + ce*e with ``RationalQT`` coefficients.  The
multiplication table is forced by the defining relations:

    g*g = 1 + (q - 1/q) * (g - e/t),   g*e = e*g = e/t,   e*e = x*e,

with x the loop weight 1 + (t - 1/t)/(q - 1/q).  The Markov trace takes
1 -> 1, g -> t/x, e -> 1/x.  Closures of powers of g run through the (2, m)
torus family, giving an independent route to those invariants.

1/x is not a ``RationalQT``: it carries the bivariate factor
q - 1/q + t - 1/t below the line, and ``RationalQT`` denominators are
q-only.  So the trace and the idempotents are computed scaled by x.  The
scaled trace ``x_trace(a) = x tr(a)`` takes 1 -> x, g -> t, e -> 1, and the
scaled idempotents P = x p satisfy P P = x P, P_i P_j = 0 and sum P = x.
Each identity checked here is homogeneous in the scaled quantities and x is
nonzero, so scaling by x changes the truth of none of them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .laurent import RationalQT, Z, qdiff_inverse, rational_product, rational_sum
from .torus import TorusLinkSpec, torus_invariant

_R0 = RationalQT(0)
_R1 = RationalQT(1)
_TINV = RationalQT({(0, -1): 1})
_X = rational_product(({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}, qdiff_inverse(1)))


class C2Element(NamedTuple):
    c1: RationalQT
    cg: RationalQT
    ce: RationalQT

    def __add__(self, other):
        return C2Element(self.c1 + other.c1, self.cg + other.cg, self.ce + other.ce)

    def __sub__(self, other):
        return C2Element(self.c1 - other.c1, self.cg - other.cg, self.ce - other.ce)

    def __neg__(self):
        return C2Element(-self.c1, -self.cg, -self.ce)

    def scale(self, s):
        return C2Element(self.c1 * s, self.cg * s, self.ce * s)

    def __eq__(self, other):
        return self.c1 == other.c1 and self.cg == other.cg and self.ce == other.ce

    __hash__ = tuple.__hash__

    def is_zero(self):
        return self.c1.is_zero and self.cg.is_zero and self.ce.is_zero

    def __str__(self):
        return f"({self.c1}) + ({self.cg})*g + ({self.ce})*e"


ONE = C2Element(_R1, _R0, _R0)
G = C2Element(_R0, _R1, _R0)
E = C2Element(_R0, _R0, _R1)


def c2_mul(a, b):
    """Multiply via g^2 = 1 + z(g - e/t), ge = eg = e/t, ee = x*e."""
    c1 = rational_sum((((a.c1, b.c1), 1), ((a.cg, b.cg), 1)))
    cg = rational_sum((((a.c1, b.cg), 1), ((a.cg, b.c1), 1), ((Z, a.cg, b.cg), 1)))
    ce = rational_sum((
        ((a.c1, b.ce), 1),
        ((a.ce, b.c1), 1),
        ((_TINV, a.cg, b.ce), 1),
        ((_TINV, a.ce, b.cg), 1),
        ((Z, _TINV, a.cg, b.cg), -1),
        ((_X, a.ce, b.ce), 1),
    ))
    return C2Element(c1, cg, ce)


def g_inverse():
    """g - z(1 - e), the inverse forced by the cubic relation."""
    return C2Element(-Z, _R1, Z)


def x_trace(a):
    """x times the Markov trace: linear with 1 -> x, g -> t, e -> 1."""
    return rational_sum((((a.c1, _X), 1), (a.cg, {(0, 1): 1}), (a.ce, 1)))


def minimal_idempotents():
    """The three orthogonal idempotents, each scaled by x.

    x p_sym  = ((1/q + g)/(q + 1/q)) (x - e)
    x p_anti = ((q - g)/(q + 1/q))   (x - e)
    x p_loop = e
    """
    inv_qplus = Z * qdiff_inverse(2)  # (q - 1/q) / (q^2 - q^-2)
    x_minus_e = ONE.scale(_X) - E
    qinv = RationalQT({(-1, 0): 1})
    qpos = RationalQT({(1, 0): 1})
    p_sym = c2_mul((ONE.scale(qinv) + G).scale(inv_qplus), x_minus_e)
    p_anti = c2_mul((ONE.scale(qpos) - G).scale(inv_qplus), x_minus_e)
    return p_sym, p_anti, E


@lru_cache(maxsize=None)
def g_power(m):
    out = ONE
    for _ in range(m):
        out = c2_mul(out, G)
    return out


def power_trace_crosscheck(m):
    """Compare x^2 tr(g^m) = x x_trace(g^m) against the (2, m) torus invariant.

    Even m closes to the two-component link T(2, m) on vector colors whose
    strands carry no self-crossings, so the trace matches on the nose.  Odd m
    closes to the knot T(2, m) whose single strand has writhe m, so the
    framing correction contributes t^-m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    lhs = _X * x_trace(g_power(m))
    if m % 2:
        lhs = lhs * RationalQT({(0, -m): 1})
        rhs = torus_invariant(TorusLinkSpec(2, m, 1), ((1,),))
    else:
        rhs = torus_invariant(TorusLinkSpec(1, m // 2, 2), ((1,), (1,)))
    return lhs == rhs


def cubic_relation_holds():
    """(g - 1/t)(g + 1/q)(g - q) must vanish identically."""
    t_inv = ONE.scale(_TINV)
    q_inv = ONE.scale(RationalQT({(-1, 0): 1}))
    q_pos = ONE.scale(RationalQT({(1, 0): 1}))
    prod = c2_mul(c2_mul(G - t_inv, G + q_inv), G - q_pos)
    return prod.is_zero()


def relation_a5_holds():
    """z(1 - e) = g - g^inverse."""
    return (ONE - E).scale(Z) == G - g_inverse()


def inverse_check():
    return c2_mul(G, g_inverse()) == ONE and c2_mul(g_inverse(), G) == ONE


def idempotent_checks():
    """Idempotency, orthogonality, and the resolution of the identity, on the
    x-scaled idempotents: P P = x P, P_i P_j = 0, sum P = x."""
    ps = minimal_idempotents()
    for i, p in enumerate(ps):
        if c2_mul(p, p) != p.scale(_X):
            return False
        for j, q in enumerate(ps):
            if i != j and not c2_mul(p, q).is_zero():
                return False
    return (ps[0] + ps[1] + ps[2]) == ONE.scale(_X)


def eigenvalue_checks():
    """g acts on the idempotents with eigenvalues q, -1/q, 1/t."""
    p_sym, p_anti, p_loop = minimal_idempotents()
    ok = c2_mul(G, p_sym) == p_sym.scale(RationalQT({(1, 0): 1}))
    ok = ok and c2_mul(G, p_anti) == p_anti.scale(RationalQT({(-1, 0): -1}))
    ok = ok and c2_mul(G, p_loop) == p_loop.scale(_TINV)
    return ok
