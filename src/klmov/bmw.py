"""The three-dimensional braid-monoid algebra on one generator pair.

Elements are c1*1 + cg*g + ce*e with exact rational-function coefficients.
The multiplication table is forced by the defining relations:

    g*g = 1 + (q - 1/q) * (g - e/t),   g*e = e*g = e/t,   e*e = x*e,

with x the loop weight 1 + (t - 1/t)/(q - 1/q).  The Markov trace takes
1 -> 1, g -> t/x, e -> 1/x.  Closures of powers of g run through the (2, m)
torus family, giving an independent route to those invariants.

Inverting x leaves the ring of q-only denominators (1/x carries the factor
q - 1/q + t - 1/t below the line), so coefficients here are pairs
``value / w^k`` with w that single bivariate polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent import RationalQT
from .torus import TorusLinkSpec, torus_invariant

# w = q - 1/q + t - 1/t; x = w / (q - 1/q)
_W_R = RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})
_Z_R = RationalQT({(1, 0): 1, (-1, 0): -1})
_X_R = RationalQT(_W_R.num, {1: 1, -1: -1})


class XRational:
    """num / w^k with num a RationalQT; closed under inverting x."""

    __slots__ = ("num", "k")

    def __init__(self, num, k=0):
        if not isinstance(num, RationalQT):
            num = RationalQT(num)
        if not num:
            k = 0
        self.num = num
        self.k = k

    @classmethod
    def inv_x(cls):
        return cls(_Z_R, 1)

    def __add__(self, other):
        other = _lift(other)
        m = max(self.k, other.k)
        a = self.num * _W_R ** (m - self.k)
        b = other.num * _W_R ** (m - other.k)
        return XRational(a + b, m)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_lift(other))

    def __neg__(self):
        out = XRational.__new__(XRational)
        out.num = -self.num
        out.k = self.k
        return out

    def __mul__(self, other):
        other = _lift(other)
        return XRational(self.num * other.num, self.k + other.k)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _lift(other)
        return self.num * _W_R**other.k == other.num * _W_R**self.k

    @property
    def is_zero(self):
        return self.num.is_zero

    def __str__(self):
        return str(self.num) if self.k == 0 else f"({self.num})/w^{self.k}"

    def __repr__(self):
        return f"XRational({self})"


def _lift(v):
    if isinstance(v, XRational):
        return v
    return XRational(v)


_ZERO = XRational(RationalQT(0))
_ONE = XRational(RationalQT(1))
_Z = XRational(_Z_R)
_TINV = XRational(RationalQT({(0, -1): 1}))
_X = XRational(_X_R)


@dataclass(frozen=True)
class C2Element:
    c1: XRational
    cg: XRational
    ce: XRational

    def __add__(self, other):
        return C2Element(self.c1 + other.c1, self.cg + other.cg, self.ce + other.ce)

    def __sub__(self, other):
        return C2Element(self.c1 - other.c1, self.cg - other.cg, self.ce - other.ce)

    def __neg__(self):
        return C2Element(-self.c1, -self.cg, -self.ce)

    def scale(self, s):
        s = _lift(s)
        return C2Element(self.c1 * s, self.cg * s, self.ce * s)

    def __eq__(self, other):
        return self.c1 == other.c1 and self.cg == other.cg and self.ce == other.ce

    def is_zero(self):
        return self.c1.is_zero and self.cg.is_zero and self.ce.is_zero

    def __str__(self):
        return f"({self.c1}) + ({self.cg})*g + ({self.ce})*e"


ONE = C2Element(_ONE, _ZERO, _ZERO)
G = C2Element(_ZERO, _ONE, _ZERO)
E = C2Element(_ZERO, _ZERO, _ONE)


def c2_mul(a, b):
    """Multiply via g^2 = 1 + z(g - e/t), ge = eg = e/t, ee = x*e."""
    c1 = a.c1 * b.c1 + a.cg * b.cg
    cg = a.c1 * b.cg + a.cg * b.c1 + _Z * a.cg * b.cg
    ce = (
        a.c1 * b.ce
        + a.ce * b.c1
        + _TINV * (a.cg * b.ce + a.ce * b.cg)
        - _Z * _TINV * (a.cg * b.cg)
        + _X * (a.ce * b.ce)
    )
    return C2Element(c1, cg, ce)


def g_inverse():
    """g - z(1 - e), the inverse forced by the cubic relation."""
    return C2Element(-_Z, _ONE, _Z)


def markov_trace(a):
    """Linear trace with tr(1) = 1, tr(g) = t/x, tr(e) = 1/x."""
    t_over_x = XRational(RationalQT({(0, 1): 1}) * _Z_R, 1)
    inv_x = XRational.inv_x()
    return a.c1 + a.cg * t_over_x + a.ce * inv_x


def minimal_idempotents():
    """The three orthogonal idempotents.

    p_sym  = ((1/q + g)/(q + 1/q)) (1 - e/x)
    p_anti = ((q - g)/(q + 1/q))   (1 - e/x)
    p_loop = e/x
    """
    inv_qplus = XRational(RationalQT(1, {1: 1, -1: 1}))
    one_minus = ONE - E.scale(XRational.inv_x())
    qinv = XRational(RationalQT({(-1, 0): 1}))
    qpos = XRational(RationalQT({(1, 0): 1}))
    p_sym = c2_mul((ONE.scale(qinv) + G).scale(inv_qplus), one_minus)
    p_anti = c2_mul((ONE.scale(qpos) - G).scale(inv_qplus), one_minus)
    p_loop = E.scale(XRational.inv_x())
    return p_sym, p_anti, p_loop


@lru_cache(maxsize=None)
def g_power(m):
    out = ONE
    for _ in range(m):
        out = c2_mul(out, G)
    return out


def power_trace_crosscheck(m):
    """Compare x^2 tr(g^m) against the (2, m) torus invariant.

    Even m closes to the two-component link T(2, m) on vector colors whose
    strands carry no self-crossings, so the trace matches on the nose.  Odd m
    closes to the knot T(2, m) whose single strand has writhe m, so the
    framing correction contributes t^-m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    lhs = markov_trace(g_power(m)) * _X * _X
    if m % 2:
        lhs = lhs * XRational(RationalQT({(0, -m): 1}))
        rhs = torus_invariant(TorusLinkSpec(2, m, 1), ((1,),))
    else:
        rhs = torus_invariant(TorusLinkSpec(1, m // 2, 2), ((1,), (1,)))
    return lhs == XRational(rhs)


def cubic_relation_holds():
    """(g - 1/t)(g + 1/q)(g - q) must vanish identically."""
    t_inv = ONE.scale(_TINV)
    q_inv = ONE.scale(XRational(RationalQT({(-1, 0): 1})))
    q_pos = ONE.scale(XRational(RationalQT({(1, 0): 1})))
    prod = c2_mul(c2_mul(G - t_inv, G + q_inv), G - q_pos)
    return prod.is_zero()


def relation_a5_holds():
    """z(1 - e) = g - g^inverse."""
    return (ONE - E).scale(_Z) == G - g_inverse()


def inverse_check():
    return c2_mul(G, g_inverse()) == ONE and c2_mul(g_inverse(), G) == ONE


def idempotent_checks():
    """Idempotency, orthogonality, and the resolution of the identity."""
    ps = minimal_idempotents()
    for i, p in enumerate(ps):
        if c2_mul(p, p) != p:
            return False
        for j, q in enumerate(ps):
            if i != j and not c2_mul(p, q).is_zero():
                return False
    return (ps[0] + ps[1] + ps[2]) == ONE


def eigenvalue_checks():
    """g acts on the idempotents with eigenvalues q, -1/q, 1/t."""
    p_sym, p_anti, p_loop = minimal_idempotents()
    ok = c2_mul(G, p_sym) == p_sym.scale(XRational(RationalQT({(1, 0): 1})))
    ok = ok and c2_mul(G, p_anti) == p_anti.scale(
        XRational(RationalQT({(-1, 0): -1}))
    )
    ok = ok and c2_mul(G, p_loop) == p_loop.scale(_TINV)
    return ok
