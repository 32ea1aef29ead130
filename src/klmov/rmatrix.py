"""Exact braiding matrix on V (x) V for the odd orthogonal quantum group.

V is the vector representation of dimension 2N + 1.  The braiding operator,
its diagonal enhancement, and the derived idempotent are built as sparse
matrices over Laurent polynomials in q, and the defining identities (braid
relation, cubic relation with t = q^(2N), tangle idempotent relation, ribbon
scalar q^(2N)) are verified as exact matrix identities.

Index displacement convention: the exponent attached to the exchange terms is
(ibar(i) - ibar(j)) with ibar(i) = i + 1/2 below the middle index and
i - 1/2 from the middle up.  Grouping the middle basis vector with the upper
block keeps every exponent an integer; the opposite grouping differs by a
diagonal gauge and changes nothing observable.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import HalfIntegerExponent, NotDivisible
from .laurent import p1_div_exact, qt_iadd, qp_mul


class QMatrix:
    """Sparse square matrix over Laurent polynomials in q.

    Entries live in ``rows[i][j]`` as {qexp: coef} dicts with zeros pruned.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim, rows=None):
        self.dim = dim
        self.rows = rows if rows is not None else {}

    def add_entry(self, i, j, poly):
        row = self.rows.setdefault(i, {})
        cur = row.get(j)
        if cur is None:
            cur = row[j] = {}
        qt_iadd(cur, poly)
        if not cur:
            del row[j]
            if not row:
                del self.rows[i]

    def entry(self, i, j):
        return self.rows.get(i, {}).get(j, {})

    @classmethod
    def identity(cls, dim):
        return cls(dim, {i: {i: {0: 1}} for i in range(dim)})

    def scaled(self, poly):
        out = QMatrix(self.dim)
        for i, row in self.rows.items():
            for j, p in row.items():
                prod = qp_mul(p, poly)
                if prod:
                    out.rows.setdefault(i, {})[j] = prod
        return out

    def __add__(self, other):
        out = QMatrix(self.dim, {i: {j: dict(p) for j, p in row.items()} for i, row in self.rows.items()})
        for i, row in other.rows.items():
            for j, p in row.items():
                out.add_entry(i, j, p)
        return out

    def __sub__(self, other):
        return self + other.scaled({0: -1})

    def __matmul__(self, other):
        out = QMatrix(self.dim)
        for i, row in self.rows.items():
            acc_row = {}
            for k, p in row.items():
                other_row = other.rows.get(k)
                if not other_row:
                    continue
                for j, p2 in other_row.items():
                    cur = acc_row.get(j)
                    if cur is None:
                        cur = acc_row[j] = {}
                    qt_iadd(cur, qp_mul(p, p2))
            acc_row = {j: p for j, p in acc_row.items() if p}
            if acc_row:
                out.rows[i] = acc_row
        return out

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def entries(self):
        for i, row in self.rows.items():
            for j, p in row.items():
                yield i, j, p


def _ibar2(i, n):
    """Twice the displaced index; middle grouped with the upper block."""
    if i <= n:
        return 2 * i + 1
    return 2 * i - 1


def _exchange_exponent(i, j, n):
    num = _ibar2(i, n) - _ibar2(j, n)
    if num % 2:
        raise HalfIntegerExponent(f"indices {i}, {j} leave a half-integer exponent")
    return num // 2


@lru_cache(maxsize=None)
def build_rhat(n):
    """The braiding operator on V (x) V, dim (2N+1)^2."""
    dim_v = 2 * n + 1
    mid = n + 1
    mat = QMatrix(dim_v * dim_v)

    def flat(a, c):
        return (a - 1) * dim_v + (c - 1)

    def put(a, b, c, d, poly):
        # E_{a,b} (x) E_{c,d}: sends v_b (x) v_d to v_a (x) v_c
        mat.add_entry(flat(a, c), flat(b, d), poly)

    dual = lambda i: 2 * n + 2 - i
    for i in range(1, dim_v + 1):
        if i != mid:
            put(i, i, i, i, {1: 1})
    put(mid, mid, mid, mid, {0: 1})
    for j in range(1, dim_v + 1):
        for i in range(1, dim_v + 1):
            if i != j and i != dual(j):
                put(j, i, i, j, {0: 1})
    for i in range(1, dim_v + 1):
        if i != mid:
            put(dual(i), i, i, dual(i), {-1: 1})
    for i in range(1, dim_v + 1):
        for j in range(i + 1, dim_v + 1):
            put(i, i, j, j, {1: 1, -1: -1})
            e = _exchange_exponent(i, j, n)
            put(dual(j), i, j, dual(i), {e + 1: -1, e - 1: 1})
    return mat


@lru_cache(maxsize=None)
def build_k2rho(n):
    """Diagonal enhancement diag(q^(1-2N), ..., q^-1, 1, q, ..., q^(2N-1))."""
    dim_v = 2 * n + 1
    mat = QMatrix(dim_v)
    for i in range(1, dim_v + 1):
        if i <= n:
            e = 2 * i - 1 - 2 * n
        elif i == n + 1:
            e = 0
        else:
            e = 2 * i - 3 - 2 * n
        mat.add_entry(i - 1, i - 1, {e: 1})
    return mat


def k2rho_trace(n):
    """Trace of the enhancement, the quantum dimension of V."""
    k = build_k2rho(n)
    out = {}
    for i in range(k.dim):
        qt_iadd(out, k.entry(i, i))
    return out


def ribbon_check(n):
    """Partial quantum trace of the braiding must be the scalar q^(2N)."""
    rhat = build_rhat(n)
    k = build_k2rho(n)
    dim_v = 2 * n + 1
    theta = {}
    for (rowflat, colflat, poly) in rhat.entries():
        a, c = divmod(rowflat, dim_v)
        b, d = divmod(colflat, dim_v)
        if c == d:
            key = (a, b)
            cur = theta.setdefault(key, {})
            qt_iadd(cur, qp_mul(poly, k.entry(c, c)))
    theta = {k2: v for k2, v in theta.items() if v}
    expected = {(i, i): {2 * n: 1} for i in range(dim_v)}
    return theta == expected


def _lift_three(mat, dim_v, side):
    """Lift an operator on V (x) V to V^(x3), acting on the given pair."""
    out = QMatrix(dim_v**3)
    for rowflat, colflat, poly in mat.entries():
        a, c = divmod(rowflat, dim_v)
        b, d = divmod(colflat, dim_v)
        for extra in range(dim_v):
            if side == "left":  # acts on sites 1, 2
                out.add_entry(
                    (a * dim_v + c) * dim_v + extra,
                    (b * dim_v + d) * dim_v + extra,
                    poly,
                )
            else:  # acts on sites 2, 3
                out.add_entry(
                    (extra * dim_v + a) * dim_v + c,
                    (extra * dim_v + b) * dim_v + d,
                    poly,
                )
    return out


def braid_relation_check(n):
    dim_v = 2 * n + 1
    g = build_rhat(n)
    g1 = _lift_three(g, dim_v, "left")
    g2 = _lift_three(g, dim_v, "right")
    return g1 @ g2 @ g1 == g2 @ g1 @ g2


def _g_inverse_from_cubic(g, n):
    """-t (g^2 - (z + 1/t) g + (z/t - 1)) with t = q^(2N)."""
    dim = g.dim
    tneg = 2 * n
    gsq = g @ g
    coef_g = {1: 1, -1: -1, -tneg: 1}  # z + t^-1
    coef_1 = {1 - tneg: 1, -1 - tneg: -1, 0: -1}  # z/t - 1
    acc = gsq + g.scaled({k: -c for k, c in coef_g.items()})
    acc = acc + QMatrix.identity(dim).scaled(coef_1)
    return acc.scaled({tneg: -1})


def bmw_relations_check(n):
    """Cubic, inverse, tangle idempotent, and loop relations at t = q^(2N)."""
    g = build_rhat(n)
    dim = g.dim
    ident = QMatrix.identity(dim)
    ginv = _g_inverse_from_cubic(g, n)
    if g @ ginv != ident or ginv @ g != ident:
        return False

    # cubic (g - t^-1)(g + q^-1)(g - q), t = q^(2N)
    f1 = g - ident.scaled({-2 * n: 1})
    f2 = g + ident.scaled({-1: 1})
    f3 = g - ident.scaled({1: 1})
    if not (f1 @ f2 @ f3).is_zero():
        return False

    # e = 1 - (g - g^-1)/z, entrywise exact division
    diff = g - ginv
    e = QMatrix(dim)
    z = {1: 1, -1: -1}
    try:
        for i, j, poly in diff.entries():
            e.add_entry(i, j, {k: -c for k, c in p1_div_exact(poly, z).items()})
    except NotDivisible:
        return False
    e = e + ident

    # e^2 = x e with x = 1 + (q^(2N) - q^(-2N))/(q - q^-1)
    x = p1_div_exact({2 * n: 1, -2 * n: -1}, z)
    qt_iadd(x, {0: 1})
    return e @ e == e.scaled(x)
