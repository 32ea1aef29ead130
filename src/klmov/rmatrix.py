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

The entries are sparse q-only term dicts with their own kernels here: an
add-into, a product (fused into the accumulation of ``@``) and the division
by q - 1/q, which runs through ``laurent._div_monic``.  They are not
``laurent``'s int rows: the entries are a few monomials each, and ``@`` on
entries ported to dense rows through ``laurent._mul_into`` took 1.6 to 1.7
times as long as the fused product on the braid check's matrices, N = 1..3.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotDivisible
from .laurent import _dense, _div_monic


def _add_into(acc, p):
    """acc += p for entries {qexp: coef}, zeros pruned; returns acc."""
    for a, c in p.items():
        c += acc.get(a, 0)
        if c:
            acc[a] = c
        else:
            del acc[a]
    return acc


def _product(p1, p2):
    """The product of two entries, zeros pruned."""
    out = {}
    for a1, c1 in p1.items():
        for a2, c2 in p2.items():
            out[a1 + a2] = out.get(a1 + a2, 0) + c1 * c2
    return {a: c for a, c in out.items() if c}


def _div_z(p):
    """The entry p / (q - 1/q): for p = q^lo P, q^(lo+1) P / (q^2 - 1) by
    _div_monic, or NotDivisible when it leaves a remainder."""
    lo, dense = _dense(p)
    quo, rem = _div_monic(dense, (-1, 0, 1))
    if any(rem):
        raise NotDivisible("the entry is not a multiple of q - 1/q")
    return {lo + 1 + i: c for i, c in enumerate(quo) if c}


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
        if not _add_into(row.setdefault(j, {}), poly):
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
                prod = _product(p, poly)
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
        # each entry of a row accumulates its products before zeros are pruned
        out = QMatrix(self.dim)
        for i, row in self.rows.items():
            acc_row = {}
            for k, p in row.items():
                for j, p2 in other.rows.get(k, {}).items():
                    acc = acc_row.setdefault(j, {})
                    for a1, c1 in p.items():
                        for a2, c2 in p2.items():
                            acc[a1 + a2] = acc.get(a1 + a2, 0) + c1 * c2
            acc_row = {j: {a: c for a, c in acc.items() if c} for j, acc in acc_row.items()}
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
            # ibar(i) - ibar(j): both are odd multiples of 1/2, so it is an int
            e = i - j + (i <= n) - (j <= n)
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
        _add_into(out, k.entry(i, i))
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
            _add_into(theta.setdefault((a, b), {}), _product(poly, k.entry(c, c)))
    theta = {k2: v for k2, v in theta.items() if v}
    expected = {(i, i): {2 * n: 1} for i in range(dim_v)}
    return theta == expected


def _lift(mat, before, after):
    """I (x) mat (x) I with identity factors of dimensions before and after:
    the generator g_i on V^(x R) lifts the braiding with before = dim V^(i-1)
    and after = dim V^(R-1-i)."""
    out = QMatrix(before * mat.dim * after)
    for i, j, poly in mat.entries():
        for x in range(before):
            for y in range(after):
                out.add_entry((x * mat.dim + i) * after + y,
                              (x * mat.dim + j) * after + y, poly)
    return out


def braid_relation_check(n):
    g = build_rhat(n)
    dim_v = 2 * n + 1
    g1, g2 = _lift(g, 1, dim_v), _lift(g, dim_v, 1)
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
    try:
        for i, j, poly in diff.entries():
            e.add_entry(i, j, {k: -c for k, c in _div_z(poly).items()})
    except NotDivisible:
        return False
    e = e + ident

    # e^2 = x e with x = 1 + (q^(2N) - q^(-2N))/(q - q^-1)
    x = _add_into(_div_z({2 * n: 1, -2 * n: -1}), {0: 1})
    return e @ e == e.scaled(x)
