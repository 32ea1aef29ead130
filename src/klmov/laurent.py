"""Exact bivariate Laurent arithmetic over arbitrary-precision rationals.

One value type lives here, ``RationalQT``: a quotient ``num / den`` where
``num`` is a Laurent polynomial in q and t with rational coefficients and
``den`` is a product of cyclotomic polynomials ``Phi_d(q)``, stored as
``mults``, the sorted ``(d, m)`` pairs of its factors ``Phi_d^m``.  Every
denominator of the invariant formulas has this shape once monomials move
into the numerator: q^h - q^-h is q^-h prod_{d | 2h} Phi_d(q), and
q -> q^k maps each Phi_d(q) to the product of the Phi_e(q) with e | dk and
e / gcd(e, k) = d.  The numerator is stored as int t-slices over one scale
(content times primitive part, Knuth, TAOCP Vol. 2 4.6.1): ``rows`` holds
one ``(texp, lo, coefficients)`` per nonzero t-slice, by increasing texp,
for t^texp q^lo times the dense int coefficients, whose ends are nonzero;
``num`` is their sum over the positive int ``scale``, and gcd(scale, every
coefficient) = 1.  ``.num`` renders it as a term dict
``{(qexp, texp): coefficient}`` for readers.  The target ring of the
integrality checks, polynomials in z = q - 1/q and t, is a plain term dict
``{(zpow, texp): coefficient}``: ``to_z_basis`` and ``from_z_basis``.

In canonical form no ``Phi_d`` of ``mults`` divides every row.  Each
``Phi_d`` is monic, irreducible and separable, so its multiplicity in the
gcd of the rows is the number of successive derivatives p, p', ... of every
row it divides; the rows are then divided once by the product of the
``Phi_d`` to those multiplicities.  A denominator has one of three sources,
none of them factored: the hook lengths of ``hook_product``,
``qdiff_inverse`` for 1 / (q^n - q^-n), and the divisor of ``/``, whose
cyclotomic content moves down.

A term of ``rational_sum`` is a tuple of factors standing for their product:
their rows are multiplied slice by slice and their multiplicities added.
The lcm of the term denominators takes the per-d maximum; each term's rows,
over one common scale and times its cofactor lcm / den, are accumulated into
one dense int row per t-exponent, so a sum is canonicalized once.  A sum whose
denominator is known in advance takes it as ``expect``: each row is divided
once, by ``_div_monic``, by C = lcm / gcd(lcm, expect), and the content
search runs only on the ``Phi_d`` of that gcd.  A remainder sends the
sum back to the search over the whole lcm on the undivided rows, so the
prediction need not be a theorem.  ``+``,
``*`` and ``rational_product`` are special cases.  A factor is a
``RationalQT`` or a term dict, which is a numerator only.  A one-coefficient
factor c q^a t^b (a monomial, or a term-dict multiplier) shifts the rows and
scales them by c; a sum of one part is its rows times its coefficient, with
no cofactor pass.

A quantum dimension is built from its hook data by ``hook_product``, with
no factoring: each cell's numerator t q^d - t^-1 q^-d (plus q^h - q^-h on
the diagonal) is multiplied in as shifted +-1 copies of dense int t-slices,
q^(sum h) moves up and the multiplicities are read off the hook lengths h.
Its value is canonical as built: the top t-slice is a monomial, which no
Phi_d divides, so the gcd of the rows is 1 and no content test runs.

There is one division, ``/``: the divisor's denominator moves up and its
cyclotomic q-content (the Phi_d dividing every row of its numerator) moves
down; the rest must divide exactly, else ``NotDivisible``.  Kronecker
substitution (Knuth, TAOCP Vol. 2 4.6) flattens it: t^b q^a -> X^(b w + a),
w the q-span of the dividend x plus 1, is one to one below that span, and
q-degrees add, so an exact quotient by y has its q-exponents in the window
[lo_x - lo_y, hi_x - hi_y] and one univariate division finds it: each
row is placed in one dense int list, where no two rows overlap.  Every
univariate division runs through ``_div_monic``, the long division of dense
coefficient lists by a monic divisor.

The arithmetic runs on int rows: ``RationalQT`` operations read only
``scale``, ``rows`` and ``mults`` and end in one canonical triple of them,
which the constructor stores as it is.  Term dicts are only the input and
rendering format: numerators given to the constructor or as factors and
multipliers to ``rational_sum``, ``.num``, ``.den``, the z-basis dicts and
the output of ``specialize_t``.  ``fractions.Fraction`` appears in the
coefficients of these, in rendered findings, and in one computation: the
division of ``/`` by a flattened divisor whose leading coefficient is not 1.
Nothing here touches floating point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, inf, lcm
from operator import add, sub

from .errors import NotDivisible, NotPolynomial, NotZRepresentable, ZeroInput


def _dense(p):
    """A univariate term dict as (least exponent, dense coefficients)."""
    lo = min(p)
    out = [0] * (max(p) - lo + 1)
    for a, c in p.items():
        out[a - lo] = c
    return lo, out


# ---------------------------------------------------------------------------
# univariate division and cyclotomic factors (dense coefficient lists,
# constant term first)
# ---------------------------------------------------------------------------


def _div_monic(p, m):
    """(quotient, remainder) of p by a monic m: the one division kernel."""
    n = len(m) - 1
    if len(p) <= n:
        return [], list(p)
    r = list(p)
    taps = [(j - n, c) for j, c in enumerate(m[:n]) if c]
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            for j, mj in taps:
                r[i + j] -= c * mj
    return r[n:], r[:n]


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d(q).  With p the least prime factor of d = p * m, Phi_d(q) is
    Phi_m(q^p) when p divides m and Phi_m(q^p) / Phi_m(q) otherwise."""
    if d == 1:
        return (-1, 1)
    p = next(k for k in range(2, d + 1) if d % k == 0)
    m = d // p
    spread = [0] * (p * (len(_cyclotomic(m)) - 1) + 1)
    spread[::p] = _cyclotomic(m)
    if m % p == 0:
        return tuple(spread)
    return tuple(_div_monic(spread, _cyclotomic(m))[0])


@lru_cache(maxsize=None)
def _adams(mults, k):
    """The (e, m) pairs of the product of Phi_d(q^k)^m over (d, m) in mults:
    Phi_d(q^k) is the product of the Phi_e(q) with e | dk and
    e / gcd(e, k) = d."""
    out = {}
    for d, m in mults:
        for e in range(1, d * k + 1):
            if d * k % e == 0 and e // gcd(e, k) == d:
                out[e] = out.get(e, 0) + m
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _cyclotomic_product(powers):
    """The product of Phi_d^e over (d, e) in powers, as dense coefficients:
    the memoised product of all pairs but the last, times Phi_d e times."""
    if not powers:
        return (1,)
    d, e = powers[-1]
    p, phi = _cyclotomic_product(powers[:-1]), _cyclotomic(d)
    for _ in range(e):
        acc = {}
        _mul_into(acc, ((0, 0, p),), ((0, 0, phi),))
        p = acc[0][1]
    return tuple(p)


def _cofactor(fa, fb):
    """lcm(A, B) / B for A, B with the cyclotomic multiplicities fa, fb."""
    extra = ((d, m - fb.get(d, 0)) for d, m in fa.items())
    return _cyclotomic_product(tuple(sorted((d, e) for d, e in extra if e > 0)))


def _multiplicity(rows, d, cap):
    """The multiplicity of Phi_d in the gcd of the dense rows, at most cap.

    Phi_d is separable, so Phi_d^j divides p exactly when it divides p, p',
    ..., p^(j-1) (Yun 1976), each tested on p mod q^d - 1; the shortest row
    goes first, and the first to fail ends the search.  A zero row, such as a
    derivative past the degree, passes every test: only the cap ends it there.
    """
    phi = _cyclotomic(d)
    for p in sorted(rows, key=len):
        k = 0
        while k < cap and not any(_div_monic([sum(p[i::d]) for i in range(d)], phi)[1]):
            k += 1
            p = [i * p[i] for i in range(1, len(p))]
        cap = k
        if not cap:
            break
    return cap


def _cyclotomic_content(rows, caps=None):
    """(quotients, {d: k_d > 0}) of the dense rows divided once by the
    product of the Phi_d^k_d, k_d the multiplicity of Phi_d in their gcd.

    caps maps each d to test to the largest k_d wanted; without caps every d
    is tested.  Only d < 6 deg can divide, deg the least row degree less the
    factors found: d < 6 phi(d) for every d below 2 * 10^8, and phi(d), the
    degree of Phi_d, also bounds k_d by deg / phi(d).
    """
    deg = min(len(p) for p in rows) - 1
    found = {}
    for d in sorted(caps) if caps is not None else count(1):
        if d >= 6 * deg:
            break
        phi = len(_cyclotomic(d)) - 1
        k = _multiplicity(rows, d, min(deg // phi, caps[d] if caps else inf))
        if k:
            found[d] = k
            deg -= k * phi
    if found:
        m = _cyclotomic_product(tuple(sorted(found.items())))
        rows = [_div_monic(p, m)[0] for p in rows]
    return rows, found


# ---------------------------------------------------------------------------
# int t-slices: rows (texp, lo, dense ints) standing for t^texp q^lo * ints
# ---------------------------------------------------------------------------


def _int_rows(terms):
    """(s, rows) with terms == rows / s, for a term dict with int or Fraction
    coefficients: s is their least common denominator and rows the int
    t-slices of the nonzero terms."""
    s = lcm(*(c.denominator for c in terms.values()))
    by_t = {}
    for (a, b), c in terms.items():
        if c:
            by_t.setdefault(b, {})[a] = c.numerator * (s // c.denominator)
    return s, [(b, *_dense(p)) for b, p in by_t.items()]


def _mul_into(acc, x, y):
    """acc += x * y for rows x and y: the one row product.  acc maps texp to
    [lo, dense ints], and each entry is widened as needed."""
    for b2, lo2, p2 in y:
        taps = [(j, c) for j, c in enumerate(p2) if c]
        for b1, lo1, p1 in x:
            lo = lo1 + lo2
            hi = lo + len(p1) + len(p2) - 2
            slot = acc.get(b1 + b2)
            if slot is None:
                slot = acc[b1 + b2] = [lo, [0] * (hi - lo + 1)]
            elif lo < slot[0]:
                slot[1][:0] = [0] * (slot[0] - lo)
                slot[0] = lo
            row = slot[1]
            if hi >= slot[0] + len(row):
                row.extend([0] * (hi - slot[0] - len(row) + 1))
            for i, v in enumerate(p1, lo - slot[0]):
                if v:
                    for j, c in taps:
                        row[i + j] += v * c


def _trimmed(acc):
    """The nonzero rows of an accumulator of _mul_into, zero ends cut: each
    row is scanned in from both ends, and kept as it is when nothing is cut."""
    rows = []
    for b, (lo, p) in acc.items():
        i, j = 0, len(p)
        while i < j and not p[i]:
            i += 1
        if i == j:
            continue
        while not p[j - 1]:
            j -= 1
        rows.append((b, lo + i, p if j - i == len(p) else p[i:j]))
    return rows


def _span(rows):
    """The least and the greatest q-exponent of nonzero rows."""
    return min(lo for _, lo, _ in rows), max(lo + len(p) - 1 for _, lo, p in rows)


def _flat(rows, w):
    """(least exponent, dense ints) of trimmed rows of q-span at most w
    under t^b q^a -> X^(b w + a): each row lands in its own slice."""
    first = min(b * w + lo for b, lo, _ in rows)
    out = [0] * (max(b * w + lo + len(p) for b, lo, p in rows) - first)
    for b, lo, p in rows:
        i = b * w + lo - first
        out[i:i + len(p)] = p
    return first, out


def _div_flat(x, y):
    """(s, rows) with rows / s == x / y for nonzero rows x and y, by one
    _div_monic of the flattened rows (see the module docstring).  A divisor
    whose leading coefficient lc is not 1 is made monic in Fractions and the
    quotient divided by lc; s clears their denominators.  Each quotient
    exponent e is the q-exponent of the window [lo, hi] congruent to e mod
    w; a remainder or a quotient term outside the window raises
    NotDivisible."""
    lo_x, hi_x = _span(x)
    lo_y, hi_y = _span(y)
    lo, hi, w = lo_x - lo_y, hi_x - hi_y, hi_x - lo_x + 1
    fail = NotDivisible("the divisor does not divide exactly")
    if hi < lo:
        raise fail
    (ex, p), (ey, m) = _flat(x, w), _flat(y, w)
    lc, s = m[-1], 1
    if lc == 1:
        quo, rem = _div_monic(p, m)
    else:
        quo, rem = _div_monic(p, [Fraction(c, lc) for c in m])
        quo = [Fraction(c, lc) for c in quo]
        s = lcm(*(c.denominator for c in quo))
        quo = [c.numerator * (s // c.denominator) for c in quo]
    if any(rem):
        raise fail
    # padded, each slice of w starts at q^lo of one t-exponent
    pad = (ex - ey - lo) % w
    quo = [0] * pad + quo
    starts = range(0, len(quo), w)
    if any(any(quo[k + hi - lo + 1:k + w]) for k in starts):
        raise fail
    b0 = (ex - ey - lo - pad) // w
    return s, _trimmed({b0 + k // w: [lo, quo[k:k + hi - lo + 1]] for k in starts})


# ---------------------------------------------------------------------------
# RationalQT
# ---------------------------------------------------------------------------


def _product_term(factors, m):
    """m times the product of factors as a part (rows, s, k, mults), or None
    when it is zero.

    The value is k * rows / (s * D) with rows int t-slices, s > 0 and D the
    product of the Phi_d^mults[d].  A factor is a RationalQT or a term dict,
    a numerator over 1.  Rows are multiplied slice by slice and denominators
    by adding their multiplicities.
    """
    rows, s, k, mults = None, m.denominator, m.numerator, {}
    qa = tb = 0
    for f in factors:
        if isinstance(f, RationalQT):
            frows, fs, fm = f.rows, f.scale, f.mults
        elif len(f) == 1:
            # c q^a t^b: a shift of the rows and a scale
            (((a, b), c),) = f.items()
            if not c:
                return None
            qa, tb, s, k = qa + a, tb + b, s * c.denominator, k * c.numerator
            continue
        else:
            (fs, frows), fm = _int_rows(f), ()
        if not frows:
            return None
        if rows is None:
            rows = frows
        else:
            acc = {}
            _mul_into(acc, rows, frows)
            rows = _trimmed(acc)
        s *= fs
        for d, e in fm:
            mults[d] = mults.get(d, 0) + e
    if rows is None:
        rows = ((0, 0, (1,)),)
    if qa or tb:
        rows = [(b + tb, lo + qa, p) for b, lo, p in rows]
    return rows, s, k, mults


def _predicted(polys, top, expect):
    """(quotients, min(top, expect)) of the dense rows over prod Phi_d^top_d
    divided once by C = prod Phi_d^(top_d - expect_d) over top_d > expect_d,
    or None when C leaves a remainder in some row."""
    c = _cofactor(top, expect)
    if len(c) > 1:
        out = []
        for p in polys:
            quo, rem = _div_monic(p, c)
            if any(rem):
                return None
            out.append(quo)
        polys = out
    return polys, {d: min(m, expect[d]) for d, m in top.items() if expect.get(d)}


def _sum(parts, expect=None):
    """The _Canonical sum of parts of _product_term, over one lcm; one part
    is its rows times k over its own denominator.  With expect, a predicted
    denominator {d: m}, _predicted divides the rows first (see
    rational_sum)."""
    if len(parts) == 1:
        ((rows, scale, k, top),) = parts
        if k != 1:
            rows = [(b, lo, [k * c for c in p]) for b, lo, p in rows]
    else:
        # the lcm takes the largest multiplicity of each Phi_d
        top = {}
        for _, _, _, f in parts:
            for d, e in f.items():
                top[d] = max(e, top.get(d, 0))
        scale = lcm(*(s for _, s, _, _ in parts))
        # each part adds k * scale / s * rows * cofactor into dense rows
        acc = {}
        for rows, s, k, f in parts:
            w = k * (scale // s)
            _mul_into(acc, rows, ((0, 0, [w * c for c in _cofactor(top, f)]),))
        rows = _trimmed(acc)
    if not rows:
        return _reduced(1, (), ())
    polys = [p for _, _, p in rows]
    if expect is not None:
        polys, top = _predicted(polys, top, expect) or (polys, top)
    # the gcd of the rows with the lcm is divided out at once
    polys, cut = _cyclotomic_content(polys, top)
    left = ((d, m - cut.get(d, 0)) for d, m in sorted(top.items()))
    return _reduced(scale, sorted((b, lo, p) for (b, lo, _), p in zip(rows, polys)),
                    tuple((d, m) for d, m in left if m))


# a canonical value, which the RationalQT constructor stores as it is
_Canonical = namedtuple("_Canonical", "scale rows mults")


def _reduced(scale, rows, mults):
    """The _Canonical rows / (scale * D), D the product of the Phi_d^m over
    the (d, m) pairs mults, for sorted trimmed rows with no Phi_d of mults
    dividing every one: the gcd of scale and every coefficient is divided
    out."""
    g = scale
    for _, _, p in rows:
        if g == 1:
            break
        g = gcd(g, *p)
    if g > 1:
        rows = [(b, lo, [c // g for c in p]) for b, lo, p in rows]
    return _Canonical(scale // g, tuple((b, lo, tuple(p)) for b, lo, p in rows), mults)


def rational_sum(terms, expect=None):
    """The canonical sum of m * x over (x, m) pairs, canonicalized once.

    x is a RationalQT or a tuple of factors standing for their product; a
    factor is a RationalQT or a term dict.  m is an int, a Fraction or a
    term dict such as the monomial {(a, b): c}; a term dict is one more
    factor, so its zero coefficients drop out.  All terms share one integer
    scale, each is multiplied by the cofactor lcm / den of its denominator
    and accumulated into dense t-slices, so a sum of products builds one lcm
    and canonicalizes once.

    expect, a {d: m} map, is a predicted denominator prod Phi_d^m.  Each
    accumulated row is then divided once by C = lcm / gcd(lcm, expect), and
    the content search runs only on the Phi_d of gcd(lcm, expect).  If C
    leaves a remainder in any row, the search runs on the undivided rows
    over the whole lcm, as without expect: the value is exact and canonical
    whether or not the prediction holds.
    """
    parts = []
    for x, m in terms:
        factors = x if isinstance(x, tuple) else (x,)
        if isinstance(m, dict):
            factors, m = factors + (m,), 1
        part = _product_term(factors, m) if m else None
        if part is not None:
            parts.append(part)
            same = factors[0] if m == 1 and len(factors) == 1 else None
    if len(parts) == 1 and isinstance(same, RationalQT):
        return same
    return RationalQT(_sum(parts, expect))


def rational_product(factors):
    """The canonical product of RationalQT values or term dicts: the
    one-term case of rational_sum."""
    return rational_sum(((tuple(factors), 1),))


@lru_cache(maxsize=None)
def _divisors(n):
    """The positive divisors of n, increasing."""
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def hook_product(cells):
    """The canonical product over (d, h, diagonal) triples of

        (t q^d - t^-1 q^-d + [diagonal] (q^h - q^-h)) / (q^h - q^-h),

    a quantum dimension read off the hook lengths h of a label's cells.

    The numerators are multiplied as dense int t-slices over one q-window:
    each cell adds two (on a diagonal, four) shifted +-1 copies of every
    slice.  q^h - q^-h is q^-h times the Phi_d with d | 2h, so q^(sum h)
    moves into the numerator and each cell adds one to those multiplicities.
    The value is canonical as built: the top t-slice is the monomial t^n
    q^(sum d) of the n cells, so no Phi_d divides every row and the gcd of
    the coefficients is 1; no factoring, content test or gcd runs.
    """
    lo, width, slices, mults = sum(h for _, h, _ in cells), 1, {0: [1]}, {}
    for d, h, diagonal in cells:
        moves = ((1, d, add), (-1, -d, sub))
        if diagonal:
            moves += ((0, h, add), (0, -h, sub))
        w = max(abs(shift) for _, shift, _ in moves)
        grown = {}
        for b, p in slices.items():
            for tb, shift, op in moves:
                row = grown.get(b + tb)
                if row is None:
                    row = grown[b + tb] = [0] * (width + 2 * w)
                i = w + shift
                row[i:i + width] = map(op, row[i:i + width], p)
        lo, width, slices = lo - w, width + 2 * w, grown
        for e in _divisors(2 * h):
            mults[e] = mults.get(e, 0) + 1
    rows = sorted(_trimmed({b: (lo, p) for b, p in slices.items()}))
    return RationalQT(_Canonical(1, tuple((b, a, tuple(p)) for b, a, p in rows),
                                 tuple(sorted(mults.items()))))


@lru_cache(maxsize=None)
def qdiff_inverse(n):
    """1 / (q^n - q^-n) for n >= 1, canonical as built: q^n over the Phi_d
    with d | 2n, read off as hook_product reads a hook length."""
    return RationalQT(_Canonical(1, ((0, n, (1,)),), tuple((d, 1) for d in _divisors(2 * n))))


class RationalQT:
    """Quotient of a bivariate Laurent polynomial by a product of Phi_d(q).

    ``RationalQT(num)`` is the Laurent polynomial num in canonical form: a
    term dict, an int or a Fraction, or a RationalQT to copy.  A denominator
    comes from arithmetic: ``/``, ``hook_product`` or ``qdiff_inverse``.
    The value is stored as ``scale``, ``rows`` and ``mults`` (see the module
    docstring); ``num`` and ``den`` are rendered.
    Every value the arithmetic builds passes here, as a _Canonical.
    """

    __slots__ = ("scale", "rows", "mults")

    def __init__(self, num):
        if not isinstance(num, (RationalQT, _Canonical)):
            if isinstance(num, (int, Fraction)):
                num = {(0, 0): num}
            part = _product_term((num,), 1)
            num = _sum([part] if part else [])
        self.scale, self.rows, self.mults = num.scale, num.rows, num.mults

    @property
    def num(self):
        """The numerator as a term dict {(qexp, texp): int or Fraction}."""
        s = self.scale
        return {(lo + i, b): Fraction(c, s) if c % s else c // s
                for b, lo, p in self.rows for i, c in enumerate(p) if c}

    @property
    def den(self):
        """The dense denominator {qexp: coef} by descending exponent, monic
        with a nonzero constant term."""
        p = _cyclotomic_product(self.mults)
        return {a: p[a] for a in range(len(p) - 1, -1, -1) if p[a]}

    @property
    def is_zero(self):
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.scale, self.rows, self.mults) == (other.scale, other.rows, other.mults)

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        if not self.mults and all(b == lo == 0 and len(p) == 1 for b, lo, p in self.rows):
            return hash(Fraction(sum(p[0] for _, _, p in self.rows), self.scale))
        return hash((self.scale, self.rows, self.mults))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return rational_sum(((self, 1), (other, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_strict(other))

    def __rsub__(self, other):
        return _coerce_strict(other) - self

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RationalQT(0)
            k = other.numerator
            rows = [(b, lo, [k * c for c in p]) for b, lo, p in self.rows]
            return RationalQT(_reduced(self.scale * other.denominator, rows, self.mults))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return rational_product((self, other))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power; divide with /")
        return rational_product([self] * n)

    def __truediv__(self, other):
        """self / other, exactly.

        other's denominator moves up and its cyclotomic q-content, the Phi_d
        that divide every t-slice of its numerator, moves down.  The rest of
        other's numerator, including any q-only factor that is not
        cyclotomic, must divide self's numerator times other's denominator
        exactly, by _div_flat, or NotDivisible is raised.  A zero divisor
        raises ZeroInput.
        """
        if isinstance(other, (int, Fraction)) and other:
            return self * (1 / Fraction(other))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroInput("division by zero polynomial")
        if not self:
            return self
        acc = {}
        _mul_into(acc, self.rows, ((0, 0, _cyclotomic_product(other.mults)),))
        polys, mults = _cyclotomic_content([p for _, _, p in other.rows])
        for d, m in self.mults:
            mults[d] = mults.get(d, 0) + m
        prim = [(b, lo, p) for (b, lo, _), p in zip(other.rows, polys)]
        s, rows = _div_flat(_trimmed(acc), prim)
        return RationalQT(_sum([(rows, s * self.scale, other.scale, mults)]))

    def substitute(self, qpow=1, tsign=1, tpow=1):
        """The value under q -> q^qpow, t^b -> tsign^b t^(b*tpow).

        Its domain is qpow >= 1, tpow >= 1 and tsign in {1, -1}; anything
        else is a ValueError.  So q -> -1/q, a negative power of q, is not
        one of its maps.  The result stays canonical: Phi_e(q) divides
        p(q^qpow) exactly when Phi_d divides p for the d that e contributes to
        in Phi_d(q^qpow).
        """
        if qpow < 1 or tpow < 1 or tsign not in (1, -1):
            raise ValueError("substitution wants positive powers and tsign in {1,-1}")
        rows = []
        for b, lo, p in self.rows:
            spread = [0] * (qpow * (len(p) - 1) + 1)
            spread[::qpow] = [-c for c in p] if tsign == -1 and b % 2 else p
            rows.append((b * tpow, lo * qpow, spread))
        return RationalQT(_reduced(self.scale, rows, _adams(self.mults, qpow)))

    def specialize_t(self, m):
        """Substitute t = q^m: the q-only dict {qexp: int or Fraction} of a
        Laurent polynomial.  The rows merge into one int row, which the
        product of the Phi_d of mults, a monic q-only divisor, must divide,
        by _div_monic (else NotDivisible); the quotient is divided by scale
        at the end."""
        acc = {}
        _mul_into(acc, [(0, lo + m * b, p) for b, lo, p in self.rows], ((0, 0, (1,)),))
        merged = _trimmed(acc)
        if not merged:
            return {}
        [(_, lo, p)] = merged
        quo, rem = _div_monic(p, _cyclotomic_product(self.mults))
        if any(rem):
            raise NotDivisible("the divisor does not divide exactly")
        s = self.scale
        return {lo + i: Fraction(c, s) if c % s else c // s for i, c in enumerate(quo) if c}

    def __str__(self):
        num = render_qt(self.num)
        if not self.mults:
            return num
        den = render_qt({(a, 0): c for a, c in self.den.items()})
        return f"({num})/({den})"

    def __repr__(self):
        return f"RationalQT({self})"


def _coerce(x):
    if isinstance(x, RationalQT):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalQT(x)
    return NotImplemented


def _coerce_strict(x):
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x)!r} to RationalQT")
    return out


Z = RationalQT({(1, 0): 1, (-1, 0): -1})  # z = q - 1/q


# ---------------------------------------------------------------------------
# z-basis (z = q - 1/q)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _z_power_q(d):
    """(q - 1/q)^d as a q-only tuple of (exp, coef), each binomial built
    from the previous one in its row: C(d, i+1) = C(d, i) (d - i) / (i + 1)."""
    out, c = [], 1
    for i in range(d + 1):
        out.append((d - 2 * i, -c if i % 2 else c))
        c = c * (d - i) // (i + 1)
    return tuple(out)


def from_z_basis(terms):
    """The RationalQT of a z-basis dict {(zpow, texp): coefficient}, with
    z := q - 1/q."""
    acc = {}
    for (zp, b), c in terms.items():
        for a, bc in _z_power_q(zp):
            acc[(a, b)] = acc.get((a, b), 0) + c * bc
    return RationalQT(acc)


def to_z_basis(x):
    """Rewrite x as a polynomial in z = q - 1/q with t-Laurent coefficients:
    the dict {(zpow, texp): coefficient} of its nonzero terms.

    Requires x to be a Laurent polynomial (else NotPolynomial) that is
    invariant under q -> -1/q (else NotZRepresentable).  In canonical form
    that means empty mults: no Phi_d of mults divides every t-slice, so the
    finding renders the remainder of the failing slice of least t-exponent.
    The two q-parity classes reduce independently since z^d only contains
    exponents of the parity of d: the even one first, from the top exponent
    down, each exponent on every row by descending t-exponent, which is the
    order of the keys of the result.
    """
    x = _coerce_strict(x)
    if x.mults:
        den = _cyclotomic_product(x.mults)
        for _, _, p in x.rows:
            rem = _div_monic(p, den)[1]
            if any(rem):
                rest = render_qt({(a, 0): Fraction(c, x.scale) for a, c in enumerate(rem) if c})
                raise NotPolynomial(f"remainder {rest} in univariate division")
    # each row dense from -hi to hi, where peeling z^d for d <= hi can reach
    rows = []
    for b, lo, p in reversed(x.rows):
        base = min(lo, 1 - lo - len(p))
        rows.append((b, base, [0] * (lo - base) + list(p)))
    top = max((base + len(row) - 1 for _, base, row in rows), default=-1)
    out = {}
    for parity in (0, 1):
        for d in range(top - (top - parity) % 2, -1, -2):
            for b, base, row in rows:
                c = row[d - base] if d - base < len(row) else 0
                if c:
                    out[(d, b)] = c if x.scale == 1 else Fraction(c, x.scale)
                    for e, bc in _z_power_q(d):
                        row[e - base] -= c * bc
        witness = {(base + i, b): Fraction(c, x.scale) for b, base, row in rows
                   for i, c in enumerate(row) if c and (base + i) % 2 == parity}
        if witness:
            raise NotZRepresentable(
                f"value is not symmetric under q -> -1/q; leftover terms {render_qt(witness)}"
            )
    return out


# ---------------------------------------------------------------------------
# valuation at q = 1
# ---------------------------------------------------------------------------


def valuation_at_q1(x):
    """Order of vanishing at q = 1: mult(num) - mult(den).

    With q = e^u this equals the u-valuation, since u has a simple zero there.
    The denominator's order is its Phi_1 multiplicity; the numerator's is the
    multiplicity of q - 1 in the gcd of its t-slices.
    """
    x = _coerce_strict(x)
    if not x:
        raise ZeroInput("valuation of zero")
    rows = [p for _, _, p in x.rows]
    return _multiplicity(rows, 1, min(map(len, rows)) - 1) - dict(x.mults).get(1, 0)


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def render_terms(terms):
    """Text of signed (coefficient, name) terms in the order given, "0" for
    none: each is str(|c|) when its name is empty, name when |c| is 1, else
    |c|*name; the first is signed and later ones joined with "+ " or "- "."""
    pieces = []
    for c, name in terms:
        mag = abs(c)
        body = str(mag) if not name else name if mag == 1 else f"{mag}*{name}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def render_qt(terms):
    """q-exponents descending, then t-exponents descending."""
    return render_terms(
        (terms[a, b], "*".join(x if e == 1 else f"{x}^{e}"
                               for x, e in (("q", a), ("t", b)) if e))
        for a, b in sorted(terms, key=lambda k: (-k[0], -k[1]))
    )
