"""Partitions, multi-partitions, and the splitting combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the zero partition.  A multi-partition is a tuple of L partitions,
one per link component.  One enumerator of multiset partitions, Knuth's
Algorithm M, feeds both the splittings of a multi-partition (the multiset
partitions of its rows) and the vanishing sum over vector partitions; the
sub-multisets of a multi-partition's rows feed the free-energy recursion.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm

from .errors import ParityMismatch


def is_partition(parts):
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def parse_decimal(text):
    """int(text) for ASCII decimal digits, with an optional minus sign and
    ASCII whitespace around them; any other text int() reads (digits of
    other scripts, a plus sign, underscores) raises ValueError."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text, re.ASCII):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_partition(text):
    """Parse "2,1" into (2, 1); "0" or "" is the zero partition."""
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(map(parse_decimal, text.split(",")))
    except ValueError:  # a row that is not an integer
        parts = None
    if parts is None or not is_partition(parts):
        raise ValueError(f"not a partition: {text!r}")
    return parts


def format_partition(lam):
    return ",".join(str(p) for p in lam) if lam else "0"


def parse_multipartition(text):
    """Parse "1,1|1" into ((1, 1), (1))."""
    return tuple(parse_partition(piece) for piece in text.split("|"))


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, ordered lexicographically descending."""

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n if n else 1))


def transpose(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def z_stat(lam):
    """prod_i i^{m_i} m_i! over the part multiplicities."""
    out = 1
    for part, m in Counter(lam).items():
        out *= part**m * factorial(m)
    return out


def z_stat_multi(mu):
    out = 1
    for lam in mu:
        out *= z_stat(lam)
    return out


def kappa(lam):
    """Framing charge sum_j lam_j * (lam_j - 2j + 1)."""
    return sum(p * (p - 2 * j + 1) for j, p in enumerate(lam, start=1))


# -- multi-partition accessors ----------------------------------------------


def mp_norm(mu):
    return sum(sum(lam) for lam in mu)


def mp_len(mu):
    return sum(len(lam) for lam in mu)


def mp_is_zero(mu):
    return all(not lam for lam in mu)


def mp_div(mu, k):
    return tuple(tuple(p // k for p in lam) for lam in mu)


def common_divisors(mu):
    """Positive k dividing every row of every component."""
    g = 0
    for lam in mu:
        for p in lam:
            g = gcd(g, p)
    if g == 0:
        raise ValueError("zero multi-partition has no divisors")
    return tuple(k for k in range(1, g + 1) if g % k == 0)


def mobius(k):
    if k < 1:
        raise ValueError("mobius wants k >= 1")
    out = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            out = -out
        d += 1
    if k > 1:
        out = -out
    return out


def sub_multisets(mu):
    """Each (rho, rest) with rho a sub-multiset of mu's rows, taken per
    component, and rest the rows left over: prod (m_i + 1) pairs over the
    multiplicities m_i of the rows of each component, from rho = zero to
    rho = mu."""
    atoms = [(alpha, row, m) for alpha, lam in enumerate(mu)
             for row, m in sorted(Counter(lam).items(), reverse=True)]
    for counts in product(*(range(m + 1) for _, _, m in atoms)):
        rho, rest = [()] * len(mu), [()] * len(mu)
        for (alpha, row, m), n in zip(atoms, counts):
            rho[alpha] += (row,) * n
            rest[alpha] += (row,) * (m - n)
        yield tuple(rho), tuple(rest)


# -- multiset partitions: splittings and the vanishing sum -------------------


def _multiset_partitions(counts):
    """Each partition of the multiset with counts[i] copies of atom i, once.

    Knuth's Algorithm M (TAOCP Vol. 4A, 7.2.1.5).  A partition is a tuple of
    parts, each a count vector as long as counts, in lexicographically
    decreasing order, so equal parts are adjacent.  The stack holds the
    parts one after another: part i is entries f[i] to f[i+1] - 1, entry k
    has v[k] of the u[k] copies of atom c[k] not in earlier parts.
    """
    atoms = [i for i, n in enumerate(counts) if n]  # M wants positive counts
    total = sum(counts)
    if not total:
        yield ()
        return
    size = len(atoms) * total + 1
    c, u, v, f = [0] * size, [0] * size, [0] * size, [0] * (total + 1)
    for j, i in enumerate(atoms):
        c[j], u[j], v[j] = i, counts[i], counts[i]
    a, b, l = 0, len(atoms), 0
    f[1] = b
    while True:
        while True:  # M2-M3: push the largest next part of what is left
            k, smaller = b, False  # whether the new part is below the last
            for j in range(a, b):
                left = u[j] - v[j]
                if not left:
                    smaller = True
                    continue
                c[k], u[k] = c[j], left
                v[k] = left if smaller else min(v[j], left)
                smaller = smaller or left < v[j]
                k += 1
            if k == b:
                break
            a, b, l = b, k, l + 1
            f[l + 1] = b
        parts = []  # M4
        for i in range(l + 1):
            vec = [0] * len(counts)
            for k in range(f[i], f[i + 1]):
                vec[c[k]] = v[k]
            parts.append(tuple(vec))
        yield tuple(parts)
        while True:  # M5-M6: decrease the last part that can be, or pop
            j = b - 1
            while not v[j]:
                j -= 1
            if j > a or v[j] > 1:
                break
            if l == 0:
                return
            l, b = l - 1, a
            a = f[l]
        v[j] -= 1
        for k in range(j + 1, b):
            v[k] = u[k]


def _sign_and_aut(parts):
    """(-1)^(r-1) (r-1)! and |Aut| of r parts with equal parts adjacent."""
    aut = run = 1
    for prev, part in zip(parts, parts[1:]):
        run = run + 1 if part == prev else 1
        aut *= run
    r = len(parts)
    return (-1) ** (r - 1) * factorial(r - 1), aut


def splittings(mu):
    """Multisets of nonzero multi-partitions whose rows reassemble mu.

    Returns (parts, coefficient) pairs where parts is a sorted tuple with
    repeats and the coefficient is (-1)^(r-1) (r-1)! / |Aut| for r parts.
    """
    if mp_is_zero(mu):
        raise ValueError("cannot split the zero multi-partition")
    # atoms (component, row) by component, rows decreasing: then a count
    # vector's rows come out decreasing, and count vectors and the
    # multi-partitions they spell sort alike
    atoms = [(alpha, row) for alpha, lam in enumerate(mu)
             for row in sorted(set(lam), reverse=True)]

    @lru_cache(maxsize=None)  # a part recurs across the splittings
    def spell(vec):
        comps = [()] * len(mu)
        for (alpha, row), n in zip(atoms, vec):
            comps[alpha] += (row,) * n
        return tuple(comps)

    results = []
    for parts in _multiset_partitions([mu[alpha].count(row) for alpha, row in atoms]):
        sign, aut = _sign_and_aut(parts)
        results.append((tuple(map(spell, parts)), Fraction(sign, aut)))
    return results


def lemma72_sum(dvec):
    """Alternating sum over vector partitions of dvec; vanishes for |d| >= 2.

    Each multiset {v_1, ..., v_r} of nonzero vectors summing to dvec
    contributes (-1)^(r-1) (r-1)! / (|Aut| * prod_j prod_a v_j[a]!).
    dvec must be a nonzero vector of nonnegative ints.
    """
    if not all(isinstance(d, int) and d >= 0 for d in dvec) or not any(dvec):
        raise ValueError(f"cannot sum over the weight vector {tuple(dvec)}: "
                         "it needs nonnegative int entries, not all zero")
    numerators = {}  # denominator -> summed numerators
    for parts in _multiset_partitions(dvec):
        sign, denom = _sign_and_aut(parts)
        for v in parts:
            for entry in v:
                denom *= factorial(entry)
        numerators[denom] = numerators.get(denom, 0) + sign
    common = lcm(*numerators)
    return Fraction(sum(n * (common // d) for d, n in numerators.items()), common)


# -- up-down tableau dimensions ----------------------------------------------


def _diagram_neighbors(lam):
    """Partitions reachable by adding or removing one box."""
    out = []
    n = len(lam)
    for i in range(n + 1):  # add a box at the end of row i
        cur = lam[i] if i < n else 0
        if i == 0 or lam[i - 1] >= cur + 1:
            if i < n:
                out.append(lam[:i] + (cur + 1,) + lam[i + 1 :])
            else:
                out.append(lam + (1,))
    for i in range(n):  # remove a box from a removable corner of row i
        below = lam[i + 1] if i + 1 < n else 0
        if lam[i] - 1 >= below:
            new = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            out.append(tuple(p for p in new if p))
    return out


def updown_dimension(lam, n):
    """Number of length-n up-down tableaux from (1) to lam."""
    size = sum(lam)
    if size > n or (n - size) % 2:
        raise ParityMismatch(f"no up-down tableaux of shape {lam} and length {n}")
    if n == 0:
        return 1
    cur = {(1,): 1}
    for _ in range(n - 1):
        nxt = {}
        for shape, count in cur.items():
            for nb in _diagram_neighbors(shape):
                nxt[nb] = nxt.get(nb, 0) + count
        cur = nxt
    return cur.get(tuple(lam), 0)


def brauer_label_sizes(n):
    """Sizes n, n-2, ... down to 1 or 0."""
    return tuple(range(n, -1, -2))
