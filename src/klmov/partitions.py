"""Partitions, multi-partitions, and the splitting combinatorics.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the zero partition.  A multi-partition is a tuple of L partitions,
one per link component.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd

from .errors import ParityMismatch


def is_partition(parts):
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def parse_partition(text):
    """Parse "2,1" into (2, 1); "0" or "" is the zero partition."""
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    parts = tuple(int(p) for p in text.split(","))
    if not is_partition(parts):
        raise ValueError(f"not a partition: {text!r}")
    return parts


def format_partition(lam):
    return ",".join(str(p) for p in lam) if lam else "0"


def parse_multipartition(text):
    """Parse "1,1|1" into ((1, 1), (1))."""
    return tuple(parse_partition(piece) for piece in text.split("|"))


def format_multipartition(mu):
    return "|".join(format_partition(lam) for lam in mu)


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


# -- splittings of a multi-partition (multiset partitions of its rows) -------


def _sub_multisets(counter_items):
    """All nonzero sub-multisets of a multiset given as ((atom, mult), ...)."""
    if not counter_items:
        return
    atom, mult = counter_items[0]
    rest = counter_items[1:]
    tails = list(_sub_multisets(rest)) if rest else []
    for take in range(mult + 1):
        head = ((atom, take),) if take else ()
        if take:
            yield head
        for tail in tails:
            yield head + tail


def _atoms_to_multipartition(atom_counts, ncomp):
    comps = [[] for _ in range(ncomp)]
    for (alpha, row), m in atom_counts:
        comps[alpha].extend([row] * m)
    return tuple(tuple(sorted(c, reverse=True)) for c in comps)


def splittings(mu):
    """Multisets of nonzero multi-partitions whose rows reassemble mu.

    Returns (parts, coefficient) pairs where parts is a sorted tuple with
    repeats and the coefficient is (-1)^(r-1) (r-1)! / |Aut| for r parts.
    """
    if mp_is_zero(mu):
        raise ValueError("cannot split the zero multi-partition")
    ncomp = len(mu)
    atoms = Counter()
    for alpha, lam in enumerate(mu):
        for row in lam:
            atoms[(alpha, row)] += 1

    results = []

    def descend(remaining, max_part, acc):
        if not remaining:
            r = len(acc)
            aut = 1
            for m in Counter(acc).values():
                aut *= factorial(m)
            coeff = Fraction((-1) ** (r - 1) * factorial(r - 1), aut)
            results.append((tuple(sorted(acc, reverse=True)), coeff))
            return
        items = tuple(sorted(remaining.items()))
        for sub in _sub_multisets(items):
            part = _atoms_to_multipartition(sub, ncomp)
            if max_part is not None and part > max_part:
                continue
            rest = remaining - Counter(dict(sub))
            acc.append(part)
            descend(rest, part, acc)
            acc.pop()

    descend(atoms, None, [])
    return results


# -- vanishing sum over vector partitions ------------------------------------


def _vector_partitions(target, cap):
    """Multisets of nonzero vectors <= cap (lexicographically) summing to target."""
    if all(v == 0 for v in target):
        yield ()
        return
    for v in product(*(range(b, -1, -1) for b in target)):
        if not any(v) or (cap is not None and v > cap):
            continue
        rest_target = tuple(a - b for a, b in zip(target, v))
        for rest in _vector_partitions(rest_target, v):
            yield (v,) + rest


def lemma72_sum(dvec):
    """Alternating sum over vector partitions of dvec; vanishes for |d| >= 2.

    Each multiset {v_1, ..., v_r} of nonzero vectors summing to dvec
    contributes (-1)^(r-1) (r-1)! / (|Aut| * prod_j prod_a v_j[a]!).
    """
    total = Fraction(0)
    for parts in _vector_partitions(tuple(dvec), None):
        r = len(parts)
        aut = 1
        for m in Counter(parts).values():
            aut *= factorial(m)
        denom = aut
        for v in parts:
            for entry in v:
                denom *= factorial(entry)
        total += Fraction((-1) ** (r - 1) * factorial(r - 1), denom)
    return total


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
