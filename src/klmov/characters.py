"""Symmetric-group and Brauer-algebra characters.

An S_n character column, chi_lam(nu) over all lam |- |nu|, is one
Murnaghan-Nakayama step from the column of nu[1:], through a table of the rim
hooks of size nu[0]; both are memoised.  Littlewood-Richardson coefficients
are computed by transporting both Schur functions to the power-sum basis (one
shared code path, easy to validate against orthogonality).  Brauer characters
on the symmetric-group conjugacy classes follow Ram's restriction formula

    chi_A(gamma_mu) = sum_{nu |- |mu|} (sum_beta c_{A beta}^nu) chi_nu(mu)

with beta ranging over partitions of |mu| - |A| all of whose parts are even
(the even-part reading reproduces the reference tables; the even-column one
does not).  The tables are evaluated in closed form rather than term by term.
Since sum_nu c_{A beta}^nu chi_nu(mu) = <s_A s_beta, p_mu>, expanding both
Schur functions in power sums and using <p_rho, p_mu> = z_mu delta_{rho mu}
gives

    chi_A(gamma_mu) = z_mu [p_mu] (s_A sum_beta s_beta)
                    = sum_{mu' <= mu, |mu'| = |A|}
                          prod_i C(m_i(mu), m_i(mu')) chi_A(mu') E(mu - mu'),

    E(rho) = sum_{beta |- |rho|, all parts even} chi_beta(rho),

where mu' runs over the sub-multisets of the parts of mu, m_i counts the
parts equal to i, and z_mu / (z_mu' z_rho) is the binomial product.  Only
integers appear.  So the Brauer column of mu is one pass over the
sub-multisets mu' that ``partitions.sub_multisets`` enumerates, each adding
an integer multiple of the S_n column of mu' into the labels of size |mu'|,
and E(rho) is read off the column of rho.  ``lr_coefficient`` keeps the
term-by-term definition available as an independent route for the tests.

One class's column is the unit of work.  ``sn_column`` memoises the S_n
column, the characters of all partitions of |mu| at mu.  ``brauer_column``
memoises the Brauer column, the characters of all labels of its rank at
gamma_mu, which opens with the S_n column.  The pipeline reads characters
only there: ``schur.pb_in_sb`` (and through it ``lmov.z_coefficient``) and
``schur.sb_in_pb_scaled``.  ``sn_character`` and ``brauer_character``
read single entries for ``verify`` and the tests' independent routes.  A
whole table (``brauer_table``, which only ``char-table`` asks for) is the
tuple of its class columns, those same memoised tuples, and is the one
thing mirrored to the JSON cache on disk, which stores it label-major.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb

from .errors import ParityMismatch, SizeMismatch
from .partitions import (
    brauer_label_sizes,
    is_partition,
    partitions_of,
    sub_multisets,
    z_stat,
)

_CACHE_DIR = None
_CACHE_SCHEMA = "brauer-chars-v1"


def set_cache_dir(path):
    """Enable (path) or disable (None) the on-disk character table cache,
    which ``char-table``'s ``--cache-dir`` sets on every call.  Only the
    path is recorded: the directory is made when a table is stored."""
    global _CACHE_DIR
    _CACHE_DIR = path


@lru_cache(maxsize=None)
def _index(n):
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@lru_cache(maxsize=None)
def _rim_hooks(j, r):
    """For each lam |- j, the (index in partitions_of(j - r), sign) of lam
    minus each of its rim hooks of size r, read off the beta-set of lam."""
    index, out = _index(j - r), []
    for lam in partitions_of(j):
        top = len(lam) - 1
        beads = [p + top - i for i, p in enumerate(lam)]
        hooks = []
        for b in beads:
            lo = b - r
            if lo >= 0 and lo not in beads:
                moved = sorted([c for c in beads if c != b] + [lo], reverse=True)
                sub = tuple(c - top + i for i, c in enumerate(moved) if c - top + i)
                hooks.append((index[sub], (-1) ** sum(lo < c < b for c in beads)))
        out.append(hooks)
    return out


@lru_cache(maxsize=None)
def _column(nu):
    """(chi_lam(nu) for lam in partitions_of(|nu|)), one MN step from nu[1:]."""
    if not nu:
        return (1,)
    rest = _column(nu[1:])
    return tuple(sum(s * rest[i] for i, s in h) for h in _rim_hooks(sum(nu), nu[0]))


@lru_cache(maxsize=None)
def sn_column(mu):
    """(chi_lam(mu) for lam in partitions_of(|mu|)): the characters of one
    class, memoised; the class is validated once and may come unsorted."""
    mu = tuple(sorted(mu, reverse=True))
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu}")
    return _column(mu)


def sn_character(lam, mu):
    """Character of the S_n irreducible lam on the class of cycle type mu."""
    lam, mu = tuple(lam), tuple(sorted(mu, reverse=True))
    for p in (lam, mu):
        if not is_partition(p):
            raise ValueError(f"not a partition: {p}")
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    return _column(mu)[_index(sum(mu))[lam]]


@lru_cache(maxsize=None)
def lr_coefficient(lam, beta, nu):
    """Littlewood-Richardson coefficient, via the power-sum basis.

    c = sum_{mu, rho} chi_lam(mu) chi_beta(rho) chi_nu(mu u rho) / (z_mu z_rho)
    """
    lam, beta, nu = tuple(lam), tuple(beta), tuple(nu)
    if sum(lam) + sum(beta) != sum(nu):
        raise SizeMismatch("sizes must satisfy |lam| + |beta| = |nu|")
    if not beta:
        return 1 if lam == nu else 0
    if not lam:
        return 1 if beta == nu else 0
    total = Fraction(0)
    for mu in partitions_of(sum(lam)):
        cl = sn_character(lam, mu)
        if not cl:
            continue
        for rho in partitions_of(sum(beta)):
            cb = sn_character(beta, rho)
            if not cb:
                continue
            merged = tuple(sorted(mu + rho, reverse=True))
            cn = sn_character(nu, merged)
            if cn:
                total += Fraction(cl * cb * cn, z_stat(mu) * z_stat(rho))
    assert total.denominator == 1 and total >= 0, "LR coefficient must be a nonneg int"
    return int(total)


def brauer_labels(n):
    """Irreducible labels of the rank-n Brauer algebra: partitions of n, n-2, ..."""
    out = []
    for m in brauer_label_sizes(n):
        out.extend(partitions_of(m))
    return tuple(out)


@lru_cache(maxsize=None)
def _even_sum(rho):
    """E(rho): the characters at rho of all even-part partitions of |rho|, summed."""
    # all parts even <=> halving gives a partition of |rho|/2
    index, col, half = _index(sum(rho)), _column(rho), partitions_of(sum(rho) // 2)
    return sum(col[index[tuple(2 * p for p in lam)]] for lam in half)


def _cache_path(n):
    return os.path.join(_CACHE_DIR, f"brauer_{n}.json")


@lru_cache(maxsize=None)
def brauer_column(mu):
    """(chi_a(gamma_mu) for a in brauer_labels(|mu|)): the characters of one
    class, memoised.  A class that is not a partition raises KeyError.
    Each sub-multiset mu' adds prod_i C(m_i(mu), m_i(mu')) E(mu - mu') times
    the S_n column of mu' into the labels of size |mu'|; a rest of odd size
    has no even-part partition."""
    mu = tuple(sorted(mu, reverse=True))
    n = sum(mu)
    if mu not in _index(n):
        raise KeyError(mu)
    segments = {k: [0] * len(partitions_of(k)) for k in brauer_label_sizes(n)}
    for (sub,), (rest,) in sub_multisets((mu,)):
        if sum(rest) % 2:
            continue
        w = _even_sum(rest)
        for part in set(sub):
            w *= comb(mu.count(part), sub.count(part))
        if w:
            k = sum(sub)
            segments[k] = [x + w * y for x, y in zip(segments[k], _column(sub))]
    return tuple(chain.from_iterable(segments.values()))


@lru_cache(maxsize=None)
def _label_index(n):
    return {a: i for i, a in enumerate(brauer_labels(n))}


def _compute_brauer_table(n):
    return tuple(map(brauer_column, partitions_of(n)))


def _load_brauer_table(n):
    """The class columns of the stored table, or None if the file is missing
    or does not hold exactly the rank-n table; the file is label-major."""
    import json  # only the disk cache loads it

    path = _cache_path(n)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("schema") != _CACHE_SCHEMA or data.get("n") != n:
            raise ValueError("schema mismatch")
        labels = [tuple(p) for p in data["labels"]]
        classes = [tuple(p) for p in data["classes"]]
        values = data["values"]
        if labels != list(brauer_labels(n)) or classes != list(partitions_of(n)):
            raise ValueError("label mismatch")
        if len(values) != len(labels):
            raise ValueError("row count mismatch")
        for row in values:
            if len(row) != len(classes):
                raise ValueError("row length mismatch")
            if not all(isinstance(x, int) for x in row):
                raise ValueError("non-integer entry")
        return tuple(zip(*values))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def _store_brauer_table(n, table):
    import json
    import tempfile

    data = {
        "schema": _CACHE_SCHEMA,
        "n": n,
        "labels": [list(a) for a in brauer_labels(n)],
        "classes": [list(mu) for mu in partitions_of(n)],
        "values": list(zip(*table)),  # label-major rows
    }
    # atomic publication: write then rename
    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=_CACHE_DIR, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))  # json.dump would use the pure-Python encoder
        os.replace(tmp, _cache_path(n))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def brauer_character(a, mu):
    """Character of the Brauer irreducible labeled a on the class gamma_mu,
    read off the memoised column of mu; no table is built or cached."""
    a, mu = tuple(a), tuple(mu)
    n = sum(mu)
    diff = n - sum(a)
    if diff < 0 or diff % 2:
        raise ParityMismatch(f"|{mu}| - |{a}| must be even and nonnegative")
    mu = tuple(sorted(mu, reverse=True))
    i = _label_index(n).get(a)
    if i is None or mu not in _index(n):
        raise KeyError((a, mu))
    return brauer_column(mu)[i]


def brauer_table(n):
    """The rank-n Brauer table as the tuple of its class columns: entry
    [j][i] is chi_a(gamma_mu) for the j-th class mu of partitions_of(n) and
    the i-th label a of brauer_labels(n).  Without a disk cache it is
    computed; with one it is read from it, or else computed and stored
    there.  It is not memoised, but computed columns are the memoised
    brauer_column tuples."""
    if not _CACHE_DIR:
        return _compute_brauer_table(n)
    table = _load_brauer_table(n)
    if table is None:
        table = _compute_brauer_table(n)
        _store_brauer_table(n, table)
    return table
