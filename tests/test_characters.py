"""Symmetric-group and Brauer characters, and the table cache."""

import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, prod

import pytest

from klmov import characters
from klmov.characters import (
    brauer_character,
    brauer_column,
    brauer_labels,
    brauer_table,
    lr_coefficient,
    multi_character,
    sn_character,
    sn_column,
)
from klmov.errors import ParityMismatch, SizeMismatch
from klmov.golden import BRAUER_EXTRA_ROWS, SN_TABLES
from klmov.partitions import brauer_label_sizes, partitions_of, z_stat


# The beta-set Murnaghan-Nakayama recursion, one character at a time: the
# reference route for the character columns of the library.


def _beta_set(lam):
    n = len(lam)
    return tuple(sorted(lam[i] + (n - 1 - i) for i in range(n)))


@lru_cache(maxsize=None)
def _mn(betas, mu):
    if not mu:
        return 1
    m = mu[0]
    rest = mu[1:]
    bs = set(betas)
    total = 0
    for b in betas:
        lo = b - m
        if lo >= 0 and lo not in bs:
            height = sum(1 for c in betas if lo < c < b)
            nb = tuple(sorted((bs - {b}) | {lo}))
            sub = _mn(nb, rest)
            if sub:
                total += -sub if height % 2 else sub
    return total


def _reference_sn_character(lam, mu):
    return _mn(_beta_set(lam), tuple(sorted(mu, reverse=True)))


def _reference_brauer_table(n):
    """Ram's closed form with every character from the beta-set recursion:
    chi_A(mu) = sum over sub-multisets mu' of mu with |mu'| = |A| of
    prod_i C(m_i(mu), m_i(mu')) chi_A(mu') E(mu - mu')."""

    def even_sum(rho):
        evens = [tuple(2 * p for p in lam) for lam in partitions_of(sum(rho) // 2)]
        return sum(_reference_sn_character(beta, rho) for beta in evens)

    table = {}
    for k in brauer_label_sizes(n):
        splits = {}
        for mu in partitions_of(n):
            mult = Counter(mu)
            splits[mu] = []
            for counts in product(*(range(m + 1) for m in mult.values())):
                sub = [p for p, c in zip(mult, counts) for _ in range(c)]
                if sum(sub) != k:
                    continue
                rest = [p for p, c in zip(mult, counts) for _ in range(mult[p] - c)]
                weight = prod(comb(mult[p], c) for p, c in zip(mult, counts))
                splits[mu].append((tuple(sub), weight * even_sum(tuple(rest))))
        for a in partitions_of(k):
            for mu in partitions_of(n):
                table[(a, mu)] = sum(
                    w * _reference_sn_character(a, sub) for sub, w in splits[mu]
                )
    return table


def test_sn_examples():
    assert sn_character((2, 2), (3, 1)) == -1
    assert sn_character((1, 1, 1), (2, 1)) == -1
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert sn_character((n,), mu) == 1


def test_sn_tables_match_reference():
    for n, table in SN_TABLES.items():
        for (lam, mu), val in table.items():
            assert sn_character(lam, mu) == val


def test_sn_size_mismatch():
    with pytest.raises(SizeMismatch):
        sn_character((2,), (1, 1, 1))


@pytest.mark.parametrize("lam, mu", [
    ((1, 2), (3,)),
    ((2, 0), (2,)),
    ((2, -1), (1,)),
    ((2,), (2, 0)),
    ((1,), (-1, 2)),
])
def test_sn_character_rejects_non_partitions(lam, mu):
    with pytest.raises(ValueError, match="not a partition"):
        sn_character(lam, mu)


def test_sn_column_is_the_characters_of_one_class():
    for n in range(9):
        for mu in partitions_of(n):
            assert sn_column(mu) == tuple(sn_character(lam, mu) for lam in partitions_of(n))
    assert sn_column((1, 2, 1)) == sn_column((2, 1, 1))


@pytest.mark.parametrize("mu", [(2, 0), (-1, 2), (2, 1, 0)])
def test_sn_column_rejects_non_partitions_like_sn_character(mu):
    with pytest.raises(ValueError) as column_error:
        sn_column(mu)
    with pytest.raises(ValueError) as character_error:
        sn_character((1,) * sum(mu), mu)
    assert str(column_error.value) == str(character_error.value)


def test_sn_characters_match_beta_set_recursion():
    for n in range(11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert sn_character(lam, mu) == _reference_sn_character(lam, mu)
    # a class given in any order is the same class
    assert sn_character((3, 1), (1, 2, 1)) == sn_character((3, 1), (2, 1, 1)) == 1


def test_orthogonality():
    for n in range(2, 7):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                s = sum(sn_character(l, mu) * sn_character(l, nu) for l in parts)
                assert s == (z_stat(mu) if mu == nu else 0)


def test_lr_examples():
    assert lr_coefficient((1, 1), (2,), (3, 1)) == 1
    assert lr_coefficient((1, 1), (2,), (2, 2)) == 0
    assert lr_coefficient((2, 1), (), (2, 1)) == 1


def test_lr_symmetry():
    for lam in partitions_of(2):
        for beta in partitions_of(3):
            for nu in partitions_of(5):
                assert lr_coefficient(lam, beta, nu) == lr_coefficient(beta, lam, nu)


def test_lr_dimension_count():
    # sum_nu c^nu_{lam beta} dim(nu) = binom(|lam|+|beta|, |lam|) dim(lam) dim(beta)
    from math import comb

    def dim(lam):
        return sn_character(lam, (1,) * sum(lam))

    for lam in partitions_of(2):
        for beta in partitions_of(3):
            lhs = sum(
                lr_coefficient(lam, beta, nu) * dim(nu) for nu in partitions_of(5)
            )
            assert lhs == comb(5, 2) * dim(lam) * dim(beta)


def test_brauer_examples():
    assert brauer_character((1, 1), (2, 2)) == -2
    assert brauer_character((), (4,)) == 1
    assert brauer_character((2,), (1, 1, 1, 1)) == 6
    assert brauer_character((), (2, 2)) == 3


def test_brauer_tables_match_reference():
    for n in (2, 3, 4):
        table = brauer_table(n)
        for (a, mu), val in {**SN_TABLES[n], **BRAUER_EXTRA_ROWS[n]}.items():
            assert table[(a, mu)] == val


def test_brauer_reduces_to_sn():
    for n in range(1, 7):
        for a in partitions_of(n):
            for mu in partitions_of(n):
                assert brauer_character(a, mu) == sn_character(a, mu)


def _restriction_formula_table(n):
    """Ram's formula term by term: sum_nu (sum_beta c^nu_{A beta}) chi_nu(mu)."""
    table = {}
    for a in brauer_labels(n):
        half = (n - sum(a)) // 2
        evens = [tuple(2 * p for p in lam) for lam in partitions_of(half)]
        mult = {
            nu: sum(lr_coefficient(a, beta, nu) for beta in evens)
            for nu in partitions_of(n)
        }
        for mu in partitions_of(n):
            table[(a, mu)] = sum(m * sn_character(nu, mu) for nu, m in mult.items())
    return table


def test_brauer_closed_form_matches_restriction_formula():
    for n in range(10):
        assert list(brauer_table(n).items()) == list(
            _restriction_formula_table(n).items()
        )


def test_brauer_tables_match_beta_set_recursion():
    # values and order: the table is label-major, classes inner
    for n in range(13):
        assert list(brauer_table(n).items()) == list(_reference_brauer_table(n).items())


def test_brauer_table_is_a_read_only_view():
    table = brauer_table(3)
    with pytest.raises(TypeError):
        table[((3,), (3,))] = 0
    assert table == brauer_table(3) and table[((3,), (3,))] == 1


def test_brauer_parity():
    with pytest.raises(ParityMismatch):
        brauer_character((1,), (2, 2))


@pytest.mark.parametrize("a, mu", [
    ((1, 2), (3,)),
    ((2,), (2, 0)),
    ((2,), (1, 1, 0)),
    ((2,), (3, -1)),
])
def test_brauer_character_wants_a_label_and_a_class(a, mu):
    with pytest.raises(KeyError):
        brauer_character(a, mu)


def test_brauer_column_is_aligned_with_the_labels():
    for n in range(9):
        for mu in partitions_of(n):
            want = tuple(brauer_table(n)[(a, mu)] for a in brauer_labels(n))
            assert brauer_column(mu) == want
            assert brauer_column(mu[::-1]) == want


@pytest.mark.parametrize("mu", [(2, 0), (1, 1, 0), (3, -1)])
def test_brauer_column_wants_a_class(mu):
    with pytest.raises(KeyError):
        brauer_column(mu)


def test_brauer_character_rejects_a_larger_label():
    with pytest.raises(ParityMismatch):
        brauer_character((4,), (2,))


def test_brauer_characters_without_a_table():
    # in a fresh process whose tables cannot be built, every single character
    # comes from the class columns
    code = (
        "import json\n"
        "from klmov import characters\n"
        "def refuse(n):\n"
        "    raise AssertionError(f'rank-{n} table built')\n"
        "characters._compute_brauer_table = refuse\n"
        "print(json.dumps([[a, mu, characters.brauer_character(a, mu)]\n"
        "                  for n in range(11)\n"
        "                  for a in characters.brauer_labels(n)\n"
        "                  for mu in characters.partitions_of(n)]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLMOV_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    got = {(tuple(a), tuple(mu)): v for a, mu, v in json.loads(out)}
    want = {}
    for n in range(11):
        want.update(_reference_brauer_table(n))
    assert got == want


def test_brauer_labels():
    assert brauer_labels(2) == ((2,), (1, 1), ())
    assert brauer_labels(1) == ((1,),)
    # partitions of 4, of 2, and of 0: 5 + 2 + 1
    assert len(brauer_labels(4)) == 8


def test_multi_character():
    assert multi_character(((2,), (1,)), ((2,), (1,))) == 1
    assert multi_character(((), (1,)), ((2,), (1,))) == 1
    with pytest.raises(ParityMismatch):
        multi_character(((1,), (1,)), ((2,), (1,)))


def test_disk_cache_roundtrip(tmp_path):
    characters.set_cache_dir(str(tmp_path))
    try:
        t1 = brauer_table(3)
        assert os.path.exists(tmp_path / "brauer_3.json")
        t2 = brauer_table(3)
        assert t1 == t2
    finally:
        characters.set_cache_dir(None)


def test_disk_cache_corruption_falls_back(tmp_path):
    characters.set_cache_dir(str(tmp_path))
    try:
        (tmp_path / "brauer_2.json").write_text("{not json")
        table = brauer_table(2)
        assert table[((), (2,))] == 1
        # the rewritten file is valid again
        data = json.loads((tmp_path / "brauer_2.json").read_text())
        assert data["schema"] == "brauer-chars-v1"
    finally:
        characters.set_cache_dir(None)
