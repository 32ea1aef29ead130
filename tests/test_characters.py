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
    sn_character,
    sn_column,
)
from klmov.errors import ParityMismatch, SizeMismatch
from klmov.golden import BRAUER_EXTRA_ROWS, SN_TABLES
from klmov.partitions import brauer_label_sizes, partitions_of, z_stat
from reference import multi_character


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


def _pairs(n, table):
    """The label-major ((label, class), value) items of a table of class
    columns, after checking its shape."""
    labels, classes = brauer_labels(n), partitions_of(n)
    assert len(table) == len(classes) and all(len(col) == len(labels) for col in table)
    return [((a, mu), table[j][i]) for i, a in enumerate(labels) for j, mu in enumerate(classes)]


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
        table = dict(_pairs(n, brauer_table(n)))
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
        assert _pairs(n, brauer_table(n)) == list(_restriction_formula_table(n).items())


def test_brauer_tables_match_beta_set_recursion():
    # values and order: columns in class order, each in label order
    for n in range(13):
        assert _pairs(n, brauer_table(n)) == list(_reference_brauer_table(n).items())


def test_brauer_table_is_a_read_only_view():
    table = brauer_table(3)
    with pytest.raises(TypeError):
        table[0] = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        table[0][0] = 0
    assert table == brauer_table(3) and table[0][0] == 1  # chi_(3) at gamma_(3)
    # the table holds no copy: its columns are the memoised class columns
    for n in range(7):
        assert all(col is brauer_column(mu) for col, mu in zip(brauer_table(n), partitions_of(n)))


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
        reference = _reference_brauer_table(n)
        for mu in partitions_of(n):
            want = tuple(reference[(a, mu)] for a in brauer_labels(n))
            assert brauer_column(mu) == want
            assert brauer_column(mu[::-1]) == want


@pytest.mark.parametrize("mu", [(2, 0), (1, 1, 0), (3, -1)])
def test_brauer_column_wants_a_class(mu):
    with pytest.raises(KeyError):
        brauer_column(mu)


def test_brauer_character_rejects_a_larger_label():
    with pytest.raises(ParityMismatch):
        brauer_character((4,), (2,))


_WITHOUT_A_TABLE = """\
import json
from klmov import characters, lmov, schur, torus, verify
def refuse(n):
    raise AssertionError(f'rank-{n} table built or read')
characters._compute_brauer_table = characters._load_brauer_table = refuse
print(json.dumps([[a, mu, characters.brauer_character(a, mu)]
                  for n in range(11)
                  for a in characters.brauer_labels(n)
                  for mu in characters.partitions_of(n)]))
print(json.dumps([[a, schur.render_basis(schur.sb_in_pb_scaled(a), 'pb')]
                  for n in range(7) for a in characters.partitions_of(n)]))
print(sorted(torus.ctilde(((3,), (3,)), 2).items()))
print(lmov.z_coefficient(torus.TorusLinkSpec(2, 5, 1), ((3, 1),)))
print(verify.run_suite("all", only="brauer-characters"))
"""


def test_brauer_characters_without_a_table():
    # in a fresh process whose tables can be neither built nor read, every
    # single character, sb_in_pb_scaled, ctilde, z_coefficient and the
    # brauer-characters check come from the class columns
    from klmov import lmov, schur, torus, verify

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLMOV_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", _WITHOUT_A_TABLE], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout
    chars, sb, ct, z, checks = out.splitlines()
    got = {(tuple(a), tuple(mu)): v for a, mu, v in json.loads(chars)}
    want = {}
    for n in range(11):
        want.update(_reference_brauer_table(n))
    assert got == want
    assert json.loads(sb) == [
        [list(a), schur.render_basis(schur.sb_in_pb_scaled(a), "pb")]
        for n in range(7) for a in partitions_of(n)
    ]
    assert ct == str(sorted(torus.ctilde(((3,), (3,)), 2).items()))
    assert z == str(lmov.z_coefficient(torus.TorusLinkSpec(2, 5, 1), ((3, 1),)))
    assert checks == str([("brauer-characters", True, "58 table entries match")])
    assert checks == str(verify.run_suite("all", only="brauer-characters"))


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
        assert dict(_pairs(2, table))[((), (2,))] == 1
        # the rewritten file is valid again
        data = json.loads((tmp_path / "brauer_2.json").read_text())
        assert data["schema"] == "brauer-chars-v1"
    finally:
        characters.set_cache_dir(None)


@pytest.mark.parametrize("text", [
    "[]",
    json.dumps({"schema": "brauer-chars-v1", "n": 2, "labels": [[2], [1, 1], []],
                "classes": [[2], [1, 1]], "values": [[1, 1], [-1, 1]]}),
    json.dumps({"schema": "brauer-chars-v1", "n": 2, "labels": [[2], [1, 1], []],
                "classes": [[2], [1, 1]], "values": [[1, 1], [-1, 1], [1, 1.0]]}),
])
def test_disk_cache_rejects_a_file_that_is_not_the_table(text, tmp_path):
    # not an object, a missing row, a non-int entry: each is recomputed and
    # the file rewritten
    characters.set_cache_dir(str(tmp_path))
    try:
        (tmp_path / "brauer_2.json").write_text(text)
        assert brauer_table(2) == ((1, -1, 1), (1, 1, 1))
        data = json.loads((tmp_path / "brauer_2.json").read_text())
        assert data["values"] == [[1, 1], [-1, 1], [1, 1]]
    finally:
        characters.set_cache_dir(None)


def test_disk_cache_is_label_major(tmp_path):
    # values[i][j] is the character of labels[i] at classes[j], both ways: a
    # transposition that round-trips would fail one of the two checks
    labels, classes = brauer_labels(3), partitions_of(3)
    rows = [[brauer_character(a, mu) for mu in classes] for a in labels]
    i, j = labels.index((1,)), classes.index((2, 1))
    rows[i][j] += 7
    (tmp_path / "brauer_3.json").write_text(json.dumps({
        "schema": "brauer-chars-v1", "n": 3,
        "labels": [list(a) for a in labels], "classes": [list(mu) for mu in classes],
        "values": rows,
    }))
    characters.set_cache_dir(str(tmp_path))
    try:
        table = brauer_table(3)
        assert table[j][i] == brauer_character((1,), (2, 1)) + 7
        assert [list(col) for col in table] == [list(c) for c in zip(*rows)]
        (tmp_path / "brauer_3.json").unlink()
        brauer_table(3)
    finally:
        characters.set_cache_dir(None)
    data = json.loads((tmp_path / "brauer_3.json").read_text())
    assert data["labels"] == [list(a) for a in labels]
    assert data["classes"] == [list(mu) for mu in classes]
    assert data["values"] == [[brauer_character(a, mu) for mu in classes] for a in labels]
