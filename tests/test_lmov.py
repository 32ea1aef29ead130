"""Partition-function coefficients, free energy, reformulated invariants,
and the integrality / degree machinery."""

import fractions
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from klmov import laurent
from klmov.characters import brauer_labels
from klmov.errors import ComponentCountMismatch, NonIntegerCoefficient, NotPolynomial
from klmov.laurent import RationalQT, rational_sum, to_z_basis
from klmov.lmov import (
    UnlinkSpec,
    _label_weights,
    column_integrality_check,
    conjecture_lhs,
    degree_check,
    extract_n_table,
    free_energy,
    invariant,
    lickorish_millett_check,
    reformulated_g,
    z_coefficient,
)
from klmov.partitions import kappa, partitions_of, splittings, z_stat_multi
from klmov.schur import pb_value, sb_closed_form
from klmov.torus import (
    TorusLinkSpec,
    bracket_coefficients,
    ctilde,
    kauffman_bracket,
    torus_invariant,
    unlink_invariant,
)
from reference import multi_character


def _mono(qe, te, c=1):
    return RationalQT({(qe, te): c})


def test_z_coefficient_single_label():
    spec = TorusLinkSpec(1, 1, 2)
    assert z_coefficient(spec, ((1,), (1,))) == torus_invariant(spec, ((1,), (1,)))


def test_z_coefficient_row_two():
    # the coloring ((2), empty) sees only the unknot component
    spec = TorusLinkSpec(1, 1, 2)
    got = z_coefficient(spec, ((2,), ()))
    want = (
        sb_closed_form((2,)) - sb_closed_form((1, 1)) + RationalQT(1)
    ) * Fraction(1, 2)
    assert got == want


def test_z_coefficient_unlink_column():
    got = z_coefficient(UnlinkSpec(1), ((1, 1),))
    want = (
        sb_closed_form((2,)) + sb_closed_form((1, 1)) + RationalQT(1)
    ) * Fraction(1, 2)
    assert got == want


def _unlink_label_sum(mu):
    """Z_mu of the unlink as the sum over label tuples, added pairwise."""
    total = RationalQT(0)
    for avec in product(*(brauer_labels(sum(lam)) for lam in mu)):
        ch = multi_character(avec, mu)
        if ch:
            total = total + unlink_invariant(avec) * Fraction(ch, z_stat_multi(mu))
    return total


@pytest.mark.parametrize("mu", [
    ((1,), (1,)),
    ((2,), (1, 1)),
    ((2, 1), ()),
    ((), (3,)),
    ((1,), (2,), (1,)),
    ((1, 1), (), (2,)),
])
def test_unlink_z_coefficient_is_the_label_tuple_sum(mu):
    assert z_coefficient(UnlinkSpec(len(mu)), mu) == _unlink_label_sum(mu)


def test_unlink_z_coefficient_checks_the_component_count():
    with pytest.raises(ComponentCountMismatch, match="^1 colors for 2 components$"):
        z_coefficient(UnlinkSpec(2), ((1,),))


def test_unlink_invariant_checks_the_component_count():
    with pytest.raises(ComponentCountMismatch, match="^1 colors for 2 components$"):
        invariant(UnlinkSpec(2), ((1,),))
    with pytest.raises(ComponentCountMismatch, match="^3 colors for 2 components$"):
        invariant(UnlinkSpec(2), ((1,), (2,), ()))


def _z_coefficient_by_tuples(spec, mu):
    """Z_mu as the sum over label tuples A of chi_A(mu) / z_mu times the
    torus invariant colored by A, each invariant canonicalized on its own."""
    z = z_stat_multi(mu)
    return rational_sum(
        (torus_invariant(spec, avec), Fraction(multi_character(avec, mu), z))
        for avec in product(*(brauer_labels(sum(lam)) for lam in mu))
        if multi_character(avec, mu)
    )


@pytest.mark.parametrize("spec, mu", [
    (TorusLinkSpec(2, 3, 1), ((3,),)),
    (TorusLinkSpec(2, 3, 1), ((2, 1),)),
    (TorusLinkSpec(2, 5, 1), ((2, 2),)),
    (TorusLinkSpec(1, 1, 2), ((2, 1), (1,))),
    (TorusLinkSpec(1, 1, 2), ((2,), (2,))),
    (TorusLinkSpec(1, 2, 3), ((2,), (2,), (1, 1))),
])
def test_z_coefficient_is_the_label_tuple_sum(spec, mu):
    # the Rosso-Jones sum over cable labels against the per-tuple route;
    # the links reach tuples with empty labels, down to the all-empty one
    assert z_coefficient(spec, mu) == _z_coefficient_by_tuples(spec, mu)


_WITHOUT_SINGLE_CHARACTERS = """\
from klmov import characters
def refuse(*args):
    raise AssertionError(f'single character read at {args}')
characters.sn_character = characters.brauer_character = refuse
from klmov import lmov, torus
print(lmov.z_coefficient(torus.TorusLinkSpec(2, 3, 1), ((2, 1),)))
print(lmov.z_coefficient(torus.TorusLinkSpec(1, 2, 3), ((2,), (2,), (1, 1))))
print(lmov.z_coefficient(lmov.UnlinkSpec(2), ((2, 1), (1,))))
print(sorted(torus.ctilde(((2, 1), (1,)), 2).items()))
"""


def test_z_coefficient_reads_only_the_memoised_columns():
    # in a fresh process whose single-character readers raise, Z_mu and
    # ctilde come from the Brauer columns alone
    from klmov import torus

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLMOV_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SINGLE_CHARACTERS],
                         capture_output=True, text=True, env=env, timeout=120,
                         check=True).stdout
    assert out.splitlines() == [
        str(z_coefficient(TorusLinkSpec(2, 3, 1), ((2, 1),))),
        str(z_coefficient(TorusLinkSpec(1, 2, 3), ((2,), (2,), (1, 1)))),
        str(z_coefficient(UnlinkSpec(2), ((2, 1), (1,)))),
        str(sorted(torus.ctilde(((2, 1), (1,)), 2).items())),
    ]


def test_torus_z_coefficient_checks_the_component_count():
    with pytest.raises(ComponentCountMismatch, match="^1 colors for 2 components$"):
        z_coefficient(TorusLinkSpec(1, 1, 2), ((1,),))
    with pytest.raises(ComponentCountMismatch, match="^3 colors for 1 components$"):
        z_coefficient(TorusLinkSpec(2, 3, 1), ((1,), (1,), ()))


def _free_energy_by_products(src, mu):
    """F_mu with every splitting product formed, then summed, pairwise."""
    total = RationalQT(0)
    for parts, coeff in splittings(mu):
        term = RationalQT(1)
        for part in parts:
            term = term * z_coefficient(src, part)
        total = total + term * coeff
    return total


def _multipartitions(ncomp, max_norm):
    """Every nonzero multi-partition of ncomp components and size <= max_norm."""
    for sizes in product(range(max_norm + 1), repeat=ncomp):
        if 0 < sum(sizes) <= max_norm:
            yield from product(*map(partitions_of, sizes))


def _free_energy_oracle_pairs():
    """Six mixed colorings, the degree-bound inputs of verify, then torus
    links and a 3-unlink colored up to a size each; each pair once."""
    from klmov.verify import REGRESSION_PAIRS, _unlink_mus

    pairs = [
        (TorusLinkSpec(2, 3, 1), ((2, 1),)),
        (TorusLinkSpec(2, 3, 1), ((1, 1, 1),)),
        (TorusLinkSpec(1, 1, 2), ((2, 1), (1,))),
        (TorusLinkSpec(1, 1, 2), ((1, 1), (1, 1))),
        (UnlinkSpec(2), ((2, 1), (1,))),
        (UnlinkSpec(2), ((1, 1), (2, 1))),
    ]
    singles, doubles = _unlink_mus(6)
    pairs += (list(REGRESSION_PAIRS) + [(UnlinkSpec(1), mu) for mu in singles]
              + [(UnlinkSpec(2), mu) for mu in doubles])
    for src, max_norm in [(TorusLinkSpec(2, 3, 1), 5), (TorusLinkSpec(2, 5, 1), 4),
                          (TorusLinkSpec(1, 1, 2), 4), (TorusLinkSpec(1, 2, 2), 4),
                          (TorusLinkSpec(1, 2, 3), 3), (TorusLinkSpec(3, 4, 1), 3),
                          (UnlinkSpec(3), 4)]:
        pairs += [(src, mu) for mu in _multipartitions(src.L, max_norm)]
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("src, mu", _free_energy_oracle_pairs())
def test_free_energy_is_the_sum_of_splitting_products(src, mu):
    assert free_energy(src, mu) == _free_energy_by_products(src, mu)


@pytest.mark.parametrize("src, mu", [(TorusLinkSpec(1, 1, 2), ((), ())),
                                     (UnlinkSpec(2), ((), ()))])
def test_free_energy_rejects_the_zero_multipartition(src, mu):
    with pytest.raises(ValueError, match="^cannot split the zero multi-partition$"):
        free_energy(src, mu)


def test_free_energy_hopf_column():
    # F on ((1,1),(1)) decomposes through the four splittings
    spec = TorusLinkSpec(1, 1, 2)
    z11_1 = z_coefficient(spec, ((1, 1), (1,)))
    z11 = z_coefficient(spec, ((1, 1), ()))
    z1_1 = z_coefficient(spec, ((1,), (1,)))
    z1 = z_coefficient(spec, ((1,), ()))
    zb = z_coefficient(spec, ((), (1,)))
    want = z11_1 - z11 * zb - z1_1 * z1 + z1 * z1 * zb
    assert free_energy(spec, ((1, 1), (1,))) == want


def test_free_energy_unlink():
    assert free_energy(UnlinkSpec(1), ((1, 1),)).is_zero
    for n in range(1, 7):
        assert free_energy(UnlinkSpec(1), ((n,),)) * n == pb_value(n)


def test_free_energy_vector_vector_closed_form():
    # F on ((1),(1)) for T(2,2k): odd t-part is (t - 1/t)(q^k - q^-k)^2 / z
    for k in (1, 2, 3):
        spec = TorusLinkSpec(1, k, 2)
        f = free_energy(spec, ((1,), (1,)))
        odd = (f - f.substitute(tsign=-1)) * Fraction(1, 2)
        want = (
            (_mono(k, 1) - _mono(-k, 1) - _mono(k, -1) + _mono(-k, -1))
            / RationalQT({(1, 0): 1, (-1, 0): -1})
        ) * (_mono(k, 0) - _mono(-k, 0))
        assert odd == want


def test_reformulated_g_mobius():
    spec = TorusLinkSpec(1, 1, 2)
    mu = ((2,), (2,))
    got = reformulated_g(spec, mu)
    want = free_energy(spec, mu) - free_energy(spec, ((1,), (1,))).substitute(
        qpow=2, tpow=2
    ) * Fraction(1, 2)
    assert got == want
    assert reformulated_g(spec, ((1,), (1,))) == free_energy(spec, ((1,), (1,)))
    assert reformulated_g(spec, ((2,), (1,))) == free_energy(spec, ((2,), (1,)))


def test_reformulated_g_unknot_rows_vanish():
    for n in range(2, 7):
        assert reformulated_g(UnlinkSpec(1), ((n,),)).is_zero


def test_conjecture_lhs_display_row():
    got = conjecture_lhs(TorusLinkSpec(1, 1, 2), ((2,), (1,)), antisymmetrize=False)
    want = {(0, -3): 1, (0, -1): -1, (0, 1): -1, (0, 3): 1, (1, -2): -1, (1, 2): 1}
    assert got == want


def test_conjecture_lhs_display_column():
    got = conjecture_lhs(TorusLinkSpec(1, 1, 2), ((1, 1), (1,)), antisymmetrize=False)
    want = {(0, -3): -1, (0, -1): 3, (0, 1): -3, (0, 3): 1, (1, -2): 1, (1, 0): -2, (1, 2): 1}
    assert got == want


def test_conjecture_lhs_hopf_mixed():
    got = conjecture_lhs(TorusLinkSpec(1, 1, 2), ((1,), (2,)), antisymmetrize=False)
    want = {(0, 3): 1, (0, 1): -1, (0, -1): -1, (0, -3): 1, (1, 2): 1, (1, -2): -1}
    assert got == want


def test_extract_n_table():
    spec = TorusLinkSpec(1, 1, 2)
    table = extract_n_table(conjecture_lhs(spec, ((2,), (1,))), ((2,), (1,)))
    assert table == {
        (Fraction(0), -3): 1,
        (Fraction(0), -1): -1,
        (Fraction(0), 1): -1,
        (Fraction(0), 3): 1,
    }
    table = extract_n_table(conjecture_lhs(spec, ((3,), (1,))), ((3,), (1,)))
    assert table == {(Fraction(1, 2), -3): -1, (Fraction(1, 2), 3): 1}
    assert extract_n_table({}, ((1,),)) == {}


def test_extract_n_table_rejects_fractions():
    with pytest.raises(NonIntegerCoefficient):
        extract_n_table({(0, 0): Fraction(1, 2)}, ((1,),))


def test_integrality_regression_includes_larger_k():
    # knots at k = 5 are not tabulated but must still land in the ring
    for mu in [((1, 1),), ((2,),)]:
        poly = conjecture_lhs(TorusLinkSpec(2, 5, 1), mu)
        assert poly and all(c.denominator == 1 for c in poly.values())


def test_degree_check():
    spec = TorusLinkSpec(1, 1, 2)
    res = degree_check(spec, ((1,), (1,)))
    assert res.passed and res.bound == 0 and res.valuation >= 0
    res = degree_check(TorusLinkSpec(2, 3, 1), ((1, 1),))
    assert res.passed and res.bound == 0
    res = degree_check(UnlinkSpec(1), ((3,),))
    assert res == (-1, -1, True)
    res = degree_check(UnlinkSpec(1), ((1, 1),))
    assert res.valuation is None and res.passed


def test_column_integrality():
    assert column_integrality_check(TorusLinkSpec(1, 1, 2), (1, 1))
    assert column_integrality_check(TorusLinkSpec(1, 2, 2), (2, 1))
    assert column_integrality_check(UnlinkSpec(2), (1, 1))


def test_lickorish_millett():
    for k in (1, 2, 3):
        assert lickorish_millett_check(TorusLinkSpec(1, k, 2))
    for k in (1, 2):
        assert lickorish_millett_check(TorusLinkSpec(1, k, 3))
    assert lickorish_millett_check(TorusLinkSpec(2, 3, 1))  # vacuous for knots


def test_case_a_family_closed_form():
    # the two-box coloring of T(2,2k): z_mu * g equals the expansion
    # ((q^(2k+1)+q^(-2k-1))/(q+1/q) - 1)/z^2 * t^2 + ... with an odd part
    # z (t - 1/t) [k]^2; spot-check the full value at k=1
    spec = TorusLinkSpec(1, 1, 2)
    f = free_energy(spec, ((1,), (1,)))
    z = RationalQT({(1, 0): 1, (-1, 0): -1})
    tau = RationalQT({(0, 1): 1, (0, -1): -1})
    want = z * tau + RationalQT({(0, 2): 1, (0, 0): -2, (0, -2): 1})
    assert f == want


def test_knot_row_antisymmetrized_closed_form():
    # the antisymmetrized combination z_mu (g(q,t) - g(q,-t))/2 for the row
    # color on T(2,k) has a closed form valid for every odd k; checked well
    # beyond the tabulated range
    def mono(a, b, c=1):
        return RationalQT({(a, b): c})

    def qd(n):
        return RationalQT({(n, 0): 1, (-n, 0): -1})

    for k in (3, 5, 7):
        g = reformulated_g(TorusLinkSpec(2, k, 1), ((2,),))
        lhs = (g - g.substitute(tsign=-1)) * Fraction(1, 2) * 2
        inner_a = (
            -(mono(0, 2) + mono(0, -2))
            * (mono(2 * k, 0) + mono(-2 * k, 0) - mono(2, 0) - mono(-2, 0))
            + (mono(4, 0) + mono(-4, 0)) * (mono(2 * k, 0) + mono(-2 * k, 0))
            - mono(4, 0)
            - mono(0, 0, 2)
            - mono(-4, 0)
        )
        part_a = qd(2 * k) * inner_a / qd(1) / qd(3)
        inner_b = -mono(k + 1, 1) + mono(-k - 1, 1) + mono(k - 1, -1) - mono(1 - k, -1)
        part_b = qd(4 * k) * inner_b * mono(0, -k) / qd(2)
        tau = RationalQT({(0, 1): 1, (0, -1): -1})
        closed = mono(0, -2 * k) * (tau * (part_a + part_b) / qd(1))
        assert lhs == closed, k


def _conjecture_lhs_by_division(src, mu, antisymmetrize):
    # the route of z_mu z^2 g / prod(q^row - q^-row) that divides row by row
    g = reformulated_g(src, mu)
    if antisymmetrize:
        g = (g - g.substitute(tsign=-1)) * Fraction(1, 2)
    z = RationalQT({(1, 0): 1, (-1, 0): -1})
    value = g * z_stat_multi(mu) * z * z
    for lam in mu:
        for row in lam:
            value = value / RationalQT({(row, 0): 1, (-row, 0): -1})
    return to_z_basis(value)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotPolynomial as exc:
        return f"NotPolynomial: {exc}"


@pytest.mark.parametrize("src, mu", [
    (TorusLinkSpec(2, 3, 1), ((2,),)),
    (TorusLinkSpec(1, 1, 2), ((2,), (1,))),
    (UnlinkSpec(2), ((1,), (1,))),
    (UnlinkSpec(2), ((2,), (1,))),
], ids=["T(2,3)-2", "T(2,2)-2|1", "unlink2-1|1", "unlink2-2|1"])
@pytest.mark.parametrize("antisymmetrize", [True, False])
def test_conjecture_lhs_is_the_row_by_row_quotient(src, mu, antisymmetrize):
    got = _outcome(conjecture_lhs, src, mu, antisymmetrize)
    assert got == _outcome(_conjecture_lhs_by_division, src, mu, antisymmetrize)
    if (src, mu, antisymmetrize) == (TorusLinkSpec(2, 3, 1), ((2,),), False):
        assert got == "NotPolynomial: remainder 2 in univariate division"
    else:
        assert isinstance(got, dict)


def _clear_memos():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("klmov."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_free_energy_sums_build_no_fraction():
    # the sums run on int t-slices: laurent code under rational_sum builds no
    # Fraction for a benchmark table job (T(2,5) colored 3,1), memos cleared
    _clear_memos()
    new, built = Fraction.__new__.__code__, []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code is not new:
            return
        caller = frame.f_back
        while caller.f_code.co_filename == fractions.__file__:
            caller = caller.f_back
        first = caller.f_code.co_name
        while caller is not None and caller.f_code.co_filename == laurent.__file__:
            if caller.f_code.co_name == "rational_sum":
                built.append(first)
                return
            caller = caller.f_back

    sys.setprofile(profile)
    try:
        free_energy(TorusLinkSpec(2, 5, 1), ((3, 1),))
    finally:
        sys.setprofile(None)
    assert not built, sorted(set(built))


def test_free_energy_terms_have_at_most_two_factors(monkeypatch):
    # each term of the recursion is one F_rho times one Z_(mu - rho); the 31
    # splittings of this coloring multiply up to six Z values
    from klmov import lmov

    _clear_memos()
    widths = []

    def spy(terms, expect=None):
        terms = list(terms)
        if sys._getframe(1).f_code.co_name == "free_energy":
            widths.extend((len(x) if isinstance(x, tuple) else 1) + isinstance(m, dict)
                          for x, m in terms)
        return rational_sum(terms, expect)

    monkeypatch.setattr(lmov, "rational_sum", spy)
    mu = ((1, 1, 1), (1, 1, 1))
    assert len(splittings(mu)) == 31
    free_energy(UnlinkSpec(2), mu)
    assert widths and max(widths) <= 2


def test_library_arithmetic_renders_no_num_or_den(monkeypatch):
    # .num and .den render the stored rows and mults for readers; every
    # operation reads the rows: one table job of each benchmark pool, the
    # bracket division, a q-only quotient and the finding of a value with a
    # pole, memos cleared
    _clear_memos()

    def rendered(self):
        raise AssertionError("library arithmetic rendered .num or .den")

    monkeypatch.setattr(RationalQT, "num", property(rendered))
    monkeypatch.setattr(RationalQT, "den", property(rendered))
    for src, mu in [(TorusLinkSpec(1, 1, 2), ((3, 1), (2, 2))),
                    (TorusLinkSpec(2, 5, 1), ((3, 1),)),
                    (TorusLinkSpec(1, 2, 3), ((2,), (2,), (2,)))]:
        assert extract_n_table(conjecture_lhs(src, mu), mu)
    for spec in (TorusLinkSpec(1, 2, 2), TorusLinkSpec(1, 1, 3)):
        assert kauffman_bracket(spec) and bracket_coefficients(spec)
    assert sb_closed_form((1,)).specialize_t(4) == {3: 1, 1: 1, 0: 1, -1: 1, -3: 1}
    dividend = RationalQT({(2, 0): 1, (-2, 0): -1})
    assert dividend / RationalQT({(1, 0): 1, (-1, 0): -1}) == RationalQT({(1, 0): 1, (-1, 0): 1})
    with pytest.raises(NotPolynomial, match="^remainder 2 in univariate division$"):
        conjecture_lhs(TorusLinkSpec(2, 3, 1), ((2,),), antisymmetrize=False)


# the nine table jobs of the benchmark: T(2,2), T(2,5) and T(3,6)
BENCHMARK_TABLES = (
    [(TorusLinkSpec(1, 1, 2), mu) for mu in (((4, 2), (2,)), ((2, 2), (4,)), ((3, 1), (2, 2)))]
    + [(TorusLinkSpec(2, 5, 1), mu) for mu in (((4,),), ((3, 1),), ((2, 2),))]
    + [(TorusLinkSpec(1, 2, 3), mu) for mu in (((2,), (2,), (2,)), ((2,), (2,), (1, 1)),
                                               ((1, 1), (2,), (2,)))]
)


def _row_prediction(mu):
    """The Phi_d multiplicities of prod (q^row - q^-row) over mu's rows."""
    out = {}
    for row in (row for lam in mu for row in lam):
        for d in range(1, 2 * row + 1):
            if 2 * row % d == 0:
                out[d] = out.get(d, 0) + 1
    return tuple(sorted(out.items()))


def test_predicted_denominators_hold(monkeypatch):
    # the Rosso-Jones sums of Z_mu and of the torus invariants and the sums
    # of F, g and the integrality display each divide once by a predicted
    # denominator; a wrong cabling constant breaks the prediction, which
    # would show here as a fallback to the content search
    from klmov import golden
    from klmov.partitions import mp_is_zero, sub_multisets
    from klmov.verify import REGRESSION_PAIRS, _knot, _three_component, _two_component

    _clear_memos()
    held, predicted = [], laurent._predicted

    def spy(polys, top, expect):
        out = predicted(polys, top, expect)
        held.append(out is not None)
        return out

    monkeypatch.setattr(laurent, "_predicted", spy)
    for src, mu in list(REGRESSION_PAIRS) + BENCHMARK_TABLES:
        for rho, _ in sub_multisets(mu):
            if not mp_is_zero(rho):
                assert z_coefficient(src, rho).mults == _row_prediction(rho), (src, rho)
        conjecture_lhs(src, mu)
    for table, make_spec, ks in [(golden.TORUS_SB_EXPANSIONS_2COMP, _two_component, (1, 2, 3)),
                                 (golden.TORUS_SB_EXPANSIONS_KNOT, _knot, (1, 3, 5)),
                                 (golden.TORUS_SB_EXPANSIONS_3COMP, _three_component, (1, 2, 3))]:
        for colors in table:
            for k in ks:
                torus_invariant(make_spec(k), colors)
    assert len(held) > 200 and all(held)


def _nonzero(weights):
    """The weights with zero coefficients and then empty labels dropped."""
    out = {lam: {e: c for e, c in p.items() if c} for lam, p in weights.items()}
    return {lam: p for lam, p in out.items() if p}


def _label_weights_by_definition(src, mu):
    """sum_A chi_A(mu) / z_mu times the cabling terms of A, collected by cable
    label lam as exact Fraction term dicts.  For T(r, k) with r <= k the
    terms of the nonempty labels of A are ctilde_lam q^(k (kappa(lam) -
    r^2 K) / r) t^(k (|lam| - r^2 n) / r), with n their total size and K
    their total kappa; an all-empty A is the label () and an unknot's A is
    its own label, each with monomial 1."""
    out = {}
    for avec in product(*(brauer_labels(sum(lam)) for lam in mu)):
        w = Fraction(multi_character(avec, mu), z_stat_multi(mu))
        active = tuple(a for a in avec if a)
        if isinstance(src, UnlinkSpec):
            terms = {avec[0]: ((0, 0), 1)}
        elif not active:
            terms = {(): ((0, 0), 1)}
        else:
            r, k = min(src.r, src.k), max(src.r, src.k)
            n, big_k = sum(map(sum, active)), sum(map(kappa, active))
            terms = {}
            for lam, c in ctilde(active, r).items():
                qe, qrem = divmod(k * (kappa(lam) - r * r * big_k), r)
                te, trem = divmod(k * (sum(lam) - r * r * n), r)
                assert qrem == trem == 0, (src, avec, lam)
                terms[lam] = ((qe, te), c)
        for lam, (e, c) in terms.items():
            p = out.setdefault(lam, {})
            p[e] = p.get(e, Fraction(0)) + w * c
    return _nonzero(out)


def _label_weight_pairs():
    from klmov.verify import REGRESSION_PAIRS

    unknot = [(UnlinkSpec(1), (lam,)) for n in range(5) for lam in partitions_of(n)]
    return list(REGRESSION_PAIRS) + BENCHMARK_TABLES + unknot


@pytest.mark.parametrize("src, mu", _label_weight_pairs())
def test_label_weights_are_the_weighted_cabling_terms(src, mu):
    # the seam of the Rosso-Jones sum against its definition, with no
    # Laurent arithmetic: a wrong cabling constant or framing exponent of
    # cable_terms shows here as a wrong weight
    got = _label_weights(src, mu)
    assert all(isinstance(c, Fraction) for p in got.values() for c in p.values())
    assert _nonzero(got) == _label_weights_by_definition(src, mu)
