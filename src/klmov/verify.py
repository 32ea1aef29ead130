"""Named verification checks: table regressions and randomized properties.

Each check returns (passed, detail).  The command line runs them through
``run_suite``; the acceptance tests call them one by one.
"""

from __future__ import annotations

import random
from fnmatch import fnmatchcase
from fractions import Fraction

from .bmw import (
    C2Element,
    c2_mul,
    cubic_relation_holds,
    eigenvalue_checks,
    idempotent_checks,
    inverse_check,
    power_trace_crosscheck,
    relation_a5_holds,
    x_trace,
)
from .characters import brauer_character, sn_column
from .errors import KlmovError
from .laurent import (
    RationalQT,
    Z,
    from_z_basis,
    qdiff_inverse,
    rational_product,
    rational_sum,
    to_z_basis,
    valuation_at_q1,
)
from .lmov import (
    UnlinkSpec,
    column_integrality_check,
    conjecture_lhs,
    degree_check,
    extract_n_table,
    free_energy,
    lickorish_millett_check,
)
from .partitions import (
    kappa,
    lemma72_sum,
    mp_norm,
    partitions_of,
    splittings,
    transpose,
    updown_dimension,
    z_stat,
)
from .rmatrix import bmw_relations_check, braid_relation_check, k2rho_trace, ribbon_check
from .schur import (
    evaluate_sb_element,
    pb_in_sb,
    pb_value,
    sb_closed_form,
    sb_in_pb,
    unknot_identity_check,
)
from .torus import TorusLinkSpec, ctilde, torus_invariant

# -- regression sources --------------------------------------------------------


def _two_component(k):
    return TorusLinkSpec(1, k, 2)


def _knot(k):
    return TorusLinkSpec(2, k, 1)


def _three_component(k):
    return TorusLinkSpec(1, k, 3)


REGRESSION_PAIRS = (
    [
        (_two_component(k), mu)
        for k in (1, 2, 3)
        for mu in [
            ((1,), (1,)),
            ((1, 1), (1,)),
            ((2,), (1,)),
            ((2,), (2,)),
            ((3,), (1,)),
        ]
    ]
    + [(_knot(k), mu) for k in (3, 5) for mu in [((1, 1),), ((2,),)]]
    + [(_three_component(k), ((2,), (1,), (1,))) for k in (1, 2)]
    + [(_two_component(1), ((1,), (2,)))]
)


# -- table regressions -----------------------------------------------------------


def check_brauer_tables():
    from . import golden
    count = 0
    for n in (2, 3, 4):
        expected = dict(golden.SN_TABLES[n])
        expected.update(golden.BRAUER_EXTRA_ROWS[n])
        for key, val in expected.items():
            got = brauer_character(*key)
            if got != val:
                return False, f"entry {key} of the rank-{n} table is {got}, expected {val}"
            count += 1
    return True, f"{count} table entries match"


def check_pb_sb_conversions():
    from . import golden
    count = 0
    for mu, expected in golden.PB_IN_SB.items():
        got = pb_in_sb(mu)
        if got != {k: v for k, v in expected.items() if v}:
            return False, f"pb({mu}) expands to {got}, expected {expected}"
        count += 1
    for a, expected in golden.SB_IN_PB.items():
        got = sb_in_pb(a)
        if got != {k: v for k, v in expected.items() if v}:
            return False, f"sb({a}) expands to {got}, expected {expected}"
        count += 1
    return True, f"{count} conversion lines match in both directions"


def check_sb_closed_forms():
    from . import golden
    reference = golden.sb_closed_reference()
    for a, expected in reference.items():
        if sb_closed_form(a) != expected:
            return False, f"closed form at {a} disagrees"
    return True, f"{len(reference)} closed forms match"


def check_ctilde_tables():
    from . import golden
    tables = [
        (golden.CTILDE_R2_L1, 2),
        (golden.CTILDE_R1_L2, 1),
        (golden.CTILDE_R1_L3, 1),
    ]
    rows = 0
    for table, r in tables:
        for colors, expected in table.items():
            got = ctilde(colors, r)
            for lam, val in expected.items():
                if got.get(lam, 0) != val:
                    return False, (
                        f"cabling constant {lam} of {colors} at r={r} is "
                        f"{got.get(lam, 0)}, expected {val}"
                    )
            extra = {k: v for k, v in got.items() if v and k not in expected}
            if extra:
                return False, f"unexpected constants {extra} for {colors} at r={r}"
            rows += 1
    return True, f"{rows} table rows match"


def _expected_torus(terms, k):
    return rational_sum(
        (sb_closed_form(label), {(qslope * k, tslope * k): coef})
        for coef, qslope, tslope, label in terms
    )


def check_torus_expansions():
    from . import golden
    count = 0
    families = [
        (golden.TORUS_SB_EXPANSIONS_2COMP, _two_component, (1, 2, 3)),
        (golden.TORUS_SB_EXPANSIONS_KNOT, _knot, (1, 3, 5)),
        (golden.TORUS_SB_EXPANSIONS_3COMP, _three_component, (1, 2, 3)),
    ]
    for table, make_spec, ks in families:
        for colors, terms in table.items():
            for k in ks:
                spec = make_spec(k)
                if torus_invariant(spec, colors) != _expected_torus(terms, k):
                    return False, f"invariant of {spec.describe()} with colors {colors} disagrees at k={k}"
                count += 1
    return True, f"{count} invariant expansions match"


def _ntable_from_golden(table):
    return {
        (Fraction(g2, 2), beta): n
        for g2, row in table.items()
        for beta, n in row.items()
        if n
    }


def check_n_tables():
    from . import golden
    cases = []
    for k, table in golden.N_TABLE_COLUMN_2COMP.items():
        cases.append((_two_component(k), ((1, 1), (1,)), table))
    for k, table in golden.N_TABLE_ROW_2COMP.items():
        cases.append((_two_component(k), ((2,), (1,)), table))
    for k, table in golden.N_TABLE_ROW_ROW_2COMP.items():
        cases.append((_two_component(k), ((2,), (2,)), table))
    for k, table in golden.N_TABLE_LONGROW_2COMP.items():
        cases.append((_two_component(k), ((3,), (1,)), table))
    for k in (1, 2, 3):
        cases.append((_two_component(k), ((1,), (1,)), {}))
    cases.append((_knot(3), ((1, 1),), golden.N_TABLE_TREFOIL_COLUMN[3]))
    cases.append((_knot(3), ((2,),), golden.N_TABLE_TREFOIL_ROW[3]))
    for k, table in golden.N_TABLE_3COMP.items():
        cases.append((_three_component(k), ((2,), (1,), (1,)), table))

    entries = 0
    mismatches = []
    for src, mu, table in cases:
        got = extract_n_table(conjecture_lhs(src, mu, antisymmetrize=True), mu)
        want = _ntable_from_golden(table)
        if got != want:
            mismatches.append(
                f"{src.describe()} colored {mu}: computed {got or 'empty'}, "
                f"published {want or 'empty'}"
            )
        else:
            entries += max(len(want), 1)
    if mismatches:
        return False, (
            f"{entries} coefficients match but {len(mismatches)} table(s) disagree "
            f"with the published values: " + "; ".join(mismatches)
        )
    return True, f"{entries} integer coefficients match over {len(cases)} tables"


def _z_terms(rows):
    """The z-basis dict of golden rows {zpow: {texp: coefficient}}, zero
    coefficients dropped."""
    return {(zp, b): c for zp, row in rows.items() for b, c in row.items() if c}


def check_z_expansions():
    from . import golden
    cases = []
    for k, rows in golden.Z_EXPANSION_COLUMN_2COMP.items():
        cases.append((_two_component(k), ((1, 1), (1,)), rows))
    for k, rows in golden.Z_EXPANSION_ROW_2COMP.items():
        cases.append((_two_component(k), ((2,), (1,)), rows))
    cases.append((_knot(3), ((1, 1),), golden.Z_EXPANSION_TREFOIL_COLUMN))
    for k, rows in golden.Z_EXPANSION_3COMP.items():
        cases.append((_three_component(k), ((2,), (1,), (1,)), rows))

    for src, mu, rows in cases:
        expected = _z_terms(rows)
        got = conjecture_lhs(src, mu, antisymmetrize=False)
        if got != expected:
            return False, f"z-expansion for {src} colored {mu} disagrees"
    return True, f"{len(cases)} z-expansions match"


def check_hopf_crosscheck():
    from . import golden
    spec = _two_component(1)
    mu = ((1,), (2,))
    f = free_energy(spec, mu)
    qplus = RationalQT({(1, 0): 1, (-1, 0): 1})
    t2 = RationalQT({(0, 2): 1, (0, -2): -1})
    zplus = RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})
    if f * 2 != qplus * t2 * zplus:
        return False, "doubled free energy of the mixed-colored Hopf link disagrees"
    if conjecture_lhs(spec, mu, antisymmetrize=False) != _z_terms(golden.Z_EXPANSION_HOPF_MIXED):
        return False, "mixed-colored Hopf link integrality display disagrees"
    return True, "doubled free energy and its integral form both match"


def check_rmatrix():
    for n in (1, 2, 3):
        if not ribbon_check(n):
            return False, f"ribbon scalar wrong at N={n}"
        if not (bmw_relations_check(n) and braid_relation_check(n)):
            return False, f"braiding relations fail at N={n}"
        trace = k2rho_trace(n)
        expected = sb_closed_form((1,)).specialize_t(2 * n)
        if trace != expected:
            return False, f"enhancement trace differs from the loop weight at N={n}"
    return True, "ribbon, cubic, idempotent, and braid identities hold for N=1..3"


def check_bmw():
    if not cubic_relation_holds():
        return False, "cubic relation fails"
    if not relation_a5_holds():
        return False, "skein relation fails"
    if not inverse_check():
        return False, "inverse fails"
    if not idempotent_checks():
        return False, "idempotent resolution fails"
    if not eigenvalue_checks():
        return False, "eigenvalues fail"
    for m in range(1, 7):
        if not power_trace_crosscheck(m):
            return False, f"trace of g^{m} disagrees with the torus invariant"
    return True, "relations, idempotents, and trace crosschecks for m=1..6 hold"


def _unlink_mus(max_norm):
    singles = [(lam,) for n in range(1, max_norm + 1) for lam in partitions_of(n)]
    doubles = []
    for n1 in range(0, max_norm + 1):
        for lam1 in partitions_of(n1):
            for n2 in range(0, max_norm - n1 + 1):
                for lam2 in partitions_of(n2):
                    if n1 + n2:
                        doubles.append((lam1, lam2))
    return singles, doubles


def check_degree_bound():
    checked = 0
    for src, mu in REGRESSION_PAIRS:
        res = degree_check(src, mu)
        if not res.passed:
            return False, f"degree bound fails for {src} colored {mu}: {res}"
        checked += 1
    singles, doubles = _unlink_mus(6)
    for mu in singles:
        res = degree_check(UnlinkSpec(1), mu)
        if not res.passed:
            return False, f"degree bound fails for the unknot colored {mu}: {res}"
        checked += 1
    for mu in doubles:
        res = degree_check(UnlinkSpec(2), mu)
        if not res.passed:
            return False, f"degree bound fails for the 2-unlink colored {mu}: {res}"
        checked += 1
    return True, f"valuation bound holds for {checked} free energies"


def check_lickorish_millett():
    for k in (1, 2, 3):
        if not lickorish_millett_check(_two_component(k)):
            return False, f"coefficient relations fail for {_two_component(k).describe()}"
    for k in (1, 2):
        if not lickorish_millett_check(_three_component(k)):
            return False, f"coefficient relations fail for {_three_component(k).describe()}"
    return True, "both coefficient relations hold for the five regression links"


def check_unknot_partition_function():
    for n in range(1, 5):
        for mu in partitions_of(n):
            if not unknot_identity_check(mu):
                return False, f"character-sum identity fails at {mu}"
    for n in range(1, 7):
        f = free_energy(UnlinkSpec(1), ((n,),))
        if f * n != pb_value(n):
            return False, f"free energy on the single row ({n}) disagrees"
        lhs = conjecture_lhs(UnlinkSpec(1), ((n,),), antisymmetrize=True)
        if any(c.denominator != 1 for c in lhs.values()):
            return False, f"integrality fails for the unknot at row ({n})"
    for n in range(2, 7):
        for mu in partitions_of(n):
            if len(mu) >= 2 and not free_energy(UnlinkSpec(1), (mu,)).is_zero:
                return False, f"free energy should vanish at {mu}"
    for mu1 in partitions_of(1) + partitions_of(2):
        for mu2 in partitions_of(1) + partitions_of(2):
            if not free_energy(UnlinkSpec(2), (mu1, mu2)).is_zero:
                return False, f"free energy should vanish at ({mu1}, {mu2})"
    return True, "character identity, row values, vanishing, and integrality hold"


def check_vanishing_sum():
    cases = 0
    for total in range(2, 8):
        for dvec in partitions_of(total):
            val = lemma72_sum(dvec)
            if val != 0:
                return False, f"sum at {dvec} equals {val}, expected 0"
            cases += 1
    if lemma72_sum((1,)) != 1:
        return False, "excluded single-box case should give 1"
    return True, f"alternating sum vanishes for all {cases} weight vectors with 2 <= |d| <= 7"


def check_column_integrality():
    cases = [
        (_two_component(1), (1, 1)),
        (_two_component(2), (2, 1)),
        (_two_component(1), (2, 2)),
        (_knot(3), (2,)),
        (_knot(3), (3,)),
        (_three_component(1), (1, 1, 1)),
        (UnlinkSpec(2), (1, 1)),
        (UnlinkSpec(1), (4,)),
    ]
    for src, dvec in cases:
        if not column_integrality_check(src, dvec):
            return False, f"column integrality fails for {src} at {dvec}"
    return True, f"{len(cases)} column-shape integrality checks hold"


# -- randomized properties -------------------------------------------------------

# the reciprocals of 1, q - 1/q, q + 1/q, q^2 - q^-2 and (q - 1/q)^2
_INVERSES = (
    RationalQT(1),
    qdiff_inverse(1),
    Z * qdiff_inverse(2),
    qdiff_inverse(2),
    qdiff_inverse(1) ** 2,
)


def _random_rational(rng):
    num = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-3, 3), rng.randint(-2, 2))
        num[key] = num.get(key, 0) + rng.randint(-3, 3)
    return rational_product((num, rng.choice(_INVERSES)))


def check_ring_axioms(seed=0):
    rng = random.Random(seed)
    for _ in range(40):
        x, y, z = (_random_rational(rng) for _ in range(3))
        if (x + y) + z != x + (y + z):
            return False, "associativity of addition fails"
        if (x * y) * z != x * (y * z):
            return False, "associativity of multiplication fails"
        if x * (y + z) != x * y + x * z:
            return False, "distributivity fails"
        if x + (-x) != RationalQT(0):
            return False, "additive inverse fails"
        if x.substitute() != x:
            return False, "identity substitution fails"
        if x.substitute(qpow=2, tpow=3).substitute(qpow=3, tpow=2) != x.substitute(
            qpow=6, tpow=6
        ):
            return False, "substitution does not compose multiplicatively"
        if not x.is_zero and not y.is_zero:
            if valuation_at_q1(x * y) != valuation_at_q1(x) + valuation_at_q1(y):
                return False, "valuation is not additive"
    return True, "ring axioms, substitution, and valuation additivity hold"


def check_z_roundtrip(seed=0):
    rng = random.Random(seed)
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 5)):
            zp = rng.randint(0, 4)
            tp = rng.randint(-3, 3)
            c = rng.randint(-4, 4)
            if c:
                terms.append((Z**zp, {(0, tp): c}))
        value = rational_sum(terms)
        if from_z_basis(to_z_basis(value)) != value:
            return False, "z-basis round trip fails"
    return True, "z-basis decomposition round-trips on random values"


def check_character_orthogonality():
    for n in range(2, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(x * y for x, y in zip(sn_column(mu), sn_column(nu)))
                want = z_stat(mu) if mu == nu else 0
                if total != want:
                    return False, f"orthogonality fails at n={n}, {mu}, {nu}"
    return True, "column orthogonality holds exactly for n <= 7"


def check_updown_dimensions():
    for n in range(1, 7):
        total = 0
        for m in range(n % 2, n + 1, 2):
            for lam in partitions_of(m):
                total += updown_dimension(lam, n) ** 2
        dfact = 1
        for i in range(2 * n - 1, 0, -2):
            dfact *= i
        if total != dfact:
            return False, f"sum of squared dimensions at n={n} is {total}, expected {dfact}"
    return True, "squared dimensions sum to (2n-1)!! for n <= 6"


def check_ctilde_identity():
    colors_list = []
    for n in (1, 2, 3):
        for lam in partitions_of(n):
            colors_list.append((lam,))
    colors_list += [((1,), (1,)), ((2,), (1,)), ((1, 1), (1,)), ((1,), (1,), (1,))]
    checked = 0
    for colors in colors_list:
        if mp_norm(colors) > 3:
            continue
        for r in (1, 2):
            lhs = evaluate_sb_element(ctilde(colors, r))
            rhs = rational_product(
                sb_closed_form(a).substitute(qpow=r, tpow=r) for a in colors
            )
            if lhs != rhs:
                return False, f"defining identity fails for {colors} at r={r}"
            checked += 1
    return True, f"defining identity holds for {checked} color/degree pairs"


def check_kappa_transpose():
    for n in range(1, 9):
        for lam in partitions_of(n):
            if kappa(lam) + kappa(transpose(lam)) != 0:
                return False, f"transpose antisymmetry fails at {lam}"
    return True, "transpose antisymmetry holds for n <= 8"


def check_splitting_coefficients():
    for mu in [((3, 2, 1),), ((2, 1), (3,)), ((4, 2, 1),)]:
        total = sum(coeff for _, coeff in splittings(mu))
        if total != 0:
            return False, f"splitting coefficients of {mu} sum to {total}"
    single = splittings(((2,),))
    if len(single) != 1 or single[0][1] != 1:
        return False, "a single row should not split"
    return True, "splitting coefficients telescope to zero on distinct rows"


def check_trace_symmetry(seed=0):
    rng = random.Random(seed)

    def random_element():
        return C2Element(
            _random_rational(rng), _random_rational(rng), _random_rational(rng)
        )

    for _ in range(6):
        a, b = random_element(), random_element()
        if x_trace(c2_mul(a, b)) != x_trace(c2_mul(b, a)):
            return False, "trace is not symmetric"
    return True, "trace symmetry holds on random elements"


# -- registry --------------------------------------------------------------------

PAPER_CHECKS = [
    ("brauer-characters", check_brauer_tables),
    ("pb-sb-conversions", check_pb_sb_conversions),
    ("sb-closed-forms", check_sb_closed_forms),
    ("ctilde-tables", check_ctilde_tables),
    ("torus-w-expansions", check_torus_expansions),
    ("n-tables", check_n_tables),
    ("z-expansions", check_z_expansions),
    ("hopf-crosscheck", check_hopf_crosscheck),
    ("rmatrix-checks", check_rmatrix),
    ("bmw-rank2", check_bmw),
    ("degree-bound", check_degree_bound),
    ("lickorish-millett", check_lickorish_millett),
    ("unknot-partition-function", check_unknot_partition_function),
    ("vanishing-sum", check_vanishing_sum),
    ("column-integrality", check_column_integrality),
]

PROPERTY_CHECKS = [
    ("ring-axioms", check_ring_axioms),
    ("z-basis-roundtrip", check_z_roundtrip),
    ("char-orthogonality", check_character_orthogonality),
    ("updown-dimensions", check_updown_dimensions),
    ("ctilde-identity", check_ctilde_identity),
    ("kappa-transpose", check_kappa_transpose),
    ("splitting-coefficients", check_splitting_coefficients),
    ("trace-symmetry", check_trace_symmetry),
]

# the checks that take the suite's seed for their random inputs
SEEDED_CHECKS = frozenset({"ring-axioms", "z-basis-roundtrip", "trace-symmetry"})


def run_suite(suite="paper", only=None, seed=0):
    """Run the named checks; returns a list of (name, passed, detail)."""
    if suite == "paper":
        checks = PAPER_CHECKS
    elif suite == "properties":
        checks = PROPERTY_CHECKS
    elif suite == "all":
        checks = PAPER_CHECKS + PROPERTY_CHECKS
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if only is not None:
        checks = [(name, fn) for name, fn in checks if fnmatchcase(name, only)]
        if not checks:
            raise ValueError(f"no check matches {only!r}")
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn(seed=seed) if name in SEEDED_CHECKS else fn()
        except KlmovError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
