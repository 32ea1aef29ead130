"""Rank-2 algebra: relations, idempotents, trace, torus crosschecks."""

import random

from klmov import bmw
from klmov.laurent import RationalQT
from klmov.schur import sb_closed_form


def test_multiplication_table():
    x = bmw._X
    ge = bmw.c2_mul(bmw.G, bmw.E)
    assert ge == bmw.E.scale(bmw._TINV)
    assert bmw.c2_mul(bmw.E, bmw.G) == ge
    assert bmw.c2_mul(bmw.E, bmw.E) == bmw.E.scale(x)


def test_inverse():
    assert bmw.inverse_check()


def test_cubic_relation():
    assert bmw.cubic_relation_holds()


def test_skein_relation():
    assert bmw.relation_a5_holds()


def test_idempotents():
    assert bmw.idempotent_checks()


def test_eigenvalues():
    assert bmw.eigenvalue_checks()


def test_trace_values():
    x = RationalQT({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1}) / RationalQT(
        {(1, 0): 1, (-1, 0): -1})
    assert bmw.x_trace(bmw.ONE) == x
    assert bmw.x_trace(bmw.G) == RationalQT({(0, 1): 1})
    assert bmw.x_trace(bmw.E) == 1


def test_trace_symmetry_random():
    rng = random.Random(5)

    def rand():
        return bmw.C2Element(
            RationalQT({(rng.randint(-2, 2), rng.randint(-1, 1)): rng.randint(1, 3)}),
            RationalQT(rng.randint(-2, 2)),
            RationalQT({(rng.randint(-1, 1), 0): rng.randint(-2, 2)}),
        )

    for _ in range(5):
        a, b = rand(), rand()
        assert bmw.x_trace(bmw.c2_mul(a, b)) == bmw.x_trace(bmw.c2_mul(b, a))


def test_power_trace_crosschecks():
    for m in range(1, 7):
        assert bmw.power_trace_crosscheck(m), m


def test_idempotent_traces_are_the_quantum_dimensions():
    # x_trace(x p) = x^2 tr(p), the quantum dimension of p, as the Markov
    # trace on two strands is normalized by x^2: the hook-content closed forms
    # of (2) and (1,1), and 1 for the loop idempotent
    p_sym, p_anti, p_loop = bmw.minimal_idempotents()
    assert bmw.x_trace(p_sym) == sb_closed_form((2,))
    assert bmw.x_trace(p_anti) == sb_closed_form((1, 1))
    assert bmw.x_trace(p_loop) == 1
