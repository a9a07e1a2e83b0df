"""The symbolic coefficient field Q(a, d) and the frozen skein systems.

The three linear systems below are transcribed fixtures; solving them with
rf_solve must reproduce the closed-form coefficient formulas exactly, in
normalized serialized form, and the specializations at (7/3, 26) must hit
the known rational values.
"""

import random
from fractions import Fraction

import pytest

from f4diagrams.ratfield import (
    A,
    D,
    PoleError,
    RatFunc,
    rf,
    rf_solve,
    rf_specialize,
    rf_to_str,
)

ALPHA = Fraction(7, 3)
DELTA = Fraction(26)


def test_arithmetic_normalizes():
    x = (A * D + A * rf(2)) / (D + rf(2))
    assert rf_to_str(x) == "(a^1)/(1)"  # a(d+2)/(d+2) collapses
    assert rf_to_str(A - A) == "(0)/(1)"


def test_pow():
    assert rf_to_str(A ** 0) == "(1)/(1)"
    assert (A + D) ** 2 == A * A + rf(2) * A * D + D * D
    with pytest.raises(ValueError):
        A ** -1


def test_specialize_is_a_homomorphism():
    rng = random.Random(2033)
    for _ in range(30):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        f = rf(p) * A + rf(q) * D * D
        g = A * D - rf(q)
        lhs = rf_specialize(f * g + f, ALPHA, DELTA)
        rhs = (
            (p * ALPHA + q * DELTA**2) * (ALPHA * DELTA - q)
            + (p * ALPHA + q * DELTA**2)
        )
        assert lhs == rhs


def test_pole_detection():
    f = rf(1) / (D + rf(2))
    with pytest.raises(PoleError):
        rf_specialize(f, Fraction(1), Fraction(-2))
    assert rf_specialize(f, ALPHA, DELTA) == Fraction(1, 28)


def test_str_round_trip():
    # the printed normal forms that CLI output and the coefficient fixtures use
    fs = (A, D, (A * A * D - rf(3)) / (D * D + rf(4) * D + rf(4)), rf(0))
    assert [rf_to_str(f) for f in fs] == [
        "(a^1)/(1)",
        "(d^1)/(1)",
        "(a^2*d^1 - 3)/(d^2 + 4*d^1 + 4)",
        "(0)/(1)",
    ]


# --- frozen coefficient systems --------------------------------------------

TWO = rf(2)


def square_system():
    # filling the square skein against the five-diagram expansion
    system = [
        [rf(1), TWO * A / (D + TWO), rf(1)],
        [rf(1), A / (D + TWO), rf(0)],
        [rf(0), rf(Fraction(1, 2)), rf(0)],
    ]
    rhs = [
        rf(4) * A * A / (D + TWO) ** 2,
        (D + rf(4)) * A * A / (D + TWO) ** 2,
        (D - rf(6)) * A / (rf(4) * (D + TWO)),
    ]
    return system, rhs


def pentagon_system():
    system = [
        [rf(0), rf(1), (D + rf(30)) / (rf(3) * (D - TWO))],
        [
            A * (D + rf(6)) / (TWO * (D + TWO)),
            rf(1),
            (D * D - rf(3) * D - rf(30)) / (rf(3) * (D - TWO)),
        ],
        [rf(3) * A * (TWO - D) / (TWO * (D + TWO)), rf(0), D + rf(6)],
    ]
    rhs = [
        rf(0),
        rf(0),
        rf(3) * A * A * (TWO - D) ** 2 / (rf(4) * (D + TWO) ** 2),
    ]
    return system, rhs


def kappa_system():
    return [[rf(6), rf(0)], [rf(4), D + TWO]], [rf(0) - D, rf(0)]


def test_square_coefficient_system():
    beta = rf_solve(*square_system())
    assert [rf_to_str(b) for b in beta] == [
        "(1/2*a^2*d^1 + 7*a^2)/(d^2 + 4*d^1 + 4)",
        "(1/2*a^1*d^1 - 3*a^1)/(d^1 + 2)",
        "(-3/2*a^2*d^1 + 3*a^2)/(d^2 + 4*d^1 + 4)",
    ]
    assert [rf_specialize(b, ALPHA, DELTA) for b in beta] == [
        Fraction(5, 36),
        Fraction(5, 6),
        Fraction(-1, 4),
    ]


def test_pentagon_coefficient_system():
    gamma = rf_solve(*pentagon_system())
    assert [rf_to_str(g) for g in gamma] == [
        "(-1/4*a^1*d^1 + 5/2*a^1)/(d^1 + 2)",
        "(-1/8*a^2*d^1 - 15/4*a^2)/(d^2 + 4*d^1 + 4)",
        "(3/8*a^2*d^1 - 3/4*a^2)/(d^2 + 4*d^1 + 4)",
    ]
    assert [rf_specialize(g, ALPHA, DELTA) for g in gamma] == [
        Fraction(-1, 3),
        Fraction(-7, 144),
        Fraction(1, 16),
    ]


def test_kappa_coefficient_system():
    kappa = rf_solve(*kappa_system())
    assert [rf_to_str(k) for k in kappa] == ["(-1/6*d^1)/(1)", "(2/3*d^1)/(d^1 + 2)"]
    assert rf_specialize(kappa[0], ALPHA, DELTA) == Fraction(-13, 3)
    assert rf_specialize(kappa[1], ALPHA, DELTA) == Fraction(13, 21)


def test_systems_match_catalog_formulas():
    from f4diagrams.relations import (
        kappa_coeffs,
        pentburst_coeffs,
        sqburst_coeffs,
        triangle_coeff,
        magic_coeff,
    )

    assert rf_to_str(magic_coeff()) == "(2*a^1)/(d^1 + 2)"
    assert rf_to_str(triangle_coeff()) == "(-1/2*a^1*d^1 + a^1)/(d^1 + 2)"
    assert [rf_to_str(b) for b in sqburst_coeffs()] == [
        "(1/2*a^2*d^1 + 7*a^2)/(d^2 + 4*d^1 + 4)",
        "(1/2*a^1*d^1 - 3*a^1)/(d^1 + 2)",
        "(-3/2*a^2*d^1 + 3*a^2)/(d^2 + 4*d^1 + 4)",
    ]
    assert [rf_to_str(g) for g in pentburst_coeffs()] == [
        "(-1/4*a^1*d^1 + 5/2*a^1)/(d^1 + 2)",
        "(-1/8*a^2*d^1 - 15/4*a^2)/(d^2 + 4*d^1 + 4)",
        "(3/8*a^2*d^1 - 3/4*a^2)/(d^2 + 4*d^1 + 4)",
    ]
    assert [rf_to_str(k) for k in kappa_coeffs()] == [
        "(-1/6*d^1)/(1)",
        "(2/3*d^1)/(d^1 + 2)",
    ]
