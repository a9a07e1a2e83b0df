import random
from fractions import Fraction

import pytest

from f4diagrams.octonion import (
    FANO_LINES,
    MULT_TABLE,
    Octonion,
    oct_to_str,
    real_part,
)


def _random_oct(rng: random.Random) -> Octonion:
    return Octonion(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
    )


def _mixed_oct(rng: random.Random) -> Octonion:
    """Coordinates with denominators coprime to each other and to 12."""
    return Octonion(
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(8)]
    )


def test_arithmetic_results_stay_exact():
    # Results are built without re-coercion; each must hold Fractions only
    # and equal the octonion the coercing constructor builds from
    # independently computed coordinates.
    rng = random.Random(21)
    for _ in range(50):
        x, y = _mixed_oct(rng), _mixed_oct(rng)
        k = rng.randint(-5, 5)
        q = Fraction(rng.randint(-5, 5), rng.choice((1, 5, 7)))
        a, b = x.coords, y.coords
        prod = [0] * 8
        for i in range(8):
            for j in range(8):
                m, s = MULT_TABLE[i][j]
                prod[m] += s * a[i] * b[j]
        cases = [
            (x + y, [u + v for u, v in zip(a, b)]),
            (x - y, [u - v for u, v in zip(a, b)]),
            (-x, [-u for u in a]),
            (x.scale(k), [u * k for u in a]),
            (x.scale(q), [u * q for u in a]),
            (x * y, prod),
            (x * Octonion.zero(), [0] * 8),
            (Octonion.unit(1) * Octonion.unit(2), [0, 0, 0, 0, 1, 0, 0, 0]),
            (x.conj(), [a[0]] + [-u for u in a[1:]]),
            (Octonion.scalar(k), [k] + [0] * 7),
            (Octonion.unit(3), [0, 0, 0, 1, 0, 0, 0, 0]),
            (Octonion.zero(), [0] * 8),
        ]
        for got, coords in cases:
            assert all(type(c) is Fraction for c in got.coords), got
            want = Octonion(coords)
            assert got == want and hash(got) == hash(want)


def test_unit_table_spot_checks():
    e = [Octonion.unit(i) for i in range(8)]
    assert e[1] * e[2] == e[4]
    assert e[2] * e[1] == -e[4]
    for i in range(1, 8):
        assert e[i] * e[i] == -e[0]
    for a, b, c in FANO_LINES:
        assert e[a] * e[b] == e[c]
        assert e[b] * e[c] == e[a]
        assert e[c] * e[a] == e[b]


def test_not_associative():
    e = [Octonion.unit(i) for i in range(8)]
    assert (e[1] * e[2]) * e[3] != e[1] * (e[2] * e[3])


def test_composition_law():
    # N(xy) = N(x) N(y)
    rng = random.Random(7701)
    for _ in range(100):
        x, y = _random_oct(rng), _random_oct(rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_alternativity():
    rng = random.Random(315)
    for _ in range(100):
        x, y = _random_oct(rng), _random_oct(rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)


def test_conjugation_antiautomorphism():
    rng = random.Random(95)
    for _ in range(50):
        x, y = _random_oct(rng), _random_oct(rng)
        assert (x * y).conj() == y.conj() * x.conj()
        assert x * x.conj() == Octonion.scalar(x.norm())


def test_real_part_symmetries():
    rng = random.Random(2411)
    for _ in range(50):
        x, y, z = (_random_oct(rng) for _ in range(3))
        assert real_part(x * y) == real_part(y * x)
        assert real_part((x * y) * z) == real_part(x * (y * z))


def test_str_round_trip():
    assert oct_to_str(Octonion.zero()) == "0"


def test_bad_coordinate_count():
    with pytest.raises(ValueError):
        Octonion([1, 2, 3])
