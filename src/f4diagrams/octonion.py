"""Exact octonion arithmetic over Q.

Basis 1 = e0, e1, ..., e7.  The multiplication table is the Fano-plane
convention with oriented lines

    (1,2,4), (2,3,5), (3,4,6), (4,5,7), (5,6,1), (6,7,2), (7,1,3),

i.e. e_i * e_{i+1} = e_{i+3} with indices cyclic in 1..7, each imaginary
unit squaring to -1.  Any valid table gives an isomorphic algebra; fixing
this one makes every downstream structure constant deterministic.

Coordinates are always Fractions.  The public constructor coerces and
validates what it is given; the arithmetic builds its results through
``Octonion._exact``, which takes a tuple of 8 Fractions as it is, since
sums and products of Fractions are already exact.  The product runs on
ints: each factor's coordinates are scaled by their common denominator,
and the 8 result coordinates become Fractions once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)

FANO_LINES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]


def _build_table() -> List[List[Tuple[int, int]]]:
    """table[i][j] = (k, sign) with e_i e_j = sign * e_k."""
    table = [[None] * 8 for _ in range(8)]
    for j in range(8):
        table[0][j] = (j, 1)
        table[j][0] = (j, 1)
    for i in range(1, 8):
        table[i][i] = (0, -1)
    for a, b, c in FANO_LINES:
        # cyclic orientation: ab=c, bc=a, ca=b; reversed order flips sign
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    for i in range(8):
        for j in range(8):
            assert table[i][j] is not None, (i, j)
    return table


MULT_TABLE = _build_table()


class Octonion:
    """Immutable octonion with 8 exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence = (0,) * 8):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != 8:
            raise ValueError("octonion needs 8 coordinates")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _exact(cls, coords: Tuple[Fraction, ...]) -> "Octonion":
        """Wrap a tuple of 8 Fractions without coercing or checking it."""
        x = object.__new__(cls)
        object.__setattr__(x, "coords", coords)
        return x

    def __setattr__(self, *a):
        raise AttributeError("Octonion is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        c = [ZERO] * 8
        c[i] = ONE
        return cls._exact(tuple(c))

    @classmethod
    def scalar(cls, c) -> "Octonion":
        return cls._exact((Fraction(c),) + (ZERO,) * 7)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls._exact((ZERO,) * 8)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Octonion") -> "Octonion":
        # Most coordinates in the fixed bases are 0; skip those additions.
        return Octonion._exact(
            tuple(a + b if a and b else a or b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion._exact(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Octonion":
        return Octonion._exact(tuple(-a for a in self.coords))

    def scale(self, c) -> "Octonion":
        c = Fraction(c)
        return Octonion._exact(tuple(a * c for a in self.coords))

    def __mul__(self, other: "Octonion") -> "Octonion":
        xs = [(i, a) for i, a in enumerate(self.coords) if a]
        ys = [(j, b) for j, b in enumerate(other.coords) if b]
        if not xs or not ys:
            return Octonion.zero()
        da = lcm(*[a.denominator for _, a in xs])
        db = lcm(*[b.denominator for _, b in ys])
        ys = [(j, b.numerator * (db // b.denominator)) for j, b in ys]
        out = [0] * 8
        for i, a in xs:
            a = a.numerator * (da // a.denominator)
            row = MULT_TABLE[i]
            for j, b in ys:
                k, s = row[j]
                out[k] += s * a * b
        d = da * db
        return Octonion._exact(tuple(Fraction(n, d) if n else ZERO for n in out))

    def __eq__(self, other):
        return isinstance(other, Octonion) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # -- involution, norm ----------------------------------------------------

    def conj(self) -> "Octonion":
        c = self.coords
        return Octonion._exact((c[0],) + tuple(-x for x in c[1:]))

    def real_part(self) -> Fraction:
        return self.coords[0]

    def norm(self) -> Fraction:
        return sum((c * c for c in self.coords), ZERO)

    def inner(self, other: "Octonion") -> Fraction:
        """The polarization <x,y> = RP(x * conj(y)) = sum of coordinate products."""
        return sum((a * b for a, b in zip(self.coords, other.coords)), ZERO)

    # -- text form -----------------------------------------------------------

    def __repr__(self):
        return f"Octonion({oct_to_str(self)})"


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    return x * y


def oct_conj(x: Octonion) -> Octonion:
    return x.conj()


def real_part(x: Octonion) -> Fraction:
    return x.real_part()


def oct_to_str(x: Octonion) -> str:
    """Text form "c0 + c1 e1 + ... + c7 e7", omitting zero terms."""
    pieces = []
    if x.coords[0] or all(c == 0 for c in x.coords):
        pieces.append(str(x.coords[0]))
    for i in range(1, 8):
        c = x.coords[i]
        if c:
            pieces.append(f"{c} e{i}")
    return " + ".join(pieces)


def oct_from_str(s: str) -> Octonion:
    coords = [ZERO] * 8
    for piece in s.split("+"):
        piece = piece.strip()
        if not piece:
            continue
        if "e" in piece:
            cpart, epart = piece.split("e")
            idx = int(epart)
            coeff = Fraction(cpart.strip()) if cpart.strip() else ONE
        else:
            idx = 0
            coeff = Fraction(piece)
        coords[idx] += coeff
    return Octonion(coords)
