"""The 27-dimensional exceptional Jordan algebra A over Q and its module V.

Elements are 3x3 self-adjoint octonionic matrices

        [ l1   x3   x2~ ]
        [ x3~  l2   x1  ]          (~ = octonion conjugate)
        [ x2   x1~  l3  ]

stored as three rational diagonal entries plus the three octonions
x1, x2, x3.  The product is the symmetrized matrix product
a o b = (ab + ba)/2, computed by honest octonionic matrix multiplication
(no hand-derived structure-constant shortcuts).

V = ker(tr) is 26-dimensional; its fixed rational basis is

    index 0:      E11 - E22
    index 1:      E22 - E33
    index 2..9:   x1-slot units 1, e1, ..., e7
    index 10..17: x2-slot units
    index 18..25: x3-slot units

An orthonormal basis would need sqrt(2) and sqrt(6); staying rational and
inverting the Gram matrix for the dual basis keeps every downstream tensor
in Q.

Diagonal entries are always Fractions.  ``AlbertElement(diag, off)``
coerces and validates its arguments; the linear structure, the product
and the projection build their results through ``AlbertElement._exact``,
which takes a tuple of 3 Fractions and a tuple of 3 Octonions as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactla import RatMatrix
from .octonion import Octonion, oct_from_str, oct_to_str

ZERO = Fraction(0)
ONE = Fraction(1)

OctMatrix = List[List[Octonion]]  # plain 3x3 matrices over the octonions


class AlbertElement:
    """Immutable element of A: diag (l1,l2,l3) and off (x1,x2,x3)."""

    __slots__ = ("diag", "off")

    def __init__(self, diag: Sequence, off: Sequence[Octonion] = None):
        if off is None:
            off = (Octonion.zero(),) * 3
        object.__setattr__(self, "diag", tuple(Fraction(x) for x in diag))
        object.__setattr__(self, "off", tuple(off))
        if len(self.diag) != 3 or len(self.off) != 3:
            raise ValueError("need 3 diagonal entries and 3 octonions")

    @classmethod
    def _exact(cls, diag: Tuple[Fraction, ...], off: Tuple[Octonion, ...]) -> "AlbertElement":
        """Wrap 3 Fractions and 3 Octonions without coercing or checking them."""
        x = object.__new__(cls)
        object.__setattr__(x, "diag", diag)
        object.__setattr__(x, "off", off)
        return x

    def __setattr__(self, *a):
        raise AttributeError("AlbertElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "AlbertElement":
        return cls((0, 0, 0))

    @classmethod
    def unit(cls) -> "AlbertElement":
        return cls((1, 1, 1))

    @classmethod
    def diag_unit(cls, i: int) -> "AlbertElement":
        d = [ZERO] * 3
        d[i] = ONE
        return cls(d)

    @classmethod
    def off_unit(cls, slot: int, x: Octonion) -> "AlbertElement":
        """Element with x in off-diagonal slot ``slot`` (1-, 2- or 3-indexed as x1..x3)."""
        off = [Octonion.zero()] * 3
        off[slot - 1] = x
        return cls((0, 0, 0), off)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "AlbertElement") -> "AlbertElement":
        return AlbertElement._exact(
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(a + b for a, b in zip(self.off, other.off)),
        )

    def __sub__(self, other: "AlbertElement") -> "AlbertElement":
        return AlbertElement._exact(
            tuple(a - b for a, b in zip(self.diag, other.diag)),
            tuple(a - b for a, b in zip(self.off, other.off)),
        )

    def __neg__(self) -> "AlbertElement":
        return AlbertElement._exact(tuple(-a for a in self.diag), tuple(-a for a in self.off))

    def scale(self, c) -> "AlbertElement":
        c = Fraction(c)
        return AlbertElement._exact(
            tuple(a * c for a in self.diag), tuple(a.scale(c) for a in self.off)
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlbertElement)
            and self.diag == other.diag
            and self.off == other.off
        )

    def __hash__(self):
        return hash((self.diag, self.off))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.diag) and all(o.is_zero() for o in self.off)

    # -- matrix view ---------------------------------------------------------

    def to_matrix(self) -> OctMatrix:
        l1, l2, l3 = (Octonion.scalar(x) for x in self.diag)
        x1, x2, x3 = self.off
        return [
            [l1, x3, x2.conj()],
            [x3.conj(), l2, x1],
            [x2, x1.conj(), l3],
        ]

    @classmethod
    def from_matrix(cls, m: OctMatrix) -> "AlbertElement":
        for i in range(3):
            if any(c != 0 for c in m[i][i].coords[1:]):
                raise ValueError("diagonal entry not real; matrix is not self-adjoint")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if m[i][j] != m[j][i].conj():
                raise ValueError("matrix is not self-adjoint")
        return cls._exact(
            (m[0][0].coords[0], m[1][1].coords[0], m[2][2].coords[0]),
            (m[1][2], m[2][0], m[0][1]),
        )

    def __repr__(self):
        return f"AlbertElement({alb_to_str(self)})"


# ---------------------------------------------------------------------------
# octonionic 3x3 matrix helpers (used for the product and the trip checks)
# ---------------------------------------------------------------------------


def oct_mat_mul(a: OctMatrix, b: OctMatrix) -> OctMatrix:
    return [
        [
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            for j in range(3)
        ]
        for i in range(3)
    ]


def oct_mat_add(a: OctMatrix, b: OctMatrix) -> OctMatrix:
    return [[a[i][j] + b[i][j] for j in range(3)] for i in range(3)]


def oct_mat_scale(a: OctMatrix, c) -> OctMatrix:
    return [[a[i][j].scale(c) for j in range(3)] for i in range(3)]


def oct_mat_real_trace(a: OctMatrix) -> Fraction:
    """tr_R = sum of the real parts of the diagonal."""
    return a[0][0].real_part() + a[1][1].real_part() + a[2][2].real_part()


# ---------------------------------------------------------------------------
# Jordan structure
# ---------------------------------------------------------------------------


def jordan(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """a o b = (ab + ba) / 2."""
    ma, mb = a.to_matrix(), b.to_matrix()
    sym = oct_mat_scale(oct_mat_add(oct_mat_mul(ma, mb), oct_mat_mul(mb, ma)), Fraction(1, 2))
    return AlbertElement.from_matrix(sym)


def alb_trace(a: AlbertElement) -> Fraction:
    return a.diag[0] + a.diag[1] + a.diag[2]


def bform(a: AlbertElement, b: AlbertElement) -> Fraction:
    return alb_trace(jordan(a, b))


def project_v(a: AlbertElement) -> AlbertElement:
    """pi(a) = a - (tr(a)/3) 1: projection onto the traceless part V."""
    t = alb_trace(a)
    if t == 0:
        return a
    return a - AlbertElement.unit().scale(t / 3)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def basis_V() -> List[AlbertElement]:
    out = [
        AlbertElement((1, -1, 0)),
        AlbertElement((0, 1, -1)),
    ]
    for slot in (1, 2, 3):
        for u in range(8):
            out.append(AlbertElement.off_unit(slot, Octonion.unit(u)))
    return out


def basis_A() -> List[AlbertElement]:
    out = [AlbertElement.diag_unit(i) for i in range(3)]
    for slot in (1, 2, 3):
        for u in range(8):
            out.append(AlbertElement.off_unit(slot, Octonion.unit(u)))
    return out


def coords_A(a: AlbertElement) -> List[Fraction]:
    out = list(a.diag)
    for x in a.off:
        out.extend(x.coords)
    return out


def coords_V(a: AlbertElement) -> List[Fraction]:
    """Coordinates in basis_V; requires tr(a) = 0."""
    l1, l2, l3 = a.diag
    if l1 + l2 + l3 != 0:
        raise ValueError("element is not traceless")
    out = [l1, -l3]
    for x in a.off:
        out.extend(x.coords)
    return out


def from_coords_V(coords: Sequence) -> AlbertElement:
    coords = [Fraction(c) for c in coords]
    if len(coords) != 26:
        raise ValueError("need 26 coordinates")
    c0, c1 = coords[0], coords[1]
    offs = []
    for slot in range(3):
        offs.append(Octonion(coords[2 + 8 * slot : 10 + 8 * slot]))
    return AlbertElement((c0, c1 - c0, -c1), offs)


class ModuleVector:
    """Element of V in fixed-basis coordinates (26 exact rationals)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != 26:
            raise ValueError("ModuleVector needs 26 coordinates")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("ModuleVector is immutable")

    @classmethod
    def from_albert(cls, a: AlbertElement) -> "ModuleVector":
        return cls(coords_V(a))  # raises unless traceless

    @classmethod
    def basis_vector(cls, i: int) -> "ModuleVector":
        c = [ZERO] * 26
        c[i] = ONE
        return cls(c)

    def to_albert(self) -> AlbertElement:
        return from_coords_V(self.coords)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ModuleVector({list(self.coords)})"


def left_mult_matrix(a: AlbertElement) -> RatMatrix:
    """27x27 matrix of L_a: b -> a o b in the full basis."""
    cols = [coords_A(jordan(a, b)) for b in basis_A()]
    m = RatMatrix(27, 27)
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            m.data[i][j] = v
    return m


def left_mult_trace(a: AlbertElement) -> Fraction:
    m = left_mult_matrix(a)
    return sum((m.data[i][i] for i in range(27)), ZERO)


@dataclass(frozen=True)
class BasisData:
    basis: Tuple[AlbertElement, ...]
    dual: Tuple[AlbertElement, ...]
    gram: RatMatrix
    gram_inv: RatMatrix


def build_basis() -> BasisData:
    """Fixed rational basis of V, its Gram matrix under B, and the dual basis.

    Fails hard if the Gram matrix were singular (it is positive definite,
    so singularity would mean an implementation bug upstream).
    """
    bas = basis_V()
    n = len(bas)
    gram = RatMatrix(n, n)
    for i in range(n):
        for j in range(i, n):
            v = bform(bas[i], bas[j])
            gram.data[i][j] = v
            gram.data[j][i] = v
    gram_inv = gram.inverse()  # raises on singular
    dual = []
    for i in range(n):
        acc = AlbertElement.zero()
        for j in range(n):
            c = gram_inv.data[i][j]
            if c:
                acc = acc + bas[j].scale(c)
        dual.append(acc)
    for i in range(n):
        for j in range(n):
            expected = ONE if i == j else ZERO
            if bform(dual[i], bas[j]) != expected:
                raise AssertionError("dual basis defect — Gram inversion bug")
    total = sum((bform(b, d) for b, d in zip(bas, dual)), ZERO)
    if total != 26:
        raise AssertionError("sum B(b, b~) must equal dim V = 26")
    return BasisData(tuple(bas), tuple(dual), gram, gram_inv)


def dual_basis_A() -> Tuple[List[AlbertElement], List[AlbertElement]]:
    """The full-algebra basis together with its B-dual (27 pairs)."""
    bas = basis_A()
    n = len(bas)
    gram = RatMatrix(n, n)
    for i in range(n):
        for j in range(i, n):
            v = bform(bas[i], bas[j])
            gram.data[i][j] = v
            gram.data[j][i] = v
    ginv = gram.inverse()
    dual = []
    for i in range(n):
        acc = AlbertElement.zero()
        for j in range(n):
            c = ginv.data[i][j]
            if c:
                acc = acc + bas[j].scale(c)
        dual.append(acc)
    return bas, dual


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def alb_to_str(a: AlbertElement) -> str:
    return (
        f"diag({a.diag[0]},{a.diag[1]},{a.diag[2]})"
        f"; x1={oct_to_str(a.off[0])}; x2={oct_to_str(a.off[1])}; x3={oct_to_str(a.off[2])}"
    )


def alb_from_str(s: str) -> AlbertElement:
    parts = [p.strip() for p in s.split(";")]
    if len(parts) != 4 or not parts[0].startswith("diag(") or not parts[0].endswith(")"):
        raise ValueError(f"bad AlbertElement text {s!r}")
    diag = [Fraction(x) for x in parts[0][5:-1].split(",")]
    offs = []
    for k, p in enumerate(parts[1:], start=1):
        prefix = f"x{k}="
        if not p.startswith(prefix):
            raise ValueError(f"bad AlbertElement text {s!r}")
        offs.append(oct_from_str(p[len(prefix):]))
    return AlbertElement(diag, offs)
