"""The 27-dimensional exceptional Jordan algebra A over Q and its module V.

Elements are 3x3 self-adjoint octonionic matrices

        [ l1   x3   x2~ ]
        [ x3~  l2   x1  ]          (~ = octonion conjugate)
        [ x2   x1~  l3  ]

stored as three rational diagonal entries plus the three octonions
x1, x2, x3.  The product is the symmetrized matrix product
a o b = (ab + ba)/2, computed by honest octonionic matrix multiplication
(no hand-derived structure-constant shortcuts), in two independent ways:
``jordan`` multiplies element objects, and the Jordan node J below is a
contraction of ``octonion.MULT_TABLE``.

V = ker(tr) is 26-dimensional; its fixed rational basis is

    index 0:      E11 - E22
    index 1:      E22 - E33
    index 2..9:   x1-slot units 1, e1, ..., e7
    index 10..17: x2-slot units
    index 18..25: x3-slot units

An orthonormal basis would need sqrt(2) and sqrt(6); staying rational and
inverting the Gram matrix for the dual basis keeps every downstream tensor
in Q.  This module alone knows that convention: ``_V_IN_A`` writes each
basis_V vector in basis_A coordinates, ``_A_TO_V`` reads the basis_V
coordinates of a traceless element off its basis_A coordinates, and the
nodes ``_IOTA`` (iota: V -> A) and ``_PROJ`` (p: A -> V, the projection
pi(x) = x - (tr x / 3) 1 read off through ``_A_TO_V``, over the scale 3)
are the same maps on the contractor of ``exactla``.

The contractor reads the product on basis_A as the Jordan node J, keyed
(input, input, output), and the unit and the trace as one node, 1 at the
three diagonal units.  J is itself one contraction, built once: each
basis unit as a 3x3 matrix of octonion units (``_CANON`` places it, as
``to_matrix`` does), two such matrices multiplied through the octonion
table, and the product read back off at ``_CANON``.  Every other table of
the package -- the generator tensors on V, the Leibniz rule of the
derivations -- is a network of J, the trace, iota and p; no production
path multiplies element objects, which stay as the tests' second route.

Diagonal entries are always Fractions.  ``AlbertElement(diag, off)``
coerces and validates its arguments; the linear structure, the product
and the projection build their results through ``AlbertElement._exact``,
which takes a tuple of 3 Fractions and a tuple of 3 Octonions as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exactla import Node, Scaled, contract_sum, inverse
from .octonion import MULT_TABLE, Octonion, oct_to_str

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


#: the V-basis convention as index arithmetic on basis_A coordinates.
#: _V_IN_A[j] lists (r, s): b_j of basis_V = sum s * (unit r of basis_A);
#: _A_TO_V[i] = (r, s): coordinate i of a traceless element in basis_V is
#: s * its coordinate r in basis_A.
_V_IN_A: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((0, 1), (1, -1)),
    ((1, 1), (2, -1)),
) + tuple(((r, 1),) for r in range(3, 27))
_A_TO_V: Tuple[Tuple[int, int], ...] = ((0, 1), (2, -1)) + tuple((r, 1) for r in range(3, 27))

#: the same change of basis as 1->1 nodes keyed (input, output): iota
#: embeds basis_V in basis_A; p is pi(x) = x - (tr x / 3) 1 read off in
#: basis_V, over the scale 3 (tr b_r is 1 for the three diagonal units r < 3)
_IOTA: Scaled = (1, {(j, r): s for j, col in enumerate(_V_IN_A) for r, s in col})
_PROJ: Scaled = (3, {
    (q, i): s * ((3 if q == r else 0) - (1 if q < 3 and r < 3 else 0))
    for i, (r, s) in enumerate(_A_TO_V)
    for q in range(27)
    if q == r or (q < 3 and r < 3)
})


def basis_V() -> List[AlbertElement]:
    return [from_coords_V([ONE if k == j else ZERO for k in range(26)]) for j in range(26)]


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


def _from_coords_A(coords: Sequence) -> AlbertElement:
    """The element with these 27 coordinates in basis_A (inverse of coords_A)."""
    return AlbertElement(coords[:3], [Octonion(coords[3 + 8 * s : 11 + 8 * s]) for s in range(3)])


def coords_V(a: AlbertElement) -> List[Fraction]:
    """Coordinates in basis_V; requires tr(a) = 0."""
    if alb_trace(a) != 0:
        raise ValueError("element is not traceless")
    c = coords_A(a)
    return [s * c[r] for r, s in _A_TO_V]


def from_coords_V(coords: Sequence) -> AlbertElement:
    coords = [Fraction(c) for c in coords]
    if len(coords) != 26:
        raise ValueError("need 26 coordinates")
    x = [ZERO] * 27
    for v, col in zip(coords, _V_IN_A):
        for r, s in col:
            x[r] += s * v
    return _from_coords_A(x)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

#: _CANON[r] = (row, col, u): unit r of basis_A is octonion unit e_u at
#: (row, col) of its matrix, the layout of ``to_matrix`` and ``from_matrix``
_CANON: Tuple[Tuple[int, int, int], ...] = tuple((i, i, 0) for i in range(3)) + tuple(
    pos + (u,) for pos in ((1, 2), (2, 0), (0, 1)) for u in range(8)
)
#: the units as matrices, keyed (r, row, col, u): 1 at _CANON[r], and an
#: off-diagonal unit's conjugate at the mirrored position
_UNITS: Scaled = (1, {
    key: s
    for r, (i, j, u) in enumerate(_CANON)
    for key, s in (((r, i, j, u), 1), ((r, j, i, u), 1 if u == 0 else -1))
})
#: the octonion product keyed (u, v, w): e_u e_v = s e_w
_OCTONION: Scaled = (1, {
    (u, v, w): s for u, row in enumerate(MULT_TABLE) for v, (w, s) in enumerate(row)
})
#: reads coordinate r of a self-adjoint matrix off its entry at _CANON[r]
_READ: Scaled = (1, {c + (r,): 1 for r, c in enumerate(_CANON)})

_JORDAN: Optional[Scaled] = None


def _jordan_node() -> Scaled:
    """The Jordan product as the node J, keyed (input, input, output), built
    once: b_p o b_q = (M_p M_q + M_q M_p) / 2 for the unit matrices M, their
    entries multiplied through the octonion table, as one contraction."""
    global _JORDAN
    if _JORDAN is None:
        p, q, r, i, j, k, u, v, w = range(9)

        def product(a: int, b: int) -> List[Node]:
            return [((a, i, j, u), _UNITS), ((b, j, k, v), _UNITS),
                    ((u, v, w), _OCTONION), ((i, k, w, r), _READ)]

        half = Fraction(1, 2)
        _JORDAN = contract_sum([(half, product(p, q)), (half, product(q, p))], (p, q, r))
    return _JORDAN


#: 1 at the three diagonal units: on an output wire the unit of A, on an
#: input wire the trace on A
_UNIT_TRACE: Scaled = (1, {(r,): 1 for r in range(3)})


def left_mult_matrix(a: AlbertElement) -> List[List[Fraction]]:
    """27x27 matrix of L_a: b -> a o b in the full basis, as rows."""
    cols = [coords_A(jordan(a, b)) for b in basis_A()]
    return [list(row) for row in zip(*cols)]


def left_mult_trace(a: AlbertElement) -> Fraction:
    m = left_mult_matrix(a)
    return sum((m[i][i] for i in range(27)), ZERO)


def dual_basis_A() -> Tuple[List[AlbertElement], List[AlbertElement]]:
    """The full-algebra basis together with its B-dual (27 pairs)."""
    bas = basis_A()
    n = len(bas)
    gram = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = bform(bas[i], bas[j])
    ginv = inverse(gram)
    dual = []
    for i in range(n):
        acc = AlbertElement.zero()
        for j in range(n):
            c = ginv[i][j]
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

