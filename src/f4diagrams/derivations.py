"""Derivation Lie algebra of the Albert algebra, with exact certificates.

A derivation of the 27-dimensional algebra A is a linear map D satisfying
the Leibniz rule D(a o b) = D(a) o b + a o D(b).  Imposing the rule on all
378 unordered basis pairs yields a homogeneous linear system of 10,206
equations in the 729 matrix entries of D.  Its solution space is the Lie
algebra of type F4, of dimension 52.

The nullspace is found by exact sparse Gaussian elimination over the
rationals (each Leibniz row touches at most four unknowns), reduced to
echelon form, and then *certified* in exact arithmetic:

  * the rank of the whole system is exactly 677, so its nullity is exactly
    729 - 677 = 52;
  * every basis matrix is checked against all 378 pair equations (integer
    arithmetic, denominators cleared), must kill the unit, and must map
    every basis element to a traceless one;
  * the 52 vectors carry a reduced-echelon sparsity pattern (each is 1 at
    its own free column and 0 at the others), so their independence is
    immediate.

The last two checks run again on every cache load.  The basis is cached
as plain text (one 27x27 block of rationals per derivation) under
F4DIAGRAMS_CACHE_DIR, default ~/.cache/f4diagrams; a fingerprint of the
structure constants guards the cache against basis-convention drift.

The Leibniz system, its certificate and the fingerprint all read the one
table of Jordan structure constants that ``albert`` builds, as ints over
its denominator.

restricted_basis() restricts each derivation to the traceless part V as
the network iota ; D ; p on the evaluator's one contractor, where iota
embeds V in A and p projects A onto V; each restricted D is an integer
1->1 node.  check_equivariance() verifies with the same contractor,
exactly, that the three generator tensors are infinitesimally invariant:
the product tensor satisfies the Leibniz rule, the pairing is skew under
(D x 1 + 1 x D), and the copairing is annihilated by it.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .albert import (
    _JORDAN_DEN,
    AlbertElement,
    _from_coords_A,
    _structure_table,
    coords_A,
)
from .exactla import RatMatrix, sparse_nullspace

N_A = 27
N_UNKNOWNS = N_A * N_A
DIM_DER = 52
RANK_TARGET = N_UNKNOWNS - DIM_DER

CACHE_ENV = "F4DIAGRAMS_CACHE_DIR"
_CACHE_FILE = "derivation_basis.txt"


@dataclass(frozen=True)
class Derivation:
    """A derivation of A, stored as its 27x27 matrix on the fixed basis."""

    matrix: RatMatrix

    def apply_coords(self, coords: Sequence[Fraction]) -> List[Fraction]:
        return self.matrix.mul_vec(list(coords))

    def apply(self, a: AlbertElement) -> AlbertElement:
        return _from_coords_A(self.apply_coords(coords_A(a)))


# ---------------------------------------------------------------------------
# structure constants of the Jordan product on the fixed basis
# ---------------------------------------------------------------------------

_TRANS: Optional[dict] = None


def _structure_tables() -> Tuple[dict, dict]:
    """The product table P and its slice index PT, ints over _JORDAN_DEN.

    P is ``albert``'s table: P[(i,j)] (i <= j) lists (k, n) with
    (b_i o b_j) having coordinate n / _JORDAN_DEN at b_k.  PT[(j,k)] lists
    (r, n) with (b_r o b_j) having coordinate n / _JORDAN_DEN at b_k,
    ranging over all r — the transpose view needed to assemble Leibniz
    rows without rescanning the table.  PT is built once.
    """
    global _TRANS
    prod = _structure_table()
    if _TRANS is None:
        trans: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for (i, j), entries in prod.items():
            for k, n in entries:
                trans.setdefault((j, k), []).append((i, n))
                if i != j:
                    trans.setdefault((i, k), []).append((j, n))
        _TRANS = {key: tuple(sorted(val)) for key, val in trans.items()}
    return prod, _TRANS


def _conventions_fingerprint() -> str:
    """Hash of the structure constants; changes iff basis conventions do."""
    prod, _ = _structure_tables()
    lines = []
    for (i, j) in sorted(prod):
        for k, n in prod[(i, j)]:
            lines.append(f"{i} {j} {k} {Fraction(n, _JORDAN_DEN)}")
    blob = "jordan-structure-v1\n" + "\n".join(lines)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _equation_rows() -> Iterator[Dict[int, int]]:
    """Sparse rows {column: coefficient} of the Leibniz system, one at a time.

    Unknown (r, c) — entry D[r][c] — lives at column 27*r + c.  For each
    basis pair i <= j and each target coordinate k the row encodes
    (D(b_i o b_j))_k - (D(b_i) o b_j)_k - (b_i o D(b_j))_k = 0, times
    _JORDAN_DEN so that its coefficients are ints.
    """
    prod, trans = _structure_tables()
    for i in range(N_A):
        for j in range(i, N_A):
            pij = prod[(i, j)]
            for k in range(N_A):
                acc: Dict[int, int] = {}
                for m, n in pij:
                    key = N_A * k + m
                    acc[key] = acc.get(key, 0) + n
                for r, n in trans.get((j, k), ()):
                    key = N_A * r + i
                    acc[key] = acc.get(key, 0) - n
                for r, n in trans.get((i, k), ()):
                    key = N_A * r + j
                    acc[key] = acc.get(key, 0) - n
                yield acc


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------


def _certify_leibniz(rows: List[List[Fraction]]) -> bool:
    """Exact check of all 378 pair equations, in cleared-integer arithmetic."""
    prod, trans = _structure_tables()
    den = 1
    for row in rows:
        for v in row:
            den = den * v.denominator // math.gcd(den, v.denominator)
    di = [[int(v * den) for v in row] for row in rows]
    for i in range(N_A):
        for j in range(i, N_A):
            pij = prod[(i, j)]
            for k in range(N_A):
                lhs = 0
                for m, c in pij:
                    lhs += di[k][m] * c
                rhs = 0
                for r, c in trans.get((j, k), ()):
                    rhs += di[r][i] * c
                for r, c in trans.get((i, k), ()):
                    rhs += di[r][j] * c
                if lhs != rhs:
                    return False
    return True


def _certify_unit_and_trace(rows: List[List[Fraction]]) -> bool:
    """D(1) = 0 (unit is the sum of the three diagonal idempotents) and
    tr(D(b_j)) = 0 for every j."""
    for r in range(N_A):
        if rows[r][0] + rows[r][1] + rows[r][2] != 0:
            return False
    for j in range(N_A):
        if rows[0][j] + rows[1][j] + rows[2][j] != 0:
            return False
    return True


def _free_columns(flat: List[List[Fraction]]) -> Optional[List[int]]:
    """Columns where one vector is 1 and all others are 0, one per vector.

    Present by construction for an echelon-derived basis; recomputed on
    cache load so membership tests never trust the file.
    """
    cols: List[int] = []
    n = len(flat)
    for f in range(n):
        found = -1
        for c in range(N_UNKNOWNS):
            if flat[f][c] != 1:
                continue
            if all(flat[g][c] == 0 for g in range(n) if g != f):
                found = c
                break
        if found < 0:
            return None
        cols.append(found)
    return cols


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_path() -> str:
    root = os.environ.get(CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "f4diagrams"
    )
    return os.path.join(root, _CACHE_FILE)


def _write_cache(path: str, mats: List[RatMatrix]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    parts = [f"fingerprint {_conventions_fingerprint()}", f"count {len(mats)}", ""]
    for m in mats:
        parts.append(m.to_text())
        parts.append("")
    # A unique temp file per writer, so concurrent processes never share one.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=_CACHE_FILE, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write("\n".join(parts))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_cache(path: str) -> Optional[List[RatMatrix]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.splitlines()
    if len(lines) < 2:
        return None
    head, count_line = lines[0].split(), lines[1].split()
    if head[:1] != ["fingerprint"] or len(head) != 2:
        return None
    if head[1] != _conventions_fingerprint():
        return None
    if count_line[:1] != ["count"] or len(count_line) != 2:
        return None
    try:
        count = int(count_line[1])
        body = [ln for ln in lines[2:] if ln.strip()]
        if len(body) != count * N_A:
            return None
        mats = []
        for b in range(count):
            block = "\n".join(body[b * N_A : (b + 1) * N_A])
            m = RatMatrix.from_text(block)
            if m.rows != N_A or m.cols != N_A:
                return None
            mats.append(m)
        return mats
    except (ValueError, ZeroDivisionError):
        return None


# ---------------------------------------------------------------------------
# the basis
# ---------------------------------------------------------------------------

_BASIS: Optional[List[Derivation]] = None
_FREE_COLS: Optional[List[int]] = None
_RESTRICTED: Optional[List[Tuple[int, Dict[Tuple[int, int], int]]]] = None


def _compute_basis_fresh() -> List[List[Fraction]]:
    """Solve the Leibniz system exactly; its rank must be RANK_TARGET."""
    rank, vecs = sparse_nullspace(_equation_rows(), N_UNKNOWNS)
    if rank != RANK_TARGET:
        raise RuntimeError(f"Leibniz system has rank {rank}, expected {RANK_TARGET}")
    return vecs


def derivation_basis() -> List[Derivation]:
    """The 52 basis derivations of A, exactly certified.

    Loads the cached basis when its fingerprint matches, otherwise solves
    the Leibniz system.  Either way every matrix is re-certified in exact
    arithmetic before being returned, so a stale or corrupt cache can only
    cause recomputation, never a wrong answer; a fresh solve rewrites the
    cache, so the next load finds it sound again.  A cache location that
    cannot be written costs a warning, not the solved basis.
    """
    global _BASIS, _FREE_COLS
    if _BASIS is not None:
        return list(_BASIS)

    path = _cache_path()
    mats = _read_cache(path)
    flat: Optional[List[List[Fraction]]] = None
    if mats is not None:
        flat = [[x for row in m.data for x in row] for m in mats]
        if not _certified(flat):
            flat = None
    solved = flat is None
    if solved:
        flat = _compute_basis_fresh()
        if not _certified(flat):
            raise AssertionError("solved derivation basis failed exact certification")

    free = _free_columns(flat)
    if free is None:
        raise AssertionError("derivation basis lost its echelon marker columns")

    if solved:
        mats = [
            RatMatrix.from_rows([vec[N_A * r : N_A * (r + 1)] for r in range(N_A)])
            for vec in flat
        ]
        try:
            _write_cache(path, mats)
        except OSError as exc:
            warnings.warn(f"derivation basis not cached at {path}: {exc}", RuntimeWarning)
    _FREE_COLS = free
    _BASIS = [Derivation(m) for m in mats]
    return list(_BASIS)


def _certified(flat: List[List[Fraction]]) -> bool:
    if len(flat) != DIM_DER:
        return False
    for vec in flat:
        rows = [vec[N_A * r : N_A * (r + 1)] for r in range(N_A)]
        if not _certify_unit_and_trace(rows):
            return False
        if not _certify_leibniz(rows):
            return False
    return True


def in_span(matrix: RatMatrix) -> bool:
    """Exact membership of a 27x27 matrix in the span of the basis.

    The basis is echelon-shaped, so the only possible coefficients are the
    candidate's values at the marker columns; membership holds iff that
    combination reproduces the candidate exactly.
    """
    basis = derivation_basis()
    assert _FREE_COLS is not None
    vec = [matrix.data[r][c] for r in range(N_A) for c in range(N_A)]
    coeffs = [vec[c] for c in _FREE_COLS]
    residual = list(vec)
    for coeff, d in zip(coeffs, basis):
        if not coeff:
            continue
        i = 0
        for r in range(N_A):
            row = d.matrix.data[r]
            for c in range(N_A):
                residual[i] -= coeff * row[c]
                i += 1
    return all(x == 0 for x in residual)


def bracket(d1: Derivation, d2: Derivation) -> RatMatrix:
    """The commutator [D1, D2] = D1 D2 - D2 D1 (again a derivation)."""
    a, b = d1.matrix, d2.matrix
    ab = a.matmul(b)
    ba = b.matmul(a)
    out = RatMatrix(N_A, N_A)
    for r in range(N_A):
        for c in range(N_A):
            out.data[r][c] = ab.data[r][c] - ba.data[r][c]
    return out


def check_bracket_closure(
    samples: Sequence[Tuple[int, int]] = ((0, 1), (3, 17), (10, 44), (25, 51), (2, 33)),
) -> Dict[str, object]:
    """Commutators of sampled basis pairs stay inside the span — exactly."""
    basis = derivation_basis()
    results = []
    for i, j in samples:
        ok = in_span(bracket(basis[i], basis[j]))
        results.append({"pair": (i, j), "in_span": ok})
    holds = all(r["in_span"] for r in results)
    return {"holds": holds, "samples": results}


# ---------------------------------------------------------------------------
# restriction to V and equivariance of the generator tensors
# ---------------------------------------------------------------------------


def restricted_basis() -> List[Tuple[int, Dict[Tuple[int, int], int]]]:
    """The 52 derivations as integer 1->1 nodes on V, keyed (input, output).

    A derivation maps every basis element to a traceless one (the
    certificate checks it), so it preserves V = ker tr.  Its restriction
    is the network iota ; D ; p on the evaluator's contractor, with D its
    27x27 matrix as a node keyed (input, output) and iota, p the
    basis-change nodes between V and A.
    """
    global _RESTRICTED
    if _RESTRICTED is None:
        from .functor import _IOTA, _PROJ, _scaled, contract_sum

        x, a, b, z = range(4)
        out = []
        for d in derivation_basis():
            rows = enumerate(d.matrix.data)
            node = _scaled({(c, r): v for r, row in rows for c, v in enumerate(row) if v})
            out.append(contract_sum([(1, [((x, a), _IOTA), ((a, b), node), ((b, z), _PROJ)])], (x, z)))
        _RESTRICTED = out
    return list(_RESTRICTED)


def check_equivariance() -> Dict[str, object]:
    """Exact infinitesimal invariance of the product, pairing and copairing.

    Each of the 52 restricted derivations D is an integer 1->1 node, keyed
    (input, output), and each identity is a sum of networks over it and
    the generator nodes, contracted and summed by ``contract_sum``; it
    holds when the sum is empty, on every basis input:
      * merge: D . merge - merge . (D x 1) - merge . (1 x D) = 0;
      * cap:   cap . (D x 1 + 1 x D) = 0;
      * cup:   (D x 1 + 1 x D) . cup = 0.
    """
    from .diagram import CAP, CUP, MERGE
    from .functor import contract_sum, generator_tensors

    nodes = generator_tensors()
    merge, cap, cup = nodes[MERGE], nodes[CAP], nodes[CUP]
    restricted = restricted_basis()
    x, y, z, w = range(4)  # boundary wires x, y, z; w is contracted
    ok = {"merge": True, "cap": True, "cup": True}
    for d in restricted:
        identities = {
            "merge": ((x, y, z), [
                (1, [((x, y, w), merge), ((w, z), d)]),
                (-1, [((x, w), d), ((w, y, z), merge)]),
                (-1, [((y, w), d), ((x, w, z), merge)]),
            ]),
            "cap": ((x, y), [
                (1, [((x, w), d), ((w, y), cap)]),
                (1, [((y, w), d), ((x, w), cap)]),
            ]),
            "cup": ((x, y), [
                (1, [((w, y), cup), ((w, x), d)]),
                (1, [((x, w), cup), ((w, y), d)]),
            ]),
        }
        for name, (boundary, parts) in identities.items():
            ok[name] = ok[name] and not contract_sum(parts, boundary)[1]

    return {
        "holds": all(ok.values()),
        "derivations": len(restricted),
        "merge_ok": ok["merge"],
        "cap_ok": ok["cap"],
        "cup_ok": ok["cup"],
        "pairs_checked": 676,
    }


def derivations_report() -> Dict[str, object]:
    """Aggregate report: dimension, closure samples, equivariance."""
    basis = derivation_basis()
    closure = check_bracket_closure()
    equiv = check_equivariance()
    return {
        "dimension": len(basis),
        "bracket_closure": closure,
        "equivariance": equiv,
        "holds": len(basis) == DIM_DER and closure["holds"] and equiv["holds"],
    }
