"""Derivation Lie algebra of the Albert algebra, with exact certificates.

A derivation of the 27-dimensional algebra A is a linear map D satisfying
the Leibniz rule D(a o b) = D(a) o b + a o D(b).  The rule is written
once, as the networks ``_leibniz(D, m)`` of D . m - m . (D x 1) -
m . (1 x D) on the contractor of ``exactla``; D is a derivation of m
exactly when they contract to zero.  It has three uses:

  * the solve: with D the node of the 729 unknown matrix entries and m the
    Jordan node J of ``albert``, the rule on the 378 unordered basis pairs
    is a homogeneous linear system (9,063 nonzero rows), solved by exact
    sparse Gaussian elimination over the rationals and reduced to echelon
    form.  Its rank must be exactly 677, so the solution space, the Lie
    algebra of type F4, has dimension exactly 729 - 677 = 52;
  * the certificate: each of the 52 vectors, as a node D, must make
    ``_leibniz(D, J)``, D(1) and tr . D contract to zero, and the vectors
    must carry a reduced-echelon sparsity pattern (each is 1 at its own
    free column and 0 at the others), so their independence is
    immediate.  Both checks run again on every cache load;
  * equivariance: ``_equivariance_identities`` writes, for a 1->1 node D
    on V, the identities saying that merge (``_leibniz(D, merge)``),
    split, cap and cup commute with D acting on tensor powers as a
    derivation.  check_equivariance() contracts them for each derivation
    restricted to V -- the network iota ; D ; p of restricted_basis(),
    where iota embeds V in A and p projects A onto V.

The cyclic-vector certificate, cyclic_certificate(), contracts the same
identities for a smaller set S that needs no solve and no cache: the five
inner derivations [L_E11, L_b] of A for the units b of INNER_UNITS, each
contracted straight from the Jordan node and restricted to V.  It holds
when all four tables commute with every D in S and the basis vector
b0 = E11 - E22 spans V under words in S, by exact echelon reduction.
Then the kernel of any 1->n diagram map is closed under S, so a map that
kills b0 is zero: this is what lets ``functor.is_zero`` decide a map on
one input.

bracket() and in_span() are contractions of the basis nodes too.  A
Derivation holds only its node.  The basis is cached as plain text under
F4DIAGRAMS_CACHE_DIR, default ~/.cache/f4diagrams: per derivation, its
solution vector as 27 lines of 27 rationals (line r is row r of the
matrix).  The file is written from and read back into those flat
vectors; a file of any other shape is rejected, and a fingerprint of the
structure constants guards it against basis-convention drift.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .albert import (
    _IOTA,
    _PROJ,
    _UNIT_TRACE,
    AlbertElement,
    _from_coords_A,
    _jordan_node,
    coords_A,
)
from .exactla import Node, Scaled, _scaled, contract_sum, echelon_insert, sparse_nullspace

N_A = 27
N_V = N_A - 1
N_UNKNOWNS = N_A * N_A
DIM_DER = 52
RANK_TARGET = N_UNKNOWNS - DIM_DER

CACHE_ENV = "F4DIAGRAMS_CACHE_DIR"
_CACHE_FILE = "derivation_basis.txt"


@dataclass(frozen=True)
class Derivation:
    """A derivation of A, as a node keyed (input, output): entry (c, r) is
    D[r][c], the coordinate r of the image of basis element c."""

    node: Scaled

    @property
    def matrix(self) -> SimpleNamespace:
        """The 27x27 matrix on the fixed basis, as ``.data``: 27 rows of 27
        Fractions, built from the node.  bench/worker.py's basis_digest
        hashes it."""
        scale, tensor = self.node
        data = [[Fraction(0)] * N_A for _ in range(N_A)]
        for (c, r), n in tensor.items():
            data[r][c] = Fraction(n, scale)
        return SimpleNamespace(data=data)

    def apply_coords(self, coords: Sequence[Fraction]) -> List[Fraction]:
        scale, tensor = self.node
        out = [Fraction(0)] * N_A
        for (c, r), n in tensor.items():
            out[r] += Fraction(n, scale) * coords[c]
        return out

    def apply(self, a: AlbertElement) -> AlbertElement:
        return _from_coords_A(self.apply_coords(coords_A(a)))


# ---------------------------------------------------------------------------
# the Leibniz rule
# ---------------------------------------------------------------------------

#: wires: the inputs x, y and the output z of a product, w an inner wire, u a
#: spare (the column of an unknown, or a second inner wire); p and q fix the
#: first port of a Jordan node, t is a third inner wire
X, Y, Z, W, U, P, Q, T = range(8)


def _leibniz(d: Scaled, product: Scaled, *tail: int) -> List[Tuple[int, List[Node]]]:
    """D . m - m . (D x 1) - m . (1 x D) as networks on inputs x, y and
    output z, for d keyed (input, output, *tail) and m keyed (input, input,
    output); D is a derivation of m exactly when their sum contracts to
    zero."""
    return [
        (1, [((X, Y, W), product), ((W, Z) + tail, d)]),
        (-1, [((X, W) + tail, d), ((W, Y, Z), product)]),
        (-1, [((Y, W) + tail, d), ((X, W, Z), product)]),
    ]


def _node(vec: Sequence[Fraction]) -> Scaled:
    """The map with entry D[r][c] = vec[27*r + c] as a node keyed (input c, output r)."""
    return _scaled({(u % N_A, u // N_A): v for u, v in enumerate(vec) if v})


def _conventions_fingerprint() -> str:
    """Hash of the structure constants; changes iff basis conventions do."""
    scale, tensor = _jordan_node()
    lines = [f"{p} {q} {r} {Fraction(tensor[p, q, r], scale)}" for p, q, r in sorted(tensor) if p <= q]
    blob = "jordan-structure-v1\n" + "\n".join(lines)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _equation_rows() -> Iterator[Dict[int, int]]:
    """Sparse rows {column: coefficient} of the Leibniz system, one at a time.

    Unknown D[r][c] lives at column 27*r + c: D is the node of all unknowns,
    keyed (input c, output r, column 27*r + c), so ``_leibniz`` with it is
    the system, keyed (x, y, z, column).  It is contracted for one input
    b_i at a time, a one-hot node on wire x, and yields the rows of the
    pairs i <= j, for each target coordinate k, in (i, j, k) order; rows
    that vanish are left out.
    """
    unknowns = (1, {(c, r, N_A * r + c): 1 for r in range(N_A) for c in range(N_A)})
    rule = _leibniz(unknowns, _jordan_node(), U)
    for i in range(N_A):
        b_i = ((X,), (1, {(i,): 1}))
        rows: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (j, k, u), n in contract_sum([(c, net + [b_i]) for c, net in rule], (Y, Z, U))[1].items():
            if j >= i:
                rows.setdefault((j, k), {})[u] = n
        for jk in sorted(rows):
            yield rows[jk]


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------


def _certified(flat: List[List[Fraction]]) -> bool:
    """52 vectors, each a derivation D that kills the unit and lands in
    ker tr: ``_leibniz(D, J)``, D(1) and tr . D all contract to zero."""
    if len(flat) != DIM_DER:
        return False
    for d in map(_node, flat):
        checks = (
            (_leibniz(d, _jordan_node()), (X, Y, Z)),
            ([(1, [((X,), _UNIT_TRACE), ((X, Z), d)])], (Z,)),
            ([(1, [((X, Z), d), ((Z,), _UNIT_TRACE)])], (X,)),
        )
        if any(contract_sum(parts, boundary)[1] for parts, boundary in checks):
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


def _write_cache(path: str, flat: List[List[Fraction]]) -> None:
    """Write each flat vector as a block of 27 lines of 27 rationals (line
    r holds D[r][c] = vec[27*r + c]), blocks ending in a blank line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    parts = [f"fingerprint {_conventions_fingerprint()}", f"count {len(flat)}", ""]
    for vec in flat:
        parts.extend(" ".join(map(str, vec[N_A * r : N_A * (r + 1)])) for r in range(N_A))
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


def _read_cache(path: str) -> Optional[List[List[Fraction]]]:
    """The flat vectors of the cache file, or None unless it holds the
    current fingerprint, a count, and that many blocks of 27 lines of 27
    rationals."""
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
        body = [ln.split() for ln in lines[2:] if ln.strip()]
        if len(body) != count * N_A or any(len(row) != N_A for row in body):
            return None
        return [
            [Fraction(x) for row in body[b * N_A : (b + 1) * N_A] for x in row]
            for b in range(count)
        ]
    except (ValueError, ZeroDivisionError):
        return None


# ---------------------------------------------------------------------------
# the basis
# ---------------------------------------------------------------------------

_BASIS: Optional[List[Derivation]] = None
_FREE_COLS: Optional[List[int]] = None
_RESTRICTED: Optional[List[Scaled]] = None


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
    arithmetic, and the echelon marker columns are looked for, before being
    returned, so a stale, corrupt or non-echelon cache can only cause
    recomputation, never a wrong answer; a fresh solve rewrites the cache,
    so the next load finds it sound again.  A cache location that
    cannot be written costs a warning, not the solved basis.
    """
    global _BASIS, _FREE_COLS
    if _BASIS is not None:
        return list(_BASIS)

    path = _cache_path()
    flat = _read_cache(path)
    free: Optional[List[int]] = None
    if flat is not None:
        # a cache of derivations that is not in echelon form is re-solved too
        free = _free_columns(flat) if _certified(flat) else None
    if free is None:
        flat = _compute_basis_fresh()
        if not _certified(flat):
            raise AssertionError("solved derivation basis failed exact certification")
        free = _free_columns(flat)
        if free is None:
            raise AssertionError("derivation basis lost its echelon marker columns")
        try:
            _write_cache(path, flat)
        except OSError as exc:
            warnings.warn(f"derivation basis not cached at {path}: {exc}", RuntimeWarning)
    _FREE_COLS = free
    _BASIS = [Derivation(_node(vec)) for vec in flat]
    return list(_BASIS)


def in_span(node: Scaled) -> bool:
    """Exact membership of a linear map of A, a node keyed (input, output),
    in the span of the basis.

    The basis is echelon-shaped, so the only possible coefficients are the
    node's values at the marker columns (entry (c, r) is at column
    27*r + c); membership holds iff that combination of the basis nodes,
    minus the node, contracts to zero.
    """
    basis = derivation_basis()
    assert _FREE_COLS is not None
    scale, tensor = node
    parts = [(-1, [((X, Z), node)])] + [
        (Fraction(tensor.get((f % N_A, f // N_A), 0), scale), [((X, Z), d.node)])
        for f, d in zip(_FREE_COLS, basis)
    ]
    return not contract_sum(parts, (X, Z))[1]


def bracket(d1: Derivation, d2: Derivation) -> Scaled:
    """The commutator [D1, D2] = D1 D2 - D2 D1 (again a derivation), as a
    node keyed (input, output)."""
    return contract_sum(
        [(1, [((X, W), d2.node), ((W, Z), d1.node)]), (-1, [((X, W), d1.node), ((W, Z), d2.node)])],
        (X, Z),
    )


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


def restricted_basis() -> List[Scaled]:
    """The 52 derivations as integer 1->1 nodes on V, keyed (input, output).

    A derivation maps every basis element to a traceless one (the
    certificate checks it), so it preserves V = ker tr.  Its restriction
    is the network iota ; D ; p, with D the derivation's node and iota, p
    the basis-change nodes between V and A.
    """
    global _RESTRICTED
    if _RESTRICTED is None:
        _RESTRICTED = [
            contract_sum([(1, [((X, W), _IOTA), ((W, U), d.node), ((U, Z), _PROJ)])], (X, Z))
            for d in derivation_basis()
        ]
    return list(_RESTRICTED)


def _equivariance_identities(d: Scaled, nodes) -> Dict[str, Tuple[Tuple[int, ...], List[Tuple[int, List[Node]]]]]:
    """name -> (boundary, networks) of the identity saying that the table
    ``nodes[generator]`` commutes with the 1->1 node d on V, keyed (input,
    output), acting on tensor powers as a derivation; it holds when the
    networks contract to zero:
      * merge: the Leibniz rule ``_leibniz(D, merge)``;
      * split: (D x 1 + 1 x D) . split - split . D = 0;
      * cap:   cap . (D x 1 + 1 x D) = 0;
      * cup:   (D x 1 + 1 x D) . cup = 0.
    """
    from .diagram import CAP, CUP, MERGE, SPLIT

    split, cap, cup = nodes[SPLIT], nodes[CAP], nodes[CUP]
    return {
        "merge": ((X, Y, Z), _leibniz(d, nodes[MERGE])),
        "split": ((X, Y, Z), [
            (1, [((X, W, Z), split), ((W, Y), d)]),
            (1, [((X, Y, W), split), ((W, Z), d)]),
            (-1, [((X, W), d), ((W, Y, Z), split)]),
        ]),
        "cap": ((X, Y), [
            (1, [((X, W), d), ((W, Y), cap)]),
            (1, [((Y, W), d), ((X, W), cap)]),
        ]),
        "cup": ((X, Y), [
            (1, [((W, Y), cup), ((W, X), d)]),
            (1, [((X, W), cup), ((W, Y), d)]),
        ]),
    }


def _equivariant(ops: Sequence[Scaled], nodes) -> Dict[str, bool]:
    """Whether every generator table commutes with every node in ops."""
    ok = {"merge": True, "split": True, "cap": True, "cup": True}
    for d in ops:
        for name, (boundary, parts) in _equivariance_identities(d, nodes).items():
            ok[name] = ok[name] and not contract_sum(parts, boundary)[1]
    return ok


def check_equivariance() -> Dict[str, object]:
    """Exact infinitesimal invariance of the four generator tables under
    the 52 restricted derivations, by ``_equivariance_identities``."""
    from .functor import generator_tensors

    restricted = restricted_basis()
    ok = _equivariant(restricted, generator_tensors())
    return {
        "holds": all(ok.values()),
        "derivations": len(restricted),
        **{f"{name}_ok": holds for name, holds in ok.items()},
        "pairs_checked": 676,
    }


# ---------------------------------------------------------------------------
# the cyclic-vector certificate
# ---------------------------------------------------------------------------

_IDENTITY_V: Scaled = (1, {(i, i): 1 for i in range(N_V)})

#: basis_A indices of the units b whose inner derivations [L_E11, L_b] make
#: the certificate's operator set S: the x2-slot units 1, e1, e2, e3 and the
#: x3-slot unit 1.  Any set works that commutes with the tables and under
#: which b0 spans V; the certificate checks both, so a poor choice can only
#: make it fail.
INNER_UNITS = (11, 12, 13, 14, 19)


def inner_derivations() -> List[Scaled]:
    """The inner derivations D_b = [L_E11, L_b] of A for the basis units b
    of ``INNER_UNITS``, restricted to V: integer 1->1 nodes keyed (input,
    output).

    L_a is the Jordan node J with its first port fixed to a, so the
    restriction iota ; (L_b ; L_E11 - L_E11 ; L_b) ; p is one contraction.
    Only the x2-slot and x3-slot units give nonzero ones (sixteen in all);
    the five of ``INNER_UNITS`` already move b0 onto all of V.
    """
    jordan = _jordan_node()
    e11 = ((P,), (1, {(0,): 1}))

    def chain(first: int, second: int) -> List[Node]:
        """iota ; L_first ; L_second ; p, with the first ports on wires first and second."""
        return [((X, W), _IOTA), ((first, W, U), jordan), ((second, U, T), jordan), ((T, Z), _PROJ)]

    ops = []
    for r in INNER_UNITS:
        ends = [e11, ((Q,), (1, {(r,): 1}))]
        ops.append(contract_sum([(1, chain(Q, P) + ends), (-1, chain(P, Q) + ends)], (X, Z)))
    return ops


def _cyclic_span(ops: Sequence[Scaled]) -> int:
    """Dimension of the span of b0 and its images under all words in ops,
    by exact echelon reduction of sparse vectors."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    todo = [(1, {(0,): 1})]
    while todo and len(pivots) < N_V:
        den, vec = todo.pop()
        if echelon_insert(pivots, {i: Fraction(n, den) for (i,), n in vec.items()}):
            todo.extend(contract_sum([(1, [((X,), (den, vec)), ((X, Z), d)])], (Z,)) for d in ops)
    return len(pivots)


def cyclic_certificate(nodes) -> Dict[str, object]:
    """The premises under which one input decides whether a diagram map
    is zero, checked exactly for the node tables ``nodes``.

    S is ``inner_derivations()``.  The certificate holds when every table
    commutes with every D in S (``_equivariance_identities``), so every
    diagram map does; when basis vector 0 of V, b0 = E11 - E22, spans V
    under words in S, so the kernel of a 1->n diagram map, closed under
    S, is all of V as soon as it holds b0; and when caps undo cups,
    (1 x cap) . (cup x 1) = 1, so bending inputs up into outputs loses
    nothing.  It relies on no textbook fact about A -- S is only a set of
    operators on V -- so it speaks for whatever tables are in use, and a
    table that breaks one of these identities makes it fail.
    """
    from .diagram import CAP, CUP

    ops = inner_derivations()
    ok = _equivariant(ops, nodes)
    span = _cyclic_span(ops)
    zigzag = [(1, [((Z, W), nodes[CUP]), ((W, X), nodes[CAP])]), (-1, [((X, Z), _IDENTITY_V)])]
    zigzag_ok = not contract_sum(zigzag, (X, Z))[1]
    return {
        "holds": all(ok.values()) and span == N_V and zigzag_ok,
        "operators": len(ops),
        **{f"{name}_ok": holds for name, holds in ok.items()},
        "span": span,
        "zigzag_ok": zigzag_ok,
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
