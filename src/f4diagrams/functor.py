"""Evaluation of diagram terms as exact multilinear maps on powers of V.

The assignment (V = traceless part of the 27-dimensional Jordan algebra,
dim 26):

    merge -> (a, b) |-> projection of a o b onto V
    cross -> swap of tensor factors
    cup   -> sum_b b (x) b-dual  (inverse Gram coordinates)
    cap   -> (a, b) |-> tr(a o b)
    split -> a |-> sum_b b (x) projection of (b-dual o a)

is monoidal, so the value of a term is the contraction of its generator
tensors along its wires.  A term becomes a network of generator nodes
joined by wires (crossings only permute wires), with its input and output
strands as boundary ports, and the package's one contractor, in
``exactla``, contracts it; this module adds what is particular to diagrams
on V: a boundary wire that no node touches (a through strand) ranges over
all DIM values, up to MAX_PHI_ENTRIES entries.  ``phi_tensor`` keeps every
boundary port (``phi_closed`` is the case with none); ``scan_basis``
counts each input's nonzero outputs in that same tensor;
``apply_combo_to_basis`` and ``apply_term_sparse`` add one more node, the
input state, on the input wires and keep only the outputs.

``is_zero`` is the one test of whether a map is zero.  It bends an
m->n map to V -> V^(m+n-1) with nested cups and applies the bend to the
one basis vector b0; an empty image proves the map zero once the
per-process certificate of ``derivations.cyclic_certificate`` holds
(every generator table commutes with a set of derivations under which b0
spans V), and when the certificate fails it falls back to
``scan_basis``.  The
generator tables are networks too, of four nodes of ``albert``: the
Jordan node, the trace, and the basis changes iota (V -> A) and p
(A -> V, the projection pi read off in basis_V), which ``derivations``
also uses to restrict each derivation to V as iota ; D ; p.

Each generator's node tensor is stored as ints over the least common
denominator of its entries, and a term's scale is the product of its
nodes' scales.  Every evaluation divides the scale back out and returns a
{index-tuple: Fraction} dictionary (or a Fraction scalar).  Everything is
exact -- the whole module contains no floats.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .albert import _IOTA, _PROJ, _UNIT_TRACE, _jordan_node
from .diagram import (
    CAP,
    CROSS,
    CUP,
    MERGE,
    SPLIT,
    DiagramArityError,
    DiagramCombo,
    DiagramTerm,
    Gen,
    Id,
    as_combo,
    compose_chain,
    mirror,
    tensor_all,
    to_layers,
)
from .exactla import (
    IntSparse,
    Node,
    Scaled,
    _combo_sum,
    _contract_network,
    _over,
    _project,
    _scaled,
    contract_sum,
    echelon_insert,
    inverse,
)

ZERO = Fraction(0)
DIM = 26

Sparse = Dict[Tuple[int, ...], Fraction]

#: largest number of entries a whole-term tensor may have once the boundary
#: wires that no node touches (through strands) are expanded over all DIM
#: values; ``phi_tensor`` and ``scan_basis`` raise ValueError above it
#: instead of exhausting memory.  DIM**4 = 456,976 entries
#: (``phi_tensor(Id(4))``) take seconds and ~150 MB.
MAX_PHI_ENTRIES = DIM**4


# ---------------------------------------------------------------------------
# generator tensors
# ---------------------------------------------------------------------------


_NODES: Optional[Dict[Gen, Scaled]] = None


def generator_tensors() -> Dict[Gen, Scaled]:
    """The node table ``(scale, tensor)`` of each generator, built once.

    A tensor is keyed by the node's ports in order, inputs then outputs --
    ``(i, j, k)`` for merge, ``(k, i, j)`` for split -- and its int entries
    are the exact ones times ``scale``, their least common denominator.  A
    crossing only permutes wires, so it has no table.  Each table is a
    network on the one contractor: with J and tr the Jordan and trace
    nodes of ``albert``, merge is (iota x iota) ; J ; p and cap is
    (iota x iota) ; J ; tr; cup is the inverse of the Gram matrix cap,
    checked exactly as the contraction cap ; cup = 1; and split is
    (cup x 1) ; (1 x merge), which is b_k -> sum_i b_i (x) pi(b~_i o b_k)
    for the dual basis b~.
    """
    global _NODES
    if _NODES is None:
        x, y, z, a, b, c = range(6)
        vertex = [((x, a), _IOTA), ((y, b), _IOTA), ((a, b, c), _jordan_node())]
        merge = contract_sum([(1, vertex + [((c, z), _PROJ)])], (x, y, z))
        cap = contract_sum([(1, vertex + [((c,), _UNIT_TRACE)])], (x, y))

        gram = [[Fraction(cap[1].get((i, j), 0), cap[0]) for j in range(DIM)] for i in range(DIM)]
        cup = _scaled({(i, j): v for i, row in enumerate(inverse(gram)) for j, v in enumerate(row) if v})
        eye = (1, {(i, i): 1 for i in range(DIM)})
        if contract_sum([(1, [((x, a), cap), ((a, z), cup)]), (-1, [((x, z), eye)])], (x, z))[1]:
            raise AssertionError("Gram inversion defect")
        # split on wires 0 (input), 1 and 2 (cup's legs) and 3 (output)
        split = contract_sum([(1, [((1, 2), cup), ((2, 0, 3), merge)])], (0, 1, 3))
        _NODES = {MERGE: merge, SPLIT: split, CUP: cup, CAP: cap}
    return _NODES


# ---------------------------------------------------------------------------
# diagram networks
# ---------------------------------------------------------------------------


def _network_of(term: DiagramTerm) -> Tuple[List[Node], List[int], List[int]]:
    """Turn a term into generator nodes joined by wires; crossings become
    wire permutations, identities disappear.  Returns the network, the
    term.src input wires and the term.tgt output wires (a through strand's
    wire is in both)."""
    tables = generator_tensors()
    fresh = iter(range(10**9)).__next__
    network: List[Node] = []
    inputs = [fresh() for _ in range(term.src)]
    wires = list(inputs)
    for off, g in to_layers(term):
        if g is CROSS:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
            continue
        if g is CUP:
            ports = [fresh(), fresh()]
            wires[off:off] = ports
        elif g is CAP:
            ports = wires[off : off + 2]
            del wires[off : off + 2]
        elif g is MERGE:
            ports = wires[off : off + 2] + [fresh()]
            wires[off : off + 2] = ports[2:]
        elif g is SPLIT:
            ports = [wires[off], fresh(), fresh()]
            wires[off : off + 1] = ports[1:]
        else:
            raise TypeError(f"unknown generator {g!r}")
        network.append((ports, tables[g]))
    return network, inputs, wires


def _contract(network: Sequence[Node], boundary: Sequence[int]) -> Scaled:
    """A network's tensor keyed by its boundary wires, with its scale, the
    product of its nodes' scales.  A boundary wire that no node touches (a
    through strand) ranges over all DIM values; a result that would exceed
    MAX_PHI_ENTRIES entries raises ValueError instead."""
    scale, ports, tensor = _contract_network(network)
    through = sorted(set(boundary) - set(ports))
    entries = len(tensor) * DIM ** len(through)
    if entries > MAX_PHI_ENTRIES:
        raise ValueError(
            f"tensor would have {entries} entries ({len(through)} through strands), "
            f"above the limit of {MAX_PHI_ENTRIES}"
        )
    # positions in key + vals, the final node's key followed by the values
    # of the through wires
    pick = _project([
        ports.index(w) if w in ports else len(ports) + through.index(w) for w in boundary
    ])
    if not through or not tensor:
        return scale, {pick(key): c for key, c in tensor.items()}
    values = list(product(range(DIM), repeat=len(through)))
    return scale, {pick(key + vals): c for key, c in tensor.items() for vals in values}


# ---------------------------------------------------------------------------
# terms and combos
# ---------------------------------------------------------------------------

_CACHE_ENABLED = True
_TERM_TENSORS: Dict[DiagramTerm, Scaled] = {}
_CERTIFICATE: Optional[Dict[str, object]] = None


def set_cache_enabled(flag: bool) -> None:
    """Turn the memo of whole-term tensors (keyed by term) on
    or off; off also empties it and forgets the cyclic-vector
    certificate of ``is_zero``.  Results are identical either way."""
    global _CACHE_ENABLED, _CERTIFICATE
    _CACHE_ENABLED = bool(flag)
    if not flag:
        _TERM_TENSORS.clear()
        _CERTIFICATE = None


def _term_tensor(term: DiagramTerm) -> Scaled:
    """The term's whole tensor, keyed by (inputs..., outputs...), with its
    scale, memoized."""
    hit = _TERM_TENSORS.get(term)
    if hit is None:
        network, inputs, outputs = _network_of(term)
        hit = _contract(network, inputs + outputs)
        if _CACHE_ENABLED:
            _TERM_TENSORS[term] = hit
    return hit


def _apply(term: DiagramTerm, state: IntSparse, den: int) -> Scaled:
    """The term's outputs on an integer state over the common denominator
    ``den``: the state is one more node, on the input wires."""
    network, inputs, outputs = _network_of(term)
    network.append((inputs, (den, state)))
    return _contract(network, outputs)


def _fractions(scaled: Scaled) -> Sparse:
    scale, tensor = scaled
    return {k: Fraction(n, scale) for k, n in tensor.items()}


def _check_concrete(f: DiagramCombo) -> DiagramCombo:
    if f.is_symbolic():
        raise TypeError(
            "combo has symbolic coefficients; specialize(alpha, delta) first"
        )
    return f


def apply_term_sparse(term: DiagramTerm, state: Sparse) -> Sparse:
    """The term's output on a sparse state over its term.src strands."""
    den = lcm(*(v.denominator for v in state.values()))
    return _fractions(_apply(term, {k: _over(v, den) for k, v in state.items()}, den))


def apply_combo_to_basis(f, idx: Tuple[int, ...]) -> Sparse:
    """Sparse output of a (non-symbolic) combo on one basis input."""
    f = _check_concrete(as_combo(f))
    if len(idx) != f.src:
        raise DiagramArityError(f"combo consumes {f.src} strands, input has {len(idx)}")
    state = {tuple(idx): 1}
    return _fractions(_combo_sum((coeff, _apply(term, state, 1)) for term, coeff in f.terms))


def basis_indices(m: int) -> Iterable[Tuple[int, ...]]:
    return product(range(DIM), repeat=m)


def scan_basis(f) -> Tuple[int, int]:
    """Decide whether a concrete combo is the zero map, on every standard
    basis input at once.

    Each term's tensor is contracted once, with its inputs as boundary
    ports, and the terms are summed on ints; the nonzero entries are then
    counted per input.  Returns (inputs checked, that is 26**src, largest
    number of nonzero output coordinates of one input); the map is zero
    exactly when the second number is 0.  Like ``phi_tensor`` it raises
    ValueError at once when a term's through strands would expand past
    MAX_PHI_ENTRIES entries (``Id(5)`` does), rather than visiting each of
    the 26**src inputs.
    """
    f = _check_concrete(as_combo(f))
    _, total = _combo_sum((coeff, _term_tensor(term)) for term, coeff in f.terms)
    per_input = Counter(key[: f.src] for key in total)
    return DIM**f.src, max(per_input.values(), default=0)


def phi_tensor(f) -> Sparse:
    """The whole map of a concrete combo as one sparse tensor.

    Keys are (inputs..., outputs...): entry (i_1..i_m, j_1..j_n) is the
    coefficient of b_j1 (x) ... (x) b_jn in the image of b_i1 (x) ... (x)
    b_im, so slicing at one input gives ``apply_combo_to_basis``.  Raises
    ValueError when expanding through strands would give more than
    MAX_PHI_ENTRIES entries.
    """
    f = _check_concrete(as_combo(f))
    return _fractions(_combo_sum((coeff, _term_tensor(term)) for term, coeff in f.terms))


def phi_closed(f) -> Fraction:
    """Exact scalar value of a closed (0 -> 0) combo."""
    f = _check_concrete(as_combo(f))
    if f.src != 0 or f.tgt != 0:
        raise DiagramArityError(f"phi_closed needs a closed diagram, got {f.src}->{f.tgt}")
    return phi_tensor(f).get((), ZERO)


# ---------------------------------------------------------------------------
# trace pairing and Gram ranks
# ---------------------------------------------------------------------------


def _cup_nest(m: int) -> DiagramTerm:
    """0 -> 2m: m nested cups, outermost first, as one flat chain of layers
    (a term nested m levels deep would overflow the recursion limit of the
    term printer and of the layer view for large m)."""
    return compose_chain(*(tensor_all(Id(k), CUP, Id(k)) for k in range(m)))


def _cap_nest(m: int) -> DiagramTerm:
    """2m -> 0: the mirror of ``_cup_nest``, innermost cap first."""
    return compose_chain(*(tensor_all(Id(k), CAP, Id(k)) for k in reversed(range(m))))


def closure(f) -> DiagramCombo:
    """Close an m->m combo into a 0->0 combo by bending all strands around
    the right with nested cups and caps (the categorical trace)."""
    f = as_combo(f)
    if f.src != f.tgt:
        raise DiagramArityError(f"can only close an m->m combo, got {f.src}->{f.tgt}")
    m = f.src
    if m == 0:
        return f
    cup = as_combo(_cup_nest(m))
    cap = as_combo(_cap_nest(m))
    return cap.compose((f @ as_combo(Id(m)))).compose(cup)


def trace_pairing(f, g) -> Fraction:
    """<f, g> = closed evaluation of (mirror of f) after g: an exact,
    symmetric, positive-definite pairing on evaluated diagrams."""
    f, g = as_combo(f), as_combo(g)
    if (f.src, f.tgt) != (g.src, g.tgt):
        raise DiagramArityError(
            f"pairing needs equal arities, got {f.src}->{f.tgt} vs {g.src}->{g.tgt}"
        )
    return phi_closed(closure(mirror(f).compose(g)))


def gram_rank(fs: Sequence) -> int:
    """Rank of the pairwise trace-pairing matrix = dimension of the span
    of the evaluated diagrams."""
    fs = [as_combo(f) for f in fs]
    if not fs:
        return 0
    arity = (fs[0].src, fs[0].tgt)
    for f in fs[1:]:
        if (f.src, f.tgt) != arity:
            raise DiagramArityError("gram_rank needs combos of one common arity")
    n = len(fs)
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = trace_pairing(fs[i], fs[j])
    pivots: Dict[int, Dict[int, Fraction]] = {}
    return sum(echelon_insert(pivots, dict(enumerate(row))) for row in m)


# ---------------------------------------------------------------------------
# the zero test
# ---------------------------------------------------------------------------


def _certificate() -> Dict[str, object]:
    """``derivations.cyclic_certificate`` of the generator tables, built on
    first use and kept for the process (``set_cache_enabled(False)``
    forgets it)."""
    global _CERTIFICATE
    if _CERTIFICATE is None:
        from .derivations import cyclic_certificate

        _CERTIFICATE = cyclic_certificate(generator_tensors())
    return _CERTIFICATE


def _bend(f) -> DiagramCombo:
    """An m->n combo with m >= 1 as the 1->(n+m-1) combo
    (f x 1) . (1 x m-1 nested cups): its inputs after the first are bent
    up into outputs.  Caps undo the bend, since cup inverts the Gram
    matrix cap (``generator_tensors`` and the certificate check it), so f
    is zero exactly when its bend is."""
    f = as_combo(f)
    if f.src <= 1:
        return f
    extra = f.src - 1
    return (f @ as_combo(Id(extra))).compose(as_combo(tensor_all(Id(1), _cup_nest(extra))))


def is_zero(f) -> bool:
    """Decide exactly whether a concrete combo is the zero map.

    A 0->n map is contracted whole (``scan_basis``).  Any other map is
    bent to g: V -> V^(x)N and applied to the one basis vector b0: a
    nonzero image proves f nonzero.  An empty one proves f zero once
    ``_certificate()`` holds: every diagram map then commutes with the
    operators S of the certificate, so the kernel of g is closed under S
    and, holding b0, is all of V.  If the certificate fails, the verdict
    comes from ``scan_basis`` instead.
    """
    f = _check_concrete(as_combo(f))
    if f.src == 0:
        return scan_basis(f)[1] == 0
    if apply_combo_to_basis(_bend(f), (0,)):
        return False
    if _certificate()["holds"]:
        return True
    return scan_basis(f)[1] == 0
