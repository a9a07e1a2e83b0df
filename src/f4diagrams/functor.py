"""Evaluation of diagram terms as exact multilinear maps on powers of V.

The assignment (V = traceless part of the 27-dimensional Jordan algebra,
dim 26):

    merge -> (a, b) |-> projection of a o b onto V
    cross -> swap of tensor factors
    cup   -> sum_b b (x) b-dual  (inverse Gram coordinates)
    cap   -> (a, b) |-> tr(a o b)
    split -> a |-> sum_b b (x) projection of (b-dual o a)

is monoidal, so a term evaluates layer by layer on one basis input: each
stage applies one generator at a strand offset (the streaming evaluator
behind ``apply_combo_to_basis`` and ``scan_basis``).  A whole term also
evaluates at once as a tensor network: generator nodes joined by wires,
with the input and output strands as boundary ports, contracted pairwise
in a greedy smallest-intermediate order (``phi_tensor``; ``phi_closed`` is
the case with no ports).  A creation-order strategy exists solely so
tests can confirm the result is order-independent.

States are sparse dictionaries keyed by index tuples.  Inside the module
the values are Python ints over one scale per term: each generator table is
stored scaled by the least common denominator of its entries, and a term's
scale is the product of its layers' (or nodes') scales, so the hot loops
multiply and add ints only.  Every public return divides the scale back
out and is a {index-tuple: Fraction} dictionary (or a Fraction scalar).
Everything is exact -- the whole module contains no floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .albert import build_basis, coords_V, jordan, project_v
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
    Compose,
    as_combo,
    mirror,
    tensor_all,
    to_layers,
)

ZERO = Fraction(0)
DIM = 26

Sparse = Dict[Tuple[int, ...], Fraction]
IntSparse = Dict[Tuple[int, ...], int]

#: largest number of entries ``phi_tensor`` builds when it expands boundary
#: wires that no node touches (through strands) over all DIM values; a
#: request above it raises ValueError instead of exhausting memory.
#: DIM**4 = 456,976 entries (``phi_tensor(Id(4))``) take seconds and ~150 MB.
MAX_PHI_ENTRIES = DIM**4


# ---------------------------------------------------------------------------
# generator tensors
# ---------------------------------------------------------------------------


def _lcd(values: Iterable[Fraction]) -> int:
    """Least common denominator of exact rationals."""
    return lcm(*{v.denominator for v in values})


def _over(c: Fraction, scale: int) -> int:
    """The integer c * scale; scale must be a multiple of c's denominator."""
    return c.numerator * (scale // c.denominator)


class GeneratorTensors:
    """Sparse action tables for the five generators.

    Public tables, with exact Fraction entries:

    merge_out[(i,j)]  -> ((k, c), ...):            pi(b_i o b_j) = sum c b_k
    split_out[k]      -> ((i, j, c), ...):         split(b_k) = sum c b_i (x) b_j
    cup_out           -> ((i, j, c), ...):         inverse Gram entries
    cap_val[(i,j)]    -> tr(b_i o b_j):            Gram entries

    ``kernels[g]`` is ``(scale, table)``: the same table for generator g
    with every entry multiplied by ``scale``, the least common denominator
    of its entries, so the entries are ints (``table`` is None for cross,
    whose scale is 1).  The evaluator and the contractor read only these.
    """

    __slots__ = ("merge_out", "split_out", "cup_out", "cap_val", "basisdata", "kernels")

    def __init__(self):
        bd = build_basis()
        bas, dual, gram, ginv = bd.basis, bd.dual, bd.gram, bd.gram_inv

        merge_out: Dict[Tuple[int, int], Tuple[Tuple[int, Fraction], ...]] = {}
        for i in range(DIM):
            for j in range(i, DIM):
                w = coords_V(project_v(jordan(bas[i], bas[j])))
                nz = tuple((k, c) for k, c in enumerate(w) if c)
                if nz:
                    merge_out[(i, j)] = nz
                    if i != j:
                        merge_out[(j, i)] = nz

        split_out: Dict[int, Tuple[Tuple[int, int, Fraction], ...]] = {}
        for k in range(DIM):
            acc: List[Tuple[int, int, Fraction]] = []
            for i in range(DIM):
                w = coords_V(project_v(jordan(dual[i], bas[k])))
                acc.extend((i, j, c) for j, c in enumerate(w) if c)
            if acc:
                split_out[k] = tuple(acc)

        cup_out = tuple(
            (i, j, ginv.data[i][j])
            for i in range(DIM)
            for j in range(DIM)
            if ginv.data[i][j]
        )
        cap_val = {
            (i, j): gram.data[i][j]
            for i in range(DIM)
            for j in range(DIM)
            if gram.data[i][j]
        }

        ms = _lcd(c for hits in merge_out.values() for _, c in hits)
        ss = _lcd(c for hits in split_out.values() for _, _, c in hits)
        us = _lcd(c for _, _, c in cup_out)
        cs = _lcd(cap_val.values())
        kernels = {
            MERGE: (ms, {
                ij: tuple((k, _over(c, ms)) for k, c in hits) for ij, hits in merge_out.items()
            }),
            SPLIT: (ss, {
                k: tuple((i, j, _over(c, ss)) for i, j, c in hits) for k, hits in split_out.items()
            }),
            CUP: (us, tuple((i, j, _over(c, us)) for i, j, c in cup_out)),
            CAP: (cs, {ij: _over(c, cs) for ij, c in cap_val.items()}),
            CROSS: (1, None),
        }

        object.__setattr__(self, "merge_out", merge_out)
        object.__setattr__(self, "split_out", split_out)
        object.__setattr__(self, "cup_out", cup_out)
        object.__setattr__(self, "cap_val", cap_val)
        object.__setattr__(self, "basisdata", bd)
        object.__setattr__(self, "kernels", kernels)

    def __setattr__(self, *a):
        raise AttributeError("GeneratorTensors is immutable")


_GENS: Optional[GeneratorTensors] = None


def generator_tensors() -> GeneratorTensors:
    global _GENS
    if _GENS is None:
        _GENS = GeneratorTensors()
    return _GENS


# ---------------------------------------------------------------------------
# sparse streaming evaluator
# ---------------------------------------------------------------------------

_CACHE_ENABLED = True
_TERM_BASIS_CACHE: Dict[Tuple[DiagramTerm, Tuple[int, ...]], Sparse] = {}


def set_cache_enabled(flag: bool) -> None:
    """Turn the per-(term, basis-input) memo on or off (results must be
    identical either way; the switch exists so tests can prove that)."""
    global _CACHE_ENABLED
    _CACHE_ENABLED = bool(flag)
    if not flag:
        _TERM_BASIS_CACHE.clear()


def _prune(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _apply_gen(state: IntSparse, off: int, g: Gen, table) -> IntSparse:
    """One generator at strand offset ``off``, on ints: ``table`` is the
    generator's scaled integer table, so the output is scaled by its scale."""
    out: IntSparse = {}
    if g is CROSS:
        for idx, c in state.items():
            out[idx[:off] + (idx[off + 1], idx[off]) + idx[off + 2 :]] = c
        return out
    if g is MERGE:
        for idx, c in state.items():
            hits = table.get((idx[off], idx[off + 1]))
            if not hits:
                continue
            head, tail = idx[:off], idx[off + 2 :]
            for k, mc in hits:
                key = head + (k,) + tail
                out[key] = out.get(key, 0) + c * mc
        return _prune(out)
    if g is SPLIT:
        for idx, c in state.items():
            hits = table.get(idx[off])
            if not hits:
                continue
            head, tail = idx[:off], idx[off + 1 :]
            for i, j, sc in hits:
                key = head + (i, j) + tail
                out[key] = out.get(key, 0) + c * sc
        return _prune(out)
    if g is CUP:
        for idx, c in state.items():
            head, tail = idx[:off], idx[off:]
            for i, j, cc in table:
                key = head + (i, j) + tail
                out[key] = out.get(key, 0) + c * cc
        return _prune(out)
    if g is CAP:
        for idx, c in state.items():
            v = table.get((idx[off], idx[off + 1]))
            if not v:
                continue
            key = idx[:off] + idx[off + 2 :]
            out[key] = out.get(key, 0) + c * v
        return _prune(out)
    raise TypeError(f"unknown generator {g!r}")


Program = Tuple[int, Tuple[Tuple[int, Gen, object], ...]]
_PROGRAMS: Dict[DiagramTerm, Program] = {}


def _program(term: DiagramTerm) -> Program:
    """The term's layers with their integer tables, and the term's scale
    (the product of its layers' scales); flattened once per term."""
    prog = _PROGRAMS.get(term)
    if prog is None:
        kernels = generator_tensors().kernels
        scale, steps = 1, []
        for off, g in to_layers(term):
            s, table = kernels[g]
            scale *= s
            steps.append((off, g, table))
        prog = _PROGRAMS[term] = (scale, tuple(steps))
    return prog


def _run(term: DiagramTerm, state: IntSparse, den: int) -> Sparse:
    """Push an integer state over the common denominator ``den`` through
    every layer; the result is back in Fractions."""
    scale, steps = _program(term)
    for off, g, table in steps:
        state = _apply_gen(state, off, g, table)
        if not state:
            break
    scale *= den
    return {k: Fraction(n, scale) for k, n in state.items()}


def apply_term_sparse(term: DiagramTerm, state: Sparse) -> Sparse:
    """Push a sparse state (over term.src strands) through every layer."""
    den = lcm(*(v.denominator for v in state.values()))
    return _run(term, {k: _over(v, den) for k, v in state.items()}, den)


def apply_term_to_basis(term: DiagramTerm, idx: Tuple[int, ...]) -> Sparse:
    """Evaluate one term on one standard basis tensor; memoized."""
    if _CACHE_ENABLED:
        key = (term, idx)
        hit = _TERM_BASIS_CACHE.get(key)
        if hit is None:
            hit = _run(term, {idx: 1}, 1)
            _TERM_BASIS_CACHE[key] = hit
        return hit
    return _run(term, {idx: 1}, 1)


def _check_concrete(f: DiagramCombo) -> DiagramCombo:
    if f.is_symbolic():
        raise TypeError(
            "combo has symbolic coefficients; specialize(alpha, delta) first"
        )
    return f


def apply_combo_to_basis(f, idx: Tuple[int, ...]) -> Sparse:
    """Sparse output of a (non-symbolic) combo on one basis input."""
    f = _check_concrete(as_combo(f))
    if len(idx) != f.src:
        raise DiagramArityError(f"combo consumes {f.src} strands, input has {len(idx)}")
    # A term's values have denominators dividing its scale, so over den
    # every coeff * value is an int and the sum runs on ints.
    den = lcm(*(coeff.denominator * _program(term)[0] for term, coeff in f.terms))
    acc: IntSparse = {}
    for term, coeff in f.terms:
        m = _over(coeff, den)
        for k, v in apply_term_to_basis(term, idx).items():
            acc[k] = acc.get(k, 0) + m * v.numerator // v.denominator
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def basis_indices(m: int) -> Iterable[Tuple[int, ...]]:
    return product(range(DIM), repeat=m)


def scan_basis(f) -> Tuple[int, int]:
    """Stream every standard basis input through a concrete combo.

    Returns (inputs checked, largest number of nonzero output coordinates
    seen); the map is zero exactly when the second number is 0.  Never
    materializes a dense 26^(m+n) tensor; each input's output stays sparse.
    """
    f = _check_concrete(as_combo(f))
    checked = 0
    worst = 0
    for idx in basis_indices(f.src):
        checked += 1
        worst = max(worst, len(apply_combo_to_basis(f, idx)))
    return checked, worst


# ---------------------------------------------------------------------------
# whole terms: tensor-network contraction
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("ports", "tensor")

    def __init__(self, ports: List[int], tensor: IntSparse):
        self.ports = ports  # wire ids, one per tensor index position
        self.tensor = tensor


NodeTensor = Tuple[int, IntSparse]  # (scale, integer tensor)
_NODE_TENSORS: Optional[Tuple[NodeTensor, NodeTensor, NodeTensor, NodeTensor]] = None


def _node_tensors() -> Tuple[NodeTensor, NodeTensor, NodeTensor, NodeTensor]:
    """(scale, integer tensor) for merge, split, cup and cap, keyed by the
    node's ports in order (inputs, then outputs)."""
    global _NODE_TENSORS
    if _NODE_TENSORS is None:
        kernels = generator_tensors().kernels
        ms, merge = kernels[MERGE]
        ss, split = kernels[SPLIT]
        us, cup = kernels[CUP]
        cs, cap = kernels[CAP]
        _NODE_TENSORS = (
            (ms, {(i, j, k): c for (i, j), hits in merge.items() for k, c in hits}),
            (ss, {(k, i, j): c for k, hits in split.items() for i, j, c in hits}),
            (us, {(i, j): c for i, j, c in cup}),
            (cs, dict(cap)),
        )
    return _NODE_TENSORS


def _network_of(term: DiagramTerm) -> Tuple[List[_Node], List[int], int]:
    """Turn a term into generator nodes joined by wires; crossings become
    wire permutations, identities disappear.  Returns the nodes, the
    boundary wires -- the term.src inputs, then the term.tgt outputs (a
    through strand is both, so its wire appears twice) -- and the term's
    scale, the product of its nodes' scales."""
    merge_nd, split_nd, cup_nd, cap_nd = _node_tensors()

    fresh = iter(range(10**9)).__next__
    nodes: List[_Node] = []
    scale = 1
    inputs = [fresh() for _ in range(term.src)]
    wires = list(inputs)
    for off, g in to_layers(term):
        if g is CROSS:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
            continue
        if g is CUP:
            w1, w2 = fresh(), fresh()
            nd, ports = cup_nd, [w1, w2]
            wires[off:off] = [w1, w2]
        elif g is CAP:
            nd, ports = cap_nd, [wires[off], wires[off + 1]]
            del wires[off : off + 2]
        elif g is MERGE:
            w = fresh()
            nd, ports = merge_nd, [wires[off], wires[off + 1], w]
            wires[off : off + 2] = [w]
        elif g is SPLIT:
            w1, w2 = fresh(), fresh()
            nd, ports = split_nd, [wires[off], w1, w2]
            wires[off : off + 1] = [w1, w2]
        else:
            raise TypeError(f"unknown generator {g!r}")
        scale *= nd[0]
        nodes.append(_Node(ports, nd[1]))
    return nodes, inputs + wires, scale


def _contract_pair(a: _Node, b: _Node) -> _Node:
    shared = [w for w in a.ports if w in b.ports]
    a_pos = [a.ports.index(w) for w in shared]
    b_pos = [b.ports.index(w) for w in shared]
    a_keep = [p for p in range(len(a.ports)) if p not in a_pos]
    b_keep = [p for p in range(len(b.ports)) if p not in b_pos]

    buckets: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], int]]] = {}
    for key, c in b.tensor.items():
        bk = tuple(key[p] for p in b_pos)
        buckets.setdefault(bk, []).append((tuple(key[p] for p in b_keep), c))

    out: IntSparse = {}
    for key, c in a.tensor.items():
        hit = buckets.get(tuple(key[p] for p in a_pos))
        if not hit:
            continue
        head = tuple(key[p] for p in a_keep)
        for tail, bc in hit:
            k = head + tail
            out[k] = out.get(k, 0) + c * bc
    ports = [a.ports[p] for p in a_keep] + [b.ports[p] for p in b_keep]
    return _Node(ports, _prune(out))


def _contract_network(nodes: List[_Node], boundary: List[int], strategy: str) -> IntSparse:
    """Contract every internal wire; the result is keyed by the values of
    the boundary wires, in the order given.  A boundary wire that no node
    touches (a through strand) ranges over all DIM values; a result that
    would exceed MAX_PHI_ENTRIES entries raises ValueError instead."""
    nodes = list(nodes)
    while len(nodes) > 1:
        best = None
        for x in range(len(nodes)):
            px = set(nodes[x].ports)
            for y in range(x + 1, len(nodes)):
                shared = px.intersection(nodes[y].ports)
                if not shared:
                    continue
                open_ports = len(nodes[x].ports) + len(nodes[y].ports) - 2 * len(shared)
                if strategy == "greedy":
                    cost = (open_ports, len(nodes[x].tensor) * len(nodes[y].tensor), x, y)
                else:  # first-created pair; exists for order-independence tests
                    cost = (x, y)
                if best is None or cost < best[0]:
                    best = (cost, x, y)
        if best is None:
            # disconnected components: outer product of the smallest pair
            x, y = sorted(range(len(nodes)), key=lambda i: (len(nodes[i].tensor), i))[:2]
        else:
            _, x, y = best
        merged = _contract_pair(nodes[x], nodes[y])
        nodes = [nd for i, nd in enumerate(nodes) if i not in (x, y)]
        nodes.append(merged)
    final = nodes[0] if nodes else _Node([], {(): 1})
    through = sorted(set(boundary) - set(final.ports))
    entries = len(final.tensor) * DIM ** len(through)
    if entries > MAX_PHI_ENTRIES:
        raise ValueError(
            f"tensor would have {entries} entries ({len(through)} through strands), "
            f"above the limit of {MAX_PHI_ENTRIES}"
        )
    where = [
        (0, final.ports.index(w)) if w in final.ports else (1, through.index(w))
        for w in boundary
    ]
    out: IntSparse = {}
    for key, c in final.tensor.items():
        for vals in product(range(DIM), repeat=len(through)):
            parts = (key, vals)
            out[tuple(parts[s][p] for s, p in where)] = c
    return out


def _phi(f, strategy: str) -> Sparse:
    f = _check_concrete(as_combo(f))
    out: Sparse = {}
    for term, coeff in f.terms:
        nodes, boundary, scale = _network_of(term)
        c = Fraction(coeff, scale)
        for k, v in _contract_network(nodes, boundary, strategy).items():
            out[k] = out.get(k, ZERO) + c * v
    return _prune(out)


def phi_tensor(f) -> Sparse:
    """The whole map of a concrete combo as one sparse tensor.

    Keys are (inputs..., outputs...): entry (i_1..i_m, j_1..j_n) is the
    coefficient of b_j1 (x) ... (x) b_jn in the image of b_i1 (x) ... (x)
    b_im, so slicing at one input gives ``apply_combo_to_basis``.  Raises
    ValueError when expanding through strands would give more than
    MAX_PHI_ENTRIES entries.
    """
    return _phi(f, "greedy")


def phi_closed(f, strategy: str = "greedy") -> Fraction:
    """Exact scalar value of a closed (0 -> 0) combo."""
    f = _check_concrete(as_combo(f))
    if f.src != 0 or f.tgt != 0:
        raise DiagramArityError(f"phi_closed needs a closed diagram, got {f.src}->{f.tgt}")
    return _phi(f, strategy).get((), ZERO)


# ---------------------------------------------------------------------------
# trace pairing and Gram ranks
# ---------------------------------------------------------------------------


def _cup_nest(m: int) -> DiagramTerm:
    t: DiagramTerm = CUP
    for _ in range(m - 1):
        t = Compose(tensor_all(Id(1), t, Id(1)), CUP)
    return t


def _cap_nest(m: int) -> DiagramTerm:
    t: DiagramTerm = CAP
    for _ in range(m - 1):
        t = Compose(CAP, tensor_all(Id(1), t, Id(1)))
    return t


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
    from .exactla import RatMatrix

    fs = [as_combo(f) for f in fs]
    if not fs:
        return 0
    arity = (fs[0].src, fs[0].tgt)
    for f in fs[1:]:
        if (f.src, f.tgt) != arity:
            raise DiagramArityError("gram_rank needs combos of one common arity")
    n = len(fs)
    m = RatMatrix(n, n)
    for i in range(n):
        for j in range(i, n):
            v = trace_pairing(fs[i], fs[j])
            m.data[i][j] = v
            m.data[j][i] = v
    return m.rank()
