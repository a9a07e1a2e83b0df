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

All states and results are sparse dictionaries {index-tuple: Fraction}.
Everything is exact -- the whole module contains no floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
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
ONE = Fraction(1)
DIM = 26

Sparse = Dict[Tuple[int, ...], Fraction]


# ---------------------------------------------------------------------------
# generator tensors
# ---------------------------------------------------------------------------


class GeneratorTensors:
    """Sparse action tables for the five generators.

    merge_out[(i,j)]  -> ((k, c), ...):            pi(b_i o b_j) = sum c b_k
    split_out[k]      -> ((i, j, c), ...):         split(b_k) = sum c b_i (x) b_j
    cup_out           -> ((i, j, c), ...):         inverse Gram entries
    cap_val[(i,j)]    -> tr(b_i o b_j):            Gram entries
    """

    __slots__ = ("merge_out", "split_out", "cup_out", "cap_val", "basisdata")

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

        object.__setattr__(self, "merge_out", merge_out)
        object.__setattr__(self, "split_out", split_out)
        object.__setattr__(self, "cup_out", cup_out)
        object.__setattr__(self, "cap_val", cap_val)
        object.__setattr__(self, "basisdata", bd)

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


def _prune(d: Sparse) -> Sparse:
    return {k: v for k, v in d.items() if v}


def _apply_gen(state: Sparse, off: int, g: Gen, gens: GeneratorTensors) -> Sparse:
    out: Sparse = {}
    if g is CROSS:
        for idx, c in state.items():
            out[idx[:off] + (idx[off + 1], idx[off]) + idx[off + 2 :]] = c
        return out
    if g is MERGE:
        table = gens.merge_out
        for idx, c in state.items():
            hits = table.get((idx[off], idx[off + 1]))
            if not hits:
                continue
            head, tail = idx[:off], idx[off + 2 :]
            for k, mc in hits:
                key = head + (k,) + tail
                out[key] = out.get(key, ZERO) + c * mc
        return _prune(out)
    if g is SPLIT:
        table = gens.split_out
        for idx, c in state.items():
            hits = table.get(idx[off])
            if not hits:
                continue
            head, tail = idx[:off], idx[off + 1 :]
            for i, j, sc in hits:
                key = head + (i, j) + tail
                out[key] = out.get(key, ZERO) + c * sc
        return _prune(out)
    if g is CUP:
        pairs = gens.cup_out
        for idx, c in state.items():
            head, tail = idx[:off], idx[off:]
            for i, j, cc in pairs:
                key = head + (i, j) + tail
                out[key] = out.get(key, ZERO) + c * cc
        return _prune(out)
    if g is CAP:
        table = gens.cap_val
        for idx, c in state.items():
            v = table.get((idx[off], idx[off + 1]))
            if not v:
                continue
            key = idx[:off] + idx[off + 2 :]
            out[key] = out.get(key, ZERO) + c * v
        return _prune(out)
    raise TypeError(f"unknown generator {g!r}")


def apply_term_sparse(term: DiagramTerm, state: Sparse) -> Sparse:
    """Push a sparse state (over term.src strands) through every layer."""
    gens = generator_tensors()
    for off, g in to_layers(term):
        state = _apply_gen(state, off, g, gens)
        if not state:
            break
    return state


def apply_term_to_basis(term: DiagramTerm, idx: Tuple[int, ...]) -> Sparse:
    """Evaluate one term on one standard basis tensor; memoized."""
    if _CACHE_ENABLED:
        key = (term, idx)
        hit = _TERM_BASIS_CACHE.get(key)
        if hit is None:
            hit = apply_term_sparse(term, {idx: ONE})
            _TERM_BASIS_CACHE[key] = hit
        return hit
    return apply_term_sparse(term, {idx: ONE})


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
    out: Sparse = {}
    for term, coeff in f.terms:
        for k, v in apply_term_to_basis(term, idx).items():
            out[k] = out.get(k, ZERO) + coeff * v
    return _prune(out)


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

    def __init__(self, ports: List[int], tensor: Dict[Tuple[int, ...], Fraction]):
        self.ports = ports  # wire ids, one per tensor index position
        self.tensor = tensor


_NODE_TENSORS: Optional[Tuple[dict, dict, dict, dict]] = None


def _node_tensors() -> Tuple[dict, dict, dict, dict]:
    global _NODE_TENSORS
    if _NODE_TENSORS is None:
        gens = generator_tensors()
        merge_nd = {}
        for (i, j), hits in gens.merge_out.items():
            for k, c in hits:
                merge_nd[(i, j, k)] = c
        split_nd = {}
        for k, hits in gens.split_out.items():
            for i, j, c in hits:
                split_nd[(k, i, j)] = c
        cup_nd = {(i, j): c for i, j, c in gens.cup_out}
        cap_nd = dict(gens.cap_val)
        _NODE_TENSORS = (merge_nd, split_nd, cup_nd, cap_nd)
    return _NODE_TENSORS


def _network_of(term: DiagramTerm) -> Tuple[List[_Node], List[int]]:
    """Turn a term into generator nodes joined by wires; crossings become
    wire permutations, identities disappear.  Returns the nodes and the
    boundary wires: the term.src inputs, then the term.tgt outputs (a
    through strand is both, so its wire appears twice)."""
    merge_nd, split_nd, cup_nd, cap_nd = _node_tensors()

    fresh = iter(range(10**9)).__next__
    nodes: List[_Node] = []
    inputs = [fresh() for _ in range(term.src)]
    wires = list(inputs)
    for off, g in to_layers(term):
        if g is CROSS:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
        elif g is CUP:
            w1, w2 = fresh(), fresh()
            nodes.append(_Node([w1, w2], cup_nd))
            wires[off:off] = [w1, w2]
        elif g is CAP:
            nodes.append(_Node([wires[off], wires[off + 1]], cap_nd))
            del wires[off : off + 2]
        elif g is MERGE:
            w = fresh()
            nodes.append(_Node([wires[off], wires[off + 1], w], merge_nd))
            wires[off : off + 2] = [w]
        elif g is SPLIT:
            w1, w2 = fresh(), fresh()
            nodes.append(_Node([wires[off], w1, w2], split_nd))
            wires[off : off + 1] = [w1, w2]
        else:
            raise TypeError(f"unknown generator {g!r}")
    return nodes, inputs + wires


def _contract_pair(a: _Node, b: _Node) -> _Node:
    shared = [w for w in a.ports if w in b.ports]
    a_pos = [a.ports.index(w) for w in shared]
    b_pos = [b.ports.index(w) for w in shared]
    a_keep = [p for p in range(len(a.ports)) if p not in a_pos]
    b_keep = [p for p in range(len(b.ports)) if p not in b_pos]

    buckets: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], Fraction]]] = {}
    for key, c in b.tensor.items():
        bk = tuple(key[p] for p in b_pos)
        buckets.setdefault(bk, []).append((tuple(key[p] for p in b_keep), c))

    out: Dict[Tuple[int, ...], Fraction] = {}
    for key, c in a.tensor.items():
        hit = buckets.get(tuple(key[p] for p in a_pos))
        if not hit:
            continue
        head = tuple(key[p] for p in a_keep)
        for tail, bc in hit:
            k = head + tail
            out[k] = out.get(k, ZERO) + c * bc
    ports = [a.ports[p] for p in a_keep] + [b.ports[p] for p in b_keep]
    return _Node(ports, _prune(out))


def _contract_network(nodes: List[_Node], boundary: List[int], strategy: str) -> Sparse:
    """Contract every internal wire; the result is keyed by the values of
    the boundary wires, in the order given.  A boundary wire that no node
    touches (a through strand) ranges over all DIM values."""
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
    final = nodes[0] if nodes else _Node([], {(): ONE})
    through = sorted(set(boundary) - set(final.ports))
    where = [
        (0, final.ports.index(w)) if w in final.ports else (1, through.index(w))
        for w in boundary
    ]
    out: Sparse = {}
    for key, c in final.tensor.items():
        for vals in product(range(DIM), repeat=len(through)):
            parts = (key, vals)
            out[tuple(parts[s][p] for s, p in where)] = c
    return out


def _phi(f, strategy: str) -> Sparse:
    f = _check_concrete(as_combo(f))
    out: Sparse = {}
    for term, coeff in f.terms:
        nodes, boundary = _network_of(term)
        for k, v in _contract_network(nodes, boundary, strategy).items():
            out[k] = out.get(k, ZERO) + coeff * v
    return _prune(out)


def phi_tensor(f) -> Sparse:
    """The whole map of a concrete combo as one sparse tensor.

    Keys are (inputs..., outputs...): entry (i_1..i_m, j_1..j_n) is the
    coefficient of b_j1 (x) ... (x) b_jn in the image of b_i1 (x) ... (x)
    b_im, so slicing at one input gives ``apply_combo_to_basis``.
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
