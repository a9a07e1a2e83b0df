"""Exact linear algebra over the rationals, and sparse integer tensor networks.

Entries are :class:`fractions.Fraction`, which already guarantees lowest
terms, a positive denominator and arbitrary precision.  ``echelon_insert``
is the package's one elimination: it reduces a sparse row {column: value}
against the pivot rows found so far.  Rank is the number of rows it
accepts; ``sparse_nullspace`` gives rank and nullspace of a system given
row by row, and ``inverse`` reads a square matrix's inverse off the
nullspace of [M | -I].

``contract_sum`` is the package's one contractor.  A tensor is a sparse
dictionary of Python ints keyed by index tuples, stored with one scale, so
the exact tensor is tensor / scale; a node puts a wire id on each index
position, and a network of nodes is contracted along every wire two nodes
share, one pair of nodes at a time, multiplying and adding ints only.  It
knows nothing of diagrams: ``albert`` builds the Jordan node from the
octonion table, ``functor`` the networks of diagram terms and the generator
tables, and ``derivations`` the Leibniz rule.

No floating point anywhere; every comparison in this package is exact.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def _sub_scaled(row: Dict[int, Fraction], f: Fraction, prow: Mapping[int, Fraction]) -> None:
    """row -= f * prow on sparse rows, dropping entries that cancel."""
    for c, v in prow.items():
        x = row.get(c, ZERO) - f * v
        if x:
            row[c] = x
        else:
            del row[c]


def echelon_insert(pivots: Dict[int, Dict[int, Fraction]], src: Mapping[int, Fraction]) -> bool:
    """Reduce a sparse row {column: value} by the pivot rows, leading column
    first; what is left, if anything, becomes a new pivot row, scaled to a
    leading 1.  Returns whether the row was independent of the pivots."""
    row = {c: Fraction(v) for c, v in src.items() if v}
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            inv = 1 / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
            return True
        _sub_scaled(row, row[lead], prow)
    return False


def sparse_nullspace(
    rows: Iterable[Mapping[int, Fraction]], ncols: int
) -> Tuple[int, List[List[Fraction]]]:
    """Rank and right nullspace of a sparse system, exactly.

    Each row is a mapping column -> value (zero values allowed), reduced
    by ``echelon_insert``.  Back-substitution then brings the pivot rows
    to reduced echelon form, so there is one vector per free column, in
    column order: 1 at its own free column, 0 at the other free columns,
    and minus the reduced pivot rows' entries in that column at the pivot
    columns.
    """
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for src in rows:
        echelon_insert(pivots, src)
    # Later pivot rows hold no other pivot column, so clearing them from a
    # row in any order brings in free columns only.
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for c in [c for c in prow if c != lead and c in pivots]:
            _sub_scaled(prow, prow[c], pivots[c])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, prow in pivots.items():
            if fc in prow:
                v[pc] = -prow[fc]
        basis.append(v)
    return len(pivots), basis


def inverse(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """The inverse of a square matrix, given and returned as rows, exactly.

    The nullspace of [M | -I] is {(x, Mx)}.  When M is invertible its free
    columns are the last n, and the vector of free column n + k is
    (M^-1 e_k, e_k); the second halves are checked to be the identity, so
    the first halves X satisfy M X = I.  Raises ValueError when M is not
    square or is singular.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("not square")
    system = ({**dict(enumerate(row)), n + i: -ONE} for i, row in enumerate(rows))
    _, basis = sparse_nullspace(system, 2 * n)
    if any(v[n:] != [int(j == k) for j in range(n)] for k, v in enumerate(basis)):
        raise ValueError("singular matrix")
    return [[v[i] for v in basis] for i in range(n)]


# ---------------------------------------------------------------------------
# sparse integer tensor networks
# ---------------------------------------------------------------------------

IntSparse = Dict[Tuple[int, ...], int]
Scaled = Tuple[int, IntSparse]  # (scale, integer tensor): the exact tensor is tensor / scale
Node = Tuple[Sequence[int], Scaled]  # (wire ids, one per tensor index position; tensor)


def _over(c: Fraction, scale: int) -> int:
    """The integer c * scale; scale must be a multiple of c's denominator."""
    return c.numerator * (scale // c.denominator)


def _scaled(table: Dict[Tuple[int, ...], Fraction]) -> Scaled:
    """A Fraction table as (scale, ints), scale the least common denominator."""
    scale = lcm(*{c.denominator for c in table.values()})
    return scale, {ports: _over(c, scale) for ports, c in table.items()}


def _prune(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _project(positions: List[int]) -> itemgetter:
    """An itemgetter projecting a key onto ``positions``, always to a tuple
    (a run of consecutive positions, including none or one, is a slice)."""
    lo = positions[0] if positions else 0
    if positions == list(range(lo, lo + len(positions))):
        return itemgetter(slice(lo, lo + len(positions)))
    return itemgetter(*positions)


def _contract_pair(a: Tuple[List[int], IntSparse], b: Tuple[List[int], IntSparse]) -> Tuple[List[int], IntSparse]:
    """Contract two (ports, tensor) nodes along the wires they share."""
    (a_ports, a_tensor), (b_ports, b_tensor) = a, b
    shared = [w for w in a_ports if w in b_ports]
    a_pos = [a_ports.index(w) for w in shared]
    b_pos = [b_ports.index(w) for w in shared]
    a_keep = [p for p in range(len(a_ports)) if p not in a_pos]
    b_keep = [p for p in range(len(b_ports)) if p not in b_pos]

    a_match, a_head = _project(a_pos), _project(a_keep)
    b_match, b_tail = _project(b_pos), _project(b_keep)
    buckets: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], int]]] = {}
    for key, c in b_tensor.items():
        buckets.setdefault(b_match(key), []).append((b_tail(key), c))

    out: IntSparse = {}
    for key, c in a_tensor.items():
        hit = buckets.get(a_match(key))
        if not hit:
            continue
        head = a_head(key)
        for tail, bc in hit:
            k = head + tail
            out[k] = out.get(k, 0) + c * bc
    return [a_ports[p] for p in a_keep] + [b_ports[p] for p in b_keep], _prune(out)


def _contract_network(network: Sequence[Node]) -> Tuple[int, List[int], IntSparse]:
    """Contract every wire two nodes share; returns the product of the
    nodes' scales and the ports and tensor of the last node left.

    Of the pairs of nodes that share a wire, the next one contracted leaves
    the fewest open ports, then has the smallest product of entry counts,
    then was created first.  Nodes are numbered in creation order, and
    a wire -> nodes index offers each new node's pairs once, to a heap, so
    a step costs the new node's neighbours, not all pairs.  Disconnected
    components are joined by the outer product of the two smallest nodes.
    """
    nodes: Dict[int, Tuple[List[int], IntSparse]] = {}
    holders: Dict[int, List[int]] = {}  # wire -> ids of the live nodes on it
    heap: list = []
    fresh = count().__next__

    def add(ports: List[int], tensor: IntSparse) -> None:
        b = fresh()
        for a in {a for w in ports for a in holders.get(w, ())}:
            a_ports, a_tensor = nodes[a]
            shared = len(set(a_ports).intersection(ports))
            open_ports = len(a_ports) + len(ports) - 2 * shared
            heappush(heap, (open_ports, len(a_tensor) * len(tensor), a, b))
        for w in ports:
            holders.setdefault(w, []).append(b)
        nodes[b] = ports, tensor

    scale = 1
    for ports, (s, tensor) in network:
        scale *= s
        add(list(ports), tensor)
    while len(nodes) > 1:
        while heap and not (heap[0][-2] in nodes and heap[0][-1] in nodes):
            heappop(heap)
        if heap:
            x, y = heappop(heap)[-2:]
        else:
            x, y = sorted(nodes, key=lambda i: (len(nodes[i][1]), i))[:2]
        merged = _contract_pair(nodes[x], nodes[y])
        for i in (x, y):
            for w in nodes.pop(i)[0]:
                holders[w].remove(i)
        add(*merged)
    return (scale,) + next(iter(nodes.values()), ([], {(): 1}))


def _combo_sum(parts: Iterable[Tuple[Fraction, Scaled]]) -> Scaled:
    """Sum coeff * tensor / scale over (coeff, (scale, tensor)) parts on
    ints.  Returns (den, total), the sum being total / den."""
    den, acc = 1, {}
    for coeff, (scale, tensor) in parts:
        d = coeff.denominator * scale
        if den % d:
            grow = lcm(den, d) // den
            acc = {k: n * grow for k, n in acc.items()}
            den *= grow
        m = coeff.numerator * (den // d)
        for k, n in tensor.items():
            acc[k] = acc.get(k, 0) + m * n
    return den, _prune(acc)


def contract_sum(parts: Iterable[Tuple[Fraction, Sequence[Node]]], boundary: Sequence[int]) -> Scaled:
    """The sum of coeff * (contraction of the network) over (coeff, network)
    parts, keyed by the boundary wires in the order given.

    A network is a list of nodes ``(ports, (scale, int tensor))``: each port
    is a wire id, a wire that two nodes share is contracted, and every
    boundary wire must be a port of some node.  Returns (den, total) on
    ints in lowest terms, the sum being total / den, with no zero entries,
    so the sum is the zero map exactly when total is empty.
    """

    def keyed(network: Sequence[Node]) -> Scaled:
        scale, ports, tensor = _contract_network(network)
        pick = _project([ports.index(w) for w in boundary])
        return scale, {pick(key): n for key, n in tensor.items()}

    den, total = _combo_sum((Fraction(coeff), keyed(net)) for coeff, net in parts)
    g = gcd(den, *total.values())
    return den // g, {k: n // g for k, n in total.items()}
