"""Evaluation of diagrams as exact multilinear maps on the 26-dim module."""

import functools
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from f4diagrams.albert import (
    AlbertElement,
    alb_trace,
    basis_V,
    bform,
    coords_V,
    jordan,
    project_v,
)
from f4diagrams.diagram import (
    CAP,
    CROSS,
    CUP,
    MERGE,
    SPLIT,
    DiagramArityError,
    DiagramCombo,
    Id,
    as_combo,
    bigfive_list,
    brutal_list,
    build_named,
    compose_chain,
    mirror,
    parse_diagram,
    tensor_all,
    to_layers,
)
from f4diagrams.exactla import inverse
from f4diagrams.functor import (
    MAX_PHI_ENTRIES,
    apply_combo_to_basis,
    apply_term_sparse,
    basis_indices,
    closure,
    generator_tensors,
    gram_rank,
    phi_closed,
    phi_tensor,
    scan_basis,
    set_cache_enabled,
    trace_pairing,
)

pytestmark = pytest.mark.usefixtures("warm_tensors")


@functools.cache
def _table(g):
    """The generator's exact table read off its node, keyed by its ports:
    (i, j) for cup and cap, (i, j, k) for merge, (k, i, j) for split."""
    scale, tensor = generator_tensors()[g]
    return {k: Fraction(n, scale) for k, n in tensor.items()}


@functools.cache
def _rows(g, n_in):
    """The generator's table as {inputs: {outputs: c}}, for n_in inputs."""
    rows = {}
    for key, c in _table(g).items():
        rows.setdefault(key[:n_in], {})[key[n_in:]] = c
    return rows


def test_cap_is_the_trace_form():
    cap = _table(CAP)
    bas = basis_V()
    rng = random.Random(11)
    for _ in range(40):
        i, j = rng.randrange(26), rng.randrange(26)
        assert cap.get((i, j), Fraction(0)) == bform(bas[i], bas[j])


def test_cup_inverts_cap():
    cap, cup = _table(CAP), _table(CUP)
    for i in range(26):
        for k in range(26):
            s = sum(cap.get((i, j), 0) * cup.get((j, k), 0) for j in range(26))
            assert s == (1 if i == k else 0)


def test_merge_is_symmetric():
    merge = _table(MERGE)
    rng = random.Random(12)
    for _ in range(60):
        i, j, k = rng.randrange(26), rng.randrange(26), rng.randrange(26)
        assert merge.get((i, j, k), 0) == merge.get((j, i, k), 0)


def test_merge_against_raw_product_traces():
    # Pair the merge output against every basis vector using the trace
    # form directly on 27-dim elements: tr((b_i o b_j) o b_k) must match,
    # because the trace-part correction is orthogonal to traceless b_k.
    merge, cap = _rows(MERGE, 2), _table(CAP)
    bas = basis_V()
    rng = random.Random(13)
    for _ in range(12):
        i, j = rng.randrange(26), rng.randrange(26)
        out = merge.get((i, j), {})
        for k in range(26):
            lhs = sum(c * cap.get((m, k), Fraction(0)) for (m,), c in out.items())
            assert lhs == alb_trace(jordan(jordan(bas[i], bas[j]), bas[k]))


def test_split_is_adjoint_to_merge():
    cap, cup, split = _table(CAP), _table(CUP), _table(SPLIT)
    merge = _rows(MERGE, 2)
    rng = random.Random(14)
    for _ in range(20):
        i, j, k = rng.randrange(26), rng.randrange(26), rng.randrange(26)
        # split = (cup (x) cup) against merge through the pairing
        rhs = sum(
            cup[i, a] * cup[j, b] * mc * cap.get((c, k), 0)
            for a in range(26)
            for b in range(26)
            if (i, a) in cup and (j, b) in cup
            for (c,), mc in merge.get((a, b), {}).items()
        )
        assert split.get((k, i, j), 0) == rhs


def test_split_against_albert_products():
    # split is contracted from cup and merge; this route multiplies Albert
    # elements instead: split(b_k) has pi(b~_i o b_k) after b_i, for the
    # dual basis b~ built here from an inverted Gram matrix of trace forms.
    split = _rows(SPLIT, 1)
    bas = basis_V()
    ginv = inverse([[bform(x, y) for y in bas] for x in bas])
    dual = []
    for i in range(26):
        acc = AlbertElement.zero()
        for j in range(26):
            if ginv[i][j]:
                acc = acc + bas[j].scale(ginv[i][j])
        dual.append(acc)
    for k in range(26):
        got = [[Fraction(0)] * 26 for _ in range(26)]
        for (i, j), c in split.get((k,), {}).items():
            got[i][j] = c
        for i in range(26):
            assert got[i] == coords_V(project_v(jordan(dual[i], bas[k])))


def test_closed_bubble_is_the_dimension():
    assert phi_closed(parse_diagram("cup ; cap")) == 26


def test_closed_traces():
    jail = build_named("jail")
    assert trace_pairing(jail, jail) == 676
    loop = parse_diagram("split ; merge")
    assert phi_closed(closure(loop)) == Fraction(182, 3)  # 26 * 7/3
    tadpole = parse_diagram("cup ; merge")
    assert apply_combo_to_basis(tadpole, ()) == {}


def _matrix_trace(f) -> Fraction:
    """The sum of the entries of phi_tensor(f) whose inputs equal their outputs."""
    return sum((c for k, c in phi_tensor(f).items() if k[: f.src] == k[f.src :]), Fraction(0))


def test_contraction_strategy_is_irrelevant():
    # cup inverts cap, so closing f is its matrix trace: a different network
    # from phi_tensor(f)'s, contracted in a different order, gives it too
    diagrams = [
        (build_named("square"), Fraction(1274, 9)),
        (parse_diagram("merge ; split"), Fraction(182, 3)),
        (parse_diagram("(split @ id(1)) ; (id(1) @ merge)"), 0),
        (build_named("e1").specialize(Fraction(7, 3), 26), 52),
    ]
    for f, value in diagrams:
        f = as_combo(f)
        assert phi_closed(closure(f)) == _matrix_trace(f) == value


def test_phi_apply_matches_basis_table():
    table = _rows(MERGE, 2)
    merge = phi_tensor(as_combo(MERGE))
    key = min(table)
    assert {k[2:]: c for k, c in merge.items() if k[:2] == key} == table[key]
    dead = next(p for p in basis_indices(2) if p not in table)
    assert not any(k[:2] == dead for k in merge)


def test_basis_indices_shapes():
    assert list(basis_indices(0)) == [()]
    assert sum(1 for _ in basis_indices(2)) == 676


def test_streamed_equality():
    sym = parse_diagram("sym(2)")
    asym = parse_diagram("asym(2)")
    assert scan_basis(sym + asym - as_combo(Id(2))) == (676, 0)
    assert scan_basis(sym.then(asym)) == (676, 0)
    n, worst = scan_basis(as_combo(MERGE) - 2 * as_combo(MERGE))
    assert n == 676 and worst > 0
    with pytest.raises(DiagramArityError):
        scan_basis(as_combo(MERGE) - as_combo(CUP))


def test_cache_toggle_is_invisible():
    probe = parse_diagram("(split @ id(1)) ; (id(1) @ merge)")
    try:
        set_cache_enabled(False)
        cold = phi_tensor(probe), scan_basis(probe)
    finally:
        set_cache_enabled(True)
    assert cold == (phi_tensor(probe), scan_basis(probe))
    assert cold == (phi_tensor(probe), scan_basis(probe))  # from the memo


def test_closure_rejects_rectangular():
    with pytest.raises(DiagramArityError):
        closure(as_combo(MERGE))


def test_closure_of_a_deep_identity_builds():
    # The cups and caps form one flat chain of layers; nested one strand
    # pair per level, they overflowed the recursion limit of the term
    # printer that orders a combo's terms.
    closed = closure(as_combo(Id(400)))
    assert (closed.src, closed.tgt) == (0, 0)
    (term, coeff), = closed.terms
    assert coeff == 1 and len(to_layers(term)) == 800


def test_deep_identity_closes_in_linear_steps():
    # 600 nodes in one chain: each greedy step offers only the pairs of the
    # node it made, so the contraction is not quadratic in the node count.
    closed = closure(as_combo(Id(300)))
    t0 = time.perf_counter()
    assert phi_closed(closed) == 26**300
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("spanning", [bigfive_list, brutal_list])
def test_gram_matrices_are_positive_definite(spanning):
    # Sylvester's criterion: every pivot of Fraction elimination without
    # row exchanges is > 0 exactly when every leading principal minor is.
    fs = spanning()
    gram = [[trace_pairing(f, g) for g in fs] for f in fs]
    for c in range(len(fs)):
        assert gram[c][c] > 0, c
        for r in range(c + 1, len(fs)):
            f = gram[r][c] / gram[c][c]
            gram[r] = [x - f * y for x, y in zip(gram[r], gram[c])]


def test_gram_rank_of_dependent_spanning_sets():
    # gram_rank is the rank of the pairing matrix, so repeated or dependent
    # diagrams add nothing, and no diagrams span nothing
    fs = bigfive_list()
    assert gram_rank(fs + [fs[0] + fs[3]]) == 5
    assert gram_rank(fs[:2] + [fs[0]]) == 2
    assert gram_rank([]) == 0


def _reference_combo(f, idx):
    """The combo's output on one basis input, from the layer-by-layer
    Fraction reference below, which shares no code with the contractor."""
    out = {}
    for term, coeff in f.terms:
        for k, v in _reference_term(term, {idx: Fraction(1)}).items():
            out[k] = out.get(k, Fraction(0)) + coeff * v
    return {k: v for k, v in out.items() if v}


def _agrees_with_reference(f):
    """phi_tensor sliced at each basis input, apply_combo_to_basis there, and
    scan_basis's largest row all match the independent reference."""
    f = as_combo(f)
    rows = {}
    for key, c in phi_tensor(f).items():
        rows.setdefault(key[: f.src], {})[key[f.src :]] = c
    worst = 0
    for idx in basis_indices(f.src):
        expected = _reference_combo(f, idx)
        assert rows.get(idx, {}) == expected, idx
        assert apply_combo_to_basis(f, idx) == expected, idx
        worst = max(worst, len(expected))
    assert scan_basis(f) == (26**f.src, worst)


@pytest.mark.parametrize(
    "expr",
    [
        "merge",
        "split",
        "cup",
        "cap",
        "cross",
        "id(2)",  # through strands: boundary wires no node touches
        "named(H)",
        "cap @ cup",  # disconnected components
        "merge @ cup",
        "named(e1)",
    ],
)
def test_phi_tensor_matches_streaming(expr):
    f = parse_diagram(expr)
    _agrees_with_reference(f.specialize(Fraction(7, 3), 26) if f.is_symbolic() else f)


def test_phi_tensor_of_a_closed_combo_is_its_scalar():
    f = closure(parse_diagram("split ; merge"))
    assert phi_tensor(f) == {(): phi_closed(f)} == {(): Fraction(182, 3)}
    assert phi_tensor(parse_diagram("cup ; merge")) == {}


_GENERATORS = (MERGE, SPLIT, CUP, CAP, CROSS)


@st.composite
def _terms(draw, src):
    """A random term on `src` strands: up to four generators, width <= 3."""
    width, stages = src, []
    for _ in range(draw(st.integers(0, 4))):
        fits = [g for g in _GENERATORS if g.src <= width and width - g.src + g.tgt <= 3]
        g = draw(st.sampled_from(fits))
        off = draw(st.integers(0, width - g.src))
        stages.append(tensor_all(Id(off), g, Id(width - off - g.src)))
        width += g.tgt - g.src
    return compose_chain(*stages) if stages else Id(src)


@st.composite
def _combos(draw):
    src = draw(st.integers(0, 2))
    first = draw(_terms(src))
    items = [(first, Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4))))]
    second = draw(_terms(src))
    if second.tgt == first.tgt and second != first:
        items.append((second, Fraction(draw(st.integers(-3, 3)))))
    return DiagramCombo(src, first.tgt, items)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_combos())
def test_network_contraction_properties(f):
    _agrees_with_reference(f)
    square = f if f.src == f.tgt else f.then(mirror(f))
    assert phi_closed(closure(square)) == _matrix_trace(square)


def test_phi_tensor_refuses_huge_through_expansions():
    # id(5) is five untouched through strands: 26**5 entries, over the limit.
    # (id(2), under it, is one of the reference-agreement cases above.)  The
    # scan contracts the same whole-term tensors, so it fails as fast instead
    # of visiting 26**5 inputs one by one.
    assert MAX_PHI_ENTRIES == 26**4
    for evaluate in (phi_tensor, scan_basis):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=str(26**5)):
            evaluate(as_combo(Id(5)))
        assert time.perf_counter() - t0 < 1


def test_empty_tensor_expands_no_through_strands():
    # five through strands beside a zero map: no entries, so nothing to
    # expand over the 26**5 values of the through wires
    f = parse_diagram("id(5) @ (cup ; merge)")
    t0 = time.perf_counter()
    assert phi_tensor(f) == {}
    assert scan_basis(f) == (26**5, 0)
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# the integer contractor against an independent Fraction reference
# ---------------------------------------------------------------------------


def test_integer_tables_are_the_scaled_fraction_tables():
    nodes = generator_tensors()
    assert set(nodes) == {MERGE, SPLIT, CUP, CAP}
    for g, (scale, table) in nodes.items():
        exact = phi_tensor(as_combo(g))
        assert scale == lcm(*(c.denominator for c in exact.values())), g
        assert all(type(n) is int for n in table.values()), g
        assert {k: Fraction(n, scale) for k, n in table.items()} == exact, g
    assert {g: scale for g, (scale, _) in nodes.items()} == {MERGE: 6, SPLIT: 12, CUP: 6, CAP: 1}
    assert CROSS not in nodes  # a crossing permutes wires; it has no table


def _reference_term(term, state):
    """Push a Fraction state through the term's layers, straight from the
    generator tables: the reference the contractor must match."""
    merge, split = _rows(MERGE, 2), _rows(SPLIT, 1)
    cup, cap = _table(CUP), _table(CAP)
    for off, g in to_layers(term):
        out = {}
        for idx, c in state.items():
            head = idx[:off]
            if g is CROSS:
                images, tail = [((idx[off + 1], idx[off]), 1)], idx[off + 2 :]
            elif g is MERGE:
                images = list(merge.get(idx[off : off + 2], {}).items())
                tail = idx[off + 2 :]
            elif g is SPLIT:
                images = list(split.get(idx[off : off + 1], {}).items())
                tail = idx[off + 1 :]
            elif g is CUP:
                images, tail = list(cup.items()), idx[off:]
            else:
                images = [((), cap.get(idx[off : off + 2], Fraction(0)))]
                tail = idx[off + 2 :]
            for mid, v in images:
                key = head + mid + tail
                out[key] = out.get(key, Fraction(0)) + c * v
        state = {k: v for k, v in out.items() if v}
    return state


_VALUES = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11, 12, 35])
)


@st.composite
def _term_and_state(draw):
    term = draw(_terms(draw(st.integers(0, 3))))
    keys = st.tuples(*[st.integers(0, 25)] * term.src)
    state = draw(st.dictionaries(keys, _VALUES, min_size=1, max_size=4))
    return term, state


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_term_and_state())
def test_integer_kernel_matches_fraction_reference(case):
    term, state = case
    got = apply_term_sparse(term, state)
    assert got == _reference_term(term, state)
    assert all(type(v) is Fraction for v in got.values())
