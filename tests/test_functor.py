"""Evaluation of diagrams as exact multilinear maps on the 26-dim module."""

import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from f4diagrams.albert import alb_trace, bform, build_basis, jordan
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
    build_named,
    compose_chain,
    mirror,
    parse_diagram,
    tensor_all,
    to_layers,
)
from f4diagrams.functor import (
    MAX_PHI_ENTRIES,
    apply_combo_to_basis,
    apply_term_sparse,
    basis_indices,
    closure,
    generator_tensors,
    phi_closed,
    phi_tensor,
    scan_basis,
    set_cache_enabled,
    trace_pairing,
)

pytestmark = pytest.mark.usefixtures("warm_tensors")


def test_cap_is_the_trace_form():
    gens = generator_tensors()
    bas = build_basis().basis
    rng = random.Random(11)
    for _ in range(40):
        i, j = rng.randrange(26), rng.randrange(26)
        assert gens.cap_val.get((i, j), Fraction(0)) == bform(bas[i], bas[j])


def _cup(gens):
    return {(i, j): c for i, j, c in gens.cup_out}


def _merge(gens, k, i, j):
    """Coefficient of b_k in pi(b_i o b_j)."""
    return dict(gens.merge_out.get((i, j), ())).get(k, 0)


def test_cup_inverts_cap():
    gens = generator_tensors()
    cap, cup = gens.cap_val, _cup(gens)
    for i in range(26):
        for k in range(26):
            s = sum(cap.get((i, j), 0) * cup.get((j, k), 0) for j in range(26))
            assert s == (1 if i == k else 0)


def test_merge_is_symmetric():
    gens = generator_tensors()
    rng = random.Random(12)
    for _ in range(60):
        i, j, k = rng.randrange(26), rng.randrange(26), rng.randrange(26)
        assert _merge(gens, k, i, j) == _merge(gens, k, j, i)


def test_merge_against_raw_product_traces():
    # Pair the merge output against every basis vector using the trace
    # form directly on 27-dim elements: tr((b_i o b_j) o b_k) must match,
    # because the trace-part correction is orthogonal to traceless b_k.
    gens = generator_tensors()
    bas = build_basis().basis
    rng = random.Random(13)
    for _ in range(12):
        i, j = rng.randrange(26), rng.randrange(26)
        out = dict(gens.merge_out.get((i, j), ()))
        for k in range(26):
            lhs = sum(c * gens.cap_val.get((m, k), Fraction(0)) for m, c in out.items())
            assert lhs == alb_trace(jordan(jordan(bas[i], bas[j]), bas[k]))


def test_split_is_adjoint_to_merge():
    gens = generator_tensors()
    cap, cup = gens.cap_val, _cup(gens)
    rng = random.Random(14)
    for _ in range(20):
        i, j, k = rng.randrange(26), rng.randrange(26), rng.randrange(26)
        # split = (cup (x) cup) against merge through the pairing
        rhs = sum(
            cup[i, a] * cup[j, b] * mc * cap.get((c, k), 0)
            for a in range(26)
            for b in range(26)
            if (i, a) in cup and (j, b) in cup
            for c, mc in gens.merge_out.get((a, b), ())
        )
        lhs = sum(sc for x, y, sc in gens.split_out.get(k, ()) if (x, y) == (i, j))
        assert lhs == rhs


def test_closed_bubble_is_the_dimension():
    assert phi_closed(parse_diagram("cup ; cap")) == 26


def test_closed_traces():
    jail = build_named("jail")
    assert trace_pairing(jail, jail) == 676
    loop = parse_diagram("split ; merge")
    assert phi_closed(closure(loop)) == Fraction(182, 3)  # 26 * 7/3
    tadpole = parse_diagram("cup ; merge")
    assert apply_combo_to_basis(tadpole, ()) == {}


def test_contraction_strategy_is_irrelevant():
    diagrams = [
        closure(build_named("square")),
        closure(parse_diagram("merge ; split")),
        closure(parse_diagram("(split @ id(1)) ; (id(1) @ merge)")),
    ]
    for d in diagrams:
        assert phi_closed(d, strategy="greedy") == phi_closed(d, strategy="serial")


def test_phi_apply_matches_basis_table():
    gens = generator_tensors()
    merge = phi_tensor(as_combo(MERGE))
    key = min(gens.merge_out)
    assert {k[2:]: c for k, c in merge.items() if k[:2] == key} == {
        (k,): c for k, c in gens.merge_out[key]
    }
    dead = next(p for p in basis_indices(2) if p not in gens.merge_out)
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
        cold = apply_combo_to_basis(probe, (2, 7))
    finally:
        set_cache_enabled(True)
    assert cold == apply_combo_to_basis(probe, (2, 7))


def test_closure_rejects_rectangular():
    with pytest.raises(DiagramArityError):
        closure(as_combo(MERGE))


def _agrees_with_streaming(f):
    """phi_tensor sliced at each basis input equals the streamed output."""
    f = as_combo(f)
    rows = {}
    for key, c in phi_tensor(f).items():
        rows.setdefault(key[: f.src], {})[key[f.src :]] = c
    for idx in basis_indices(f.src):
        assert rows.get(idx, {}) == apply_combo_to_basis(f, idx), idx


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
    _agrees_with_streaming(f.specialize(Fraction(7, 3), 26) if f.is_symbolic() else f)


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
    _agrees_with_streaming(f)
    square = f if f.src == f.tgt else f.then(mirror(f))
    closed = closure(square)
    assert phi_closed(closed, strategy="greedy") == phi_closed(closed, strategy="serial")


def test_phi_tensor_refuses_huge_through_expansions():
    # id(5) is five untouched through strands: 26**5 entries, over the limit.
    # (id(2), under it, is one of the streaming-agreement cases above.)
    assert MAX_PHI_ENTRIES == 26**4
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=str(26**5)):
        phi_tensor(as_combo(Id(5)))
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# integer kernels against an independent Fraction reference
# ---------------------------------------------------------------------------


def test_integer_tables_are_the_scaled_fraction_tables():
    gens = generator_tensors()
    cup = _cup(gens)
    fraction_tables = {
        MERGE: {(i, j, k): c for (i, j), hits in gens.merge_out.items() for k, c in hits},
        SPLIT: {(k, i, j): c for k, hits in gens.split_out.items() for i, j, c in hits},
        CUP: cup,
        CAP: gens.cap_val,
    }
    scale_m, merge = gens.kernels[MERGE]
    scale_s, split = gens.kernels[SPLIT]
    scale_u, cup_int = gens.kernels[CUP]
    scale_c, cap = gens.kernels[CAP]
    int_tables = {
        MERGE: (scale_m, {(i, j, k): n for (i, j), hits in merge.items() for k, n in hits}),
        SPLIT: (scale_s, {(k, i, j): n for k, hits in split.items() for i, j, n in hits}),
        CUP: (scale_u, {(i, j): n for i, j, n in cup_int}),
        CAP: (scale_c, cap),
    }
    for g, exact in fraction_tables.items():
        scale, table = int_tables[g]
        assert scale == lcm(*(c.denominator for c in exact.values())), g
        assert all(type(n) is int for n in table.values()), g
        assert {k: Fraction(n, scale) for k, n in table.items()} == exact, g
    assert gens.kernels[CROSS] == (1, None)


def _reference_term(term, state):
    """Push a Fraction state through the term's layers, straight from the
    public Fraction tables: the kernel the integer evaluator must match."""
    gens = generator_tensors()
    cup = _cup(gens)
    for off, g in to_layers(term):
        out = {}
        for idx, c in state.items():
            head = idx[:off]
            if g is CROSS:
                images, tail = [((idx[off + 1], idx[off]), 1)], idx[off + 2 :]
            elif g is MERGE:
                images = [((k,), v) for k, v in gens.merge_out.get(idx[off : off + 2], ())]
                tail = idx[off + 2 :]
            elif g is SPLIT:
                images = [((i, j), v) for i, j, v in gens.split_out.get(idx[off], ())]
                tail = idx[off + 1 :]
            elif g is CUP:
                images, tail = list(cup.items()), idx[off:]
            else:
                images = [((), gens.cap_val.get(idx[off : off + 2], Fraction(0)))]
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
