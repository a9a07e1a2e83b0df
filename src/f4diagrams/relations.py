"""Relation catalog and exact verification suites.

Every identity the engine guarantees is recorded as a :class:`RelationSpec`
whose two sides are diagram combinations with coefficients in Q(a, d).  A
checker specializes the coefficients at (alpha, delta) = (7/3, 26) and
decides whether ``lhs - rhs`` is the zero map with ``functor.is_zero``:
bent to one input strand and applied to the basis vector b0, which under
the cyclic-vector certificate proves the map zero on every standard basis
input of the source tensor power.  Only a map found nonzero is scanned on
every input, to report its deviation; every zero test of the suites below
goes through ``is_zero`` too.

Beyond plain relations the module verifies three structured facts:

* the five projectors ``e0, e1, e3, e4, etilde`` are pairwise orthogonal
  idempotents summing to the identity, with categorical dimensions
  (1, 52, 273, 26, 324);
* composing any of the five basic two-strand diagrams with any projector
  yields a scalar multiple of that projector (the absorption table);
* the bent projector-pair composite collapses to zero exactly at d = 26,
  while its unprojected variant stays nonzero (evaluator sanity guard).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .diagram import (
    CAP,
    CROSS,
    CUP,
    MERGE,
    SPLIT,
    Compose,
    DiagramArityError,
    DiagramCombo,
    Id,
    Tensor,
    as_combo,
    brutal_list,
    build_named,
    compose_chain,
    rot,
    rot_inv,
    switch,
    symmetrizer,
    tensor_all,
    zero_combo,
)
from .exactla import _scaled, contract_sum
from .functor import (
    DIM,
    apply_combo_to_basis,
    basis_indices,
    closure,
    generator_tensors,
    is_zero,
    phi_closed,
    phi_tensor,
    scan_basis,
)
from .ratfield import A, D, RatFunc, rf

ALPHA = Fraction(7, 3)
DELTA = Fraction(26)

_IDEM_NAMES = ("e0", "e1", "e3", "e4", "etilde")
_BIGFIVE_NAMES = ("jail", "hourglass", "cross", "H", "I")
_BIGSIX_NAMES = _BIGFIVE_NAMES + ("dotcross",)

#: categorical dimension of the image of each projector
EXPECTED_DIMS: Dict[str, int] = {
    "e0": 1,
    "e1": 52,
    "e3": 273,
    "e4": 26,
    "etilde": 324,
}

#: scalars lambda with f . e = lambda e for the two rows of the absorption
#: table that the verifier cross-checks against solved-from-data values
SPONGE_TABLE: Dict[Tuple[str, str], RatFunc] = {
    ("jail", "e1"): rf(1),
    ("hourglass", "e1"): rf(0),
    ("cross", "e1"): rf(-1),
    ("H", "e1"): A / rf(2),
    ("I", "e1"): rf(0),
    ("jail", "etilde"): rf(1),
    ("hourglass", "etilde"): rf(0),
    ("cross", "etilde"): rf(1),
    ("H", "etilde"): rf(2) * A / (D + rf(2)),
    ("I", "etilde"): rf(0),
}


@dataclass(frozen=True)
class RelationSpec:
    """One catalogued identity between diagram combinations.

    ``source`` is a human-readable provenance note describing what the
    relation expresses.  ``excluded_delta`` lists the d-values where a
    coefficient has a pole, so the relation is only meaningful away from
    them.  Entries with ``expected_holds=False`` define a *different*
    quotient category and must deviate under the evaluation functor;
    entries with ``checkable=False`` contain a free scalar and are stored
    for reference only.
    """

    name: str
    lhs: DiagramCombo
    rhs: DiagramCombo
    source: str
    excluded_delta: Tuple[Fraction, ...] = ()
    expected_holds: bool = True
    checkable: bool = True

    def __post_init__(self):
        if (self.lhs.src, self.lhs.tgt) != (self.rhs.src, self.rhs.tgt):
            raise DiagramArityError(
                "relation %r equates a %d->%d map with a %d->%d map"
                % (self.name, self.lhs.src, self.lhs.tgt, self.rhs.src, self.rhs.tgt)
            )

    @property
    def family(self) -> str:
        return self.name.split("_", 1)[0]


def _fr(*vals) -> Tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in vals)


# -- symbolic coefficient formulas -------------------------------------------

def magic_coeff() -> RatFunc:
    """Coefficient of (jail + hourglass + cross) in the degree-two skein rule."""
    return rf(2) * A / (D + rf(2))


def sqburst_coeffs() -> Tuple[RatFunc, RatFunc, RatFunc]:
    """Coefficients (b1, b2, b3) expanding the square ladder."""
    b1 = A * A * (D + rf(14)) / (rf(2) * (D + rf(2)) ** 2)
    b2 = A * (D - rf(6)) / (rf(2) * (D + rf(2)))
    b3 = rf(3) * A * A * (rf(2) - D) / (rf(2) * (D + rf(2)) ** 2)
    return b1, b2, b3


def pentburst_coeffs() -> Tuple[RatFunc, RatFunc, RatFunc]:
    """Coefficients (g1, g2, g3) expanding the pentagon ladder."""
    g1 = A * (rf(10) - D) / (rf(4) * (D + rf(2)))
    g2 = -(A * A * (D + rf(30))) / (rf(8) * (D + rf(2)) ** 2)
    g3 = rf(3) * A * A * (D - rf(2)) / (rf(8) * (D + rf(2)) ** 2)
    return g1, g2, g3


def triangle_coeff() -> RatFunc:
    """Scalar relating the bridged merge to the plain merge."""
    return A * (rf(2) - D) / (rf(2) * (D + rf(2)))


def kappa_coeffs() -> Tuple[RatFunc, RatFunc]:
    """Forced coefficients (k1, k2) in the ruled-out 2->3 dependence."""
    return -D / rf(6), rf(2) * D / (rf(3) * (D + rf(2)))


# -- catalog ------------------------------------------------------------------

_CATALOG: Optional[Dict[str, RelationSpec]] = None


def _build_catalog() -> Dict[str, RelationSpec]:
    I1, I2 = Id(1), Id(2)
    merge = as_combo(MERGE)
    split = as_combo(SPLIT)
    cup = as_combo(CUP)
    cap = as_combo(CAP)
    cross = as_combo(CROSS)
    jail = build_named("jail")
    hourglass = build_named("hourglass")
    H = build_named("H")
    I = build_named("I")
    dotcross = build_named("dotcross")
    sym2 = symmetrizer(2)
    asym2 = symmetrizer(2, anti=True)
    b = brutal_list()

    entries: List[RelationSpec] = []

    def add(name, lhs, rhs, source, excluded=(), expected=True, checkable=True):
        entries.append(
            RelationSpec(
                name=name,
                lhs=as_combo(lhs) if not isinstance(lhs, DiagramCombo) else lhs,
                rhs=as_combo(rhs) if not isinstance(rhs, DiagramCombo) else rhs,
                source=source,
                excluded_delta=tuple(Fraction(x) for x in excluded),
                expected_holds=expected,
                checkable=checkable,
            )
        )

    # --- duality: strand straightening and the rotated vertex
    add(
        "vortex_zigzag_left",
        compose_chain(Tensor(I1, CUP), Tensor(CAP, I1)),
        I1,
        "bending a strand through the pairing straightens to the identity",
    )
    add(
        "vortex_zigzag_right",
        compose_chain(Tensor(CUP, I1), Tensor(I1, CAP)),
        I1,
        "mirror-image strand straightening",
    )
    add(
        "vortex_split_left",
        compose_chain(Tensor(I1, CUP), Tensor(MERGE, I1)),
        SPLIT,
        "the splitting vertex agrees with the merge vertex rotated leftwards",
    )
    add(
        "vortex_split_right",
        compose_chain(Tensor(CUP, I1), Tensor(I1, MERGE)),
        SPLIT,
        "the splitting vertex agrees with the merge vertex rotated rightwards",
    )
    add(
        "vortex_cap_slide",
        compose_chain(Tensor(CROSS, I1), Tensor(I1, CAP)),
        compose_chain(Tensor(I1, CROSS), Tensor(CAP, I1)),
        "a strand may slide across the pairing cap (pivotality)",
    )

    # --- symmetry: the crossing generates symmetric-group images
    add("venom_involution", Compose(CROSS, CROSS), I2, "the crossing squares to the identity")
    add(
        "venom_braid",
        compose_chain(Tensor(CROSS, I1), Tensor(I1, CROSS), Tensor(CROSS, I1)),
        compose_chain(Tensor(I1, CROSS), Tensor(CROSS, I1), Tensor(I1, CROSS)),
        "adjacent crossings satisfy the braid identity",
    )
    add(
        "venom_merge_slide",
        compose_chain(Tensor(I1, CROSS), Tensor(CROSS, I1), Tensor(I1, MERGE)),
        compose_chain(Tensor(MERGE, I1), CROSS),
        "the merge vertex slides through a crossing",
    )
    add(
        "venom_split_slide",
        compose_chain(Tensor(I1, SPLIT), Tensor(CROSS, I1), Tensor(I1, CROSS)),
        compose_chain(CROSS, Tensor(SPLIT, I1)),
        "the split vertex slides through a crossing",
    )

    # --- local scalar relations
    add("chess_cap_cross", Compose(CAP, CROSS), CAP, "the pairing is symmetric")
    add("chess_merge_cross", Compose(MERGE, CROSS), MERGE, "the product is commutative")
    add("chess_loop", Compose(MERGE, SPLIT), as_combo(I1).scale(A), "split followed by merge is the loop scalar a")
    add("chess_bubble", Compose(CAP, CUP), as_combo(Id(0)).scale(D), "a closed strand evaluates to d")
    add("chess_lollipop", Compose(MERGE, CUP), zero_combo(0, 1), "the paired product has no invariant vector")

    # --- rotating the merge vertex
    add(
        "topsy_merge_left",
        compose_chain(Tensor(I1, SPLIT), Tensor(CAP, I1)),
        MERGE,
        "rotating the split vertex leftwards recovers the merge vertex",
    )
    add(
        "topsy_merge_right",
        compose_chain(Tensor(SPLIT, I1), Tensor(I1, CAP)),
        MERGE,
        "rotating the split vertex rightwards recovers the merge vertex",
    )
    add(
        "topsy_cap_sym",
        Compose(CAP, Tensor(I1, MERGE)),
        Compose(CAP, Tensor(MERGE, I1)),
        "the capped triple product is rotation invariant",
    )
    add(
        "topsy_cup_sym",
        Compose(Tensor(I1, SPLIT), CUP),
        Compose(Tensor(SPLIT, I1), CUP),
        "the cupped triple coproduct is rotation invariant",
    )

    # --- sliding strands over cups, straightening crossings
    add(
        "turvy_cup_slide",
        compose_chain(Tensor(I1, CUP), Tensor(CROSS, I1)),
        compose_chain(Tensor(CUP, I1), Tensor(I1, CROSS)),
        "a strand may slide across the pairing cup",
    )
    add("turvy_rotinv_cross", rot_inv(cross), cross, "inverse rotation fixes the crossing")
    add("turvy_rotinv_dotcross", rot_inv(dotcross), dotcross, "inverse rotation fixes the braided bridge")

    # --- the rotation table of the two-strand diagrams
    add("rotary_jail", rot(jail), hourglass, "rotating parallel strands gives the cup-cap pair")
    add("rotary_hourglass", rot(hourglass), jail, "rotating the cup-cap pair gives parallel strands")
    add("rotary_cross", rot(cross), cross, "rotation fixes the crossing")
    add("rotary_H", rot(H), I, "rotating the bridge gives the bubble ladder")
    add("rotary_I", rot(I), H, "rotating the bubble ladder gives the bridge")
    add("rotary_dotcross", rot(dotcross), dotcross, "rotation fixes the braided bridge")

    # --- the crossing-composition table of the two-strand diagrams
    add("flick_jail", switch(jail), cross, "precomposing parallel strands with the crossing")
    add("flick_cross", switch(cross), jail, "precomposing the crossing with itself")
    add("flick_hourglass", switch(hourglass), hourglass, "the cup-cap pair absorbs the crossing")
    add("flick_I", switch(I), I, "the bubble ladder absorbs the crossing")
    add("flick_H", switch(H), dotcross, "precomposing the bridge braids it")
    add("flick_dotcross", switch(dotcross), H, "precomposing the braided bridge unbraids it")

    # --- symmetrizer and antisymmetrizer absorption
    add("pomegranate_cap_sym", cap.compose(sym2), cap, "the pairing factors through the symmetric square")
    add("pomegranate_cap_asym", cap.compose(asym2), zero_combo(2, 0), "the pairing kills the alternating square")
    add("pomegranate_cross_sym", cross.compose(sym2), sym2, "the crossing fixes the symmetrizer")
    add("pomegranate_cross_asym", cross.compose(asym2), -asym2, "the crossing negates the antisymmetrizer")
    add("pomegranate_merge_sym", merge.compose(sym2), merge, "the product factors through the symmetric square")
    add("pomegranate_merge_asym", merge.compose(asym2), zero_combo(2, 1), "the product kills the alternating square")

    # --- the bridge commutes with both projector boxes
    add("ladderslip_sym", sym2.then(H), H.then(sym2), "the bridge commutes with the symmetrizer")
    add("ladderslip_asym", asym2.then(H), H.then(asym2), "the bridge commutes with the antisymmetrizer")

    # --- double rotation is invisible (graphs on a cylinder)
    for nm in _BIGSIX_NAMES:
        f = build_named(nm)
        add(
            "pivotal_" + nm,
            rot(rot(f)),
            f,
            "rotating a two-strand diagram twice returns it unchanged",
        )

    # --- skein rules
    add(
        "magic",
        H + I + dotcross,
        (jail + hourglass + cross).scale(magic_coeff()),
        "degree-two skein rule: the three bridges against the three plain diagrams",
        excluded=_fr(-2),
    )
    add(
        "jordan",
        (H + I + dotcross).scale(D + rf(2)),
        (jail + hourglass + cross).scale(rf(2) * A),
        "pole-free form of the degree-two skein rule",
    )
    b1, b2, b3 = sqburst_coeffs()
    add(
        "sqburst",
        build_named("square"),
        (jail + hourglass).scale(b1) + (H + I).scale(b2) + cross.scale(b3),
        "the double bridge expands over the five basic two-strand diagrams",
        excluded=_fr(-2),
    )
    g1, g2, g3 = pentburst_coeffs()
    pent_rhs = zero_combo(2, 3)
    for i in range(15):
        pent_rhs = pent_rhs + b[i].scale(g1 if i < 5 else g2 if i < 10 else g3)
    add(
        "pentburst",
        build_named("pentagon"),
        pent_rhs,
        "the pentagon ladder expands over the fifteen spanning 2->3 diagrams",
        excluded=_fr(-2),
    )
    add(
        "triangle",
        build_named("triangle"),
        merge.scale(triangle_coeff()),
        "the bridged merge is a scalar multiple of the plain merge",
        excluded=_fr(-2),
    )
    spike_tail = (
        b[8] + b[9] - b[6] - b[7] - b[5] - b[13] - b[14]
        + (b[12] + b[11]).scale(rf(3)) - b[10].scale(rf(3))
    )
    add(
        "3spike",
        build_named("crown").compose(cross),
        b[1] + b[2] - b[0] + spike_tail.scale(A / (D + rf(2))),
        "the crossed crown expands over the fifteen spanning 2->3 diagrams",
        excluded=_fr(-2),
    )
    add(
        "coals",
        sum((build_named(nm) for nm in _IDEM_NAMES), zero_combo(2, 2)),
        jail,
        "the five projectors resolve the identity",
        excluded=_fr(0, -10),
    )

    # --- the rival quotient: deviates under this functor by design
    add(
        "croatia",
        H - I,
        jail - hourglass,
        "proportionality with an undetermined scalar; recorded for reference only",
        checkable=False,
    )
    add(
        "bosnia_diff",
        H - I,
        (jail - hourglass).scale(A / (D - rf(1))),
        "rival quotient category rule; must deviate under this functor",
        excluded=_fr(1),
        expected=False,
    )
    add(
        "bosnia_dot",
        H + I - dotcross.scale(rf(2)),
        (jail + hourglass - cross.scale(rf(2))).scale(A / (D - rf(1))),
        "rival quotient category rule; must deviate under this functor",
        excluded=_fr(1),
        expected=False,
    )

    return {spec.name: spec for spec in entries}


def catalog() -> Dict[str, RelationSpec]:
    """The relation catalog, in canonical (insertion) order."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def relation_names() -> List[str]:
    return list(catalog())


def relation_families() -> List[str]:
    seen: List[str] = []
    for spec in catalog().values():
        if spec.family not in seen:
            seen.append(spec.family)
    return seen


# -- checkers -----------------------------------------------------------------

def check_relation(name: str) -> Dict[str, object]:
    """Decide whether lhs - rhs of one catalogued relation is zero on every
    basis input.

    Returns ``{"name", "holds", "max_deviation_terms", "basis_checked",
    "expected_holds"}`` where ``max_deviation_terms`` is the largest number of
    nonzero output coordinates seen over all inputs (0 when the relation
    holds) and ``basis_checked`` is 26**src.  ``is_zero`` proves a holding
    relation on all of them at once; a deviating one is scanned on every
    input (``scan_basis``) to count its deviation.  Raises ``KeyError`` for
    unknown names and ``ValueError`` for entries that contain a free scalar.
    """
    cat = catalog()
    if name not in cat:
        raise KeyError(
            "unknown relation %r; known names: %s" % (name, ", ".join(cat))
        )
    spec = cat[name]
    if not spec.checkable:
        raise ValueError(
            "relation %r contains a free scalar and cannot be checked numerically"
            % name
        )
    diff = spec.lhs.specialize(ALPHA, DELTA) - spec.rhs.specialize(ALPHA, DELTA)
    if is_zero(diff):
        checked, max_dev = DIM**diff.src, 0
    else:
        checked, max_dev = scan_basis(diff)
    return {
        "name": name,
        "holds": max_dev == 0,
        "max_deviation_terms": max_dev,
        "basis_checked": checked,
        "expected_holds": spec.expected_holds,
    }


def relation_line(report: Dict[str, object]) -> str:
    """One deterministic report line: ``<name>: OK (<n> inputs)`` or a FAIL."""
    name = report["name"]
    n = report["basis_checked"]
    if report["holds"] and report["expected_holds"]:
        return "%s: OK (%d inputs)" % (name, n)
    if not report["holds"] and not report["expected_holds"]:
        return "%s: OK (%d inputs, deviates as expected)" % (name, n)
    if report["holds"]:
        return "%s: FAIL expected a deviation but the identity holds (%d inputs)" % (name, n)
    return "%s: FAIL max_deviation_terms=%d over %d inputs" % (
        name,
        report["max_deviation_terms"],
        n,
    )


def run_relations(names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Check the named relations (default: every checkable catalog entry).

    A name may also be a family prefix such as ``"vortex"``; it expands to all
    members, in catalog order.  Reports come back in request order, one per
    relation however often it is named; non-checkable entries are reported
    with ``"skipped": True``.
    """
    cat = catalog()
    if names is None:
        wanted = list(cat)
    else:
        wanted = []
        for raw in names:
            if raw in cat:
                wanted.append(raw)
                continue
            members = [nm for nm, spec in cat.items() if spec.family == raw]
            if not members:
                raise KeyError("unknown relation or family %r" % raw)
            wanted.extend(members)
        wanted = list(dict.fromkeys(wanted))
    reports: List[Dict[str, object]] = []
    for nm in wanted:
        spec = cat[nm]
        if not spec.checkable:
            reports.append(
                {
                    "name": nm,
                    "skipped": True,
                    "reason": "free scalar; recorded for reference only",
                }
            )
            continue
        reports.append(check_relation(nm))
    return reports


def _specialized(name: str) -> DiagramCombo:
    return build_named(name).specialize(ALPHA, DELTA)


def check_idempotents() -> Dict[str, object]:
    """Verify the projector system: e^2 = e, orthogonality, sum, dimensions."""
    idems = {nm: _specialized(nm) for nm in _IDEM_NAMES}
    idempotency: Dict[str, bool] = {}
    for nm, e in idems.items():
        idempotency[nm] = is_zero(e.then(e) - e)
    orthogonality: Dict[str, bool] = {}
    for i, nm_a in enumerate(_IDEM_NAMES):
        for nm_b in _IDEM_NAMES[i + 1 :]:
            ab = idems[nm_a].then(idems[nm_b])
            ba = idems[nm_b].then(idems[nm_a])
            orthogonality["%s*%s" % (nm_a, nm_b)] = is_zero(ab) and is_zero(ba)
    total = sum((idems[nm] for nm in _IDEM_NAMES), zero_combo(2, 2))
    sum_ok = is_zero(total - as_combo(Id(2)))
    dims = {nm: phi_closed(closure(idems[nm])) for nm in _IDEM_NAMES}
    dims_ok = all(dims[nm] == EXPECTED_DIMS[nm] for nm in _IDEM_NAMES)
    holds = (
        all(idempotency.values())
        and all(orthogonality.values())
        and sum_ok
        and dims_ok
    )
    return {
        "holds": holds,
        "idempotency": idempotency,
        "orthogonality": orthogonality,
        "sum_is_identity": sum_ok,
        "dims": dims,
        "dims_expected": dict(EXPECTED_DIMS),
        "basis_checked": DIM**2,
    }


def check_sponge_products() -> Dict[str, object]:
    """Verify f.e = lambda e (and e.f likewise) for all 25 diagram/projector pairs.

    The scalar is solved from the evaluated data first, then full
    proportionality is asserted on every basis input; where the absorption
    table pins down lambda, the solved value must agree with it.
    """
    idems = {nm: _specialized(nm) for nm in _IDEM_NAMES}
    bigs = {nm: _specialized(nm) for nm in _BIGFIVE_NAMES}
    pairs: List[Dict[str, object]] = []
    all_ok = True
    for f_nm in _BIGFIVE_NAMES:
        for e_nm in _IDEM_NAMES:
            e = idems[e_nm]
            f = bigs[f_nm]
            fe = e.then(f)  # f after e
            ef = f.then(e)  # e after f
            lam = None
            for idx in basis_indices(2):
                e_out = apply_combo_to_basis(e, idx)
                if e_out:
                    key = min(e_out)
                    fe_out = apply_combo_to_basis(fe, idx)
                    lam = fe_out.get(key, Fraction(0)) / e_out[key]
                    break
            assert lam is not None, "projector %s evaluated to zero" % e_nm
            prop_left = is_zero(fe - e.scale(lam))
            prop_right = is_zero(ef - e.scale(lam))
            table = SPONGE_TABLE.get((f_nm, e_nm))
            table_val = table.specialize(ALPHA, DELTA) if table is not None else None
            matches = None if table_val is None else lam == table_val
            ok = prop_left and prop_right and matches is not False
            all_ok = all_ok and ok
            pairs.append(
                {
                    "f": f_nm,
                    "e": e_nm,
                    "lambda": lam,
                    "proportional": prop_left and prop_right,
                    "table": table_val,
                    "matches_table": matches,
                }
            )
    return {"holds": all_ok, "pairs": pairs, "basis_checked": DIM**2}


def _pair_bridge(mid: DiagramCombo) -> DiagramCombo:
    """merge . (1 x cap x 1) . mid . (1 x cup x 1), a 2->1 composite."""
    bend = as_combo(tensor_all(Id(1), CUP, Id(1)))
    inner_cap = as_combo(tensor_all(Id(1), CAP, Id(1)))
    return bend.then(mid).then(inner_cap).then(as_combo(MERGE))


def check_sack() -> Dict[str, object]:
    """The projector-pair bridge vanishes at d = 26; its guard variant does not.

    The 4->1 morphism merge . (1 x cap x 1) . (e1 x e1) is decided in the
    bent 2->1 form, with a cup feeding the two middle legs, by ``is_zero``:
    it must vanish on all 676 basis pairs.  The unprojected guard (e1 x e1
    replaced by the identity) must stay nonzero, which rules out a
    trivially-zero evaluator.  The 1->1 form with a split below carries a
    (d - 26) factor, so it too vanishes here, on every basis vector and in
    categorical trace.  But that loop is the bent map composed with split,
    so ``loop_zero`` and ``loop_trace == 0`` follow from ``bent_zero``:
    they are reported, not certified independently.  Only when the bent
    map is nonzero is its whole tensor contracted, for
    ``bent_worst_nonzero`` and the loop (the split node contracted with
    the bent tensor by ``contract_sum``).
    """
    e1 = _specialized("e1")
    bridge = _pair_bridge(e1 @ e1)
    bent_zero = is_zero(bridge)
    guard_nonzero = not is_zero(_pair_bridge(as_combo(Id(4))))

    if bent_zero:
        worst, loop_zero, loop_trace = 0, True, Fraction(0)
    else:
        bent = phi_tensor(bridge)
        worst = max(Counter(key[:2] for key in bent).values(), default=0)
        # split on wires (k; i, j) feeding the bent tensor on (i, j; m)
        k, i, j, m = range(4)
        den, loop = contract_sum(
            [(1, [((k, i, j), generator_tensors()[SPLIT]), ((i, j, m), _scaled(bent))])], (k, m)
        )
        loop_zero = not loop
        loop_trace = Fraction(sum(loop.get((v, v), 0) for v in range(DIM)), den)

    holds = bent_zero and guard_nonzero and loop_zero and loop_trace == 0
    return {
        "holds": holds,
        "bent_zero": bent_zero,
        "bent_worst_nonzero": worst,
        "guard_nonzero": guard_nonzero,
        "loop_zero": loop_zero,
        "loop_trace": loop_trace,
        "basis_checked": DIM**2,
        "loop_basis_checked": DIM,
    }
