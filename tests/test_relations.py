"""Relation catalog structure plus spot checks on the cheap identities.

The expensive sweeps (full family runs, idempotent dimension counts, the
bent/loop post checks) live in test_acceptance.py; here we exercise the
catalog plumbing, a handful of fast entries, and one run of every
checkable entry against a 120 s budget.
"""

import time
from fractions import Fraction

import pytest

from f4diagrams import functor
from f4diagrams.diagram import CAP, CUP, MERGE, SPLIT, DiagramArityError, as_combo, build_named
from f4diagrams.functor import generator_tensors, is_zero, scan_basis, set_cache_enabled, trace_pairing
from f4diagrams.relations import (
    ALPHA,
    DELTA,
    RelationSpec,
    catalog,
    check_relation,
    relation_families,
    relation_line,
    relation_names,
    run_relations,
)

pytestmark = pytest.mark.usefixtures("warm_tensors")


def test_catalog_shape():
    cat = catalog()
    assert len(cat) == 57
    for name, spec in cat.items():
        assert spec.name == name
        assert spec.source
        assert (spec.lhs.src, spec.lhs.tgt) == (spec.rhs.src, spec.rhs.tgt)
    assert relation_names() == list(cat)


def test_families():
    fams = relation_families()
    for f in ("vortex", "venom", "chess", "topsy", "turvy", "rotary",
              "flick", "pomegranate", "ladderslip", "pivotal",
              "magic", "jordan", "triangle", "coals", "croatia", "bosnia"):
        assert f in fams
    cat = catalog()
    assert cat["bosnia_diff"].family == "bosnia"
    assert cat["3spike"].family == "3spike"


def test_family_expansion_runs_chess():
    reports = run_relations(["chess"])
    assert len(reports) == 5
    assert all(r["holds"] for r in reports)
    assert all(r["name"].startswith("chess_") for r in reports)


def test_vortex_family_holds():
    for r in run_relations(["vortex"]):
        assert r["holds"], r


def test_magic_projector():
    r = check_relation("magic")
    assert r["holds"]
    assert r["basis_checked"] == 676
    assert relation_line(r) == "magic: OK (676 inputs)"


def test_bosnia_deviates_by_design():
    r = check_relation("bosnia_diff")
    assert not r["holds"]
    assert not r["expected_holds"]
    assert r["max_deviation_terms"] > 0
    assert relation_line(r) == "bosnia_diff: OK (676 inputs, deviates as expected)"


def test_croatia_is_not_checkable():
    with pytest.raises(ValueError):
        check_relation("croatia")
    reports = run_relations(["croatia"])
    assert reports == [
        {
            "name": "croatia",
            "skipped": True,
            "reason": "free scalar; recorded for reference only",
        }
    ]


def test_whole_catalog_holds_as_expected():
    # Every checkable entry, the bent pivotal_* and rotary_* ones included,
    # on every basis input of its source strands: run_relations decides each
    # on one input, and the scan of every basis input is a second route.
    cat = catalog()
    start = time.monotonic()
    reports = run_relations()
    elapsed = time.monotonic() - start
    checked = [r for r in reports if not r.get("skipped")]
    assert [r["name"] for r in checked] == [nm for nm, spec in cat.items() if spec.checkable]
    assert len(checked) == 56
    for rep in checked:
        assert rep["holds"] == rep["expected_holds"], rep
        assert rep["basis_checked"] == 26 ** cat[rep["name"]].lhs.src, rep
    assert elapsed < 120, f"took {elapsed:.2f}s, budget 120s"

    start = time.monotonic()
    for rep in checked:
        spec = cat[rep["name"]]
        d = spec.lhs.specialize(ALPHA, DELTA) - spec.rhs.specialize(ALPHA, DELTA)
        assert is_zero(d) == (scan_basis(d)[1] == 0) == spec.expected_holds, rep["name"]
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"the scan took {elapsed:.2f}s, budget 120s"


@pytest.fixture
def fresh_memo():
    # the term memo and the certificate are rebuilt from the tables in use
    set_cache_enabled(False)
    set_cache_enabled(True)
    yield
    set_cache_enabled(False)
    set_cache_enabled(True)


@pytest.mark.parametrize("gen", [MERGE, SPLIT, CUP, CAP], ids=lambda g: g.name)
def test_a_broken_table_fails_the_certificate_and_the_scan_decides(gen, fresh_memo, monkeypatch):
    nodes = dict(generator_tensors())
    scale, tensor = nodes[gen]
    key = min(tensor)
    nodes[gen] = (scale, {**tensor, key: tensor[key] + 1})
    monkeypatch.setattr(functor, "_NODES", nodes)
    assert not functor._certificate()["holds"]
    assert not functor._certificate()[gen.name + "_ok"]
    e1 = build_named("e1").specialize(ALPHA, DELTA)
    maps = [e1.then(e1) - e1]
    for name in ("magic", "bosnia_diff"):
        spec = catalog()[name]
        maps.append(spec.lhs.specialize(ALPHA, DELTA) - spec.rhs.specialize(ALPHA, DELTA))
    for d in maps:
        assert is_zero(d) == (scan_basis(d)[1] == 0)


def test_trace_pairing_agrees_with_the_basis_scan():
    # A second route that builds no basis tensor: the trace pairing is
    # positive definite, so d = lhs - rhs is the zero map exactly when
    # <d, d> = 0.
    start = time.monotonic()
    checked = 0
    for name, spec in catalog().items():
        if not spec.checkable:
            continue
        d = (spec.lhs - spec.rhs).specialize(ALPHA, DELTA)
        assert (trace_pairing(d, d) == 0) == spec.expected_holds, name
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 56
    assert elapsed < 120, f"took {elapsed:.2f}s, budget 120s"


def test_run_relations_checks_each_name_once_in_request_order():
    reports = run_relations(["chess_loop", "magic", "chess", "magic"])
    names = [r["name"] for r in reports]
    chess = [nm for nm in relation_names() if nm.startswith("chess_")]
    assert names == ["chess_loop", "magic"] + [nm for nm in chess if nm != "chess_loop"]


def test_unknown_names_raise():
    with pytest.raises(KeyError):
        check_relation("does_not_exist")
    with pytest.raises(KeyError):
        run_relations(["does_not_exist"])


def test_relation_line_branches():
    base = {"name": "x", "basis_checked": 9, "max_deviation_terms": 0}
    ok = dict(base, holds=True, expected_holds=True)
    assert relation_line(ok) == "x: OK (9 inputs)"
    dev = dict(base, holds=False, expected_holds=False, max_deviation_terms=3)
    assert relation_line(dev) == "x: OK (9 inputs, deviates as expected)"
    bad = dict(base, holds=False, expected_holds=True, max_deviation_terms=3)
    assert relation_line(bad) == "x: FAIL max_deviation_terms=3 over 9 inputs"
    odd = dict(base, holds=True, expected_holds=False)
    assert relation_line(odd).startswith("x: FAIL expected a deviation")


def test_catalog_entry_rejects_mismatched_arities():
    with pytest.raises(DiagramArityError):
        RelationSpec(
            name="bogus",
            lhs=as_combo(MERGE),
            rhs=as_combo(CUP),
            source="arity mismatch on purpose",
        )


def test_pole_metadata():
    cat = catalog()
    assert cat["coals"].excluded_delta == (Fraction(0), Fraction(-10))
    assert cat["bosnia_diff"].excluded_delta == (Fraction(1),)
    assert cat["bosnia_dot"].excluded_delta == (Fraction(1),)
    # every excluded value avoids the evaluation point d = 26
    for spec in cat.values():
        assert Fraction(26) not in spec.excluded_delta
