"""End-to-end CLI behavior through main(argv): output bytes and exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from f4diagrams.cli import main

pytestmark = pytest.mark.usefixtures("warm_tensors")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_closed_bubble(capsys):
    rc, out, err = run(capsys, "eval", "cup ; cap", "--closed")
    assert (rc, out, err) == (0, "26\n", "")
    # the 2 -> 2 hourglass closes to the same scalar: tr(G * Ginv) = 26
    rc, out, err = run(capsys, "eval", "cap ; cup", "--closed")
    assert (rc, out, err) == (0, "26\n", "")


def test_eval_closed_trace_antisymmetrizer(capsys):
    rc, out, _ = run(capsys, "eval", "asym(3)", "--closed-trace")
    assert rc == 0
    assert out == "2600\n"


def test_eval_closed_identity(capsys):
    # five strands closed up: 26 ** 5
    rc, out, err = run(capsys, "eval", "id(5)", "--closed")
    assert (rc, out, err) == (0, "11881376\n", "")


def test_eval_shape_summary(capsys):
    rc, out, _ = run(capsys, "eval", "merge ; split")
    assert rc == 0
    assert out == "2 -> 2 map, 1 term(s)\n"


def test_eval_closed_trace(capsys):
    rc, out, _ = run(capsys, "eval", "split ; merge", "--closed-trace")
    assert rc == 0
    assert out == "182/3\n"


def test_eval_basis_matches_library(capsys):
    rc, out, _ = run(capsys, "eval", "merge", "--basis", "0,0")
    assert (rc, out) == (0, "(0) -> 1/3\n(1) -> 2/3\n")
    # rank 0 prints a bare scalar; an empty output prints 0
    assert run(capsys, "eval", "cap", "--basis", "0,0")[:2] == (0, "2\n")
    assert run(capsys, "eval", "cap", "--basis", "0,5")[:2] == (0, "0\n")
    assert run(capsys, "eval", "cup ; merge", "--basis", "")[:2] == (0, "0\n")


def test_eval_basis_stays_sparse_on_wide_maps(capsys):
    start = time.monotonic()
    rc, out, _ = run(capsys, "eval", "id(6)", "--basis", "0,0,0,0,0,0")
    assert (rc, out) == (0, "(0,0,0,0,0,0) -> 1\n")
    assert time.monotonic() - start < 1


def test_eval_rejects_huge_symmetrizer(capsys):
    start = time.monotonic()
    rc, out, err = run(capsys, "eval", "sym(9)")
    assert (rc, out) == (2, "")
    assert "position 0" in err
    assert time.monotonic() - start < 1


def test_eval_rejects_bad_syntax(capsys):
    rc, out, err = run(capsys, "eval", "merge @@ split")
    assert rc == 2 and out == ""
    assert "position" in err


def test_eval_closed_needs_square_diagram(capsys):
    rc, _, err = run(capsys, "eval", "merge", "--closed")
    assert rc == 2
    assert "--closed" in err and "m -> m" in err


def test_verify_single_relation(capsys):
    rc, out, _ = run(capsys, "verify", "magic")
    assert rc == 0
    assert out == "magic: OK (676 inputs)\n"


def test_verify_expected_deviation(capsys):
    rc, out, _ = run(capsys, "verify", "bosnia_diff")
    assert rc == 0
    assert out == "bosnia_diff: OK (676 inputs, deviates as expected)\n"


def test_verify_skips_free_scalar_entry(capsys):
    rc, out, _ = run(capsys, "verify", "croatia")
    assert rc == 0
    assert out.startswith("croatia: SKIP")


def test_verify_family_and_suite(capsys):
    rc, out, _ = run(capsys, "verify", "venom", "sponge")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "sponge: OK (25 pairs)"
    assert all(l.endswith("inputs)") for l in lines[:-1])


def test_verify_runs_each_target_once(capsys):
    # chess_loop is named on its own and again as a member of chess
    rc, out, _ = run(capsys, "verify", "chess_loop", "chess")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "chess_loop: OK (26 inputs)"
    rc, out, _ = run(capsys, "verify", "chess_loop", "chess", "--format", "json")
    assert rc == 0
    assert len(json.loads(out)) == 5
    rc, out, _ = run(capsys, "verify", "sack", "sack")
    assert (rc, out) == (0, "sack: OK (676 inputs)\n")


def test_verify_unknown_target(capsys):
    rc, _, err = run(capsys, "verify", "definitely_not_a_relation")
    assert rc == 2
    assert "unknown verify target" in err


def test_verify_json_payload(capsys):
    rc, out, _ = run(capsys, "verify", "magic", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["magic"]["holds"] is True
    assert payload["magic"]["basis_checked"] == 676


def test_alpha_only_for_coeffs(capsys):
    for argv in (("verify", "magic", "--alpha", "2"),
                 ("eval", "cup ; cap", "--delta", "10"),
                 ("--alpha", "1/2", "dims")):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "coeffs" in err


def test_coeffs_kappa_plain(capsys):
    rc, out, _ = run(capsys, "coeffs", "kappa")
    assert rc == 0
    assert out.split("\n")[:4] == [
        "kappa1 = (-1/6*d^1)/(1)",
        "kappa1(7/3, 26) = -13/3",
        "kappa2 = (2/3*d^1)/(d^1 + 2)",
        "kappa2(7/3, 26) = 13/21",
    ]


def test_coeffs_specialization_at_pole_is_a_clean_error(capsys):
    # kappa2 has denominator d + 2, so delta = -2 must be refused, not crash.
    rc, out, err = run(capsys, "coeffs", "kappa", "--delta", "-2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "vanishes" in err


def test_coeffs_triangle_with_specialization(capsys):
    rc, out, _ = run(capsys, "coeffs", "triangle", "--alpha", "3", "--delta", "4")
    assert rc == 0
    assert "c(3, 4) = -1/2" in out
    rc, out, _ = run(capsys, "coeffs", "triangle", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"]["c"]["value"] == "-1"


def test_derivations_output(capsys):
    assert run(capsys, "derivations") == (
        0,
        "dimension 52\nbracket closure: OK (5 samples)\n"
        "equivariance: OK (merge=True, cap=True, cup=True)\n",
        "",
    )
    assert run(capsys, "--format", "json", "derivations") == (
        0,
        '{"bracket_closure": true, "dimension": 52, "equivariance": '
        '{"cap": true, "cup": true, "merge": true}, "holds": true}\n',
        "",
    )


def test_homdim(capsys):
    rc, out, _ = run(capsys, "homdim", "2", "2")
    assert rc == 0
    assert out == "5\n"
    rc, _, err = run(capsys, "homdim", "4", "4")
    assert rc == 2
    assert "no catalogued spanning set" in err


def test_output_is_byte_stable(capsys):
    first = run(capsys, "coeffs", "sqburst", "--format", "json")
    second = run(capsys, "coeffs", "sqburst", "--format", "json")
    assert first == second
    a = run(capsys, "verify", "chess")
    b = run(capsys, "verify", "chess")
    assert a == b


def _verify_all_stdout():
    """What ``f4cat verify all`` prints: one line per catalogue entry, in
    catalogue order, then the three suites."""
    from f4diagrams.relations import catalog

    lines = []
    for name, spec in catalog().items():
        if not spec.checkable:
            lines.append(f"{name}: SKIP (free scalar; recorded for reference only)")
        elif spec.expected_holds:
            lines.append(f"{name}: OK ({26 ** spec.lhs.src} inputs)")
        else:
            lines.append(f"{name}: OK ({26 ** spec.lhs.src} inputs, deviates as expected)")
    lines += [
        "idempotents: OK (676 inputs)",
        "dims 1 52 273 26 324",
        "sponge: OK (25 pairs)",
        "sack: OK (676 inputs)",
    ]
    return "\n".join(lines) + "\n"


def test_verify_all_never_touches_the_derivation_cache(tmp_path):
    # The cache location is a regular file, so no cache can be read or
    # written under it: verify needs none, and says nothing about it.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, F4DIAGRAMS_CACHE_DIR=str(blocker), PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "f4diagrams.cli", "verify", "all"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, _verify_all_stdout(), "")
    assert blocker.read_text() == ""


def test_deep_nesting_fails_fast_with_exit_2(capsys):
    # each "(" and each "2*" prefix is one level of the recursive-descent
    # parser; past MAX_NESTING it stops with a positioned syntax error
    # instead of exhausting the interpreter's recursion limit
    from f4diagrams.diagram import MAX_NESTING

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hostile = [("(" * 300 + "merge" + ")" * 300, MAX_NESTING), ("2*" * 2000 + "merge", 2 * MAX_NESTING)]
    for text, pos in hostile:
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-m", "f4diagrams.cli", "eval", text],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        elapsed = time.monotonic() - start
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: nesting deeper than {MAX_NESTING} levels at position {pos}\n"
        assert elapsed < 2, f"took {elapsed:.2f}s, budget 2s"
    for text in ("(" * 50 + "merge" + ")" * 50, "2*" * 50 + "merge", "2*(" * 50 + "merge" + ")" * 50):
        assert run(capsys, "eval", text) == (0, "2 -> 1 map, 1 term(s)\n", "")


def test_verify_and_dims_need_no_derivation_basis(capsys, monkeypatch):
    import f4diagrams.derivations as dv
    from f4diagrams.functor import set_cache_enabled

    def refuse():
        raise AssertionError("the derivation basis was loaded")

    monkeypatch.setattr(dv, "derivation_basis", refuse)
    set_cache_enabled(False)  # the certificate is built again, under the patch
    set_cache_enabled(True)
    assert run(capsys, "verify", "sack") == (0, "sack: OK (676 inputs)\n", "")
    assert run(capsys, "dims") == (0, "e0 1\ne1 52\ne3 273\ne4 26\netilde 324\n", "")


def test_verify_builds_the_certificate_once(capsys, monkeypatch):
    # every zero test of a run shares the one per-process certificate
    import f4diagrams.derivations as dv
    from f4diagrams.functor import set_cache_enabled

    builds = []
    certify = dv.cyclic_certificate

    def counting(nodes):
        builds.append(nodes)
        return certify(nodes)

    monkeypatch.setattr(dv, "cyclic_certificate", counting)
    set_cache_enabled(False)  # forget the certificate of earlier tests
    set_cache_enabled(True)
    rc, out, err = run(capsys, "verify", "vortex", "bosnia", "sack")
    assert (rc, err) == (0, "")
    assert out.count(": OK (") == 8
    assert len(builds) == 1
