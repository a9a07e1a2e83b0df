"""Command-line front door for the diagram engine.

Subcommands:

  eval         parse a diagram expression; report its shape, or evaluate it
               as a closed scalar (--closed), as a categorical trace
               (--closed-trace), or on one basis vector (--basis).
  verify       run relation/idempotent/product/projector-pair checks by
               name, family, or suite; `verify all` runs everything.
  dims         print the categorical dimensions of the five projectors.
  homdim       print an invariant hom-space dimension computed as the Gram
               rank of the catalogued spanning diagrams.
  derivations  compute the derivation algebra, check its size (52), bracket
               closure samples, and generator equivariance.
  coeffs       print the symbolic coefficient formulas of a skein rule and
               their specializations.

Output is byte-stable: fixed orderings everywhere, exact rationals only.
Exit status is 0 exactly when every requested check passed.  The flags
--alpha/--delta exist so that `coeffs` can specialize formulas elsewhere;
every other command works at the fixed parameter point (7/3, 26) where the
evaluation functor exists, and rejects those flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .diagram import (
    DiagramArityError,
    DiagramSyntaxError,
    bigfive_list,
    brutal_list,
    parse_diagram,
)
from .ratfield import PoleError, rf_specialize, rf_to_str

ALPHA_DEFAULT = Fraction(7, 3)
DELTA_DEFAULT = Fraction(26)

_SUITES = ("idempotents", "sponge", "sack")

_COEFF_SETS = {
    "sqburst": ("beta1", "beta2", "beta3"),
    "pentburst": ("gamma1", "gamma2", "gamma3"),
    "triangle": ("c",),
    "kappa": ("kappa1", "kappa2"),
}


def _fr(x) -> str:
    return str(x)


def _emit(payload: Dict[str, object], plain_lines: List[str], fmt: str) -> None:
    if fmt == "plain":
        for line in plain_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, default=_fr))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    from .functor import apply_combo_to_basis, closure, phi_closed

    try:
        combo = parse_diagram(args.expr)
    except (DiagramSyntaxError, DiagramArityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    concrete = combo.specialize(ALPHA_DEFAULT, DELTA_DEFAULT) if combo.is_symbolic() else combo

    if args.closed or args.closed_trace:
        # Both flags mean the categorical closure: bend every strand of an
        # m -> m map around and contract.  A 0 -> 0 expression is its own
        # closure, so --closed on one prints the bare scalar.
        if combo.src != combo.tgt:
            flag = "--closed" if args.closed else "--closed-trace"
            print(
                f"error: {flag} needs an m -> m diagram, got {combo.src} -> {combo.tgt}",
                file=sys.stderr,
            )
            return 2
        value = phi_closed(closure(concrete))
        key = "closed" if args.closed else "closed_trace"
        _emit({key: str(value)}, [str(value)], args.format)
        return 0

    if args.basis is not None:
        try:
            idx = tuple(int(tok) for tok in args.basis.split(",") if tok != "")
        except ValueError:
            print(f"error: --basis wants comma-separated indices, got {args.basis!r}", file=sys.stderr)
            return 2
        if len(idx) != combo.src or any(not 0 <= i < 26 for i in idx):
            print(
                f"error: --basis needs {combo.src} indices in 0..25",
                file=sys.stderr,
            )
            return 2
        out = sorted(apply_combo_to_basis(concrete, idx).items())
        if combo.tgt == 0:
            lines = [str(out[0][1]) if out else "0"]
        else:
            lines = [f"({','.join(map(str, k))}) -> {v}" for k, v in out] or ["0"]
        payload = {
            "input": list(idx),
            "output": {",".join(map(str, k)): str(v) for k, v in out},
        }
        _emit(payload, lines, args.format)
        return 0

    summary = f"{combo.src} -> {combo.tgt} map, {len(combo.terms)} term(s)"
    _emit(
        {"source": combo.src, "target": combo.tgt, "terms": len(combo.terms)},
        [summary],
        args.format,
    )
    return 0


def _suite_lines(name: str) -> (List[str], bool, Dict[str, object]):
    from . import relations

    if name == "idempotents":
        rep = relations.check_idempotents()
        ok = bool(rep["holds"])
        dims = rep["dims"]
        lines = [
            f"idempotents: {'OK' if ok else 'FAIL'} ({rep['basis_checked']} inputs)",
            "dims " + " ".join(str(dims[nm]) for nm in ("e0", "e1", "e3", "e4", "etilde")),
        ]
        return lines, ok, rep
    if name == "sponge":
        rep = relations.check_sponge_products()
        ok = bool(rep["holds"])
        return [f"sponge: {'OK' if ok else 'FAIL'} ({len(rep['pairs'])} pairs)"], ok, rep
    rep = relations.check_sack()
    ok = bool(rep["holds"])
    lines = [f"sack: {'OK' if ok else 'FAIL'} ({rep['basis_checked']} inputs)"]
    if not ok:
        lines[0] += (
            f" bent_zero={rep['bent_zero']} guard_nonzero={rep['guard_nonzero']}"
            f" loop_zero={rep['loop_zero']} loop_trace={rep['loop_trace']}"
        )
    return lines, ok, rep


def _cmd_verify(args) -> int:
    from . import relations

    targets = list(args.targets)
    if args.all or targets == ["all"] or (not targets):
        targets = ["all"]

    names = relations.relation_names()
    families = relations.relation_families()

    rel_requests: List[str] = []
    suite_requests: List[str] = []
    if targets == ["all"]:
        rel_requests = list(names)
        suite_requests = list(_SUITES)
    else:
        for t in targets:
            if t in _SUITES:
                suite_requests.append(t)
            elif t in names or t in families:
                rel_requests.append(t)
            else:
                print(f"error: unknown verify target {t!r}", file=sys.stderr)
                return 2

    lines: List[str] = []
    payload: Dict[str, object] = {}
    all_ok = True
    if rel_requests:
        for rep in relations.run_relations(rel_requests):
            if rep.get("skipped"):
                lines.append(f"{rep['name']}: SKIP ({rep['reason']})")
                payload[rep["name"]] = {"skipped": True, "reason": rep["reason"]}
                continue
            ok = rep["holds"] == rep["expected_holds"]
            all_ok = all_ok and ok
            lines.append(relations.relation_line(rep))
            payload[rep["name"]] = {
                "holds": rep["holds"],
                "expected_holds": rep["expected_holds"],
                "basis_checked": rep["basis_checked"],
            }
    for s in dict.fromkeys(suite_requests):
        slines, ok, rep = _suite_lines(s)
        all_ok = all_ok and ok
        lines.extend(slines)
        payload[s] = {"holds": ok}
        if s == "idempotents":
            payload[s]["dims"] = {k: str(v) for k, v in rep["dims"].items()}

    _emit(payload, lines, args.format)
    return 0 if all_ok else 1


def _cmd_dims(args) -> int:
    from .relations import EXPECTED_DIMS, check_idempotents

    rep = check_idempotents()
    ok = bool(rep["holds"])
    dims = rep["dims"]
    order = ("e0", "e1", "e3", "e4", "etilde")
    lines = [f"{nm} {dims[nm]}" for nm in order]
    if not ok:
        lines.append("FAIL: projector suite did not verify")
    payload = {
        "dims": {nm: str(dims[nm]) for nm in order},
        "expected": {nm: str(EXPECTED_DIMS[nm]) for nm in order},
        "holds": ok,
    }
    _emit(payload, lines, args.format)
    return 0 if ok else 1


def _cmd_homdim(args) -> int:
    from .functor import gram_rank

    key = (args.source, args.target)
    if key == (2, 2):
        rank = gram_rank(bigfive_list())
        expected = 5
    elif key in ((2, 3), (3, 2)):
        rank = gram_rank(brutal_list())
        expected = 15
    else:
        print(
            f"error: no catalogued spanning set for Hom(V^{args.source}, V^{args.target})",
            file=sys.stderr,
        )
        return 2
    payload = {
        "source": args.source,
        "target": args.target,
        "dimension": rank,
        "expected": expected,
    }
    _emit(payload, [str(rank)], args.format)
    return 0 if rank == expected else 1


def _cmd_derivations(args) -> int:
    from .derivations import derivations_report

    rep = derivations_report()
    closure_rep = rep["bracket_closure"]
    equiv = rep["equivariance"]
    lines = [
        f"dimension {rep['dimension']}",
        f"bracket closure: {'OK' if closure_rep['holds'] else 'FAIL'}"
        f" ({len(closure_rep['samples'])} samples)",
        f"equivariance: {'OK' if equiv['holds'] else 'FAIL'}"
        f" (merge={equiv['merge_ok']}, cap={equiv['cap_ok']}, cup={equiv['cup_ok']})",
    ]
    payload = {
        "dimension": rep["dimension"],
        "bracket_closure": closure_rep["holds"],
        "equivariance": {
            "merge": equiv["merge_ok"],
            "cap": equiv["cap_ok"],
            "cup": equiv["cup_ok"],
        },
        "holds": rep["holds"],
    }
    _emit(payload, lines, args.format)
    return 0 if rep["holds"] else 1


def _cmd_coeffs(args) -> int:
    from . import relations

    alpha = args.alpha if args.alpha is not None else ALPHA_DEFAULT
    delta = args.delta if args.delta is not None else DELTA_DEFAULT
    getters = {
        "sqburst": relations.sqburst_coeffs,
        "pentburst": relations.pentburst_coeffs,
        "triangle": lambda: (relations.triangle_coeff(),),
        "kappa": relations.kappa_coeffs,
    }
    funcs = getters[args.relation]()
    labels = _COEFF_SETS[args.relation]
    lines: List[str] = []
    payload: Dict[str, object] = {"relation": args.relation, "alpha": str(alpha), "delta": str(delta)}
    values: Dict[str, Dict[str, str]] = {}
    for label, f in zip(labels, funcs):
        formula = rf_to_str(f)
        try:
            value = rf_specialize(f, alpha, delta)
        except PoleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(f"{label} = {formula}")
        lines.append(f"{label}({alpha}, {delta}) = {value}")
        values[label] = {"formula": formula, "value": str(value)}
    payload["coefficients"] = values
    _emit(payload, lines, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, top: bool) -> None:
    # On subparsers the defaults are suppressed so a flag given before the
    # subcommand is not clobbered by its absence after it.
    p.add_argument(
        "--alpha", type=_parse_fraction, default=None if top else argparse.SUPPRESS,
        help="loop parameter for 'coeffs' specialization (default 7/3)",
    )
    p.add_argument(
        "--delta", type=_parse_fraction, default=None if top else argparse.SUPPRESS,
        help="circle parameter for 'coeffs' specialization (default 26)",
    )
    p.add_argument(
        "--format", choices=("plain", "json", "json-like"),
        default="plain" if top else argparse.SUPPRESS,
        help="output format (json and json-like are synonyms)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f4cat",
        description="exact evaluation and verification of two-parameter trivalent diagrams",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="parse and evaluate a diagram expression")
    p_eval.add_argument("expr")
    p_eval.add_argument(
        "--closed", action="store_true",
        help="close an m -> m diagram with cups/caps and contract to a scalar",
    )
    p_eval.add_argument(
        "--closed-trace", action="store_true", help="synonym of --closed (the key in --format json follows the flag)"
    )
    p_eval.add_argument("--basis", default=None, help="comma-separated basis indices to apply the map to")
    _add_common(p_eval, top=False)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("targets", nargs="*", help="relation names, families, suites, or 'all'")
    p_verify.add_argument("--all", action="store_true", help="run every catalogued check")
    _add_common(p_verify, top=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_dims = sub.add_parser("dims", help="categorical dimensions of the five projectors")
    _add_common(p_dims, top=False)
    p_dims.set_defaults(func=_cmd_dims)

    p_homdim = sub.add_parser("homdim", help="invariant hom-space dimension via Gram rank")
    p_homdim.add_argument("source", type=int)
    p_homdim.add_argument("target", type=int)
    _add_common(p_homdim, top=False)
    p_homdim.set_defaults(func=_cmd_homdim)

    p_der = sub.add_parser("derivations", help="derivation algebra dimension and equivariance")
    _add_common(p_der, top=False)
    p_der.set_defaults(func=_cmd_derivations)

    p_coeffs = sub.add_parser("coeffs", help="symbolic skein coefficients and specializations")
    p_coeffs.add_argument("relation", choices=sorted(_COEFF_SETS))
    _add_common(p_coeffs, top=False)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format == "json-like":
        args.format = "json"
    if args.command != "coeffs" and (args.alpha is not None or args.delta is not None):
        print(
            "error: --alpha/--delta are honored only by 'coeffs'; "
            "evaluation and verification exist only at (7/3, 26)",
            file=sys.stderr,
        )
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
