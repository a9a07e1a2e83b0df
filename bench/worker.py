"""One fresh benchmark process: a verify-catalog session or one
derivations-cache step.

The parent (``run.py``) starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src`` and a private ``F4DIAGRAMS_CACHE_DIR``; the package sees
only the generated inputs, never the seed.  The worker writes one JSON result
to ``--out`` and prints nothing to stdout, so the parent's last stdout line
stays its own result.

Times are ``time.monotonic()`` readings, which on Linux share one clock
across processes, so the parent can subtract its spawn time from ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from speed import Sampler
from tracer import Tracer

# -- verify-catalog ------------------------------------------------------------
#
# Why: this is the `f4cat verify` path, where many relations share diagram
# terms, so the per-(term, input) memo pays off.  Each op is one certificate,
# run in-process through the command-line entry point
# (`f4cat --format json verify <target>`, or `eval named(e) --closed-trace`
# for a projector dimension), so the cli layer is on the path as for a user.
#
# The targets are pinned by name with the number of basis inputs each must
# stream (26 ** source strands), so a catalogue change cannot silently change
# the work.  Left out, to fit six passes into one run: the bent `pivotal_*`
# family and `pentburst` (50-120 s each), the relations over 2 s each
# (`3spike`, `sqburst`, `rotary_H`, `rotary_I`, `rotary_dotcross`,
# `turvy_rotinv_dotcross`; 33 s together), the `idempotents` and `sponge`
# suites (21 s and 18 s; the five projector dimensions are certified here by
# their closed traces instead, as one op), the relations on fewer than two
# strands, and the 14 certificates that finish in under 30 ms
# (`venom_involution`, `chess_*_cross`, `flick_jail`, `flick_cross`,
# `flick_hourglass`, `flick_H`, `pomegranate_*`, `coals`).  On a shared
# machine the time of such short ops swings up to 1.7x with the machine's
# speed, and with them in the pass the median op is one of them: over ten
# runs the spread of op_p50_s was 0.29 with them and 0.10 without.
#
# The ops run in catalogue order, the order `f4cat verify all` uses, whatever
# the seed: reordering moves memo hits from one op to another, so the latency
# percentiles would follow the seed instead of the code.
VERIFY_RELATIONS: Tuple[Tuple[str, int], ...] = (
    ("vortex_cap_slide", 3),
    ("venom_braid", 3),
    ("venom_merge_slide", 3),
    ("venom_split_slide", 2),
    ("topsy_merge_left", 2),
    ("topsy_merge_right", 2),
    ("topsy_cap_sym", 3),
    ("turvy_rotinv_cross", 2),
    ("rotary_jail", 2),
    ("rotary_hourglass", 2),
    ("rotary_cross", 2),
    ("flick_I", 2),
    ("flick_dotcross", 2),
    ("ladderslip_sym", 2),
    ("ladderslip_asym", 2),
    ("magic", 2),
    ("jordan", 2),
    ("triangle", 2),
    ("bosnia_diff", 2),
    ("bosnia_dot", 2),
)
#: the rival-quotient rules, which must deviate under the functor
DEVIATING = frozenset({"bosnia_diff", "bosnia_dot"})
#: categorical dimension of each projector's image
EXPECTED_DIMS = {"e0": 1, "e1": 52, "e3": 273, "e4": 26, "etilde": 324}

#: speed samples taken in the program's thread before each op and after a
#: pass, beside the sampler thread's (see `speed`)
BETWEEN_OPS = 4

GENERATORS = ("merge", "split", "cup", "cap", "cross")
#: nnz after each layer of the `pivotal_H` lhs on one input, as quoted in
#: ROADMAP.md; PROFILE_INPUT is an input that produces it.
PIVOTAL_H_PROFILE = (28, 784, 15008, 10384, 388, 17)
PROFILE_INPUT = (5, 7)

#: (label, [(f4cat arguments, exact JSON payload expected), ...])
Op = Tuple[str, List[Tuple[List[str], Dict[str, object]]]]


def verify_ops() -> List[Op]:
    ops: List[Op] = []
    for name, strands in VERIFY_RELATIONS:
        holds = name not in DEVIATING
        report = {"holds": holds, "expected_holds": holds, "basis_checked": 26 ** strands}
        ops.append((name, [(["verify", name], {name: report})]))
    ops.append((
        "dims",
        [
            (["eval", f"named({nm})", "--closed-trace"], {"closed_trace": str(dim)})
            for nm, dim in EXPECTED_DIMS.items()
        ],
    ))
    ops.append(("sack", [(["verify", "sack"], {"sack": {"holds": True}})]))
    return ops


def run_op(cli, calls) -> Tuple[bool, int]:
    """One op: returns (every output exactly as expected, stdout bytes)."""
    ok, nbytes = True, 0
    for argv, expected in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "json"] + argv)
        text = buf.getvalue()
        ok = ok and code == 0 and json.loads(text) == expected
        nbytes += len(text.encode("utf-8"))
    return ok, nbytes


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(tracer: Optional[Tracer]) -> Dict[str, float]:
    """Import, generator tables, catalogue: what every session pays first."""
    t0 = time.monotonic()
    import f4diagrams.cli  # noqa: F401  (first package import)

    import_s = time.monotonic() - t0
    from f4diagrams import functor, relations

    if tracer is not None:
        tracer.install()
    functor.generator_tensors()
    relations.catalog()
    return {"ready": time.monotonic(), "import_s": import_s}


class _Replay:
    """Per-layer measurements that need the program's work done again,
    outside the timed ops: the kernel stages of every (term, input) pair the
    memo had not seen, and each closed network on its own."""

    def __init__(self, functor, diagram):
        self.functor = functor
        self.diagram = diagram
        self.kernel = {
            g: {"calls": 0, "s": 0.0, "nnz_in_max": 0, "nnz_out_max": 0}
            for g in GENERATORS
        }
        self.seen = set()
        self.pairs = 0
        self.repeats = 0
        self.pending: List[Tuple[object, tuple, dict]] = []
        self.closed: List[object] = []
        self.network_s_max = 0.0
        self.inputs_checked = 0
        self.family_s: Dict[str, float] = {}

    # hooks, called by traced wrappers after the wrapped call returns
    def on_term(self, args, kwargs, result, dur) -> None:
        key = (args[0], args[1])
        self.pairs += 1
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)
            self.pending.append((args[0], args[1], result))

    def on_closed(self, args, kwargs, result, dur) -> None:
        self.closed.append(args[0])

    def on_relation(self, args, kwargs, result, dur) -> None:
        family = args[0].split("_", 1)[0]
        self.family_s[family] = self.family_s.get(family, 0.0) + dur
        self.inputs_checked += int(result["basis_checked"])

    def stages(self, term, idx, sink=None) -> Tuple[dict, List[int]]:
        """Push one basis input through the term's layers one generator at
        a time; returns the final state and the nnz after each layer."""
        d = self.diagram
        state = {tuple(idx): Fraction(1)}
        width = len(idx)
        profile = []
        for off, g in d.to_layers(term):
            one = d.tensor_all(d.Id(off), g, d.Id(width - off - g.src))
            t0 = time.perf_counter()
            out = self.functor.apply_term_sparse(one, state)
            dt = time.perf_counter() - t0
            if sink is not None:
                row = sink[g.name]
                row["calls"] += 1
                row["s"] += dt
                row["nnz_in_max"] = max(row["nnz_in_max"], len(state))
                row["nnz_out_max"] = max(row["nnz_out_max"], len(out))
            profile.append(len(out))
            state = out
            width += g.tgt - g.src
            if not state:
                break
        return state, profile

    def flush(self) -> int:
        """Replay what the last op evaluated; returns how many replayed
        (term, input) results differ from what the evaluator returned."""
        mismatches = 0
        for term, idx, result in self.pending:
            out, _ = self.stages(term, idx, self.kernel)
            if out != result:
                mismatches += 1
        self.pending.clear()
        for combo in self.closed:
            for term, _ in combo.terms:
                t = time.perf_counter()
                self.functor.phi_closed(self.diagram.as_combo(term))
                self.network_s_max = max(self.network_s_max, time.perf_counter() - t)
        self.closed.clear()
        return mismatches


def verify_session(args) -> Dict[str, object]:
    tracer = Tracer() if args.trace else None
    res: Dict[str, object] = _setup(tracer)
    import f4diagrams.cli as cli
    from f4diagrams import diagram, functor, relations

    replay = None
    if tracer is not None:
        replay = _Replay(functor, diagram)
        tracer.hooks["functor.apply_term_to_basis"] = replay.on_term
        tracer.hooks["functor.phi_closed"] = replay.on_closed
        tracer.hooks["relations.check_relation"] = replay.on_relation

    # In a traced run each op is a span too, the root of its layer spans.
    op = tracer.wrap("bench.op", run_op) if tracer else run_op
    ops = verify_ops()
    passes: List[List[Tuple[float, float]]] = []
    failed = 0
    stdout_bytes = 0
    start = time.monotonic()
    for i in range(1 + args.light_passes):
        if i:
            # A light pass leaves out `sack`, the last and slowest op, and
            # starts from an empty memo, so every op it runs does the same
            # work as in the first pass.
            functor.set_cache_enabled(False)
            functor.set_cache_enabled(True)
        spans: List[Tuple[float, float]] = []
        for label, calls in ops if i == 0 else ops[:-1]:
            args.sampler.sample(BETWEEN_OPS)
            t0 = time.monotonic()
            try:
                ok, nbytes = op(cli, calls)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok, nbytes = False, 0
            spans.append((t0, time.monotonic()))
            stdout_bytes += nbytes
            if replay is not None:
                tracer.paused = True
                if replay.flush():
                    print(
                        f"verify-catalog: kernel replay disagrees with the evaluator in {label}",
                        file=sys.stderr,
                    )
                    ok = False
                tracer.paused = False
            if not ok:
                failed += 1
                print(f"verify-catalog: wrong result for {label}", file=sys.stderr)
        args.sampler.sample(BETWEEN_OPS)
        passes.append(spans)
    res.update(
        measure_s=time.monotonic() - start,
        op_spans=passes,
        failed=failed,
        peak_rss_mb=_rss_mb(),
    )
    if tracer is not None:
        tracer.paused = True
        spec = relations.catalog()["pivotal_H"]
        term = spec.lhs.specialize(relations.ALPHA, relations.DELTA).terms[0][0]
        _, profile = replay.stages(term, PROFILE_INPUT)
        res["per_layer"] = verify_layers(tracer, replay, res, stdout_bytes, profile)
        tracer.write(args.spans)
    return res


def verify_layers(tracer, replay, res, stdout_bytes, profile) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for g, row in replay.kernel.items():
        for key, value in row.items():
            out[f"functor.kernel.{g}.{key}"] = value
    basis = tracer.group(["functor.apply_combo_to_basis"])
    out["functor.basis_eval.calls"] = basis["calls"]
    out["functor.basis_eval.s"] = basis["s"]
    out["functor.memo_share"] = replay.repeats / replay.pairs if replay.pairs else 0.0
    closed = tracer.group(["functor.phi_closed"])
    out["functor.closed.calls"] = closed["calls"]
    out["functor.closed.s"] = closed["s"]
    out["functor.closed.network_s_max"] = replay.network_s_max
    out["functor.generator_tensors_s"] = tracer.group(["functor.generator_tensors"])["s"]
    for i, nnz in enumerate(profile, 1):
        out[f"functor.pivotal_H.layer{i}_nnz"] = nnz
    out["functor.pivotal_H.profile_ok"] = int(tuple(profile) == PIVOTAL_H_PROFILE)
    for family, secs in replay.family_s.items():
        out[f"relations.family.{family}.s"] = secs
    out["relations.suite.sack.s"] = tracer.group(["relations.check_sack"])["s"]
    out["relations.catalog_s"] = tracer.group(["relations.catalog"])["s"]
    out["relations.inputs_checked"] = replay.inputs_checked
    out["cli.import_s"] = res["import_s"]
    out["cli.main_s"] = tracer.group(["cli.main"])["s"]
    out["cli.stdout_bytes"] = stdout_bytes
    out.update(common_layers(tracer))
    return out


def common_layers(tracer: Tracer) -> Dict[str, float]:
    """Layer metrics that any traced process can report."""
    out: Dict[str, float] = {}
    groups = {
        "diagram.combo": [
            "diagram.DiagramCombo.specialize",
            "diagram.DiagramCombo.compose",
            "diagram.DiagramCombo.then",
            "diagram.DiagramCombo.__add__",
            "diagram.DiagramCombo.__sub__",
            "diagram.DiagramCombo.__neg__",
            "diagram.DiagramCombo.__matmul__",
            "diagram.DiagramCombo.scale",
            "diagram.mirror",
            "functor.closure",
        ],
        "ratfield.specialize": ["ratfield.rf_specialize", "ratfield.RatFunc.specialize"],
        "albert.build_basis": ["albert.build_basis"],
        "albert.jordan": ["albert.jordan"],
        "octonion.mul": ["octonion.Octonion.__mul__", "octonion.oct_mul"],
        "exactla.rank": ["exactla.RatMatrix.rank", "exactla.rank"],
    }
    for key, names in groups.items():
        g = tracer.group(names)
        out[f"{key}.calls"] = g["calls"]
        out[f"{key}.s"] = g["s"]
    out["exactla.inverse.s"] = tracer.group(["exactla.RatMatrix.inverse"])["s"]
    out["exactla.from_text.s"] = tracer.group(["exactla.RatMatrix.from_text"])["s"]
    out["derivations.basis_s"] = tracer.group(["derivations.derivation_basis"])["s"]
    out["derivations.bracket_s"] = tracer.group(["derivations.check_bracket_closure"])["s"]
    for layer, secs in tracer.layer_self_seconds().items():
        out[f"{layer}.self_s"] = secs
    out["trace.spans"] = len(tracer.nid)
    return out


# -- derivations-cache step ---------------------------------------------------


def basis_digest(basis) -> str:
    """sha256 of every entry of every basis matrix, in order."""
    h = hashlib.sha256()
    for d in basis:
        for row in d.matrix.data:
            h.update(" ".join(str(Fraction(x)) for x in row).encode("ascii"))
            h.update(b"\n")
        h.update(b"\n")
    return h.hexdigest()


def derive_step(args) -> Dict[str, object]:
    """Solve or load the derivation basis once, as a fresh process does."""
    from f4diagrams import derivations

    res: Dict[str, object] = {"ready": time.monotonic()}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    basis = derivations.derivation_basis()
    closure = derivations.check_bracket_closure()
    res.update(
        dimension=len(basis),
        closure_holds=bool(closure["holds"]),
        digest=basis_digest(basis),
        peak_rss_mb=_rss_mb(),
    )
    if tracer is not None:
        res["per_layer"] = common_layers(tracer)
        tracer.write(args.spans)
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("verify", "derive-step"))
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    p.add_argument(
        "--light-passes", type=int, default=0,
        help="verify passes after the first, each without the sack op",
    )
    args = p.parse_args(argv)
    fn = {"verify": verify_session, "derive-step": derive_step}[args.mode]
    args.sampler = Sampler()
    args.sampler.start()
    res = fn(args)
    res["speed_samples"] = args.sampler.stop()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
