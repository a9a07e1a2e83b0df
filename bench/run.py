"""Benchmark harness for f4diagrams.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all            # every workload, untraced then traced

One run measures one workload.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced pass.  The
last line of stdout is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, the op-tail percentile and sample count, ``fail_ratio``, and where the
run happened (machine, nproc, Python and numpy versions, git revision, seed).

Every session runs in a fresh child process that imports the package from
``src/`` of this checkout, with a private ``F4DIAGRAMS_CACHE_DIR`` and
``HOME`` under ``.bench_tmp/``, which is removed at exit.  The program runs
in one thread; every worker adds a speed sampler (see ``speed.py``), and
its times are scaled to the reference speed.  Workloads never run at
the same time.  The runner never imports the package; the workers call only
its public functions.

An untraced run measures whole units of work until ``--seconds`` have been
measured: sessions of the certificate list (at least three, each a full and
a light pass) for verify-catalog, four-step cycles for derivations-cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from typing import Dict, List, Optional, Tuple

from speed import REFERENCE_S, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
TMP = os.path.join(ROOT, ".bench_tmp")
OUT = os.path.join(ROOT, ".bench_out")

#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
#: set-up samples per run; their median is `setup_s`
SETUP_SAMPLES = 3
#: verify sessions that make a light pass after their full one
LIGHT_SESSIONS = 2
#: the derivation basis, as `worker.basis_digest` hashes it
BASIS_DIGEST = "9b1e0718fdb7b914063bc77e4a0df0c191d09a1db17249b620acf4aba336c614"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark could not run to the end."""


# -- child processes -----------------------------------------------------------


class Context:
    """Private directories and environment for one run."""

    def __init__(self, workload: str, seed: int):
        self.dir = os.path.join(TMP, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def env(self, cache_dir: str) -> Dict[str, str]:
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(("PYTHON", "F4DIAGRAMS"))
        }
        home = os.path.join(self.dir, "home")
        os.makedirs(home, exist_ok=True)
        env.update(
            PYTHONPATH=SRC,
            PYTHONHASHSEED="0",
            F4DIAGRAMS_CACHE_DIR=cache_dir,
            HOME=home,
            TMPDIR=self.dir,
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def spawn(self, mode: str, cache_dir: Optional[str] = None, **opts) -> Tuple[dict, float, float]:
        """Run one worker to completion; returns (result, spawn time, wall)."""
        self.count += 1
        out = os.path.join(self.dir, f"result-{self.count}.json")
        cache_dir = cache_dir or os.path.join(self.dir, f"cache-{self.count}")
        argv = [sys.executable, WORKER, mode, "--out", out]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run time limit reached")
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=self.env(cache_dir), cwd=self.dir)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{mode} worker exceeded the run time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
        if code != 0:
            raise HarnessError(f"{mode} worker exited with status {code}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), t0, wall

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- statistics ----------------------------------------------------------------


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  With fewer than 44 samples that
    percentile would fall below p75, or not exist, so the tail is then the
    highest percentile with a quarter of the samples beyond it: for the four
    ops of a derivations-cache cycle, the second slowest.  A maximum, with no
    sample beyond it, would measure the one slowest moment of the machine.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - 1 - min(10, n // 4)
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(latencies: List[float], setups: List[float], rss: float) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "peak_rss_mb": rss,
    }


# -- workloads -----------------------------------------------------------------


def run_verify(ctx: Context, seed: int, seconds: float, trace: bool) -> dict:
    """Passes of the pinned certificate list, in fresh sessions.

    An untraced run starts at least SETUP_SAMPLES sessions, so each
    session's spawn-to-ready time is one set-up sample.  Each session makes
    one full pass, and the first LIGHT_SESSIONS make a light one after it
    (see `worker.verify_session`).  Every pass runs the same ops in the same
    order.  Each op's latency, scaled to the reference speed (see `speed`),
    is taken as its median over the passes, and the end-to-end metrics are
    taken over those latencies, one per op run.  The seed does not change
    the work (see `worker.VERIFY_RELATIONS`).  A traced run makes exactly
    one pass, so its counters repeat exactly.
    """
    if trace:
        spans = os.path.join(OUT, f"verify-catalog-seed{seed}.spans.tsv.gz")
        res, _, _ = ctx.spawn("verify", trace=1, spans=spans)
        speed = res["speed_samples"]
        lat = [scaled(a, b, speed) for a, b in res["op_spans"][0]]
        layers = dict(res["per_layer"])
        layers["trace.ops_per_s"] = len(lat) / sum(lat)
        return {"attempted": len(lat), "failed": res["failed"], "latencies": lat,
                "speed_samples": speed, "per_layer": layers}
    passes: List[List[float]] = []
    setups: List[float] = []
    samples: List[Tuple[float, float]] = []
    measure_s = 0.0
    failed = 0
    rss = 0.0
    while len(setups) < SETUP_SAMPLES or measure_s < seconds:
        light = int(len(setups) < LIGHT_SESSIONS)
        res, t0, _ = ctx.spawn("verify", trace=0, **{"light-passes": light})
        speed = res["speed_samples"]
        setups.append(scaled(t0, res["ready"], speed))
        passes += [[scaled(a, b, speed) for a, b in p] for p in res["op_spans"]]
        samples += speed
        measure_s += res["measure_s"]
        failed += res["failed"]
        rss = max(rss, res["peak_rss_mb"])
    width = max(len(p) for p in passes)
    median = [statistics.median(p[i] for p in passes if i < len(p)) for i in range(width)]
    # one latency per op run, each the median of its op over the passes
    typical = [median[i] for p in passes for i in range(len(p))]
    return {
        "attempted": len(typical),
        "failed": failed,
        "latencies": typical,
        "pass_latencies": passes,
        "speed_samples": samples,
        "metrics": end_to_end(typical, setups, rss),
    }


def _cache_state(path: str) -> Optional[Tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def tamper(path: str, seed: int) -> None:
    """Change one matrix entry of the cached basis by +1.

    The file still parses (fingerprint, count and shape are untouched), but
    the changed matrix is no longer a derivation, so the load must fail
    certification and fall back to solving.
    """
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    body = [i for i, ln in enumerate(lines) if i >= 2 and ln.strip()]
    rng = random.Random(seed)
    row = rng.choice(body)
    toks = lines[row].split()
    col = rng.randrange(len(toks))
    toks[col] = str(Fraction(toks[col]) + 1)
    lines[row] = " ".join(toks)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))


# Why: the only workload where writes sit beside reads and the only one on
# the derivations layer.  The tampered step keeps the parent defect visible:
# a rejected cache is re-solved but never rewritten, so the step after it
# pays the full solve again (derivation_recover_s, derivations.cache_rewrites).
DERIVE_STEPS = ("cold", "warm", "tampered", "recover")


def run_derive(ctx: Context, seed: int, seconds: float, trace: bool) -> dict:
    latencies: List[float] = []
    setups: List[float] = []
    walls: Dict[str, List[float]] = {s: [] for s in DERIVE_STEPS}
    failed = 0
    rss = 0.0
    layers: Dict[str, float] = {}
    cache_bytes = 0
    rewrites = 0
    samples: List[Tuple[float, float]] = []
    start = time.monotonic()
    cycle = 0
    while True:
        cache_dir = os.path.join(ctx.dir, f"derive-cache-{cycle}")
        path = os.path.join(cache_dir, "derivation_basis.txt")
        for step in DERIVE_STEPS:
            if step == "tampered":
                tamper(path, seed * 1000 + cycle)
            before = _cache_state(path)
            spans = os.path.join(OUT, f"derivations-cache-seed{seed}-{step}.spans.tsv.gz")
            res, t0, wall = ctx.spawn(
                "derive-step", cache_dir=cache_dir, trace=int(trace), spans=spans
            )
            after = _cache_state(path)
            speed = res["speed_samples"]
            samples += speed
            wall = scaled(t0, t0 + wall, speed)
            setups.append(scaled(t0, res["ready"], speed))
            latencies.append(wall)
            walls[step].append(wall)
            rss = max(rss, res["peak_rss_mb"])
            if before is not None and after != before:
                rewrites += 1
            if step == "cold" and after is not None:
                cache_bytes = after[2]
            ok = (
                res["dimension"] == 52
                and res["closure_holds"]
                and res["digest"] == BASIS_DIGEST
                and after is not None
            )
            if not ok:
                failed += 1
                print(f"derivations-cache: wrong result in the {step} step", file=sys.stderr)
            for key, value in res.get("per_layer", {}).items():
                layers[key] = layers.get(key, 0) + value
        cycle += 1
        if trace or time.monotonic() - start >= seconds:
            break
    out = {"attempted": len(latencies), "failed": failed, "latencies": latencies,
           "speed_samples": samples}
    out["steps"] = {s: statistics.median(v) for s, v in walls.items()}
    if trace:
        layers.update(
            {
                "derivations.cache_bytes": cache_bytes,
                "derivations.cache_rewrites": rewrites,
                "derivation_cold_s": out["steps"]["cold"],
                "derivation_warm_s": out["steps"]["warm"],
                "derivation_recover_s": out["steps"]["recover"],
                "trace.ops_per_s": len(latencies) / sum(latencies),
            }
        )
        out["per_layer"] = layers
        return out
    out["metrics"] = end_to_end(latencies, setups, rss)
    return out


RUNNERS = {"verify-catalog": run_verify, "derivations-cache": run_derive}


# -- reporting -------------------------------------------------------------------


def per_layer_spec() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def environment(seed: int) -> Dict[str, object]:
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": rev,
        "src_sha256": h.hexdigest(),
        "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(workload, seed)
    try:
        res = RUNNERS[workload](ctx, seed, seconds, trace)
    finally:
        ctx.close()
    if trace:
        units = per_layer_spec()
        values = dict.fromkeys(units, 0)
        values.update({k: v for k, v in res["per_layer"].items() if k in units})
        values["src.lines"] = src_lines()
    else:
        units = END_TO_END
        values = res["metrics"]
    res["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return res


def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    env = environment(seed)
    print(f"# workload {workload}  trace {int(trace)}")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    speed = res.get("speed_samples")
    if speed:
        mean = statistics.fmean(e - s for s, e in speed)
        print(
            f"# speed: {len(speed)} samples, mean calibration {mean * 1e3:.3f} ms;"
            f" times are scaled to {REFERENCE_S * 1e3:g} ms"
        )
    value, pct, n = tail(res["latencies"])
    print(f"op_tail_s is p{pct:.1f} of {n} op latencies")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} ratio")
    for step, secs in res.get("steps", {}).items():
        print(f"derivation_{step}_s {secs:.6g} s")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        record = dict(
            result,
            environment=env,
            latencies=res["latencies"],
            pass_latencies=res.get("pass_latencies", []),
            speed_samples=res.get("speed_samples", []),
            steps=res.get("steps", {}),
        )
        json.dump(record, fh, indent=1)
    return result


def _terminate(signum, frame):
    # Unwind, so that `Context.spawn` kills and reaps its worker and
    # `run_one` removes the run's directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description="f4diagrams benchmark")
    p.add_argument("--workload", choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced, then traced")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "f4diagrams", "__init__.py")):
        print(f"error: no f4diagrams package under {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    os.makedirs(TMP, exist_ok=True)
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), res)))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, with the tracing overhead."""
    ok = True
    for workload in RUNNERS:
        plain = report(workload, seed, False, run_one(workload, seed, seconds, False))
        traced = report(workload, seed, True, run_one(workload, seed, seconds, True))
        overhead = (
            plain["metrics"]["ops_per_s"]["value"] - traced["metrics"]["trace.ops_per_s"]["value"]
        )
        print(f"{workload} tracing_overhead_ops_per_s {overhead:.6g} 1/s")
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
