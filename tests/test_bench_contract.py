"""The contract between the package and the benchmark harness in bench/.

The harness's workers call the package by name (``set_cache_enabled``,
``apply_term_sparse``, the CLI entry point, ``derivation_basis`` and more)
and check the exact results.  Each test runs one worker as the harness
does, in a fresh process with a private cache directory, so renaming or
removing a name the harness uses fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _worker(tmp_path, *args):
    out = tmp_path / "result.json"
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        F4DIAGRAMS_CACHE_DIR=str(tmp_path / "cache"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
    return json.loads(out.read_text())


def test_verify_session_with_a_light_pass(tmp_path):
    res = _worker(tmp_path, "verify", "--light-passes", "1")
    assert res["failed"] == 0
    full, light = res["op_spans"]
    assert len(light) == len(full) - 1


def test_traced_verify_session(tmp_path):
    spans = tmp_path / "spans.tsv.gz"
    res = _worker(tmp_path, "verify", "--trace", "1", "--spans", str(spans))
    assert res["failed"] == 0
    assert res["per_layer"]["functor.pivotal_H.profile_ok"] == 1
    assert spans.exists()


def test_derive_step_matches_the_pinned_digest(tmp_path):
    res = _worker(tmp_path, "derive-step")
    assert res["dimension"] == 52
    assert res["closure_holds"] is True
    pinned = subprocess.run(
        [sys.executable, "-c", "import run; print(run.BASIS_DIGEST)"],
        cwd=BENCH, env=dict(os.environ, PYTHONPATH=BENCH, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True, timeout=60,
    )
    assert pinned.returncode == 0, pinned.stderr
    assert res["digest"] == pinned.stdout.strip()
