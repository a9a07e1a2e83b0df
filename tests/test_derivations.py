"""Derivation Lie algebra: certified basis, span membership, cache behavior."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import f4diagrams.derivations as dv
from f4diagrams.albert import AlbertElement, alb_trace, basis_V, coords_A, coords_V, jordan
from f4diagrams.diagram import CAP, CUP, MERGE, SPLIT
from f4diagrams.octonion import Octonion

# sha256 of a solved basis, entry by entry, as bench/worker.py's basis_digest
# hashes it; a change of echelon convention or of basis changes it.
BASIS_DIGEST = "9b1e0718fdb7b914063bc77e4a0df0c191d09a1db17249b620acf4aba336c614"
# size and sha256 of the cache file a cold solve writes; the file format is
# an interface too (a cache written by one version is read by the next).
CACHE_BYTES = 77342
CACHE_SHA256 = "e35999ca3c9a315025cee16d6f5d56bf7acd7f9bf2fd5e86a3075cd76ba58b5a"

def _random_albert(rng):
    diag = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    off = [
        Octonion([Fraction(rng.randint(-3, 3)) for _ in range(8)])
        for _ in range(3)
    ]
    return AlbertElement(diag, off)


def _reset_memo():
    dv._BASIS = None
    dv._FREE_COLS = None
    dv._RESTRICTED = None


def _flat(basis):
    return [[x for row in d.matrix.data for x in row] for d in basis]


def _digest(basis):
    h = hashlib.sha256()
    for d in basis:
        for row in d.matrix.data:
            h.update(" ".join(str(Fraction(x)) for x in row).encode("ascii"))
            h.update(b"\n")
        h.update(b"\n")
    return h.hexdigest()


def _env(cache_dir):
    """The environment of a child process on this source tree and cache."""
    env = dict(os.environ, F4DIAGRAMS_CACHE_DIR=str(cache_dir))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_basis_size_and_shape():
    basis = dv.derivation_basis()
    assert len(basis) == dv.DIM_DER == 52
    for d in basis:
        assert len(d.matrix.data) == 27 and all(len(row) == 27 for row in d.matrix.data)


def test_derivations_kill_unit_and_trace():
    rng = random.Random(41)
    unit = AlbertElement.unit()
    for d in dv.derivation_basis()[::7]:
        assert d.apply(unit).is_zero()
        for _ in range(3):
            assert alb_trace(d.apply(_random_albert(rng))) == 0


def test_leibniz_on_random_elements():
    rng = random.Random(42)
    for d in (dv.derivation_basis()[i] for i in (0, 19, 51)):
        for _ in range(4):
            a, b = _random_albert(rng), _random_albert(rng)
            lhs = d.apply(jordan(a, b))
            rhs = jordan(d.apply(a), b) + jordan(a, d.apply(b))
            assert coords_A(lhs) == coords_A(rhs)


def test_bracket_stays_in_span():
    basis = dv.derivation_basis()
    scale, node = dv.bracket(basis[4], basis[31])
    assert dv.in_span((scale, node))
    # the node is the dense commutator AB - BA, keyed (input, output)
    a, b = basis[4].matrix.data, basis[31].matrix.data

    def mul(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(27)) for c in range(27)] for r in range(27)]

    ab, ba = mul(a, b), mul(b, a)
    assert {(c, r): Fraction(n, scale) for (c, r), n in node.items()} == {
        (c, r): ab[r][c] - ba[r][c] for r in range(27) for c in range(27) if ab[r][c] != ba[r][c]
    }
    report = dv.check_bracket_closure(samples=((0, 1), (10, 44)))
    assert report["holds"]


def test_identity_is_not_a_derivation():
    assert not dv.in_span((1, {(i, i): 1 for i in range(27)}))


def test_conventions_fingerprint_is_pinned():
    # The cache is keyed by this hash of the structure constants: a change
    # to the table builder would quietly invalidate every cache.
    assert dv._conventions_fingerprint() == (
        "f8a50b910eced034f3f5d4c51905869aa79a50d2bf4c13c38cf706995751ab20"
    )


def test_equivariance_fails_for_a_non_derivation(monkeypatch):
    # The identity on V is not a derivation: D . merge - merge . (D x 1) -
    # merge . (1 x D) is -merge, (D x 1 + 1 x D) . split - split . D is
    # split, and the cap and cup sums are twice cap and cup.
    identity = (1, {(i, i): 1 for i in range(26)})
    mutated = [identity] + dv.restricted_basis()[1:]
    monkeypatch.setattr(dv, "_RESTRICTED", mutated)
    report = dv.check_equivariance()
    assert report["derivations"] == 52
    assert not any(report[k] for k in ("merge_ok", "split_ok", "cap_ok", "cup_ok", "holds"))


def test_cyclic_certificate_holds():
    # b0 = E11 - E22 spans V under the five inner derivations [L_E11, L_b]
    # of INNER_UNITS, all four generator tables commute with each, and caps
    # undo cups
    from f4diagrams.functor import generator_tensors

    assert len(dv.inner_derivations()) == len(dv.INNER_UNITS) == 5
    assert dv.cyclic_certificate(generator_tensors()) == {
        "holds": True,
        "operators": 5,
        "merge_ok": True,
        "split_ok": True,
        "cap_ok": True,
        "cup_ok": True,
        "span": 26,
        "zigzag_ok": True,
    }


def _tampered(gen, seed):
    """The generator tables with +1 added to one int entry of gen's table:
    an entry drawn by the seed, or, for seed None, the first entry that is
    zero."""
    from itertools import product

    from f4diagrams.functor import generator_tensors

    nodes = dict(generator_tensors())
    scale, tensor = nodes[gen]
    if seed is None:
        arity = len(next(iter(tensor)))
        key = next(k for k in product(range(26), repeat=arity) if k not in tensor)
    else:
        key = random.Random(seed).choice(sorted(tensor))
    nodes[gen] = (scale, {**tensor, key: tensor.get(key, 0) + 1})
    return nodes


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, None], ids=lambda s: f"seed{s}" if s is not None else "zero")
@pytest.mark.parametrize("gen", [MERGE, SPLIT, CUP, CAP], ids=lambda g: g.name)
def test_certificate_catches_a_tampered_table(gen, seed):
    # the five operators of S see a +1 in any one entry of any table, so a
    # broken table fails the certificate and is_zero falls back to the scan
    cert = dv.cyclic_certificate(_tampered(gen, seed))
    assert not cert[gen.name + "_ok"]
    assert not cert["holds"]


def test_certificate_work_is_bounded(monkeypatch):
    # a count of contractions, not a timing budget: one build contracted
    # 508 networks when S held all 16 nonzero inner derivations
    from f4diagrams.functor import generator_tensors

    nodes = generator_tensors()
    calls = []
    contract = dv.contract_sum

    def counting(parts, boundary):
        calls.append(boundary)
        return contract(parts, boundary)

    monkeypatch.setattr(dv, "contract_sum", counting)
    assert dv.cyclic_certificate(nodes)["holds"]
    assert len(calls) <= 160


def test_certificate_needs_caps_to_undo_cups():
    # a doubled cup still commutes with every derivation, but caps no
    # longer undo it
    from f4diagrams.diagram import CUP
    from f4diagrams.functor import generator_tensors

    nodes = dict(generator_tensors())
    scale, cup = nodes[CUP]
    nodes[CUP] = (scale, {k: 2 * n for k, n in cup.items()})
    cert = dv.cyclic_certificate(nodes)
    assert cert["cup_ok"] and cert["span"] == 26
    assert not cert["zigzag_ok"] and not cert["holds"]


def test_inner_derivations_are_derivations():
    # A second route, by the textbook fact: each inner derivation, as a map
    # of V, is a combination of the 52 restricted basis derivations.
    from f4diagrams.exactla import echelon_insert

    def row(scaled):
        scale, node = scaled
        return {26 * i + j: Fraction(n, scale) for (i, j), n in node.items()}

    pivots = {}
    assert all(echelon_insert(pivots, row(d)) for d in dv.restricted_basis())
    assert not any(echelon_insert(pivots, row(d)) for d in dv.inner_derivations())


def test_restricted_basis_shape():
    restricted = dv.restricted_basis()
    assert len(restricted) == 52
    for scale, node in restricted:
        assert all(len(key) == 2 and 0 <= min(key) and max(key) < 26 for key in node)


def test_restricted_basis_is_the_action_on_V():
    # the node of iota ; D ; p against D applied to the Albert elements b_j
    bv = basis_V()
    restricted = dv.restricted_basis()
    for i in (0, 19, 51):
        scale, node = restricted[i]
        d = dv.derivation_basis()[i]
        for j, b in enumerate(bv):
            image = coords_V(d.apply(b))
            assert {k: Fraction(n, scale) for (x, k), n in node.items() if x == j} == {
                k: c for k, c in enumerate(image) if c
            }


def test_cache_round_trip():
    first = dv.derivation_basis()
    path = dv._cache_path()
    assert os.path.exists(path)
    assert path.startswith(os.environ["F4DIAGRAMS_CACHE_DIR"])
    cached = dv._read_cache(path)
    assert cached is not None and len(cached) == 52
    assert cached == _flat(first)
    _reset_memo()
    again = dv.derivation_basis()
    assert all(x.matrix.data == y.matrix.data for x, y in zip(first, again))


def test_corrupt_cache_triggers_recompute():
    basis = dv.derivation_basis()
    path = dv._cache_path()
    with open(path, "w") as fh:
        fh.write("not a derivation basis\n")
    assert dv._read_cache(path) is None
    _reset_memo()
    recomputed = dv.derivation_basis()
    assert len(recomputed) == 52
    assert all(
        x.matrix.data == y.matrix.data for x, y in zip(basis, recomputed)
    )
    # fresh solve rewrote the cache
    assert dv._read_cache(path) is not None


def test_tampered_cache_is_repaired():
    basis = dv.derivation_basis()
    path = dv._cache_path()
    flat = dv._read_cache(path)
    flat[0][27 * 3 + 5] += 1  # still parses, no longer a derivation
    dv._write_cache(path, flat)
    tampered = dv._read_cache(path)
    assert not dv._certified(tampered)
    _reset_memo()
    recomputed = dv.derivation_basis()
    assert all(x.matrix.data == y.matrix.data for x, y in zip(basis, recomputed))
    # the re-solve rewrote the file, so the next load certifies
    repaired = dv._read_cache(path)
    assert dv._certified(repaired)
    assert not any(name.endswith(".tmp") for name in os.listdir(os.path.dirname(path)))


@pytest.mark.parametrize("seed", range(6))
def test_certificate_rejects_a_tampered_entry(seed):
    # one entry of one matrix changed by +1, as bench/run.py's tamper does:
    # the file would still parse, but the matrix is no longer a derivation
    flat = _flat(dv.derivation_basis())
    rng = random.Random(seed)
    f, u = rng.randrange(len(flat)), rng.randrange(27 * 27)
    flat[f][u] += 1
    assert not dv._certified(flat)


def test_undecodable_cache_is_repaired():
    basis = dv.derivation_basis()
    path = dv._cache_path()
    with open(path, "wb") as fh:
        fh.write(b"fingerprint \xff\xfe\n")
    assert dv._read_cache(path) is None
    _reset_memo()
    recomputed = dv.derivation_basis()
    assert all(x.matrix.data == y.matrix.data for x, y in zip(basis, recomputed))
    assert dv._certified(dv._read_cache(path))


def test_unwritable_cache_still_returns_the_basis(tmp_path, monkeypatch):
    basis = dv.derivation_basis()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv(dv.CACHE_ENV, str(blocker))
    _reset_memo()
    try:
        with pytest.warns(RuntimeWarning, match="not cached"):
            solved = dv.derivation_basis()
    finally:
        _reset_memo()
    assert all(x.matrix.data == y.matrix.data for x, y in zip(basis, solved))


def test_cold_solve_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(dv.CACHE_ENV, str(tmp_path))
    _reset_memo()
    try:
        basis = dv.derivation_basis()
    finally:
        _reset_memo()
    assert _digest(basis) == BASIS_DIGEST
    blob = (tmp_path / "derivation_basis.txt").read_bytes()
    assert len(blob) == CACHE_BYTES
    assert hashlib.sha256(blob).hexdigest() == CACHE_SHA256


def _one_token_short(lines):
    lines[3] = lines[3].rsplit(" ", 1)[0]


def _one_line_short(lines):
    del lines[3]


def _zero_denominator(lines):
    lines[3] = "1/0" + lines[3][lines[3].index(" "):]


@pytest.mark.parametrize("damage", [_one_token_short, _one_line_short, _zero_denominator])
def test_misshapen_cache_is_rejected_and_repaired(tmp_path, monkeypatch, damage):
    # a row of 26 tokens, a body one line short of count x 27, or an entry
    # 1/0: the reader refuses the file and the load re-solves
    flat = _flat(dv.derivation_basis())
    monkeypatch.setenv(dv.CACHE_ENV, str(tmp_path))
    path = dv._cache_path()
    dv._write_cache(path, flat)
    with open(path) as fh:
        lines = fh.read().split("\n")
    damage(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    assert dv._read_cache(path) is None
    _reset_memo()
    try:
        assert _digest(dv.derivation_basis()) == BASIS_DIGEST
    finally:
        _reset_memo()
    assert dv._read_cache(path) == flat


def test_non_echelon_cache_is_repaired(tmp_path, monkeypatch):
    # 52 valid derivations that are not in echelon form (matrix 1 replaced
    # by matrix 0 + matrix 1) pass the certificate but have no marker
    # columns: the load re-solves and rewrites the file, as for a failed one
    flat = _flat(dv.derivation_basis())
    monkeypatch.setenv(dv.CACHE_ENV, str(tmp_path))
    path = dv._cache_path()
    mixed = [a + b for a, b in zip(flat[0], flat[1])]
    dv._write_cache(path, [flat[0], mixed] + flat[2:])
    flat = dv._read_cache(path)
    assert dv._certified(flat) and dv._free_columns(flat) is None
    _reset_memo()
    try:
        assert _digest(dv.derivation_basis()) == BASIS_DIGEST
        # the rewritten file loads warm, with no second solve
        _reset_memo()
        monkeypatch.setattr(dv, "_compute_basis_fresh", None)
        assert _digest(dv.derivation_basis()) == BASIS_DIGEST
    finally:
        _reset_memo()


def test_production_paths_multiply_no_element_objects(tmp_path):
    # The generator tables, a warm basis load and the equivariance check run
    # on the Jordan node alone: with jordan and the element constructor
    # refusing, they still succeed.
    dv._write_cache(str(tmp_path / "derivation_basis.txt"), _flat(dv.derivation_basis()))
    code = (
        "import f4diagrams.albert as al\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the object algebra was used')\n"
        "al.jordan = refuse\n"
        "al.AlbertElement.__init__ = refuse\n"
        "from f4diagrams import derivations as dv\n"
        "from f4diagrams.functor import generator_tensors\n"
        "generator_tensors()\n"
        "dv._compute_basis_fresh = None\n"
        "assert len(dv.derivation_basis()) == 52\n"
        "assert dv.check_equivariance()['holds']\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(tmp_path), capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr


def test_cold_solve_imports_no_numpy(tmp_path):
    env = _env(tmp_path)
    code = (
        "import sys\n"
        "from f4diagrams.derivations import derivation_basis\n"
        "assert len(derivation_basis()) == 52\n"
        "print('numpy' in sys.modules, 'f4diagrams.functor' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    # the solve needs neither numpy nor the evaluator
    assert out.stdout.strip() == "False False"
    assert os.path.exists(tmp_path / "derivation_basis.txt")
    # nor does a load of the now warm cache and the bracket check after it
    code = (
        "import sys\n"
        "from f4diagrams.derivations import check_bracket_closure, derivation_basis\n"
        "assert len(derivation_basis()) == 52\n"
        "assert check_bracket_closure()['holds']\n"
        "print(*(m in sys.modules for m in ('numpy', 'f4diagrams.functor', 'f4diagrams.diagram')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False False"
