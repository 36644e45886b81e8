"""Tests of the benchmark itself: inputs, self-time arithmetic, metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_inputs():
    first = [wl.stream_op(7, i) for i in range(2 * wl.CYCLE)]
    again = [wl.stream_op(7, i) for i in range(2 * wl.CYCLE)]
    other = [wl.stream_op(8, i) for i in range(2 * wl.CYCLE)]
    assert first == again
    assert first != other
    assert [wl.setup_op(7, n, k) for n, k in wl.CELLS] == [wl.setup_op(7, n, k) for n, k in wl.CELLS]
    assert wl.verify_seeds(7, 5) == wl.verify_seeds(7, 5) != wl.verify_seeds(8, 5)


def test_every_cycle_has_the_same_mix():
    for cycle in range(3):
        ops = [wl.stream_op(1, cycle * wl.CYCLE + i) for i in range(wl.CYCLE)]
        assert sorted(((n, k), kind) for n, k, kind, _ in ops) == sorted(wl.COMBOS)
    assert wl.CYCLE == 3 * sum(wl.CELL_WEIGHTS.values())
    share = wl.stream_descriptor(1, range(wl.CYCLE))["kind_share"]
    assert share == {kind: 1 / 3 for kind in wl.KINDS}


def test_cochain_kinds():
    n, k = 6, 3
    basis = wl.cochain_terms(Random(0), n, k, "basis")
    dense = wl.cochain_terms(Random(0), n, k, "dense")
    large = wl.cochain_terms(Random(0), n, k, "large")
    assert list(basis.values()) == [1]
    assert set(dense) == set(large) == set(wl.faces(n, k))
    assert all(v and abs(v.numerator) <= 10 and v.denominator <= 10 for v in dense.values())
    assert wl.stream_descriptor(1, range(wl.CYCLE))["max_coeff_bits"] == 62


def test_self_time_on_a_synthetic_span_tree():
    #  0 cli.main        [0, 10]
    #  1   verify.a      [1, 7]
    #  2     forms.p     [2, 3]
    #  3     forms.p     [4, 6]
    #  4       linalg.d  [4.5, 5]
    #  5   forms.p       [8, 9]
    names = ["cli.main", "verify.a", "forms.p", "forms.p", "linalg.d", "forms.p"]
    starts = [0.0, 1.0, 2.0, 4.0, 4.5, 8.0]
    ends = [10.0, 7.0, 3.0, 6.0, 5.0, 9.0]
    parents = [-1, 0, 1, 1, 3, 0]
    out = summarize(names, starts, ends, parents)
    assert out["cli.self_s"] == 10 - 6 - 1
    assert out["verify.self_s"] == 6 - 1 - 2
    assert out["forms.self_s"] == 1 + (2 - 0.5) + 1
    assert out["linalg.self_s"] == 0.5
    assert out["forms.p.calls"] == 3 and isinstance(out["forms.p.calls"], int)
    assert out["forms.p.s"] == 4
    assert sum(v for k, v in out.items() if k.endswith(".self_s")) == 10


def test_recursive_spans_count_inclusive_time_once():
    out = summarize(["forms.w", "forms.w"], [0.0, 1.0], [4.0, 2.0], [-1, 0])
    assert out["forms.w.calls"] == 2
    assert out["forms.w.s"] == 4
    assert out["forms.self_s"] == 4


def test_benchmark_json_names_and_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == ["verify-cli", "roundtrip", "solve"]


def test_expected_verify_report_matches_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "whitneyforms", "verify", "--n-max", "2", "--samples", "2",
         "--seed", "5"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == wl.expected_verify_stdout(2, 2, 5)
    cells = json.loads(proc.stdout)["cells"]
    assert [c["proof_trace"] for c in cells] == [None, None, None, True, None]


def test_tracer_wraps_every_namespace():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
import whitneyforms
from whitneyforms.simplicial import Cochain, Face
# The package re-exports functions named like its modules, so look modules up.
characterize, derham, forms, linalg, verify, whitney = (
    sys.modules[f"whitneyforms.{m}"]
    for m in ("characterize", "derham", "forms", "linalg", "verify", "whitney")
)
t = Tracer()
t.install()
assert derham.pullback is characterize.pullback is forms.pullback
assert whitneyforms.whitney is verify.whitney is whitney.whitney
assert forms.pullback.__wrapped__.__module__ == "whitneyforms.forms"
c = Cochain.basis(Face(2, (0, 1)))
assert derham.derham(whitney.whitney(c)) == c
linalg.LinearSolver(linalg.Matrix.from_rows([[1]])).solve([2])
s = t.summary()
assert s["derham.derham.calls"] == 1 and s["derham.integrate_over_face.calls"] == 3
assert s["forms.pullback.calls"] == 3 and s["linalg.det.calls"] >= 1
assert s["linalg.LinearSolver.calls"] == 1 and s["linalg.LinearSolver.solve.calls"] == 1
assert "simplicial.self_s" not in s
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.strip() == "ok", proc.stderr
