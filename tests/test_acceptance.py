"""Acceptance gate: the nine checks that define done, one test per criterion.

Each test prints a single pass/fail line on the real stdout so the verdicts
stay visible even under pytest's output capture.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from helpers import barycentric_functions, cochain_eval, quadrature_integral, random_affine_form
from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    Face,
    derham,
    enumerate_faces,
    integrate_over_face,
    is_constant,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    pullback,
    random_cochain,
    solve_characterization,
    whitney,
    whitney_basis_form,
)
from whitneyforms.forms import UnknownLayout

N_MAX = 5
SAMPLES = 20
SEED = 0


def _report(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)


def _seeded_cochains(n: int, k: int) -> list[Cochain]:
    rng = Random(SEED * 1_000_003 + n * 101 + k)
    cochains = [Cochain.basis(face) for face in enumerate_faces(n, k)]
    cochains += [random_cochain(rng, n, k) for _ in range(SAMPLES)]
    return cochains


def test_criterion_1_dimension_identity(capsys):
    ok = True
    for n in range(1, N_MAX + 1):
        for k in range(n + 1):
            faces = math.comb(n + 1, k + 1)
            unknowns = math.comb(n, k) * (n + 1)
            ok = ok and unknowns - k * faces == faces
            ok = ok and lambda_e_dimension(n, k) == faces
    _report(capsys, 1, "dimension identity", ok)
    assert ok


def test_criterion_2_degree_zero_case(capsys):
    rng = Random(SEED)
    ok = True
    for n in range(1, N_MAX + 1):
        nu = barycentric_functions(n)
        for i in range(n + 1):
            c = Cochain(n, 0, {(i,): Fraction(1)})
            form = whitney(c)
            ok = ok and form == AffineForm(n, 0, {(): nu[i]})
            ok = ok and derham(form) == c
            ok = ok and solve_characterization(n, 0, c) == form
        for _ in range(5):
            a = [
                Fraction(rng.randint(-10, 10), rng.randint(1, 10))
                for _ in range(n + 1)
            ]
            c = Cochain(n, 0, {(i,): a[i] for i in range(n + 1)})
            form = whitney(c)
            interpolant = AffineFunction(
                n, a[0], tuple(a[i] - a[0] for i in range(1, n + 1))
            )
            ok = ok and form == AffineForm(n, 0, {(): interpolant})
            ok = ok and derham(form) == c
            ok = ok and solve_characterization(n, 0, c) == form
    _report(capsys, 2, "degree-zero case", ok)
    assert ok


def test_criterion_3_top_degree_case(capsys):
    ok = True
    for n in range(1, N_MAX + 1):
        top = Face(n, tuple(range(n + 1)))
        form = whitney_basis_form(top)
        expected = AffineForm(
            n, n, {tuple(range(1, n + 1)): AffineFunction.const(n, math.factorial(n))}
        )
        ok = ok and form == expected
        ok = ok and integrate_over_face(form, top) == Fraction(1)
        c = Cochain.basis(top)
        ok = ok and derham(form) == c
        ok = ok and solve_characterization(n, n, c) == form
    _report(capsys, 3, "top-degree case", ok)
    assert ok


def test_criterion_4_constant_pullbacks(capsys):
    ok = True
    for n in range(1, N_MAX + 1):
        for k in range(n + 1):
            faces = enumerate_faces(n, k)
            for face in faces:
                form = whitney_basis_form(face)
                ok = ok and all(
                    is_constant(pullback(form, other)) for other in faces
                )
    _report(capsys, 4, "constant pullbacks", ok)
    assert ok


def test_criterion_5_integration_inverts_construction(capsys):
    ok = True
    for n in range(1, N_MAX + 1):
        for k in range(n + 1):
            for c in _seeded_cochains(n, k):
                ok = ok and derham(whitney(c)) == c
    _report(capsys, 5, "integration inverts construction", ok)
    assert ok


def test_criterion_6_uniqueness(capsys):
    ok = True
    for n in range(1, N_MAX + 1):
        for k in range(n + 1):
            ok = ok and bool(kernel_is_trivial(n, k))
            for c in _seeded_cochains(n, k):
                ok = ok and solve_characterization(n, k, c) == whitney(c)
    _report(capsys, 6, "uniqueness", ok)
    assert ok


def test_criterion_7_elimination_replay(capsys):
    ok = True
    for n in range(2, N_MAX + 1):
        for k in range(1, n):
            trace = proof_trace(n, k)
            killed = [label for step in trace["stage1"] for label in step["killed"]]
            killed += [step["killed"] for step in trace["stage2"]]
            ok = ok and trace["complete"] is True
            ok = ok and sorted(killed) == sorted(UnknownLayout(n, k).labels)
    _report(capsys, 7, "elimination replay", ok)
    assert ok


def test_criterion_8_quadrature_cross_check(capsys):
    rng = Random(SEED)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        form = random_affine_form(rng, n, k)
        faces = enumerate_faces(n, k)
        face = faces[rng.randrange(len(faces))]
        approx = quadrature_integral(form, face)
        exact = float(integrate_over_face(form, face))
        ok = ok and abs(exact - approx) <= 1e-12
        via_derham = float(cochain_eval(derham(form), face))
        ok = ok and abs(via_derham - approx) <= 1e-12
    _report(capsys, 8, "quadrature cross-check", ok)
    assert ok


def test_criterion_9_cli_verify_budget(capsys):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "whitneyforms", "verify", "--n-max", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    _report(capsys, 9, f"cli verify sweep ({elapsed:.1f}s)", ok)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
