"""The constraint system, its solution, kernel, and the elimination replay."""

import json
import math
from fractions import Fraction
from random import Random

import pytest
from click.testing import CliRunner

from helpers import barycentric_closed_form, clear_caches
from whitneyforms import (
    AffineForm,
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    UnknownLayout,
    build_system,
    characterize,
    enumerate_faces,
    is_constant,
    kernel_is_trivial,
    lambda_e_dimension,
    linalg,
    proof_trace,
    pullback,
    random_cochain,
    solve_characterization,
    verify_cell,
    vertex_point,
    whitney,
)
from whitneyforms.characterize import Inconsistent, NonUnique, TraceIncomplete, _system_matrices
from whitneyforms.cli import main
from whitneyforms.linalg import LinearSolver, matvec, rank, vstack
from whitneyforms.operators import unknown_layout

CELLS = [(n, k) for n in range(1, 7) for k in range(n + 1)] + [(7, 3)]


def test_layout_size_and_labels():
    layout = UnknownLayout(3, 1)
    assert layout.size == 12
    assert layout.multi_indices == ((1,), (2,), (3,))
    assert layout.labels[:4] == ("b_(1)", "a_(1),1", "a_(1),2", "a_(1),3")
    assert layout.label((1, 2)) == "b_(1,2)"
    assert layout.label((1, 2), 3) == "a_(1,2),3"
    assert layout.position((2,)) == 4
    assert layout.position((2,), 3) == 7
    assert len(layout.labels) == len(set(layout.labels)) == layout.size


def test_layout_vector_round_trip():
    layout = UnknownLayout(2, 1)
    rng = Random(5)
    vec = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(layout.size))
    form = layout.form_from_vector(vec)
    assert layout.vector_from_form(form) == vec


def test_layout_unit_forms_match_positions():
    layout = UnknownLayout(2, 1)
    for idx in layout.multi_indices:
        b = layout.unit_forms[layout.position(idx)]
        assert b.coeffs[idx].constant == 1 and b.coeffs[idx].is_constant
        for j in range(1, 3):
            a = layout.unit_forms[layout.position(idx, j)]
            f = a.coeffs[idx]
            assert f.constant == 0 and f.gradient[j - 1] == 1


def test_system_shapes():
    sys21 = build_system(2, 1)
    assert (sys21.constancy.rows, sys21.constancy.cols) == (3, 6)
    assert (sys21.integrals.rows, sys21.integrals.cols) == (3, 6)
    assert sys21.stacked.rows == 6
    sys31 = build_system(3, 1)
    assert (sys31.constancy.rows, sys31.constancy.cols) == (6, 12)
    assert (sys31.integrals.rows, sys31.integrals.cols) == (6, 12)
    sys20 = build_system(2, 0)
    assert sys20.constancy.rows == 0
    assert sys20.integrals.rows == 3


def test_system_rhs_follows_face_order():
    c = Cochain(2, 1, {(0, 1): Fraction(7), (1, 2): Fraction(-2)})
    system = build_system(2, 1, c)
    assert system.values == (Fraction(7), Fraction(0), Fraction(-2))
    assert system.rhs == (Fraction(0),) * 3 + (Fraction(7), Fraction(0), Fraction(-2))
    with pytest.raises(DegreeMismatch):
        build_system(2, 1, Cochain(2, 0, {(0,): Fraction(1)}))


def test_whitney_form_satisfies_the_system():
    c = random_cochain(Random(3), 3, 2)
    system = build_system(3, 2, c)
    vec = system.layout.vector_from_form(whitney(c))
    assert matvec(system.stacked, vec) == system.rhs


def test_dimension_count_small_cases():
    assert lambda_e_dimension(3, 1) == 6
    assert lambda_e_dimension(4, 2) == 10
    for n in range(1, 6):
        assert lambda_e_dimension(n, n) == 1
        assert lambda_e_dimension(n, 0) == n + 1


def test_dimension_identity_up_to_five():
    for n in range(1, 6):
        for k in range(n + 1):
            faces = math.comb(n + 1, k + 1)
            unknowns = math.comb(n, k) * (n + 1)
            assert lambda_e_dimension(n, k) == faces
            # the constancy rows are independent: rank is exactly k per face
            system = build_system(n, k)
            assert rank(system.constancy) == k * faces
            assert unknowns - k * faces == faces


def test_solution_matches_construction_on_random_data():
    for n in range(1, 5):
        for k in range(n + 1):
            rng = Random(100 + 10 * n + k)
            for _ in range(3):
                c = random_cochain(rng, n, k)
                assert solve_characterization(n, k, c) == whitney(c)


def test_solution_has_constant_pullbacks():
    c = random_cochain(Random(17), 3, 1)
    form = solve_characterization(3, 1, c)
    for face in enumerate_faces(3, 1):
        assert is_constant(pullback(form, face))


def test_solve_rejects_mismatched_cochain():
    with pytest.raises(DegreeMismatch):
        solve_characterization(2, 1, Cochain(2, 0, {(0,): Fraction(1)}))


def test_closed_form_agreement_at_extreme_degrees():
    # degree 0: the solution interpolates the vertex values
    c0 = Cochain(2, 0, {(0,): Fraction(2), (1,): Fraction(-1), (2,): Fraction(1, 2)})
    form0 = solve_characterization(2, 0, c0)
    f = form0.coeffs[()]
    assert f(vertex_point(2, 0)) == Fraction(2)
    assert f(vertex_point(2, 1)) == Fraction(-1)
    assert f(vertex_point(2, 2)) == Fraction(1, 2)
    # degree n: n! times the single integral, constant coefficient
    c2 = Cochain(2, 2, {(0, 1, 2): Fraction(5, 3)})
    form2 = solve_characterization(2, 2, c2)
    coeff = form2.coeffs[(1, 2)]
    assert coeff.is_constant and coeff.constant == Fraction(10, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_check_is_the_barycentric_construction(n):
    # the check writes the k = 0 and k = n forms down directly; the oracle
    # builds them from barycentric coordinates and wedge products
    rng = Random(n)
    x1 = AffineFunction(n, 0, (Fraction(1),) + (Fraction(0),) * (n - 1))
    for k in (0, n):
        cochains = [Cochain.zero(n, k)] + [Cochain.basis(f) for f in enumerate_faces(n, k)]
        cochains += [random_cochain(rng, n, k) for _ in range(3)]
        for c in cochains:
            expected = barycentric_closed_form(c)
            characterize._closed_form_check(n, k, c, expected)
            assert solve_characterization(n, k, c) == expected
            moved = expected + AffineForm(n, k, {tuple(range(1, k + 1)): x1})
            with pytest.raises(Inconsistent, match="disagrees with the closed form"):
                characterize._closed_form_check(n, k, c, moved)


def test_kernel_is_trivial_everywhere_small():
    for n in range(1, 5):
        for k in range(n + 1):
            report = kernel_is_trivial(n, k)
            assert report.trivial and bool(report)
            assert report.certificate == ()


def test_trace_two_one_exact_content():
    trace = proof_trace(2, 1)
    assert trace.to_json() == {
        "n": 2,
        "k": 1,
        "stage1": [
            {"face": [0, 1], "killed": ["b_(1)", "a_(1),1"]},
            {"face": [0, 2], "killed": ["b_(2)", "a_(2),2"]},
        ],
        "stage2": [
            {"L": [1], "m": 2, "killed": "a_(1),2"},
            {"L": [2], "m": 1, "killed": "a_(2),1"},
        ],
        "complete": True,
    }


def test_trace_rejects_extreme_degrees():
    with pytest.raises(BadDegree):
        proof_trace(2, 0)
    with pytest.raises(BadDegree):
        proof_trace(2, 2)
    with pytest.raises(BadDegree):
        proof_trace(1, 1)


def test_trace_counts_and_partition():
    for n in range(2, 6):
        for k in range(1, n):
            trace = proof_trace(n, k)
            assert trace.complete
            assert len(trace.stage1) == math.comb(n, k)
            assert all(len(s.killed) == k + 1 for s in trace.stage1)
            assert len(trace.stage2) == math.comb(n, k) * (n - k)
            killed = [label for s in trace.stage1 for label in s.killed]
            killed += [s.killed for s in trace.stage2]
            layout = UnknownLayout(n, k)
            assert sorted(killed) == sorted(layout.labels)


def test_trace_stage1_uses_faces_through_origin():
    trace = proof_trace(3, 2)
    assert [s.face for s in trace.stage1] == [
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 3),
    ]
    for step in trace.stage2:
        assert step.m not in step.multi_index
        assert step.killed == f"a_({','.join(map(str, step.multi_index))}),{step.m}"


def _oracle_cochains(n, k):
    """Every basis cochain, two small random ones and a 62-bit random one."""
    rng = Random(300 * n + k)
    cochains = [Cochain.basis(face) for face in enumerate_faces(n, k)]
    cochains += [random_cochain(rng, n, k) for _ in range(2)]
    big = 2**62
    cochains.append(
        Cochain(
            n,
            k,
            {
                face.vertices: Fraction(rng.randrange(-big, big), rng.randrange(1, big))
                for face in enumerate_faces(n, k)
            },
        )
    )
    return cochains


@pytest.mark.parametrize("n,k", CELLS)
def test_solve_matches_the_dense_solver(n, k):
    layout = unknown_layout(n, k)
    solver = LinearSolver(vstack(*_system_matrices(n, k)))
    for c in _oracle_cochains(n, k):
        rhs = [Fraction(0)] * (k * len(layout.faces))
        rhs += [c.terms.get(face, Fraction(0)) for face in layout.faces]
        expected = layout.form_from_vector(solver.solve(rhs))
        assert solve_characterization(n, k, c) == expected


def test_solved_coefficients_are_fractions():
    for n, k in [(2, 0), (3, 1), (4, 2), (3, 3)]:
        for c in [Cochain.basis(enumerate_faces(n, k)[-1]), random_cochain(Random(n + k), n, k)]:
            form = solve_characterization(n, k, c)
            for f in form.coeffs.values():
                assert type(f.constant) is Fraction
                assert all(type(g) is Fraction for g in f.gradient)


def _isolates_nothing(n, k, m, span):
    return ()


def _outside_the_row_space(n, k, m, span):
    # isolates the right unknown, but is not a combination of the face's rows
    return ((unknown_layout(n, k).position(span, m), 1),)


@pytest.mark.parametrize(
    "row,error", [(_isolates_nothing, NonUnique), (_outside_the_row_space, Inconsistent)]
)
def test_broken_stage2_row_is_reported(monkeypatch, row, error):
    monkeypatch.setattr(characterize, "constant_term_row", row)
    characterize._schedule.cache_clear()
    try:
        with pytest.raises(error):
            solve_characterization(3, 1, random_cochain(Random(1), 3, 1))
        with pytest.raises(TraceIncomplete):
            proof_trace(3, 1)
    finally:
        characterize._schedule.cache_clear()


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (7, 3)])
def test_certificates_need_no_dense_elimination(monkeypatch, n, k):
    def refuse(*args, **kwargs):
        raise AssertionError("dense elimination behind a certificate")

    monkeypatch.setattr(linalg, "_rref", refuse)
    clear_caches()
    try:
        faces = math.comb(n + 1, k + 1)
        assert lambda_e_dimension(n, k) == faces
        report = kernel_is_trivial(n, k)
        assert report.trivial and report.certificate == ()
        result = CliRunner().invoke(main, ["dims", "--n", str(n)])
        assert result.exit_code == 0
        row = json.loads(result.output)["rows"][k]
        assert (row["constancy_rank"], row["dimension"], row["match"]) == (k * faces, faces, True)
        assert verify_cell(n, k, samples=2)["pass"]
    finally:
        clear_caches()


def _spy_dense(monkeypatch):
    """Record every call of the dense rank and nullspace that characterize makes."""
    calls = []
    for name in ("rank", "nullspace"):
        dense = getattr(characterize, name)

        def spy(*args, _name=name, _dense=dense, **kwargs):
            calls.append(_name)
            return _dense(*args, **kwargs)

        monkeypatch.setattr(characterize, name, spy)
    return calls


@pytest.mark.parametrize("row", [_isolates_nothing, _outside_the_row_space])
def test_broken_schedule_falls_back_to_the_dense_verdict(monkeypatch, row):
    calls = _spy_dense(monkeypatch)
    monkeypatch.setattr(characterize, "constant_term_row", row)
    clear_caches()
    try:
        assert lambda_e_dimension(3, 1) == 6
        report = kernel_is_trivial(3, 1)
        assert report.trivial and report.certificate == ()
    finally:
        clear_caches()
    assert calls == ["rank", "nullspace"]


def test_broken_whitney_column_falls_back_to_the_dense_rank(monkeypatch):
    calls = _spy_dense(monkeypatch)
    columns = dict(characterize.whitney_columns(3, 1))
    face = next(iter(columns))
    columns[face] = columns[face][1:]
    monkeypatch.setattr(characterize, "whitney_columns", lambda n, k: columns)
    clear_caches()
    try:
        assert lambda_e_dimension(3, 1) == 6
        assert kernel_is_trivial(3, 1).trivial
    finally:
        clear_caches()
    # the kernel needs only the schedule, the dimension needs W too
    assert calls == ["rank"]
