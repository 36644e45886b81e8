"""The constraint system, its solution, its certificates, and the elimination replay."""

import json
import math
import re
import sys
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    LinearSolver,
    assert_no_dense_elimination,
    barycentric_closed_form,
    clear_caches,
    column_sum,
    dense_system,
    derham_columns,
    empty_first_stage2_integral,
    form_from_fractions,
    fraction_vector,
    nullspace,
    rank,
    run_cli,
    schedule_solve,
    transpose,
    unit_form,
    vertex_point,
)
from whitneyforms import (
    AffineForm,
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    UnknownLayout,
    characterize,
    enumerate_faces,
    is_constant,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    pullback,
    random_cochain,
    solve_characterization,
    verify_cell,
    whitney,
)
from whitneyforms import operators
from whitneyforms.characterize import (
    CertificateError,
    _certified,
    _first_differing_column,
    _schedule,
    _solution_plan,
    _solution_rows,
)
from whitneyforms.operators import (
    constancy_rows,
    derham_rows,
    pullback_rows,
    unknown_layout,
    whitney_plan,
    whitney_rows,
)
from whitneyforms.simplicial import permutation_sign

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
    q = math.lcm(*(v.denominator for v in vec))
    ints = tuple(v.numerator * (q // v.denominator) for v in vec)
    form = AffineForm.from_vector(2, 1, ints, q)
    assert (form.vec, form.q) == (ints, q)
    assert fraction_vector(form) == vec
    # the coeffs view reads the same rationals, block by block
    for idx in layout.multi_indices:
        f = form.coeffs[idx]
        base = layout.position(idx)
        assert (f.constant, *f.gradient) == vec[base : base + 3]
    assert AffineForm(2, 1, form.coeffs) == form


def test_layout_unit_forms_match_positions():
    layout = UnknownLayout(2, 1)
    for idx in layout.multi_indices:
        b = unit_form(2, 1, layout.position(idx))
        assert b.coeffs[idx].constant == 1 and b.coeffs[idx].is_constant
        for j in range(1, 3):
            a = unit_form(2, 1, layout.position(idx, j))
            f = a.coeffs[idx]
            assert f.constant == 0 and f.gradient[j - 1] == 1


def _shape(n, k):
    """(constancy rows, integral rows, unknowns) of the system at (n, k)."""
    constancy = [row for rows in constancy_rows(n, k) for row in rows]
    return len(constancy), len(derham_rows(n, k)), unknown_layout(n, k).size


def _apply(rows, vec):
    """Sparse integer rows times a rational vector."""
    return [sum((value * vec[pos] for pos, value in row), Fraction(0)) for row in rows]


def test_system_shapes():
    assert _shape(2, 1) == (3, 3, 6)
    assert _shape(3, 1) == (6, 6, 12)
    assert _shape(2, 0) == (0, 3, 3)
    # square: k constancy rows and one integral row per face
    for n in range(1, 7):
        for k in range(n + 1):
            rows, integrals, size = _shape(n, k)
            assert rows + integrals == size == (k + 1) * math.comb(n + 1, k + 1)


def test_system_rhs_follows_face_order():
    # the integral rows follow the layout's faces, so the right-hand side does too
    c = Cochain(2, 1, {(0, 1): Fraction(7), (1, 2): Fraction(-2)})
    layout = unknown_layout(2, 1)
    assert layout.faces == ((0, 1), (0, 2), (1, 2))
    vec = fraction_vector(whitney(c))
    assert _apply(derham_rows(2, 1), vec) == [Fraction(14), Fraction(0), Fraction(-4)]


def test_whitney_form_satisfies_the_system():
    c = random_cochain(Random(3), 3, 2)
    layout = unknown_layout(3, 2)
    vec = fraction_vector(whitney(c))
    constancy = [row for rows in constancy_rows(3, 2) for row in rows]
    assert _apply(constancy, vec) == [0] * len(constancy)
    # D~ = D * 3! maps the form to 3! times its face integrals
    expected = [6 * c.terms.get(face, Fraction(0)) for face in layout.faces]
    assert _apply(derham_rows(3, 2), vec) == expected


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
            constancy, _ = dense_system(n, k)
            assert rank(constancy) == k * faces
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
            with pytest.raises(CertificateError, match="disagrees with the closed form"):
                characterize._closed_form_check(n, k, c, moved)


def test_kernel_is_trivial_everywhere_small():
    for n in range(1, 5):
        for k in range(n + 1):
            assert kernel_is_trivial(n, k) is True
            # the dense oracle agrees: [C; D] has no kernel
            constancy, integrals = dense_system(n, k)
            assert nullspace(constancy + integrals, unknown_layout(n, k).size) == []


def test_trace_two_one_exact_content():
    assert proof_trace(2, 1) == {
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


def test_trace_is_a_fresh_json_record():
    # built on each call from the cached schedule: changing one record changes no later one
    trace = proof_trace(3, 1)
    assert json.loads(json.dumps(trace)) == trace
    before = json.dumps(trace)
    trace["stage1"][0]["killed"].clear()
    trace["stage2"].clear()
    assert json.dumps(proof_trace(3, 1)) == before


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
            assert list(trace) == ["n", "k", "stage1", "stage2", "complete"]
            assert (trace["n"], trace["k"], trace["complete"]) == (n, k, True)
            assert len(trace["stage1"]) == math.comb(n, k)
            assert all(len(s["killed"]) == k + 1 for s in trace["stage1"])
            assert len(trace["stage2"]) == math.comb(n, k) * (n - k)
            killed = [label for s in trace["stage1"] for label in s["killed"]]
            killed += [s["killed"] for s in trace["stage2"]]
            layout = UnknownLayout(n, k)
            assert sorted(killed) == sorted(layout.labels)


def test_trace_stage1_uses_faces_through_origin():
    trace = proof_trace(3, 2)
    assert [s["face"] for s in trace["stage1"]] == [
        [0, 1, 2],
        [0, 1, 3],
        [0, 2, 3],
    ]
    for step in trace["stage2"]:
        assert step["m"] not in step["L"]
        assert step["killed"] == f"a_({','.join(map(str, step['L']))}),{step['m']}"


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
    constancy, integrals = dense_system(n, k)
    solver = LinearSolver(constancy + integrals)
    for c in _oracle_cochains(n, k):
        rhs = [Fraction(0)] * (k * len(layout.faces))
        rhs += [c.terms.get(face, Fraction(0)) for face in layout.faces]
        expected = form_from_fractions(n, k, solver.solve(rhs))
        assert solve_characterization(n, k, c) == expected


@pytest.mark.parametrize("n,k", CELLS + [(8, 4)])
def test_solve_matches_the_schedule_walk(n, k):
    # the cached operator S against a per-call walk over the whole schedule
    for c in _oracle_cochains(n, k):
        assert solve_characterization(n, k, c) == schedule_solve(n, k, c)


def test_an_inexact_pivot_fails_every_solve_of_its_cell(monkeypatch):
    # exactness is certified once per (n, k), when S is built: a stage-1
    # integral step whose pivot 2 no longer divides its right-hand side fails
    # the zero cochain too, while the replay, which divides nothing, builds
    clear_caches()
    schedule = _schedule(2, 1)
    integral = next(step for step in schedule if step.scale)
    assert (integral.pivot, integral.scale) == (2, 2)
    inexact = integral._replace(scale=1)
    broken = tuple(inexact if step is integral else step for step in schedule)
    monkeypatch.setattr(characterize, "_schedule", lambda n, k: broken)
    clear_caches()
    try:
        for c in (Cochain.zero(2, 1), Cochain.basis(Face(2, (1, 2)))):
            with pytest.raises(CertificateError, match=r"inexact pivot at \(n=2, k=1\)"):
                solve_characterization(2, 1, c)
        assert proof_trace(2, 1)["complete"] is True
    finally:
        clear_caches()


def _corrupt_first_stage2_coefficient(monkeypatch, delta):
    """Add delta times its pivot to the first coefficient of the first stage-2 step at (4, 2).

    Every division stays exact, but entries of S/k! move; the replay, which
    only formats the schedule, still builds.
    """
    clear_caches()
    schedule = _schedule(4, 2)
    faces = unknown_layout(4, 2).faces
    step = next(s for s in schedule if faces[s.face][0] and s.others)
    (pos, value), *rest = step.others
    corrupted = step._replace(others=((pos, value + delta * step.pivot), *rest))
    broken = tuple(corrupted if s is step else s for s in schedule)
    monkeypatch.setattr(characterize, "_schedule", lambda n, k: broken)
    clear_caches()


DIFFERS_AT_4_2 = "S/k! at (n=4, k=2) differs from W/k! in the column of face [0, 1, 2]"


def test_a_corrupted_solution_entry_fails_every_solve_of_its_cell(monkeypatch):
    # the solve runs W/k!'s rows only once S/k! equals W/k!. Here the corrupted
    # entries stay in {-1, 0, 1}, and S/k! no longer equals W/k!: every solve
    # of the cell raises, naming the first column that differs
    _corrupt_first_stage2_coefficient(monkeypatch, -1)
    try:
        basis = [Cochain.basis(face) for face in enumerate_faces(4, 2)]
        assert any(schedule_solve(4, 2, c) != whitney(c) for c in basis)
        assert {v for row in _solution_rows(4, 2) for _, v in row} == {1, -1}
        for c in [Cochain.zero(4, 2), *basis, random_cochain(Random(3), 4, 2)]:
            with pytest.raises(CertificateError, match=re.escape(DIFFERS_AT_4_2)):
                solve_characterization(4, 2, c)
        assert proof_trace(4, 2)["complete"] is True
    finally:
        clear_caches()


def test_a_solution_entry_off_plus_minus_one_fails_every_solve_of_its_cell(monkeypatch):
    # moved the other way, the same coefficient makes an entry of S/k! -2 with
    # every division still exact; W/k! has none, so S/k! differs from it, every
    # solve of the cell raises and verify marks the characterization false
    _corrupt_first_stage2_coefficient(monkeypatch, 1)
    try:
        assert -2 in {v for row in _solution_rows(4, 2) for _, v in row}
        basis = [Cochain.basis(face) for face in enumerate_faces(4, 2)]
        for c in [Cochain.zero(4, 2), *basis, random_cochain(Random(3), 4, 2)]:
            with pytest.raises(CertificateError, match=re.escape(DIFFERS_AT_4_2)):
                solve_characterization(4, 2, c)
        assert proof_trace(4, 2)["complete"] is True
        cell = verify_cell(4, 2, samples=2)
    finally:
        clear_caches()
    assert (cell["characterization"], cell["pass"]) == (False, False)
    assert all(cell[name] for name in ("dimension", "rw_identity", "kernel", "proof_trace"))
    assert cell["counterexample"] == {
        "check": "characterization",
        "cochain": {"n": 4, "k": 2, "terms": [{"face": [0, 1, 2], "coeff": "1"}]},
    }


def test_the_schedule_builds_no_pullback(monkeypatch):
    # stage 2 combines the cached rows of C and D~, so no T_G is built
    assert not {"pullback_rows", "permutation_sign"} & set(vars(characterize))

    def refuse(*args):
        raise AssertionError("a pullback was built")

    constancy_rows(5, 2), derham_rows(5, 2)
    monkeypatch.setattr(operators, "pullback_rows", refuse)
    _schedule.cache_clear()
    try:
        assert len(_schedule(5, 2)) == unknown_layout(5, 2).size
    finally:
        _schedule.cache_clear()


@pytest.mark.parametrize("n", range(1, 9))
def test_stage2_steps_are_the_value_at_vertex_rows(n):
    # the step of (L, m) is sigma (k+1) times r(m, L) = T_{(m, *L)}[b'], the
    # value at vertex m of the coefficient pulled back to the face [m, *L]
    for k in range(n):
        layout = unknown_layout(n, k)
        pairs = []
        for step in _schedule(n, k):
            if layout.faces[step.face][0] == 0:
                continue
            block, m = divmod(step.target, n + 1)
            span = layout.multi_indices[block]
            pairs.append((span, m))
            factor = permutation_sign((m, *span)) * (k + 1)
            r = dict(next(pullback_rows(n, k, (m, *span))))
            assert r.pop(step.target) == 1
            assert step.pivot == factor
            assert dict(step.others) == {pos: factor * v for pos, v in r.items()}
            assert layout.faces[step.face] == tuple(sorted((m, *span)))
            assert step.scale == math.factorial(k + 1)
        every = [(span, m) for span in layout.multi_indices for m in range(1, n + 1) if m not in span]
        assert pairs == every


def test_solved_coefficients_are_fractions():
    for n, k in [(2, 0), (3, 1), (4, 2), (3, 3)]:
        for c in [Cochain.basis(enumerate_faces(n, k)[-1]), random_cochain(Random(n + k), n, k)]:
            form = solve_characterization(n, k, c)
            for f in form.coeffs.values():
                assert type(f.constant) is Fraction
                assert all(type(g) is Fraction for g in f.gradient)


def _isolates_nothing(n, k):
    # D~ without the row of [1, ..., k+1], which the first stage-2 step reads
    return empty_first_stage2_integral(n, k)


@pytest.mark.parametrize("row", [_isolates_nothing])
def test_broken_stage2_row_fails_every_certificate_alike(monkeypatch, row):
    # one schedule, one failure: the solve, the replay and the count raise
    # the schedule's own CertificateError, and the kernel is not certified
    monkeypatch.setattr(characterize, "derham_rows", row)
    clear_caches()
    try:
        messages = []
        for call in (
            lambda: solve_characterization(3, 1, random_cochain(Random(1), 3, 1)),
            lambda: proof_trace(3, 1),
            lambda: lambda_e_dimension(3, 1),
        ):
            with pytest.raises(CertificateError) as info:
                call()
            messages.append(str(info.value))
        assert kernel_is_trivial(3, 1) is False
    finally:
        clear_caches()
    assert messages[0] == "a row on face [1, 2] does not isolate a_(1),2"
    assert messages == [messages[0]] * 3


def test_schedule_rejects_a_stage1_row_off_its_unknown(monkeypatch):
    # a constancy row that isolates the wrong gradient unknown is refused by
    # the schedule itself, so the solver cannot run along it either
    rows = [list(face_rows) for face_rows in characterize.constancy_rows(2, 1)]
    rows[0][0] = ((unknown_layout(2, 1).position((1,), 2), 1),)
    monkeypatch.setattr(characterize, "constancy_rows", lambda n, k: rows)
    clear_caches()
    try:
        with pytest.raises(CertificateError, match=r"face \[0, 1\] does not isolate a_\(1\),1"):
            solve_characterization(2, 1, Cochain.zero(2, 1))
        with pytest.raises(CertificateError, match="does not isolate a_"):
            proof_trace(2, 1)
    finally:
        clear_caches()


ADMITTED_EDGE_CELLS = [(24, 1), (24, 23), (60, 0), (60, 60)]


def test_every_admitted_cell_is_certified():
    # every cell the unknown cap admits: all of n <= 8, and the edge cells
    # (n, 1), (n, n-1), (n, 0), (n, n) with at most 630 unknowns
    cells = [(n, k) for n in range(1, 9) for k in range(n + 1)] + ADMITTED_EDGE_CELLS
    for n, k in cells:
        assert len(_schedule(n, k)) == unknown_layout(n, k).size
        assert _certified(n, k, whitney_rows(n, k)) == (None, None)
        # S/k! and W/k!, both by rows whose every entry is +-1; equal rows, so the
        # solve runs W/k!'s plan
        assert _solution_rows(n, k) == whitney_rows(n, k)
        assert _solution_plan(n, k) is whitney_plan(n, k)
        assert all(v in (1, -1) for row in whitney_rows(n, k) for _, v in row)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (7, 3)])
def test_certificates_need_no_dense_elimination(n, k):
    assert_no_dense_elimination()
    clear_caches()
    try:
        faces = math.comb(n + 1, k + 1)
        assert lambda_e_dimension(n, k) == faces
        assert kernel_is_trivial(n, k) is True
        result = run_cli(["dims", "--n", str(n)])
        assert result.exit_code == 0
        row = json.loads(result.output)["rows"][k]
        assert (row["constancy_rank"], row["dimension"], row["match"]) == (k * faces, faces, True)
        assert verify_cell(n, k, samples=2)["pass"]
    finally:
        clear_caches()


@pytest.mark.parametrize("row", [_isolates_nothing])
def test_broken_schedule_is_a_hard_failure(monkeypatch, row):
    assert_no_dense_elimination()
    monkeypatch.setattr(characterize, "derham_rows", row)
    clear_caches()
    try:
        with pytest.raises(CertificateError, match=r"a row on face \[1, 2\] does not isolate"):
            lambda_e_dimension(3, 1)
        assert kernel_is_trivial(3, 1) is False
        cell = verify_cell(3, 1, samples=2)
        result = run_cli(["dims", "--n", "3", "--k", "1"])
    finally:
        clear_caches()
    assert not cell["pass"]
    assert (cell["dimension"], cell["kernel"], cell["proof_trace"]) == (False, False, False)
    assert cell["counterexample"]["check"] == "dimension"
    assert cell["counterexample"]["error"].startswith("a row on face [1, 2] does not isolate")
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("certification failed: a row on face [1, 2] does not isolate")
    # the certificate failed, not the theorem: the dense oracle still finds no kernel
    constancy, integrals = dense_system(3, 1)
    assert nullspace(constancy + integrals, 12) == []


def _column_wise(solution, whitney, faces):
    """The first differing column, read by transposing both to columns and zipping them."""
    pairs = zip(transpose(solution, faces), transpose(whitney, faces))
    return next((i for i, (s, w) in enumerate(pairs) if s != w), None)


def test_the_solve_and_verify_find_the_first_differing_column_alike():
    # one helper names the first column where S/k! and W/k! differ, for the solve's
    # refusal and for verify's characterization check
    rows = whitney_rows(4, 2)
    assert _first_differing_column(rows, rows) is None
    # column 3 negated, and face 7 in a row without face 3: both columns differ, 3 first
    broken = [tuple((i, -v if i == 3 else v) for i, v in row) for row in rows]
    p = next(p for p, row in enumerate(rows) if 7 in dict(row) and 3 not in dict(row))
    broken[p] = tuple((i, -v if i == 7 else v) for i, v in rows[p])
    for a, b in ((broken, rows), (rows, broken)):
        assert _first_differing_column(a, b) == 3 == _column_wise(a, b, 10)
    assert sys.modules["whitneyforms.verify"]._first_differing_column is _first_differing_column


@pytest.mark.parametrize("n", range(1, 6))
def test_the_first_differing_column_by_rows_is_the_column_wise_one(n):
    # S/k! rows with one entry flipped, dropped or added, against the answer read
    # off the transposed columns; also with two such changes at once
    rng = Random(n)
    for k in range(n + 1):
        rows, faces = _solution_rows(n, k), Cochain.size(n, k)
        assert _first_differing_column(rows, whitney_rows(n, k)) is None
        cases = []
        for p, row in enumerate(rows):
            for e, (i, v) in enumerate(row):
                flipped, dropped = list(row), list(row)
                flipped[e] = (i, -v)
                del dropped[e]
                cases += [{p: tuple(flipped)}, {p: tuple(dropped)}]
            missing = sorted(set(range(faces)) - {i for i, _ in row})
            for i in missing[:: max(1, len(missing) // 3)]:
                cases.append({p: tuple(sorted([*row, (i, rng.choice((1, -1)))]))})
        cases += [first | second for first, second in zip(cases, cases[::-1])]
        for case in cases:
            broken = [case.get(p, row) for p, row in enumerate(rows)]
            expected = _column_wise(broken, rows, faces)
            assert expected is not None
            assert _first_differing_column(broken, whitney_rows(n, k)) == expected
            assert _first_differing_column(whitney_rows(n, k), broken) == expected


def test_a_solution_off_a_broken_whitney_is_refused(monkeypatch):
    # the solve runs W/k!'s rows only once S/k! equals W/k!: with the first +1 of
    # W/k!'s column 0 dropped where characterize reads it, S/k! builds, and every
    # solve refuses, naming the first column that differs
    rows = list(characterize.whitney_rows(3, 1))
    p = next(p for p, row in enumerate(rows) if (0, 1) in row)
    rows[p] = tuple(entry for entry in rows[p] if entry != (0, 1))
    monkeypatch.setattr(characterize, "whitney_rows", lambda n, k: tuple(rows))
    clear_caches()
    message = "S/k! at (n=3, k=1) differs from W/k! in the column of face [0, 1]"
    try:
        assert _solution_rows(3, 1) != tuple(rows)
        with pytest.raises(CertificateError, match=re.escape(message)):
            _solution_plan(3, 1)
        for c in [Cochain.zero(3, 1), random_cochain(Random(5), 3, 1)]:
            with pytest.raises(CertificateError, match=re.escape(message)):
                solve_characterization(3, 1, c)
        cochain = '{"n": 3, "k": 1, "terms": [{"face": [0, 1], "coeff": "1"}]}'
        result = run_cli(["characterize", "--n", "3", "--k", "1", "--cochain", cochain])
    finally:
        clear_caches()
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == f"characterization failed: {message}\n"


def test_a_broken_whitney_plan_fails_the_dimension(monkeypatch):
    # the rows are read off whitney_plan, so the certificate C.X = 0,
    # D~.X = (k+1) I covers the rows that whitney and the solve run. A group of
    # (3, 1) is (f0, f1, f2, p0, p1), p0 written with +t and p1 with -t: swapped,
    # each of its positions is written with the wrong sign
    kernel, copies, groups = operators.whitney_plan(3, 1)
    broken = list(groups)
    f0, f1, f2, p0, p1 = broken[2]
    broken[2] = (f0, f1, f2, p1, p0)
    plan = (kernel, copies, tuple(broken))
    real = operators.whitney_plan
    monkeypatch.setattr(
        operators, "whitney_plan", lambda n, k: plan if (n, k) == (3, 1) else real(n, k)
    )
    clear_caches()
    try:
        assert _certified(3, 1, operators.whitney_rows(3, 1))[1] is not None
        with pytest.raises(CertificateError, match="Whitney columns"):
            lambda_e_dimension(3, 1)
        cell = verify_cell(3, 1, samples=2)
    finally:
        clear_caches()
    assert cell["dimension"] is False and cell["pass"] is False
    assert cell["counterexample"] == {
        "check": "dimension",
        "error": "the Whitney columns at (n=3, k=1) fail C.(W/k!) = 0, D~.(W/k!) = (k+1) I",
    }


def test_broken_whitney_column_fails_the_dimension_only(monkeypatch):
    # e(a_(2),3) + e(a_(3),2) lies in ker D~ but not in ker C: added to column 0,
    # that is +1 on face 0 in the rows of those two unknowns, it
    # breaks C.(W/k!) = 0 and keeps D~.(W/k!) = (k+1) I, so the one product that
    # both checks read marks the dimension false and the round trip, which
    # ignores the constancy rows, true
    layout = unknown_layout(3, 1)
    extra = tuple(layout.labels.index(label) for label in ("a_(2),3", "a_(3),2"))
    z = [int(p in extra) for p in range(layout.size)]
    assert column_sum(derham_columns(3, 1), z, 6) == [0] * 6
    constancy = [row for rows in constancy_rows(3, 1) for row in rows]
    assert any(sum(v * z[p] for p, v in row) for row in constancy)
    rows = list(characterize.whitney_rows(3, 1))
    assert all(0 not in dict(rows[p]) for p in extra)
    for p in extra:
        rows[p] = ((0, 1), *rows[p])
    monkeypatch.setattr(characterize, "whitney_rows", lambda n, k: tuple(rows))
    clear_caches()
    try:
        with pytest.raises(CertificateError, match="Whitney columns"):
            lambda_e_dimension(3, 1)
        assert kernel_is_trivial(3, 1) is True
        cell = verify_cell(3, 1, samples=2)
    finally:
        clear_caches()
    # the kernel needs only the schedule, the dimension needs W too
    assert (cell["dimension"], cell["kernel"], cell["pass"]) == (False, True, False)
    assert all(cell[name] for name in ("rw_identity", "characterization", "proof_trace"))
    assert cell["counterexample"] == {
        "check": "dimension",
        "error": "the Whitney columns at (n=3, k=1) fail C.(W/k!) = 0, D~.(W/k!) = (k+1) I",
    }
