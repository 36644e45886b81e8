"""Exact rationals and determinants, and the dense elimination oracles.

The wire format lives in ``whitneyforms.render``; ``det``, rank, kernel
and the solver are the tests' oracles in ``helpers``.
"""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LinearSolver, NoSolution, NotUnique, det, matvec, nullspace, rank
from whitneyforms.render import format_rational, parse_rational

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def solve(m, rhs):
    return LinearSolver(m).solve(rhs)


def test_parse_rational_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(4) == Fraction(4)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_rational_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    # only ASCII digits, in the numerator as in the denominator
    for junk in ("\uff11\uff12", "3/\uff14", "\u0661/\u0662", "\u0663", "-\uff15/2"):
        with pytest.raises(ValueError, match="not an exact rational"):
            parse_rational(junk)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4)) == "-4"
    assert format_rational(Fraction(0)) == "0"


def test_rank_of_dependent_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_full():
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[0] * 3] * 3)) == 0
    assert rank([]) == 0


def test_nullspace_of_dependent_rows():
    m = mat([[1, 2], [2, 4]])
    basis = nullspace(m, 2)
    assert len(basis) == 1
    v = basis[0]
    assert any(v) and all(x == 0 for x in matvec(m, v))


def test_nullspace_trivial():
    assert nullspace(mat([[1, 0], [0, 1]]), 2) == []
    assert nullspace([], 2) == [(1, 0), (0, 1)]


def test_solve_unique():
    m = mat([[2, 1], [1, -1]])
    x = solve(m, [Fraction(5), Fraction(1)])
    assert list(matvec(m, x)) == [Fraction(5), Fraction(1)]


def test_solve_underdetermined_raises():
    with pytest.raises(NotUnique):
        solve(mat([[1, 2], [2, 4]]), [Fraction(1), Fraction(2)])


def test_solve_inconsistent_raises():
    with pytest.raises(NoSolution):
        solve(mat([[1, 2], [2, 4]]), [Fraction(1), Fraction(3)])


def test_overdetermined_consistent():
    m = mat([[1, 0], [0, 1], [1, 1]])
    x = solve(m, [Fraction(2), Fraction(3), Fraction(5)])
    assert x == (Fraction(2), Fraction(3))


def test_det_known_values():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det([[int(i == j) for j in range(4)] for i in range(4)]) == 1
    assert det([]) == 1
    assert det(mat([[1, 2], [2, 4]])) == 0
    assert det([(0, 1), (1, 0)]) == -1
    with pytest.raises(ValueError, match="square"):
        det([[1, 2]])


def test_linear_solver_matches_one_shot_solve():
    m = mat([[2, 1], [1, -1], [3, 0]])
    solver = LinearSolver(m)
    for rhs in ([5, 1, 6], [0, 0, 0], [1, -2, -1]):
        rhs = [Fraction(x) for x in rhs]
        x = solver.solve(rhs)
        assert x == solve(m, rhs) and matvec(m, x) == tuple(rhs)


def test_linear_solver_detects_inconsistency():
    solver = LinearSolver(mat([[1, 0], [0, 1], [1, 1]]))
    with pytest.raises(NoSolution):
        solver.solve([Fraction(1), Fraction(1), Fraction(3)])


def test_linear_solver_detects_rank_deficiency():
    solver = LinearSolver(mat([[1, 2], [2, 4]]))
    assert solver.rank == 1
    with pytest.raises(NotUnique):
        solver.solve([Fraction(1), Fraction(2)])


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5
            ),
            st.lists(rationals, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solution_satisfies_system_when_unique(case):
    rows, x_true = case
    m = mat(rows)
    b = matvec(m, [Fraction(v) for v in x_true])
    try:
        x = solve(m, b)
    except NotUnique:
        assert rank(m) < len(x_true)
        return
    assert list(matvec(m, x)) == list(b)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=5
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity_is_width(rows):
    m = mat(rows)
    basis = nullspace(m, len(rows[0]))
    assert rank(m) + len(basis) == len(rows[0])
    for v in basis:
        assert all(x == 0 for x in matvec(m, v))


def test_the_package_imports_no_numpy():
    # a fresh interpreter: helpers, which the tests import, loads numpy for its oracles
    probe = "import sys, whitneyforms, whitneyforms.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
