"""Sweep driver: per-cell results, report shape, and failure reporting."""

import sys
from collections import Counter
from random import Random

import pytest

import whitneyforms.verify as verify_module
from helpers import clear_caches, column_image, transpose
from whitneyforms import (
    Cochain,
    Face,
    UnknownLayout,
    characterize,
    cochain_to_json,
    derham,
    random_cochain,
    solve_characterization,
    whitney,
)
from whitneyforms.characterize import (
    CertificateError,
    _certified,
    _solution_rows,
    _whitney_certificate,
)
from whitneyforms.operators import factorial_image, whitney_rows
from whitneyforms.verify import run_verification, verify_cell


def test_cell_passes_and_has_all_checks():
    cell = verify_cell(2, 1, samples=3)
    assert cell["pass"] is True
    assert "counterexample" not in cell
    for name in verify_module.CHECK_NAMES:
        assert cell[name] is True


def test_trace_check_skipped_at_extreme_degrees():
    assert verify_cell(2, 0, samples=1)["proof_trace"] is None
    assert verify_cell(2, 2, samples=1)["proof_trace"] is None
    assert verify_cell(3, 1, samples=1)["proof_trace"] is True


def test_report_shape():
    report = run_verification(2, samples=2, seed=1)
    assert report["pass"] is True
    assert report["failures"] == []
    assert report["first_counterexample"] is None
    assert [(c["n"], c["k"]) for c in report["cells"]] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
    ]


def test_single_degree_skips_small_dimensions():
    report = run_verification(3, k=2, samples=1)
    assert [(c["n"], c["k"]) for c in report["cells"]] == [(2, 2), (3, 2)]


def test_library_refuses_what_the_cli_refuses():
    for k in (-1, 3, 7):
        with pytest.raises(ValueError, match="k must lie in 0..2"):
            run_verification(2, k=k)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        run_verification(3, samples=-5)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        verify_cell(2, 1, samples=-1)
    assert verify_cell(2, 1, samples=0)["pass"] is True


def test_failure_serializes_first_counterexample(monkeypatch):
    # W/k! is intact, so the columns pass and the first seeded sample fails
    monkeypatch.setattr(verify_module, "whitney", lambda c: whitney(c + c))
    cell = verify_cell(2, 1, samples=2)
    assert cell["pass"] is False
    assert cell["rw_identity"] is False
    bad = cell["counterexample"]
    assert bad["check"] == "rw_identity"
    first_sample = random_cochain(Random(2 * 101 + 1), 2, 1)
    assert bad["cochain"] == cochain_to_json(first_sample)
    report = run_verification(2, k=1, samples=2)
    assert report["pass"] is False
    assert report["failures"] == [(1, 1), (2, 1)]
    assert report["first_counterexample"]["check"] == "rw_identity"


def _drop_first_plus(monkeypatch, n, k, column):
    """Drop the first +1 of one column of W/k! at (n, k), as whitney and verify read it.

    That is the entry (column, +1) of the first row that holds it. verify reads
    the rows and the round trip's product of [D~; C] with them, and whitney
    applies the broken rows, transposed, through the column walk of the
    oracle. The dimension count reads characterize's own product, which stays
    intact.
    """
    rows = list(whitney_rows(n, k))
    p = next(p for p, row in enumerate(rows) if (column, 1) in row)
    rows[p] = tuple(entry for entry in rows[p] if entry != (column, 1))
    certificate = _certified(n, k, rows)
    columns = transpose(rows, Cochain.size(n, k))

    def broken(m, j):
        return tuple(rows) if (m, j) == (n, k) else whitney_rows(m, j)

    def broken_image(plan, c):
        return column_image(columns, c) if (c.n, c.k) == (n, k) else factorial_image(plan, c)

    def broken_certificate(m, j):
        return certificate if (m, j) == (n, k) else _whitney_certificate(m, j)

    monkeypatch.setattr(verify_module, "whitney_rows", broken)
    monkeypatch.setattr(verify_module, "_whitney_certificate", broken_certificate)
    monkeypatch.setattr(sys.modules["whitneyforms.whitney"], "factorial_image", broken_image)


def _unit(n, k, face):
    return {"n": n, "k": k, "terms": [{"face": face, "coeff": "1"}]}


@pytest.mark.parametrize(
    "n, k, column, face, samples",
    [(3, 1, 2, [0, 3], 20), (3, 1, 2, [0, 3], 0), (2, 1, 0, [0, 1], 2)],
)
def test_a_broken_whitney_column_names_its_face(monkeypatch, n, k, column, face, samples):
    # D~.(W/k!) fails at that column first, and S/k! no longer equals W/k!
    # there; the cell is the one the loop over the unit cochains gave
    _drop_first_plus(monkeypatch, n, k, column)
    unit = Cochain.basis(Face(n, tuple(face)))
    assert derham(whitney(unit)) != unit
    cell = verify_cell(n, k, samples=samples)
    assert cell == {
        "n": n, "k": k, "dimension": True, "rw_identity": False,
        "characterization": False, "kernel": True, "proof_trace": True, "pass": False,
        "counterexample": {"check": "rw_identity", "cochain": _unit(n, k, face)},
    }
    report = run_verification(n, k=k, samples=samples)
    assert report["failures"] == [(n, k)]
    assert report["first_counterexample"] == cell["counterexample"]


def test_a_solution_column_off_whitney_names_its_face(monkeypatch):
    # S/k! as verify reads it differs from W/k! in column 3 only, face [1, 2]:
    # every entry of that column negated
    rows = [tuple((i, -v if i == 3 else v) for i, v in row) for row in _solution_rows(3, 1)]
    monkeypatch.setattr(verify_module, "_solution_rows", lambda n, k: tuple(rows))
    cell = verify_cell(3, 1, samples=2)
    assert (cell["characterization"], cell["pass"]) == (False, False)
    assert all(cell[name] for name in ("dimension", "rw_identity", "kernel", "proof_trace"))
    assert cell["counterexample"] == {"check": "characterization", "cochain": _unit(3, 1, [1, 2])}


def test_a_failed_solution_build_names_face_zero(monkeypatch):
    def refuse(n, k):
        raise CertificateError(f"inexact pivot at (n={n}, k={k})")

    monkeypatch.setattr(verify_module, "_solution_rows", refuse)
    cell = verify_cell(3, 1, samples=0)
    assert (cell["characterization"], cell["pass"]) == (False, False)
    assert all(cell[name] for name in ("dimension", "rw_identity", "kernel", "proof_trace"))
    assert cell["counterexample"] == {"check": "characterization", "cochain": _unit(3, 1, [0, 1])}


@pytest.mark.parametrize("n, k", [(1, 0), (3, 1), (4, 4), (5, 2)])
def test_no_samples_checks_the_operators_only(monkeypatch, n, k):
    def refuse(*args):
        raise AssertionError("a cochain went through whitney, derham or the solve")

    for name in ("whitney", "derham", "solve_characterization"):
        monkeypatch.setattr(verify_module, name, refuse)
    cell = verify_cell(n, k, samples=0)
    assert cell["pass"] is True
    assert "counterexample" not in cell


@pytest.mark.parametrize("n, k, samples", [(2, 1, 3), (4, 0, 5), (4, 4, 2), (5, 2, 0)])
def test_one_whitney_form_per_cochain(monkeypatch, n, k, samples):
    # one per seeded sample: the unit cochains are read off W/k!, D~ and S/k!
    calls = []

    def counted(c):
        calls.append(c)
        return whitney(c)

    monkeypatch.setattr(verify_module, "whitney", counted)
    cell = verify_cell(n, k, samples=samples)
    assert cell["pass"] is True
    assert len(calls) == samples


def test_the_sample_solve_runs_only_at_the_extreme_degrees(monkeypatch):
    # for 0 < k < n, once S/k! equals W/k!, a sample's solve reads
    # the rows its whitney did; at k = 0 and k = n it meets the closed form
    calls = Counter()

    def counted(n, k, c):
        calls[n, k] += 1
        return solve_characterization(n, k, c)

    monkeypatch.setattr(verify_module, "solve_characterization", counted)
    samples = 3
    assert run_verification(5, samples=samples)["pass"] is True
    assert calls == {(n, k): samples for n in range(1, 6) for k in (0, n)}


def test_verify_builds_no_replay(monkeypatch):
    # the replay entry reads the schedule that proof_trace formats: no record
    # and no label is built, from caches cold, and the report does not change
    expected = run_verification(5)

    def refuse(*args):
        raise AssertionError("a replay record or label was built")

    monkeypatch.setattr(characterize, "proof_trace", refuse)
    monkeypatch.setattr(UnknownLayout, "labels", property(refuse))
    clear_caches()
    try:
        report = run_verification(5)
    finally:
        clear_caches()
    assert report["pass"] is True
    assert report == expected
