"""Sweep driver: per-cell results, report shape, and failure reporting."""

import math

import pytest

import whitneyforms.verify as verify_module
from whitneyforms import whitney
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


def test_failure_serializes_first_counterexample(monkeypatch):
    monkeypatch.setattr(verify_module, "whitney", lambda c: whitney(c + c))
    cell = verify_cell(2, 1, samples=2)
    assert cell["pass"] is False
    assert cell["rw_identity"] is False
    bad = cell["counterexample"]
    assert bad["check"] == "rw_identity"
    assert bad["cochain"] == {
        "n": 2,
        "k": 1,
        "terms": [{"face": [0, 1], "coeff": "1"}],
    }
    report = run_verification(2, k=1, samples=2)
    assert report["pass"] is False
    assert report["failures"] == [(1, 1), (2, 1)]
    assert report["first_counterexample"]["check"] == "rw_identity"


@pytest.mark.parametrize("n, k, samples", [(2, 1, 3), (4, 0, 5), (4, 4, 2), (5, 2, 0)])
def test_one_whitney_form_per_cochain(monkeypatch, n, k, samples):
    calls = []

    def counted(c):
        calls.append(c)
        return whitney(c)

    monkeypatch.setattr(verify_module, "whitney", counted)
    cell = verify_cell(n, k, samples=samples)
    assert cell["pass"] is True
    assert len(calls) == math.comb(n + 1, k + 1) + samples
