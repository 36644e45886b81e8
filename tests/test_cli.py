"""Command-line behavior: output formats and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import clear_caches, dense_system, empty_first_stage2_integral, rank, run_cli
from whitneyforms import characterize, forms, simplicial
from whitneyforms.cli import MAX_SAMPLES, MAX_UNKNOWNS


def run(*args, **kwargs):
    return run_cli(args, **kwargs)


def test_whitney_single_face_text():
    result = run("whitney", "--n", "2", "--k", "1", "--face", "1,2",
                 "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip() == "x1 dx2 - x2 dx1"


def test_whitney_top_face_text():
    result = run("whitney", "--n", "3", "--k", "3", "--face", "0,1,2,3",
                 "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip() == "6 dx1^dx2^dx3"


def test_whitney_cochain_of_ones_is_one():
    cochain = json.dumps(
        {
            "n": 2,
            "k": 0,
            "terms": [
                {"face": [0], "coeff": "1"},
                {"face": [1], "coeff": "1"},
                {"face": [2], "coeff": "1"},
            ],
        }
    )
    result = run("whitney", "--n", "2", "--k", "0", "--cochain", cochain,
                 "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_whitney_default_output_is_json():
    result = run("whitney", "--n", "2", "--k", "1", "--face", "1,2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data == {
        "n": 2,
        "k": 1,
        "terms": [
            {"dx": [1], "const": "0", "grad": ["0", "-1"]},
            {"dx": [2], "const": "0", "grad": ["1", "0"]},
        ],
    }


def test_whitney_latex_output():
    result = run("whitney", "--n", "2", "--k", "1", "--face", "1,2",
                 "--format", "latex")
    assert result.exit_code == 0
    assert result.output.strip() == "x^{1} dx^{2} - x^{2} dx^{1}"


def test_whitney_reads_cochain_from_stdin():
    cochain = json.dumps(
        {"n": 2, "k": 1, "terms": [{"face": [1, 2], "coeff": "1"}]}
    )
    result = run("whitney", "--n", "2", "--k", "1", "--cochain", "-",
                 "--format", "text", input=cochain)
    assert result.exit_code == 0
    assert result.output.strip() == "x1 dx2 - x2 dx1"


def test_whitney_reads_cochain_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps({"n": 2, "k": 1, "terms": [{"face": [0, 1], "coeff": "2"}]})
    )
    result = run("whitney", "--n", "2", "--k", "1", "--cochain", str(path),
                 "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip() == "(2 - 2 x2) dx1 + 2 x1 dx2"


def test_whitney_usage_errors():
    assert run("whitney", "--n", "2", "--k", "1").exit_code == 2
    assert (
        run("whitney", "--n", "2", "--k", "1", "--face", "1,2",
            "--cochain", "{}").exit_code
        == 2
    )
    assert run("whitney", "--n", "2", "--k", "1", "--face", "0,1,2").exit_code == 2
    assert run("whitney", "--n", "2", "--k", "1", "--face", "1,5").exit_code == 2
    assert run("whitney", "--n", "2", "--k", "1", "--cochain", "{not json").exit_code == 2
    assert run("whitney", "--n", "2", "--k", "1", "--cochain", "/nope.json").exit_code == 2


def test_whitney_face_labels_are_ascii_digits():
    # int() reads 1_0 as vertex 10, +3 as 3 and a fullwidth 2 as 2
    for face in ("1_0,2", "+3,1", "1,\uff12"):
        result = run("whitney", "--n", "24", "--k", "1", "--face", face)
        assert result.exit_code == 2
        assert "--face labels are vertex numbers" in result.output
    assert run("whitney", "--n", "24", "--k", "1", "--face", "10,2").exit_code == 0


def test_whitney_rejects_cochain_of_wrong_degree():
    cochain = json.dumps({"n": 2, "k": 0, "terms": [{"face": [0], "coeff": "1"}]})
    result = run("whitney", "--n", "2", "--k", "1", "--cochain", cochain)
    assert result.exit_code == 2


def test_derham_inverts_whitney():
    built = run("whitney", "--n", "2", "--k", "1", "--face", "1,2")
    result = run("derham", "--form", built.output)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data == {"n": 2, "k": 1, "terms": [{"face": [1, 2], "coeff": "1"}]}


def test_derham_text_output():
    form = json.dumps(
        {
            "n": 2,
            "k": 1,
            "terms": [
                {"dx": [1], "const": "0", "grad": ["0", "-1"]},
                {"dx": [2], "const": "0", "grad": ["1", "0"]},
            ],
        }
    )
    result = run("derham", "--form", form, "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip() == "[1,2]"


def test_derham_rejects_malformed_form():
    assert run("derham", "--form", "{\"n\": 2}").exit_code == 2
    assert run("derham", "--form", "[1,2]").exit_code == 2
    for terms in ("5", "null"):
        result = run("derham", "--form", '{"n": 2, "k": 1, "terms": %s}' % terms)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "bad form: malformed form JSON: " in result.output


# json.loads refuses an integer literal over 4300 digits with a plain ValueError
HUGE_INTEGER = '{"n": 2, "k": 1, "terms": [], "pad": ' + "9" * 4301 + "}"


@pytest.mark.parametrize(
    "args",
    [
        ("whitney", "--n", "2", "--k", "1", "--cochain"),
        ("characterize", "--n", "2", "--k", "1", "--cochain"),
        ("derham", "--form"),
    ],
)
def test_huge_json_integer_exits_two(args):
    result = run(*args, HUGE_INTEGER)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "invalid JSON" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("whitney", "--n", "2", "--k", "1", "--cochain"),
        ("characterize", "--n", "2", "--k", "1", "--cochain"),
        ("derham", "--form"),
    ],
)
def test_an_unreadable_path_exits_two(args, tmp_path):
    # a JSON array is not inline JSON, so it is read as a path, whose name the
    # file system refuses when it is too long; a file that is not UTF-8 cannot be read either
    not_utf8 = tmp_path / "form.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for value, reason in [
        (json.dumps([{"n": 2}] * 40), "File name too long"),
        (str(not_utf8), "invalid start byte"),
    ]:
        result = run(*args, value)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"cannot read {value}: {reason}" in result.output


STRING_FACE = json.dumps({"n": 2, "k": 1, "terms": [{"face": "12", "coeff": "1"}]})


@pytest.mark.parametrize(
    "args",
    [
        ("whitney", "--n", "2", "--k", "1", "--cochain", STRING_FACE),
        ("characterize", "--n", "2", "--k", "1", "--cochain", STRING_FACE),
        ("derham", "--form", json.dumps(
            {"n": 2, "k": 1, "terms": [{"dx": "2", "const": "1", "grad": "34"}]})),
        ("derham", "--form", json.dumps(
            {"n": 2, "k": 1, "terms": [{"dx": [2], "const": "1", "grad": "34"}]})),
    ],
)
def test_json_strings_are_not_read_as_lists(args):
    result = run(*args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "must be" in result.output and "list" in result.output


def _cochain(n=2, k=1, face=(0, 1)):
    return json.dumps({"n": n, "k": k, "terms": [{"face": list(face), "coeff": "1"}]})


def _form(n=2, k=1, dx=(2,)):
    return json.dumps(
        {"n": n, "k": k, "terms": [{"dx": list(dx), "const": "1", "grad": ["0", "0"]}]}
    )


@pytest.mark.parametrize(
    "args",
    [
        ("whitney", "--n", "2", "--k", "1", "--cochain", _cochain(face=(0.5, 1.7))),
        ("whitney", "--n", "2", "--k", "1", "--cochain", _cochain(face=(True, "2"))),
        ("whitney", "--n", "2", "--k", "1", "--cochain", _cochain(n=2.7)),
        ("whitney", "--n", "2", "--k", "1", "--cochain", _cochain(k=True)),
        ("characterize", "--n", "2", "--k", "1", "--cochain", _cochain(face=(0, 1.0))),
        ("characterize", "--n", "2", "--k", "1", "--cochain", _cochain(n="2")),
        ("characterize", "--n", "2", "--k", "1", "--cochain", _cochain(k=1.0)),
        ("derham", "--form", _form(dx=(1.9,))),
        ("derham", "--form", _form(dx=(True,))),
        ("derham", "--form", _form(n=2.7)),
        ("derham", "--form", _form(k=True)),
    ],
)
def test_json_integer_fields_must_be_integers(args):
    result = run(*args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "not an integer" in result.output


def test_characterize_matches_and_exits_zero():
    cochain = json.dumps(
        {
            "n": 2,
            "k": 1,
            "terms": [
                {"face": [0, 1], "coeff": "3/2"},
                {"face": [1, 2], "coeff": "-2"},
            ],
        }
    )
    result = run("characterize", "--n", "2", "--k", "1", "--cochain", cochain,
                 "--format", "text")
    assert result.exit_code == 0
    assert "matches direct construction: yes" in result.output


def test_characterize_json_output():
    cochain = json.dumps(
        {"n": 2, "k": 1, "terms": [{"face": [1, 2], "coeff": "1"}]}
    )
    result = run("characterize", "--n", "2", "--k", "1", "--cochain", cochain)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["matches_whitney"] is True
    assert data["terms"] == [
        {"dx": [1], "const": "0", "grad": ["0", "-1"]},
        {"dx": [2], "const": "0", "grad": ["1", "0"]},
    ]


def test_the_point_cells_cochain_json_reads_back():
    # derham's output on the point n = 0 is a cochain on the one vertex [0], and
    # whitney and characterize read it back, as they read the empty cochain there
    form = json.dumps({"n": 0, "k": 0, "terms": [{"dx": [], "const": "3", "grad": []}]})
    integrated = run("derham", "--form", form)
    assert integrated.exit_code == 0
    assert json.loads(integrated.output) == {
        "n": 0, "k": 0, "terms": [{"face": [0], "coeff": "3"}],
    }
    solved = run("characterize", "--n", "0", "--k", "0", "--cochain", integrated.output)
    assert solved.exit_code == 0, solved.output
    assert json.loads(solved.output) == {
        "n": 0, "k": 0, "terms": [{"dx": [], "const": "3", "grad": []}], "matches_whitney": True,
    }
    built = run("whitney", "--n", "0", "--k", "0", "--cochain", integrated.output)
    assert built.exit_code == 0 and json.loads(built.output) == json.loads(form)
    # the point's one face, [0], is a basis face as on every other cell
    basis = run("whitney", "--n", "0", "--k", "0", "--face", "0")
    assert basis.exit_code == 0, basis.output
    assert json.loads(basis.output) == {
        "n": 0, "k": 0, "terms": [{"dx": [], "const": "1", "grad": []}],
    }


def test_verify_small_sweep():
    result = run("verify", "--n-max", "2", "--samples", "3")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["pass"] is True
    assert report["first_counterexample"] is None
    assert [(c["n"], c["k"]) for c in report["cells"]] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_verify_prints_the_all_pass_report(seed):
    cells = [
        {
            "n": n,
            "k": k,
            "dimension": True,
            "rw_identity": True,
            "characterization": True,
            "kernel": True,
            "proof_trace": True if 1 <= k <= n - 1 else None,
            "pass": True,
        }
        for n in range(1, 6)
        for k in range(n + 1)
    ]
    report = {
        "n_max": 5,
        "k": None,
        "samples": 20,
        "seed": seed,
        "cells": cells,
        "failures": [],
        "first_counterexample": None,
        "pass": True,
    }
    result = run("verify", "--n-max", "5", "--seed", str(seed))
    assert result.exit_code == 0
    assert result.stdout == json.dumps(report) + "\n"


def test_verify_single_degree():
    result = run("verify", "--n-max", "3", "--k", "1", "--samples", "2")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert [(c["n"], c["k"]) for c in report["cells"]] == [(1, 1), (2, 1), (3, 1)]


def test_verify_text_table():
    result = run("verify", "--n-max", "2", "--samples", "2", "--format", "text")
    assert result.exit_code == 0
    assert "all 5 cells pass" in result.output


def test_verify_ceiling():
    # verify is bounded by the same unknown cap as every other command
    for args in [(), ("--k", "0"), ("--k", "9")]:
        result = run("verify", "--n-max", "9", *args)
        assert result.exit_code == 2
        assert f"more than {MAX_UNKNOWNS} coefficient unknowns" in result.output
    assert run("verify", "--n-max", "0").exit_code == 2
    assert run("verify", "--n-max", "2", "--k", "5").exit_code == 2
    assert run("verify", "--n-max", "5", "--ceiling", "8").exit_code == 2
    assert "--ceiling" not in run("verify", "--help").output


def test_verify_caps_samples():
    # verify's cost grows with --samples; past the cap it is refused up front
    for samples in (MAX_SAMPLES + 1, 10**9, 10**30):
        result = run("verify", "--n-max", "1", "--samples", str(samples))
        assert result.exit_code == 2
        assert f"--samples must be at most {MAX_SAMPLES}" in result.output
    result = run("verify", "--n-max", "1", "--samples", "-1")
    assert result.exit_code == 2
    assert "--samples must be nonnegative" in result.output
    result = run("verify", "--n-max", "2", "--k", "1", "--samples", str(MAX_SAMPLES))
    assert result.exit_code == 0


def test_dims_table_values():
    result = run("dims", "--n", "3")
    assert result.exit_code == 0
    data = json.loads(result.output)
    rows = {row["k"]: row for row in data["rows"]}
    assert (
        rows[1]["unknowns"],
        rows[1]["constancy_rank"],
        rows[1]["faces"],
        rows[1]["dimension"],
    ) == (12, 6, 6, 6)
    assert (
        rows[3]["unknowns"],
        rows[3]["constancy_rank"],
        rows[3]["faces"],
        rows[3]["dimension"],
    ) == (4, 3, 1, 1)


def test_dims_single_degree():
    result = run("dims", "--n", "4", "--k", "2")
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert (row["unknowns"], row["constancy_rank"], row["faces"], row["dimension"]) == (
        30, 20, 10, 10,
    )


def test_dims_constancy_rank_is_measured():
    for n in range(1, 6):
        rows = json.loads(run("dims", "--n", str(n)).output)["rows"]
        for row in rows:
            constancy, _ = dense_system(n, row["k"])
            assert row["constancy_rank"] == rank(constancy)


def test_dims_text_output():
    result = run("dims", "--n", "2", "--format", "text")
    assert result.exit_code == 0
    assert "MISMATCH" not in result.output
    assert "unknowns" in result.output


def test_dims_usage_errors():
    assert run("dims", "--n", "0").exit_code == 2
    assert run("dims", "--n", "2", "--k", "3").exit_code == 2


def test_trace_json():
    result = run("trace", "--n", "2", "--k", "1")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["stage1"][0] == {"face": [0, 1], "killed": ["b_(1)", "a_(1),1"]}
    assert data["stage2"][-1] == {"L": [2], "m": 1, "killed": "a_(2),1"}
    assert data["complete"] is True


def test_trace_text():
    result = run("trace", "--n", "3", "--k", "1", "--format", "text")
    assert result.exit_code == 0
    assert result.output.strip().endswith("complete")


def test_trace_usage_errors():
    assert run("trace", "--n", "2", "--k", "0").exit_code == 2
    assert run("trace", "--n", "2", "--k", "2").exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (("whitney", "--n", "2", "--k", "-1", "--face", "0"), "k=-1 outside 0..2"),
        (("whitney", "--n", "2", "--k", "3", "--face", "0,1,2,3"), "k=3 outside 0..2"),
        (("trace", "--n", "2", "--k", "-1"), "k=-1 outside 0..2"),
        (("trace", "--n", "2", "--k", "0"), "the elimination replay needs 1 <= k <= n-1"),
        (("characterize", "--n", "-1", "--k", "0", "--cochain", '{"n": -1, "k": 0, "terms": []}'),
         "k=0 outside 0..-1"),
        (("derham", "--form", '{"n": 2, "k": 3, "terms": []}'), "bad form: k=3 outside 0..2"),
    ],
    ids=["whitney-face-k-1", "whitney-face-k3", "trace-k-1", "trace-k0", "characterize-n-1", "derham-k3"],
)
def test_a_non_cell_is_named_by_its_degree(args, message):
    result = run(*args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output


WHITNEY_USAGE = (
    "usage: whitneyforms whitney [--help] --n N --k K [--cochain JSON]\n"
    "                            [--face LABELS] [--format {text,json,latex}]\n"
)


@pytest.mark.parametrize(
    "args, stderr",
    [
        (("whitney", "--n", "2", "--k", "1", "--face", "1,5"),
         WHITNEY_USAGE + "Error: vertex labels must lie in 0..2\n"),
        (("whitney", "--n", "2", "--k", "3", "--face", "0"),
         WHITNEY_USAGE + "Error: k=3 outside 0..2\n"),
        (("trace", "--n", "2", "--k", "0"),
         "usage: whitneyforms trace [--help] --n N --k K [--format {text,json}]\n"
         "Error: the elimination replay needs 1 <= k <= n-1, got n=2, k=0\n"),
        (("derham", "--form", '{"n": 2, "k": 3, "terms": []}'),
         "usage: whitneyforms derham [--help] --form JSON [--format {text,json,latex}]\n"
         "Error: bad form: k=3 outside 0..2\n"),
        (("verify", "--n-max", "9"),
         "usage: whitneyforms verify [--help] --n-max N_MAX [--k K] [--samples SAMPLES]\n"
         "                           [--seed SEED] [--format {text,json}]\n"
         "Error: (n=9, k=4) needs more than 630 coefficient unknowns, counted as"
         " (n+1)*C(n,k); every cell with n <= 8 fits\n"),
    ],
    ids=["whitney-face-label", "whitney-non-cell", "trace-k0", "derham-k3", "verify-over-cap"],
)
def test_a_refusal_is_the_usage_and_one_error_line(args, stderr, monkeypatch):
    # the usage line wraps at the terminal width, which argparse reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    result = run(*args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == stderr


def test_derham_names_a_gradient_of_the_wrong_length():
    form = '{"n": 2, "k": 1, "terms": [{"dx": [1], "const": "1", "grad": ["1"]}]}'
    result = run("derham", "--form", form)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Error: bad form: gradient length must equal the dimension" in result.output


def test_a_non_ascii_digit_is_not_an_exact_rational():
    # full-width digits would otherwise read as 12
    cochain = json.dumps({"n": 1, "k": 0, "terms": [{"face": [0], "coeff": "\uff11\uff12"}]})
    result = run("whitney", "--n", "1", "--k", "0", "--cochain", cochain)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    error = "Error: bad cochain: not an exact rational: '\uff11\uff12'"
    assert result.stderr.splitlines()[-1] == error


EMPTY_9_4 = json.dumps({"n": 9, "k": 4, "terms": []})
HUGE_COCHAIN = json.dumps({"n": 10**9, "k": 0, "terms": []})


@pytest.mark.parametrize(
    "args",
    [
        ("whitney", "--n", "9", "--k", "4", "--face", "0,1,2,3,4"),
        ("whitney", "--n", "30", "--k", "15", "--cochain", "{}"),
        ("derham", "--form", EMPTY_9_4),
        ("characterize", "--n", "9", "--k", "4", "--cochain", EMPTY_9_4),
        ("characterize", "--n", "30", "--k", "15", "--cochain", "{}"),
        # the cochain JSON's own (n, k) is capped before its entries are built
        ("whitney", "--n", "2", "--k", "0", "--cochain", HUGE_COCHAIN),
        ("characterize", "--n", "2", "--k", "0", "--cochain", HUGE_COCHAIN),
        ("dims", "--n", "9"),
        ("dims", "--n", "9", "--k", "4"),
        ("dims", "--n", "1000000000"),
        ("trace", "--n", "9", "--k", "4"),
        ("trace", "--n", "30", "--k", "15"),
    ],
)
def test_commands_refuse_cells_over_the_unknown_cap(args):
    result = run(*args)
    assert result.exit_code == 2
    assert f"more than {MAX_UNKNOWNS} coefficient unknowns" in result.output


def test_derham_checks_the_cap_before_building_the_form(monkeypatch):
    # a (30, 15) form has 31 * C(30, 15) coefficients: form_from_json must refuse
    # it before the form, or the layout of its coefficient vector, is built
    def unbuilt(*args, **kwargs):
        raise AssertionError("the form was built")

    monkeypatch.setattr(forms, "AffineForm", unbuilt)
    monkeypatch.setattr(forms, "unknown_layout", unbuilt)
    for n, k in [(30, 15), (10**9, 5 * 10**8), (10, 5)]:
        result = run("derham", "--form", json.dumps({"n": n, "k": k, "terms": []}))
        assert result.exit_code == 2
        refused = f"bad form: (n={n}, k={k}) needs more than {MAX_UNKNOWNS} coefficient unknowns"
        assert refused in result.output


def test_unknown_cap_admits_every_cell_up_to_eight():
    assert MAX_UNKNOWNS == max((n + 1) * math.comb(n, k) for n in range(9) for k in range(n + 1))
    # the one cap, of form and cochain JSON too
    assert MAX_UNKNOWNS is forms.MAX_UNKNOWNS is simplicial.MAX_UNKNOWNS
    assert run("trace", "--n", "8", "--k", "4").exit_code == 0
    assert run("whitney", "--n", "8", "--k", "4", "--face", "0,1,2,3,4").exit_code == 0
    # verify admits --n-max 8 without any flag; --k 8 keeps the sweep to one cell
    assert run("verify", "--n-max", "8", "--k", "8", "--samples", "1").exit_code == 0
    # dims checks only the degrees it computes
    assert run("dims", "--n", "9", "--k", "0").exit_code == 0


def test_broken_replay_exits_one_with_a_message(monkeypatch):
    monkeypatch.setattr(characterize, "derham_rows", empty_first_stage2_integral)
    clear_caches()
    cochain = json.dumps({"n": 3, "k": 1, "terms": [{"face": [1, 2], "coeff": "1"}]})
    try:
        solved = run("characterize", "--n", "3", "--k", "1", "--cochain", cochain)
        replay = run("trace", "--n", "3", "--k", "1")
        dims = run("dims", "--n", "3")
        verify = run("verify", "--n-max", "3", "--samples", "1", "--format", "text")
    finally:
        clear_caches()
    assert solved.exit_code == 1 and isinstance(solved.exception, SystemExit)
    assert solved.stderr.startswith("characterization failed: a row on face [1, 2] does not")
    assert replay.exit_code == 1 and isinstance(replay.exception, SystemExit)
    assert replay.stderr.startswith("replay failed: a row on face [1, 2] does not isolate")
    assert dims.exit_code == 1 and isinstance(dims.exception, SystemExit)
    assert dims.stdout == ""
    assert dims.stderr.startswith("certification failed: a row on face [1] does not isolate")
    assert dims.stderr.count("\n") == 1
    assert verify.exit_code == 1 and isinstance(verify.exception, SystemExit)
    assert "FAILED cells: (n=1, k=0), (n=2, k=0), (n=2, k=1), (n=3, k=0)," in verify.stdout
    assert 'first counterexample: {"check": "dimension", "error": ' in verify.stdout


def test_render_is_imported_only_to_render():
    # a fresh interpreter: a passing verify loads no render, the CLI loads it in the
    # subcommands that read or print a form or cochain, the package resolves only
    # render's names lazily, and whitney and derham stay the functions, not the
    # submodules of the same name
    probe = """
import contextlib, io, sys, types
import whitneyforms.cli
assert "whitneyforms.render" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    whitneyforms.cli.main(["verify", "--n-max", "2"], standalone_mode=False)
assert "whitneyforms.render" not in sys.modules
from whitneyforms import whitney, derham, render_form
assert all(type(f) is types.FunctionType for f in (whitney, derham, render_form))
import whitneyforms
assert whitneyforms.render_cochain is sys.modules["whitneyforms.render"].render_cochain
assert whitneyforms.whitney is whitney and whitneyforms.derham is derham
render = sys.modules["whitneyforms.render"]
moved = ["form_to_json", "form_from_json", "cochain_to_json", "cochain_from_json",
         "parse_rational", "format_rational"]
assert all(getattr(whitneyforms, name) is getattr(render, name) for name in moved)
assert not any(hasattr(sys.modules[f"whitneyforms.{m}"], name)
               for m in ("forms", "simplicial", "linalg") for name in moved)
whitneyforms.cli.main(["whitney", "--n", "2", "--k", "1", "--face", "1,2", "--format", "text"])
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "x1 dx2 - x2 dx1\n"
    probe = "import whitneyforms; whitneyforms.render_matrix"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert "has no attribute 'render_matrix'" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("verify", "--sam", "5", "--n-max", "1"), "--sam"),  # no abbreviated options
        (("verify", "--n-max", "x"), "--n-max"),
        (("verify", "--n-max", "2", "extra"), "extra"),
        ((), "COMMAND"),
        # -1,2 reads as an option, not as --face's value
        (("whitney", "--n", "2", "--k", "1", "--face", "-1,2"), "--face"),
    ],
    ids=["abbreviation", "not-an-int", "extra-argument", "no-subcommand", "face-like-an-option"],
)
def test_parse_errors_exit_two_with_one_error_line(args, message):
    result = run(*args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.startswith("usage: ")
    error = result.stderr.splitlines()[-1]
    assert error.startswith("Error: ") and message in error


def test_a_closed_stdout_exits_one_without_a_traceback():
    # a pipe with no reader, as `| head` leaves once it has read enough: every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "whitneyforms", "trace", "--n", "8", "--k", "4", "--format", "text"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b""


def test_the_cli_needs_no_dependency():
    probe = "import sys, whitneyforms.cli; assert 'click' not in sys.modules, sorted(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1).strip() == ""
