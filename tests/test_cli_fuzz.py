"""Fuzzed command lines, and round trips of the JSON wire formats.

Every subcommand gets argv drawn from small integers mixed with extremes
(-1, 9, 10**30), text that is not an integer, and cochain or form JSON
that is well-formed, mutated or arbitrary. Whatever the input, a command
must end in exit 0, 1 or 2 and never in a traceback.
"""

import json
from fractions import Fraction
from random import Random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import random_affine_form, run_cli
from whitneyforms import (
    AffineForm,
    Cochain,
    cochain_from_json,
    cochain_to_json,
    form_from_json,
    form_to_json,
    random_cochain,
)
from whitneyforms.cli import MAX_SAMPLES
from whitneyforms.operators import unknown_layout

EXTREMES = [-1, 9, 10**30]
integers = st.one_of(st.integers(-1, 4), st.sampled_from(EXTREMES))
int_args = st.one_of(integers.map(str), st.sampled_from(["x", "1.5", ""]))
formats = st.sampled_from(["json", "text", "latex", "xml"])

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | integers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def cells(n_min):
    """(n, k, seed) with n_min <= n <= 3."""
    return st.integers(n_min, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, 10**6))
    )


@st.composite
def mutated(draw, data):
    """data with one field, or one field of one term, replaced by a drawn value."""
    data = json.loads(json.dumps(data))
    target = data
    if data["terms"] and draw(st.booleans()):
        target = draw(st.sampled_from(data["terms"]))
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if draw(st.booleans()):
        target[key] = draw(json_values)
    else:
        target.pop(key, None)
    return data


def json_inputs(well_formed):
    """Well-formed JSON, the same mutated, an empty one of any size, or any JSON value."""
    return st.one_of(
        well_formed,
        well_formed.flatmap(mutated),
        st.builds(lambda n, k: {"n": n, "k": k, "terms": []}, integers, integers),
        json_values,
    )


cochain_jsons = json_inputs(
    cells(1).map(lambda c: cochain_to_json(random_cochain(Random(c[2]), c[0], c[1])))
)
form_jsons = json_inputs(
    cells(0).map(lambda c: form_to_json(random_affine_form(Random(c[2]), c[0], c[1])))
)


def json_arg(values):
    """A JSON argument as the CLI takes it, or text that is not one."""
    return st.one_of(
        values.map(json.dumps),
        st.sampled_from(["{", "{not json", "-", "no/such/file.json", "{" + "1" * 5000 + "}"]),
    )


def with_format(argv):
    return st.tuples(argv, st.lists(formats, max_size=1)).map(
        lambda pair: pair[0] + [arg for fmt in pair[1] for arg in ("--format", fmt)]
    )


def flag(name, values):
    """[name, value] or nothing."""
    return st.lists(values, max_size=1).map(lambda vs: [arg for v in vs for arg in (name, v)])


faces = st.one_of(
    st.lists(integers, max_size=5).map(lambda vs: ",".join(str(v) for v in vs)),
    st.sampled_from(["1,x", "1.5", ",", "0,,1"]),
)
samples = st.one_of(
    st.integers(-1, 3), st.sampled_from([MAX_SAMPLES, MAX_SAMPLES + 1, 10**30])
).map(str)



def coherent(cell):
    """A command line whose sizes and JSON agree, as most real ones do."""
    n, k, seed = (str(v) for v in cell)
    cochain = json.dumps(cochain_to_json(random_cochain(Random(cell[2]), cell[0], cell[1])))
    form = json.dumps(form_to_json(random_affine_form(Random(cell[2]), cell[0], cell[1])))
    face = ",".join(str(v) for v in range(cell[1] + 1))
    return st.sampled_from([
        ["whitney", "--n", n, "--k", k, "--cochain", cochain],
        ["whitney", "--n", n, "--k", k, "--face", face],
        ["derham", "--form", form],
        ["characterize", "--n", n, "--k", k, "--cochain", cochain],
        ["verify", "--n-max", n, "--k", k, "--samples", "2", "--seed", seed],
        ["dims", "--n", n],
        ["trace", "--n", n, "--k", k],
    ])


fuzzed = st.one_of(
    with_format(
        st.tuples(int_args, int_args, flag("--cochain", json_arg(cochain_jsons)), flag("--face", faces))
        .map(lambda t: ["whitney", "--n", t[0], "--k", t[1], *t[2], *t[3]])
    ),
    with_format(json_arg(form_jsons).map(lambda form: ["derham", "--form", form])),
    with_format(
        st.tuples(int_args, int_args, json_arg(cochain_jsons))
        .map(lambda t: ["characterize", "--n", t[0], "--k", t[1], "--cochain", t[2]])
    ),
    with_format(
        st.tuples(st.integers(-1, 3), flag("--k", int_args), samples, flag("--seed", int_args))
        .map(lambda t: ["verify", "--n-max", str(t[0]), *t[1], "--samples", t[2], *t[3]])
    ),
    with_format(st.tuples(int_args, flag("--k", int_args)).map(lambda t: ["dims", "--n", t[0], *t[1]])),
    with_format(
        st.tuples(int_args, int_args).map(lambda t: ["trace", "--n", t[0], "--k", t[1]])
    ),
)
argvs = st.one_of(with_format(cells(1).flatmap(coherent)), fuzzed)


@given(argvs)
@settings(max_examples=300, deadline=None)
def test_every_command_ends_in_an_exit_code(argv):
    result = run_cli(argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.output, result.exc_info
    )
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    event(f"{argv[0]} exit {result.exit_code}")


@given(
    cells(0).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(
                st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
                min_size=len(unknown_layout(c[0], c[1]).faces),
                max_size=len(unknown_layout(c[0], c[1]).faces),
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_cochain_json_round_trip(case):
    (n, k, _), coeffs = case
    c = Cochain(n, k, dict(zip(unknown_layout(n, k).faces, coeffs)))
    assert cochain_from_json(cochain_to_json(c)) == c
    assert cochain_from_json(json.loads(json.dumps(cochain_to_json(c)))) == c


@given(
    cells(0).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(
                st.integers(-(2**70), 2**70),
                min_size=unknown_layout(c[0], c[1]).size,
                max_size=unknown_layout(c[0], c[1]).size,
            ),
            st.integers(1, 2**70),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_form_json_round_trip(case):
    (n, k, _), vec, q = case
    f = AffineForm.from_vector(n, k, vec, q)
    assert form_from_json(form_to_json(f)) == f
    assert form_from_json(json.loads(json.dumps(form_to_json(f)))) == f
