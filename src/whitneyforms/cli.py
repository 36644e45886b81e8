"""Command-line interface.

Subcommands mirror the library: whitney builds forms, derham integrates
them, characterize solves the face-data system and compares against the
direct construction, verify sweeps whole ranges of (n, k), dims prints the
dimension count, and trace replays the uniqueness elimination.

Exit codes: 0 on success, 1 when a verification or theorem check fails
(including a certificate that does not go through), 2 on usage errors or
malformed input, including a cell over MAX_UNKNOWNS coefficient unknowns
(the cap of every subcommand and of form JSON) or verify --samples over MAX_SAMPLES.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .characterize import (
    Inconsistent,
    NonUnique,
    TraceIncomplete,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham as derham_map
from .forms import MAX_UNKNOWNS, AffineForm, check_unknowns, form_from_json, form_to_json
from .render import render_cochain, render_form
from .simplicial import (
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    cochain_from_json,
    cochain_to_json,
)
from .verify import run_verification
from .whitney import whitney as whitney_map

FORMAT = click.Choice(["text", "json", "latex"])

MAX_SAMPLES = 1000
"""Most random cochains verify draws per (n, k); --n-max 8 then takes about 14 s on 2 vCPUs."""


def _check_size(n: int, k: int) -> None:
    """Refuse a valid (n, k) with more than MAX_UNKNOWNS unknowns; exit 2."""
    try:
        check_unknowns(n, k)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _load_json_arg(value: str) -> dict:
    """Accept a file path, '-' for stdin, or an inline JSON object."""
    if value == "-":
        text = click.get_text_stream("stdin").read()
    elif value.lstrip().startswith("{"):
        text = value
    else:
        path = Path(value)
        if not path.is_file():
            raise click.UsageError(f"no such file: {value}")
        text = path.read_text()
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise click.UsageError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError("expected a JSON object")
    return data


def _parse_cochain(data: dict, n: int, k: int) -> Cochain:
    try:
        c = cochain_from_json(data)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"bad cochain: {exc}") from exc
    if (c.n, c.k) != (n, k):
        raise click.UsageError(
            f"cochain is for (n={c.n}, k={c.k}), requested (n={n}, k={k})"
        )
    return c


def _parse_form(data: dict) -> AffineForm:
    try:
        return form_from_json(data)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"bad form: {exc}") from exc


def _emit_form(form, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(form_to_json(form)))
    else:
        click.echo(render_form(form, fmt))


def _emit_cochain(c: Cochain, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(cochain_to_json(c)))
    else:
        click.echo(render_cochain(c, fmt))


@click.group()
def main() -> None:
    """Exact Whitney forms on the standard simplex."""


@main.command("whitney")
@click.option("--n", type=int, required=True, help="ambient dimension")
@click.option("--k", type=int, required=True, help="form degree")
@click.option("--cochain", "cochain_arg", default=None,
              help="cochain JSON (path, inline object, or - for stdin)")
@click.option("--face", "face_arg", default=None,
              help="single face as comma-separated vertex labels, e.g. 1,2")
@click.option("--format", "fmt", type=FORMAT, default="json", show_default=True)
def whitney_cmd(n: int, k: int, cochain_arg: str | None, face_arg: str | None, fmt: str) -> None:
    """Whitney form of a cochain, or of one basis face."""
    if (cochain_arg is None) == (face_arg is None):
        raise click.UsageError("give exactly one of --cochain or --face")
    _check_size(n, k)
    try:
        if face_arg is not None:
            labels = tuple(int(v) for v in face_arg.split(","))
            if len(labels) != k + 1:
                raise click.UsageError(f"--face needs {k + 1} vertices for k={k}")
            c = Cochain.basis(Face(n, labels))
        else:
            c = _parse_cochain(_load_json_arg(cochain_arg), n, k)
        form = whitney_map(c)
    except (BadDegree, DegreeMismatch, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    _emit_form(form, fmt)


@main.command("derham")
@click.option("--form", "form_arg", required=True,
              help="form JSON (path, inline object, or - for stdin)")
@click.option("--format", "fmt", type=FORMAT, default="json", show_default=True)
def derham_cmd(form_arg: str, fmt: str) -> None:
    """Integrate a form over every face of its degree."""
    data = _load_json_arg(form_arg)
    # checked before the form, and so its coefficient vector, is built
    if type(data.get("n")) is int and type(data.get("k")) is int:
        _check_size(data["n"], data["k"])
    form = _parse_form(data)
    try:
        c = derham_map(form)
    except (BadDegree, DegreeMismatch, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    _emit_cochain(c, fmt)


@main.command("characterize")
@click.option("--n", type=int, required=True, help="ambient dimension")
@click.option("--k", type=int, required=True, help="form degree")
@click.option("--cochain", "cochain_arg", required=True,
              help="prescribed face integrals (path, inline object, or -)")
@click.option("--format", "fmt", type=FORMAT, default="json", show_default=True)
def characterize_cmd(n: int, k: int, cochain_arg: str, fmt: str) -> None:
    """Solve for the form with the given face data; compare to the construction."""
    _check_size(n, k)
    c = _parse_cochain(_load_json_arg(cochain_arg), n, k)
    try:
        solved = solve_characterization(n, k, c)
    except (NonUnique, Inconsistent) as exc:
        click.echo(f"characterization failed: {exc}", err=True)
        sys.exit(1)
    except (BadDegree, DegreeMismatch, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    matches = solved == whitney_map(c)
    if fmt == "json":
        payload = form_to_json(solved)
        payload["matches_whitney"] = matches
        click.echo(json.dumps(payload))
    else:
        click.echo(render_form(solved, fmt))
        click.echo(f"matches direct construction: {'yes' if matches else 'NO'}")
    if not matches:
        sys.exit(1)


@main.command("verify")
@click.option("--n-max", type=int, required=True, help="largest ambient dimension")
@click.option("--k", type=int, default=None, help="restrict to one form degree")
@click.option("--samples", type=int, default=20, show_default=True,
              help="random cochains per (n, k)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
def verify_cmd(n_max: int, k: int | None, samples: int, seed: int, fmt: str) -> None:
    """Run every check for all n up to --n-max."""
    if n_max < 1:
        raise click.UsageError("--n-max must be at least 1")
    # bounded like dims --n n_max, by the largest cell up to n_max, whatever --k is
    _check_size(n_max, n_max // 2)
    if k is not None and (k < 0 or k > n_max):
        raise click.UsageError(f"--k must lie in 0..{n_max}")
    if samples < 0:
        raise click.UsageError("--samples must be nonnegative")
    if samples > MAX_SAMPLES:
        raise click.UsageError(f"--samples must be at most {MAX_SAMPLES}")
    report = run_verification(n_max, k=k, samples=samples, seed=seed)
    if fmt == "json":
        click.echo(json.dumps(report))
    else:
        def mark(value: bool | None) -> str:
            if value is None:
                return "-"
            return "ok" if value else "FAIL"

        click.echo("  n  k  dimension  rw_identity  characterization  kernel  trace")
        for cell in report["cells"]:
            click.echo(
                f"  {cell['n']}  {cell['k']}  "
                f"{mark(cell['dimension']):9}  {mark(cell['rw_identity']):11}  "
                f"{mark(cell['characterization']):16}  {mark(cell['kernel']):6}  "
                f"{mark(cell['proof_trace'])}"
            )
        if report["pass"]:
            click.echo(f"all {len(report['cells'])} cells pass")
        else:
            failing = ", ".join(f"(n={n}, k={kk})" for n, kk in report["failures"])
            click.echo(f"FAILED cells: {failing}")
            if report["first_counterexample"] is not None:
                click.echo(
                    "first counterexample: "
                    + json.dumps(report["first_counterexample"])
                )
    if not report["pass"]:
        sys.exit(1)


@main.command("dims")
@click.option("--n", type=int, required=True, help="ambient dimension")
@click.option("--k", type=int, default=None, help="restrict to one form degree")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
def dims_cmd(n: int, k: int | None, fmt: str) -> None:
    """Dimension count: constant-pullback forms vs number of faces."""
    if n < 1:
        raise click.UsageError("--n must be at least 1")
    if k is not None and not 0 <= k <= n:
        raise click.UsageError(f"--k must lie in 0..{n}")
    degrees = range(n + 1) if k is None else [k]
    # C(n, k) peaks at k = n // 2, so that degree bounds the whole table
    _check_size(n, n // 2 if k is None else k)
    rows = []
    for kk in degrees:
        faces = math.comb(n + 1, kk + 1)
        unknowns = math.comb(n, kk) * (n + 1)
        try:
            dim = lambda_e_dimension(n, kk)
        except TraceIncomplete as exc:
            click.echo(f"certification failed: {exc}", err=True)
            sys.exit(1)
        rows.append(
            {
                "k": kk,
                "unknowns": unknowns,
                "constancy_rank": unknowns - dim,
                "faces": faces,
                "dimension": dim,
                "match": dim == faces,
            }
        )
    if fmt == "json":
        click.echo(json.dumps({"n": n, "rows": rows}))
    else:
        click.echo("  k  unknowns  constancy_rank  faces  dimension")
        for row in rows:
            flag = "" if row["match"] else "  MISMATCH"
            click.echo(
                f"  {row['k']}  {row['unknowns']:8}  {row['constancy_rank']:14}  "
                f"{row['faces']:5}  {row['dimension']:9}{flag}"
            )
    if not all(row["match"] for row in rows):
        sys.exit(1)


@main.command("trace")
@click.option("--n", type=int, required=True, help="ambient dimension")
@click.option("--k", type=int, required=True, help="form degree, 1..n-1")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
def trace_cmd(n: int, k: int, fmt: str) -> None:
    """Replay the uniqueness elimination and report every determined unknown."""
    _check_size(n, k)
    try:
        trace = proof_trace(n, k)
    except BadDegree as exc:
        raise click.UsageError(str(exc)) from exc
    except TraceIncomplete as exc:
        click.echo(f"replay failed: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(json.dumps(trace.to_json()))
    else:
        for step in trace.stage1:
            face = ",".join(str(v) for v in step.face)
            click.echo(f"stage 1  face [{face}]  determines {', '.join(step.killed)}")
        for step in trace.stage2:
            span = ",".join(str(v) for v in step.multi_index)
            click.echo(f"stage 2  L=({span}) m={step.m}  determines {step.killed}")
        click.echo("complete" if trace.complete else "INCOMPLETE")
    if not trace.complete:
        sys.exit(1)


if __name__ == "__main__":
    main()
