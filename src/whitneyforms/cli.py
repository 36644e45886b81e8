"""Command-line interface.

Subcommands mirror the library: whitney builds forms, derham integrates
them, characterize solves the face-data system and compares against the
direct construction, verify sweeps whole ranges of (n, k), dims prints the
dimension count, and trace replays the uniqueness elimination.

Exit codes: 0 on success, 1 when a verification or theorem check fails, 2 on
usage errors or malformed input, including a cell over MAX_UNKNOWNS coefficient
unknowns (the cap of every subcommand and of form and cochain JSON) or verify
--samples over MAX_SAMPLES.

Subcommands raise and ``main`` reports: one handler there turns every refusal,
a ValueError from the library or the subcommand, into the usage line and
"Error: <message>" (exit 2), and every failed certificate, a CertificateError,
into one line "<check> failed: <reason>" (exit 1), the check named where its
subcommand is registered.

The command line is parsed by the standard library's argparse, so the
package has no runtime dependency. Forms and cochains are read and printed
through :mod:`whitneyforms.render`, which only the subcommands that do so
import: verify, dims and trace print their reports with ``json`` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .characterize import (
    CertificateError,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham as derham_map
from .forms import AffineForm
from .simplicial import MAX_UNKNOWNS, Cochain, Face, check_unknowns
from .verify import run_verification
from .whitney import whitney as whitney_map

FORMAT = ("text", "json", "latex")

MAX_SAMPLES = 1000
"""Most random cochains verify draws per (n, k); --n-max 8 then takes 1.6-2.2 s on 2 vCPUs.

Three fresh processes on a shared 2-vCPU machine, Python 3.11, no bytecode cache."""


class _Parser(argparse.ArgumentParser):
    """Long options spelled out in full, --help alone, and "Error: <message>" lines."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


_COMMANDS: dict = {}


def _command(name: str, *options: tuple, check: str | None = None):
    """Register the decorated function as subcommand name, with (flags, keywords) options.

    check names what failed when the function raises CertificateError.
    """

    def register(fn):
        _COMMANDS[name] = fn, options, check or name
        return fn

    return register


def _option(*flags: str, **kwargs) -> tuple:
    """One option, as argparse's add_argument takes it."""
    return flags, kwargs


def _format(choices: tuple[str, ...]) -> tuple:
    return _option("--format", dest="fmt", choices=choices, default="json",
                   help="output format (default: %(default)s)")


def _load_json_arg(value: str) -> dict:
    """Accept a file path, '-' for stdin, or an inline JSON object."""
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith("{"):
        text = value
    else:
        path = Path(value)
        try:
            text = path.read_text() if path.is_file() else None
        except OSError as exc:  # a name the file system refuses, such as one too long
            raise ValueError(f"cannot read {value}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {value}: {exc.reason}") from exc
        if text is None:
            raise ValueError(f"no such file: {value}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _parse_cochain(data: dict, n: int, k: int) -> Cochain:
    from .render import cochain_from_json

    try:
        c = cochain_from_json(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad cochain: {exc}") from exc
    if (c.n, c.k) != (n, k):
        raise ValueError(
            f"cochain is for (n={c.n}, k={c.k}), requested (n={n}, k={k})"
        )
    return c


def _parse_form(data: dict) -> AffineForm:
    from .render import form_from_json

    try:
        return form_from_json(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad form: {exc}") from exc


def _vertex_label(text: str) -> int:
    """One --face label, ASCII digits only: int() would read 1_0 as 10 and accept +3."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"--face labels are vertex numbers, got {text!r}")
    return int(text)


@_command(
    "whitney",
    _option("--n", type=int, required=True, help="ambient dimension"),
    _option("--k", type=int, required=True, help="form degree"),
    _option("--cochain", dest="cochain_arg", metavar="JSON",
            help="cochain JSON (path, inline object, or - for stdin)"),
    _option("--face", dest="face_arg", metavar="LABELS",
            help="single face as comma-separated vertex labels, e.g. 1,2"),
    _format(FORMAT),
)
def whitney_cmd(n: int, k: int, cochain_arg: str | None, face_arg: str | None, fmt: str) -> None:
    """Whitney form of a cochain, or of one basis face."""
    from .render import emit

    if (cochain_arg is None) == (face_arg is None):
        raise ValueError("give exactly one of --cochain or --face")
    check_unknowns(n, k)
    if face_arg is not None:
        labels = tuple(_vertex_label(v) for v in face_arg.split(","))
        if len(labels) != k + 1:
            raise ValueError(f"--face needs {k + 1} vertices for k={k}")
        c = Cochain.basis(Face(n, labels))
    else:
        c = _parse_cochain(_load_json_arg(cochain_arg), n, k)
    emit(whitney_map(c), fmt)


@_command(
    "derham",
    _option("--form", dest="form_arg", metavar="JSON", required=True,
            help="form JSON (path, inline object, or - for stdin)"),
    _format(FORMAT),
)
def derham_cmd(form_arg: str, fmt: str) -> None:
    """Integrate a form over every face of its degree."""
    from .render import emit

    emit(derham_map(_parse_form(_load_json_arg(form_arg))), fmt)


@_command(
    "characterize",
    _option("--n", type=int, required=True, help="ambient dimension"),
    _option("--k", type=int, required=True, help="form degree"),
    _option("--cochain", dest="cochain_arg", metavar="JSON", required=True,
            help="prescribed face integrals (path, inline object, or -)"),
    _format(FORMAT),
    check="characterization",
)
def characterize_cmd(n: int, k: int, cochain_arg: str, fmt: str) -> None:
    """Solve for the form with the given face data; compare to the construction."""
    from .render import emit, form_to_json

    check_unknowns(n, k)
    c = _parse_cochain(_load_json_arg(cochain_arg), n, k)
    solved = solve_characterization(n, k, c)
    matches = solved == whitney_map(c)
    if fmt == "json":
        payload = form_to_json(solved)
        payload["matches_whitney"] = matches
        print(json.dumps(payload))
    else:
        emit(solved, fmt)
        print(f"matches direct construction: {'yes' if matches else 'NO'}")
    if not matches:
        sys.exit(1)


@_command(
    "verify",
    _option("--n-max", type=int, required=True, help="largest ambient dimension"),
    _option("--k", type=int, help="restrict to one form degree"),
    _option("--samples", type=int, default=20,
            help="random cochains per (n, k) (default: %(default)s)"),
    _option("--seed", type=int, default=0, help="random seed (default: %(default)s)"),
    _format(("text", "json")),
)
def verify_cmd(n_max: int, k: int | None, samples: int, seed: int, fmt: str) -> None:
    """Run every check for all n up to --n-max."""
    if n_max < 1:
        raise ValueError("--n-max must be at least 1")
    # bounded like dims --n n_max, by the largest cell up to n_max, whatever --k is
    check_unknowns(n_max, n_max // 2)
    if k is not None and (k < 0 or k > n_max):
        raise ValueError(f"--k must lie in 0..{n_max}")
    if samples < 0:
        raise ValueError("--samples must be nonnegative")
    if samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}")
    report = run_verification(n_max, k=k, samples=samples, seed=seed)
    if fmt == "json":
        print(json.dumps(report))
    else:
        def mark(value: bool | None) -> str:
            if value is None:
                return "-"
            return "ok" if value else "FAIL"

        print("  n  k  dimension  rw_identity  characterization  kernel  trace")
        for cell in report["cells"]:
            print(
                f"  {cell['n']}  {cell['k']}  "
                f"{mark(cell['dimension']):9}  {mark(cell['rw_identity']):11}  "
                f"{mark(cell['characterization']):16}  {mark(cell['kernel']):6}  "
                f"{mark(cell['proof_trace'])}"
            )
        if report["pass"]:
            print(f"all {len(report['cells'])} cells pass")
        else:
            failing = ", ".join(f"(n={n}, k={kk})" for n, kk in report["failures"])
            print(f"FAILED cells: {failing}")
            if report["first_counterexample"] is not None:
                print(
                    "first counterexample: "
                    + json.dumps(report["first_counterexample"])
                )
    if not report["pass"]:
        sys.exit(1)


@_command(
    "dims",
    _option("--n", type=int, required=True, help="ambient dimension"),
    _option("--k", type=int, help="restrict to one form degree"),
    _format(("text", "json")),
    check="certification",
)
def dims_cmd(n: int, k: int | None, fmt: str) -> None:
    """Dimension count: constant-pullback forms vs number of faces."""
    if n < 1:
        raise ValueError("--n must be at least 1")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"--k must lie in 0..{n}")
    degrees = range(n + 1) if k is None else [k]
    # C(n, k) peaks at k = n // 2, so that degree bounds the whole table
    check_unknowns(n, n // 2 if k is None else k)
    rows = []
    for kk in degrees:
        faces = math.comb(n + 1, kk + 1)
        unknowns = math.comb(n, kk) * (n + 1)
        dim = lambda_e_dimension(n, kk)
        rows.append(
            {
                "k": kk,
                "unknowns": unknowns,
                "constancy_rank": unknowns - dim,
                "faces": faces,
                "dimension": dim,
                "match": True,  # a certified dimension is the face count
            }
        )
    if fmt == "json":
        print(json.dumps({"n": n, "rows": rows}))
    else:
        print("  k  unknowns  constancy_rank  faces  dimension")
        for row in rows:
            print(
                f"  {row['k']}  {row['unknowns']:8}  {row['constancy_rank']:14}  "
                f"{row['faces']:5}  {row['dimension']:9}"
            )


@_command(
    "trace",
    _option("--n", type=int, required=True, help="ambient dimension"),
    _option("--k", type=int, required=True, help="form degree, 1..n-1"),
    _format(("text", "json")),
    check="replay",
)
def trace_cmd(n: int, k: int, fmt: str) -> None:
    """Replay the uniqueness elimination and report every determined unknown."""
    check_unknowns(n, k)
    trace = proof_trace(n, k)
    if fmt == "json":
        print(json.dumps(trace.to_json()))
    else:
        for step in trace.stage1:
            face = ",".join(str(v) for v in step.face)
            print(f"stage 1  face [{face}]  determines {', '.join(step.killed)}")
        for step in trace.stage2:
            span = ",".join(str(v) for v in step.multi_index)
            print(f"stage 2  L=({span}) m={step.m}  determines {step.killed}")
        print("complete")


def main(args: list[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> None:
    """Parse args (sys.argv[1:] by default) and run one subcommand.

    Success raises SystemExit(0), or returns when standalone_mode is false;
    a usage error or a failed check raises SystemExit with its exit code above.
    """
    parser = _Parser(prog=prog_name or "whitneyforms",
                     description="Exact Whitney forms on the standard simplex.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    subparsers = {}
    for name, (fn, options, _) in _COMMANDS.items():
        sub = subparsers[name] = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    values = vars(parser.parse_args(args))
    name = values.pop("command")
    try:
        try:
            _COMMANDS[name][0](**values)
        finally:
            sys.stdout.flush()
    except ValueError as exc:
        subparsers[name].error(str(exc))
    except CertificateError as exc:
        print(f"{_COMMANDS[name][2]} failed: {exc}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: exit 1 with no traceback,
        # and send what is still buffered to the null device rather than the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


if __name__ == "__main__":
    main()
