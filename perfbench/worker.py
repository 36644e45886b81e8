"""One benchmark process, started by run.py.

``stream`` sets up a warm process (import, then one dense operation per
cell so that every cache is filled), prints a ready line, runs the seeded
operation stream and prints one JSON result line. ``cli`` runs one
``verify`` in-process through ``cli.main`` and checks its output. With
``--trace PATH`` the whitneyforms functions are wrapped before any work,
the result carries the per-layer summary, and the spans go to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from calibrate import burst, time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_EVERY_S = 0.2  # wall time between reference timings in a timed phase


def import_package(trace: str | None):
    """Import whitneyforms from this checkout's src/, traced if asked."""
    sys.path.insert(0, str(SRC))
    import whitneyforms

    if Path(whitneyforms.__file__).resolve().parent != SRC / "whitneyforms":
        sys.exit(f"whitneyforms imported from {whitneyforms.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    return tracer


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def stream(args, t0: float):
    tracer = import_package(args.trace)
    # Looked up after tracing is installed, so the calls below are traced.
    mods = sys.modules
    Cochain = mods["whitneyforms.simplicial"].Cochain
    whitney = mods["whitneyforms.whitney"].whitney
    derham = mods["whitneyforms.derham"].derham
    solve = mods["whitneyforms.characterize"].solve_characterization
    clock = time.perf_counter

    def run_op(n: int, k: int, c) -> tuple[float, bool]:
        if args.workload == "roundtrip":
            start = clock()
            back = derham(whitney(c))
            elapsed = clock() - start
            return elapsed, back == c
        start = clock()
        form = solve(n, k, c)
        elapsed = clock() - start
        return elapsed, form == whitney(c)

    attempted = failed = 0
    errors: list[str] = []

    def checked(n: int, k: int, terms: dict) -> float | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            elapsed, ok = run_op(n, k, Cochain(n, k, terms))
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed, ok = None, False
            errors.append(f"({n}, {k}): {type(exc).__name__}: {exc}")
        else:
            if not ok:
                errors.append(f"({n}, {k}): result differs from the exact answer")
        if not ok:
            failed += 1
            return None
        return elapsed

    for n, k in wl.CELLS:
        checked(n, k, wl.setup_op(args.seed, n, k))
    emit({"ready": True})

    latencies: list[tuple[float, float]] = []  # (start, seconds) of each operation
    references: list[tuple[float, float]] = []
    index = args.first_op
    phase = last_reference = clock()
    while True:
        if args.ops is not None:
            if index - args.first_op >= args.ops:
                break
        else:
            if index % wl.CYCLE == 0 and clock() - phase >= args.seconds:
                break
            if not references or clock() - last_reference >= REFERENCE_EVERY_S:
                references.append(time_reference())
                last_reference = clock()
        start = clock()
        n, k, _, terms = wl.stream_op(args.seed, index)
        if tracer is not None:
            tracer.op = index
        elapsed = checked(n, k, terms)
        if elapsed is not None:
            latencies.append((start, elapsed))
        index += 1
    return tracer, {
        "next_op": index,
        "latencies": latencies,
        "references": references,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "wall_s": clock() - t0,
    }


def cli(args, t0: float):
    tracer = import_package(args.trace)
    main = importlib.import_module("whitneyforms.cli").main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
        tracer.op = 0
    argv = ["verify", "--n-max", str(wl.VERIFY_N_MAX), "--seed", str(args.seed)]
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    wall = time.perf_counter() - t0
    ok = code in (0, None) and out.getvalue() == wl.expected_verify_stdout(
        wl.VERIFY_N_MAX, wl.VERIFY_SAMPLES, args.seed
    )
    return tracer, {
        "attempted": 1,
        "failed": 0 if ok else 1,
        "errors": [] if ok else [f"verify --seed {args.seed}: exit {code} or wrong report"],
        "wall_s": wall,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("stream", "cli"))
    parser.add_argument("--workload", choices=("roundtrip", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None, help="fixed op count instead of --seconds")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()
    # A fixed amount of work is compared traced against untraced, so its
    # wall time is put in reference units timed just before and after it.
    fixed = args.mode == "cli" or args.ops is not None
    references = burst() if fixed else []
    tracer, result = (stream if args.mode == "stream" else cli)(args, time.perf_counter())
    if fixed:
        references += burst()
        result["ref_s"] = statistics.median(d for _, d in references)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = len(tracer.names)
        tracer.dump(args.trace)
    emit(result)


if __name__ == "__main__":
    main()
