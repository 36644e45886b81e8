"""One verify-cli operation: ``whitneyforms verify --n-max 5 --seed S`` run
through ``cli.main`` in a fresh interpreter, from the package import to the
CLI's exit.

    python3 perfbench/verify_child.py SEED

The machine's speed swings faster than one verify run lasts, so a reference
(calibrate.py) is timed in this same process just before the CLI, before
each (n, k) cell of the sweep and just after it. The CLI's own time is kept
as segments between references, so each segment can be scaled by the
references around it. Prints one JSON line: the CLI's exit code and stdout,
the (start, seconds) segments and the (start, seconds) references.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

import workloads as wl
from calibrate import burst, time_reference


def main() -> None:
    seed = int(sys.argv[1])
    references = burst()
    segments: list[tuple[float, float]] = []
    start = time.perf_counter()

    def reference_between() -> None:
        nonlocal start
        segments.append((start, time.perf_counter() - start))
        references.append(time_reference())
        start = time.perf_counter()

    cli = importlib.import_module("whitneyforms.cli")
    verify = sys.modules["whitneyforms.verify"]
    verify_cell = verify.verify_cell

    def cell_after_reference(*args, **kwargs):
        reference_between()
        return verify_cell(*args, **kwargs)

    verify.verify_cell = cell_after_reference
    argv = ["verify", "--n-max", str(wl.VERIFY_N_MAX), "--seed", str(seed)]
    stdout = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout):
        try:
            cli.main(argv, prog_name="whitneyforms")
        except SystemExit as exc:
            code = exc.code
    segments.append((start, time.perf_counter() - start))
    references += burst()
    print(json.dumps({
        "code": code,
        "stdout": stdout.getvalue(),
        "segments": segments,
        "references": references,
    }))


if __name__ == "__main__":
    main()
