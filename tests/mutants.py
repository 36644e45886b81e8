"""Mutation check for the fast paths: every named one-line mutant must be caught.

Each fast path of the package is meant to be caught by an oracle of
``tests/helpers.py`` when it goes wrong: the closed-form row plan of
W/k!, its compiled loop and copies, the block traces of D~ and their
certificate, the stage-2 rows of the elimination schedule and its walk
into S/k!, the certificate of W/k!'s rows, the row comparison of S/k!
with W/k!, the replay's record and verify's reading of the schedule for
it, the reduction of a form's scale, and the byte-to-pair table of the
random cochains. Each mutant below is one exact source line and its
replacement. The script copies ``src/`` and ``tests/`` to a temporary
directory, checks that the focused test files pass there unchanged, and
then, per mutant, replaces the line in a fresh copy and runs the focused
files with ``-x``. A mutant that the tests do not fail survives; a mutant
whose line is no longer in its file, exactly once, is stale. Either fails
the check, so a refactor that moves a line must carry its mutant along.

Run it from the repository root with the standard library and pytest::

    python tests/mutants.py

It is not collected by pytest, and it relaxes no check: a surviving mutant
asks for a stronger test against the oracle, not a different mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOCUSED = [
    "tests/test_operators.py",
    "tests/test_whitney.py",
    "tests/test_derham.py",
    "tests/test_characterize.py",
    "tests/test_simplicial.py",
]

# (name, file under src/whitneyforms, exact source line, replacement)
MUTANTS = [
    (
        "whitney_plan: a face sign",
        "operators.py",
        "        reads = [index[face[:r] + face[r + 1 :]] for r in range(k + 2)]",
        "        reads = [index[face[:r] + face[r + 1 :]] for r in (1, 0, *range(2, k + 2))]",
    ),
    (
        "whitney_plan: a position sign",
        "operators.py",
        "        writes = [layout.position(g[:j] + g[j + 1 :], v) for j, v in enumerate(g)]",
        "        writes = [layout.position(g[:j] + g[j + 1 :], v) for j, v in enumerate(g)][::-1]",
    ),
    (
        "factorial_image: the copies' stride off by one",
        "operators.py",
        "    u[: copies * (n + 1) : n + 1] = values[:copies]",
        "    u[: copies * n : n] = values[:copies]",
    ),
    (
        "_whitney_kernel: -t written as t",
        "operators.py",
        '        for parity, value in ((0, "t"), (1, "-t"))',
        '        for parity, value in ((0, "t"), (1, "t"))',
    ),
    (
        "_derham_kernel: the k+1 on b_I dropped",
        "operators.py",
        '    trace = " + ".join([f"{k + 1} * v[b]", *(f"v[{g}]" for g in block[1:])])',
        '    trace = " + ".join(["v[b]", *(f"v[{g}]" for g in block[1:])])',
    ),
    (
        "_derham_kernel: a sign flipped in the minus sum",
        "operators.py",
        "    terms = \" \".join(f\"{'+-'[r % 2]} beta[i{r}] {'+-'[r % 2]} v[p{r}]\" for r in range(k + 1))",
        "    terms = \" \".join(f\"{'+-'[r % 2]} beta[i{r}] + v[p{r}]\" for r in range(k + 1))",
    ),
    (
        "derham_plan: the certificate's comparison made vacuous",
        "operators.py",
        "    if tuple(rows) != derham_rows(n, k):",
        "    if tuple(rows) != tuple(rows):",
    ),
    (
        "derham_plan: the certificate's block order not reversed",
        "operators.py",
        "        for r in reversed(range(k + 1)):",
        "        for r in range(k + 1):",
    ),
    (
        "_schedule: the per-face base's constancy weight -1 made +1",
        "characterize.py",
        "        common = _combine([(1, integrals[i]), *((-1, row) for row in constancy[i])])",
        "        common = _combine([(1, integrals[i]), *((1, row) for row in constancy[i])])",
    ),
    (
        "_schedule: the (k+1) on C_{G,j} dropped",
        "characterize.py",
        "            row = _combine([(1, common.items()), (k + 1, constancy[i][j - 1])]) if j else common",
        "            row = _combine([(1, common.items()), (1, constancy[i][j - 1])]) if j else common",
    ),
    (
        "_certified: the expected column (k+1) e_i made k e_i",
        "characterize.py",
        "        image = {r: -(k + 1)} if r < len(integrals) else {}",
        "        image = {r: -k} if r < len(integrals) else {}",
    ),
    (
        "_solution_rows: the walk's substitution sign flipped",
        "characterize.py",
        "                total[i] = total.get(i, 0) - value * x",
        "                total[i] = total.get(i, 0) + value * x",
    ),
    (
        "_first_differing_column: the symmetric difference made a difference",
        "characterize.py",
        "    differing = (set(s) ^ set(w) for s, w in zip(solution, whitney) if s != w)",
        "    differing = (set(s) - set(w) for s, w in zip(solution, whitney) if s != w)",
    ),
    (
        "proof_trace: a stage-2 step's m written as its block",
        "characterize.py",
        '            stage2.append({"L": span, "m": m, "killed": labels[step.target]})',
        '            stage2.append({"L": span, "m": block, "killed": labels[step.target]})',
    ),
    (
        "verify_cell: the replay entry made true whatever the schedule",
        "verify.py",
        '    cell["proof_trace"] = cell["kernel"] if 1 <= k <= n - 1 else None',
        '    cell["proof_trace"] = True if 1 <= k <= n - 1 else None',
    ),
    (
        "ScaledVector._reduced: a multi-word scale left undivided",
        "simplicial.py",
        "            q //= h",
        "            q //= 1",
    ),
    (
        "ScaledVector._reduced: a one-word scale left undivided",
        "simplicial.py",
        "                q //= g",
        "                q //= 1",
    ),
    (
        "random_cochain: p shifted by one, so p = 11 is drawn and p = -10 never",
        "simplicial.py",
        "_ENTRY = tuple((b // 10 - 10) * (2520 // (b % 10 + 1)) for b in range(210))",
        "_ENTRY = tuple((b // 10 - 9) * (2520 // (b % 10 + 1)) for b in range(210))",
    ),
]


def _copy(target: Path) -> None:
    """src/ and tests/ of the repository, with pyproject.toml, into target, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", target / "pyproject.toml")


def _run_focused(copy: Path) -> tuple[bool, str]:
    """Whether the focused files pass in copy, its src first on the path; and pytest's last line."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import whitneyforms; print(whitneyforms.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if not where.stdout.startswith(str(copy)):
        found = where.stdout or where.stderr
        raise SystemExit(f"the copy's package is not the one imported: {found}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *FOCUSED],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else done.stderr.strip()


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(prefix="whitneyforms-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        start = time.perf_counter()
        passed, last = _run_focused(clean)
        print(f"clean copy: {last} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not passed:
            print("the focused tests fail without a mutant, so no mutant can be judged")
            return 1
        for i, (name, module, line, replacement) in enumerate(MUTANTS):
            copy = Path(scratch) / f"mutant-{i}"
            _copy(copy)
            path = copy / "src" / "whitneyforms" / module
            lines = path.read_text().split("\n")
            count = lines.count(line)
            if count != 1:
                print(f"STALE     {name}: its line is in {module} {count} times, not once")
                failed.append(name)
                continue
            lines[lines.index(line)] = replacement
            path.write_text("\n".join(lines))
            start = time.perf_counter()
            survived, last = _run_focused(copy)
            verdict = "SURVIVED" if survived else "caught  "
            print(f"{verdict}  {name} ({time.perf_counter() - start:.1f} s): {last}", flush=True)
            if survived:
                failed.append(name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
