"""Sweep dimensions and degrees, checking every claim end to end.

For each pair (n, k) in range this runs the whole gauntlet: the dimension
count, the round trip from cochain to form and back, agreement of the
linear-system solution with the direct construction, triviality of the
kernel, and completeness of the elimination replay where it applies.
Every map is linear, so on the unit cochains the round trip and the solve
are columns of cached operators, checked once per cell in face order:
D~.(W/k!) = (k+1) I, and S/k! = W/k!. Each seeded random cochain then runs
whitney and derham end to end. It runs the solve too only at k = 0 and
k = n, where the solve also meets an independent closed form: for
0 < k < n, once S/k! equals W/k! column by column, a sample's solve reads
the very rows its whitney did, grouped off equal columns, and cannot differ
from it. So
``--samples 0`` checks the operators only. Every certificate fails by one
CertificateError, which marks its check false.
"""

from __future__ import annotations

from random import Random

from .characterize import (
    CertificateError,
    _certified,
    _solution_columns,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham
from .operators import derham_columns, whitney_columns
from .simplicial import Cochain, cochain_to_json, enumerate_faces, random_cochain
from .whitney import whitney

__all__ = ["verify_cell", "run_verification"]

CHECK_NAMES = ("dimension", "rw_identity", "characterization", "kernel", "proof_trace")


def _certificate_error(check, n: int, k: int) -> str | None:
    """None when check(n, k) goes through, else the reason it raised."""
    try:
        check(n, k)
    except CertificateError as exc:
        return str(exc)
    return None


def verify_cell(n: int, k: int, samples: int = 20, seed: int = 0) -> dict:
    """All checks for one (n, k); returns a dict of named booleans plus "pass".

    The "proof_trace" entry is None at the extreme degrees, where the
    two-stage replay does not apply; None does not count against "pass".
    On failure a "counterexample" entry records the first offending input
    in serialized form, or the error of the first certificate that failed.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    cell: dict = {"n": n, "k": k}
    counterexample: dict | None = None

    # lambda_e_dimension returns the face count only once it is certified
    error = _certificate_error(lambda_e_dimension, n, k)
    cell["dimension"] = error is None
    if error is not None:
        counterexample = {"check": "dimension", "error": error}

    columns = whitney_columns(n, k)
    rng = Random(seed * 1_000_003 + n * 101 + k)
    cochains = [random_cochain(rng, n, k) for _ in range(samples)]
    forms = [whitney(c) for c in cochains]

    def first_bad(column: int | None, holds) -> Cochain | None:
        """The unit cochain of a failing column, else the first sample that fails."""
        if column is not None:
            return Cochain.basis(enumerate_faces(n, k)[column])
        return next((c for c, w in zip(cochains, forms) if not holds(c, w)), None)

    # column F of D~.(W/k!) is (k+1) derham(whitney(e_F))
    bad = first_bad(_certified(n, k, columns, derham_columns(n, k)), lambda c, w: derham(w) == c)
    cell["rw_identity"] = bad is None
    if bad is not None and counterexample is None:
        counterexample = {"check": "rw_identity", "cochain": cochain_to_json(bad)}

    def solved(c, w) -> bool:
        try:
            return solve_characterization(n, k, c) == w
        except CertificateError:
            return False

    # column F of S/k! is solve(e_F) over k!, as column F of W/k! is whitney(e_F)
    try:
        solution = _solution_columns(n, k)
    except CertificateError:
        column = 0
    else:
        column = next((i for i, (s, w) in enumerate(zip(solution, columns)) if s != w), None)
    if column is None and 0 < k < n:
        # S/k! = W/k!, so each sample's solve would read the rows whitney read
        bad = None
    else:
        bad = first_bad(column, solved)
    cell["characterization"] = bad is None
    if bad is not None and counterexample is None:
        counterexample = {"check": "characterization", "cochain": cochain_to_json(bad)}

    # the kernel fails only with the schedule, whose reason "dimension" already holds
    cell["kernel"] = kernel_is_trivial(n, k)

    if 1 <= k <= n - 1:
        error = _certificate_error(proof_trace, n, k)
        cell["proof_trace"] = error is None
        if error is not None and counterexample is None:
            counterexample = {"check": "proof_trace", "error": error}
    else:
        cell["proof_trace"] = None

    cell["pass"] = all(cell[name] is not False for name in CHECK_NAMES)
    if counterexample is not None:
        cell["counterexample"] = counterexample
    return cell


def run_verification(
    n_max: int, k: int | None = None, samples: int = 20, seed: int = 0
) -> dict:
    """Run every cell with n <= n_max (optionally a single k) and summarize."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if k is not None and not 0 <= k <= n_max:
        raise ValueError(f"k must lie in 0..{n_max}")
    cells = []
    for n in range(1, n_max + 1):
        degrees = range(n + 1) if k is None else ([k] if k <= n else [])
        for kk in degrees:
            cells.append(verify_cell(n, kk, samples=samples, seed=seed))
    failures = [(c["n"], c["k"]) for c in cells if not c["pass"]]
    first = next(
        (c["counterexample"] for c in cells if "counterexample" in c), None
    )
    return {
        "n_max": n_max,
        "k": k,
        "samples": samples,
        "seed": seed,
        "cells": cells,
        "failures": failures,
        "first_counterexample": first,
        "pass": not failures,
    }
