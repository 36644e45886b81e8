"""Sweep dimensions and degrees, checking every claim end to end.

For each pair (n, k) in range this runs the whole gauntlet: the dimension
count, the round trip from cochain to form and back, agreement of the
linear-system solution with the direct construction, triviality of the
kernel, and completeness of the elimination replay where it applies.
The replay entry reads the schedule that ``proof_trace`` formats, the
kernel's own certificate, and builds no record or label.
Every map is linear, so on the unit cochains the round trip and the solve
are columns of cached operators, kept by rows and checked once per cell,
each check naming its first failing column in face order:
D~.(W/k!) = (k+1) I, read off the one product of [D~; C] with W/k! that
certifies the dimension, its constancy rows ignored, and S/k! = W/k!,
compared row by row.
Each seeded random cochain then runs whitney and derham end to end. It
runs the solve too only at k = 0 and k = n, where the solve also meets an
independent closed form: for 0 < k < n, once S/k! equals W/k!, a
sample's solve runs the very rows its whitney did and cannot differ from
it. So ``--samples 0`` checks the operators only. Every
certificate fails by one CertificateError, which marks its check false.
"""

from __future__ import annotations

from random import Random

from .characterize import (
    CertificateError,
    _first_differing_column,
    _solution_rows,
    _whitney_certificate,
    kernel_is_trivial,
    lambda_e_dimension,
    solve_characterization,
)
from .derham import derham
from .operators import whitney_rows
from .simplicial import Cochain, enumerate_faces, random_cochain
from .whitney import whitney

__all__ = ["verify_cell", "run_verification"]

CHECK_NAMES = ("dimension", "rw_identity", "characterization", "kernel", "proof_trace")


def _counterexample(check: str, cochain: Cochain) -> dict:
    """The failing cochain of check, as JSON: the one use verify makes of render."""
    from .render import cochain_to_json

    return {"check": check, "cochain": cochain_to_json(cochain)}


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
    try:
        lambda_e_dimension(n, k)
    except CertificateError as exc:
        counterexample = {"check": "dimension", "error": str(exc)}
    cell["dimension"] = counterexample is None

    rng = Random(seed * 1_000_003 + n * 101 + k)
    cochains = [random_cochain(rng, n, k) for _ in range(samples)]
    forms = [whitney(c) for c in cochains]

    def first_bad(column: int | None, holds) -> Cochain | None:
        """The unit cochain of a failing column, else the first sample that fails."""
        if column is not None:
            return Cochain.basis(enumerate_faces(n, k)[column])
        return next((c for c, w in zip(cochains, forms) if not holds(c, w)), None)

    # column F of D~.(W/k!) is (k+1) derham(whitney(e_F)); the dimension read C.(W/k!) too
    bad = first_bad(_whitney_certificate(n, k)[0], lambda c, w: derham(w) == c)
    cell["rw_identity"] = bad is None
    if bad is not None and counterexample is None:
        counterexample = _counterexample("rw_identity", bad)

    def solved(c, w) -> bool:
        try:
            return solve_characterization(n, k, c) == w
        except CertificateError:
            return False

    # column F of S/k! is solve(e_F) over k!, as column F of W/k! is whitney(e_F)
    try:
        solution = _solution_rows(n, k)
    except CertificateError:
        column = 0
    else:
        column = _first_differing_column(solution, whitney_rows(n, k))
    if column is None and 0 < k < n:
        # S/k! = W/k!, so each sample's solve would read the rows whitney read
        bad = None
    else:
        bad = first_bad(column, solved)
    cell["characterization"] = bad is None
    if bad is not None and counterexample is None:
        counterexample = _counterexample("characterization", bad)

    # the kernel fails only with the schedule, whose reason "dimension" already holds;
    # the replay only formats that schedule, so it builds exactly when the kernel holds
    cell["kernel"] = kernel_is_trivial(n, k)
    cell["proof_trace"] = cell["kernel"] if 1 <= k <= n - 1 else None

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
