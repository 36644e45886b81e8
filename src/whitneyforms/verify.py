"""Sweep dimensions and degrees, checking every claim end to end.

For each pair (n, k) in range this runs the whole gauntlet: the dimension
count, the round trip from cochain to form and back on the basis plus a
batch of seeded random cochains, agreement of the linear-system solution
with the direct construction, triviality of the kernel, and completeness
of the elimination replay where it applies. One Whitney form per cochain
serves both the round trip and the comparison with the solution. Every
certificate fails by one CertificateError, which marks its check false.
"""

from __future__ import annotations

from random import Random

from .characterize import (
    CertificateError,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham
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
    cell: dict = {"n": n, "k": k}
    counterexample: dict | None = None

    # lambda_e_dimension returns the face count only once it is certified
    error = _certificate_error(lambda_e_dimension, n, k)
    cell["dimension"] = error is None
    if error is not None:
        counterexample = {"check": "dimension", "error": error}

    rng = Random(seed * 1_000_003 + n * 101 + k)
    cochains = [Cochain.basis(face) for face in enumerate_faces(n, k)]
    cochains += [random_cochain(rng, n, k) for _ in range(samples)]

    forms = [whitney(c) for c in cochains]
    bad = next((c for c, w in zip(cochains, forms) if derham(w) != c), None)
    cell["rw_identity"] = bad is None
    if bad is not None and counterexample is None:
        counterexample = {"check": "rw_identity", "cochain": cochain_to_json(bad)}

    def solved(c, w) -> bool:
        try:
            return solve_characterization(n, k, c) == w
        except CertificateError:
            return False

    bad = next((c for c, w in zip(cochains, forms) if not solved(c, w)), None)
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
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
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
