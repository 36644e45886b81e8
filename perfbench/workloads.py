"""Seeded inputs for the benchmark workloads, and the answers they must give.

Nothing here imports whitneyforms: the program only ever sees the inputs
generated from the benchmark seed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from random import Random

# Cells of the warm streams, with 60, 140 and 280 unknowns, and how many
# times each appears per cycle. The weights keep the median and the 90th
# percentile of both streams inside a group of similar operations instead
# of on the edge between two groups whose latencies differ several-fold.
CELL_WEIGHTS = {(5, 2): 1, (6, 3): 3, (7, 3): 3}
CELLS = tuple(CELL_WEIGHTS)
# basis: one face with coefficient 1 (sparse forms);
# dense: every face, numerators and denominators up to 10;
# large: every face, numerators and denominators near 2**62.
KINDS = ("basis", "dense", "large")
COMBOS = tuple(
    (cell, kind) for cell, weight in CELL_WEIGHTS.items() for _ in range(weight) for kind in KINDS
)
CYCLE = len(COMBOS)

VERIFY_N_MAX = 5
VERIFY_SAMPLES = 20  # the CLI default, which the benchmark does not pass


def faces(n: int, k: int) -> list[tuple[int, ...]]:
    """Canonical k-faces of the standard n-simplex, lexicographic."""
    return list(itertools.combinations(range(n + 1), k + 1))


def unknowns(n: int, k: int) -> int:
    return (n + 1) * math.comb(n, k)


def cochain_terms(rng: Random, n: int, k: int, kind: str) -> dict[tuple[int, ...], Fraction]:
    all_faces = faces(n, k)
    if kind == "basis":
        return {rng.choice(all_faces): Fraction(1)}
    if kind == "dense":
        return {
            f: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10), rng.randint(1, 10))
            for f in all_faces
        }
    if kind == "large":
        return {
            f: Fraction(
                rng.choice((-1, 1)) * rng.randrange(2**61, 2**62), rng.randrange(2**61, 2**62)
            )
            for f in all_faces
        }
    raise ValueError(f"unknown cochain kind {kind!r}")


def stream_op(seed: int, index: int) -> tuple[int, int, str, dict]:
    """Operation ``index`` of the warm stream: (n, k, kind, face -> coefficient).

    Each cycle of ``CYCLE`` operations holds every (cell, kind) as often as
    the cell's weight, in a seeded order, so a run of whole cycles has an
    exact, known mix.
    """
    cycle, slot = divmod(index, CYCLE)
    order = list(COMBOS)
    Random(f"order:{seed}:{cycle}").shuffle(order)
    (n, k), kind = order[slot]
    return n, k, kind, cochain_terms(Random(f"op:{seed}:{index}"), n, k, kind)


def setup_op(seed: int, n: int, k: int) -> dict:
    """The dense cochain whose operation fills the caches of one cell."""
    return cochain_terms(Random(f"setup:{seed}:{n}:{k}"), n, k, "dense")


def verify_seeds(seed: int, count: int) -> list[int]:
    """The ``--seed`` of each verify-cli invocation of one run."""
    rng = Random(f"verify:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def expected_verify_stdout(n_max: int, samples: int, seed: int) -> str:
    """The all-pass ``verify`` report, byte for byte, as the CLI prints it."""
    cells = [
        {
            "n": n,
            "k": k,
            "dimension": True,
            "rw_identity": True,
            "characterization": True,
            "kernel": True,
            "proof_trace": None if k in (0, n) else True,
            "pass": True,
        }
        for n in range(1, n_max + 1)
        for k in range(n + 1)
    ]
    report = {
        "n_max": n_max,
        "k": None,
        "samples": samples,
        "seed": seed,
        "cells": cells,
        "failures": [],
        "first_counterexample": None,
        "pass": True,
    }
    return json.dumps(report) + "\n"


def _max_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def stream_descriptor(seed: int, indices) -> dict:
    """Cells, measured kind shares and largest coefficient of the ops run."""
    kinds: dict[str, int] = dict.fromkeys(KINDS, 0)
    cells: dict[tuple[int, int], int] = dict.fromkeys(CELLS, 0)
    bits = 0
    total = 0
    for index in indices:
        n, k, kind, terms = stream_op(seed, index)
        kinds[kind] += 1
        cells[(n, k)] += 1
        bits = max(bits, _max_bits(terms.values()))
        total += 1
    return {
        "cells": [
            {"n": n, "k": k, "unknowns": unknowns(n, k), "faces": math.comb(n + 1, k + 1),
             "share": count / total if total else 0.0}
            for (n, k), count in cells.items()
        ],
        "kind_share": {kind: count / total if total else 0.0 for kind, count in kinds.items()},
        "max_coeff_bits": bits,
        "ops": total,
    }


def verify_descriptor() -> dict:
    """Per invocation: every cell n <= 5, its basis cochains and 20 random ones.

    ``random_cochain`` draws |p|, q <= 10, so no coefficient exceeds 4 bits.
    """
    cells = [
        {"n": n, "k": k, "unknowns": unknowns(n, k), "faces": math.comb(n + 1, k + 1)}
        for n in range(1, VERIFY_N_MAX + 1)
        for k in range(n + 1)
    ]
    basis = sum(c["faces"] for c in cells)
    random = VERIFY_SAMPLES * len(cells)
    return {
        "cells": cells,
        "kind_share": {"basis": basis / (basis + random), "random_small": random / (basis + random)},
        "max_coeff_bits": 4,
    }
