"""The cached sparse integer operators against the independent routes.

Every fast path (``derham``, ``whitney``, the system matrices and the
replay's rows) is compared with a route that does not use the operators:
per-face ``integrate_over_face``, rows rebuilt from ``pullback`` of the unit
forms, and the sum of basis forms.
"""

import math
import sys
from random import Random

import pytest

from helpers import pullback_constant_term_row, pullback_system_rows, random_affine_form
from whitneyforms import (
    AffineForm,
    linalg,
    Cochain,
    Face,
    derham,
    enumerate_faces,
    integrate_over_face,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    random_cochain,
    solve_characterization,
    whitney,
    whitney_basis_form,
)
from whitneyforms.characterize import _system_matrices
from whitneyforms.simplicial import permutation_sign
from whitneyforms.operators import (
    constancy_rows,
    constant_term_row,
    derham_rows,
    unknown_layout,
    whitney_columns,
)

CELLS = [(n, k) for n in range(1, 7) for k in range(n + 1)] + [(7, 3)]


def _dense(row, size):
    out = [0] * size
    for pos, value in row:
        out[pos] = value
    return out


@pytest.mark.parametrize("n,k", CELLS)
def test_operator_entries_are_small_integers(n, k):
    size = unknown_layout(n, k).size
    for row in derham_rows(n, k):
        assert {v for _, v in row} <= {1, -1, k + 1, -(k + 1)}
    for rows in constancy_rows(n, k):
        assert len(rows) == k
        assert all({v for _, v in row} <= {1, -1} for row in rows)
    for column in whitney_columns(n, k).values():
        assert all(isinstance(v, int) and v for _, v in column)
    constancy = [row for rows in constancy_rows(n, k) for row in rows]
    for row in [*derham_rows(n, k), *constancy, *whitney_columns(n, k).values()]:
        positions = [p for p, _ in row]
        assert positions == sorted(set(positions)) and all(0 <= p < size for p in positions)


@pytest.mark.parametrize("n,k", CELLS)
def test_derham_matches_face_integration(n, k):
    rng = Random(1000 * n + k)
    for bits in (0, 62):
        form = random_affine_form(rng, n, k, bits)
        expected = Cochain(
            n, k, {face.vertices: integrate_over_face(form, face) for face in enumerate_faces(n, k)}
        )
        assert derham(form) == expected
        # above degree 0 a random form is not the Whitney form of its integrals
        assert k == 0 or whitney(expected) != form


@pytest.mark.parametrize("n,k", CELLS)
def test_system_matrices_match_pullback(n, k):
    constancy, integrals = _system_matrices(n, k)
    expected_constancy, expected_integrals = pullback_system_rows(n, k)
    assert [list(row) for row in constancy.entries] == expected_constancy
    assert [list(row) for row in integrals.entries] == expected_integrals


@pytest.mark.parametrize("n,k", CELLS)
def test_whitney_is_the_sum_of_basis_forms(n, k):
    rng = Random(2000 * n + k)
    cochains = [random_cochain(rng, n, k), Cochain.basis(enumerate_faces(n, k)[-1])]
    for c in cochains:
        expected = AffineForm.zero(n, k)
        for vertices, coeff in c.terms.items():
            expected = expected + coeff * whitney_basis_form(Face(n, vertices))
        assert whitney(c) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_constant_term_row_matches_pullback(n):
    for k in range(1, n):
        size = unknown_layout(n, k).size
        for span in unknown_layout(n, k).multi_indices:
            for m in range(1, n + 1):
                if m in span:
                    continue
                expected = pullback_constant_term_row(n, k, Face(n, (m,) + span))
                assert _dense(constant_term_row(n, k, m, span), size) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_constant_term_row_is_a_combination_of_its_face_rows(n):
    # (k+1) r(m, L) = sigma (D~_G - sum_s C_{G,s} + (k+1) C_{G,j}), j = G.index(m)
    for k in range(n + 1):
        layout = unknown_layout(n, k)
        for span in layout.multi_indices:
            for m in range(1, n + 1):
                if m in span:
                    continue
                g = tuple(sorted((m,) + span))
                i = layout.faces.index(g)
                combination = _dense(derham_rows(n, k)[i], layout.size)
                for s, row in enumerate(constancy_rows(n, k)[i], start=1):
                    weight = (k + 1 if s == g.index(m) else 0) - 1
                    combination = [
                        a + weight * b for a, b in zip(combination, _dense(row, layout.size))
                    ]
                sigma = permutation_sign((m,) + span)
                lhs = _dense(constant_term_row(n, k, m, span), layout.size)
                assert [(k + 1) * v for v in lhs] == [sigma * v for v in combination]


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "whitneyforms" or name.startswith("whitneyforms."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_hot_paths_never_pull_back(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pullback called on a hot path")

    def refuse_dense(*args, **kwargs):
        raise AssertionError("dense elimination on a hot path")

    patched = 0
    for name, module in list(sys.modules.items()):
        if (name == "whitneyforms" or name.startswith("whitneyforms.")) and hasattr(
            module, "pullback"
        ):
            monkeypatch.setattr(module, "pullback", refuse)
            patched += 1
    assert patched >= 2
    _clear_caches()
    try:
        with pytest.raises(AssertionError, match="hot path"):
            integrate_over_face(whitney_basis_form(Face(2, (0, 1))), Face(2, (0, 1)))
        for n, k in [(4, 2), (5, 3)]:
            c = random_cochain(Random(n + k), n, k)
            form = whitney(c)
            assert derham(form) == c
            assert solve_characterization(n, k, c) == form
            assert lambda_e_dimension(n, k) == math.comb(n + 1, k + 1)
            assert kernel_is_trivial(n, k).trivial
            assert proof_trace(n, k).complete

        # dense elimination stays out of the solve and the replay
        cells = [(4, 2), (5, 3), (7, 3)]
        expected = {(n, k): whitney(random_cochain(Random(n + k), n, k)) for n, k in cells}
        monkeypatch.setattr(linalg, "_rref", refuse_dense)
        _clear_caches()
        for n, k in cells:
            c = random_cochain(Random(n + k), n, k)
            assert solve_characterization(n, k, c) == expected[(n, k)]
            assert proof_trace(n, k).complete
    finally:
        _clear_caches()
