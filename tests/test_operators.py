"""The cached sparse integer operators against the independent routes.

Every fast path (``derham``, ``whitney``, the system matrices and the
replay's rows) is compared with a route that does not use the operators:
per-face ``integrate_over_face``, rows rebuilt from ``pullback`` of the unit
forms, and the sum of basis forms built by ``wedge``.
"""

import math
import sys
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    assert_no_dense_elimination,
    clear_caches,
    dense_system,
    pullback_constant_term_row,
    pullback_system_rows,
    random_affine_form,
    wedge_basis_form,
)
from whitneyforms import (
    AffineForm,
    AffineFunction,
    forms,
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
    verify_cell,
    whitney,
    whitney_basis_form,
)
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
        assert all(type(v) is int for _, v in column)
        assert {v for _, v in column} <= {math.factorial(k), -math.factorial(k)}
    constancy = [row for rows in constancy_rows(n, k) for row in rows]
    for row in [*derham_rows(n, k), *constancy, *whitney_columns(n, k).values()]:
        positions = [p for p, _ in row]
        assert positions == sorted(set(positions)) and all(0 <= p < size for p in positions)


def _face_integrals(form):
    return Cochain(
        form.n,
        form.k,
        {face.vertices: integrate_over_face(form, face) for face in enumerate_faces(form.n, form.k)},
    )


@pytest.mark.parametrize("n,k", CELLS)
def test_derham_matches_face_integration(n, k):
    rng = Random(1000 * n + k)
    random_forms = [random_affine_form(rng, n, k, bits) for bits in (0, 62)]
    for form in random_forms:
        expected = _face_integrals(form)
        assert derham(form) == expected
        # above degree 0 a random form is not the Whitney form of its integrals
        assert k == 0 or whitney(expected) != form
    # edge inputs: the zero form; one coefficient block, so most faces' rows
    # see only zeros; and a nonzero form whose integrals all vanish
    span = unknown_layout(n, k).multi_indices[-1]
    big = 2**62
    block = AffineFunction(n, Fraction(-3, big - 1), tuple(Fraction(j, 7) for j in range(n)))
    edge_forms = [
        AffineForm.zero(n, k),
        AffineForm(n, k, {span: block}),
        random_forms[1] - whitney(derham(random_forms[1])),
    ]
    for form in edge_forms:
        assert derham(form) == _face_integrals(form)
    assert derham(edge_forms[2]) == Cochain.zero(n, k)


@pytest.mark.parametrize("n,k", CELLS)
def test_system_matrices_match_pullback(n, k):
    constancy, integrals = dense_system(n, k)
    expected_constancy, expected_integrals = pullback_system_rows(n, k)
    assert constancy == expected_constancy
    assert integrals == expected_integrals


@pytest.mark.parametrize("n,k", CELLS)
def test_whitney_is_the_sum_of_basis_forms(n, k):
    rng = Random(2000 * n + k)
    big = 2**62
    cochains = [
        random_cochain(rng, n, k),
        Cochain.basis(enumerate_faces(n, k)[-1]),
        Cochain.zero(n, k),
        # 62-bit numerators over unrelated 62-bit denominators
        Cochain(
            n,
            k,
            {
                face.vertices: Fraction(rng.randrange(-big, big), rng.randrange(1, big))
                for face in enumerate_faces(n, k)
            },
        ),
    ]
    for c in cochains:
        expected = AffineForm.zero(n, k)
        for vertices, coeff in c.terms.items():
            expected = expected + coeff * wedge_basis_form(n, vertices)
        assert whitney(c) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_whitney_columns_match_the_wedge_construction(n):
    for k in range(n + 1):
        layout = unknown_layout(n, k)
        columns = whitney_columns(n, k)
        assert list(columns) == list(layout.faces)
        for face in layout.faces:
            form = wedge_basis_form(n, face)
            assert form.q == 1
            assert columns[face] == tuple((pos, v) for pos, v in enumerate(form.vec) if v)
        # an oriented face: a reversed or permuted vertex order flips the sign
        face = Face(n, tuple(reversed(layout.faces[-1])))
        assert whitney_basis_form(face) == wedge_basis_form(n, face.vertices)
        assert whitney_basis_form(Face(n, face.vertices, -1)) == -wedge_basis_form(n, face.vertices)


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


def test_hot_paths_never_pull_back(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pullback called on a hot path")

    def refuse_wedge(*args, **kwargs):
        raise AssertionError("wedge product on a hot path")

    def patch_everywhere(attr, replacement):
        patched = 0
        for name, module in list(sys.modules.items()):
            if (name == "whitneyforms" or name.startswith("whitneyforms.")) and hasattr(
                module, attr
            ):
                monkeypatch.setattr(module, attr, replacement)
                patched += 1
        return patched

    assert patch_everywhere("pullback", refuse) >= 2
    clear_caches()
    try:
        with pytest.raises(AssertionError, match="hot path"):
            integrate_over_face(whitney_basis_form(Face(2, (0, 1))), Face(2, (0, 1)))
        for n, k in [(4, 2), (5, 3)]:
            c = random_cochain(Random(n + k), n, k)
            form = whitney(c)
            assert derham(form) == c
            assert solve_characterization(n, k, c) == form
            assert lambda_e_dimension(n, k) == math.comb(n + 1, k + 1)
            assert kernel_is_trivial(n, k)
            assert proof_trace(n, k).complete

        # there is no dense elimination for the solve and the replay to reach
        assert_no_dense_elimination()
        for n, k in [(4, 2), (5, 3), (7, 3)]:
            c = random_cochain(Random(n + k), n, k)
            assert solve_characterization(n, k, c) == whitney(c)
            assert proof_trace(n, k).complete
        basis = {(n, k): wedge_basis_form(n, (0, 2, 3)) for n, k in [(4, 2), (5, 2)]}

        # and no wedge product is taken to build W or anything that reads it
        assert patch_everywhere("wedge", refuse_wedge) >= 2
        with pytest.raises(AssertionError, match="hot path"):
            forms.wedge(forms.AffineForm(2, 1, {(1,): 1}), forms.AffineForm(2, 1, {(2,): 1}))
        clear_caches()
        for n, k in [(4, 2), (5, 2)]:
            c = random_cochain(Random(n + k), n, k)
            assert derham(whitney(c)) == c
            assert whitney_basis_form(Face(n, (0, 2, 3))) == basis[(n, k)]
            assert verify_cell(n, k, samples=2)["pass"]
    finally:
        clear_caches()
