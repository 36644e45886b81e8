"""Faces, orientations, barycentric coordinates, and cochains."""

import copy
import itertools
import json
import math
import operator
import pickle
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    LinearSolver,
    barycentric_functions,
    bubble_sort_parity,
    canonical_pair,
    cochain_eval,
    column_sum,
    count_subsets,
    dense_system,
    derham_columns,
    det,
    dict_random_cochain,
    evaluate,
    face_parametrization,
    nullspace,
    rank,
    vertex_point,
)
from whitneyforms import (
    AffineForm,
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    canonicalize,
    cochain_from_json,
    cochain_to_json,
    derham,
    enumerate_faces,
    permutation_sign,
    random_cochain,
    whitney,
)
from whitneyforms import linalg, simplicial
from whitneyforms.characterize import lambda_e_dimension
from whitneyforms.forms import UnknownLayout, unknown_layout
from whitneyforms.operators import derham_rows, whitney_rows
from whitneyforms.render import form_from_json
from whitneyforms.simplicial import ScaledVector


def test_face_validation():
    Face(2, (0, 1))
    with pytest.raises(ValueError):
        Face(2, (0, 0))
    with pytest.raises(ValueError):
        Face(2, (0, 3))
    with pytest.raises(ValueError):
        Face(2, (0, 1), sign=2)
    with pytest.raises(BadDegree):
        Face(2, (0, 1, 2, 2))  # too many labels also means a repeat; length first
    # the point n = 0 has its one face [0]; a negative n is no cell
    assert Face(0, (0,)).vertices == (0,)
    with pytest.raises(BadDegree):
        Face(-1, ())


@pytest.mark.parametrize("sign", [1.0, -1.0, True, False])
def test_face_sign_must_be_an_exact_int(sign):
    # 1.0 and True compare equal to 1, so a membership test alone admits them
    with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
        Face(2, (1, 0), sign)


def test_face_too_many_vertices():
    with pytest.raises(BadDegree):
        Face(1, (0, 1, 1))


def test_canonicalize_examples():
    f = canonicalize(Face(2, (2, 0, 1)))
    assert f.vertices == (0, 1, 2) and f.sign == 1
    g = canonicalize(Face(2, (2, 1)))
    assert g.vertices == (1, 2) and g.sign == -1
    h = canonicalize(Face(2, (1, 2), sign=-1))
    assert h.vertices == (1, 2) and h.sign == -1


@given(st.permutations(list(range(5))))
def test_permutation_sign_matches_bubble_sort(perm):
    assert permutation_sign(perm) == bubble_sort_parity(perm)


def test_enumerate_faces_counts():
    assert len(enumerate_faces(4, 2)) == 10
    for n in range(1, 6):
        for k in range(n + 1):
            faces = enumerate_faces(n, k)
            assert len(faces) == count_subsets(n + 1, k + 1)
            assert all(f.is_canonical for f in faces)
    with pytest.raises(BadDegree):
        enumerate_faces(3, 4)


def test_barycentric_partition_of_unity():
    for n in range(1, 6):
        nu = barycentric_functions(n)
        total = nu[0]
        for f in nu[1:]:
            total = total + f
        assert total == AffineFunction.const(n, 1)


def test_barycentric_vertex_values():
    for n in range(1, 5):
        nu = barycentric_functions(n)
        for i in range(n + 1):
            for j in range(n + 1):
                want = Fraction(1) if i == j else Fraction(0)
                assert nu[i](vertex_point(n, j)) == want


def test_barycentric_at_interior_point():
    nu = barycentric_functions(3)
    p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    assert nu[0](p) == Fraction(1, 4)


def test_face_parametrization_edge():
    param = face_parametrization(Face(2, (1, 2)))
    assert param((Fraction(0),)) == (Fraction(1), Fraction(0))
    assert param((Fraction(1),)) == (Fraction(0), Fraction(1))
    assert param((Fraction(1, 3),)) == (Fraction(2, 3), Fraction(1, 3))


def test_face_parametrization_hits_vertices():
    face = Face(3, (2, 0, 3))
    param = face_parametrization(face)
    corners = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    for t, label in zip(corners, face.vertices):
        assert param(t) == vertex_point(3, label)


def test_cochain_normalization():
    c = Cochain(2, 1, {(0, 1): Fraction(0), (1, 2): Fraction(3, 2)})
    assert c.terms == {(1, 2): Fraction(3, 2)}
    with pytest.raises(ValueError):
        Cochain(2, 1, {(1, 0): Fraction(1)})
    with pytest.raises(DegreeMismatch):
        Cochain(2, 1, {(0, 1, 2): Fraction(1)})


def test_exact_types_reject_floats_and_bools():
    for bad in (0.1, 0.5, True):
        with pytest.raises(ValueError, match="not an exact rational"):
            Cochain(1, 0, {(0,): bad})
        with pytest.raises(ValueError, match="not an exact rational"):
            Cochain.from_terms(1, 0, [((0,), bad)])
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, bad, (Fraction(1, 2),))
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, Fraction(0), (bad,))
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction.const(1, bad)
        # points, parameter points and tangent vectors are exact inputs too
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, 0, (Fraction(1),))((bad,))
        with pytest.raises(ValueError, match="not an exact rational"):
            face_parametrization(Face(2, (1, 2)))((bad,))
        form = AffineForm(2, 1, {(1,): AffineFunction(2, 1, (Fraction(1), Fraction(0)))})
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(form, (bad, 0), [(1, 0)])
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(form, (0, 0), [(bad, 0)])
        # the point is checked even where no coefficient reads it
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(AffineForm.zero(2, 1), (bad, 0), [(1, 0)])
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(AffineForm(2, 1, {(1,): 1}), (bad, 0), [(1, 0)])
        # determinant entries, and the dense oracles' entries and right-hand sides
        with pytest.raises(ValueError, match="not an exact rational"):
            det([[Fraction(1), bad], [0, 1]])
        with pytest.raises(ValueError, match="not an exact rational"):
            rank([[Fraction(1), bad]])
        with pytest.raises(ValueError, match="not an exact rational"):
            nullspace([[bad]], 1)
        with pytest.raises(ValueError, match="not an exact rational"):
            LinearSolver([[bad]])
        with pytest.raises(ValueError, match="not an exact rational"):
            LinearSolver([[1]]).solve([bad])
    assert simplicial.exact_rational is linalg.exact_rational
    assert det([[1, Fraction(1, 10)], [0, 3]]) == Fraction(3)
    assert rank([[1, Fraction(1, 10)]]) == 1
    assert LinearSolver([[1]]).solve([Fraction(1, 10)]) == (Fraction(1, 10),)
    assert LinearSolver([[1]]).solve([3]) == (Fraction(3),)
    assert Cochain(1, 0, {(0,): 1}).terms == {(0,): Fraction(1)}
    assert AffineFunction(1, 2, (Fraction(1, 2),)).constant == Fraction(2)
    assert AffineFunction(1, 0, (Fraction(1),))((Fraction(1, 10),)) == Fraction(1, 10)
    assert face_parametrization(Face(2, (1, 2)))((Fraction(1, 2),)) == (Fraction(1, 2),) * 2
    assert evaluate(form, (Fraction(1, 2), 0), [(3, 0)]) == Fraction(9, 2)


def test_cochain_eval_applies_orientation():
    c = Cochain(2, 1, {(1, 2): Fraction(3, 2), (0, 2): Fraction(5)})
    assert cochain_eval(c, Face(2, (2, 0))) == Fraction(-5)
    assert cochain_eval(c, Face(2, (1, 2))) == Fraction(3, 2)
    assert cochain_eval(c, Face(2, (0, 1))) == Fraction(0)
    with pytest.raises(DegreeMismatch):
        cochain_eval(c, Face(2, (0,)))


def test_cochain_from_terms_folds_orientations():
    c = Cochain.from_terms(2, 1, [((2, 1), Fraction(1)), ((1, 2), Fraction(1))])
    assert c.terms == {}
    d = Cochain.from_terms(2, 1, [((2, 0), 2), ((0, 2), 1)])
    assert d.terms == {(0, 2): Fraction(-1)}


def test_cochain_arithmetic():
    a = Cochain(2, 1, {(0, 1): Fraction(1)})
    b = Cochain(2, 1, {(0, 1): Fraction(-1), (1, 2): Fraction(2)})
    assert (a + b).terms == {(1, 2): Fraction(2)}
    assert (a - a).terms == {}
    assert (3 * b).terms == {(0, 1): Fraction(-3), (1, 2): Fraction(6)}
    with pytest.raises(DegreeMismatch):
        a + Cochain(2, 0, {(0,): Fraction(1)})


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def cochain_cases(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))

    def terms():
        return {
            face.vertices: draw(rationals)
            for face in enumerate_faces(n, k)
            if draw(st.booleans())
        }

    return n, k, terms(), terms(), draw(rationals), draw(st.integers(1, 50))


def dict_sum(a, b, s=1):
    out = dict(a)
    for face, v in b.items():
        out[face] = out.get(face, 0) + s * v
    return {face: v for face, v in sorted(out.items()) if v}


@given(cochain_cases())
@settings(max_examples=80, deadline=None)
def test_cochain_vector_matches_its_terms(case):
    n, k, a, b, s, m = case
    c, d = Cochain(n, k, a), Cochain(n, k, b)
    assert c.terms == dict_sum(a, {}) and list(c.terms) == sorted(c.terms)
    faces = [face.vertices for face in enumerate_faces(n, k)]
    assert [Fraction(v, c.q) for v in c.vec] == [a.get(face, 0) for face in faces]
    assert Cochain.from_vector(n, k, c.vec, c.q) == c
    assert Cochain.from_vector(n, k, [m * v for v in c.vec], m * c.q) == c
    assert Cochain(n, k, c.terms) == c
    results = [
        (c + d, dict_sum(a, b)),
        (c - d, dict_sum(a, b, -1)),
        (-c, dict_sum({}, a, -1)),
        (s * c, dict_sum({}, a, s)),
        (c * m, dict_sum({}, a, m)),
    ]
    for cochain, oracle in results:
        assert cochain.terms == oracle
        assert cochain == Cochain(n, k, oracle)
    assert (c - c).is_zero() and (c - c) == Cochain.zero(n, k) and (c - c).q == 1


def test_random_cochain_is_reproducible():
    a = random_cochain(Random(7), 3, 1)
    b = random_cochain(Random(7), 3, 1)
    assert a == b
    assert set(a.terms) <= {f.vertices for f in enumerate_faces(3, 1)}
    values = [v for v in a.terms.values()]
    assert all(abs(v) <= 10 and v.denominator <= 10 for v in values)


def test_random_cochain_draws_face_by_face(monkeypatch):
    # the same draws, in the same order, as the dict-built oracle, and straight into the vector
    cases = []
    for seed in range(50):
        for n in range(1, 7):
            for k in range(n + 1):
                reference = Random(seed)
                expected = [dict_random_cochain(reference, n, k) for _ in range(2)]
                cases.append((seed, n, k, expected, reference.getstate()))

    def refuse(*args, **kwargs):
        raise AssertionError("the random cochain left the integer path")

    monkeypatch.setattr(simplicial, "Fraction", refuse)
    monkeypatch.setattr(Cochain, "__init__", refuse)
    for seed, n, k, expected, state in cases:
        rng = Random(seed)
        drawn = [random_cochain(rng, n, k) for _ in range(2)]
        assert [(c.vec, c.q) for c in drawn] == [(c.vec, c.q) for c in expected]
        assert rng.getstate() == state


def test_random_pairs_are_the_randint_draws():
    # drawn through getrandbits, the numerators, the denominators and the generator's
    # final state are those of randint(-10, 10) and randint(1, 10), face after face
    for seed in range(200):
        for size in (1, 2, 5, 35, 462):
            rng, reference = Random(seed), Random(seed)
            expected = [
                (reference.randint(-10, 10), reference.randint(1, 10)) for _ in range(size)
            ]
            numerators, denominators = simplicial._random_draws(rng, size)
            assert numerators == [p for p, _ in expected]
            assert denominators == [d for _, d in expected]
            assert rng.getstate() == reference.getstate()


@st.composite
def big_scale_vectors(draw):
    """(class, n, k, vec, q): a random common factor over a scale q >= 2**64.

    Half the cases scale entries p_i / d_i by the lcm of the d_i, so that each
    entry shares most factors of q, as the Whitney and de Rham maps make them.
    """
    cls = draw(st.sampled_from([Cochain, AffineForm]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    size = cls.size(n, k)
    bits = draw(st.integers(1, 70))
    numerators = draw(st.lists(
        st.one_of(st.just(0), st.integers(-(2**bits), 2**bits)), min_size=size, max_size=size
    ))
    factor = draw(st.integers(1, 2**100))
    if draw(st.booleans()):
        denominators = draw(st.lists(st.integers(1, 2**bits), min_size=size, max_size=size))
        q = math.lcm(*denominators) * draw(st.integers(1, 2**20))
        vec = [p * (q // d) for p, d in zip(numerators, denominators)]
    else:
        q, vec = draw(st.integers(1, 2**100)), numerators
    if q * factor < 2**64:
        factor *= 2**64
    return cls, n, k, [factor * v for v in vec], factor * q


def _round_trip_integrals():
    """D~ applied to whitney(c) for a seeded 62-bit (7, 3) cochain c, as derham reduces it."""
    rng = Random(0)
    big = 2**62
    c = Cochain(
        7,
        3,
        {
            face.vertices: Fraction(rng.randrange(-big, big), rng.randrange(1, big))
            for face in enumerate_faces(7, 3)
        },
    )
    form = whitney(c)
    vec = column_sum(derham_columns(7, 3), form.vec, Cochain.size(7, 3))
    return Cochain, 7, 3, vec, form.q * math.factorial(4)


# Past the pre-gcd g = gcd(q, L), one divmod pass by g leaves remainders whose
# gcd h with g is the gcd of the pair; one case for each way it ends
REDUCTION_BRANCHES = {
    "h = g": (Cochain, 1, 0, [30, 45], 2**64 * 15),
    "h overshot": _round_trip_integrals(),
    "h = 1 < g": (Cochain, 1, 0, [1, 1], 2**65 * 3),
    "negative": (AffineForm, 1, 0, [-9, 3], 2**64 * 6),
}


def _branch(vec, q):
    g = math.gcd(q, sum(map(operator.mul, vec, itertools.count(1, 2))))
    h = math.gcd(q, *vec)
    if h == g:
        return "h = g"
    return "h = 1 < g" if h == 1 else "h overshot"


def test_the_reduction_examples_take_each_branch():
    for name, (_, _, _, vec, q) in REDUCTION_BRANCHES.items():
        assert q >> 64
        if name == "negative":
            # divmod floors: -9 = -1 * q + (q - 9), and h = gcd(q, q - 9, 3) = 3
            assert min(vec) < 0 and _branch(vec, q) == "h overshot"
        else:
            assert _branch(vec, q) == name
    # the overshoot seen in a (7, 3) round trip: gcd(q, L) = 76 where the gcd is 4
    _, _, _, vec, q = REDUCTION_BRANCHES["h overshot"]
    assert math.gcd(q, *vec) == 4


@given(big_scale_vectors())
@example(REDUCTION_BRANCHES["h = g"])
@example(REDUCTION_BRANCHES["h overshot"])
@example(REDUCTION_BRANCHES["h = 1 < g"])
@example(REDUCTION_BRANCHES["negative"])
@settings(max_examples=150, deadline=None)
def test_big_scale_vector_is_reduced_like_each_entry(case):
    cls, n, k, vec, q = case
    out = cls.from_vector(n, k, vec, q)
    assert (out.vec, out.q) == canonical_pair(vec, q)
    assert math.gcd(out.q, *out.vec) == 1


@pytest.mark.parametrize("cls", [Cochain, AffineForm])
def test_big_scale_vector_whose_combination_vanishes(cls):
    # the combination sum((2i+1) * vec[i]) is 0, so gcd(q, L) = q and only the entries reduce q
    rng = Random(5)
    tail = [rng.randrange(-(2**70), 2**70) * 6**7 for _ in range(cls.size(3, 1) - 1)]
    vec = [-sum(map(operator.mul, tail, itertools.count(3, 2)))] + tail
    assert sum(map(operator.mul, vec, itertools.count(1, 2))) == 0
    q = 2**80 * 3**9 * 5
    out = cls.from_vector(3, 1, vec, q)
    assert (out.vec, out.q) == canonical_pair(vec, q)
    assert math.gcd(out.q, *out.vec) == 1 and out.q < q


@pytest.mark.parametrize("cls", [Cochain, AffineForm])
def test_big_scale_zero_vector_has_scale_one(cls):
    zero = cls.from_vector(3, 1, [0] * cls.size(3, 1), 2**200)
    assert zero.q == 1 and zero == cls.zero(3, 1)


def test_big_scale_form_in_the_kernel_of_derham_integrates_to_zero():
    n, k = 3, 1
    _, integrals = dense_system(n, k)
    kernel = nullspace(integrals, AffineForm.size(n, k))
    assert kernel
    for direction in kernel:
        scale = math.lcm(*(v.denominator for v in direction))
        vec = [int(v * scale) * 3**50 for v in direction]
        form = AffineForm.from_vector(n, k, vec, 2**70 * 3**60 + 2**64)
        assert not form.is_zero() and form.q >> 64
        image = derham(form)
        assert image == Cochain.zero(n, k) and image.q == 1


@st.composite
def dict_constructor_cases(draw):
    """(class, n, k, values): reduced Fractions, zero, small or 62-bit, one per vector entry."""
    cls = draw(st.sampled_from([Cochain, AffineForm]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    size = cls.size(n, k)
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-(2**62), 2**62), st.integers(1, 2**62)),
    )
    return cls, n, k, draw(st.lists(entry, min_size=size, max_size=size))


@given(dict_constructor_cases())
@settings(max_examples=150, deadline=None)
def test_dict_constructors_are_canonical_without_a_gcd(case):
    # the lcm of the reduced denominators is already the canonical scale
    cls, n, k, values = case
    if cls is Cochain:
        faces = itertools.combinations(range(n + 1), k + 1)
        out = Cochain(n, k, dict(zip(faces, values)))
    else:
        blocks = [values[i : i + n + 1] for i in range(0, len(values), n + 1)]
        spans = itertools.combinations(range(1, n + 1), k)
        out = AffineForm(n, k, {
            idx: AffineFunction(n, b, tuple(grad)) for idx, (b, *grad) in zip(spans, blocks)
        })
    assert [Fraction(v, out.q) for v in out.vec] == values
    assert math.gcd(out.q, *out.vec) == 1
    assert out == cls.from_vector(n, k, out.vec, out.q)


@pytest.mark.parametrize("q", [1, 7, 2**64, 2**200])
@pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), Fraction(2), True, np.int64(3)])
def test_non_integer_entry_is_a_type_error_at_any_scale(q, bad):
    for cls in (Cochain, AffineForm):
        size = cls.size(3, 1)
        for at in (0, size - 1):
            vec = [2**70] * size
            vec[at] = bad
            with pytest.raises(TypeError):
                cls.from_vector(3, 1, vec, q)


def test_cochain_json_round_trip():
    c = Cochain(2, 1, {(0, 1): Fraction(3, 2), (1, 2): Fraction(-5)})
    data = cochain_to_json(c)
    assert data == {
        "n": 2,
        "k": 1,
        "terms": [
            {"face": [0, 1], "coeff": "3/2"},
            {"face": [1, 2], "coeff": "-5"},
        ],
    }
    assert cochain_from_json(json.loads(json.dumps(data))) == c


def test_cochain_json_refuses_a_huge_cell_before_allocating(monkeypatch):
    # a (10**9, 0) cochain has 10**9 + 1 entries: it must be refused unbuilt
    def unbuilt(*args, **kwargs):
        raise AssertionError("the cochain was built")

    monkeypatch.setattr(Cochain, "__init__", unbuilt)
    monkeypatch.setattr(simplicial, "Face", unbuilt)
    message = f"more than {simplicial.MAX_UNKNOWNS} coefficient unknowns"
    for n, k in [(10**9, 0), (30, 15), (9, 4)]:
        data = {"n": n, "k": k, "terms": [{"face": list(range(k + 1)), "coeff": "1"}]}
        with pytest.raises(ValueError, match=message):
            cochain_from_json(data)
    monkeypatch.undo()
    assert cochain_from_json({"n": 8, "k": 4, "terms": []}) == Cochain(8, 4)
    # a cochain built in the program is not capped
    assert Cochain(9, 4).is_zero() and len(Cochain(9, 4).vec) == 252


def test_cochain_json_accepts_unsorted_faces():
    data = {
        "n": 2,
        "k": 1,
        "terms": [
            {"face": [2, 1], "coeff": "1"},
            {"face": [1, 2], "coeff": "3"},
        ],
    }
    assert cochain_from_json(data) == Cochain(2, 1, {(1, 2): Fraction(2)})


def test_cochain_json_rejects_garbage():
    with pytest.raises(ValueError):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": [0, 1]}]})
    with pytest.raises(ValueError):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": [0, 1], "coeff": "0.5"}]})
    with pytest.raises(ValueError):
        cochain_from_json({"k": 1, "terms": []})
    # a JSON string where the vertex list belongs is not read as its characters
    with pytest.raises(ValueError, match="must be a list"):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": "12", "coeff": "1"}]})



@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "k": 1, "terms": [{"face": [0.5, 1.7], "coeff": "1"}]},
        {"n": 2, "k": 1, "terms": [{"face": [True, "2"], "coeff": "1"}]},
        {"n": 2, "k": 1, "terms": [{"face": [0, 1.0], "coeff": "1"}]},
        {"n": 2.7, "k": 1, "terms": []},
        {"n": "2", "k": 1, "terms": []},
        {"n": 2, "k": True, "terms": []},
        {"n": 2, "k": 1.0, "terms": []},
    ],
)
def test_cochain_json_takes_only_integer_fields(data):
    # int() would read these as face (0, 1), (1, 2), n = 2 and k = 1
    with pytest.raises(ValueError, match="not an integer"):
        cochain_from_json(data)


faces_strategy = st.integers(1, 4).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(
            st.just(n),
            st.permutations(list(range(n + 1))).map(lambda p: tuple(p[: k + 1])),
        )
    )
)


@given(faces_strategy)
@settings(max_examples=80)
def test_canonicalize_is_idempotent_and_sign_consistent(case):
    n, verts = case
    face = Face(n, verts)
    canon = canonicalize(face)
    assert canon.is_canonical == (canon.sign == 1)
    assert canonicalize(canon) == canon
    assert canon.vertices == tuple(sorted(verts))
    assert canon.sign == permutation_sign(verts)


@given(faces_strategy, st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_cochain_eval_is_alternating(case, seed):
    n, verts = case
    k = len(verts) - 1
    c = random_cochain(Random(seed), n, k)
    face = Face(n, verts)
    value = cochain_eval(c, face)
    swapped = cochain_eval(c, Face(n, verts, sign=-1))
    assert swapped == -value
    if k >= 1:
        transposed = (verts[1], verts[0]) + verts[2:]
        assert cochain_eval(c, Face(n, transposed)) == -value


@pytest.mark.parametrize(
    "build",
    [
        lambda: Face(2, (0.5, 1.7)),
        lambda: Face(2, (True, "2")),
        lambda: Face(2, (0, 1.0)),
        lambda: Cochain(2, 1, {(0.5, 1.7): Fraction(1)}),
        lambda: Cochain(2, 1, {(True, 2): Fraction(1)}),
        lambda: Cochain(2, 1, {(0, "2"): Fraction(1)}),
        lambda: AffineForm(2, 1, {(1.9,): AffineFunction.const(2, 1)}),
        lambda: AffineForm(2, 1, {(True,): Fraction(1)}),
        lambda: AffineForm(2, 1, {("2",): Fraction(1)}),
        lambda: vertex_point(2, 1.5),
        lambda: vertex_point(2, True),
    ],
    ids=[
        "Face-floats", "Face-bool-str", "Face-float-one",
        "Cochain-floats", "Cochain-bool", "Cochain-str",
        "AffineForm-float", "AffineForm-bool", "AffineForm-str",
        "vertex_point-float", "vertex_point-bool",
    ],
)
def test_labels_must_be_integers(build):
    # int() would read 1.7 as 1, True as 1 and "2" as 2, naming another face
    with pytest.raises(ValueError, match="not an integer"):
        build()


@pytest.mark.parametrize(
    "value",
    [
        Cochain(2, 1, {(0, 1): 1}),
        AffineFunction.const(2, 3),
        AffineForm(2, 1, {(1,): Fraction(2)}),
    ],
    ids=["Cochain", "AffineFunction", "AffineForm"],
)
def test_bool_is_not_a_scalar(value):
    for flag in (True, False):
        with pytest.raises(TypeError):
            value * flag
        with pytest.raises(TypeError):
            flag * value
    assert value * 1 == value == 1 * value
    assert value * Fraction(2) == 2 * value


def test_basis_is_the_unit_vector_of_every_oriented_face(monkeypatch):
    # built straight from its face position: no Fraction, no cochain constructor
    cases = []
    for n in range(1, 5):
        for k in range(n + 1):
            for face in enumerate_faces(n, k):
                for order in itertools.permutations(face.vertices):
                    for sign in (1, -1):
                        oriented = Face(n, order, sign)
                        cases.append((oriented, Cochain.from_terms(n, k, [(oriented, 1)])))

    def refuse(*args, **kwargs):
        raise AssertionError("the basis cochain left the integer path")

    monkeypatch.setattr(simplicial, "Fraction", refuse)
    monkeypatch.setattr(Cochain, "__init__", refuse)
    for oriented, expected in cases:
        assert Cochain.basis(oriented) == expected


CELL_ENTRY_POINTS = {
    "UnknownLayout": lambda n, k: UnknownLayout(n, k),
    "unknown_layout": lambda n, k: unknown_layout(n, k),
    "AffineForm": lambda n, k: AffineForm(n, k),
    "AffineForm.from_vector": lambda n, k: AffineForm.from_vector(n, k, []),
    "AffineForm.zero": lambda n, k: AffineForm.zero(n, k),
    "Cochain": lambda n, k: Cochain(n, k),
    "Cochain.from_vector": lambda n, k: Cochain.from_vector(n, k, []),
    "Cochain.zero": lambda n, k: Cochain.zero(n, k),
    "enumerate_faces": enumerate_faces,
    "random_cochain": lambda n, k: random_cochain(Random(0), n, k),
    "whitney_rows": lambda n, k: whitney_rows(n, k),
    "derham_rows": lambda n, k: derham_rows(n, k),
    "lambda_e_dimension": lambda n, k: lambda_e_dimension(n, k),
    "cochain_from_json": lambda n, k: cochain_from_json({"n": n, "k": k, "terms": []}),
    "form_from_json": lambda n, k: form_from_json({"n": n, "k": k, "terms": []}),
}

# an affine function is a 0-form, so only its dimension n can make it no cell
ZERO_FORM_ENTRY_POINTS = {
    "AffineFunction": lambda n, k: AffineFunction(n, 0, ()),
    "AffineFunction.from_vector": lambda n, k: AffineFunction.from_vector(n, k, []),
    "AffineFunction.zero": lambda n, k: AffineFunction.zero(n),
}


@pytest.mark.parametrize("n, k", [(2, 3), (2, -1), (-1, 0)])
def test_every_entry_point_refuses_a_non_cell_alike(n, k):
    raised = set()
    entry_points = CELL_ENTRY_POINTS | (ZERO_FORM_ENTRY_POINTS if k == 0 else {})
    for name, build in entry_points.items():
        with pytest.raises(BadDegree) as info:
            build(n, k)
        raised.add((type(info.value), str(info.value)))
    assert raised == {(BadDegree, f"k={k} outside 0..{n}")}


@pytest.mark.parametrize(
    "zero, k",
    [(Cochain.zero, 1), (AffineForm.zero, 1), (lambda n, k: AffineFunction.zero(n), 0)],
    ids=["Cochain", "AffineForm", "AffineFunction"],
)
def test_adding_vectors_on_different_cells_names_both(zero, k):
    with pytest.raises(DegreeMismatch, match=rf"\(n=2, k={k}\) and \(n=3, k={k}\)"):
        zero(2, k) + zero(3, k)


@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), rationals, st.lists(rationals, min_size=n, max_size=n))
))
@settings(max_examples=40)
def test_an_affine_function_is_the_vector_of_a_0_form(case):
    n, b, g = case
    f = AffineFunction(n, b, g)
    form = AffineForm(n, 0, {(): f})
    assert (f.n, f.k, f.vec, f.q) == (form.n, form.k, form.vec, form.q)
    assert (f.constant, f.gradient) == (b, tuple(g))
    assert form.coeffs.get((), AffineFunction.zero(n)) == f
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert type(copied) is AffineFunction and copied == f and hash(copied) == hash(f)
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "is_zero"):
        assert getattr(AffineFunction, name) is getattr(ScaledVector, name)


def test_from_terms_refuses_a_face_of_another_simplex():
    # as cochain_eval does: the 3-simplex's [0, 1] is no face of the 2-simplex
    with pytest.raises(DegreeMismatch, match=r"dimension 3 against a \(2, 1\) cochain"):
        Cochain.from_terms(2, 1, [(Face(3, (0, 1)), 1)])
