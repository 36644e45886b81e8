"""Value semantics of the package's immutable classes.

Faces, cochains, forms, affine functions and layouts are values: equal
fields make equal objects with equal hashes, a field cannot be assigned or
deleted, the repr names the class and its fields, and pickle and deepcopy
give back an equal object of the same class.
"""

import copy
import pickle

import pytest

from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    Face,
    UnknownLayout,
)
from whitneyforms.forms import unknown_layout

# (make, make_other, field, repr): make() builds equal values on every call,
# make_other() a value of the same class that differs from them in one field
CASES = {
    "face": (
        lambda: Face(3, (2, 0), -1),
        lambda: Face(3, (2, 0)),
        "sign",
        "Face(n=3, vertices=(2, 0), sign=-1)",
    ),
    "cochain": (
        lambda: Cochain(2, 1, {(0, 1): 1, (1, 2): "1/2"}),
        lambda: Cochain(2, 1, {(0, 1): 1}),
        "q",
        "Cochain(n=2, k=1, vec=(2, 0, 1), q=2)",
    ),
    "affine-form": (
        lambda: AffineForm(2, 1, {(1,): AffineFunction(2, 1, (2, 3))}),
        lambda: AffineForm(2, 1, {(2,): AffineFunction(2, 1, (2, 3))}),
        "vec",
        "AffineForm(n=2, k=1, vec=(1, 2, 3, 0, 0, 0), q=1)",
    ),
    "affine-function": (
        lambda: AffineFunction(2, "1/2", (2, 3)),
        lambda: AffineFunction(2, "1/2", (2, 4)),
        "n",
        "AffineFunction(n=2, k=0, vec=(1, 4, 6), q=2)",
    ),
    "layout": (
        lambda: UnknownLayout(3, 1),
        lambda: UnknownLayout(3, 2),
        "k",
        "UnknownLayout(n=3, k=1)",
    ),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    return CASES[request.param]


def test_equal_fields_make_equal_values_with_equal_hashes(case):
    make, make_other, _, _ = case
    a, b, other = make(), make(), make_other()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_a_field_cannot_be_assigned_or_deleted(case):
    make, _, field, _ = case
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before and value == make()


def test_repr_names_the_class_and_its_fields(case):
    make, _, _, text = case
    assert repr(make()) == text


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-protocol-0", "deepcopy", "copy"])
def test_pickle_and_copy_give_back_an_equal_value(case, round_trip):
    make, _, _, text = case
    back = round_trip(make())
    assert type(back) is type(make())
    assert back == make() and hash(back) == hash(make())
    assert repr(back) == text


def test_cached_views_survive_a_round_trip():
    # a layout and a cochain carry their built views in their state
    layout = unknown_layout(3, 1)
    labels = layout.labels
    c = Cochain(2, 1, {(0, 1): 1, (1, 2): "1/2"})
    terms = dict(c.terms)
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        back = round_trip(layout)
        assert back == layout and back.labels == labels and back.position((2,), 1) == 5
        assert dict(round_trip(c).terms) == terms
    # cached views are no fields: building one changes neither equality nor hash
    fresh = UnknownLayout(3, 1)
    assert fresh == layout and hash(fresh) == hash(layout)


def test_values_of_different_classes_are_unequal():
    c = Cochain.from_vector(1, 0, [1, 2])
    f = AffineFunction.from_vector(1, 0, [1, 2])
    form = AffineForm.from_vector(1, 0, [1, 2])
    assert (c.n, c.k, c.vec, c.q) == (f.n, f.k, f.vec, f.q) == (form.n, form.k, form.vec, form.q)
    assert c != f and f != form and c != form
    assert Face(2, (0, 1)) != (2, (0, 1), 1)
    assert UnknownLayout(2, 1) != (2, 1)
