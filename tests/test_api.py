"""The package surface: lazily loaded public names and immutable value types."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

import supersym
from supersym import transform
from supersym.superpartition import SuperPartition
from supersym.transform import BasisExpansion


def test_public_names_resolve_to_their_defining_objects():
    for name in supersym.__all__:
        obj = getattr(supersym, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(supersym.__all__) <= set(dir(supersym))
    namespace = {}
    exec("from supersym import *", namespace)
    assert set(supersym.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        supersym.no_such_name


def test_transform_forwards_the_engine_oracle():
    from supersym import engine_checks

    assert transform.verify_recursions is engine_checks.verify_recursions
    for name in transform.__all__:
        assert getattr(transform, name) is not None
    with pytest.raises(AttributeError):
        transform.no_such_name


def test_value_types_pickle_copy_and_refuse_assignment():
    sp = SuperPartition((2, 0), (1,))
    diagram = sp.circled_diagram()
    expansion = BasisExpansion("m", 3, 2, {sp: Fraction(-1, 2)})
    cases = [
        (sp, "a", ((2, 0), (1,))),
        (diagram, "rows", (diagram.rows, diagram.circled)),
        (expansion, "coeffs", ("m", 3, 2, {sp: Fraction(-1, 2)})),
    ]
    for value, field, as_tuple in cases:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert (value == as_tuple) is False
    with pytest.raises(TypeError):
        hash(expansion)
    twin = SuperPartition((2, 0), (1, 0))
    assert twin == sp and hash(twin) == hash(sp) == hash(pickle.loads(pickle.dumps(sp)))
    assert hash(copy.deepcopy(diagram)) == hash(diagram)
