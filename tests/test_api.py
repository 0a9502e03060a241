"""The package surface: lazily loaded public names, immutable value types
and the errors that malformed input raises."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

import supersym
from supersym import transform
from supersym.engine_checks import expand_in_monomials
from supersym.superpartition import SparError, SuperPartition, apply_move
from supersym.superpoly import SuperPolynomial
from supersym.transform import BasisExpansion, change_basis, eh_in_p, parse_rational


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


P = SuperPolynomial
M1 = BasisExpansion.unit("m", SuperPartition((1,), ()))

# (call, exception, message)
INPUT_ERRORS = {
    "expand zero": (
        lambda: expand_in_monomials(P.zero(2)),
        ValueError, "cannot infer the bidegree of the zero polynomial",
    ),
    "expand inhomogeneous": (
        lambda: expand_in_monomials(P.term(2, 1, {1: 1}) + P.term(2, 1, {1: 2})),
        ValueError, "not homogeneous: bidegrees [(1, 0), (2, 0)] all present",
    ),
    "non-int part": (lambda: SuperPartition((1.5,), ()), SparError, "non-integer part 1.5 in fermionic side"),
    "malformed json": (
        lambda: SuperPartition.from_json_dict({"a": [1]}),
        SparError, "expected {'a': [...], 's': [...]}, got {'a': [1]}",
    ),
    "move positions": (lambda: apply_move("S", 1, 1, (2, 0)), IndexError, "need 0 <= i < j < 2, got (1, 1)"),
    "widen to fewer": (lambda: P.one(3).widen(2), ValueError, "cannot narrow 3 -> 2"),
    "negative shift": (lambda: P.one(2).shift_alphabet(-1, 3), ValueError, "offset must be >= 0"),
    "hash polynomial": (
        lambda: hash(P.one(1)), TypeError, "SuperPolynomial is mutable-by-construction; not hashable",
    ),
    "bad rational": (
        lambda: parse_rational("1/x"), ValueError, "bad rational '1/x': Invalid literal for Fraction: '1/x'",
    ),
    "mismatched add": (
        lambda: M1 + BasisExpansion.unit("h", SuperPartition((1,), ())),
        ValueError, "can only add expansions over the same basis and block",
    ),
    "eh_in_p which": (lambda: eh_in_p(2, False, "p"), ValueError, "which must be 'e' or 'h', got 'p'"),
    "unknown basis": (lambda: change_basis(M1, "x"), ValueError, "unknown basis 'x'"),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_malformed_input_raises_with_its_message(case):
    call, error, message = INPUT_ERRORS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
