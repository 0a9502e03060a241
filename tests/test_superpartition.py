"""Superpartition combinatorics: parsing, diagrams, orders, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersym import superpartition
from supersym.superpartition import (
    SparError,
    _blocks,
    SuperPartition,
    apply_move,
    bruhat_leq,
    count_check,
    dominance_leq,
    enumerate_superpartitions,
    orders_check,
)


def sp(text):
    return SuperPartition.parse(text)


# -- construction and text/JSON forms ---------------------------------------


def test_parse_prints_back():
    for text in ["(3,0;4,1)", "(;2,1)", "(3,1;)", "(;)", "(0;)", "(5,2,1,0;6,5,5,2,2,1)"]:
        assert sp(text).to_text() == text


def test_trailing_zeros_stripped_from_symmetric_side():
    assert sp("(;2,1,0,0)") == sp("(;2,1)")
    assert SuperPartition(a=(), s=(2, 1, 0)).s == (2, 1)


def test_normalised_equals_hash_alike():
    x = SuperPartition(a=(2, 0), s=(1, 0))
    y = SuperPartition(a=(2, 0), s=(1,))
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1
    assert repr(x) == "SuperPartition(a=(2, 0), s=(1,))"


def test_canonical_constructor_matches_the_validating_one():
    # product labels are built without validation; they must be the same objects
    for _, _, block in _blocks(7):
        for x in block:
            fast, checked = SuperPartition._canonical(x.a, x.s), SuperPartition(x.a, x.s)
            assert type(fast) is SuperPartition and fast == checked and checked == fast
            assert hash(fast) == hash(checked) and repr(fast) == repr(checked)
            assert (fast.degree, fast.bidegree) == (checked.degree, checked.bidegree)


def test_zero_kept_on_antisymmetric_side():
    x = sp("(1,0;)")
    assert x.a == (1, 0)
    assert x.fermionic_degree == 2
    assert x.length == 2


@pytest.mark.parametrize(
    "bad",
    ["(1,1;)", "(1,2;)", "(;1,2)", "(-1;)", "(;-2)", "()", "(1;2", "(a;)", "(;1,b)"],
)
def test_malformed_input_raises(bad):
    with pytest.raises(SparError):
        SuperPartition.parse(bad)


def test_error_message_names_offending_token():
    with pytest.raises(SparError, match="a"):
        SuperPartition.parse("(a;)")


def test_json_round_trip():
    x = sp("(3,1,0;4,3,2,1)")
    assert SuperPartition.from_json_dict(x.to_json_dict()) == x
    assert x.to_json_dict() == {"a": [3, 1, 0], "s": [4, 3, 2, 1]}


def test_degrees_and_length():
    x = sp("(3,1,0;4,3,2,1)")
    assert x.degree == 14
    assert x.fermionic_degree == 3
    assert x.bidegree == (14, 3)
    assert x.length == 7
    assert x.as_composition() == (3, 1, 0, 4, 3, 2, 1)


# -- star, circled diagram, shape -------------------------------------------


def test_star_reorders_and_strips():
    assert sp("(5,2,1,0;6,5,5,2,2,1)").star() == (6, 5, 5, 5, 2, 2, 2, 1, 1)
    assert sp("(0;)").star() == ()
    assert sp("(3,1,0;4,3,2,1)").star() == (4, 3, 3, 2, 1, 1)


def test_circled_diagram_leftmost_rule():
    d = sp("(3,1,0;4,3,2,1)").circled_diagram()
    assert d.rows == (4, 3, 3, 2, 1, 1, 0)
    # circles sit on the first row of each repeated value group
    assert d.circled == frozenset({1, 4, 6})

    d = sp("(0;)").circled_diagram()
    assert d.rows == (0,)
    assert d.circled == frozenset({0})

    d = sp("(2,1;2)").circled_diagram()
    assert d.rows == (2, 2, 1)
    assert d.circled == frozenset({0, 2})


def test_shape_counts_circles():
    assert sp("(3,1,0;4,3,2,1)").shape_circled() == (4, 4, 3, 2, 2, 1, 1)
    assert sp("(0;)").shape_circled() == (1,)
    assert sp("(5,2,1;4,3,3)").shape_circled() == (6, 4, 3, 3, 3, 2)


# -- conjugation --------------------------------------------------------------


def test_conjugate_examples():
    assert sp("(3,1,0;4,3,2,1)").conjugate() == sp("(6,4,1;3)")
    assert sp("(0;)").conjugate() == sp("(0;)")
    # transpose of [][]() / () has columns 2,1 and circles in rows 1 and 2
    assert sp("(2,0;)").conjugate() == sp("(1,0;1)")


def transpose(part):
    """Conjugate of a plain partition."""
    if not part:
        return ()
    return tuple(sum(1 for v in part if v > c) for c in range(part[0]))


def all_spars_upto(n_max):
    for n in range(n_max + 1):
        m = 0
        while m * (m - 1) // 2 <= n:
            yield from enumerate_superpartitions(n, m)
            m += 1


def test_conjugate_is_involution_and_commutes_with_star():
    for x in all_spars_upto(8):
        y = x.conjugate()
        assert y.bidegree == x.bidegree
        assert y.conjugate() == x
        assert y.star() == transpose(x.star())


# -- enumeration ---------------------------------------------------------------


def test_enumeration_order_and_contents():
    got = [x.to_text() for x in enumerate_superpartitions(3, 2)]
    assert got == ["(3,0;)", "(2,1;)", "(2,0;1)", "(1,0;2)", "(1,0;1,1)"]


def test_enumeration_edge_blocks():
    assert enumerate_superpartitions(0, 1) == [sp("(0;)")]
    assert enumerate_superpartitions(0, 0) == [SuperPartition(a=(), s=())]
    assert enumerate_superpartitions(1, 3) == []


def test_block_empty_iff_below_staircase():
    for n in range(8):
        for m in range(6):
            block = enumerate_superpartitions(n, m)
            assert (block == []) == (n < m * (m - 1) // 2)


def test_max_len_filters_by_length():
    full = enumerate_superpartitions(4, 1)
    short = enumerate_superpartitions(4, 1, max_len=2)
    assert short == [x for x in full if x.length <= 2]


def test_max_len_must_be_nonnegative():
    assert enumerate_superpartitions(0, 0, max_len=0) == [SuperPartition()]
    assert enumerate_superpartitions(3, 1, max_len=0) == []
    with pytest.raises(ValueError, match="max_len >= 0"):
        enumerate_superpartitions(3, 1, max_len=-1)


def block_by_every_fermionic_set(n, m):
    """A block as it was first enumerated: every m-set of parts in 0..n,
    those past the degree skipped, each label validated by __init__."""
    found = []
    for fer in itertools.combinations(range(n + 1), m):
        rest = n - sum(fer)
        if rest < 0:
            continue
        a = tuple(reversed(fer))
        for s in superpartition._partitions_bounded(rest, rest, rest):
            found.append(SuperPartition(a, s))
    found.sort(key=SuperPartition.sort_key, reverse=True)
    return tuple(found)


def test_block_matches_the_walk_over_every_fermionic_set():
    blocks = 0
    for n in range(13):
        for m in range(n + 3):  # past the staircase, so the empty blocks are compared too
            want = block_by_every_fermionic_set(n, m)
            got = superpartition._block.__wrapped__(n, m)
            assert got == want, (n, m)
            assert [(x.a, x.s, x.bidegree, hash(x)) for x in got] == [(x.a, x.s, x.bidegree, hash(x)) for x in want]
            assert all(type(p) is int for x in got for p in x.a + x.s)
            blocks += bool(want)
    assert blocks == sum(1 for n in range(13) for m in range(n + 3) if m * (m - 1) // 2 <= n)


def test_enumeration_is_duplicate_free():
    for n in range(6):
        for m in range(4):
            block = enumerate_superpartitions(n, m)
            assert len(set(block)) == len(block)


# -- orders ---------------------------------------------------------------------


INCOMPARABLE_A = "(4,3,0;5,3,2,1)"
INCOMPARABLE_B = "(5,2,1;4,3,3)"


def test_bruhat_incomparable_pair():
    a, b = sp(INCOMPARABLE_A), sp(INCOMPARABLE_B)
    assert not bruhat_leq(a, b)
    assert not bruhat_leq(b, a)
    assert dominance_leq(a, b)
    assert not dominance_leq(b, a)


def test_orders_are_reflexive():
    for x in all_spars_upto(4):
        assert bruhat_leq(x, x)
        assert dominance_leq(x, x)


def test_order_requires_matching_bidegree():
    with pytest.raises(ValueError):
        bruhat_leq(sp("(;2)"), sp("(;3)"))
    with pytest.raises(ValueError):
        dominance_leq(sp("(0;)"), sp("(;1)"))


def test_bruhat_implies_dominance():
    for n in range(6):
        for m in range(4):
            block = enumerate_superpartitions(n, m)
            for x in block:
                for y in block:
                    if bruhat_leq(x, y):
                        assert dominance_leq(x, y)


def test_move_examples():
    assert apply_move("S", 0, 1, (3, 0)) == (2, 1)
    assert apply_move("T", 0, 1, (2, 1)) == (1, 2)
    # below-threshold differences leave the composition alone
    assert apply_move("S", 0, 1, (2, 1)) == (2, 1)
    assert apply_move("T", 0, 1, (1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        apply_move("Q", 0, 1, (2, 1))


def closure(comps, kinds):
    """All compositions reachable by repeated S/T moves."""
    seen = set(comps)
    frontier = list(comps)
    while frontier:
        c = frontier.pop()
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                for kind in kinds:
                    nxt = apply_move(kind, i, j, c)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return seen


def test_move_closure_matches_order_characterization():
    # star comparison <=> reachability by one-unit transfers, and for equal
    # stars the swap moves on the composition decide the rest
    for n in range(5):
        for m in range(4):
            block = enumerate_superpartitions(n, m)
            if not block:
                continue
            pad = max(1, n)
            width = max(x.length for x in block) + 1
            for x in block:
                star_cl = closure([x.star() + (0,) * (pad - len(x.star()))], ("S",))
                x_comp = x.as_composition()
                comp_cl = closure([x_comp + (0,) * (width - len(x_comp))], ("T",))
                for y in block:
                    y_star = y.star() + (0,) * (pad - len(y.star()))
                    y_comp = y.as_composition()
                    y_comp = y_comp + (0,) * (width - len(y_comp))
                    expected = (
                        x == y
                        or (y.star() != x.star() and y_star in star_cl)
                        or (y.star() == x.star() and y_comp in comp_cl)
                    )
                    assert bruhat_leq(y, x) == expected, (x, y)


def test_orders_check_report():
    rep = orders_check(5)
    assert rep["pass"] is True
    assert rep["first_failure"] is None
    assert rep["check"] == "orders"


# -- counting -------------------------------------------------------------------


def count_partitions_max_parts(n, p):
    """Partitions of n into at most p parts, by brute force."""

    def rec(rest, largest, slots):
        if rest == 0:
            return 1
        if slots == 0:
            return 0
        return sum(rec(rest - k, k, slots - 1) for k in range(1, min(rest, largest) + 1))

    return rec(n, n, p)


def test_counts_reduce_to_plain_partitions_without_fermions():
    for n in range(7):
        for p in range(5):
            got = len(enumerate_superpartitions(n, 0, max_len=p))
            assert got == count_partitions_max_parts(n, p)


def test_count_check_report():
    rep = count_check(8)
    assert rep["pass"] is True
    assert rep["first_failure"] is None


# -- property tests ---------------------------------------------------------------


@st.composite
def spars(draw):
    a = draw(st.sets(st.integers(0, 6), max_size=4))
    s = draw(st.lists(st.integers(1, 6), max_size=4))
    return SuperPartition(a=tuple(sorted(a, reverse=True)), s=tuple(sorted(s, reverse=True)))


@given(spars())
@settings(max_examples=150, deadline=None)
def test_text_round_trip(x):
    assert SuperPartition.parse(x.to_text()) == x


@given(spars())
@settings(max_examples=150, deadline=None)
def test_star_conjugation_involution(x):
    assert x.conjugate().conjugate() == x
    assert sum(x.star()) == x.degree
    assert sorted(x.shape_circled(), reverse=True) == list(x.shape_circled())
