"""Superpartition combinatorics: diagrams, conjugation, orders, enumeration.

A superpartition is a pair written ``(a1,...,am; s1,...,sk)``: the left side
is strictly decreasing (a final zero is allowed and meaningful), the right
side is an ordinary partition.  The pair indexes everything else in this
package: bases are labeled by superpartitions, products expand over them,
and the two partial orders defined here control triangularity statements.

Example
-------
>>> sp = SuperPartition.parse("(3,1,0;4,3,2,1)")
>>> sp.star()
(4, 3, 3, 2, 1, 1)
>>> sp.conjugate().to_text()
'(6,4,1;3)'
"""

from __future__ import annotations

from functools import cache

__all__ = [
    "SparError",
    "SuperPartition",
    "Diagram",
    "bruhat_leq",
    "dominance_leq",
    "apply_move",
    "enumerate_superpartitions",
    "orders_check",
    "count_check",
]


# The basis names every expansion and the command line accept.
BASIS_NAMES = ("m", "e", "h", "p")


class SparError(ValueError):
    """Malformed superpartition input: bad token, bad ordering, negative part."""


class _Frozen:
    """Immutable value type: ``_fields`` are set once in ``__init__`` and
    drive repr, pickling and copying (which rebuild through ``__init__``).
    Written by hand so that importing the package needs no ``dataclasses``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _int_parts(values, label: str) -> tuple[int, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SparError(f"non-integer part {v!r} in {label}")
        out.append(v)
    return tuple(out)


class Diagram(_Frozen):
    """Left-justified rows of boxes; some rows end in a circle.

    Exactly one circle per fermionic part.  Row indices in ``circled`` are
    0-based; rendering is 1-based like everything user-facing.
    """

    __slots__ = _fields = ("rows", "circled")

    def __init__(self, rows: tuple[int, ...], circled: frozenset[int]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "circled", circled)

    def __eq__(self, other) -> bool:
        fields = (self.rows, self.circled)
        return other.__class__ is Diagram and fields == (other.rows, other.circled)

    def __hash__(self) -> int:
        return hash((self.rows, self.circled))

    def shape(self) -> tuple[int, ...]:
        """Row lengths with each circle counted as one extra cell."""
        return tuple(v + (1 if i in self.circled else 0) for i, v in enumerate(self.rows))

    def __str__(self) -> str:
        return "\n".join(
            "[]" * v + ("()" if i in self.circled else "")
            for i, v in enumerate(self.rows)
        )


class SuperPartition(_Frozen):
    """Canonical superpartition.

    ``a``: fermionic parts, strictly decreasing, each >= 0.  A zero entry is
    kept (it contributes a circled empty row and counts toward the length).
    ``s``: symmetric parts, weakly decreasing; trailing zeros are stripped on
    construction so that equality is structural.
    ``degree`` (all parts summed) and ``bidegree`` ``(degree, len(a))`` are
    computed on construction.
    """

    __slots__ = ("a", "s", "_hash", "degree", "bidegree")
    _fields = ("a", "s")

    def __init__(self, a: tuple[int, ...] = (), s: tuple[int, ...] = ()) -> None:
        a = _int_parts(a, "fermionic side")
        s = _int_parts(s, "symmetric side")
        while s and s[-1] == 0:
            s = s[:-1]
        if any(v < 0 for v in a + s):
            raise SparError(f"negative part in ({a};{s})")
        if any(a[i] <= a[i + 1] for i in range(len(a) - 1)):
            raise SparError(f"fermionic parts not strictly decreasing: {a}")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise SparError(f"symmetric parts not weakly decreasing: {s}")
        self._set_parts(a, s)

    @classmethod
    def _canonical(cls, a: tuple[int, ...], s: tuple[int, ...]) -> SuperPartition:
        """A superpartition from parts already in canonical form (int tuples,
        ``a`` strictly decreasing and >= 0, ``s`` weakly decreasing and > 0),
        without the checks of ``__init__``: for labels sorted by construction."""
        sp = object.__new__(cls)
        sp._set_parts(a, s)
        return sp

    def _set_parts(self, a: tuple[int, ...], s: tuple[int, ...]) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)
        # Superpartitions key every cache and coefficient map, and every
        # expansion checks its labels' bidegree, so compute both once.
        object.__setattr__(self, "_hash", hash((a, s)))
        object.__setattr__(self, "degree", sum(a) + sum(s))
        object.__setattr__(self, "bidegree", (self.degree, len(a)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # a dict probe with an equal but distinct key lands here: keep it direct
        return other.__class__ is SuperPartition and self.a == other.a and self.s == other.s

    # -- basic structure --------------------------------------------------

    @property
    def fermionic_degree(self) -> int:
        return len(self.a)

    @property
    def length(self) -> int:
        # a zero on the fermionic side counts; zeros never survive in `s`
        return len(self.a) + len(self.s)

    def as_composition(self) -> tuple[int, ...]:
        """Both sides concatenated, fermionic first."""
        return self.a + self.s

    # -- diagrams ----------------------------------------------------------

    def star(self) -> tuple[int, ...]:
        """All parts merged and sorted decreasingly, zeros dropped."""
        merged = sorted(self.a + self.s, reverse=True)
        return tuple(v for v in merged if v > 0)

    def circled_rows(self) -> tuple[tuple[int, bool], ...]:
        """Rows of the circled partition as (length, has_circle) pairs.

        Among rows of equal length, the circled one comes first, which is the
        leftmost-occurrence rule for marking repeated values.
        """
        rows = [(v, True) for v in self.a] + [(v, False) for v in self.s]
        rows.sort(reverse=True)
        return tuple(rows)

    def circled_diagram(self) -> Diagram:
        rows = self.circled_rows()
        return Diagram(
            tuple(v for v, _ in rows),
            frozenset(i for i, (_, c) in enumerate(rows) if c),
        )

    def shape_circled(self) -> tuple[int, ...]:
        """Shape of the circled diagram (circles counted as cells)."""
        return tuple(v + 1 if c else v for v, c in self.circled_rows())

    def conjugate(self) -> SuperPartition:
        """Transpose of the circled diagram.  Involutive.

        A circled source row of length v puts its circle into row v+1 of the
        transpose; box counts transpose as for plain partitions.
        """
        rows = self.circled_rows()
        if not rows:
            return SuperPartition()
        height = max(v + 1 if c else v for v, c in rows)
        circle_rows = {v + 1 for v, c in rows if c}
        new_a, new_s = [], []
        for r in range(1, height + 1):
            boxes = sum(1 for v, _ in rows if v >= r)
            if r in circle_rows:
                new_a.append(boxes)
            elif boxes > 0:
                new_s.append(boxes)
        new_a.sort(reverse=True)
        new_s.sort(reverse=True)
        return SuperPartition(tuple(new_a), tuple(new_s))

    # -- text and JSON forms ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> SuperPartition:
        """Parse the "(a1,...;s1,...)" form; either side may be empty."""
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise SparError(f"expected a parenthesized '(..;..)' form, got {text!r}")
        left, sep, right = t[1:-1].partition(";")
        if not sep:
            raise SparError(f"missing ';' separator in {text!r}")
        return cls(_parse_side(left, text), _parse_side(right, text))

    def to_text(self) -> str:
        return f"({','.join(map(str, self.a))};{','.join(map(str, self.s))})"

    def __str__(self) -> str:
        return self.to_text()

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "s": list(self.s)}

    @classmethod
    def from_json_dict(cls, data) -> SuperPartition:
        if not isinstance(data, dict) or set(data) != {"a", "s"}:
            raise SparError(f"expected {{'a': [...], 's': [...]}}, got {data!r}")
        return cls(tuple(data["a"]), tuple(data["s"]))

    # -- ordering key -------------------------------------------------------

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        """Key for the documented enumeration order.

        Rows of the circled partition compared left to right, a circled row
        beating a plain row of the same length; blocks are listed in
        decreasing key order.
        """
        return tuple((v, 1 if c else 0) for v, c in self.circled_rows())


def _parse_side(side: str, full: str) -> tuple[int, ...]:
    side = side.strip()
    if not side:
        return ()
    parts = []
    for token in side.split(","):
        tok = token.strip()
        try:
            parts.append(int(tok))
        except ValueError:
            raise SparError(f"bad part {tok!r} in {full!r}") from None
    return tuple(parts)


# -- partial orders ---------------------------------------------------------


def _partial_sums_leq(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Entrywise partial-sum comparison for equal-sum sequences."""
    pa = qa = 0
    for i in range(max(len(p), len(q))):
        pa += p[i] if i < len(p) else 0
        qa += q[i] if i < len(q) else 0
        if pa > qa:
            return False
    return True


def _check_same_block(x: SuperPartition, y: SuperPartition) -> None:
    if x.bidegree != y.bidegree:
        raise ValueError(
            f"cannot compare {x} and {y}: bidegrees {x.bidegree} != {y.bidegree}"
        )


def bruhat_leq(x: SuperPartition, y: SuperPartition) -> bool:
    """x <= y: star partitions strictly dominance-ordered, or equal stars and
    circled shapes dominance-ordered.

    The pair (star, circled shape) determines the superpartition, which makes
    the relation antisymmetric.  Both arguments must share one bidegree.
    """
    _check_same_block(x, y)
    xs, ys = x.star(), y.star()
    if xs == ys:
        return _partial_sums_leq(x.shape_circled(), y.shape_circled())
    return _partial_sums_leq(xs, ys)


def dominance_leq(x: SuperPartition, y: SuperPartition) -> bool:
    """x <=_D y: strict star dominance, or equal stars and the concatenated
    compositions compared by partial sums.

    Coarser than bruhat_leq: more pairs are comparable.  bruhat_leq(x, y)
    implies dominance_leq(x, y) but not conversely.
    """
    _check_same_block(x, y)
    xs, ys = x.star(), y.star()
    if xs == ys:
        return _partial_sums_leq(x.as_composition(), y.as_composition())
    return _partial_sums_leq(xs, ys)


def apply_move(kind: str, i: int, j: int, comp: tuple[int, ...]) -> tuple[int, ...]:
    """One straightening move on a composition, 0-based positions i < j.

    "S" moves one unit from place i to place j when comp[i] - comp[j] > 1;
    "T" swaps the two places when comp[i] > comp[j]; otherwise the input is
    returned unchanged.  Closing a composition under both moves walks down
    the order implemented by bruhat_leq (kept as a test oracle).
    """
    if not 0 <= i < j < len(comp):
        raise IndexError(f"need 0 <= i < j < {len(comp)}, got ({i}, {j})")
    c = list(comp)
    k = kind.upper()
    if k == "S":
        if c[i] - c[j] > 1:
            c[i] -= 1
            c[j] += 1
    elif k == "T":
        if c[i] > c[j]:
            c[i], c[j] = c[j], c[i]
    else:
        raise ValueError(f"unknown move kind {kind!r} (want 'S' or 'T')")
    return tuple(c)


# -- enumeration and counting -------------------------------------------------


def _partitions_bounded(total: int, max_part: int, max_parts: int):
    """Weakly decreasing positive parts of `total`, at most `max_parts` parts."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0 or max_part <= 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_bounded(total - first, first, max_parts - 1):
            yield (first, *rest)


@cache
def _block(n: int, m: int) -> tuple[SuperPartition, ...]:
    # the fermionic parts are the staircase m-1, .., 1, 0 plus a partition of
    # t into at most m parts, for each t the symmetric parts leave room for
    room = n - m * (m - 1) // 2
    found = [
        SuperPartition._canonical(tuple(m - 1 - i + p for i, p in enumerate(b + (0,) * (m - len(b)))), s)
        for t in range(room + 1)
        for b in _partitions_bounded(t, t, m)
        for s in _partitions_bounded(room - t, room - t, room - t)
    ]
    found.sort(key=SuperPartition.sort_key, reverse=True)
    return tuple(found)


def enumerate_superpartitions(n: int, m: int, max_len: int | None = None) -> list[SuperPartition]:
    """All superpartitions of bidegree (n|m), optionally of length <= max_len.

    Empty exactly when n < m(m-1)/2.  The order is deterministic: decreasing
    in SuperPartition.sort_key, which lists e.g. the (3|2) block as
    (3,0;), (2,1;), (2,0;1), (1,0;2), (1,0;1,1).
    """
    if n < 0 or m < 0:
        raise ValueError(f"need n, m >= 0, got ({n}, {m})")
    if max_len is not None and max_len < 0:
        raise ValueError(f"need max_len >= 0, got {max_len}")
    block = _block(n, m)
    if max_len is None:
        return list(block)
    return [sp for sp in block if sp.length <= max_len]


def _blocks(n_max: int, max_m: int | None = None):
    """Every block (n, m, superpartitions) with n <= n_max, and m <= max_m
    when given: n increasing, then m.  No block is empty, since SPar(n|m) is
    empty exactly when n < m(m-1)/2.  A negative n_max raises here, at the
    call, rather than giving a walk that checks nothing."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    top = n_max + 1 if max_m is None else max_m
    return (
        (n, m, _block(n, m))
        for n in range(n_max + 1)
        for m in range(top + 1)
        if m * (m - 1) // 2 <= n
    )


def _report(check: str, params: dict, failure: str | None, **extra) -> dict:
    """The report of every verification check: its name, its parameters,
    whether it passed, and the first failing case in words (None on a pass)."""
    return {"check": check, "params": params, "pass": failure is None, "first_failure": failure, **extra}


def orders_check(n_max: int) -> dict:
    """Exhaustive order laws on every block of degree <= n_max.

    Checks, for all pairs in a block: the order refinement (comparable in
    the Bruhat-style order implies comparable the same way in dominance),
    antisymmetry of both orders, and the conjugation reversal
    x <= y iff conj(y) <= conj(x).
    """
    params = {"n_max": n_max}
    for _, _, block in _blocks(n_max):
        conj = {sp: sp.conjugate() for sp in block}
        for x in block:
            for y in block:
                bxy = bruhat_leq(x, y)
                if bxy and not dominance_leq(x, y):
                    return _report("orders", params, f"{x} <= {y} in bruhat but not in dominance")
                if bxy and bruhat_leq(y, x) and x != y:
                    return _report("orders", params, f"bruhat antisymmetry fails on {x}, {y}")
                if dominance_leq(x, y) and dominance_leq(y, x) and x != y:
                    return _report("orders", params, f"dominance antisymmetry fails on {x}, {y}")
                if bxy != bruhat_leq(conj[y], conj[x]):
                    return _report("orders", params, f"conjugation does not reverse bruhat on {x}, {y}")
    return _report("orders", params, None)


def _series_coefficients(n_max: int) -> dict[tuple[int, int, int], int]:
    """Coefficients of prod_{k>=0}(1+z q^k) / prod_{k>=1}(1-y q^k) up to q^n_max.

    Keys are (m, p, n) for the z^m y^p q^n coefficient.
    """
    coeffs = {(0, 0, 0): 1}
    for k in range(n_max + 1):
        out = dict(coeffs)
        for (m, p, n), c in coeffs.items():
            if n + k <= n_max:
                key = (m + 1, p, n + k)
                out[key] = out.get(key, 0) + c
        coeffs = out
    for k in range(1, n_max + 1):
        out: dict[tuple[int, int, int], int] = {}
        for (m, p, n), c in coeffs.items():
            j = 0
            while n + j * k <= n_max:
                key = (m, p + j, n + j * k)
                out[key] = out.get(key, 0) + c
                j += 1
        coeffs = out
    return coeffs


def count_check(n_max: int) -> dict:
    """Compare enumeration counts against the two-variable q-product.

    The z^m y^p q^n coefficient of the product counts superpartitions of
    (n|m) with exactly p positive symmetric parts, so its partial sums over
    p' <= p count those of length <= m+p.  The check runs the cumulative
    comparison for every n <= n_max and every relevant (m, p).
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    coeffs = _series_coefficients(n_max)
    m_top = 0
    while (m_top + 1) * m_top // 2 <= n_max:
        m_top += 1
    params = {"n_max": n_max}
    for n in range(n_max + 1):
        for m in range(m_top + 2):
            block = _block(n, m)
            cumulative = 0
            for p in range(n + 1):
                cumulative += coeffs.get((m, p, n), 0)
                counted = sum(1 for sp in block if sp.length <= m + p)
                if counted != cumulative:
                    failure = (
                        f"n={n} m={m} p={p}: enumeration gives {counted}, "
                        f"series gives {cumulative}"
                    )
                    return _report("counting", params, failure)
    return _report("counting", params, None)
