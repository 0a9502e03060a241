"""Basis expansions, the signed product rule, and the power-sum pivot.

Everything here moves between the four bases.  Conversions pivot through
power sums and never build a polynomial: power sums multiply freely
(p_L p_O = +-p_(L u O)), the generators have closed forms in them, and h-m
duality reads off monomial coordinates.  Each block keeps two tables, h in
p and its z-weighted transpose p in m; both are triangular in the block's
enumeration order, so every conversion is at most one apply or solve into
p and one out of it.

The pivot runs on block indices, the labels' positions in the block's
enumeration.  The tables are built and kept in one form, sparse columns of
(index, int) pairs, diagonal entry first; a coordinate vector is a dense
list of integer numerators over one denominator (1 for an all-int input).
_to_p takes an expansion to (p numerators, den) and _from_p takes that
pair to any basis: change_basis is the two halves, omega puts a sign
vector between them, and scalar_product pairs two p vectors.

Coefficients follow superpartition._exact's rule (an int if integral, else
a reduced Fraction; never zero).  BasisExpansion.__init__ checks it and each
label's bidegree; _from_p and mono_product, which key their results by the
block's own labels, hold it by construction and build through _expansion.

One combinatorial m-basis rule lives here as well, independent of the
polynomial engine and of p so that each can check the other: the product of
two monomials by signed fillings.  The other, h and e over m by counting
matrices, is inner._peel, which only the kernel check runs.

Nothing here loads the polynomial engine.  Its oracle (expand_in_monomials
and the identity checks) is in engine_checks, loaded here on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .superpartition import BASIS_NAMES, SuperPartition, _Frozen, _block, _check_size, _exact

__all__ = [
    "BasisExpansion",
    "expand_in_monomials",
    "mono_product_fillings",
    "mono_product",
    "change_basis",
    "z_weight",
    "omega_sign",
    "eh_in_p",
    "scalar_product",
    "omega",
    "verify_recursions",
    "determinant_formulas",
    "DETERMINANT_KINDS",
    "triangularity",
]


def _ratio(num: int, den: int) -> int | Fraction:
    """num / den by superpartition._exact's rule, from two ints."""
    return Fraction(num, den) if num % den else num // den


def format_rational(c) -> str:
    """Render an exact number as 'p' or 'p/q' (a Fraction's own str)."""
    return str(_exact(c))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


class BasisExpansion(_Frozen):
    """Exact expansion of a homogeneous element over one bidegree block; its
    nonzero coefficients follow _exact's rule."""

    __slots__ = _fields = ("basis", "n", "m", "coeffs")

    def __init__(self, basis: str, n: int, m: int, coeffs: dict | None = None) -> None:
        if basis not in BASIS_NAMES:
            raise ValueError(f"unknown basis {basis!r}")
        _check_size("n", n)
        _check_size("m", m)
        block = (n, m)
        cleaned = {}
        for sp, c in (coeffs or {}).items():
            try:
                bidegree = sp.bidegree
            except AttributeError:
                raise TypeError(f"expected SuperPartition labels, got {sp!r}") from None
            if bidegree != block:
                raise ValueError(f"{sp} has bidegree {bidegree}, expected {block}")
            if type(c) is not int:
                c = _exact(c)
            if c:
                cleaned[sp] = c
        _expansion(basis, n, m, cleaned, self)

    def __eq__(self, other) -> bool:
        fields = (self.basis, self.n, self.m, self.coeffs)
        return other.__class__ is BasisExpansion and fields == (
            other.basis, other.n, other.m, other.coeffs
        )

    @classmethod
    def unit(cls, basis: str, sp: SuperPartition) -> BasisExpansion:
        n, m = sp.bidegree
        return cls(basis, n, m, {sp: 1})

    def items_sorted(self):
        """Terms in the block's enumeration order (decreasing sort_key)."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def get(self, sp: SuperPartition) -> int | Fraction:
        return self.coeffs.get(sp, 0)

    def scale(self, c) -> BasisExpansion:
        c = _exact(c)
        return BasisExpansion(
            self.basis, self.n, self.m, {sp: c * v for sp, v in self.coeffs.items()}
        )

    def __add__(self, other: BasisExpansion) -> BasisExpansion:
        if not isinstance(other, BasisExpansion):
            return NotImplemented
        if (self.basis, self.n, self.m) != (other.basis, other.n, other.m):
            raise ValueError("can only add expansions over the same basis and block")
        out = dict(self.coeffs)
        for sp, c in other.coeffs.items():
            out[sp] = out.get(sp, 0) + c
        return BasisExpansion(self.basis, self.n, self.m, out)

    def to_poly(self, nvars: int | None = None) -> SuperPolynomial:
        from .bases import basis_element
        from .superpoly import SuperPolynomial
        if nvars is None:
            nvars = self.n + self.m
        return SuperPolynomial.linear_combination(
            nvars, ((c, basis_element(self.basis, sp, nvars)) for sp, c in self.coeffs.items())
        )

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "n": self.n,
            "m": self.m,
            "terms": [
                {"spar": sp.to_json_dict(), "coeff": format_rational(c)}
                for sp, c in self.items_sorted()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> BasisExpansion:
        coeffs = {
            SuperPartition.from_json_dict(t["spar"]): parse_rational(t["coeff"])
            for t in data["terms"]
        }
        return cls(data["basis"], data["n"], data["m"], coeffs)


def _expansion(basis: str, n: int, m: int, coeffs: dict, x=None) -> BasisExpansion:
    """Set BasisExpansion's fields (on x, or on a new one), unchecked: the
    one place they are set, for __init__, _from_p and mono_product."""
    x = object.__new__(BasisExpansion) if x is None else x
    object.__setattr__(x, "basis", basis)
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "m", m)
    object.__setattr__(x, "coeffs", coeffs)
    return x


# -- the signed filling rule ---------------------------------------------------


def _labeled_rows(sp: SuperPartition, first_label: int) -> tuple[tuple[int, int], ...]:
    """Rows as (value, label): circled rows get labels first_label, +1, ...
    top to bottom; plain rows carry label 0."""
    rows = []
    nxt = first_label
    for v, circ in sp.circled_rows():
        if circ:
            rows.append((v, nxt))
            nxt += 1
        else:
            rows.append((v, 0))
    return tuple(sorted(rows, reverse=True))


def mono_product(a: SuperPartition, b: SuperPartition) -> BasisExpansion:
    """Monomial times monomial, expanded over monomials by signed fillings.

    Each row of the target diagram is filled by at most one row from each
    source, their values adding to the row value; a circled target row takes
    exactly one circled source row, a plain one takes none.  All source rows
    are consumed.  Distinct fillings are distinct content assignments; each
    is signed by the permutation that its circle labels, read top to bottom,
    induce on the original label order.  Rows are filled top to bottom
    through one memo for the whole block, keyed by the target rows still to
    fill and the source rows left, so targets ending in the same rows share
    counts; the result is keyed by the block's own labels.
    """
    if bad := [x for x in (a, b) if not isinstance(x, SuperPartition)]:
        raise TypeError(f"expected a SuperPartition, got {bad[0]!r}")
    n, m = a.degree + b.degree, a.fermionic_degree + b.fermionic_degree
    memo: dict = {}

    def count(targets, rem1, rem2):
        # each row left takes one or two source rows left, and all are used
        if not max(len(rem1), len(rem2)) <= len(targets) <= len(rem1) + len(rem2):
            return 0
        if not targets:
            return 1
        state = (targets, rem1, rem2)
        total = memo.get(state)
        if total is not None:
            return total
        (gamma, circ), rest, total = targets[0], targets[1:], 0
        for o1 in {None, *rem1}:
            v1, l1 = o1 or (0, 0)
            for o2 in {None, *rem2}:
                v2, l2 = o2 or (0, 0)
                if v1 + v2 != gamma or bool(l1) + bool(l2) != circ:
                    continue
                nr1, nr2 = _remove_once(rem1, o1), _remove_once(rem2, o2)
                sub = count(rest, nr1, nr2)
                lab = l1 or l2
                if sub and lab and sum(0 < l < lab for _, l in nr1 + nr2) & 1:
                    sub = -sub
                total += sub
        memo[state] = total
        return total

    rows = _labeled_rows(a, 1), _labeled_rows(b, a.fermionic_degree + 1)
    coeffs = {g: c for g in _block(n, m) if (c := count(g.circled_rows(), *rows))}
    return _expansion("m", n, m, coeffs)


def _remove_once(rem: tuple, item) -> tuple:
    if item is None:
        return rem
    i = rem.index(item)
    return rem[:i] + rem[i + 1 :]


def mono_product_fillings(a: SuperPartition, b: SuperPartition, g: SuperPartition) -> int:
    """[m_g] m_a m_b by the filling rule (mono_product); 0 on a bidegree mismatch."""
    return mono_product(a, b).get(g)


# -- the power-sum algebra ------------------------------------------------------


def z_weight(sp: SuperPartition) -> int:
    """z_L = prod_k k^(mult of k) (mult of k)! over the symmetric parts."""
    out = 1
    for k in set(sp.s):
        n_k = sp.s.count(k)
        out *= k**n_k * math.factorial(n_k)
    return out


def omega_sign(sp: SuperPartition) -> int:
    """(-1)^(degree + fermionic degree - length) = (-1)^(degree - len(s)):
    the p-eigenvalue of the e-h involution."""
    return -1 if (sp.degree - len(sp.s)) & 1 else 1


@cache
def _block_index(n: int, m: int) -> tuple:
    """The block's labels by index, the index of each by its (a, s) parts,
    and z_L and omega_sign(L) by index (both forms are diagonal on p)."""
    labels = _block(n, m)
    index = {(sp.a, sp.s): i for i, sp in enumerate(labels)}
    return labels, index, tuple(map(z_weight, labels)), tuple(map(omega_sign, labels))


def _omega_p(v: list, n: int, m: int) -> list:
    """omega on power-sum coordinates: a sign on each p_L."""
    return [s * c for s, c in zip(_block_index(n, m)[3], v)]


def _p_mul(x: tuple, y: tuple) -> tuple:
    """p_x p_y = sign * p_(x u y) on (a, s) part tuples, as (sign, parts);
    (0, None) when it vanishes.

    The tilde factors of y move left past the commuting plain factors of x
    and into place among the tilde factors of x, so the sign is that of
    sorting the joined fermionic parts decreasingly.  A repeated fermionic
    part gives 0, because each tilde power sum squares to zero.
    """
    sign = 1
    for b in y[0]:
        for a in x[0]:
            if a == b:
                return 0, None
            if a < b:
                sign = -sign
    a = tuple(sorted(x[0] + y[0], reverse=True)) if y[0] else x[0]
    return sign, (a, tuple(sorted(x[1] + y[1], reverse=True)))


def eh_in_p(n: int, fermionic: bool, which: str) -> BasisExpansion:
    """Closed-form power-sum expansion of e_n/h_n (or their tilde versions).

    h: sum over the block of p_L / z_L; e: its omega image.
    The block is (n|0), or (n|1) when fermionic.
    """
    if which not in ("e", "h"):
        raise ValueError(f"which must be 'e' or 'h', got {which!r}")
    _check_size("n", n)
    m, f = 1 if fermionic else 0, math.factorial(n)
    v = [f // z for z in _block_index(n, m)[2]]
    return _from_p(_omega_p(v, n, m) if which == "e" else v, f, "p", n, m)


@cache
def _h_in_p(parts: tuple) -> tuple:
    """h_(a;s) in power sums, parts = (a, s), as the sparse column of its
    integer numerators over n! on the indices of its block (n|m), diagonal
    entry first: the closed forms multiplied in the p algebra, tilde factors
    first in the order of the fermionic parts.  The last factor h_k (the
    sum of p_O / z_O over (k|0), or (k|1) when fermionic) is peeled off, so
    elements share their cached prefixes (over (n - k)!); its numerators
    n!/((n - k)! z_O) put their product over n!."""
    a, s = parts
    if s:
        rest, k, t = (a, s[:-1]), s[-1], 0
    elif a:
        rest, k, t = (a[:-1], ()), a[-1], 1
    else:
        return ((0, 1),)
    n, m = sum(a) + sum(s), len(a)
    labels, _, z, _ = _block_index(k, t)
    generator = [((om.a, om.s), math.perm(n, k) // zo) for om, zo in zip(labels, z)]
    prefixes, index = _block_index(n - k, m - t)[0], _block_index(n, m)[1]
    out = {}
    for j, c in _h_in_p(rest):
        la = prefixes[j].a, prefixes[j].s
        for om, d in generator:
            sign, lo = _p_mul(la, om)
            if sign:
                i = index[lo]
                out[i] = out.get(i, 0) + sign * c * d
    i = index[parts]
    return ((i, out.pop(i)), *((j, c) for j, c in out.items() if c))


def _exact_div(num: int, den: int, what: str, *labels) -> int:
    """num / den, which must be exact; `what` names it, with the labels
    formatted in only when the division fails."""
    q, r = divmod(num, den)
    if r:
        what = what.format(*labels)
        raise ArithmeticError(f"{what} should be an integer, got {Fraction(num, den)}")
    return q


def _apply(v: list, columns) -> list:
    """sum_i v[i] * columns[i], for sparse (index, coefficient) columns."""
    out = [0] * len(v)
    for c, col in zip(v, columns):
        if c:
            for j, d in col:
                out[j] += c * d
    return out


def _solve(v: list, scale: int, order, columns, labels) -> list:
    """The integer coordinates x with _apply(x, columns) == scale * v.

    Each column has its diagonal entry first and the rest of its support on
    rows of columns later in `order`, so one pass reads each coordinate off
    its pivot row.  An inexact division and a residue left at the end both
    raise, so a wrong order or an entry above a pivot never answers wrongly.
    """
    v = [scale * c for c in v]
    out = [0] * len(v)
    for i in order:
        c = v[i]
        if c:
            col = columns[i]
            c = out[i] = _exact_div(c, col[0][1], "the coordinate at {}", labels[i])
            for j, d in col:
                v[j] -= c * d
    if any(v):
        raise ArithmeticError("triangular solve left a residue")
    return out


@cache
def _h_in_p_columns(n: int, m: int) -> tuple:
    """(n!, elimination order, the p-columns of every h_L over n!), the
    columns being _h_in_p's own; e is their omega image.  h_L is supported
    on the refinements of L (each generator expands over the partitions of
    its part), which replace rows of L by smaller ones and so come later in
    the enumeration order."""
    index = _block_index(n, m)[1]
    return math.factorial(n), range(len(index)), tuple(map(_h_in_p, index))


@cache
def _p_in_m(n: int, m: int) -> tuple:
    """(lcm of the z_L, elimination order, the m-columns of every p_L), by
    h-m duality: [m_O] p_L = <h_O, p_L> = z_L [p_L] h_O, an integer, and
    the lcm clears the denominators of m in p.  p_L is supported on the
    coarsenings of L (two fermionic parts never merge, as theta^2 = 0), so
    the elimination runs through the enumeration backwards."""
    den, order, h_cols = _h_in_p_columns(n, m)
    labels, _, z, _ = _block_index(n, m)
    cols = [[] for _ in labels]
    order = order[::-1]
    for j in order:
        for i, c in h_cols[j]:
            cols[i].append((j, _exact_div(z[i] * c, den, "[m_{}] p_{}", labels[j], labels[i])))
    return math.lcm(*z), order, tuple(map(tuple, cols))


def _to_p(x: BasisExpansion) -> tuple[list, int]:
    """x as (p numerators by index, den): e and h apply the h table (e then
    takes omega), and m is a triangular solve on the p-in-m table."""
    if not isinstance(x, BasisExpansion):
        raise TypeError(f"expected a BasisExpansion, got {type(x)!r}")
    n, m = x.n, x.m
    labels, index, _, _ = _block_index(n, m)
    cs = x.coeffs.values()  # an all-int expansion is read as it is, over 1
    den = math.lcm(*(c.denominator for c in cs)) if Fraction in map(type, cs) else 1
    v = [0] * len(labels)
    for sp, c in x.coeffs.items():
        v[index[sp.a, sp.s]] = c if den == 1 else c.numerator * (den // c.denominator)
    if x.basis == "m":
        table = _p_in_m(n, m)
        return _solve(v, *table, labels), den * table[0]
    if x.basis != "p":
        scale, _, columns = _h_in_p_columns(n, m)
        v, den = _apply(v, columns), den * scale
        if x.basis == "e":
            v = _omega_p(v, n, m)
    return v, den


def _from_p(v: list, den: int, to: str, n: int, m: int) -> BasisExpansion:
    """The element with p numerators v over den in the basis `to`: m applies
    the p-in-m table, and h (e, after omega) is a solve on the h table.
    The result is built unchecked, on the block's labels and nonzero values."""
    labels = _block(n, m)
    if to == "m":
        v = _apply(v, _p_in_m(n, m)[2])
    elif to != "p":
        v = _solve(_omega_p(v, n, m) if to == "e" else v, *_h_in_p_columns(n, m), labels)
    if den == 1 or not math.gcd(*v) % den:  # den divides every coordinate
        return _expansion(to, n, m, {labels[i]: c // den for i, c in enumerate(v) if c})
    return _expansion(to, n, m, {labels[i]: _ratio(c, den) for i, c in enumerate(v) if c})


def change_basis(x: BasisExpansion, to: str) -> BasisExpansion:
    """Exact conversion between any two bases, pivoting through power sums:
    at most one step into p (_to_p) and one out (_from_p), on integers.  No
    polynomial is built; the engine (engine_checks._block_matrix) is the
    oracle the tests hold this against."""
    if to not in BASIS_NAMES:
        raise ValueError(f"unknown basis {to!r}")
    return _from_p(*_to_p(x), to, x.n, x.m)


# -- the scalar product and the involution ---------------------------------------
#
# The bilinear form is diagonal on power sums: the left slot carries the
# sector sign (-1)^(m(m-1)/2) (reversed theta order) and the right slot is
# plain, which makes <p_L, p_O> = z_L delta.


def scalar_product(f, g) -> int | Fraction:
    """Bilinear form with <p_L, p_O> = z_L delta (left slot arrowed).

    f and g may be BasisExpansions or symmetric SuperPolynomials (expanded
    in monomials first); different bidegrees pair to 0.
    """
    sides = []
    for x in (f, g):
        if not isinstance(x, BasisExpansion):
            from .engine_checks import expand_in_monomials
            x = expand_in_monomials(x)
        sides.append(((x.n, x.m), *_to_p(x)))
    (block, u, du), (other, w, dw) = sides
    if block != other:
        return 0
    z = _block_index(*block)[2]
    return _ratio(sum(zi * a * b for zi, a, b in zip(z, u, w) if a), du * dw)


def omega(x: BasisExpansion) -> BasisExpansion:
    """The involution fixing monomial-degree data: e_L <-> h_L, and on power
    sums p_L -> omega_sign(L) p_L.  Returned in the input basis."""
    v, den = _to_p(x)
    return _from_p(_omega_p(v, x.n, x.m), den, x.basis, x.n, x.m)


def __getattr__(name: str):
    # the public names of the engine oracle (see the module docstring)
    if name in __all__:
        from . import engine_checks
        return getattr(engine_checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
