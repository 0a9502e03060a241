"""Basis expansions, the signed product rule, and the power-sum pivot.

Everything here moves between the four bases.  Conversions pivot through
power sums and never build a polynomial: power sums multiply freely
(p_L p_O = +-p_(L u O)), the generators have closed forms in them, h-m
duality reads off monomial coordinates, and the arrowed e basis is
unitriangular over m, so reaching e is one back substitution.  The scalar
product and the e-h involution are diagonal on power sums, so they live here
too.

The combinatorial product rule for two monomial elements (signed fillings of
the target diagram by the source rows) lives here as well, kept independent
of the polynomial engine so the two can check each other.

Nothing here loads the polynomial engine.  Its oracle (expand_in_monomials
and the identity checks) is in engine_checks, loaded here on first use.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .superpartition import BASIS_NAMES, SuperPartition, _Frozen, enumerate_superpartitions

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


def format_rational(c) -> str:
    """Render an int or Fraction as 'p' or 'p/q'."""
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


class BasisExpansion(_Frozen):
    """Exact expansion of a homogeneous element over one bidegree block."""

    __slots__ = _fields = ("basis", "n", "m", "coeffs")

    def __init__(self, basis: str, n: int, m: int, coeffs: dict | None = None) -> None:
        if basis not in BASIS_NAMES:
            raise ValueError(f"unknown basis {basis!r}")
        block = (n, m)
        cleaned = {}
        for sp, c in (coeffs or {}).items():
            if sp.bidegree != block:
                raise ValueError(f"{sp} has bidegree {sp.bidegree}, expected {block}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[sp] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", cleaned)

    def __eq__(self, other) -> bool:
        fields = (self.basis, self.n, self.m, self.coeffs)
        return other.__class__ is BasisExpansion and fields == (
            other.basis, other.n, other.m, other.coeffs
        )

    @classmethod
    def unit(cls, basis: str, sp: SuperPartition) -> BasisExpansion:
        n, m = sp.bidegree
        return cls(basis, n, m, {sp: Fraction(1)})

    def items_sorted(self):
        """Terms in the block's enumeration order (decreasing sort_key)."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def get(self, sp: SuperPartition) -> Fraction:
        return self.coeffs.get(sp, Fraction(0))

    def scale(self, c) -> BasisExpansion:
        c = Fraction(c)
        return BasisExpansion(
            self.basis, self.n, self.m, {sp: c * v for sp, v in self.coeffs.items()}
        )

    def __add__(self, other: BasisExpansion) -> BasisExpansion:
        if (self.basis, self.n, self.m) != (other.basis, other.n, other.m):
            raise ValueError("can only add expansions over the same basis and block")
        out = dict(self.coeffs)
        for sp, c in other.coeffs.items():
            out[sp] = out.get(sp, Fraction(0)) + c
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


def mono_product_fillings(a: SuperPartition, b: SuperPartition, g: SuperPartition) -> Fraction:
    """Structure constant of the monomial product by the signed filling rule.

    Each row of the target diagram is filled by at most one row from each
    source, their values adding to the row value; a circled target row takes
    exactly one circled source row, a plain one takes none.  All source rows
    are consumed.  Distinct fillings are distinct content assignments; each
    is signed by the permutation that its circle labels, read top to bottom,
    induce on the original label order.  Bidegree mismatch gives 0.
    """
    if (a.degree + b.degree, a.fermionic_degree + b.fermionic_degree) != g.bidegree:
        return Fraction(0)
    targets = g.circled_rows()
    rows_a = _labeled_rows(a, 1)
    rows_b = _labeled_rows(b, a.fermionic_degree + 1)
    memo: dict = {}

    def labels_below(rem1, rem2, x):
        return sum(1 for _, lab in rem1 + rem2 if 0 < lab < x)

    def count(idx, rem1, rem2):
        if idx == len(targets):
            return 1 if not rem1 and not rem2 else 0
        state = (idx, rem1, rem2)
        got = memo.get(state)
        if got is not None:
            return got
        gamma, circ = targets[idx]
        need = 1 if circ else 0
        total = 0
        opts1 = {None} | set(rem1)
        opts2 = {None} | set(rem2)
        for o1 in opts1:
            v1, l1 = o1 if o1 else (0, 0)
            for o2 in opts2:
                v2, l2 = o2 if o2 else (0, 0)
                if v1 + v2 != gamma:
                    continue
                if (1 if l1 else 0) + (1 if l2 else 0) != need:
                    continue
                nr1 = _remove_once(rem1, o1)
                nr2 = _remove_once(rem2, o2)
                sub = count(idx + 1, nr1, nr2)
                if sub:
                    lab = l1 or l2
                    if lab and labels_below(nr1, nr2, lab) & 1:
                        sub = -sub
                    total += sub
        memo[state] = total
        return total

    return Fraction(count(0, rows_a, rows_b))


def _remove_once(rem: tuple, item) -> tuple:
    if item is None:
        return rem
    i = rem.index(item)
    return rem[:i] + rem[i + 1 :]


def mono_product(a: SuperPartition, b: SuperPartition) -> BasisExpansion:
    """Monomial times monomial, expanded over monomials via the filling rule."""
    n = a.degree + b.degree
    m = a.fermionic_degree + b.fermionic_degree
    coeffs = {}
    for g in enumerate_superpartitions(n, m):
        c = mono_product_fillings(a, b, g)
        if c:
            coeffs[g] = c
    return BasisExpansion("m", n, m, coeffs)


# -- the power-sum algebra ------------------------------------------------------


def z_weight(sp: SuperPartition) -> int:
    """z_L = prod_k k^(mult of k) (mult of k)! over the symmetric parts."""
    out = 1
    mult: dict[int, int] = {}
    for v in sp.s:
        mult[v] = mult.get(v, 0) + 1
    for k, n_k in mult.items():
        f = 1
        for i in range(1, n_k + 1):
            f *= i
        out *= k**n_k * f
    return out


def omega_sign(sp: SuperPartition) -> int:
    """(-1)^(degree + fermionic degree - length) = (-1)^(degree - len(s)):
    the p-eigenvalue of the e-h involution."""
    return -1 if (sp.degree - len(sp.s)) & 1 else 1


def _omega_p(pairs) -> dict:
    """omega on power-sum coordinates given as (label, c) pairs: a sign on
    each p_L.  The one place the pivot applies the involution."""
    return {la: omega_sign(la) * c for la, c in pairs}


def _p_mul(a: SuperPartition, b: SuperPartition) -> tuple[int, SuperPartition | None]:
    """p_a p_b = sign * p_(a u b), as (sign, label); (0, None) when it vanishes.

    The tilde factors of b move left past the commuting plain factors of a
    and into place among the tilde factors of a, so the sign is that of
    sorting the joined fermionic parts decreasingly.  A repeated fermionic
    part gives 0, because each tilde power sum squares to zero.
    """
    sign = 1
    for x in b.a:
        for y in a.a:
            if y == x:
                return 0, None
            if y < x:
                sign = -sign
    return sign, SuperPartition._canonical(
        tuple(sorted(a.a + b.a, reverse=True)), tuple(sorted(a.s + b.s, reverse=True))
    )


@cache
def _generator_in_p(n: int, fermionic: bool) -> tuple[tuple[SuperPartition, Fraction], ...]:
    """h_n (th_n when fermionic) in power sums: the sum of p_L / z_L over
    the block (n|0), or (n|1), from the H generating series."""
    return tuple(
        (sp, Fraction(1, z_weight(sp)))
        for sp in enumerate_superpartitions(n, 1 if fermionic else 0)
    )


def eh_in_p(n: int, fermionic: bool, which: str) -> BasisExpansion:
    """Closed-form power-sum expansion of e_n/h_n (or their tilde versions).

    h: sum over the block of p_L / z_L; e: its omega image.
    The block is (n|0), or (n|1) when fermionic.
    """
    if which not in ("e", "h"):
        raise ValueError(f"which must be 'e' or 'h', got {which!r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    h = _generator_in_p(n, fermionic)
    return BasisExpansion("p", n, 1 if fermionic else 0, _omega_p(h) if which == "e" else dict(h))


@cache
def _h_in_p(sp: SuperPartition) -> tuple[tuple[SuperPartition, Fraction], ...]:
    """h_sp in power sums: the closed forms multiplied in the p algebra,
    tilde factors first in the order of the fermionic parts.  The last
    factor is peeled off, so elements share their cached prefixes."""
    if sp.s:
        rest, last = SuperPartition._canonical(sp.a, sp.s[:-1]), _generator_in_p(sp.s[-1], False)
    elif sp.a:
        rest, last = SuperPartition._canonical(sp.a[:-1], ()), _generator_in_p(sp.a[-1], True)
    else:
        return ((sp, Fraction(1)),)
    out: dict[SuperPartition, Fraction] = {}
    for la, c in _h_in_p(rest):
        for om, d in last:
            sign, lo = _p_mul(la, om)
            if sign:
                out[lo] = out.get(lo, 0) + sign * c * d
    return tuple((lo, c) for lo, c in out.items() if c)


def _numerators(coeffs) -> tuple[dict, int]:
    """Integer numerators over one common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {la: c.numerator * (den // c.denominator) for la, c in coeffs.items()}, den


def _quotient(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what} should be an integer, got {Fraction(num, den)}")
    return q


def _apply(coords: dict, columns) -> dict:
    """sum_L coords[L] * columns[L], for sparse (label, coefficient) columns."""
    out: dict = {}
    for la, c in coords.items():
        for om, d in columns[la]:
            out[om] = out.get(om, 0) + c * d
    return out


@cache
def _h_in_p_columns(n: int, m: int) -> tuple[int, Mapping[SuperPartition, tuple]]:
    """Power-sum coordinates of every h element of the block, as integer
    numerators over one common denominator.  The e elements are their omega
    images (_omega_p), so the block keeps no second table."""
    cols = {sp: _h_in_p(sp) for sp in enumerate_superpartitions(n, m)}
    den = math.lcm(*(c.denominator for col in cols.values() for _, c in col))
    return den, MappingProxyType({
        sp: tuple((la, c.numerator * (den // c.denominator)) for la, c in col)
        for sp, col in cols.items()
    })


@cache
def _p_in_m(n: int, m: int) -> Mapping[SuperPartition, tuple[tuple[SuperPartition, int], ...]]:
    """Monomial coordinates of every p_L of the block, from h-m duality:
    [m_O] p_L = <h_O, p_L> = z_L [p_L] h_O, an integer."""
    den, h_cols = _h_in_p_columns(n, m)
    cols: dict[SuperPartition, list] = {sp: [] for sp in h_cols}
    for om, col in h_cols.items():
        for la, c in col:
            cols[la].append((om, _quotient(z_weight(la) * c, den, f"[m_{om}] p_{la}")))
    return MappingProxyType({la: tuple(col) for la, col in cols.items()})


@cache
def _e_in_m(n: int, m: int) -> tuple[tuple[SuperPartition, SuperPartition, int, tuple], ...]:
    """The e-in-m matrix as (pivot row L', column L, pivot, other entries),
    by decreasing pivot row.  Column L has the pivot +-1 (the sector sign)
    at L' and the rest of its support below L' (criterion 3)."""
    den, h_cols = _h_in_p_columns(n, m)
    p_in_m = _p_in_m(n, m)
    cols = []
    for sp, h_in_p in h_cols.items():
        col = _apply(_omega_p(h_in_p), p_in_m)
        conj = sp.conjugate()
        pivot = _quotient(col.pop(conj, 0), den, f"[m_{conj}] e_{sp}")
        if pivot not in (1, -1):
            raise ArithmeticError(f"e_{sp} has coefficient {pivot} on m_{conj}, not +-1")
        rest = tuple((om, _quotient(c, den, f"[m_{om}] e_{sp}")) for om, c in col.items() if c)
        cols.append((conj, sp, pivot, rest))
    # lexicographic (star, circled shape) extends the Bruhat-style order,
    # since dominance implies lexicographic order on equal sizes
    cols.sort(key=lambda col: (col[0].star(), col[0].shape_circled()), reverse=True)
    return tuple(cols)


def _solve_in_e(n: int, m: int, v: dict) -> dict:
    """e-coordinates of the element with monomial coordinates v.

    One pass down the pivot rows of the triangular e-in-m matrix.  A nonzero
    residue left at the end raises, so a wrong elimination order or a
    non-triangular column can never return a wrong answer.
    """
    v = dict(v)
    out = {}
    for row, sp, pivot, rest in _e_in_m(n, m):
        c = v.pop(row, 0)
        if c:
            c *= pivot
            out[sp] = c
            for om, d in rest:
                v[om] = v.get(om, 0) - c * d
    if any(v.values()):
        raise ArithmeticError(f"triangular solve on block ({n}|{m}) left a residue")
    return out


def change_basis(x: BasisExpansion, to: str) -> BasisExpansion:
    """Exact conversion between any two bases, pivoting through power sums.

    e and h elements are products in the p algebra of the generators'
    closed forms; p-coordinates become monomial ones by h-m duality;
    monomial coordinates become e ones by back substitution on the
    unitriangular e-in-m matrix; h-coordinates are the e-coordinates of the
    omega image, and omega is a sign on each p_L.  The arithmetic is on
    integer numerators over one denominator.  No polynomial is built: the
    polynomial engine (engine_checks._block_matrix) is the oracle the tests
    hold this against.
    """
    if to not in BASIS_NAMES:
        raise ValueError(f"unknown basis {to!r}")
    n, m = x.n, x.m
    v, den = _numerators(x.coeffs)
    source = x.basis
    if source == "m" and to != "m":
        v, source = _solve_in_e(n, m, v), "e"
    if source not in (to, "p"):
        scale, columns = _h_in_p_columns(n, m)
        v, den = _apply(v, columns), den * scale
        if source == "e":
            v = _omega_p(v.items())
        source = "p"
    if source != to:
        if to == "h":
            v = _omega_p(v.items())
        v = _apply(v, _p_in_m(n, m))
        if to != "m":
            v = _solve_in_e(n, m, v)
    return BasisExpansion(to, n, m, {la: Fraction(c, den) for la, c in v.items()})


# -- the scalar product and the involution ---------------------------------------
#
# The bilinear form is diagonal on power sums: the left slot carries the
# sector sign (-1)^(m(m-1)/2) (reversed theta order) and the right slot is
# plain, which makes <p_L, p_O> = z_L delta.


def _as_p_expansion(f) -> BasisExpansion:
    if not isinstance(f, BasisExpansion):
        from .engine_checks import expand_in_monomials
        from .superpoly import SuperPolynomial
        if not isinstance(f, SuperPolynomial):
            raise TypeError(f"expected BasisExpansion or SuperPolynomial, got {type(f)!r}")
        f = expand_in_monomials(f)
    return change_basis(f, "p")


def scalar_product(f, g) -> Fraction:
    """Bilinear form with <p_L, p_O> = z_L delta (left slot arrowed).

    f and g may be BasisExpansions or symmetric SuperPolynomials; different
    bidegrees pair to 0.
    """
    fp = _as_p_expansion(f)
    gp = _as_p_expansion(g)
    if (fp.n, fp.m) != (gp.n, gp.m):
        return Fraction(0)
    d = gp.coeffs
    return sum((z_weight(sp) * c * d[sp] for sp, c in fp.coeffs.items() if sp in d), Fraction(0))


def omega(x: BasisExpansion) -> BasisExpansion:
    """The involution fixing monomial-degree data: e_L <-> h_L, and on power
    sums p_L -> omega_sign(L) p_L.  Returned in the input basis."""
    p = change_basis(x, "p")
    return change_basis(BasisExpansion("p", p.n, p.m, _omega_p(p.coeffs.items())), x.basis)


def __getattr__(name: str):
    # the public names of the engine oracle (see the module docstring)
    if name in __all__:
        from . import engine_checks
        return getattr(engine_checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
