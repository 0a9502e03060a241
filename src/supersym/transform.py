"""Basis expansions, the signed product rule, and identity verification.

Everything here moves between the four bases.  Conversions pivot through
power sums and never build a polynomial: power sums multiply freely
(p_L p_O = +-p_(L u O)), the generators have closed forms in them, h-m
duality reads off monomial coordinates, and the arrowed e basis is
unitriangular over m, so reaching e is one back substitution.  A symmetric
homogeneous polynomial is expanded over monomials by reading off the
coefficients of the defining monomials t_1..t_m x^L; the products built that
way by the polynomial engine are the oracle the conversions are tested
against.

The combinatorial product rule for two monomial elements (signed fillings of
the target diagram by the source rows) lives here as well, kept independent
of the polynomial engine so the two can check each other.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .superpartition import SuperPartition, bruhat_leq, enumerate_superpartitions
from .superpoly import SuperPolynomial, format_rational, parse_rational
from . import bases as _bases
from .bases import _canonical_key

__all__ = [
    "BasisExpansion",
    "expand_in_monomials",
    "mono_product_fillings",
    "mono_product",
    "change_basis",
    "z_weight",
    "omega_sign",
    "eh_in_p",
    "verify_recursions",
    "determinant_formulas",
    "DETERMINANT_KINDS",
    "triangularity",
]


@dataclass(frozen=True)
class BasisExpansion:
    """Exact expansion of a homogeneous element over one bidegree block."""

    basis: str
    n: int
    m: int
    coeffs: dict[SuperPartition, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in _bases.BASIS_NAMES:
            raise ValueError(f"unknown basis {self.basis!r}")
        cleaned = {}
        for sp, c in self.coeffs.items():
            if sp.bidegree != (self.n, self.m):
                raise ValueError(
                    f"{sp} has bidegree {sp.bidegree}, expected ({self.n}, {self.m})"
                )
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[sp] = c
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def unit(cls, basis: str, sp: SuperPartition) -> BasisExpansion:
        n, m = sp.bidegree
        return cls(basis, n, m, {sp: Fraction(1)})

    def items_sorted(self):
        order = {sp: i for i, sp in enumerate(enumerate_superpartitions(self.n, self.m))}
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])

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

    def to_poly(self, nvars: int | None = None, arrowed: bool = False) -> SuperPolynomial:
        if nvars is None:
            nvars = self.n + self.m
        element = _bases.basis_element
        return SuperPolynomial.linear_combination(
            nvars, ((c, element(self.basis, sp, nvars, arrowed)) for sp, c in self.coeffs.items())
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


# -- expansion in monomials ----------------------------------------------------


def _infer_bidegree(f: SuperPolynomial) -> tuple[int, int]:
    seen = set()
    offsets = f._field_offsets()
    for mask, key, _ in f.iter_terms():
        seen.add((f._key_degree(key, offsets), mask.bit_count()))
    if not seen:
        raise ValueError("cannot infer the bidegree of the zero polynomial")
    if len(seen) > 1:
        raise ValueError(f"not homogeneous: bidegrees {sorted(seen)} all present")
    return seen.pop()


def _probe_coefficient(f: SuperPolynomial, sp: SuperPartition) -> Fraction:
    """Coefficient of t_1..t_m x_1^{a_1}.. x_m^{a_m} x_{m+1}^{s_1}.. in f."""
    return f.blocks.get((1 << sp.fermionic_degree) - 1, {}).get(_canonical_key(sp), 0)


@cache
def _monomial_polys(n: int, m: int, nvars: int) -> tuple[tuple[SuperPartition, SuperPolynomial], ...]:
    return tuple(
        (sp, _bases.monomial(sp, nvars))
        for sp in enumerate_superpartitions(n, m, max_len=nvars)
    )


def expand_in_monomials(f: SuperPolynomial, bidegree: tuple[int, int] | None = None) -> BasisExpansion:
    """Expand a symmetric homogeneous polynomial over the monomial basis.

    Coefficients are read off the defining monomials; the result is then
    re-assembled and compared with the input, so a non-symmetric polynomial
    (or one outside the span at this number of variables) raises.
    """
    n, m = bidegree if bidegree is not None else _infer_bidegree(f)
    coeffs: dict[SuperPartition, Fraction] = {}
    summands = []
    for sp, poly in _monomial_polys(n, m, f.nvars):
        c = _probe_coefficient(f, sp)
        if c:
            coeffs[sp] = c
            summands.append((c, poly))
    if SuperPolynomial.linear_combination(f.nvars, summands) != f:
        raise ValueError(
            "polynomial is not symmetric (or not in the monomial span at "
            f"{f.nvars} variables)"
        )
    return BasisExpansion("m", n, m, coeffs)


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
    """(-1)^(degree + fermionic degree - length): the p-eigenvalue of the
    e-h involution."""
    return -1 if (sp.degree + sp.fermionic_degree - sp.length) % 2 else 1


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
    return sign, SuperPartition(
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

    h: sum over the block of p_L / z_L; e: the same with omega_sign(L).
    The block is (n|0), or (n|1) when fermionic.
    """
    if which not in ("e", "h"):
        raise ValueError(f"which must be 'e' or 'h', got {which!r}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    coeffs = {
        sp: omega_sign(sp) * c if which == "e" else c
        for sp, c in _generator_in_p(n, fermionic)
    }
    return BasisExpansion("p", n, 1 if fermionic else 0, coeffs)


@cache
def _h_in_p(sp: SuperPartition) -> tuple[tuple[SuperPartition, Fraction], ...]:
    """h_sp in power sums: the closed forms multiplied in the p algebra,
    tilde factors first in the order of the fermionic parts.  The last
    factor is peeled off, so elements share their cached prefixes."""
    if sp.s:
        rest, last = SuperPartition(sp.a, sp.s[:-1]), _generator_in_p(sp.s[-1], False)
    elif sp.a:
        rest, last = SuperPartition(sp.a[:-1]), _generator_in_p(sp.a[-1], True)
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
def _in_p_columns(basis: str, n: int, m: int) -> tuple[int, Mapping[SuperPartition, tuple]]:
    """Power-sum coordinates of every e or h element of the block, as integer
    numerators over one common denominator.  The e elements are the h ones
    seen through omega, a sign on each p_L."""
    cols = {sp: _h_in_p(sp) for sp in enumerate_superpartitions(n, m)}
    den = math.lcm(*(c.denominator for col in cols.values() for _, c in col))
    return den, MappingProxyType({
        sp: tuple(
            (la, (omega_sign(la) if basis == "e" else 1) * c.numerator * (den // c.denominator))
            for la, c in col
        )
        for sp, col in cols.items()
    })


@cache
def _p_in_m(n: int, m: int) -> Mapping[SuperPartition, tuple[tuple[SuperPartition, int], ...]]:
    """Monomial coordinates of every p_L of the block, from h-m duality:
    [m_O] p_L = <h_O, p_L> = z_L [p_L] h_O, an integer."""
    den, h_cols = _in_p_columns("h", n, m)
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
    den, e_cols = _in_p_columns("e", n, m)
    p_in_m = _p_in_m(n, m)
    cols = []
    for sp, in_p in e_cols.items():
        col = _apply(dict(in_p), p_in_m)
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
    polynomial engine (_block_matrix) is the oracle the tests hold this
    against.
    """
    if to not in _bases.BASIS_NAMES:
        raise ValueError(f"unknown basis {to!r}")
    n, m = x.n, x.m
    v, den = _numerators(x.coeffs)
    source = x.basis
    if source == "m" and to != "m":
        v, source = _solve_in_e(n, m, v), "e"
    if source not in (to, "p"):
        scale, columns = _in_p_columns(source, n, m)
        v, den, source = _apply(v, columns), den * scale, "p"
    if source != to:
        if to == "h":
            v = {la: omega_sign(la) * c for la, c in v.items()}
        v = _apply(v, _p_in_m(n, m))
        if to != "m":
            v = _solve_in_e(n, m, v)
    return BasisExpansion(to, n, m, {la: Fraction(c, den) for la, c in v.items()})


# -- the engine oracle for basis changes --------------------------------------------


@cache
def _basis_in_monomials(basis: str, sp: SuperPartition) -> tuple[tuple[SuperPartition, Fraction], ...]:
    """Monomial coefficients of one product-basis element, built by the
    polynomial engine at stable N: the slow reference for change_basis and
    for triangularity.

    Only the t_1..t_m sector is ever probed, so the generator product is
    built with that restriction (sound: theta supports only grow).  Inputs
    are symmetric by construction, so the probe alone is exact; the
    engine-versus-rule tests cover the reconstruction separately.
    """
    n, m = sp.bidegree
    # probe monomials live on the first l(cand) variables, and their
    # coefficients are stable once nvars covers the longest candidate
    nvars = max(sp.length, m + n - m * (m - 1) // 2)
    sector = tuple(range(1, m + 1))
    plain, tilde = _bases.generator_functions(basis)
    poly = SuperPolynomial.one(nvars)
    for a in sp.a:
        poly = poly.mul_restricted(tilde(a, nvars), sector)
    for s in sp.s:
        poly = poly.mul_restricted(plain(s, nvars), sector)
    out = []
    for cand in enumerate_superpartitions(n, m):
        c = _probe_coefficient(poly, cand)
        if c:
            out.append((cand, c))
    return tuple(out)


@cache
def _block_matrix(basis: str, n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Column j holds the engine-built monomial coordinates of the j-th
    basis element."""
    block = enumerate_superpartitions(n, m)
    index = {sp: i for i, sp in enumerate(block)}
    k = len(block)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for j, sp in enumerate(block):
        for cand, c in _basis_in_monomials(basis, sp):
            mat[index[cand]][j] = c
    return tuple(tuple(row) for row in mat)


# -- recursion identities ---------------------------------------------------------


def verify_recursions(n_max: int) -> dict:
    """Check the six generator recursions exactly at N = n_max + 2.

    Bosonic, n >= 1:
      sum_r (-1)^r e_r h_{n-r} = 0
      n h_n = sum_{r>=1} p_r h_{n-r}
      n e_n = sum_{r>=1} (-1)^{r+1} p_r e_{n-r}
    Mixed, n >= 0 (p_0 = 0):
      sum_r (-1)^r (e_r th_{n-r} - te_r h_{n-r}) = 0
      (n+1) th_n = sum_r [p_r th_{n-r} + (r+1) tp_r h_{n-r}]
      (n+1) te_n = sum_r (-1)^{r+1} [p_r te_{n-r} - (r+1) tp_r e_{n-r}]
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    nv = n_max + 2
    e = [_bases.elementary(k, nv) for k in range(n_max + 1)]
    te = [_bases.elementary_tilde(k, nv) for k in range(n_max + 1)]
    h = [_bases.complete(k, nv) for k in range(n_max + 1)]
    th = [_bases.complete_tilde(k, nv) for k in range(n_max + 1)]
    p = [_bases.powersum(k, nv) for k in range(n_max + 1)]
    tp = [_bases.powersum_tilde(k, nv) for k in range(n_max + 1)]
    zero = SuperPolynomial.zero(nv)
    failure = None
    for n in range(n_max + 1):
        checks = []
        if n >= 1:
            acc = zero
            for r in range(n + 1):
                acc = acc + (e[r] * h[n - r]).scale((-1) ** r)
            checks.append(("alternating e-h convolution", acc == zero))
            acc = zero
            for r in range(1, n + 1):
                acc = acc + p[r] * h[n - r]
            checks.append(("n h_n from p convolution", acc == h[n].scale(n)))
            acc = zero
            for r in range(1, n + 1):
                acc = acc + (p[r] * e[n - r]).scale((-1) ** (r + 1))
            checks.append(("n e_n from p convolution", acc == e[n].scale(n)))
        acc = zero
        for r in range(n + 1):
            acc = acc + (e[r] * th[n - r] - te[r] * h[n - r]).scale((-1) ** r)
        checks.append(("alternating mixed e-h convolution", acc == zero))
        acc = zero
        for r in range(n + 1):
            acc = acc + p[r] * th[n - r] + (tp[r] * h[n - r]).scale(r + 1)
        checks.append(("(n+1) th_n convolution", acc == th[n].scale(n + 1)))
        acc = zero
        for r in range(n + 1):
            acc = acc + (p[r] * te[n - r] - (tp[r] * e[n - r]).scale(r + 1)).scale((-1) ** (r + 1))
        checks.append(("(n+1) te_n convolution", acc == te[n].scale(n + 1)))
        for name, ok in checks:
            if not ok:
                failure = f"n={n}: {name} fails at N={nv}"
                break
        if failure:
            break
    return {
        "check": "recursions",
        "params": {"n_max": n_max, "nvars": nv},
        "pass": failure is None,
        "first_failure": failure,
    }


# -- determinantal formulas ---------------------------------------------------------


def _hessenberg_det(size, row1, entry, subdiag, nvars) -> SuperPolynomial:
    """Determinant of an upper-Hessenberg matrix with scalar subdiagonal.

    row1[j-1] is the (1,j) entry (the only possibly anticommuting ones);
    entry(i, j) gives rows i >= 2 on and above the diagonal; subdiag(l) is
    the scalar (l+1, l) entry.  Leading-minor recursion: each term of the
    expansion uses exactly one first-row entry, everything else commutes.
    """
    minors = [SuperPolynomial.one(nvars)]
    for k in range(1, size + 1):
        summands = []
        sdp = 1
        for i in range(k, 0, -1):
            a_ik = row1[k - 1] if i == 1 else entry(i, k)
            if not a_ik.is_zero():
                factor = sdp if (k - i) % 2 == 0 else -sdp
                summands.append((factor, a_ik * minors[i - 1]))
            if i > 1:
                sdp *= subdiag(i - 1)
        minors.append(SuperPolynomial.linear_combination(nvars, summands))
    return minors[size]


DETERMINANT_KINDS = (
    "e_in_h",
    "etilde_in_h",
    "p_in_e",
    "ptilde_in_e",
    "e_in_p",
    "etilde_in_p",
)


def determinant_formulas(n: int, which: str, nvars: int | None = None) -> dict:
    """Check one determinantal identity and its involution image, exactly.

    kinds (primal determinant -> image determinant):
      e_in_h:      e_n = det(h band)          ->  h_n = det(e band)
      etilde_in_h: n! te_n = det(th, h band)  ->  n! th_n = det(te, e band)
      p_in_e:      p_n = det(j e_j row)       ->  (-1)^(n-1) p_n = det(j h_j row)
      ptilde_in_e: tp_n = det(te, e band)     ->  (-1)^n tp_n = det(th, h band)
      e_in_p:      n! e_n = det(p band)       ->  n! h_n = det(signed p band)
      etilde_in_p: n! te_n = det(tp, p band)  ->  n! th_n = det(signed tp, p band)
    """
    if which not in DETERMINANT_KINDS:
        raise ValueError(f"which must be one of {DETERMINANT_KINDS}, got {which!r}")
    fermionic = which.startswith(("etilde", "ptilde"))
    if n < (0 if fermionic else 1):
        raise ValueError(f"{which} needs n >= {0 if fermionic else 1}, got {n}")
    nv = nvars if nvars is not None else n + 2
    size = n + 1 if fermionic else n
    e = [_bases.elementary(k, nv) for k in range(size + 1)]
    te = [_bases.elementary_tilde(k, nv) for k in range(size + 1)]
    h = [_bases.complete(k, nv) for k in range(size + 1)]
    th = [_bases.complete_tilde(k, nv) for k in range(size + 1)]
    p = [_bases.powersum(k, nv) for k in range(size + 1)]
    tp = [_bases.powersum_tilde(k, nv) for k in range(size + 1)]
    zero = SuperPolynomial.zero(nv)

    def band(fam):
        return lambda i, j: fam[j - i + 1] if j - i + 1 >= 0 else zero

    def signed_band(fam):
        return lambda i, j: (
            fam[j - i + 1].scale((-1) ** (j - i)) if j - i + 1 >= 0 else zero
        )

    one_sd = lambda l: 1
    fact = math.factorial(n)

    if which == "e_in_h":
        cases = [
            ("primal", [h[j] for j in range(1, n + 1)], band(h), one_sd, e[n]),
            ("image", [e[j] for j in range(1, n + 1)], band(e), one_sd, h[n]),
        ]
    elif which == "etilde_in_h":
        def weighted(fam):
            return lambda i, j: fam[j - i + 1].scale(n + j - 2 * i + 3) if j - i + 1 >= 0 else zero
        sd = lambda l: n - l + 1
        cases = [
            ("primal", [th[j - 1] for j in range(1, n + 2)], weighted(h), sd, te[n].scale(fact)),
            ("image", [te[j - 1] for j in range(1, n + 2)], weighted(e), sd, th[n].scale(fact)),
        ]
    elif which == "p_in_e":
        cases = [
            ("primal", [e[j].scale(j) for j in range(1, n + 1)], band(e), one_sd, p[n]),
            ("image", [h[j].scale(j) for j in range(1, n + 1)], band(h), one_sd,
             p[n].scale((-1) ** (n - 1))),
        ]
    elif which == "ptilde_in_e":
        cases = [
            ("primal", [te[j - 1] for j in range(1, n + 2)], band(e), one_sd, tp[n]),
            ("image", [th[j - 1] for j in range(1, n + 2)], band(h), one_sd,
             tp[n].scale((-1) ** n)),
        ]
    elif which == "e_in_p":
        sd = lambda l: l
        cases = [
            ("primal", [p[j] for j in range(1, n + 1)], band(p), sd, e[n].scale(fact)),
            ("image", [p[j].scale((-1) ** (j - 1)) for j in range(1, n + 1)],
             signed_band(p), sd, h[n].scale(fact)),
        ]
    else:  # etilde_in_p
        sd = lambda l: n - l + 1
        cases = [
            ("primal", [tp[j - 1] for j in range(1, n + 2)], band(p), sd, te[n].scale(fact)),
            ("image", [tp[j - 1].scale((-1) ** (j - 1)) for j in range(1, n + 2)],
             signed_band(p), sd, th[n].scale(fact)),
        ]

    failure = None
    for name, row1, entry, sd, want in cases:
        det = _hessenberg_det(size, row1, entry, sd, nv)
        if det != want:
            failure = f"{which} {name} determinant differs at n={n}, N={nv}"
            break
    return {
        "check": f"determinant-{which}",
        "params": {"n": n, "nvars": nv},
        "pass": failure is None,
        "first_failure": failure,
    }


# -- triangularity of the elementary family ------------------------------------------


def _det_fraction(mat) -> Fraction:
    k = len(mat)
    m = [list(row) for row in mat]
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, k):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def triangularity(n_max: int) -> dict:
    """Leading-term structure of the arrowed elementary basis, per block.

    For every block (n|m), n <= n_max: the expansion of the arrowed e over
    monomials has integer coefficients, coefficient 1 on the conjugate
    label, and support strictly below the conjugate in the Bruhat-style
    order.  Also checks that the e matrix is unimodular and the p matrix
    invertible.  The report carries an informational flag for whether all
    observed e coefficients were nonnegative (not asserted anywhere).
    """
    failure = None
    nonneg = True
    for n in range(n_max + 1):
        m = 0
        while failure is None and m * (m - 1) // 2 <= n:
            block = enumerate_superpartitions(n, m)
            if not block:
                m += 1
                continue
            arrow_sign = -1 if (m * (m - 1) // 2) % 2 else 1
            for sp in block:
                conj = sp.conjugate()
                for cand, c in _basis_in_monomials("e", sp):
                    cc = c * arrow_sign
                    if cc.denominator != 1:
                        failure = f"e_{sp}: non-integer coefficient {cc} on {cand}"
                        break
                    if cc < 0:
                        nonneg = False
                    if cand == conj:
                        if cc != 1:
                            failure = f"e_{sp}: coefficient on {conj} is {cc}, not 1"
                            break
                    elif not (bruhat_leq(cand, conj) and cand != conj):
                        failure = f"e_{sp}: support {cand} not strictly below {conj}"
                        break
                if failure:
                    break
            if failure:
                break
            if _det_fraction(_block_matrix("e", n, m)) not in (1, -1):
                failure = f"e matrix on block ({n}|{m}) is not unimodular"
                break
            if _det_fraction(_block_matrix("p", n, m)) == 0:
                failure = f"p matrix on block ({n}|{m}) is singular"
                break
            m += 1
        if failure:
            break
    return {
        "check": "triangularity",
        "params": {"n_max": n_max},
        "pass": failure is None,
        "first_failure": failure,
        "nonneg_surmise_holds": nonneg,
    }
