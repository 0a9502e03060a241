"""The four classical bases: monomial, elementary, complete, power sums.

Each family comes in a bosonic version (e_n, h_n, p_n) and a fermionic one
(te_n, th_n, tp_n, rendered with a tilde in math but spelled with a leading
`_tilde` suffix here).  Products over the parts of a superpartition give the
multiplicative bases; the monomial basis is written directly, one term per
distinct variable placement.

Generating series with one extra bosonic parameter t = x_{N+1} and one extra
anticommuting parameter tau = t_{N+1} tie the families together; see
generating_check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

from .superpartition import BASIS_NAMES, SuperPartition, _report, enumerate_superpartitions  # noqa: F401
from .superpoly import SuperPolynomial, _FIELD_BITS, _FIELD_MASK, _merge_sign, _sort_sign

__all__ = [
    "monomial",
    "elementary",
    "elementary_tilde",
    "complete",
    "complete_tilde",
    "powersum",
    "powersum_tilde",
    "multiplicative",
    "basis_element",
    "default_nvars",
    "generating_check",
]

def default_nvars(sp: SuperPartition) -> int:
    """Enough variables for a faithful expansion of anything in the block:
    degree plus fermionic degree."""
    n, m = sp.bidegree
    return n + m


def _symmetric_keys(nslots: int, groups) -> list[int]:
    """Packed keys of every placement of the symmetric parts on the slots
    0..nslots-1: one set of slots per distinct value, taken from those the
    larger values left; unchosen slots stay at zero."""
    placed = [(0, tuple(range(nslots)))]
    for value, count in groups:
        units = [value << (_FIELD_BITS * v) for v in range(nslots)]
        nxt = []
        for key, avail in placed:
            for chosen in itertools.combinations(avail, count):
                rest = tuple(v for v in avail if v not in chosen)
                nxt.append((key + sum([units[v] for v in chosen]), rest))
        placed = nxt
    return [key for key, _ in placed]


def _canonical_key(sp: SuperPartition) -> int:
    """Packed exponents of the canonical term of sp, the one monomial()
    normalises to +1: the parts of sp.as_composition() on the variables
    1.., whose first fermionic_degree variables carry the thetas."""
    return sum(e << (_FIELD_BITS * i) for i, e in enumerate(sp.as_composition()))


def monomial(sp: SuperPartition, nvars: int, strict: bool = True) -> SuperPolynomial:
    """Monomial basis element: the sum over distinct variable placements.

    Fermionic parts occupy a set of variables, each bringing its theta;
    symmetric parts fill a set of the remaining variables per distinct
    value.  Normalized so the coefficient of
    t_1..t_m x_1^{a_1}..x_m^{a_m} x_{m+1}^{s_1}.. is +1.  The fermionic
    parts are distinct, so every placement is a distinct term and the
    blocks are written without accumulating.  With fewer variables than
    parts the element has no room: error when strict, zero polynomial
    otherwise (the truncated-alphabet convention).
    """
    m = sp.fermionic_degree
    if sp.length > nvars:
        if strict:
            raise ValueError(
                f"monomial for {sp} needs at least {sp.length} variables, got {nvars}"
            )
        return SuperPolynomial.zero(nvars)
    top = max(sp.as_composition(), default=0)
    if top > _FIELD_MASK:
        raise ValueError(f"part {top} of {sp} exceeds the exponent field (max {_FIELD_MASK})")
    groups = [(v, len(tuple(run))) for v, run in itertools.groupby(sp.s)]
    sym = _symmetric_keys(nvars - m, groups)
    # a_j on the idx[j]-th theta variable: the word's sort sign is idx's sign
    orders = [(idx, _sort_sign(idx)) for idx in itertools.permutations(range(m))]
    blocks = {}
    for pos in itertools.combinations(range(nvars), m):
        keys = sym
        for v in pos:  # open a zero field at each theta variable, lowest first
            off = _FIELD_BITS * v
            low = (1 << off) - 1
            keys = [k & low | k >> off << (off + _FIELD_BITS) for k in keys]
        placed = [
            (sum([a << (_FIELD_BITS * pos[i]) for a, i in zip(sp.a, idx)]), sign)
            for idx, sign in orders
        ]
        blocks[sum(1 << v for v in pos)] = {kf + k: sign for kf, sign in placed for k in keys}
    return SuperPolynomial(nvars, blocks)


def _packed_key(combo) -> int:
    """Exponent key for a monomial given as a multiset of 1-based variables."""
    key = 0
    for v in combo:
        key += 1 << (_FIELD_BITS * (v - 1))
    return key


def _check_degree(n: int) -> None:
    """A generator's degree must be a single exponent: 0 <= n <= _FIELD_MASK."""
    if not 0 <= n <= _FIELD_MASK:
        raise ValueError(f"need 0 <= n <= {_FIELD_MASK} (the exponent field), got {n}")


@cache
def elementary(n: int, nvars: int) -> SuperPolynomial:
    """e_n: sum of squarefree degree-n monomials."""
    _check_degree(n)
    body = {
        _packed_key(combo): 1
        for combo in itertools.combinations(range(1, nvars + 1), n)
    }
    return SuperPolynomial(nvars, {0: body})


@cache
def elementary_tilde(n: int, nvars: int) -> SuperPolynomial:
    """te_n: sum of t_i times squarefree monomials avoiding x_i."""
    _check_degree(n)
    blocks = {}
    for i in range(1, nvars + 1):
        others = [v for v in range(1, nvars + 1) if v != i]
        body = {
            _packed_key(combo): 1 for combo in itertools.combinations(others, n)
        }
        blocks[1 << (i - 1)] = body
    return SuperPolynomial(nvars, blocks)


@cache
def complete(n: int, nvars: int) -> SuperPolynomial:
    """h_n: sum of all degree-n monomials."""
    _check_degree(n)
    body = {
        _packed_key(combo): 1
        for combo in itertools.combinations_with_replacement(range(1, nvars + 1), n)
    }
    return SuperPolynomial(nvars, {0: body})


@cache
def complete_tilde(n: int, nvars: int) -> SuperPolynomial:
    """th_n = sum_i t_i sum_{k<=n} x_i^k h_{n-k}.

    Collecting the convolution on a fixed monomial x^v leaves v_i + 1
    choices for the split, so th_n = sum_i t_i sum_{|v|=n} (v_i + 1) x^v.
    Equivalently th_n weights the one-fermion monomial basis by a + 1.
    """
    _check_degree(n)
    blocks: dict[int, dict[int, int]] = {1 << i: {} for i in range(nvars)}
    for combo in itertools.combinations_with_replacement(range(1, nvars + 1), n):
        key = _packed_key(combo)
        counts: dict[int, int] = {}
        for v in combo:
            counts[v] = counts.get(v, 0) + 1
        for i in range(1, nvars + 1):
            blocks[1 << (i - 1)][key] = counts.get(i, 0) + 1
    return SuperPolynomial(nvars, blocks)


@cache
def powersum(n: int, nvars: int) -> SuperPolynomial:
    """p_n: sum of n-th powers; p_0 is zero by convention."""
    _check_degree(n)
    if n == 0:
        return SuperPolynomial.zero(nvars)
    body = {_packed_key([i] * n): 1 for i in range(1, nvars + 1)}
    return SuperPolynomial(nvars, {0: body})


@cache
def powersum_tilde(n: int, nvars: int) -> SuperPolynomial:
    """tp_n: sum of t_i x_i^n."""
    _check_degree(n)
    blocks = {
        1 << (i - 1): {_packed_key([i] * n): 1} for i in range(1, nvars + 1)
    }
    return SuperPolynomial(nvars, blocks)


_GENERATORS = {
    "e": (elementary, elementary_tilde),
    "h": (complete, complete_tilde),
    "p": (powersum, powersum_tilde),
}


def generator_functions(basis: str):
    """(plain, tilde) constructor pair of a multiplicative basis."""
    if basis not in _GENERATORS:
        raise ValueError(f"multiplicative basis must be one of e, h, p, not {basis!r}")
    return _GENERATORS[basis]


@cache
def multiplicative(basis: str, sp: SuperPartition, nvars: int, arrowed: bool = False) -> SuperPolynomial:
    """Product basis element: tilde generators for the fermionic parts (in
    their given order), then plain generators for the symmetric parts.

    With arrowed=True each m-fermion sector is scaled by (-1)^(m(m-1)/2),
    which reverses the order of the theta factors.
    """
    out = _generator_product(basis, sp, nvars, nvars)
    return out.arrow() if arrowed else out


def _last_factor(basis: str, sp: SuperPartition, nvars: int):
    """(prefix, factor), sp's element being the prefix's times the generator of
    sp's last symmetric part, or else of its last fermionic part; None if empty."""
    plain, tilde = generator_functions(basis)
    if sp.s:
        return SuperPartition._canonical(sp.a, sp.s[:-1]), plain(sp.s[-1], nvars)
    if sp.a:
        return SuperPartition._canonical(sp.a[:-1], ()), tilde(sp.a[-1], nvars)
    return None


@cache
def _generator_product(basis: str, sp: SuperPartition, nvars: int, thetas: int) -> SuperPolynomial:
    """The product of multiplicative() keeping only theta supports inside
    t_1..t_thetas, as the cached product of sp's prefix times its last
    factor.  Supports only grow, so with thetas = sp's fermionic degree each
    factor keeps one sector: the block the engine oracle reads."""
    split = _last_factor(basis, sp, nvars)
    if split is None:
        return SuperPolynomial.one(nvars)
    prefix, factor = split
    return _generator_product(basis, prefix, nvars, thetas).mul_restricted(factor, range(1, thetas + 1))


def _canonical_read(basis: str, sp: SuperPartition, nvars: int, keys) -> list:
    """[t_1..t_k x^K] of sp's element (k its fermionic degree) at packed keys
    K of its degree, never building it: sign c c' over the splits of K into
    terms of the cached prefix and the last factor, walking the smaller.  As
    kernel_check keeps exponents below 2^15, a difference that borrows across
    a field has a digit outside [0, 2^15) and matches no key of either side."""
    split = _last_factor(basis, sp, nvars)
    if split is None:
        return [int(key == 0) for key in keys]
    mask = (1 << sp.fermionic_degree) - 1
    pre = _generator_product(basis, split[0], nvars, sp.fermionic_degree).blocks
    parts = [
        (_merge_sign(mask ^ mb, mb), *sorted((pre[mask ^ mb], terms), key=len))
        for mb, terms in split[1].blocks.items()
        if not mb & ~mask and mask ^ mb in pre
    ]
    return [sum(s * c * big.get(key - k, 0) for s, few, big in parts for k, c in few.items()) for key in keys]


def basis_element(basis: str, sp: SuperPartition, nvars: int | None = None, arrowed: bool = False) -> SuperPolynomial:
    """Dispatch: monomial for "m", product element for "e", "h", "p"."""
    if nvars is None:
        nvars = default_nvars(sp)
    if basis == "m":
        out = monomial(sp, nvars)
        return out.arrow() if arrowed else out
    return multiplicative(basis, sp, nvars, arrowed)


# -- generating series -------------------------------------------------------


def _series_E(nvars: int, trunc: int) -> SuperPolynomial:
    """prod_i (1 + t x_i + tau t_i) in the ring with t = x_{N+1}, tau = t_{N+1}."""
    big = nvars + 1
    term = SuperPolynomial.term
    out = SuperPolynomial.one(big)
    for i in range(1, nvars + 1):
        cell = (term(big, 1), term(big, 1, {big: 1, i: 1}), term(big, 1, thetas=(big, i)))
        factor = SuperPolynomial.linear_combination(big, ((1, t) for t in cell))
        out = out.mul_truncated(factor, trunc, vars=(big,))
    return out


def _series_H(nvars: int, trunc: int) -> SuperPolynomial:
    """prod_i 1/(1 - t x_i - tau t_i), expanded through t-degree trunc.

    Each factor is sum_k (t x_i)^k + tau t_i sum_k k (t x_i)^(k-1); the
    second sum needs one extra order since tau carries no t-degree.
    """
    big = nvars + 1
    term = SuperPolynomial.term
    out = SuperPolynomial.one(big)
    for i in range(1, nvars + 1):
        factor = SuperPolynomial.linear_combination(
            big,
            [(1, term(big, 1, {big: k, i: k})) for k in range(trunc + 1)]
            + [(k, term(big, 1, {big: k - 1, i: k - 1}, (big, i))) for k in range(1, trunc + 2)],
        )
        out = out.mul_truncated(factor, trunc, vars=(big,))
    return out


def _series_P(nvars: int, trunc: int) -> SuperPolynomial:
    """sum_i (t x_i + tau t_i)/(1 - t x_i - tau t_i) through t-degree trunc."""
    big = nvars + 1
    term = SuperPolynomial.term
    pairs = []
    for i in range(1, nvars + 1):
        pairs += [(1, term(big, 1, {big: k, i: k})) for k in range(1, trunc + 1)]
        pairs += [(k + 1, term(big, 1, {big: k, i: k}, (big, i))) for k in range(trunc + 1)]
    return SuperPolynomial.linear_combination(big, pairs)


def _split_t_coefficient(series: SuperPolynomial, n: int, big: int):
    """Bosonic and left-tau parts of the t^n coefficient of a series."""
    c = series.extract_x(big, n)
    ferm = c.extract_theta_left(big)
    bos = c - c.select_theta(big)
    return bos, ferm


def generating_check(kind: str, trunc: int, nvars: int) -> dict:
    """Verify a generating-series statement exactly; returns a report dict.

    kinds:
      "E", "H", "P": series coefficients against the direct constructors
          ([t^n] and left [tau t^n]; for P the fermionic weight is n+1).
      "HE": H(t,tau) E(-t,-tau) = 1.
      "HP": H P = (t d/dt + tau d/dtau) H.
      "EP": E(t,tau) P(-t,-tau) = -(t d/dt + tau d/dtau) E.
    """
    if trunc < 0 or nvars < 1:
        raise ValueError(f"need trunc >= 0 and nvars >= 1, got ({trunc}, {nvars})")
    kind = kind.upper()
    check = f"generating-{kind}"
    params = {"kind": kind, "trunc": trunc, "nvars": nvars}
    big = nvars + 1

    if kind in ("E", "H", "P"):
        series = {"E": _series_E, "H": _series_H, "P": _series_P}[kind](nvars, trunc)
        plain, tilde = _GENERATORS["e" if kind == "E" else kind.lower()]
        for n in range(trunc + 1):
            bos, ferm = _split_t_coefficient(series, n, big)
            if bos != plain(n, nvars).widen(big):
                return _report(check, params, f"bosonic t^{n} coefficient differs")
            weight = n + 1 if kind == "P" else 1
            if ferm != tilde(n, nvars).widen(big) * weight:
                return _report(check, params, f"fermionic t^{n} coefficient differs")
        return _report(check, params, None)
    if kind == "HE":
        h = _series_H(nvars, trunc)
        e = _series_E(nvars, trunc).negate_vars((big,), (big,))
        lhs = h.mul_truncated(e, trunc, vars=(big,))
        rhs = SuperPolynomial.one(big)
        claim = "H(t,tau) E(-t,-tau) != 1"
    elif kind == "HP":
        h = _series_H(nvars, trunc)
        p = _series_P(nvars, trunc)
        lhs = h.mul_truncated(p, trunc, vars=(big,))
        rhs = h.euler_scale(big) + h.select_theta(big)
        claim = "H P != (t d/dt + tau d/dtau) H"
    elif kind == "EP":
        e = _series_E(nvars, trunc)
        p = _series_P(nvars, trunc).negate_vars((big,), (big,))
        lhs = e.mul_truncated(p, trunc, vars=(big,))
        rhs = -(e.euler_scale(big) + e.select_theta(big))
        claim = "E(t,tau) P(-t,-tau) != -(t d/dt + tau d/dtau) E"
    else:
        raise ValueError(f"unknown generating check {kind!r}")
    return _report(check, params, None if lhs == rhs else claim)
