"""The four classical bases: monomial, elementary, complete, power sums.

Each family comes in a bosonic version (e_n, h_n, p_n) and a fermionic one
(te_n, th_n, tp_n, rendered with a tilde in math and spelled with a
`_tilde` suffix here), each written once as its closed form and built by one
uncached builder, whole or in the quotient of a check's reads.  Products over
the parts of a superpartition give the multiplicative bases; the monomial
basis is written directly, one term per distinct variable placement.

Generating series with one extra bosonic parameter t = x_{N+1} and one extra
anticommuting parameter tau = t_{N+1} tie the families together; see
generating_check.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, lru_cache

from .superpartition import BASIS_NAMES, SuperPartition, _check_size, _report, enumerate_superpartitions  # noqa: F401
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


# monomial() reads its placements from two per-shape tables, each bounded
# by lru_cache: a pass of the identities benchmark reads about 80 of each, of
# at most 336 keys.  A shape of more than _TABLE_KEYS keys is built uncached.
_TABLE_KEYS = 1024


def _placement_table(table, slots: int, parts: tuple) -> tuple:
    """table(slots, parts), cached only if its keys (the placements of the
    parts on the slots, equal parts unordered) are at most _TABLE_KEYS."""
    count = math.perm(slots, len(parts)) // math.prod(math.factorial(len(list(r))) for _, r in itertools.groupby(parts))
    return (table if count <= _TABLE_KEYS else table.__wrapped__)(slots, parts)


@lru_cache(maxsize=256)
def _symmetric_keys(nslots: int, s: tuple) -> tuple[int, ...]:
    """Packed keys of every placement of the symmetric parts s on the slots
    0..nslots-1: one set of slots per distinct value, taken from those the
    larger values left; unchosen slots stay at zero."""
    placed = [(0, tuple(range(nslots)))]
    for value, run in itertools.groupby(s):
        units = [value << (_FIELD_BITS * v) for v in range(nslots)]
        count, nxt = len(tuple(run)), []
        for key, avail in placed:
            for chosen in itertools.combinations(avail, count):
                rest = tuple(v for v in avail if v not in chosen)
                nxt.append((key + sum([units[v] for v in chosen]), rest))
        placed = nxt
    return tuple(key for key, _ in placed)


@lru_cache(maxsize=256)
def _theta_placements(nvars: int, a: tuple) -> tuple:
    """Per set of len(a) theta variables among nvars: its mask, the field
    offsets to open in a symmetric key, lowest first, and the keys of the
    fermionic parts on it, a_j on the idx[j]-th variable at idx's sign."""
    orders = [(idx, _sort_sign(idx)) for idx in itertools.permutations(range(len(a)))]
    out = []
    for pos in itertools.combinations(range(nvars), len(a)):
        placed = tuple((sum([p << (_FIELD_BITS * pos[i]) for p, i in zip(a, idx)]), sign) for idx, sign in orders)
        out.append((sum(1 << v for v in pos), tuple(_FIELD_BITS * v for v in pos), placed))
    return tuple(out)


def _canonical_key(sp: SuperPartition) -> int:
    """Packed exponents of the canonical term of sp, the one monomial()
    normalises to +1: the parts of sp.as_composition() on the variables
    1.., whose first fermionic_degree variables carry the thetas."""
    return sum(e << (_FIELD_BITS * i) for i, e in enumerate(sp.as_composition()))


def _canonical_reads(n: int, m: int, nvars: int) -> tuple[list, list]:
    """The labels of (n|m) with at most nvars parts, in enumeration order,
    and the packed keys of their canonical terms: the coefficients every
    engine check reads, as they determine a symmetric element of (n|m) in
    nvars variables.  Uncached: each caller asks once per block."""
    labels = enumerate_superpartitions(n, m, max_len=nvars)
    return labels, [_canonical_key(sp) for sp in labels]


def _quotient(blocks, nvars: int) -> tuple[int, dict[int, list[int]], int]:
    """The quotient that the reads of the blocks (n, m) at nvars see, as
    (ell, D by degree, mask): ell the length of their longest label, D the
    packed keys dividing some canonical key, as lists by degree, and mask
    the sectors of t_1..t_m for their largest m.  A multiple of a key
    outside D divides no read key, and masks only grow, so the terms outside
    D or the mask span an ideal: dropping them is a ring map, and x_j, t_j
    for j > ell reach no read, so every read of a product or sum is the same
    in the quotient.  Uncached: each check builds it once per call."""
    ell, keys, mask = 0, [], 0
    for n, m in blocks:
        labels, block_keys = _canonical_reads(n, m, nvars)
        ell = max([ell] + [sp.length for sp in labels])
        keys += block_keys
        mask |= (1 << m) - 1
    divisors, by_degree = set(), {}
    for key in keys:
        found, unit = [0], 1
        while key:
            found = [d + e * unit for d in found for e in range((key & _FIELD_MASK) + 1)]
            key, unit = key >> _FIELD_BITS, unit << _FIELD_BITS
        divisors.update(found)
    for key in divisors:  # a key's degree below 2^16 - 1 is the key mod 2^16 - 1, as 2^16 is 1 there
        by_degree.setdefault(key % _FIELD_MASK, []).append(key)
    return ell, by_degree, mask


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
    _check_size("nvars", nvars)
    if sp.length > nvars:
        if strict:
            raise ValueError(
                f"monomial for {sp} needs at least {sp.length} variables, got {nvars}"
            )
        return SuperPolynomial.zero(nvars)
    top = max(sp.as_composition(), default=0)
    if top > _FIELD_MASK:
        raise ValueError(f"part {top} of {sp} exceeds the exponent field (max {_FIELD_MASK})")
    sym = _placement_table(_symmetric_keys, nvars - sp.fermionic_degree, sp.s)
    blocks = {}
    for mask, offsets, placed in _placement_table(_theta_placements, nvars, sp.a):
        keys = sym
        for off in offsets:  # open a zero field at each theta variable
            low = (1 << off) - 1
            keys = [k & low | k >> off << (off + _FIELD_BITS) for k in keys]
        blocks[mask] = {kf + k: sign for kf, sign in placed for k in keys}
    return SuperPolynomial(nvars, blocks)


# The closed forms: the coefficient of X_n at t_i x^v, with x^v given as
# the sorted sequence of its variables (0-based, each repeated by its
# exponent) and i the 0-based theta of a fermionic family (None if bosonic).
_FORMS = {
    "e": lambda i, v: 1 if len(set(v)) == len(v) else 0,  # squarefree
    "te": lambda i, v: 1 if len(set(v)) == len(v) and i not in v else 0,
    "h": lambda i, v: 1,
    "th": lambda i, v: v.count(i) + 1,
    "p": lambda i, v: 1 if len(set(v)) == 1 else 0,  # n e_j with n >= 1: p_0 = 0
    "tp": lambda i, v: 1 if v.count(i) == len(v) else 0,  # n e_i
}

# Each family's support, as tuples of n entries of vs (variables or their unit keys).
_SUPPORTS = {"e": itertools.combinations, "h": itertools.combinations_with_replacement,
             "p": lambda vs, n: ((j,) * n for j in vs)}  # single powers


def _variables(key: int) -> list[int]:
    """The sorted variables of a packed key, each repeated by its exponent;
    a list, since the tuple free lists would keep a build's many tuples."""
    fields = range(0, key.bit_length(), _FIELD_BITS)
    return [o // _FIELD_BITS for o in fields for _ in range(key >> o & _FIELD_MASK)]


def _generator(family: str, n: int, nvars: int, quotient=None) -> SuperPolynomial:
    """X_n of a family (e, te, h, th, p or tp) in nvars variables: its closed
    form (_FORMS) at the family's support, or in a quotient (_quotient, on
    its ell variables) at D's keys of degree n and on the mask's sectors
    alone.  Uncached: the constructors cache it; the engine's walks and
    checks build what they alone read."""
    _check_size("n", n, 0, _FIELD_MASK)  # one exponent field
    _check_size("nvars", nvars)
    form, mask = _FORMS[family], -1
    if quotient is None:  # the support on the variables and on their unit keys, in one order
        support, units = _SUPPORTS[family[-1]], [1 << (_FIELD_BITS * j) for j in range(nvars)]
        terms = ((sum(u), v) for v, u in zip(support(range(nvars), n), support(units, n)))
    else:
        _, by_degree, mask = quotient
        terms = ((key, _variables(key)) for key in by_degree.get(n, ()))
    sectors = [(1 << i, i) for i in range(nvars) if mask >> i & 1] if family[0] == "t" else [(0, None)]
    terms = terms if len(sectors) == 1 else list(terms)  # streamed into one sector, else read per sector
    return SuperPolynomial(nvars, {bit: {key: form(i, v) for key, v in terms} for bit, i in sectors})


# Typed cache keys: True == 1 and hashes alike, so an untyped cache would
# serve a bool size as 1 before the body's size check could refuse it.
_typed_cache = lru_cache(maxsize=None, typed=True)


@_typed_cache
def elementary(n: int, nvars: int) -> SuperPolynomial:
    """e_n: sum of squarefree degree-n monomials."""
    return _generator("e", n, nvars)


@_typed_cache
def elementary_tilde(n: int, nvars: int) -> SuperPolynomial:
    """te_n: sum of t_i times squarefree monomials avoiding x_i."""
    return _generator("te", n, nvars)


@_typed_cache
def complete(n: int, nvars: int) -> SuperPolynomial:
    """h_n: sum of all degree-n monomials."""
    return _generator("h", n, nvars)


@_typed_cache
def complete_tilde(n: int, nvars: int) -> SuperPolynomial:
    """th_n = sum_i t_i sum_{k<=n} x_i^k h_{n-k}.

    Collecting the convolution on a fixed monomial x^v leaves v_i + 1
    choices for the split, so th_n = sum_i t_i sum_{|v|=n} (v_i + 1) x^v.
    Equivalently th_n weights the one-fermion monomial basis by a + 1.
    """
    return _generator("th", n, nvars)


@_typed_cache
def powersum(n: int, nvars: int) -> SuperPolynomial:
    """p_n: sum of n-th powers; p_0 is zero by convention."""
    return _generator("p", n, nvars)


@_typed_cache
def powersum_tilde(n: int, nvars: int) -> SuperPolynomial:
    """tp_n: sum of t_i x_i^n."""
    return _generator("tp", n, nvars)


_GENERATORS = {
    "e": (elementary, elementary_tilde),
    "h": (complete, complete_tilde),
    "p": (powersum, powersum_tilde),
}


@_typed_cache
def multiplicative(basis: str, sp: SuperPartition, nvars: int, /) -> SuperPolynomial:
    """Product basis element: tilde generators for the fermionic parts (in
    their given order), then plain generators for the symmetric parts.  Built
    as the cached element of sp's prefix (sp without its last symmetric part,
    else its last fermionic part) times that part's generator.  Positional
    arguments only, so each element has one cache key.
    """
    _check_size("nvars", nvars)
    if basis not in _GENERATORS:
        raise ValueError(f"multiplicative basis must be one of e, h, p, not {basis!r}")
    plain, tilde = _GENERATORS[basis]
    if sp.s:
        return multiplicative(basis, SuperPartition._canonical(sp.a, sp.s[:-1]), nvars) * plain(sp.s[-1], nvars)
    if sp.a:
        return multiplicative(basis, SuperPartition._canonical(sp.a[:-1], ()), nvars) * tilde(sp.a[-1], nvars)
    return SuperPolynomial.one(nvars)


def _product_read(summands, mask: int, keys) -> list:
    """[t_mask x^K] sum w f g over summands (w, f, g) at packed keys K, building no
    product: w sign c c' over the splits of K into terms of f and g, walking the
    smaller.  With all exponents of f, g and K below 2^15, a K - k that borrows
    across a field has a digit outside [0, 2^15) and matches no key."""
    parts = [
        (w * _merge_sign(mask ^ mb, mb), *sorted((f.blocks[mask ^ mb], terms), key=len))
        for w, f, g in summands
        for mb, terms in g.blocks.items()
        if not mb & ~mask and mask ^ mb in f.blocks
    ]
    return [sum(s * c * big.get(key - k, 0) for s, few, big in parts for k, c in few.items()) for key in keys]


def _path_reads(basis: str, requests, nvars: int):
    """Yield (label, [t_1..t_k x^K] of its element at each K of keys) per
    request (label, keys), k its fermionic degree: by k, then depth-first in
    the order of the factor sequences (tilde parts, then plain parts).  Each
    distinct proper prefix product is built once, on the sectors inside
    t_1..t_k (all of them if k > nvars), and dropped when the walk leaves
    it; each label is read (_product_read) off its prefix and last factor.
    The generators are built for the walk alone, uncached (_generator)."""
    factor = cache(lambda tilde, part: _generator("t" * tilde + basis, part, nvars))
    by_k = {}
    for label, keys in requests:
        by_k.setdefault(label.fermionic_degree, []).append((label.a + label.s, label, keys))
    for k, walk in sorted(by_k.items()):
        seq, path = (), [SuperPolynomial.one(nvars)]  # path[i]: the product of seq[:i]
        for parts, label, keys in sorted(walk, key=lambda r: r[0]):
            common = 0
            while common < min(len(seq), len(parts) - 1) and seq[common] == parts[common]:
                common += 1
            del path[common + 1:]
            for i in range(common, len(parts) - 1):
                path.append(path[-1].mul_restricted(factor(i < k, parts[i]), range(1, min(k, nvars) + 1)))
            seq, last = parts[:-1], factor(len(parts) <= k, parts[-1]) if parts else path[0]
            yield label, _product_read([(1, path[-1], last)], (1 << k) - 1, keys)


def basis_element(basis: str, sp: SuperPartition, nvars: int | None = None, arrowed: bool = False) -> SuperPolynomial:
    """Dispatch: monomial for "m", product element for "e", "h", "p".  With
    arrowed=True each m-fermion sector is scaled by (-1)^(m(m-1)/2), which
    reverses the order of the theta factors; no arrowed element is cached."""
    if nvars is None:
        nvars = default_nvars(sp)
    out = monomial(sp, nvars) if basis == "m" else multiplicative(basis, sp, nvars)
    return out.arrow() if arrowed else out


# -- generating series -------------------------------------------------------


def _series(kind: str, nvars: int, trunc: int) -> SuperPolynomial:
    """E = prod_i (1 + u_i), H = prod_i 1/(1 - u_i) or P = sum_i u_i/(1 - u_i)
    through t-degree trunc, with u_i = t x_i + tau t_i in the ring with
    t = x_{N+1}, tau = t_{N+1}.

    Each factor is sum_k u_i^k, u_i^k = (t x_i)^k + k tau t_i (t x_i)^(k-1),
    over k in {0, 1} for E, 0..trunc+1 for H and 1..trunc+1 for P: tau
    carries no t-degree, so the tau part needs one extra order.
    """
    big, term = nvars + 1, SuperPolynomial.term
    ks = {"E": range(2), "H": range(trunc + 2), "P": range(1, trunc + 2)}[kind]
    factors = [
        SuperPolynomial.linear_combination(
            big,
            [(1, term(big, 1, {big: k, i: k})) for k in ks]
            + [(k, term(big, 1, {big: k - 1, i: k - 1}, (big, i))) for k in ks if k],
        )
        for i in range(1, nvars + 1)
    ]
    if kind == "P":
        return SuperPolynomial.linear_combination(big, ((1, f) for f in factors)).truncate(trunc, vars=(big,))
    out = SuperPolynomial.one(big)
    for factor in factors:
        out = out.mul_truncated(factor, trunc, vars=(big,))
    return out


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
    _check_size("trunc", trunc, 0, _FIELD_MASK >> 1)  # a product of two series adds t-degrees
    _check_size("nvars", nvars, 1)
    kind = kind.upper()
    check = f"generating-{kind}"
    params = {"kind": kind, "trunc": trunc, "nvars": nvars}
    big = nvars + 1

    if kind in ("E", "H", "P"):
        series = _series(kind, nvars, trunc)
        plain, tilde = _GENERATORS[kind.lower()]
        for n in range(trunc + 1):
            bos, ferm = _split_t_coefficient(series, n, big)
            if bos != plain(n, nvars).widen(big):
                return _report(check, params, f"bosonic t^{n} coefficient differs")
            weight = n + 1 if kind == "P" else 1
            if ferm != tilde(n, nvars).widen(big) * weight:
                return _report(check, params, f"fermionic t^{n} coefficient differs")
        return _report(check, params, None)
    if kind == "HE":
        h = _series("H", nvars, trunc)
        e = _series("E", nvars, trunc).negate_vars((big,), (big,))
        lhs = h.mul_truncated(e, trunc, vars=(big,))
        rhs = SuperPolynomial.one(big)
        claim = "H(t,tau) E(-t,-tau) != 1"
    elif kind == "HP":
        h = _series("H", nvars, trunc)
        p = _series("P", nvars, trunc)
        lhs = h.mul_truncated(p, trunc, vars=(big,))
        rhs = h.euler_scale(big) + h.select_theta(big)
        claim = "H P != (t d/dt + tau d/dtau) H"
    elif kind == "EP":
        e = _series("E", nvars, trunc)
        p = _series("P", nvars, trunc).negate_vars((big,), (big,))
        lhs = e.mul_truncated(p, trunc, vars=(big,))
        rhs = -(e.euler_scale(big) + e.select_theta(big))
        claim = "E(t,tau) P(-t,-tau) != -(t d/dt + tau d/dtau) E"
    else:
        raise ValueError(f"unknown generating check {kind!r}")
    return _report(check, params, None if lhs == rhs else claim)
