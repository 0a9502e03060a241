"""Dual bases and Cauchy kernels, checked against the polynomial engine.

The scalar product and the e-h involution are diagonal on power sums and
live in transform with the rest of the pivot; they are re-exported here.
The pairing convention: the left slot carries the sector sign
(-1)^(m(m-1)/2) (reversed theta order) and the right slot is plain, which
makes <p_L, p_O> = z_L delta exactly as displayed everywhere below.
"""

from __future__ import annotations

from fractions import Fraction

from .superpartition import SuperPartition, _blocks, _report, enumerate_superpartitions
from .superpoly import SuperPolynomial, _FIELD_BITS, _FIELD_MASK
from .transform import (  # noqa: F401  (change_basis is re-exported)
    BasisExpansion,
    change_basis,
    eh_in_p,
    omega,
    omega_sign,
    scalar_product,
    z_weight,
)
from . import bases as _bases
from .bases import _canonical_key

__all__ = [
    "z_weight",
    "omega_sign",
    "scalar_product",
    "omega",
    "eh_in_p",
    "dual_bases_check",
    "duality_check",
    "kernel_check",
    "reproducing_check",
]


_DUAL_BASES = ("m", "e", "h", "p", "p/z")


def dual_bases_check(n: int, m: int, u: str, v: str) -> bool:
    """True iff the Gram matrix <u_L, v_O> on block (n|m) is the identity;
    an empty block raises, as it leaves nothing to check."""
    for name in (u, v):
        if name not in _DUAL_BASES:
            raise ValueError(f"basis must be one of {_DUAL_BASES}, got {name!r}")

    def unit(name: str, sp: SuperPartition) -> BasisExpansion:
        if name == "p/z":
            return BasisExpansion.unit("p", sp).scale(Fraction(1, z_weight(sp)))
        return BasisExpansion.unit(name, sp)

    block = enumerate_superpartitions(n, m)
    if not block:
        raise ValueError(f"SPar({n}|{m}) is empty: nothing to check")
    for a in block:
        ua = unit(u, a)
        for b in block:
            want = Fraction(1) if a == b else Fraction(0)
            if scalar_product(ua, unit(v, b)) != want:
                return False
    return True


def duality_check(n_max: int) -> dict:
    """h-m and p-(p/z) duality (dual_bases_check) on every block of degree
    <= n_max with at most three fermions."""
    params = {"n_max": n_max}
    for n, m, _ in _blocks(n_max, max_m=3):
        if not dual_bases_check(n, m, "h", "m"):
            return _report("duality", params, f"h-m duality fails on block ({n}|{m})")
        if not dual_bases_check(n, m, "p", "p/z"):
            return _report("duality", params, f"p-p/z duality fails on block ({n}|{m})")
    return _report("duality", params, None)


# -- Cauchy kernels over a doubled alphabet --------------------------------------
#
# x_i, t_i are variables 1..N and y_j, f_j are variables N+1..2N.  Both sides
# of each identity are compared on canonical coefficients only: T[(L, O)] is
# the coefficient of t_1..t_k x^L f_1..f_k y^O, where x^L puts the fermionic
# parts of L on x_1..x_k and its symmetric parts on x_{k+1}.. (likewise y^O).


def _canonical_index(nvars: int, degree: int):
    """Blocks (n|k) with n <= degree and k <= nvars, each with the labels of
    its canonical terms: the superpartitions of length <= nvars."""
    return tuple(
        (n, k, tuple(sp for sp in block if sp.length <= nvars))
        for n, k, block in _blocks(degree, max_m=nvars)
    )


def _kernel_factors(nvars: int, degree: int, inverse: bool):
    """Bosonic and fermionic factors of prod_{i,j} (1 - x_i y_j - t_i f_j)^(-1)
    (or of the product of (1 + x_i y_j + t_i f_j) when inverse), each
    expanded to total x-degree <= degree.

    Each factor splits as b * (1 + psi b) with b the bosonic geometric series
    and psi the (even) theta pair.  Theta supports only grow under products,
    so a canonical term with k <= K fermions per alphabet never sees a pair
    t_i f_j with i or j - N above K; the fermionic factor keeps only the
    cells i, j - N <= K, where K is the largest k <= N with k(k-1)/2 <= degree.
    """
    big = 2 * nvars
    xvars = tuple(range(1, nvars + 1))
    top_k = max(k for k in range(nvars + 1) if k * (k - 1) // 2 <= degree)
    term = SuperPolynomial.term
    top = 1 if inverse else degree
    sign = -1 if inverse else 1
    bos = SuperPolynomial.one(big)
    fer = SuperPolynomial.one(big)
    for i in range(1, nvars + 1):
        for j in range(nvars + 1, big + 1):
            cell_b = SuperPolynomial.linear_combination(
                big, [(1, term(big, 1, {i: k, j: k})) for k in range(top + 1)]
            )
            bos = bos.mul_truncated(cell_b, degree, vars=xvars)
            if i > top_k or j - nvars > top_k:
                continue
            cell_f = SuperPolynomial.linear_combination(
                big,
                [(1, term(big, 1))]
                + [(sign**k, term(big, 1, {i: k, j: k}, (i, j))) for k in range(degree + 1)],
            )
            fer = fer.mul_truncated(cell_f, degree, vars=xvars)
    return bos, fer


def _product_table(nvars: int, degree: int, index, inverse: bool) -> dict:
    """Canonical coefficients of the kernel product (nonzero entries only).

    The product B * F is never formed: B lives on the empty theta support,
    so an entry is sum_{f in F[target support]} c_f B[target - f] with merge
    sign +1, over the f whose exponents fit under the target's.
    """
    bos, fer = _kernel_factors(nvars, degree, inverse)
    b_terms = bos.blocks.get(0, {})
    offsets = tuple(_FIELD_BITS * v for v in range(2 * nvars))
    table = {}
    for _, k, labels in index:
        mask = (1 << k) - 1
        f_terms = [
            (kf, cf, tuple((kf >> off) & _FIELD_MASK for off in offsets))
            for kf, cf in fer.blocks.get(mask | mask << nvars, {}).items()
        ]
        for la in labels:
            kx = _canonical_key(la)
            for om in labels:
                target = kx + _canonical_key(om, nvars)
                fields = tuple((target >> off) & _FIELD_MASK for off in offsets)
                c = 0
                for kf, cf, f_fields in f_terms:
                    if all(e <= t for e, t in zip(f_fields, fields)):
                        c += cf * b_terms.get(target - kf, 0)
                if c:
                    table[la, om] = c
    return table


def _sum_table(index, summand) -> dict:
    """Canonical coefficients of sum_G w_G x_G y_G (nonzero entries only).

    summand(G) gives w_G and the N-variable polynomials x_G, y_G (None to
    skip G); y_G stands in the second alphabet.  The x thetas precede the y
    thetas, so each entry is w_G [L]x_G [O]y_G with no merge sign.
    """
    table = {}
    for n, k, labels in index:
        mask = (1 << k) - 1
        keys = [_canonical_key(la) for la in labels]
        for g in enumerate_superpartitions(n, k):
            term = summand(g)
            if term is None:
                continue
            w, xg, yg = term
            xs = xg.blocks.get(mask, {})
            ys = yg.blocks.get(mask, {})
            cy = [ys.get(key, 0) for key in keys]
            for la, key in zip(labels, keys):
                a = xs.get(key, 0)
                if not a:
                    continue
                for om, b in zip(labels, cy):
                    if b:
                        table[la, om] = table.get((la, om), 0) + w * a * b
    return {pair: c for pair, c in table.items() if c}


def _pp_summand(nvars: int, with_omega: bool):
    """z_G^(-1) (arrowed p_G)(x) p_G(y), with an extra omega_sign when with_omega."""

    def summand(g: SuperPartition):
        p = _bases.multiplicative("p", g, nvars)
        w = Fraction(omega_sign(g) if with_omega else 1, z_weight(g))
        return w, p.arrow(), p

    return summand


def _mh_summand(nvars: int):
    """(arrowed m_G)(x) h_G(y); m_G vanishes on fewer variables than parts."""

    def summand(g: SuperPartition):
        if g.length > nvars:
            return None
        return 1, _bases.monomial(g, nvars).arrow(), _bases.multiplicative("h", g, nvars)

    return summand


def kernel_check(nvars: int, degree: int) -> dict:
    """Verify the Cauchy kernel and its inverse over doubled alphabets.

    The product expansion of prod (1 - x_i y_j - t_i f_j)^(-1), truncated at
    total x-degree <= degree, must equal both the z-weighted sum of arrowed
    p times p and the sum of arrowed m times h; the product of
    (1 + x_i y_j + t_i f_j) must equal the omega-signed p-times-p sum.

    Every side is compared on its canonical coefficients T[(L, O)] (see
    _canonical_index), and that comparison is complete.  Each side is
    invariant under simultaneous exchanges (x_i, t_i) <-> (x_{i+1}, t_{i+1})
    inside either alphabet, so every term is a signed copy of one whose
    thetas are t_1..t_k f_1..f_k with the theta-carrying exponents strictly
    decreasing (equal ones cancel under their exchange) and the rest weakly
    decreasing: a canonical term labelled by a pair of superpartitions of
    length <= N.  Both alphabets carry equal degree and fermion number, so
    only pairs from one block (n|k) can be nonzero.
    """
    if nvars < 1 or degree < 0:
        raise ValueError(f"need nvars >= 1 and degree >= 0, got ({nvars}, {degree})")
    params = {"nvars": nvars, "degree": degree}
    index = _canonical_index(nvars, degree)
    direct = _product_table(nvars, degree, index, inverse=False)
    if direct != _sum_table(index, _pp_summand(nvars, with_omega=False)):
        return _report("kernel", params, "product expansion differs from the weighted p-p sum")
    if direct != _sum_table(index, _mh_summand(nvars)):
        return _report("kernel", params, "product expansion differs from the m-h sum")
    inverse = _product_table(nvars, degree, index, inverse=True)
    if inverse != _sum_table(index, _pp_summand(nvars, with_omega=True)):
        return _report("kernel", params, "inverse product differs from the omega-signed p-p sum")
    return _report("kernel", params, None)


def reproducing_check(nvars: int, max_degree: int) -> dict:
    """Pairing the kernel against m_L in the x-alphabet returns m_L(y, f).

    kernel_check establishes K = sum z_O^(-1) (arrowed p_O)(x) p_O(y); in
    the slot convention the x-part of each summand is already the arrowed
    left argument, so pairing with m_L contracts <arrowed p_O, m_L> =
    z_O * (p-coefficient of m_L at O), and the y-side reassembles m_L.
    """
    if nvars < 1 or max_degree < 0:
        raise ValueError(f"need nvars >= 1 and max_degree >= 0, got ({nvars}, {max_degree})")
    params = {"nvars": nvars, "max_degree": max_degree}
    big = 2 * nvars
    for n, m, block in _blocks(max_degree, max_m=nvars):
        if m > 0 and n >= nvars:
            continue  # power sums only span the block below nvars
        for sp in block:
            if sp.length > nvars:
                continue
            pairs = []
            unit_m = BasisExpansion.unit("m", sp)
            for om in block:
                c = scalar_product(BasisExpansion.unit("p", om), unit_m)
                if c:
                    py = _bases.multiplicative("p", om, nvars).shift_alphabet(nvars, big)
                    pairs.append((Fraction(c, z_weight(om)), py))
            paired = SuperPolynomial.linear_combination(big, pairs)
            want = _bases.monomial(sp, nvars).shift_alphabet(nvars, big)
            if paired != want:
                failure = f"kernel pairing with m_{sp} does not reproduce it"
                return _report("kernel-reproducing", params, failure)
    return _report("kernel-reproducing", params, None)
