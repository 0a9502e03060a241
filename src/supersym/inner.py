"""Dual bases and Cauchy kernels, checked against the polynomial engine.

The scalar product and the e-h involution are diagonal on power sums and
live in transform with the rest of the pivot; they are re-exported here.
The pairing convention: the left slot carries the sector sign
(-1)^(m(m-1)/2) (reversed theta order) and the right slot is plain, which
makes <p_L, p_O> = z_L delta exactly as displayed everywhere below.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .superpartition import SuperPartition, _blocks, _check_size, _report, enumerate_superpartitions
from .superpoly import SuperPolynomial, _FIELD_MASK, _sector_sign
from .transform import (  # noqa: F401  (change_basis is re-exported)
    BasisExpansion,
    _peel,
    change_basis,
    eh_in_p,
    omega,
    omega_sign,
    scalar_product,
    z_weight,
)
from . import bases as _bases

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
    _check_size("n", n)
    _check_size("m", m)
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
    _check_size("n_max", n_max)
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
    its canonical terms: the read set of bases._canonical_reads at nvars."""
    return tuple((n, k, _bases._canonical_reads(n, k, nvars)[0]) for n, k, _ in _blocks(degree, max_m=nvars))


def _counted_table(index, inverse: bool) -> dict:
    """Canonical coefficients of the kernel product, nonzero only: sector(k)
    [m_O] h_L, or [m_O] e_L when inverse, counted by _peel as signed matrices
    with row sums L and column sums O over every block of the index at once."""
    table = _peel("e" if inverse else "h", index)
    return {pair: _sector_sign(pair[0].fermionic_degree) * c for pair, c in table.items()}


def _sum_tables(nvars: int, index):
    """Canonical coefficients of the three sum sides, nonzero only: (pp, pp_omega, mh).

    pp[(L, O)] = sector(k) sum_G z_G^(-1) [L]p_G [O]p_G over the G of the
    block (n|k), and pp_omega weights each G by omega_sign(G) as well: the
    arrow on the x-side is the sign sector(k), as the x thetas precede the y
    thetas.  One walk (bases._path_reads) reads each p_G once; the G of
    either omega sign accumulate apart, as integers over the lcm of the
    block's z_G, and after its last G the two sums are their sum and
    difference.  [L]m_G = delta_(L, G) as monomial() normalises it, so
    mh[(L, O)] = sector(k) [O]h_L, read by a second walk.
    """
    pp, pp_omega, mh = {}, {}, {}
    labels = {(n, k): ls for n, k, ls in index}
    keys = {nk: _bases._canonical_reads(*nk, nvars)[1] for nk in labels}
    blocks = {nk: enumerate_superpartitions(*nk) for nk in labels}
    # per block: [lcm of z_G, G left to read, sum over omega sign +1, over -1]
    sums = {nk: [math.lcm(*map(z_weight, block)), len(block), {}, {}] for nk, block in blocks.items()}
    requests = [(g, keys[nk]) for nk, block in blocks.items() for g in block]
    for g, row in _bases._path_reads("p", requests, nvars):
        scale, _, even, odd = acc = sums[g.bidegree]
        out, w = even if omega_sign(g) > 0 else odd, scale // z_weight(g)
        ps = [(i, a) for i, a in enumerate(row) if a]
        for i, a in ps:
            wa = w * a
            for j, b in ps:
                out[i, j] = out.get((i, j), 0) + wa * b
        acc[1] -= 1
        if acc[1]:
            continue
        del sums[g.bidegree]
        sign, ls = _sector_sign(g.fermionic_degree), labels[g.bidegree]
        for i, j in even.keys() | odd.keys():
            e, o = even.get((i, j), 0), odd.get((i, j), 0)
            for table, c in ((pp, sign * (e + o)), (pp_omega, sign * (e - o))):
                if c:
                    table[ls[i], ls[j]] = Fraction(c, scale) if c % scale else c // scale
    requests = [(la, keys[nk]) for nk, ls in labels.items() for la in ls]
    for la, row in _bases._path_reads("h", requests, nvars):
        sign = _sector_sign(la.fermionic_degree)
        for om, c in zip(labels[la.bidegree], row):
            if c:
                mh[la, om] = sign * c
    return pp, pp_omega, mh


def kernel_check(nvars: int, degree: int) -> dict:
    """Verify the Cauchy kernel and its inverse over doubled alphabets.

    The product expansion of prod (1 - x_i y_j - t_i f_j)^(-1), truncated at
    total x-degree <= degree, must equal both the z-weighted sum of arrowed
    p times p and the sum of arrowed m times h; the product of
    (1 + x_i y_j + t_i f_j) must equal the omega-signed p-times-p sum.

    Every side is compared on its canonical coefficients T[(L, O)] (see
    _canonical_index), completely: each side is symmetric in either alphabet
    (see engine_checks._vanishes), and as both alphabets carry equal degree
    and fermion number, only pairs from one block (n|k) can be nonzero.
    """
    _check_size("nvars", nvars, 1)
    _check_size("degree", degree, 0, _FIELD_MASK >> 1)  # see bases._product_read
    params = {"nvars": nvars, "degree": degree}
    index = _canonical_index(nvars, degree)
    direct = _counted_table(index, False)
    pp, pp_omega, mh = _sum_tables(nvars, index)
    if direct != pp:
        return _report("kernel", params, "product expansion differs from the weighted p-p sum")
    if direct != mh:
        return _report("kernel", params, "product expansion differs from the m-h sum")
    del direct, pp, mh  # the inverse table is counted with only the omega-signed sum alive
    if _counted_table(index, True) != pp_omega:
        return _report("kernel", params, "inverse product differs from the omega-signed p-p sum")
    return _report("kernel", params, None)


def reproducing_check(nvars: int, max_degree: int) -> dict:
    """Pairing the kernel against m_L in the x-alphabet returns m_L(y, f).

    kernel_check establishes K = sum z_O^(-1) (arrowed p_O)(x) p_O(y); in
    the slot convention the x-part of each summand is already the arrowed
    left argument, so pairing with m_L contracts <arrowed p_O, m_L> =
    z_O * (p-coefficient of m_L at O), and the y-side, taken in its own N
    variables, reassembles m_L.  Each m_L is converted to p once.
    """
    _check_size("nvars", nvars, 1)
    _check_size("max_degree", max_degree)
    params = {"nvars": nvars, "max_degree": max_degree}
    for n, m, block in _blocks(max_degree, max_m=nvars):
        for sp in block:
            if sp.length > nvars:
                continue
            in_p = change_basis(BasisExpansion.unit("m", sp), "p")
            pairs = []
            for om in block:
                c = scalar_product(BasisExpansion.unit("p", om), in_p)
                if c:
                    pairs.append((Fraction(c, z_weight(om)), _bases.multiplicative("p", om, nvars)))
            if SuperPolynomial.linear_combination(nvars, pairs) != _bases.monomial(sp, nvars):
                failure = f"kernel pairing with m_{sp} does not reproduce it"
                return _report("kernel-reproducing", params, failure)
    return _report("kernel-reproducing", params, None)
