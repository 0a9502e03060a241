"""Dual bases and Cauchy kernels, checked against the polynomial engine.

The scalar product and the e-h involution are diagonal on power sums and
live in transform with the rest of the pivot; they are re-exported here.
The pairing convention: the left slot carries the sector sign
(-1)^(m(m-1)/2) (reversed theta order) and the right slot is plain, which
makes <p_L, p_O> = z_L delta exactly as displayed everywhere below.
The kernel's product side, h and e over m counted as signed matrices
(_peel), lives here too: only the kernel check runs it, comparing every
side in one frame, on coefficients read from one index (_canonical_index).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from .superpartition import SuperPartition, _blocks, _check_size, _report, enumerate_superpartitions
from .superpoly import SuperPolynomial, _FIELD_MASK, _sort_sign
from .transform import (  # noqa: F401  (change_basis is re-exported)
    BasisExpansion,
    _ratio,
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
            if scalar_product(ua, unit(v, b)) != int(a == b):
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


# -- the matrix-counting peel ----------------------------------------------------


def _margins(la: SuperPartition) -> tuple:
    """The prefix sums of L's sorted parts and of their conjugate."""
    parts = la.star()
    conj = (sum(min(v, k) for v in parts) for k in range(1, max(parts, default=0) + 1))
    return tuple(itertools.accumulate(parts)), tuple(conj)


def _gale_ryser(la: tuple, om: tuple) -> bool:
    """Whether a 0/1 matrix has row sums L and column sums O (equal totals), by
    Gale-Ryser: iff O's sorted parts are dominated by L's conjugate (_margins)."""
    return all(a <= b for a, b in zip(om[0], la[1]))


def _peel(which: str, blocks) -> dict:
    """[m_O] u_L (u = h or e) at [n, m][i][j], L, O = labels[i], labels[j], for
    each (n, m, labels, ...) in blocks: signed counts of matrices with row sums
    L and column sums O, fermionic parts first, entries in N (h) or {0, 1} (e),
    so an e pair that no 0/1 matrix fits (_gale_ryser) is 0 uncounted.
    Fermionic row i picks fermionic column sigma(i) at the sign sgn(sigma);
    for h the picked cell weighs its entry plus one, for e it must be empty.
    Rows are peeled off one at a time, fermionic ones first, memoised on the
    rows and column sums left (for every block of the call at once); bosonic
    columns permute freely, so their sums are kept sorted.
    """

    @cache
    def takes(total: int, bounds: tuple) -> tuple:
        # the compositions of total bounded entrywise by bounds (and 1 for e)
        if not bounds:
            return () if total else ((),)
        top = min(total, bounds[0], 1 if which == "e" else total)
        return tuple((v, *rest) for v in range(top + 1) for rest in takes(total - v, bounds[1:]))

    @cache
    def bosonic(total: int, sums: tuple) -> tuple:
        # (sums left, ways) over the rows that take total from the bosonic sums
        ways: dict = {}
        for row in takes(total, sums):
            left = tuple(sorted((c - v for c, v in zip(sums, row) if c > v), reverse=True))
            ways[left] = ways.get(left, 0) + 1
        return tuple(ways.items())

    @cache
    def count(rows: tuple, fer: tuple, bos: tuple) -> int:
        # rows are (value, picked column or None); the last is peeled first
        if not rows:
            return 1
        (value, j), total = rows[-1], 0
        for part in range(min(value, sum(fer)) + 1):
            spread = bosonic(value - part, bos)
            for row in takes(part, fer) if spread else ():
                w = 1 if j is None else row[j] + 1 if which == "h" else int(not row[j])
                if w:
                    left = tuple(c - v for c, v in zip(fer, row))
                    total += w * sum(ways * count(rows[:-1], left, rest) for rest, ways in spread)
        return total

    table = {}
    for n, m, labels, *_ in blocks:
        perms = list(itertools.permutations(range(m)))
        signs = [_sort_sign(sigma) for sigma in perms]
        margins = [_margins(la) for la in labels] if which == "e" else None
        out = table[n, m] = [[0] * len(labels) for _ in labels]
        for i, la in enumerate(labels):
            rows = [tuple((v, None) for v in la.s) + tuple(zip(la.a, sigma)) for sigma in perms]
            for j, om in enumerate(labels[i:], i):  # transposing swaps L and O and inverts sigma
                if margins is None or _gale_ryser(margins[i], margins[j]):
                    out[i][j] = out[j][i] = sum(sign * count(r, om.a, om.s) for sign, r in zip(signs, rows))
    return table


# -- Cauchy kernels over a doubled alphabet --------------------------------------
#
# x_i, t_i are variables 1..N and y_j, f_j are variables N+1..2N.  Both sides
# of each identity are compared on canonical coefficients only, one dense table
# per block (n|k): T[n, k][i][j], for L, O its labels i, j in _canonical_index,
# is the coefficient of t_1..t_k x^L f_1..f_k y^O, where x^L puts the fermionic
# parts of L on x_1..x_k and its symmetric parts on x_{k+1}.. (likewise y^O),
# divided by sector(k) = (-1)^(k(k-1)/2), the sign of moving the x thetas
# ahead of the y thetas, which every entry of every side of block (n|k) shares.


def _canonical_index(nvars: int, degree: int):
    """Blocks (n|k) with n <= degree and k <= nvars, each as (n, k, labels,
    keys, block): the read set of bases._canonical_reads at nvars (its
    labels and the keys of their canonical terms) and the whole block."""
    return tuple((n, k, *_bases._canonical_reads(n, k, nvars), block) for n, k, block in _blocks(degree, max_m=nvars))


def _sum_tables(nvars: int, index):
    """The three sum sides on the index, in _peel's frame: (pp, pp_omega, mh).

    pp[n, k][i][j] = sum_G z_G^(-1) [L]p_G [O]p_G over the G of the block
    (n|k), L and O its labels i and j, and pp_omega weights each G by
    omega_sign(G) as well.  One walk (bases._path_reads) reads each p_G once;
    the G of either omega sign accumulate apart over i <= j, as integers over
    the lcm of the block's z_G, and after its last G the two sums are their
    sum and difference, mirrored.  [L]m_G = delta_(L, G) as monomial()
    normalises it, so mh[n, k][i] is the row that a second walk reads of h_L.
    """
    pp, pp_omega, weights, sums = {}, {}, {}, {}
    for n, k, labels, _, block in index:
        zs = [z_weight(g) for g in block]
        scale = math.lcm(*zs)
        weights.update((g, (scale // z, 2 if omega_sign(g) > 0 else 3)) for g, z in zip(block, zs))
        # [lcm of z_G, G left to read, sum over omega sign +1 (at 2), over -1 (at 3)]
        sums[n, k] = [scale, len(block), *([[0] * len(labels) for _ in labels] for _ in range(2))]
    requests = [(g, keys) for _, _, _, keys, block in index for g in block]
    for g, row in _bases._path_reads("p", requests, nvars):
        (w, side), acc = weights[g], sums[g.bidegree]
        ps = [(i, a) for i, a in enumerate(row) if a]
        for x, (i, a) in enumerate(ps):
            line, wa = acc[side][i], w * a
            for j, b in ps[x:]:
                line[j] += wa * b
        acc[1] -= 1
        if acc[1]:
            continue
        scale, _, even, odd = sums.pop(g.bidegree)
        for table, sign in ((pp, 1), (pp_omega, -1)):
            t = table[g.bidegree] = [[0] * len(even) for _ in even]
            for i, (e, o) in enumerate(zip(even, odd)):
                for j in range(i, len(e)):
                    t[i][j] = t[j][i] = _ratio(e[j] + sign * o[j], scale)
    mh = {(n, k): [None] * len(labels) for n, k, labels, _, _ in index}
    at = {la: i for _, _, labels, _, _ in index for i, la in enumerate(labels)}
    for la, row in _bases._path_reads("h", [(la, keys) for _, _, ls, keys, _ in index for la in ls], nvars):
        mh[la.bidegree][at[la]] = row
    return pp, pp_omega, mh


def kernel_check(nvars: int, degree: int) -> dict:
    """Verify the Cauchy kernel and its inverse over doubled alphabets.

    The product expansion of prod (1 - x_i y_j - t_i f_j)^(-1), truncated at
    total x-degree <= degree, must equal both the z-weighted sum of arrowed
    p times p and the sum of arrowed m times h; the product of
    (1 + x_i y_j + t_i f_j) must equal the omega-signed p-times-p sum.

    Every side is compared on its canonical coefficients (see
    _canonical_index), each divided by the sector(k) that all of them share,
    and completely: each side is symmetric in either alphabet (see
    engine_checks._vanishes), and as both alphabets carry equal degree and
    fermion number, only pairs from one block (n|k) can be nonzero.  So
    divided, the products are [m_O] h_L and [m_O] e_L (_peel).
    """
    _check_size("nvars", nvars, 1)
    _check_size("degree", degree, 0, _FIELD_MASK >> 1)  # see bases._product_read
    params = {"nvars": nvars, "degree": degree}
    index = _canonical_index(nvars, degree)
    direct = _peel("h", index)
    pp, pp_omega, mh = _sum_tables(nvars, index)
    if direct != pp:
        return _report("kernel", params, "product expansion differs from the weighted p-p sum")
    if direct != mh:
        return _report("kernel", params, "product expansion differs from the m-h sum")
    del direct, pp, mh  # the inverse table is counted with only the omega-signed sum alive
    if _peel("e", index) != pp_omega:
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
    for _, _, labels, _, block in _canonical_index(nvars, max_degree):
        for sp in labels:
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
