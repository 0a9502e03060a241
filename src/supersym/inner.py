"""Scalar product, the e-h involution, dual bases, and Cauchy kernels.

The bilinear form is diagonal on power sums: the left slot carries the
sector sign (-1)^(m(m-1)/2) (reversed theta order) and the right slot is
plain, which makes <p_L, p_O> = z_L delta exactly as displayed everywhere
below.  scalar_product works on that convention; pass raw=True to pair two
plain polynomials literally (one extra sector sign).
"""

from __future__ import annotations

from fractions import Fraction

from .superpartition import SuperPartition, enumerate_superpartitions
from .superpoly import SuperPolynomial
from .transform import (
    BasisExpansion,
    change_basis,
    eh_in_p,
    expand_in_monomials,
    omega_sign,
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
    "kernel_check",
    "reproducing_check",
]


def _sector_sign(m: int) -> int:
    return -1 if (m * (m - 1) // 2) % 2 else 1


def _as_p_expansion(f) -> BasisExpansion:
    if isinstance(f, SuperPolynomial):
        f = expand_in_monomials(f)
    if not isinstance(f, BasisExpansion):
        raise TypeError(f"expected BasisExpansion or SuperPolynomial, got {type(f)!r}")
    return change_basis(f, "p")


def scalar_product(f, g, raw: bool = False) -> Fraction:
    """Bilinear form with <p_L, p_O> = z_L delta (left slot arrowed).

    f and g may be BasisExpansions or symmetric SuperPolynomials; different
    bidegrees pair to 0.  With raw=True both arguments are read as literal
    plain polynomials, which costs one sector sign (-1)^(m(m-1)/2) relative
    to the slot convention.
    """
    fp = _as_p_expansion(f)
    gp = _as_p_expansion(g)
    if (fp.n, fp.m) != (gp.n, gp.m):
        return Fraction(0)
    total = Fraction(0)
    for sp, c in fp.coeffs.items():
        d = gp.get(sp)
        if d:
            total += z_weight(sp) * c * d
    return _sector_sign(fp.m) * total if raw else total


def omega(x: BasisExpansion) -> BasisExpansion:
    """The involution fixing monomial-degree data: e_L <-> h_L, and on power
    sums p_L -> omega_sign(L) p_L.  Returned in the input basis."""
    p = change_basis(x, "p")
    flipped = BasisExpansion(
        "p", p.n, p.m, {sp: omega_sign(sp) * c for sp, c in p.coeffs.items()}
    )
    return change_basis(flipped, x.basis)


_DUAL_BASES = ("m", "e", "h", "p", "p/z")


def dual_bases_check(n: int, m: int, u: str, v: str) -> bool:
    """True iff the Gram matrix <u_L, v_O> on block (n|m) is the identity."""
    for name in (u, v):
        if name not in _DUAL_BASES:
            raise ValueError(f"basis must be one of {_DUAL_BASES}, got {name!r}")

    def unit(name: str, sp: SuperPartition) -> BasisExpansion:
        if name == "p/z":
            return BasisExpansion.unit("p", sp).scale(Fraction(1, z_weight(sp)))
        return BasisExpansion.unit(name, sp)

    block = enumerate_superpartitions(n, m)
    for a in block:
        ua = unit(u, a)
        for b in block:
            want = Fraction(1) if a == b else Fraction(0)
            if scalar_product(ua, unit(v, b)) != want:
                return False
    return True


# -- Cauchy kernels over a doubled alphabet --------------------------------------


def _kernel_product(nvars: int, degree: int, inverse: bool) -> SuperPolynomial:
    """Expand prod_{i,j} (1 - x_i y_j - t_i f_j)^(-1) (or the product of
    (1 + x_i y_j + t_i f_j) when inverse) to total x-degree <= degree.

    The second alphabet sits at variables N+1..2N.  Each factor splits as
    b * (1 + psi b) with b the bosonic geometric series and psi the theta
    pair, so the product is (all-bosonic part) times (fermionic corrections),
    each built with degree-truncated multiplies.
    """
    big = 2 * nvars
    xvars = tuple(range(1, nvars + 1))
    bos = SuperPolynomial.one(big)
    fer = SuperPolynomial.one(big)
    for i in range(1, nvars + 1):
        for j in range(nvars + 1, big + 1):
            cell_b = SuperPolynomial.zero(big)
            cell_f = SuperPolynomial.one(big)
            top = 1 if inverse else degree
            for k in range(top + 1):
                cell_b = cell_b + SuperPolynomial.term(big, 1, {i: k, j: k})
            for k in range(degree + 1):
                sign = (-1) ** k if inverse else 1
                cell_f = cell_f + SuperPolynomial.term(
                    big, sign, {i: k, j: k}, thetas=(i, j)
                )
            bos = bos.mul_truncated(cell_b, degree, vars=xvars)
            fer = fer.mul_truncated(cell_f, degree, vars=xvars)
    return bos.mul_truncated(fer, degree, vars=xvars)


def _block_range(nvars: int, degree: int):
    for n in range(degree + 1):
        m = 0
        while m * (m - 1) // 2 <= n and m <= nvars:
            yield from enumerate_superpartitions(n, m)
            m += 1


def _kernel_pp_sum(nvars: int, degree: int, with_omega: bool) -> SuperPolynomial:
    """sum over |L| <= degree of z_L^(-1) (arrowed p_L)(x, t) p_L(y, f),
    with an extra omega_sign when with_omega."""
    big = 2 * nvars
    total = SuperPolynomial.zero(big)
    for sp in _block_range(nvars, degree):
        px = _bases.multiplicative("p", sp, nvars).arrow().widen(big)
        if px.is_zero():
            continue
        py = _bases.multiplicative("p", sp, nvars).shift_alphabet(nvars, big)
        w = Fraction(omega_sign(sp) if with_omega else 1, z_weight(sp))
        total = total + (px * py).scale(w)
    return total


def _kernel_mh_sum(nvars: int, degree: int) -> SuperPolynomial:
    """sum over |L| <= degree of (arrowed m_L)(x, t) h_L(y, f)."""
    big = 2 * nvars
    total = SuperPolynomial.zero(big)
    for sp in _block_range(nvars, degree):
        if sp.length > nvars:
            continue
        mx = _bases.monomial(sp, nvars).arrow().widen(big)
        hy = _bases.multiplicative("h", sp, nvars).shift_alphabet(nvars, big)
        total = total + mx * hy
    return total


def kernel_check(nvars: int, degree: int) -> dict:
    """Verify the Cauchy kernel and its inverse over doubled alphabets.

    The product expansion of prod (1 - x_i y_j - t_i f_j)^(-1), truncated at
    total x-degree <= degree, must equal both the z-weighted sum of arrowed
    p times p and the sum of arrowed m times h; the product of
    (1 + x_i y_j + t_i f_j) must equal the omega-signed p-times-p sum.
    """
    if nvars < 1 or degree < 0:
        raise ValueError(f"need nvars >= 1 and degree >= 0, got ({nvars}, {degree})")
    params = {"nvars": nvars, "degree": degree}
    failure = None
    direct = _kernel_product(nvars, degree, inverse=False)
    if direct != _kernel_pp_sum(nvars, degree, with_omega=False):
        failure = "product expansion differs from the weighted p-p sum"
    elif direct != _kernel_mh_sum(nvars, degree):
        failure = "product expansion differs from the m-h sum"
    else:
        del direct
        inverse = _kernel_product(nvars, degree, inverse=True)
        if inverse != _kernel_pp_sum(nvars, degree, with_omega=True):
            failure = "inverse product differs from the omega-signed p-p sum"
    return {"check": "kernel", "params": params, "pass": failure is None, "first_failure": failure}


def reproducing_check(nvars: int, max_degree: int) -> dict:
    """Pairing the kernel against m_L in the x-alphabet returns m_L(y, f).

    kernel_check establishes K = sum z_O^(-1) (arrowed p_O)(x) p_O(y); in
    the slot convention the x-part of each summand is already the arrowed
    left argument, so pairing with m_L contracts <arrowed p_O, m_L> =
    z_O * (p-coefficient of m_L at O), and the y-side reassembles m_L.
    """
    failure = None
    for n in range(max_degree + 1):
        m = 0
        while failure is None and m * (m - 1) // 2 <= n and m <= nvars:
            for sp in enumerate_superpartitions(n, m, max_len=nvars):
                if m > 0 and n >= nvars:
                    continue  # power sums only span the block below nvars
                big = 2 * nvars
                paired = SuperPolynomial.zero(big)
                unit_m = BasisExpansion.unit("m", sp)
                for om in enumerate_superpartitions(n, m):
                    c = scalar_product(BasisExpansion.unit("p", om), unit_m)
                    if c:
                        py = _bases.multiplicative("p", om, nvars).shift_alphabet(nvars, big)
                        paired = paired + py.scale(Fraction(c, z_weight(om)))
                want = _bases.monomial(sp, nvars).shift_alphabet(nvars, big)
                if paired != want:
                    failure = f"kernel pairing with m_{sp} does not reproduce it"
                    break
            m += 1
        if failure:
            break
    return {
        "check": "kernel-reproducing",
        "params": {"nvars": nvars, "max_degree": max_degree},
        "pass": failure is None,
        "first_failure": failure,
    }
