"""The polynomial-engine oracle: expansions over monomials and identity checks.

A symmetric homogeneous polynomial is expanded over monomials by reading off
the coefficients of the defining monomials t_1..t_m x^L; the block matrices
built that way are what the power-sum pivot of transform is tested against.
The generator recursions, the determinantal formulas and the triangularity
of the elementary basis are checked exactly.  The public names are listed
in transform.__all__ and also read as transform.<name>.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .superpartition import SuperPartition, _blocks, _report, bruhat_leq, enumerate_superpartitions
from .superpoly import SuperPolynomial, _sector_sign
from . import bases as _bases
from .bases import _canonical_key
from .transform import BasisExpansion, omega_sign


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


# -- identities in generator terms and their images under omega ----------------------
#
# A generator term (weight, family, index) stands for weight * X_index, X one
# of the six families e, te, h, th, p, tp.  Each identity below is stated
# once in such terms.  Its image under the e-h involution, a ring
# automorphism, is the same statement with _omega mapped over the terms.

_SWAP = {"e": "h", "h": "e", "te": "th", "th": "te"}
_ZERO = (0, "e", 0)


def _generators(top: int, nvars: int):
    """The map from a generator term of index <= top to its polynomial;
    weight 1 gives the cached generator itself.  The bases constructors are
    looked up at call time (tests and tracers replace them)."""
    gens = {
        fam: [gen(k, nvars) for k in range(top + 1)]
        for fam, gen in (
            ("e", _bases.elementary), ("te", _bases.elementary_tilde),
            ("h", _bases.complete), ("th", _bases.complete_tilde),
            ("p", _bases.powersum), ("tp", _bases.powersum_tilde),
        )
    }

    def poly(term):
        w, fam, k = term
        return gens[fam][k] if w == 1 else gens[fam][k].scale(w)

    return poly


def _omega(term):
    """omega(w X_k): e <-> h and te <-> th swap; p_k and tp_k keep their
    family and take the power-sum eigenvalue omega_sign of (;k) or (k;)."""
    w, fam, k = term
    if fam in _SWAP:
        return w, _SWAP[fam], k
    label = SuperPartition((k,)) if fam == "tp" else SuperPartition((), (k,))
    return w * omega_sign(label), fam, k


# an identity as stated, then its image
_STATED_AND_IMAGE = (lambda term: term, _omega)


# -- recursion identities ---------------------------------------------------------

# (names of the identity and of its omega image, first n, the products of
# two terms summed over r = 0..n, the target at n)
_RECURSIONS = (
    (("alternating e-h convolution",), 1,
     lambda n, r: [(((-1) ** r, "e", r), (1, "h", n - r))], lambda n: _ZERO),
    (("n h_n from p convolution", "n e_n from p convolution"), 1,
     lambda n, r: [((1, "p", r), (1, "h", n - r))], lambda n: (n, "h", n)),
    (("alternating mixed e-h convolution",), 0,
     lambda n, r: [(((-1) ** r, "e", r), (1, "th", n - r)),
                   ((-(-1) ** r, "te", r), (1, "h", n - r))],
     lambda n: _ZERO),
    (("(n+1) th_n convolution", "(n+1) te_n convolution"), 0,
     lambda n, r: [((1, "p", r), (1, "th", n - r)), ((r + 1, "tp", r), (1, "h", n - r))],
     lambda n: (n + 1, "th", n)),
)


def verify_recursions(n_max: int) -> dict:
    """Check the six generator recursions exactly at N = n_max + 2.

    Stated, bosonic for n >= 1 and mixed for n >= 0 (p_0 = 0):
      sum_r (-1)^r e_r h_{n-r} = 0
      n h_n = sum_{r>=1} p_r h_{n-r}
      sum_r (-1)^r (e_r th_{n-r} - te_r h_{n-r}) = 0
      (n+1) th_n = sum_r [p_r th_{n-r} + (r+1) tp_r h_{n-r}]
    and the omega images of the second and the fourth, "n e_n from p" and
    "(n+1) te_n" (the first and the third are their own images up to sign).
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    nv = n_max + 2
    params = {"n_max": n_max, "nvars": nv}
    poly = _generators(n_max, nv)
    for n in range(n_max + 1):
        for names, first_n, products, target in _RECURSIONS:
            if n < first_n:
                continue
            for name, to in zip(names, _STATED_AND_IMAGE):
                acc = poly(_ZERO)
                for r in range(n + 1):
                    for left, right in products(n, r):
                        acc = acc + poly(to(left)) * poly(to(right))
                if acc != poly(to(target(n))):
                    return _report("recursions", params, f"n={n}: {name} fails at N={nv}")
    return _report("recursions", params, None)


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


# the smallest n of each kind; the fermionic kinds start at 0 with n + 1 rows
_FIRST_N = {"e_in_h": 1, "etilde_in_h": 0, "p_in_e": 1, "ptilde_in_e": 0, "e_in_p": 1, "etilde_in_p": 0}
DETERMINANT_KINDS = tuple(_FIRST_N)


def _determinant_cases(which: str, n: int, nvars: int) -> list[tuple]:
    """The primal determinant of one kind and its omega image, each as
    (name, size, first row, entry(i, j), subdiag(l), target) over polynomials.

    The primal is stated in generator terms: the first-row term at column j,
    the band family and its weight at (i, j), the subdiagonal and the target.
    """
    f, one = math.factorial(n), lambda *_: 1
    row1, band, weight, subdiag, target = {
        "e_in_h": (lambda j: (1, "h", j), "h", one, one, (1, "e", n)),
        "etilde_in_h": (lambda j: (1, "th", j - 1), "h", lambda i, j: n + j - 2 * i + 3,
                        lambda l: n - l + 1, (f, "te", n)),
        "p_in_e": (lambda j: (j, "e", j), "e", one, one, (1, "p", n)),
        "ptilde_in_e": (lambda j: (1, "te", j - 1), "e", one, one, (1, "tp", n)),
        "e_in_p": (lambda j: (1, "p", j), "p", one, lambda l: l, (f, "e", n)),
        "etilde_in_p": (lambda j: (1, "tp", j - 1), "p", one, lambda l: n - l + 1, (f, "te", n)),
    }[which]
    size = n + 1 - _FIRST_N[which]
    poly = _generators(size, nvars)
    entry = lambda i, j: (weight(i, j), band, j - i + 1)
    return [
        (name, size, [poly(to(row1(j))) for j in range(1, size + 1)],
         lambda i, j, to=to: poly(to(entry(i, j))), subdiag, poly(to(target)))
        for name, to in zip(("primal", "image"), _STATED_AND_IMAGE)
    ]


def determinant_formulas(n: int, which: str, nvars: int | None = None) -> dict:
    """Check one determinantal identity and its image under omega, exactly.

    kinds (the primal determinant; _determinant_cases generates the image):
      e_in_h:      e_n = det(h band)
      etilde_in_h: n! te_n = det(th, h band)
      p_in_e:      p_n = det(j e_j row)
      ptilde_in_e: tp_n = det(te, e band)
      e_in_p:      n! e_n = det(p band)
      etilde_in_p: n! te_n = det(tp, p band)
    """
    if which not in DETERMINANT_KINDS:
        raise ValueError(f"which must be one of {DETERMINANT_KINDS}, got {which!r}")
    if n < _FIRST_N[which]:
        raise ValueError(f"{which} needs n >= {_FIRST_N[which]}, got {n}")
    nv = nvars if nvars is not None else n + 2
    check, params = f"determinant-{which}", {"n": n, "nvars": nv}
    for name, size, row1, entry, subdiag, want in _determinant_cases(which, n, nv):
        if _hessenberg_det(size, row1, entry, subdiag, nv) != want:
            return _report(check, params, f"{which} {name} determinant differs at n={n}, N={nv}")
    return _report(check, params, None)


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
    nonneg = True

    def report(failure):
        return _report("triangularity", {"n_max": n_max}, failure, nonneg_surmise_holds=nonneg)

    for n, m, block in _blocks(n_max):
        arrow_sign = _sector_sign(m)
        for sp in block:
            conj = sp.conjugate()
            for cand, c in _basis_in_monomials("e", sp):
                cc = c * arrow_sign
                if cc.denominator != 1:
                    return report(f"e_{sp}: non-integer coefficient {cc} on {cand}")
                if cc < 0:
                    nonneg = False
                if cand == conj:
                    if cc != 1:
                        return report(f"e_{sp}: coefficient on {conj} is {cc}, not 1")
                elif not (bruhat_leq(cand, conj) and cand != conj):
                    return report(f"e_{sp}: support {cand} not strictly below {conj}")
        if _det_fraction(_block_matrix("e", n, m)) not in (1, -1):
            return report(f"e matrix on block ({n}|{m}) is not unimodular")
        if _det_fraction(_block_matrix("p", n, m)) == 0:
            return report(f"p matrix on block ({n}|{m}) is singular")
    return report(None)
