"""The polynomial-engine oracle: expansions over monomials and identity checks.

A symmetric homogeneous polynomial is expanded over monomials by reading off
the coefficients of the defining monomials t_1..t_m x^L; the block matrices
built that way are what the power-sum pivot of transform is tested against.
The triangularity of the elementary basis is checked exactly, and so are the
generator recursions and determinantal formulas, in the quotient of their
reads, each generator built only at its keys there.  The public names are
listed in transform.__all__ and also read as transform.<name>.
"""

from __future__ import annotations

import math
from functools import cache

from .superpartition import SuperPartition, _blocks, _check_size, _report, bruhat_leq
from .superpoly import SuperPolynomial, _FIELD_MASK, _sector_sign
from . import bases as _bases
from .bases import _product_read
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


@cache
def _monomial_polys(n: int, m: int, nvars: int) -> tuple[tuple[SuperPartition, int, SuperPolynomial], ...]:
    """(label, canonical key, m_label) over the read set of (n|m) at nvars."""
    labels, keys = _bases._canonical_reads(n, m, nvars)
    return tuple((sp, key, _bases.monomial(sp, nvars)) for sp, key in zip(labels, keys))


def _within(c, terms: dict, have: dict) -> bool:
    """Whether every term of c times one block of terms is in `have`."""
    if c == 1:
        return terms.items() <= have.items()
    return all(have.get(k) == c * v for k, v in terms.items())


def expand_in_monomials(f: SuperPolynomial, bidegree: tuple[int, int] | None = None) -> BasisExpansion:
    """Expand a symmetric homogeneous polynomial over the monomial basis.

    Coefficients are read off the defining monomials.  Distinct m_L have
    disjoint supports, so f is their combination exactly when each c_L m_L
    read with c_L != 0 lies within f and f has no other term; a
    non-symmetric polynomial (or one outside the span at this number of
    variables) raises.  No combination is built.
    """
    if not isinstance(f, SuperPolynomial):
        raise TypeError(f"expected a SuperPolynomial, got {type(f)!r}")
    if bidegree is None:
        bidegree = _infer_bidegree(f)
    elif not isinstance(bidegree, (tuple, list)) or len(bidegree) != 2:
        raise ValueError(f"bidegree must be a pair (n, m), got {bidegree!r}")
    n, m = bidegree
    _check_size("bidegree n", n)
    _check_size("bidegree m", m)
    coeffs, covered = {}, 0  # the labels read, and how many terms of f they cover
    canonical = f.blocks.get((1 << m) - 1, {})  # the block of t_1..t_m
    for sp, key, poly in _monomial_polys(n, m, f.nvars):
        c = canonical.get(key, 0)
        if c:
            if not all(_within(c, terms, f.blocks.get(mask, {})) for mask, terms in poly.blocks.items()):
                break
            coeffs[sp] = c
            covered += poly.num_terms()
    else:
        if covered == f.num_terms():
            return BasisExpansion("m", n, m, coeffs)
    raise ValueError(
        "polynomial is not symmetric (or not in the monomial span at "
        f"{f.nvars} variables)"
    )


# -- the engine oracle for basis changes --------------------------------------------


# call-local, no cache: triangularity reads each matrix once; no workload calls it
def _block_matrix(basis: str, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Column j holds the monomial coordinates of the j-th basis element,
    read by the polynomial engine: the slow reference for change_basis and
    for triangularity.  One walk over the block (bases._path_reads) reads
    each element at every label's canonical term, stable once N covers the
    longest label, n + m - m(m-1)/2 parts: the read set there is the whole
    block.  Inputs are symmetric by construction, so reads alone are exact."""
    nvars = n + m - m * (m - 1) // 2
    block, keys = _bases._canonical_reads(n, m, nvars)
    columns = dict(_bases._path_reads(basis, [(sp, keys) for sp in block], nvars))
    return tuple(zip(*(columns[sp] for sp in block)))


# -- identities in generator terms and their images under omega ----------------------
#
# A generator term (weight, family, index) stands for weight * X_index, X one
# of the six families e, te, h, th, p, tp.  Each identity below is stated
# once in such terms.  Its image under the e-h involution, a ring
# automorphism, is the same statement with _omega mapped over the terms.

_SWAP = {"e": "h", "h": "e", "te": "th", "th": "te"}
_ZERO = (0, "e", 0)


def _quotient(blocks, nvars: int) -> tuple[int, set[int], int]:
    """The quotient that the reads of the blocks (n, m) at nvars see, as
    (ell, D, mask): ell the length of their longest label, D the packed keys
    dividing some canonical key (bases._read_divisors), mask the sectors of
    t_1..t_m for their largest m.  Terms on a sector outside the mask or a
    key outside D span an ideal (masks only grow, and a multiple of a
    non-divisor is one), and x_j, t_j for j > ell reach no read, so every
    read of a product or sum is the same in the quotient."""
    ell, keys, mask = 0, [], 0
    for n, m in blocks:
        labels, block_keys = _bases._canonical_reads(n, m, nvars)
        ell = max([ell] + [sp.length for sp in labels])
        keys += block_keys
        mask |= (1 << m) - 1
    return ell, _bases._read_divisors(keys), mask


def _restricted(f: SuperPolynomial, quotient, nvars: int) -> SuperPolynomial:
    """The image of f in the quotient, in nvars variables."""
    _, divisors, mask = quotient
    return SuperPolynomial(nvars, {
        mb: {k: c for k, c in terms.items() if k in divisors}
        for mb, terms in f.blocks.items() if not mb & ~mask
    })


def _generators(quotient, nvars: int):
    """The map from a generator term (w, family, k) to the pair (w, X_k in
    the quotient): weights stay scalars, so no generator is scaled.  X_k is
    built on its first read, for the map alone, by bases._generator at D's
    keys of degree k on ell variables, then put in the quotient (_restricted)."""
    ell, divisors, _ = quotient
    offsets, by_degree = SuperPolynomial.zero(ell)._field_offsets(), {}
    for key in divisors:
        by_degree.setdefault(SuperPolynomial._key_degree(key, offsets), []).append(key)
    build = cache(lambda fam, k: _restricted(_bases._generator(fam, k, ell, by_degree.get(k, ())), quotient, nvars))
    return lambda term: (term[0], build(term[1], term[2]))


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


def _vanishes(summands, n: int, m: int, nvars: int) -> bool:
    """Whether sum w f g over the summands (w, f, g), symmetric of bidegree
    (n|m) in nvars variables, is zero: read by _product_read (exact while
    n < 2^15) at the canonical terms of bases._canonical_reads, which is
    complete, as under the exchanges (x_i, t_i) <-> (x_j, t_j) each term is
    a signed copy of a canonical one (equal theta-carrying exponents cancel)."""
    return not any(_product_read(summands, (1 << m) - 1, _bases._canonical_reads(n, m, nvars)[1]))


def verify_recursions(n_max: int) -> dict:
    """Check the six generator recursions exactly at N = n_max + 2.

    Stated, bosonic for n >= 1 and mixed for n >= 0 (p_0 = 0):
      sum_r (-1)^r e_r h_{n-r} = 0
      n h_n = sum_{r>=1} p_r h_{n-r}
      sum_r (-1)^r (e_r th_{n-r} - te_r h_{n-r}) = 0
      (n+1) th_n = sum_r [p_r th_{n-r} + (r+1) tp_r h_{n-r}]
    and the omega images of the second and the fourth, "n e_n from p" and
    "(n+1) te_n" (the first and the third are their own images up to sign).
    Each identity is read as one sum (_vanishes), its target times -e_0 = -1,
    its generators in the quotient of every block read (_quotient).
    """
    _check_size("n_max", n_max, 1, _FIELD_MASK >> 1)  # _product_read is exact below 2^15
    nv = n_max + 2
    params = {"n_max": n_max, "nvars": nv}
    gen = _generators(_quotient([(n, m) for n in range(n_max + 1) for m in (0, 1)], nv), nv)
    for n in range(n_max + 1):
        for names, first_n, products, target in _RECURSIONS:
            if n < first_n:
                continue
            pairs = [pair for r in range(n + 1) for pair in products(n, r)] + [(target(n), (-1, "e", 0))]
            m = sum(fam[0] == "t" for _, fam, _ in pairs[0])  # one fermion per tilde family
            for name, to in zip(names, _STATED_AND_IMAGE):
                terms = ((gen(to(left)), gen(to(right))) for left, right in pairs)
                if not _vanishes([(w * w2, f, g) for (w, f), (w2, g) in terms], n, m, nv):
                    return _report("recursions", params, f"n={n}: {name} fails at N={nv}")
    return _report("recursions", params, None)


# -- determinantal formulas ---------------------------------------------------------


def _hessenberg_summands(size, row1, entry, subdiag, quotient, nvars) -> list:
    """An upper-Hessenberg determinant as the summands (c, a_{i,size},
    minor_{i-1}) of sum c a minor, left unmultiplied, each minor kept in
    the quotient (_restricted) as it is built.

    Each entry is a pair (w, polynomial) standing for w times it.  row1[j-1]
    is the (1,j) entry (the only possibly anticommuting ones); entry(i, j)
    gives rows i >= 2 on and above the diagonal; subdiag(l) is the scalar
    (l+1, l) entry.  Leading-minor recursion: each term of the
    expansion uses exactly one first-row entry, everything else commutes.
    """
    minors = [SuperPolynomial.one(nvars)]
    for k in range(1, size + 1):
        summands, sdp = [], 1
        for i in range(k, 0, -1):
            w, a_ik = row1[k - 1] if i == 1 else entry(i, k)
            summands.append((w * sdp if (k - i) % 2 == 0 else -w * sdp, a_ik, minors[i - 1]))
            if i > 1:
                sdp *= subdiag(i - 1)
        if k < size:
            minor = SuperPolynomial.linear_combination(nvars, [(c, a * b) for c, a, b in summands])
            minors.append(_restricted(minor, quotient, nvars))
    return summands


# the smallest n of each kind; the fermionic kinds start at 0 with n + 1 rows
_FIRST_N = {"e_in_h": 1, "etilde_in_h": 0, "p_in_e": 1, "ptilde_in_e": 0, "e_in_p": 1, "etilde_in_p": 0}
DETERMINANT_KINDS = tuple(_FIRST_N)


def _determinant_cases(which: str, n: int) -> list[tuple]:
    """The primal determinant of one kind and its omega image, each as
    (name, size, first row, entry(i, j), subdiag(l), target) in generator
    terms (w, family, k).

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
    entry = lambda i, j: (weight(i, j), band, j - i + 1)
    return [
        (name, size, [to(row1(j)) for j in range(1, size + 1)],
         lambda i, j, to=to: to(entry(i, j)), subdiag, to(target))
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
    The generators and every minor are kept in the quotient of the block's
    reads (_quotient); the last level of the minor recursion is only read
    (_vanishes).
    """
    if which not in DETERMINANT_KINDS:
        raise ValueError(f"which must be one of {DETERMINANT_KINDS}, got {which!r}")
    _check_size("n", n, _FIRST_N[which], _FIELD_MASK >> 1)  # _product_read is exact below 2^15
    nv = nvars if nvars is not None else n + 2
    _check_size("nvars", nv, 1)  # with no variable, no label is read
    check, params = f"determinant-{which}", {"n": n, "nvars": nv}
    m = int("tilde" in which)  # the tilde kinds have one fermion
    quotient = _quotient([(n, m)], nv)
    gen = _generators(quotient, nv)
    for name, size, row1, entry, subdiag, target in _determinant_cases(which, n):
        w, target = gen(target)
        last = _hessenberg_summands(
            size, [gen(t) for t in row1], lambda i, j: gen(entry(i, j)), subdiag, quotient, nv
        )
        if not _vanishes(last + [(-w, target, SuperPolynomial.one(nv))], n, m, nv):
            return _report(check, params, f"{which} {name} determinant differs at n={n}, N={nv}")
    return _report(check, params, None)


# -- triangularity of the elementary family ------------------------------------------


def triangularity(n_max: int) -> dict:
    """Leading-term structure of the arrowed elementary and the power-sum
    bases over monomials, per block.

    For every block (n|m), n <= n_max: the expansion of the arrowed e over
    monomials has integer coefficients, coefficient 1 on the conjugate
    label, and support strictly below the conjugate in the Bruhat-style
    order, so the e matrix is unimodular; p_L has a positive coefficient on
    m_L and support above L, so the p matrix is invertible.  The report
    carries an informational flag for whether all observed e coefficients
    were nonnegative (not asserted anywhere).
    """
    _check_size("n_max", n_max)
    nonneg = True

    def report(failure):
        return _report("triangularity", {"n_max": n_max}, failure, nonneg_surmise_holds=nonneg)

    for n, m, block in _blocks(n_max):
        arrow_sign, mat = _sector_sign(m), _block_matrix("e", n, m)
        for j, sp in enumerate(block):
            conj = sp.conjugate()
            for cand, row in zip(block, mat):
                cc = row[j] * arrow_sign
                if cc.denominator != 1:
                    return report(f"e_{sp}: non-integer coefficient {cc} on {cand}")
                if cc < 0:
                    nonneg = False
                if cand == conj:
                    if cc != 1:
                        return report(f"e_{sp}: coefficient on {conj} is {cc}, not 1")
                elif cc and not bruhat_leq(cand, conj):
                    return report(f"e_{sp}: support {cand} not strictly below {conj}")
        mat = _block_matrix("p", n, m)
        for j, sp in enumerate(block):
            for cand, row in zip(block, mat):
                if cand == sp:
                    if row[j] <= 0:
                        return report(f"p_{sp}: coefficient on {sp} is {row[j]}, not positive")
                elif row[j] and not bruhat_leq(sp, cand):
                    return report(f"p_{sp}: support {cand} not above {sp}")
    return report(None)
