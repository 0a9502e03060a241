"""Sparse exact polynomials in commuting and anticommuting variables.

A SuperPolynomial lives in the ring generated by x1..xN (commuting) and
t1..tN (anticommuting, squaring to zero: t_i t_j = -t_j t_i).  Terms are
stored per theta-support: for each subset of anticommuting variables, a
sparse map from packed exponent vectors to exact coefficients (int, or
Fraction where a true fraction occurs), with the theta letters implicitly in
increasing order.  Stored blocks hold no zero coefficient and no block is
empty, so equal polynomials have equal blocks.  Each exponent has a 16-bit
field; a product that would carry past it raises ValueError.

Variable indices are 1-based throughout the public interface, matching the
rendered names x1, t1.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import or_

from .superpartition import _check_size, _exact

__all__ = ["SuperPolynomial"]

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _sector_sign(m: int) -> int:
    """The arrow sign (-1)^(m(m-1)/2): reversing m anticommuting letters."""
    return -1 if (m * (m - 1) // 2) & 1 else 1


def _sort_sign(seq: tuple[int, ...]) -> int | None:
    """Sign of sorting an anticommuting word; None when a letter repeats."""
    if len(set(seq)) != len(seq):
        return None
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions & 1 else 1


def _merge_sign(ma: int, mb: int) -> int:
    """Sign of concatenating sorted words with supports ma, mb and resorting.

    Counts, for each letter of the right word, the left-word letters that
    must jump over it: bits of ma strictly above each bit of mb.
    """
    sign = 0
    b = mb
    while b:
        low = b & -b
        sign ^= (ma >> low.bit_length()).bit_count() & 1
        b ^= low
    return -1 if sign else 1


class SuperPolynomial:
    """Exact sparse polynomial in x1..xN and t1..tN."""

    __slots__ = ("nvars", "blocks")

    def __init__(self, nvars: int, blocks: dict[int, dict[int, Fraction]] | None = None):
        _check_size("nvars", nvars)
        self.nvars = nvars
        self.blocks = {}
        for mask, terms in (blocks or {}).items():
            # copied, so a caller's later edits cannot reach the stored terms
            if all(terms.values()):
                terms = dict(terms)
            else:
                terms = {k: c for k, c in terms.items() if c}
            if terms:
                self.blocks[mask] = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> SuperPolynomial:
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> SuperPolynomial:
        return cls(nvars, {0: {0: 1}})

    @classmethod
    def term(cls, nvars: int, coeff, powers=None, thetas=()) -> SuperPolynomial:
        """One term: coeff * prod x_i^powers[i] * t_{j1} t_{j2} ...

        `powers` maps 1-based variable index to exponent; `thetas` is a
        sequence of 1-based indices in any order, and the stored coefficient
        picks up the sign of sorting them (zero polynomial on a repeat).
        """
        _check_size("nvars", nvars)
        c = _exact(coeff)
        if not c:
            return cls.zero(nvars)
        thetas = tuple(thetas)
        sign = _sort_sign(thetas)
        if sign is None:
            return cls.zero(nvars)
        key = 0
        for var, exp in (powers or {}).items():
            if not 1 <= var <= nvars:
                raise ValueError(f"variable x{var} outside 1..{nvars}")
            if exp < 0 or exp > _FIELD_MASK:
                raise ValueError(f"exponent {exp} for x{var} out of range")
            if exp:
                key += exp << (_FIELD_BITS * (var - 1))
        mask = 0
        for var in thetas:
            if not 1 <= var <= nvars:
                raise ValueError(f"variable t{var} outside 1..{nvars}")
            mask |= 1 << (var - 1)
        return cls(nvars, {mask: {key: sign * c}})

    @classmethod
    def linear_combination(cls, nvars: int, pairs) -> SuperPolynomial:
        """sum c * f over (c, f) pairs, accumulated in one set of blocks: the
        one loop behind sums, differences, negation and scalar multiples.
        A weight may be any rational; integral ones are applied as int."""
        blocks: dict[int, dict[int, Fraction]] = {}
        for c, f in pairs:
            if f.nvars != nvars:
                raise ValueError(f"mixed rings: {nvars} vs {f.nvars} variables")
            c = _exact(c)
            for mask, terms in f.blocks.items():
                dst = blocks.get(mask)
                if dst is None:  # the first summand on a support is copied in one go
                    blocks[mask] = dict(terms) if c == 1 else {k: c * v for k, v in terms.items()}
                    continue
                for key, v in terms.items():
                    dst[key] = dst.get(key, 0) + c * v
        return cls(nvars, blocks)

    @classmethod
    def x(cls, var: int, nvars: int) -> SuperPolynomial:
        return cls.term(nvars, 1, {var: 1})

    @classmethod
    def theta(cls, var: int, nvars: int) -> SuperPolynomial:
        return cls.term(nvars, 1, thetas=(var,))

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.blocks

    def num_terms(self) -> int:
        return sum(len(t) for t in self.blocks.values())

    def iter_terms(self):
        """Yield (theta_mask, packed_key, coeff); masks and keys are internal
        0-based encodings."""
        for mask, terms in self.blocks.items():
            for key, c in terms.items():
                yield mask, key, c

    def key_exponent(self, key: int, var: int) -> int:
        return (key >> (_FIELD_BITS * (var - 1))) & _FIELD_MASK

    def mask_vars(self, mask: int) -> tuple[int, ...]:
        """1-based theta indices of a block mask, increasing."""
        return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)

    def coefficient(self, powers=None, thetas=()) -> int | Fraction:
        """Coefficient of the monomial with the thetas in the given order."""
        probe = SuperPolynomial.term(self.nvars, 1, powers, thetas)
        if probe.is_zero():
            raise ValueError(f"repeated theta index in {thetas}")
        ((mask, terms),) = probe.blocks.items()
        ((key, sign),) = terms.items()
        return sign * self.blocks.get(mask, {}).get(key, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.blocks == other.blocks

    def __hash__(self):
        raise TypeError("SuperPolynomial is mutable-by-construction; not hashable")

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: SuperPolynomial) -> SuperPolynomial:
        return SuperPolynomial.linear_combination(self.nvars, ((1, self), (1, other)))

    def __neg__(self) -> SuperPolynomial:
        return SuperPolynomial.linear_combination(self.nvars, ((-1, self),))

    def __sub__(self, other: SuperPolynomial) -> SuperPolynomial:
        return SuperPolynomial.linear_combination(self.nvars, ((1, self), (-1, other)))

    def scale(self, c) -> SuperPolynomial:
        return SuperPolynomial.linear_combination(self.nvars, ((c, self),))

    # -- multiplication ---------------------------------------------------------

    def _key_union(self) -> int:
        """Bitwise OR of every exponent key."""
        out = 0
        for terms in self.blocks.values():
            out |= reduce(or_, terms, 0)
        return out

    def _field_maxima(self) -> list[int]:
        return [
            max(((k >> off) & _FIELD_MASK for t in self.blocks.values() for k in t), default=0)
            for off in self._field_offsets()
        ]

    def _check_factor(self, other: SuperPolynomial) -> None:
        """Same ring, and no exponent sum of a product can pass its field.

        One bound per operand and call: when no field of either operand uses
        its top bit every sum fits, and only otherwise are the per-field
        maxima compared.
        """
        if self.nvars != other.nvars:
            raise ValueError(f"mixed rings: {self.nvars} vs {other.nvars} variables")
        top_bits = ((1 << (_FIELD_BITS * self.nvars)) - 1) // _FIELD_MASK << (_FIELD_BITS - 1)
        if not (self._key_union() | other._key_union()) & top_bits:
            return
        for var, (ea, eb) in enumerate(zip(self._field_maxima(), other._field_maxima()), 1):
            if ea + eb > _FIELD_MASK:
                raise ValueError(f"exponent of x{var} in a product would exceed {_FIELD_MASK}")

    def _mul(self, other, allowed=-1, max_degree=None, vars=None) -> SuperPolynomial:
        """The one product loop behind __mul__, mul_restricted and mul_truncated.

        Blocks whose theta mask leaves `allowed` are skipped in both factors
        (masks only grow under multiplication).  Each block's terms are listed
        once, and the shorter block of each pair drives the outer loop; a new
        output block is seeded from its first outer term in one pass.  With a
        degree bound both lists are sorted by degree in `vars`, each term's
        degree computed once, so each outer term reads the inner prefix that
        fits its budget; without one no degree is computed.
        """
        self._check_factor(other)
        if max_degree is not None:
            fields = self._field_offsets(vars)

        def listed(poly):  # (mask, terms, their degrees or None) per allowed block
            out = []
            for m, t in poly.blocks.items():
                if m & ~allowed:
                    continue
                if max_degree is None:
                    out.append((m, list(t.items()), None))
                else:
                    dkc = sorted((self._key_degree(k, fields), k, c) for k, c in t.items())
                    out.append((m, [(k, c) for _, k, c in dkc], [d for d, _, _ in dkc]))
            return out

        right = listed(other)
        blocks: dict[int, dict[int, Fraction]] = {}
        for ma, la, da in listed(self):
            for mb, lb, db in right:
                if ma & mb:
                    continue
                sign = _merge_sign(ma, mb)
                outer, odeg, inner, ideg = (lb, db, la, da) if len(lb) < len(la) else (la, da, lb, db)
                dst = blocks.get(ma | mb)
                get = None if dst is None else dst.get
                for i, (ko, co) in enumerate(outer):
                    terms = inner
                    if odeg is not None:
                        cut = bisect_right(ideg, max_degree - odeg[i])
                        if not cut:
                            break  # outer degrees only grow
                        terms = inner[:cut]
                    sco = sign * co
                    if get is None:  # distinct inner keys give distinct sums
                        dst = blocks[ma | mb] = {ko + ki: sco * ci for ki, ci in terms}
                        get = dst.get
                        continue
                    for ki, ci in terms:
                        k = ko + ki
                        dst[k] = get(k, 0) + sco * ci
        return SuperPolynomial(self.nvars, blocks)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._mul(other)

    __rmul__ = __mul__

    def mul_restricted(self, other: SuperPolynomial, theta_vars) -> SuperPolynomial:
        """Product keeping only theta supports inside the given variable set.

        Masks only grow under multiplication, so blocks outside the set can
        be dropped from both factors up front; useful when only one sector
        of a long product is ever read.
        """
        return self._mul(other, allowed=reduce(or_, (1 << (v - 1) for v in theta_vars), 0))

    def mul_truncated(self, other: SuperPolynomial, max_degree: int, vars=None) -> SuperPolynomial:
        """Product keeping only terms of degree <= max_degree in `vars`
        (1-based bosonic indices, default all)."""
        return self._mul(other, max_degree=max_degree, vars=vars)

    # -- degrees and truncation ---------------------------------------------------

    def _field_offsets(self, vars=None) -> tuple[int, ...]:
        if vars is None:
            vars = range(1, self.nvars + 1)
        return tuple(_FIELD_BITS * (v - 1) for v in vars)

    @staticmethod
    def _key_degree(key: int, offsets: tuple[int, ...]) -> int:
        return sum((key >> off) & _FIELD_MASK for off in offsets)

    def _map_terms(self, image, nvars=None) -> SuperPolynomial:
        """The one term-rewriting loop behind the term-wise methods.

        image(mask, key, c) gives the term's (mask, key, c) in the result, or
        None to drop it.  Images are distinct, so nothing accumulates, and
        zero coefficients are dropped on construction.  The result lives in
        `nvars` variables (default: this ring).
        """
        blocks: dict[int, dict[int, Fraction]] = {}
        for mask, terms in self.blocks.items():
            for key, c in terms.items():
                new = image(mask, key, c)
                if new is not None:
                    m, k, v = new
                    blocks.setdefault(m, {})[k] = v
        return SuperPolynomial(self.nvars if nvars is None else nvars, blocks)

    def truncate(self, max_degree: int, vars=None) -> SuperPolynomial:
        """Drop terms of degree > max_degree in `vars` (default all bosonic)."""
        fields = self._field_offsets(vars)
        return self._map_terms(
            lambda m, k, c: (m, k, c) if self._key_degree(k, fields) <= max_degree else None
        )

    # -- variable operations ----------------------------------------------------

    def widen(self, nvars: int) -> SuperPolynomial:
        """Same polynomial viewed in a ring with more variables."""
        if nvars < self.nvars:
            raise ValueError(f"cannot narrow {self.nvars} -> {nvars}")
        return SuperPolynomial(nvars, self.blocks)

    def shift_alphabet(self, offset: int, nvars: int) -> SuperPolynomial:
        """Relabel x_i -> x_{i+offset}, t_i -> t_{i+offset}.

        Relabeling is order-preserving on the theta letters, so no signs
        appear.
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if self.nvars + offset > nvars:
            raise ValueError(
                f"shifting {self.nvars} variables by {offset} leaves a ring of {nvars}"
            )
        shift = _FIELD_BITS * offset
        return self._map_terms(lambda m, k, c: (m << offset, k << shift, c), nvars)

    def negate_vars(self, bos_vars=(), ferm_vars=()) -> SuperPolynomial:
        """Substitute x_v -> -x_v and t_v -> -t_v for the listed indices."""
        bos_offs = tuple(_FIELD_BITS * (v - 1) for v in bos_vars)
        fmask = reduce(or_, (1 << (v - 1) for v in ferm_vars), 0)

        def image(mask, key, c):
            par = (mask & fmask).bit_count() + self._key_degree(key, bos_offs)
            return mask, key, -c if par & 1 else c

        return self._map_terms(image)

    def extract_x(self, var: int, exp: int) -> SuperPolynomial:
        """Coefficient of x_var^exp: keep matching terms, clear that field."""
        off = _FIELD_BITS * (var - 1)
        return self._map_terms(
            lambda m, k, c: (m, k - (exp << off), c) if (k >> off) & _FIELD_MASK == exp else None
        )

    def select_theta(self, var: int) -> SuperPolynomial:
        """Terms whose theta word contains t_var, unchanged."""
        bit = 1 << (var - 1)
        return SuperPolynomial(self.nvars, {m: t for m, t in self.blocks.items() if m & bit})

    def extract_theta_left(self, var: int) -> SuperPolynomial:
        """Coefficient of t_var factored out on the left.

        Moving t_var to the front of the sorted word passes over the letters
        below it, hence the sign (-1)^(#smaller letters present).
        """
        bit = 1 << (var - 1)

        def image(mask, key, c):
            if not mask & bit:
                return None
            return mask ^ bit, key, -c if (mask & (bit - 1)).bit_count() & 1 else c

        return self._map_terms(image)

    def euler_scale(self, var: int) -> SuperPolynomial:
        """Multiply each term by its x_var exponent (the operator x d/dx)."""
        return self._map_terms(lambda m, k, c: (m, k, self.key_exponent(k, var) * c))

    def arrow(self) -> SuperPolynomial:
        """Scale each m-theta sector by _sector_sign(m), reversing theta words."""
        return self._map_terms(lambda m, k, c: (m, k, _sector_sign(m.bit_count()) * c))

    def apply_exchange(self, i: int) -> SuperPolynomial:
        """Swap variables i and i+1 in both alphabets (1 <= i < nvars).

        With both t_i and t_{i+1} present the letters are adjacent in the
        sorted word, so the swap contributes one transposition sign.  The
        exchange is a bijection on (mask, key), so each image term is written
        once and nothing accumulates.
        """
        if not 1 <= i < self.nvars:
            raise ValueError(f"need 1 <= i < {self.nvars}, got {i}")
        lo = 1 << (i - 1)
        hi = 1 << i
        # x_i^a x_{i+1}^b -> x_i^b x_{i+1}^a adds (a - b) * step to the key
        step = _FIELD_MASK << (_FIELD_BITS * (i - 1))

        def image(mask, key, c):
            key += (self.key_exponent(key, i) - self.key_exponent(key, i + 1)) * step
            both = mask & (lo | hi)
            if both == lo or both == hi:
                return mask ^ lo ^ hi, key, c
            return mask, key, -c if both else c

        return self._map_terms(image)

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent simultaneous exchange."""
        return all(self.apply_exchange(i) == self for i in range(1, self.nvars))

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for mask in sorted(self.blocks, key=lambda m: (m.bit_count(), m)):
            for key in sorted(self.blocks[mask], reverse=True):
                c = self.blocks[mask][key]
                factors = [str(c)]
                for var in range(1, self.nvars + 1):
                    e = self.key_exponent(key, var)
                    if e == 1:
                        factors.append(f"x{var}")
                    elif e:
                        factors.append(f"x{var}^{e}")
                tword = " ".join(f"t{v}" for v in self.mask_vars(mask))
                if tword:
                    factors.append(tword)
                pieces.append(" * ".join(factors))
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<SuperPolynomial nvars={self.nvars} terms={self.num_terms()}>"
