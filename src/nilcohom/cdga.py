"""Differentials on free graded-commutative algebras.

A CDGA couples a signature with one differential value per generator,
homogeneous of degree +1 (or zero). Construction eagerly verifies d(d(g)) = 0
for every generator, which suffices by the derivation property; a validated
CDGA is therefore unforgeable and everything downstream may rely on it.
The checker reports the offending generator and the nonzero residue instead
of a bare boolean, because the obstruction solver needs the failure data.

Construction also turns each generator's differential into a term list of
monomial keys, one int each (``algebra._encode``: the odd bitmask in the low
bits, one fixed-width exponent field per even generator above it), with int
coefficients where they are integral and a Koszul sign mask per term. d acts
on keys alone: ``_d_key`` is the one Leibniz expansion, which multiplies by
adding keys and lowers an exponent by subtracting its field's unit, with one
popcount per term for its sign. It serves ``apply_d`` (hence the d^2 check),
which encodes and decodes at the ``Monomial`` edge, ``_block_columns``,
``cohomology.representatives`` and ``verify_classes``, which expand it on
keys themselves, and the cached Fraction ``differential_matrix``, which
looks the target rows up by key and is kept for public callers.

d preserves a torus weight (Kostant 1961): the weight lattice, computed on
first use and cached, is the integer kernel of w(g) = w(u) over the terms u
of every d g. ``_blocks`` splits a degree into the keys of one weight each,
by a key-only walk over the generators that adds up packed weights and
builds no ``Monomial``, and ``_block_columns`` expands d on one block into
uncached integer columns keyed by target monomial. That is how
``cohomology.betti`` ranks a degree, block by block, dropping the sources
that the pivots of the degree below clear.

A model constructor may attach a symmetry sigma, a signed involution of the
generators that keeps degrees (``_symmetry``). It is data that is checked,
not trusted: on first use of the lattice the CDGA checks sigma(d g) =
d sigma(g) exactly for every generator and refuses sigma otherwise. Such a
sigma maps the block of weight w onto the block of weight sigma(w) and
intertwines d on them, so ``betti`` ranks one block of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import (
    _EXPONENT_FIELD,
    Element,
    Signature,
    SignatureMismatchError,
    _decode,
    _encode,
    _key_units,
    _keys_by_weight,
    basis_of_degree,
)
from .linalg import SparseExactMatrix, _clear_denominators, _kernel


@dataclass(frozen=True)
class DSquaredViolation:
    """First generator whose d(d(g)) is nonzero, with the residue element."""

    generator: str
    residue: Element

    def __str__(self) -> str:
        return f"d^2({self.generator}) = {self.residue!r} != 0"


class DifferentialError(ValueError):
    """Illegal differential: inhomogeneous value or d^2 != 0."""

    def __init__(self, message: str, violation: Optional[DSquaredViolation] = None):
        super().__init__(message)
        self.violation = violation


class TruncationError(ValueError):
    """Requested degree exceeds the truncation window."""


def default_truncation(sig: Signature) -> Optional[int]:
    """Sum of odd generator degrees plus twice the largest even degree.

    Large enough to contain the stabilization window used by the twisted
    model comparisons. None for purely odd signatures (no truncation needed).
    """
    if sig.is_purely_odd:
        return None
    odd_sum = sum(sig.generators[i].degree for i in sig.odd_indices)
    even_max = max(sig.generators[i].degree for i in sig.even_indices)
    return odd_sum + 2 * even_max


def _term_list(value: Element, below: int = 0) -> tuple:
    """A differential as (odd_mask, key, coeff, sign_mask) tuples.

    ``key`` is the term's monomial key and ``odd_mask`` its odd part;
    ``coeff`` is an int when integral and a Fraction otherwise.
    ``sign_mask`` is ``below`` XOR (ul - 1) for every odd bit ul of the
    term, so that the sign of the term in d of a monomial, with ``rest`` the
    monomial's other factors, is the parity of ``(rest & sign_mask).bit_count()``:
    the Koszul sign of the term's odd bits past the lower bits of ``rest``,
    and for an odd generator with ``below`` = the mask of the bits under its
    own, the sign of moving it to the front. Raises DifferentialError for a
    term whose exponent ``_encode`` refuses.
    """
    out = []
    for u, c in value.terms.items():
        try:
            key = _encode(u)
        except ValueError as err:
            raise DifferentialError(f"term {u!r}: {err}") from None
        sign_mask = below
        um = u.odd_mask
        while um:
            ul = um & -um
            um ^= ul
            sign_mask ^= ul - 1
        out.append((u.odd_mask, key, c.numerator if c.denominator == 1 else c, sign_mask))
    return tuple(out)


class _Weights:
    """The torus-weight lattice of a CDGA, packed into one int per generator.

    ``rank`` is the lattice rank, ``generators`` the packed weight of each
    generator in signature order, so that adding packed weights adds weight
    vectors. ``mirrors`` is the packed weight of sigma(g) for each generator
    g when the CDGA carries a checked symmetry sigma, else None. ``span`` is
    a power of two above twice the size of every packed weight of a
    monomial in the window, so that w + span * v keeps w and v apart.
    """

    __slots__ = ("rank", "generators", "mirrors", "span")

    def __init__(self, rank: int, generators: tuple, mirrors: Optional[tuple], span: int):
        self.rank = rank
        self.generators = generators
        self.mirrors = mirrors
        self.span = span


# ``betti`` ranks by weight only when some degree it ranks has at least this
# many basis monomials; otherwise each degree is one block, split into
# components, and the CDGA never computes its lattice. Measured with
# clearing on a 2-core VM: grouping every model made ``betti`` of X_4 and
# u_4 (at most 20 monomials a degree) 14% slower, and 5..24% faster on
# X_6..X_8, u_5, the twists of X_5..X_7 and a small product (64 to 252). A
# threshold near 64 would take that gain; it stays at 256 for now, so the
# small models keep the one-block path they had.
_BLOCK_MIN_MONOMIALS = 256


class CDGA:
    """Validated commutative differential graded algebra on a free signature."""

    __slots__ = (
        "signature",
        "name",
        "truncation",
        "_diff",
        "_odd_bits",
        "_odd_terms",
        "_even_terms",
        "_integral",
        "_matrix_cache",
        "_rank_cache",
        "_weights",
        "_symmetry",
    )

    def __init__(
        self,
        signature: Signature,
        differentials: Mapping[str, Element],
        truncation: Optional[int] = None,
        name: str = "algebra",
    ):
        if truncation is not None and truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.signature = signature
        self.name = name
        diffs = []
        for g in signature.generators:
            if g.name not in differentials:
                raise DifferentialError(f"no differential given for generator {g.name!r}")
            value = differentials[g.name]
            if value.signature != signature:
                raise DifferentialError(
                    f"differential of {g.name!r} lives over a different signature"
                )
            if not value.is_zero() and value.homogeneous_degree() != g.degree + 1:
                raise DifferentialError(
                    f"differential of {g.name!r} is not homogeneous of degree {g.degree + 1}"
                )
            diffs.append(value)
        self._diff = tuple(diffs)
        self._odd_terms = tuple(
            _term_list(diffs[i], (1 << p) - 1) for p, i in enumerate(signature.odd_indices)
        )
        self._odd_bits = (1 << len(signature.odd_indices)) - 1
        # (bit position of the exponent field, term list) per even generator
        # that d does not kill.
        units = _key_units(signature)
        self._even_terms = tuple(
            (units[i].bit_length() - 1, _term_list(diffs[i]))
            for i in signature.even_indices
            if diffs[i].terms
        )
        self._integral = all(
            type(c) is int
            for terms in self._odd_terms + tuple(terms for _, terms in self._even_terms)
            for _, _, c, _ in terms
        )
        if truncation is None and not signature.is_purely_odd:
            truncation = default_truncation(signature)
        self.truncation = truncation
        self._matrix_cache: dict = {}
        self._rank_cache: dict = {}
        self._weights: Optional[_Weights] = None
        # One (index, sign) per generator g, sigma(g) = sign * generators[index];
        # attached by a model constructor, checked by ``_weight_lattice``.
        self._symmetry: Optional[tuple] = None
        violation = self._d_squared_violation()
        if violation is not None:
            raise DifferentialError(f"d^2 != 0: {violation}", violation)

    def _d_squared_violation(self) -> Optional[DSquaredViolation]:
        for g in self.signature.generators:
            residue = self.apply_d(self._diff[g.index])
            if not residue.is_zero():
                return DSquaredViolation(g.name, residue)
        return None

    # ---- basic queries ---------------------------------------------------

    def d_of(self, name: str) -> Element:
        return self._diff[self.signature.generator(name).index]

    @property
    def differentials(self) -> dict:
        return {g.name: self._diff[g.index] for g in self.signature.generators}

    def top_degree(self) -> Optional[int]:
        return self.signature.top_degree()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CDGA):
            return NotImplemented
        return (
            self.signature == other.signature
            and self._diff == other._diff
            and self.truncation == other.truncation
        )

    def __hash__(self) -> int:
        return hash((self.signature, self._diff, self.truncation))

    def __repr__(self) -> str:
        return f"CDGA({self.name}, {len(self.signature)} generators)"

    # ---- differential ------------------------------------------------------

    def _removals(self, key: int):
        """Yield (rest, scale, terms) for each factor of the monomial ``key``
        whose d is nonzero: ``rest`` is the key with one copy of the factor
        removed, ``scale`` its exponent, ``terms`` the term list of its d.

        An odd factor with bit ``low`` leaves key ^ low; an even factor of
        exponent e leaves the key less its field's unit, and scales by e.
        """
        odd = key & self._odd_bits
        while odd:
            low = odd & -odd
            odd ^= low
            terms = self._odd_terms[low.bit_length() - 1]
            if terms:
                yield key ^ low, 1, terms
        for shift, terms in self._even_terms:
            e = key >> shift & _EXPONENT_FIELD
            if e:
                yield key - (1 << shift), e, terms

    def _d_key(self, key: int) -> dict:
        """Graded Leibniz expansion of d on a monomial key; returns {key: coefficient}.

        Each term u of d of a factor (``_removals``) multiplies the rest of
        the monomial by adding u's key, and its whole sign, the prefix sign
        of an odd factor included, is the parity of popcount(rest &
        sign_mask) for u's sign mask (see ``_term_list``).
        """
        acc: dict = {}
        for rest, scale, terms in self._removals(key):
            for umask, ukey, coeff, signs in terms:
                if umask & rest:
                    continue
                target = rest + ukey
                if (rest & signs).bit_count() & 1:
                    val = acc.get(target, 0) - scale * coeff
                else:
                    val = acc.get(target, 0) + scale * coeff
                if val:
                    acc[target] = val
                else:
                    acc.pop(target, None)
        return acc

    def apply_d(self, elem: Element) -> Element:
        """Extend d to arbitrary elements as a degree +1 derivation.

        Raises ValueError for a term with an exponent of
        ``algebra._EXPONENT_LIMIT`` (2^31) or more, which has no monomial key.
        """
        if elem.signature != self.signature:
            raise SignatureMismatchError("element over a different signature")
        acc: dict = {}
        for mono, coeff in elem.terms.items():
            for key, val in self._d_key(_encode(mono)).items():
                s = acc.get(key, 0) + coeff * val
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        sig = self.signature
        return Element(sig, {_decode(sig, key): c for key, c in acc.items()})

    def _check_window(self, n: int) -> None:
        """Raise unless d_n lies in the window: n >= 0 and n + 1 <= truncation."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        if self.truncation is not None and n + 1 > self.truncation:
            raise TruncationError(f"degree {n + 1} exceeds truncation {self.truncation}")

    def differential_matrix(self, n: int) -> SparseExactMatrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis.

        Column j holds the expansion of d applied to the j-th basis monomial,
        in the order of ``_d_key`` on its key; target rows are looked up by
        key. Deterministic given the canonical basis order. Entries are
        Fractions; the matrix is cached on the CDGA. No engine path builds
        it: ``betti``, ``representatives`` and ``verify_classes`` expand
        ``_d_key`` on monomial keys instead.
        """
        cached = self._matrix_cache.get(n)
        if cached is None:
            self._check_window(n)
            source = basis_of_degree(self.signature, n)
            target = basis_of_degree(self.signature, n + 1)
            row_of = {_encode(mono): i for i, mono in enumerate(target)}
            entries = {}
            for col, mono in enumerate(source):
                for key, val in self._d_key(_encode(mono)).items():
                    entries[row_of[key], col] = Fraction(val)
            cached = self._matrix_cache[n] = SparseExactMatrix._trusted(
                len(target), len(source), entries
            )
        return cached

    def _weight_lattice(self) -> _Weights:
        """The torus weights that d preserves, computed on first use and cached.

        The lattice is the integer kernel of the constraints
        w(g) = sum of w(f) over the factors f of u, with multiplicity, for
        every term u of every d g. Kernel vector j is coordinate j of the
        weight; each generator's coordinates are packed into one int in
        base 2^bits, with bits wide enough that every monomial of the
        window keeps its coordinates apart, signs included. A symmetry
        sigma is checked here (``_check_symmetry``), before any use.
        """
        if self._weights is None:
            sig = self.signature
            rows = {}
            for g in sig.generators:
                for u in self._diff[g.index].terms:
                    row = {g.index: 1}
                    for idx, e in enumerate(u.exponents()):
                        if e:
                            row[idx] = row.get(idx, 0) - e
                    rows[len(rows)] = {idx: c for idx, c in row.items() if c}
            _, vectors = _kernel(rows, len(sig))
            # A generator occurs at most once in a monomial if odd, and at
            # most truncation // degree times if even (evens come with one).
            reach = [1 if g.is_odd else self.truncation // g.degree for g in sig.generators]
            bound = max(
                (sum(abs(c.numerator) * reach[i] for i, c in v.items()) for v in vectors),
                default=0,
            )
            bits = bound.bit_length() + 2
            packed = [0] * len(sig)
            for j, v in enumerate(vectors):
                for i, c in v.items():
                    packed[i] += c.numerator << bits * j
            mirrors = None
            if self._symmetry is not None:
                self._check_symmetry()
                mirrors = tuple(packed[j] for j, _ in self._symmetry)
            self._weights = _Weights(len(vectors), tuple(packed), mirrors, 1 << bits * len(vectors))
        return self._weights

    def _check_symmetry(self) -> None:
        """Raise ValueError unless ``_symmetry`` is a signed involution of
        the generators that keeps degrees and commutes with d, exactly.

        sigma extends to an algebra map, Koszul signs included, and
        sigma(d g) = d sigma(g) on every generator g makes it commute with d
        everywhere, by the derivation property.
        """
        sig = self.signature
        gens = sig.generators
        sigma = self._symmetry
        if sorted(j for j, _ in sigma) != list(range(len(gens))):
            raise ValueError("symmetry is not a permutation of the generators")
        for g, (j, s) in zip(gens, sigma):
            if s not in (1, -1) or sigma[j] != (g.index, s):
                raise ValueError(f"symmetry is not a signed involution at {g.name!r}")
            if gens[j].degree != g.degree:
                raise ValueError(f"symmetry maps {g.name!r} to degree {gens[j].degree}")
        images = [Element.generator(sig, gens[j].name).scale(s) for j, s in sigma]
        for g, (j, s) in zip(gens, sigma):
            mapped = Element.zero(sig)
            for mono, c in self._diff[g.index].terms.items():
                term = Element.unit(sig, c)
                for h, e in mono.factors():
                    for _ in range(e):
                        term = term * images[h.index]
                mapped = mapped + term
            if mapped != self._diff[j].scale(s):
                raise ValueError(f"symmetry does not commute with d at {g.name!r}")

    def _by_weight(self, dims) -> bool:
        """Whether ``betti`` ranks degrees of these dimensions by torus weight.

        Only when one of them has at least ``_BLOCK_MIN_MONOMIALS`` basis
        monomials, checked first so that a smaller CDGA never computes its
        lattice, and the lattice has positive rank.
        """
        return max(dims, default=0) >= _BLOCK_MIN_MONOMIALS and self._weight_lattice().rank > 0

    def _blocks(self, n: int, by_weight: bool, share=None) -> dict:
        """The keys (``algebra._encode``) of the degree-n monomials, by block.

        By weight, {packed weight: keys} from the key walk
        ``_keys_by_weight``, which builds no ``Monomial``, and only for the
        weights in the set ``share`` when it is given; otherwise one block
        {None: keys} in ``basis_of_degree`` order, and ``share`` is ignored.
        d maps each weight block into the monomials of its own weight one
        degree up. The degree is checked first.
        """
        self._check_window(n)
        if by_weight:
            return _keys_by_weight(self.signature, n, self._weight_lattice().generators, share)
        return {None: [_encode(mono) for mono in basis_of_degree(self.signature, n)]}

    def _block_columns(self, sources) -> dict:
        """The integer columns of d on the monomial keys ``sources``.

        {position in ``sources``: {target key: int}} for every source that d
        does not kill, each column scaled by the lcm of its denominators
        when some coefficient of d is not integral. Target keys are monomial
        keys as ``_d_key`` returns them. Nothing is cached.
        """
        d_key = self._d_key
        columns = {}
        for pos, key in enumerate(sources):
            column = d_key(key)
            if column:
                columns[pos] = column
        return columns if self._integral else _clear_denominators(columns)


def check_d_squared(
    signature: Signature,
    differentials: Mapping[str, Element],
    truncation: Optional[int] = None,
    name: str = "algebra",
) -> CDGA:
    """Validate a candidate differential; returns the CDGA or raises.

    On failure the raised DifferentialError carries the violation report
    naming the first failing generator and its nonzero residue.
    """
    return CDGA(signature, differentials, truncation=truncation, name=name)
