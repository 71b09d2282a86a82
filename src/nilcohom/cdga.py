"""Differentials on free graded-commutative algebras.

A CDGA couples a signature with one differential value per generator,
homogeneous of degree +1 (or zero). Construction eagerly verifies d(d(g)) = 0
for every generator, which suffices by the derivation property; a validated
CDGA is therefore unforgeable and everything downstream may rely on it.
The checker reports the offending generator and the nonzero residue instead
of a bare boolean, because the obstruction solver needs the failure data.

Construction also turns each generator's differential into a term list of
integer keys (odd bitmask, even exponent tuple) with int coefficients where
they are integral. d acts on keys alone: one Leibniz expansion with popcount
prefix and Koszul signs serves both ``apply_d``, which wraps the keys back
into monomials, and ``_d_entries``, which looks the target rows up by key.
``_d_entries`` is the one assembly loop. ``differential_matrix`` wraps its
entries in Fractions and caches the matrix; ``_integer_rows`` groups them
into uncached {row: {col: int}} rows for ``cohomology.betti``, clearing
denominators only when some coefficient is not integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import (
    Element,
    Monomial,
    Signature,
    SignatureMismatchError,
    basis_of_degree,
)
from .linalg import SparseExactMatrix, _clear_denominators


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


def _term_list(value: Element) -> tuple:
    """A differential as (odd_mask, even_exps or (), coeff) triples.

    ``even_exps`` is () when the term has no even factor; ``coeff`` is an
    int when integral and a Fraction otherwise.
    """
    return tuple(
        (
            u.odd_mask,
            u.even_exps if any(u.even_exps) else (),
            c.numerator if c.denominator == 1 else c,
        )
        for u, c in value.terms.items()
    )


class CDGA:
    """Validated commutative differential graded algebra on a free signature."""

    __slots__ = (
        "signature",
        "name",
        "truncation",
        "_diff",
        "_odd_terms",
        "_even_terms",
        "_integral",
        "_matrix_cache",
        "_rank_cache",
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
        terms = [_term_list(value) for value in diffs]
        self._odd_terms = tuple(terms[i] for i in signature.odd_indices)
        self._even_terms = tuple(terms[i] for i in signature.even_indices)
        self._integral = all(type(c) is int for t in terms for _, _, c in t)
        if truncation is None and not signature.is_purely_odd:
            truncation = default_truncation(signature)
        self.truncation = truncation
        self._matrix_cache: dict = {}
        self._rank_cache: dict = {}
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

    def _d_key(self, mask: int, evens: tuple) -> dict:
        """Graded Leibniz expansion of d on the monomial key (mask, evens).

        Returns {(odd_mask, even_exps): coefficient}. Removing the odd factor
        with bit ``low`` costs the prefix sign (-1)^popcount(mask & (low - 1));
        an even factor of exponent e scales by e and costs no sign. Each image
        term u then multiplies the rest from the left: u has even degree, so
        only the Koszul sign of u's odd bits past the lower bits of the rest
        remains, the sum over u's bits ul of popcount(rest & (ul - 1)).
        """
        removals = []
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            terms = self._odd_terms[low.bit_length() - 1]
            if terms:
                removals.append((mask ^ low, evens, (mask & (low - 1)).bit_count(), 1, terms))
        for q, e in enumerate(evens):
            if e and self._even_terms[q]:
                lowered = evens[:q] + (e - 1,) + evens[q + 1 :]
                removals.append((mask, lowered, 0, e, self._even_terms[q]))
        acc: dict = {}
        for rest, rest_evens, prefix, scale, terms in removals:
            for umask, uevens, coeff in terms:
                if umask & rest:
                    continue
                count = prefix
                um = umask
                while um:
                    ul = um & -um
                    um ^= ul
                    count += (rest & (ul - 1)).bit_count()
                if uevens:
                    key = (rest | umask, tuple(a + b for a, b in zip(rest_evens, uevens)))
                else:
                    key = (rest | umask, rest_evens)
                val = acc.get(key, 0) + (-scale * coeff if count & 1 else scale * coeff)
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
        return acc

    def apply_d(self, elem: Element) -> Element:
        """Extend d to arbitrary elements as a degree +1 derivation."""
        if elem.signature != self.signature:
            raise SignatureMismatchError("element over a different signature")
        acc: dict = {}
        for mono, coeff in elem.terms.items():
            for key, val in self._d_key(mono.odd_mask, mono.even_exps).items():
                s = acc.get(key, 0) + coeff * val
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        sig = self.signature
        return Element(sig, {Monomial(sig, *key): c for key, c in acc.items()})

    def _d_entries(self, n: int):
        """(row, col, coefficient) of d from degree n to degree n + 1.

        Column by column in basis order, each column in the order of its
        integer expansion on the monomial's key (odd_mask, even_exps); target
        rows are looked up by the same key. Coefficients are ints where
        integral. The degree is checked on the first iteration.
        """
        if n < 0:
            raise ValueError("degree must be >= 0")
        if self.truncation is not None and n + 1 > self.truncation:
            raise TruncationError(
                f"degree {n + 1} exceeds truncation {self.truncation}"
            )
        source = basis_of_degree(self.signature, n)
        target = basis_of_degree(self.signature, n + 1)
        row_of = {(m.odd_mask, m.even_exps): i for i, m in enumerate(target)}
        d_key = self._d_key
        for col, mono in enumerate(source):
            for key, val in d_key(mono.odd_mask, mono.even_exps).items():
                yield row_of[key], col, val

    def differential_matrix(self, n: int) -> SparseExactMatrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis.

        Column j holds the expansion of d applied to the j-th basis monomial;
        deterministic given the canonical basis order. Entries are Fractions;
        the matrix is cached on the CDGA.
        """
        cached = self._matrix_cache.get(n)
        if cached is None:
            entries = {(r, c): Fraction(v) for r, c, v in self._d_entries(n)}
            sig = self.signature
            cached = self._matrix_cache[n] = SparseExactMatrix._trusted(
                len(basis_of_degree(sig, n + 1)), len(basis_of_degree(sig, n)), entries
            )
        return cached

    def _integer_rows(self, n: int) -> dict:
        """d_n as rows {row: {col: int}}, without building or caching a matrix.

        Equal, dict order included, to ``linalg._integer_rows`` of
        ``differential_matrix(n)``: rows scaled by the lcm of their
        denominators when some coefficient of d is not integral.
        """
        rows: dict = {}
        for r, c, v in self._d_entries(n):
            rows.setdefault(r, {})[c] = v
        return rows if self._integral else _clear_denominators(rows)


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
