"""Free graded-commutative algebras over exact rationals.

A signature declares finitely many named generators with positive integer
degrees. Odd-degree generators are exterior (they anticommute and square to
zero); even-degree generators are polynomial. A monomial stores its odd part
as a bitmask in signature order and its even part as an exponent tuple, so
multiplication reduces to a bitmask merge and the Koszul sign to a
transposition count over set bits. The Betti path packs both parts into one
int key per monomial (``_encode``, ``_decode``); ``_keys_by_weight`` walks
such keys without building a ``Monomial``.

Coefficients are ``fractions.Fraction`` throughout; no floating point.
All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class SignatureMismatchError(ValueError):
    """Operands live over different signatures."""


class GeneratorSpec(NamedTuple):
    """A named generator; ``index`` is its position in the signature."""

    name: str
    degree: int
    index: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class Signature:
    """Ordered list of generators of a free graded-commutative algebra.

    Hashable and structurally comparable; two signatures are equal when they
    declare the same names with the same degrees in the same order.
    """

    __slots__ = (
        "generators",
        "_by_name",
        "odd_indices",
        "even_indices",
        "_odd_pos",
        "_even_pos",
        "_odd_degrees",
        "_even_degrees",
        "_hash",
        "_basis_cache",
    )

    def __init__(self, generators: Iterable[Union[GeneratorSpec, tuple]]):
        specs = []
        for pos, g in enumerate(generators):
            if isinstance(g, GeneratorSpec):
                name, degree = g.name, g.degree
            else:
                name, degree = g
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValueError(f"invalid generator name {name!r}")
            degree = int(degree)
            if degree < 1:
                raise ValueError(f"generator {name!r} has degree {degree} < 1")
            specs.append(GeneratorSpec(name, degree, pos))
        self.generators = tuple(specs)
        self._by_name = {g.name: g for g in specs}
        if len(self._by_name) != len(specs):
            seen = set()
            for g in specs:
                if g.name in seen:
                    raise ValueError(f"duplicate generator name {g.name!r}")
                seen.add(g.name)
        self.odd_indices = tuple(g.index for g in specs if g.is_odd)
        self.even_indices = tuple(g.index for g in specs if not g.is_odd)
        self._odd_pos = {idx: pos for pos, idx in enumerate(self.odd_indices)}
        self._even_pos = {idx: pos for pos, idx in enumerate(self.even_indices)}
        self._odd_degrees = tuple(specs[i].degree for i in self.odd_indices)
        self._even_degrees = tuple(specs[i].degree for i in self.even_indices)
        self._hash = hash(tuple((g.name, g.degree) for g in specs))
        self._basis_cache: dict = {}

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[GeneratorSpec]:
        return iter(self.generators)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return [(g.name, g.degree) for g in self.generators] == [
            (g.name, g.degree) for g in other.generators
        ]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"Signature({gens})"

    def generator(self, name: str) -> GeneratorSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    @property
    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    @property
    def is_purely_odd(self) -> bool:
        return not self.even_indices

    def top_degree(self) -> Union[int, None]:
        """Largest monomial degree, or None when even generators make it infinite."""
        if self.even_indices:
            return None
        return sum(g.degree for g in self.generators)

    def unit_monomial(self) -> "Monomial":
        return Monomial(self, 0, (0,) * len(self.even_indices))

    def monomial(self, exponents: Sequence[int]) -> "Monomial":
        """Monomial from a full per-generator exponent vector."""
        if len(exponents) != len(self.generators):
            raise ValueError("exponent vector length does not match signature")
        mask = 0
        evens = [0] * len(self.even_indices)
        for idx, e in enumerate(exponents):
            e = int(e)
            if e < 0:
                raise ValueError("negative exponent")
            if e == 0:
                continue
            g = self.generators[idx]
            if g.is_odd:
                if e > 1:
                    raise ValueError(f"odd generator {g.name!r} with exponent {e}")
                mask |= 1 << self._odd_pos[idx]
            else:
                evens[self._even_pos[idx]] = e
        return Monomial(self, mask, tuple(evens))

    def monomial_of(self, *names: str) -> "Monomial":
        """Monomial that is the product of the named generators (with multiplicity)."""
        exps = [0] * len(self.generators)
        for name in names:
            exps[self.generator(name).index] += 1
        return self.monomial(exps)


class Monomial(NamedTuple):
    """Canonical-form monomial: exponents alone determine it.

    ``odd_mask`` bit ``p`` corresponds to ``signature.odd_indices[p]``;
    ``even_exps[q]`` to ``signature.even_indices[q]``.
    """

    signature: Signature
    odd_mask: int
    even_exps: tuple

    def degree(self) -> int:
        sig = self.signature
        total = 0
        mask = self.odd_mask
        while mask:
            low = mask & -mask
            total += sig._odd_degrees[low.bit_length() - 1]
            mask ^= low
        for q, e in enumerate(self.even_exps):
            if e:
                total += e * sig._even_degrees[q]
        return total

    def exponents(self) -> tuple:
        """Full per-generator exponent vector in signature order."""
        sig = self.signature
        exps = [0] * len(sig.generators)
        mask = self.odd_mask
        while mask:
            low = mask & -mask
            exps[sig.odd_indices[low.bit_length() - 1]] = 1
            mask ^= low
        for q, e in enumerate(self.even_exps):
            exps[sig.even_indices[q]] = e
        return tuple(exps)

    def factors(self) -> Iterator[tuple]:
        """Yield (GeneratorSpec, exponent) for generators present, in signature order."""
        sig = self.signature
        for idx, e in enumerate(self.exponents()):
            if e:
                yield sig.generators[idx], e

    def is_unit(self) -> bool:
        return self.odd_mask == 0 and not any(self.even_exps)

    def __repr__(self) -> str:
        parts = []
        for g, e in self.factors():
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


def koszul_sign(mask1: int, mask2: int) -> int:
    """Sign for sorting the concatenation word(mask1)+word(mask2) into order.

    Counts pairs (i in mask1, j in mask2) with i > j; every such pair is a
    transposition of two odd generators. Valid for any odd degrees since
    odd*odd products of degrees are odd.
    """
    count = 0
    mm = mask2
    while mm:
        low = mm & -mm
        count += (mask1 >> low.bit_length()).bit_count()
        mm ^= low
    return -1 if count & 1 else 1


def mono_mul(m1: Monomial, m2: Monomial):
    """Multiply monomials; returns (sign, Monomial) or None when the product is zero.

    Zero occurs exactly when an odd generator appears in both factors.
    """
    sig = m1.signature
    if sig is not m2.signature and sig != m2.signature:
        raise SignatureMismatchError("monomials over different signatures")
    if m1.odd_mask & m2.odd_mask:
        return None
    sign = koszul_sign(m1.odd_mask, m2.odd_mask)
    evens = m1.even_exps
    if any(m2.even_exps):
        evens = tuple(a + b for a, b in zip(m1.even_exps, m2.even_exps))
    return sign, Monomial(sig, m1.odd_mask | m2.odd_mask, evens)


class Element:
    """Sparse rational linear combination of monomials over one signature."""

    __slots__ = ("signature", "terms", "_hash")

    def __init__(self, signature: Signature, terms: Mapping[Monomial, Scalar] = ()):
        self.signature = signature
        clean = {}
        for mono, coeff in dict(terms).items():
            if mono.signature is not signature and mono.signature != signature:
                raise SignatureMismatchError("term monomial over a different signature")
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self.terms = clean
        self._hash = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature) -> "Element":
        return cls(signature)

    @classmethod
    def unit(cls, signature: Signature, coeff: Scalar = 1) -> "Element":
        return cls(signature, {signature.unit_monomial(): coeff})

    @classmethod
    def generator(cls, signature: Signature, name: str) -> "Element":
        return cls(signature, {signature.monomial_of(name): 1})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: Scalar = 1) -> "Element":
        return cls(mono.signature, {mono: coeff})

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Union[int, None]:
        """The common degree of all terms, or None when zero or mixed."""
        degrees = {m.degree() for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self) -> list:
        """Terms ordered by (degree, exponent vector lex); deterministic."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].degree(), kv[0].exponents()))

    # ---- arithmetic ----------------------------------------------------

    def _require_same(self, other: "Element") -> None:
        if self.signature is not other.signature and self.signature != other.signature:
            raise SignatureMismatchError("elements over different signatures")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Element(self.signature, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.signature, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return elem_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coeff: Scalar) -> "Element":
        c = Fraction(coeff)
        if not c:
            return Element(self.signature)
        return Element(self.signature, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.signature, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return _signed_sum((c, "" if m.is_unit() else repr(m)) for m, c in self.sorted_terms())


def _signed_sum(terms: Iterable) -> str:
    """Join nonzero (coefficient, word) pairs as "a - 2*b + 1/2*c"; an empty
    word is the unit and shows its coefficient alone. "0" when empty."""
    parts = []
    for c, word in terms:
        if not word:
            parts.append(str(c))
        elif c == 1:
            parts.append(word)
        elif c == -1:
            parts.append(f"-{word}")
        else:
            parts.append(f"{c}*{word}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def elem_mul(e1: Element, e2: Element) -> Element:
    """Bilinear extension of mono_mul; result in canonical form."""
    e1._require_same(e2)
    acc: dict = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            r = mono_mul(m1, m2)
            if r is None:
                continue
            sign, prod = r
            s = acc.get(prod, 0) + sign * c1 * c2
            if s:
                acc[prod] = s
            else:
                acc.pop(prod, None)
    return Element(e1.signature, acc)


# A monomial key is one int: the odd mask in the low bits, then one field of
# _EXPONENT_BITS bits per even generator, in signature order, so that adding
# keys multiplies monomials without a common odd factor. The width is fixed,
# not taken from a truncation window, because d also acts on elements of any
# degree: ``apply_d`` on verify input, and the d^2 check of a model whose
# window is smaller than the degree of its differentials. ``_encode`` refuses
# an exponent of half a field or more, so one step of d, which adds two such
# exponents, never carries into the next field.
_EXPONENT_BITS = 32
_EXPONENT_FIELD = (1 << _EXPONENT_BITS) - 1
_EXPONENT_LIMIT = 1 << (_EXPONENT_BITS - 1)


def _key_units(sig: Signature) -> list:
    """The key of each generator alone, in signature order."""
    odd = len(sig.odd_indices)
    return [
        1 << (sig._odd_pos[i] if g.is_odd else odd + _EXPONENT_BITS * sig._even_pos[i])
        for i, g in enumerate(sig.generators)
    ]


def _encode(mono: Monomial) -> int:
    """The key of a monomial; ValueError for an exponent of ``_EXPONENT_LIMIT``
    (2^31) or more."""
    key = mono.odd_mask
    shift = len(mono.signature.odd_indices)
    for e in mono.even_exps:
        if e >= _EXPONENT_LIMIT:
            raise ValueError(f"exponent {e} is not below {_EXPONENT_LIMIT}")
        key |= e << shift
        shift += _EXPONENT_BITS
    return key


def _decode(sig: Signature, key: int) -> Monomial:
    """The monomial of a key; every field is read whole, so an exponent that
    one step of d raised past ``_EXPONENT_LIMIT`` comes back exactly."""
    odd = len(sig.odd_indices)
    evens = tuple(
        key >> (odd + _EXPONENT_BITS * q) & _EXPONENT_FIELD
        for q in range(len(sig.even_indices))
    )
    return Monomial(sig, key & ((1 << odd) - 1), evens)


def _keys_by_weight(sig: Signature, n: int, weights: Sequence[int], keep=None) -> dict:
    """The degree-n monomial keys (see ``_encode``), grouped by weight.

    ``weights`` holds one int per generator in signature order, and a key's
    weight is their sum over its factors, with multiplicity. Returns
    {weight: [key, ...]}: keys in lexicographic order of their exponent
    vectors, weights in the order of their first key, and only the weights
    in ``keep`` when it is given. Builds no ``Monomial`` and caches nothing;
    ``basis_of_degree`` is this walk with every weight 0.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    degrees = [g.degree for g in sig.generators]
    odd = [d % 2 == 1 for d in degrees]
    units = _key_units(sig)
    # reach[pos]: the largest degree generators pos.. can still add, capped at
    # n; any even generator among them can add as much as needed.
    reach = [0] * (len(degrees) + 1)
    for pos in range(len(degrees) - 1, -1, -1):
        reach[pos] = min(n, reach[pos + 1] + degrees[pos]) if odd[pos] else n
    groups: dict = {}

    def rec(pos: int, remaining: int, key: int, weight: int) -> None:
        if remaining == 0:
            keys = groups.get(weight)
            if keys is not None:
                keys.append(key)
            elif keep is None or weight in keep:
                groups[weight] = [key]
            return
        if reach[pos] < remaining:
            return
        degree = degrees[pos]
        if odd[pos]:
            rec(pos + 1, remaining, key, weight)
            if degree <= remaining:
                rec(pos + 1, remaining - degree, key + units[pos], weight + weights[pos])
            return
        for e in range(remaining // degree + 1):
            rec(pos + 1, remaining - e * degree, key + e * units[pos], weight + e * weights[pos])

    rec(0, n, 0, 0)
    return groups


def basis_of_degree(sig: Signature, n: int) -> tuple:
    """All monomials of total degree exactly n, lexicographic on exponent vectors.

    Finite for every fixed n even with polynomial generators. The one group
    of ``_keys_by_weight`` with every weight 0, as ``Monomial``s; cached on
    the signature.
    """
    cached = sig._basis_cache.get(n)
    if cached is None:
        keys = _keys_by_weight(sig, n, (0,) * len(sig.generators)).get(0, ())
        cached = sig._basis_cache[n] = tuple(_decode(sig, key) for key in keys)
    return cached


def basis_dimensions(sig: Signature, upto: int) -> list:
    """``len(basis_of_degree(sig, n))`` for n = 0 .. upto, without enumerating.

    The weight-0 cells of ``_weight_dimensions`` with every weight 0.
    """
    cells = _weight_dimensions(sig, upto, (0,) * len(sig.generators))
    return [cell.get(0, 0) for cell in cells]


def _weight_dimensions(sig: Signature, upto: int, weights: Sequence[int]) -> list:
    """[{weight: number of degree-n monomials of that weight} for n = 0 .. upto].

    ``weights`` is as for ``_keys_by_weight``. The coefficients of
    prod_odd (1 + t^d z^w) * prod_even 1 / (1 - t^d z^w) over the generators
    of degree d and weight w, counted without enumerating: an exterior
    generator is used at most once, a polynomial one any number of times.
    """
    cells = [{0: 1}] + [{} for _ in range(upto)]
    for g in sig.generators:
        d, w = g.degree, weights[g.index]
        # Downwards each degree reads the ones below before they take g;
        # upwards after, so a polynomial generator is taken again.
        for n in range(upto, d - 1, -1) if g.is_odd else range(d, upto + 1):
            cell = cells[n]
            for v, c in cells[n - d].items():
                cell[v + w] = cell.get(v + w, 0) + c
    return cells


def basis_index(sig: Signature, n: int) -> dict:
    """Map from degree-n basis monomials to their positions; not cached.

    The engine no longer calls it: ``cohomology`` works on monomial keys.
    It stays because the perfbench tracer wraps it by name.
    """
    return {m: i for i, m in enumerate(basis_of_degree(sig, n))}


def transport(elem: Element, target: Signature, name_map: Mapping[str, str]) -> Element:
    """Rewrite an element over another signature via a name map.

    The map must be injective and order-preserving on indices (relative
    generator order unchanged), so no Koszul signs arise.
    """
    src = elem.signature
    indices = []
    for g in src.generators:
        new_name = name_map.get(g.name, g.name)
        tg = target.generator(new_name)
        if tg.degree != g.degree:
            raise ValueError(f"degree mismatch transporting {g.name!r}")
        indices.append(tg.index)
    if indices != sorted(indices):
        raise ValueError("name map does not preserve generator order")
    terms = {}
    for mono, coeff in elem.terms.items():
        exps = [0] * len(target.generators)
        for idx, e in enumerate(mono.exponents()):
            if e:
                exps[indices[idx]] = e
        terms[target.monomial(exps)] = coeff
    return Element(target, terms)
