"""Finite-dimensional nilpotent Lie algebra presentations and their dual CDGAs.

Structure constants are stored for index pairs i < j only; antisymmetry is
built in. The Jacobi identity is checked exhaustively over basis triples at
construction, so downstream consumers can rely on a legal bracket. The two
dualizations implemented here are inverse to each other on quadratic,
purely-odd cochain algebras: the bracket-to-differential rule

    d x_k = - sum_{i<j} c_{i,j}^k  x_i x_j

and the differential-to-bracket rule reading the same constants back off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import Element, Monomial, Signature
from .cdga import CDGA
from .linalg import SparseExactMatrix, rank_exact


class JacobiError(ValueError):
    """A candidate bracket violates the Jacobi identity."""


class LiePresentation:
    """Ordered basis with rational structure constants, antisymmetric by construction."""

    __slots__ = ("basis", "brackets", "name", "degrees", "_nilpotent", "_lcs")

    def __init__(
        self,
        basis: Sequence[str],
        brackets: Mapping,
        name: str = "lie",
        degrees: Optional[Sequence[int]] = None,
    ):
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis names")
        self.name = name
        self.degrees = tuple(degrees) if degrees is not None else None
        n = len(self.basis)
        clean: dict = {}
        for (i, j), value in dict(brackets).items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            if i >= j:
                raise ValueError("brackets must be keyed by pairs i < j")
            entry = {k: Fraction(c) for k, c in dict(value).items() if c}
            for k in entry:
                if not 0 <= k < n:
                    raise ValueError("bracket value index out of range")
            if entry:
                clean[(i, j)] = entry
        self.brackets = clean
        self._check_jacobi()
        self._lcs = self._lower_central_series()
        self._nilpotent = self._lcs[-1] == 0

    # ---- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[X_i, X_j] as a sparse coordinate dict."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, u: Mapping, v: Mapping) -> dict:
        """Bilinear extension on sparse coordinate dicts."""
        out: dict = {}
        for i, a in u.items():
            if not a:
                continue
            for j, b in v.items():
                if not b:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    s = out.get(k, 0) + a * b * c
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def _check_jacobi(self) -> None:
        n = len(self.basis)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_basis(a, b)
                        for l, coeff in inner.items():
                            for m, d in self.bracket_basis(l, c).items():
                                s = acc.get(m, 0) + coeff * d
                                if s:
                                    acc[m] = s
                                else:
                                    acc.pop(m, None)
                    if acc:
                        names = (self.basis[i], self.basis[j], self.basis[k])
                        raise JacobiError(f"Jacobi fails on triple {names}")

    # ---- series and flags ----------------------------------------------------

    def _span_basis(self, vectors: Sequence[dict]) -> list:
        """Echelon basis of the span of sparse coordinate vectors."""
        from .linalg import _extend_echelon

        echelon: dict = {}
        _extend_echelon(
            echelon, ({k: Fraction(v) for k, v in vec.items() if v} for vec in vectors)
        )
        return [echelon[k] for k in sorted(echelon)]

    def _lower_central_series(self) -> tuple:
        dims = [len(self.basis)]
        current = [{i: Fraction(1)} for i in range(len(self.basis))]
        while True:
            produced = []
            for i in range(len(self.basis)):
                for v in current:
                    w = self.bracket({i: Fraction(1)}, v)
                    if w:
                        produced.append(w)
            current = self._span_basis(produced)
            dims.append(len(current))
            if not current or dims[-1] == dims[-2]:
                break
        return tuple(dims)

    @property
    def is_nilpotent(self) -> bool:
        return self._nilpotent

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiePresentation):
            return NotImplemented
        return self.basis == other.basis and self.brackets == other.brackets

    def __hash__(self) -> int:
        return hash(
            (
                self.basis,
                tuple(sorted((k, tuple(sorted(v.items()))) for k, v in self.brackets.items())),
            )
        )

    def __repr__(self) -> str:
        return f"LiePresentation({self.name}, dim {len(self.basis)})"


def u_n_presentation(n: int) -> LiePresentation:
    """Strictly upper triangular matrices: basis X_i_j for 1 <= j < i <= n.

    Basis order follows the central-series extensions, off-diagonal by
    off-diagonal: X_2_1, X_3_2, ..., X_n_(n-1), X_3_1, ..., X_n_1.
    Brackets of elementary matrices: [X_ij, X_st] is -X_it when j = s and
    i != t, X_sj when i = t and j != s, else zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    pairs = sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, i)),
        key=lambda ij: (ij[0] - ij[1], ij[1]),
    )
    index = {ij: pos for pos, ij in enumerate(pairs)}
    basis = [f"X_{i}_{j}" for (i, j) in pairs]
    brackets: dict = {}

    def put(a: int, b: int, target: tuple, coeff: int) -> None:
        if a > b:
            a, b, coeff = b, a, -coeff
        entry = brackets.setdefault((a, b), {})
        k = index[target]
        entry[k] = entry.get(k, 0) + coeff

    for (i, j) in pairs:
        for (s, t) in pairs:
            if index[(i, j)] >= index[(s, t)]:
                continue
            if j == s and i != t:
                put(index[(i, j)], index[(s, t)], (i, t), -1)
            elif i == t and j != s:
                put(index[(i, j)], index[(s, t)], (s, j), 1)
    return LiePresentation(basis, brackets, name=f"u{n}")


def abelian_presentation(k: int, prefix: str = "X") -> LiePresentation:
    """Abelian Lie algebra on k generators; every bracket vanishes."""
    if k < 1:
        raise ValueError("need k >= 1")
    return LiePresentation([f"{prefix}{i}" for i in range(1, k + 1)], {}, name=f"abelian{k}")


@dataclass(frozen=True)
class CenterReport:
    """Exact center: kernel of the stacked adjoint action."""

    dimension: int
    vectors: tuple  # primitive coordinate tuples over the basis
    descriptions: tuple  # rendered combinations, e.g. "X_3_1"

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "basis": list(self.descriptions),
        }


def _render_combination(basis: Sequence[str], vec: Sequence) -> str:
    parts = []
    for i, c in enumerate(vec):
        if not c:
            continue
        if c == 1:
            term = basis[i]
        elif c == -1:
            term = f"-{basis[i]}"
        else:
            term = f"{c}*{basis[i]}"
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def center(L: LiePresentation) -> CenterReport:
    """Kernel of v -> ([v, X_b])_b, solved exactly; no reliance on the basis
    containing a central element."""
    n = len(L.basis)
    entries = {}
    for b in range(n):
        for i in range(n):
            for k, c in L.bracket_basis(i, b).items():
                entries[(b * n + k, i)] = c
    result = rank_exact(SparseExactMatrix(n * n, n, entries))
    vectors = result.kernel_basis
    descriptions = tuple(_render_combination(L.basis, v) for v in vectors)
    return CenterReport(len(vectors), vectors, descriptions)


def lower_central_series(L: LiePresentation) -> tuple:
    """Dimensions of L, [L,L], [L,[L,L]], ... down to 0 (nilpotent case)."""
    return L._lcs


def nilpotency_class(L: LiePresentation) -> int:
    if not L.is_nilpotent:
        raise ValueError("not nilpotent")
    return len(L._lcs) - 1


def _dual_name_down(name: str) -> str:
    return name.lower()


def _dual_name_up(name: str) -> str:
    return name.upper()


def chevalley_eilenberg(L: LiePresentation, name: Optional[str] = None) -> CDGA:
    """Cochain CDGA of a nilpotent presentation: one odd degree-1 generator
    per basis element, differential dual to the bracket.

    Generator names are the lowercased basis names when those stay unique,
    otherwise the basis names verbatim. d^2 = 0 is equivalent to Jacobi and
    is re-verified by construction.
    """
    if not L.is_nilpotent:
        raise ValueError("presentation is not nilpotent")
    lowered = [_dual_name_down(b) for b in L.basis]
    gen_names = lowered if len(set(lowered)) == len(lowered) else list(L.basis)
    sig = Signature([(g, 1) for g in gen_names])
    diffs = {g: Element.zero(sig) for g in gen_names}
    by_target: dict = {}
    for (i, j), entry in L.brackets.items():
        for k, c in entry.items():
            by_target.setdefault(k, {})[(i, j)] = -c
    for k, terms in by_target.items():
        diffs[gen_names[k]] = Element(
            sig, {Monomial(sig, (1 << i) | (1 << j), ()): c for (i, j), c in terms.items()}
        )
    return CDGA(sig, diffs, name=name or f"{L.name}_cochains")


def dual_homotopy_lie(c: CDGA, name: Optional[str] = None) -> LiePresentation:
    """Bracket presentation dual to a purely quadratic differential.

    Requires every generator odd and every differential a combination of
    products of exactly two generators. The desuspension degree shift is kept
    as metadata only; since all generators stay odd, the degree-1 rule needs
    no extra signs.
    """
    sig = c.signature
    if not sig.is_purely_odd:
        raise ValueError("dualization needs a purely odd signature")
    brackets: dict = {}
    for g in sig.generators:
        dg = c.d_of(g.name)
        for mono, coeff in dg.terms.items():
            if mono.odd_mask.bit_count() != 2 or any(mono.even_exps):
                raise ValueError(
                    f"differential of {g.name!r} is not purely quadratic"
                )
            mask = mono.odd_mask
            low = mask & -mask
            i = low.bit_length() - 1
            j = (mask ^ low).bit_length() - 1
            ij = (sig.odd_indices[i], sig.odd_indices[j])
            brackets.setdefault(ij, {})[g.index] = -coeff
    upper = [_dual_name_up(g.name) for g in sig.generators]
    basis = upper if len(set(upper)) == len(upper) else list(sig.names)
    return LiePresentation(
        basis,
        brackets,
        name=name or f"{c.name}_dual",
        degrees=tuple(g.degree for g in sig.generators),
    )
