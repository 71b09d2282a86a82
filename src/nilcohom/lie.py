"""Finite-dimensional nilpotent Lie algebra presentations and their dual CDGAs.

Structure constants are stored for index pairs i < j only; antisymmetry is
built in. The two dualizations implemented here are inverse to each other on
quadratic, purely-odd cochain algebras: the bracket-to-differential rule

    d x_k = - sum_{i<j} c_{i,j}^k  x_i x_j

and the differential-to-bracket rule reading the same constants back off.
Since d^2 = 0 on the cochains exactly when the bracket satisfies Jacobi,
construction builds the cochain CDGA of every presentation, nilpotent or
not, and lets the CDGA's own d^2 check decide; so downstream consumers can
rely on a legal bracket. The lower central series is computed on first use,
in integers, and cached: ``center`` never needs it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .algebra import Element, Monomial, Signature, _signed_sum
from .cdga import CDGA, DifferentialError
from .linalg import SparseExactMatrix, _clear_denominators, _eliminate, rank_exact
from .models import _pairs


class JacobiError(ValueError):
    """A candidate bracket violates the Jacobi identity."""


class LiePresentation:
    """Ordered basis with rational structure constants, antisymmetric by construction."""

    __slots__ = ("basis", "brackets", "name", "degrees", "_lcs")

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
        # The lower central series, computed on first use by ``_series``.
        self._lcs: Optional[tuple] = None

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
        """Build the cochain CDGA on names g0, g1, ...; its d^2 check decides.

        d^2 x_m is a sum over the triples i < j < k whose Jacobiator has a
        nonzero m-th component, so each term x_i x_j x_k of the residue names
        a failing triple; the lexicographically least one is reported.
        """
        try:
            _cochains(self, [f"g{i}" for i in range(len(self.basis))], self.name)
        except DifferentialError as err:
            masks = [mono.odd_mask for mono in err.violation.residue.terms]
            i, j, k = min(tuple(b for b in range(m.bit_length()) if m >> b & 1) for m in masks)
            names = (self.basis[i], self.basis[j], self.basis[k])
            raise JacobiError(f"Jacobi fails on triple {names}") from None

    # ---- series and flags ----------------------------------------------------

    def _lower_central_series(self) -> tuple:
        """Dimensions of L, [L,L], [L,[L,L]], ... until the series stops.

        Each step brackets every basis element with every row of the
        current basis, as integer rows with denominators cleared, and
        eliminates them; the pivot rows, frozen, are the next basis.
        """
        n = len(self.basis)
        # ad[i][j] = [X_i, X_j] as {k: c}, c an int where integral.
        ad: list = [{} for _ in range(n)]
        for (i, j), entry in self.brackets.items():
            value = {k: c.numerator if c.denominator == 1 else c for k, c in entry.items()}
            ad[i][j] = value
            ad[j][i] = {k: -c for k, c in value.items()}
        dims = [n]
        current = [{i: 1} for i in range(n)]
        while True:
            rows = {}
            for ad_i in ad:
                for v in current:
                    w: dict = {}
                    for j, a in v.items():
                        if j not in ad_i:
                            continue
                        for k, c in ad_i[j].items():
                            s = w.get(k, 0) + a * c
                            if s:
                                w[k] = s
                            else:
                                del w[k]
                    if w:
                        rows[len(rows)] = w
            _, frozen = _eliminate(_clear_denominators(rows), keep_pivot_rows=True)
            current = list(frozen.values())
            dims.append(len(current))
            if not current or dims[-1] == dims[-2]:
                break
        return tuple(dims)

    def _series(self) -> tuple:
        """The lower central series, computed on first use and cached."""
        if self._lcs is None:
            self._lcs = self._lower_central_series()
        return self._lcs

    @property
    def is_nilpotent(self) -> bool:
        return self._series()[-1] == 0

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
    pairs = _pairs(n)
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


class CenterReport(NamedTuple):
    """Exact center: kernel of the stacked adjoint action."""

    dimension: int
    vectors: tuple  # primitive coordinate tuples over the basis
    descriptions: tuple  # rendered combinations, e.g. "X_3_1"

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "basis": list(self.descriptions),
        }


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
    descriptions = tuple(
        _signed_sum((c, L.basis[i]) for i, c in enumerate(v) if c) for v in vectors
    )
    return CenterReport(len(vectors), vectors, descriptions)


def lower_central_series(L: LiePresentation) -> tuple:
    """Dimensions of L, [L,L], [L,[L,L]], ... down to 0 (nilpotent case)."""
    return L._series()


def nilpotency_class(L: LiePresentation) -> int:
    if not L.is_nilpotent:
        raise ValueError("not nilpotent")
    return len(L._series()) - 1


def chevalley_eilenberg(L: LiePresentation, name: Optional[str] = None) -> CDGA:
    """Cochain CDGA of a nilpotent presentation: one odd degree-1 generator
    per basis element, differential dual to the bracket.

    Generator names are the lowercased basis names when those stay unique,
    otherwise the basis names verbatim. d^2 = 0 is equivalent to Jacobi:
    ``LiePresentation`` decided Jacobi by building this same differential,
    and the CDGA constructor checks d^2 = 0 once more here.
    """
    if not L.is_nilpotent:
        raise ValueError("presentation is not nilpotent")
    lowered = [b.lower() for b in L.basis]
    gen_names = lowered if len(set(lowered)) == len(lowered) else list(L.basis)
    return _cochains(L, gen_names, name or f"{L.name}_cochains")


def _cochains(L: LiePresentation, gen_names: Sequence[str], name: str) -> CDGA:
    """The cochain CDGA of ``L`` on generators ``gen_names``: one odd degree-1
    generator per basis element, d x_k = - sum_{i<j} c_{i,j}^k x_i x_j.
    The CDGA constructor checks d^2 = 0, that is Jacobi."""
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
    return CDGA(sig, diffs, name=name)


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
    upper = [g.name.upper() for g in sig.generators]
    basis = upper if len(set(upper)) == len(upper) else list(sig.names)
    return LiePresentation(
        basis,
        brackets,
        name=name or f"{c.name}_dual",
        degrees=tuple(g.degree for g in sig.generators),
    )
