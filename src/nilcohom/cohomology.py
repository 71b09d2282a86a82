"""Betti tables, representative cocycles, class verification, and tensor products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Element, Signature, basis_index, basis_of_degree, transport
from .cdga import CDGA
from .linalg import _reduce_against, _sparse, rank_exact, rank_only


def _rank_of_degree(cdga: CDGA, n: int) -> int:
    """rank of d_n, cached on the CDGA; adjacent degrees share the result."""
    cached = cdga._rank_cache.get(n)
    if cached is None:
        cached = cdga._rank_cache[n] = rank_only(cdga.differential_matrix(n))
    return cached


def _degree_range(cdga: CDGA) -> range:
    """Degrees n for which b_n is computable (rank d_n needs basis at n+1)."""
    top = cdga.top_degree()
    if top is not None:
        if cdga.truncation is not None and cdga.truncation <= top:
            return range(cdga.truncation)
        return range(top + 1)
    if cdga.truncation is None:
        raise ValueError("infinite signature requires a truncation degree")
    return range(cdga.truncation)


@dataclass(frozen=True)
class BettiTable:
    """Per-degree cohomology dimensions; total is their sum."""

    per_degree: tuple
    total: int
    truncated_at: Optional[int] = None

    def b(self, n: int) -> int:
        if 0 <= n < len(self.per_degree):
            return self.per_degree[n]
        return 0

    def to_json_dict(self) -> dict:
        return {
            "per_degree": list(self.per_degree),
            "total": self.total,
            "truncated_at": self.truncated_at,
        }


def betti(cdga: CDGA, jobs: Optional[int] = None) -> BettiTable:
    """Exact Betti numbers: b_n = dim_n - rank(d_n) - rank(d_(n-1)).

    For purely odd signatures the whole table is produced; otherwise degrees
    0 .. truncation-1 are reported and ``truncated_at`` records the window.
    Degrees are ranked in order in this thread; ``jobs`` is accepted for API
    stability and does not change the computation.
    """
    degrees = _degree_range(cdga)
    ranks = [_rank_of_degree(cdga, n) for n in degrees]
    dims = [len(basis_of_degree(cdga.signature, n)) for n in degrees]
    per_degree = []
    for n in degrees:
        below = ranks[n - 1] if n > 0 else 0
        per_degree.append(dims[n] - ranks[n] - below)
    top = cdga.top_degree()
    truncated = top is None or (cdga.truncation is not None and cdga.truncation <= top)
    return BettiTable(
        tuple(per_degree), sum(per_degree), cdga.truncation if truncated else None
    )


def _element_vector(elem: Element, degree: int) -> tuple:
    index = basis_index(elem.signature, degree)
    vec = [Fraction(0)] * len(index)
    for mono, coeff in elem.terms.items():
        vec[index[mono]] = coeff
    return tuple(vec)


def _vector_element(sig: Signature, degree: int, vec: Sequence) -> Element:
    basis = basis_of_degree(sig, degree)
    return Element(sig, {basis[i]: v for i, v in enumerate(vec) if v})


def _boundary_vectors(cdga: CDGA, n: int) -> list:
    """Images of the degree-(n-1) basis under d, as degree-n coordinate vectors."""
    if n == 0:
        return []
    matrix = cdga.differential_matrix(n - 1)
    cols: dict = {}
    for (r, c), v in matrix.entries.items():
        cols.setdefault(c, {})[r] = v
    out = []
    for c in sorted(cols):
        vec = [Fraction(0)] * matrix.rows
        for r, v in cols[c].items():
            vec[r] = v
        out.append(tuple(vec))
    return out


def representatives(cdga: CDGA, n: int) -> list:
    """Closed elements whose classes form a basis of H^n; deterministic."""
    from .linalg import quotient_representatives

    if n not in _degree_range(cdga):
        if cdga.top_degree() is not None and n > cdga.top_degree():
            return []
        raise ValueError(f"degree {n} outside the computable window")
    cocycles = rank_exact(cdga.differential_matrix(n)).kernel_basis
    boundaries = _boundary_vectors(cdga, n)
    vectors = quotient_representatives(cocycles, boundaries)
    return [_vector_element(cdga.signature, n, vec) for vec in vectors]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a proposed list of cohomology generators."""

    all_closed: bool
    independent: bool
    spanning: bool
    non_closed: tuple = ()
    dependency: Optional[tuple] = None
    missing_degrees: tuple = ()

    @property
    def ok(self) -> bool:
        return self.all_closed and self.independent and self.spanning

    def to_json_dict(self) -> dict:
        return {
            "all_closed": self.all_closed,
            "independent": self.independent,
            "spanning": self.spanning,
            "non_closed_indices": list(self.non_closed),
            "dependency": (
                None
                if self.dependency is None
                else [{"index": i, "coefficient": str(c)} for i, c in self.dependency]
            ),
            "missing_degrees": [
                {"degree": d, "have": h, "need": b} for d, h, b in self.missing_degrees
            ],
        }


def verify_classes(cdga: CDGA, elems: Sequence[Element]) -> VerifyReport:
    """Check closedness, independence mod boundaries, and spanning.

    ``dependency`` witnesses a vanishing combination of classes as
    ((index, coefficient), ...); an element whose class is zero appears as a
    single-term dependency. ``missing_degrees`` lists (degree, have, need).
    """
    degrees = []
    for i, e in enumerate(elems):
        if e.signature != cdga.signature:
            raise ValueError(f"element {i} lives over a different signature")
        d = e.homogeneous_degree()
        if d is None:
            raise ValueError(f"element {i} is not homogeneous")
        degrees.append(d)

    non_closed = tuple(
        i for i, e in enumerate(elems) if not cdga.apply_d(e).is_zero()
    )

    # Independence mod boundaries, degree by degree. Element i carries a tag
    # coordinate dim + i set to 1, and one echelon holds the boundaries and
    # the classes accepted so far; a residue left with only tag entries is
    # an explicit vanishing combination of classes.
    dependency = None
    independent_count: dict = {}
    by_degree: dict = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    for d in sorted(by_degree):
        dim = len(basis_of_degree(cdga.signature, d))
        echelon: dict = {}
        for b in _boundary_vectors(cdga, d):
            residue = _reduce_against(echelon, _sparse(b))
            if residue:
                echelon[min(residue)] = residue
        for i in by_degree[d]:
            vec = _sparse(_element_vector(elems[i], d))
            vec[dim + i] = Fraction(1)
            residue = _reduce_against(echelon, vec)
            lead = min(residue)
            if lead < dim:
                echelon[lead] = residue
                independent_count[d] = independent_count.get(d, 0) + 1
            elif dependency is None:
                dependency = tuple(sorted((j - dim, v) for j, v in residue.items()))

    table = betti(cdga)
    missing = []
    for d in _degree_range(cdga):
        have = independent_count.get(d, 0)
        need = table.b(d)
        if have < need:
            missing.append((d, have, need))

    return VerifyReport(
        all_closed=not non_closed,
        independent=dependency is None,
        spanning=not missing,
        non_closed=non_closed,
        dependency=dependency,
        missing_degrees=tuple(missing),
    )


def tensor_product(a: CDGA, b: CDGA, name: Optional[str] = None) -> CDGA:
    """Tensor product CDGA; totals multiply by the Kunneth formula.

    Left generator names are kept; a right name clashing with a left one gets
    the first free "_2", "_3", ... suffix.
    """
    taken = set(a.signature.names)
    name_map = {}
    for g in b.signature.generators:
        new = g.name
        suffix = 2
        while new in taken:
            new = f"{g.name}_{suffix}"
            suffix += 1
        name_map[g.name] = new
        taken.add(new)
    sig = Signature(
        [(g.name, g.degree) for g in a.signature.generators]
        + [(name_map[g.name], g.degree) for g in b.signature.generators]
    )
    diffs = {}
    for g in a.signature.generators:
        diffs[g.name] = transport(a.d_of(g.name), sig, {})
    for g in b.signature.generators:
        diffs[name_map[g.name]] = transport(b.d_of(g.name), sig, name_map)
    truncation = None
    if not sig.is_purely_odd:
        windows = [t for t in (a.truncation, b.truncation) if t is not None]
        truncation = min(windows) if windows else None
    return CDGA(
        sig,
        diffs,
        truncation=truncation,
        name=name or f"{a.name}_x_{b.name}",
    )
