"""Betti tables, representative cocycles, class verification, and tensor products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Element, Signature, basis_index, basis_of_degree, transport
from .cdga import CDGA
from .linalg import ConsistencyError, _extend_echelon, _kernel, _rank_of_rows


def _rank_of_degree(cdga: CDGA, n: int) -> int:
    """rank of d_n, cached on the CDGA; adjacent degrees share the result."""
    cached = cdga._rank_cache.get(n)
    if cached is None:
        cached = cdga._rank_cache[n] = _rank_of_rows(cdga._integer_rows(n))
    return cached


def _mirror_top(cdga: CDGA) -> Optional[int]:
    """The top degree when ranks mirror about it, else None.

    In a purely odd model the product into the top degree pairs degrees n
    and top - n perfectly. If moreover d_(top-1) = 0, then for x of degree n
    and y of degree top-1-n, d(xy) = 0 makes d_(top-1-n) plus or minus the
    transpose of d_n, so the two ranks agree (Lambrechts-Stanley 2008).
    """
    top = cdga.top_degree()
    if (
        not cdga.signature.is_purely_odd
        or top < 1
        or (cdga.truncation is not None and cdga.truncation <= top)
        or cdga._integer_rows(top - 1)
    ):
        return None
    return top


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
    When the window reaches the top degree of a purely odd model with
    d_(top-1) = 0, only the degrees n <= (top-1)/2 are ranked: rank d_(top-1-n)
    equals rank d_n by Poincare duality and rank d_top is 0, and these
    mirrored ranks join the rank cache too. Otherwise every degree of the
    window is ranked. Ranks come from integer rows assembled directly from d,
    so no differential matrix is built or cached, and are eliminated with the
    rank-only pivot rule. For purely odd signatures dim_n is read off the
    basis of degree min(n, top - n). Degrees are ranked in order in this
    thread; ``jobs`` is accepted for API stability and does not change the
    computation.
    """
    degrees = _degree_range(cdga)
    mirror = _mirror_top(cdga)
    if mirror is not None:
        for n in range((mirror - 1) // 2 + 1):
            cdga._rank_cache.setdefault(mirror - 1 - n, _rank_of_degree(cdga, n))
        cdga._rank_cache.setdefault(mirror, 0)
    ranks = [_rank_of_degree(cdga, n) for n in degrees]
    # A purely odd signature spans an exterior algebra, where complementing
    # monomials gives dim_n = dim_(top-n): only the lower half is enumerated.
    top = cdga.top_degree()
    dims = [
        len(basis_of_degree(cdga.signature, n if top is None else min(n, top - n)))
        for n in degrees
    ]
    per_degree = []
    for n in degrees:
        below = ranks[n - 1] if n > 0 else 0
        per_degree.append(dims[n] - ranks[n] - below)
    truncated = top is None or (cdga.truncation is not None and cdga.truncation <= top)
    return BettiTable(
        tuple(per_degree), sum(per_degree), cdga.truncation if truncated else None
    )


def _boundary_vectors(cdga: CDGA, n: int) -> list:
    """Images of the degree-(n-1) basis under d, as sparse degree-n vectors.

    These are the nonzero columns of ``differential_matrix(n - 1)`` in column
    order, each a dict from row index to Fraction.
    """
    if n == 0:
        return []
    cols: dict = {}
    for (r, c), v in cdga.differential_matrix(n - 1).entries.items():
        cols.setdefault(c, {})[r] = v
    return [cols[c] for c in sorted(cols)]


def representatives(cdga: CDGA, n: int) -> list:
    """Closed elements whose classes form a basis of H^n; deterministic.

    The classes are primitive integer kernel vectors of d_n, picked in
    free-column order. Each is nonzero at its own free column only, so the
    quotient by the image of d_(n-1) runs on boundaries projected onto the
    free columns, which is faithful once d_n o d_(n-1) = 0 is checked. The
    rank of d_n is stored in the CDGA's rank cache for a later ``betti``.
    """
    if n not in _degree_range(cdga):
        if cdga.top_degree() is not None and n > cdga.top_degree():
            return []
        raise ValueError(f"degree {n} outside the computable window")
    d_n = cdga.differential_matrix(n)
    if n and not (d_n @ cdga.differential_matrix(n - 1)).is_zero():
        raise ConsistencyError(f"d_{n} o d_{n - 1} is not zero")
    pivot_columns, cocycles = _kernel(d_n)
    cdga._rank_cache.setdefault(n, len(pivot_columns))
    pivots = set(pivot_columns)
    boundaries = _boundary_vectors(cdga, n)
    echelon: dict = {}
    _extend_echelon(echelon, ({j: v for j, v in b.items() if j not in pivots} for b in boundaries))
    units = ({f: Fraction(1)} for f in range(d_n.cols) if f not in pivots)
    basis = basis_of_degree(cdga.signature, n)
    return [
        Element(cdga.signature, {basis[j]: v for j, v in z.items()})
        for z, residue in zip(cocycles, _extend_echelon(echelon, units))
        if residue
    ]


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
    # coordinate dim + i set to 1; a residue left with only tag entries is
    # an explicit vanishing combination of classes. It still joins the
    # echelon, under a tag index, so it can only reduce tag entries of later
    # residues: later independence counts and the first dependency, the one
    # reported, do not depend on it.
    dependency = None
    independent_count: dict = {}
    by_degree: dict = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    for d in sorted(by_degree):
        index = basis_index(cdga.signature, d)
        dim = len(index)
        echelon: dict = {}
        _extend_echelon(echelon, _boundary_vectors(cdga, d))
        tagged = (
            {**{index[mono]: c for mono, c in elems[i].terms.items()}, dim + i: Fraction(1)}
            for i in by_degree[d]
        )
        for i, residue in zip(by_degree[d], _extend_echelon(echelon, tagged)):
            if min(residue) < dim:
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
