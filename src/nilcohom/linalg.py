"""Exact rank, kernel, and quotient computations for sparse rational matrices.

The eliminator clears denominators row-wise (which changes neither rank nor
kernel), splits the matrix into connected components of its nonzero pattern,
and runs one cross-multiplication elimination core per component: exact over
the integers with row GCD normalization, or modulo a prime for the
multimodular rank bounds. Pivoting is Markowitz-style and depends only on
matrix content: minimize (row_nnz-1)*(col_nnz-1), break ties by lowest column
index, then lowest row index. Results are therefore deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

Vector = tuple  # tuple of Fraction


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals an upstream bug, not bad input."""


class SparseExactMatrix:
    """Immutable sparse matrix over Q; no stored zeros, indices validated."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in dict(entries).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range for {rows}x{cols}")
            fv = Fraction(v)
            if fv:
                clean[(r, c)] = fv
        self.entries = clean

    @classmethod
    def from_dense(cls, data: Sequence[Sequence]) -> "SparseExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged dense data")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = Fraction(v)
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseExactMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseExactMatrix":
        return SparseExactMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def column_vector(self, j: int) -> Vector:
        col = [Fraction(0)] * self.rows
        for (r, c), v in self.entries.items():
            if c == j:
                col[r] = v
        return tuple(col)

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * Fraction(vec[c])
        return tuple(out)

    def __matmul__(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row: dict = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, {})[k] = v
        by_col: dict = {}
        for (k, c), v in other.entries.items():
            by_col.setdefault(k, []).append((c, v))
        acc: dict = {}
        for r, row in by_row.items():
            for k, v in row.items():
                for c, w in by_col.get(k, ()):
                    key = (r, c)
                    s = acc.get(key, 0) + v * w
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
        return SparseExactMatrix(self.rows, other.cols, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseExactMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


@dataclass(frozen=True)
class RankResult:
    """Exact rank with a kernel basis; rank + len(kernel_basis) == cols."""

    rank: int
    kernel_basis: tuple
    pivot_columns: tuple


@dataclass(frozen=True)
class MultimodularCertificate:
    """Lower-bound certificate from ranks modulo primes.

    ``bound`` never exceeds the exact rank. ``confirmed`` is set only when
    equality was established, either by exact elimination (``method="exact"``)
    or by a full-size minor found mod p whose exact rank was verified
    (``method="minor"``); ``exact_rank`` is filled when the exact path ran.
    """

    bound: int
    per_prime: tuple
    confirmed: bool
    method: Optional[str]
    exact_rank: Optional[int]


# ---------------------------------------------------------------------------
# elimination core


def _integer_rows(m: SparseExactMatrix) -> dict:
    """Rows as integer dicts after clearing denominators row-wise."""
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    out = {}
    for r, row in rows.items():
        den = 1
        for v in row.values():
            d = v.denominator
            den = den // gcd(den, d) * d
        out[r] = {c: int(v * den) for c, v in row.items()}
    return out


def _components(rows: dict) -> list:
    """Connected components of the bipartite nonzero pattern, by column.

    Returns a list of (sorted column list, row id list); deterministic order
    by smallest column. Rank of the matrix is the sum over components, which
    in graded complexes recovers the fine weight decomposition for free.
    """
    parent: dict = {}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    for row in rows.values():
        it = iter(row)
        first = next(it)
        if first not in parent:
            parent[first] = first
        a = find(first)
        for c in it:
            if c not in parent:
                parent[c] = c
            b = find(c)
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
    groups: dict = {}
    for c in parent:
        groups.setdefault(find(c), set()).add(c)
    row_groups: dict = {root: [] for root in groups}
    for r, row in rows.items():
        root = find(next(iter(row)))
        row_groups[root].append(r)
    out = []
    for root in sorted(groups):
        out.append((sorted(groups[root]), sorted(row_groups[root])))
    return out


def _normalize_row(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(rows: dict, keep_pivot_rows: bool, modulus: Optional[int] = None):
    """Cross-multiplication elimination; returns (pivots, frozen_rows).

    Exact over Z with row GCD normalization when ``modulus`` is None;
    otherwise over Z/p for the prime ``modulus``, on entries already reduced
    mod p and without normalization. ``pivots`` is the list of (row, col) in
    elimination order; ``frozen_rows`` maps pivot row id to its content at
    freeze time (support only on its own and later pivot columns plus free
    columns), empty unless requested.
    """
    col_rows: dict = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    pivots = []
    frozen = {}
    while True:
        best = None
        for c in sorted(col_rows):
            rs = col_rows[c]
            if not rs:
                continue
            cc = len(rs) - 1
            for r in sorted(rs):
                cost = (len(rows[r]) - 1) * cc
                key = (cost, c, r)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, c, r = best
        pivot_row = rows[r]
        p = pivot_row[c]
        if modulus is not None and gcd(p, modulus) != 1:
            raise ValueError(f"pivot {p} is not invertible modulo {modulus}")
        for i in list(col_rows[c]):
            if i == r:
                continue
            row_i = rows[i]
            a = row_i.pop(c)
            col_rows[c].discard(i)
            for j in row_i:  # p is nonzero, and a unit mod modulus: support kept
                row_i[j] *= p
                if modulus is not None:
                    row_i[j] %= modulus
            for j, w in pivot_row.items():
                if j == c:
                    continue
                val = row_i.get(j, 0) - a * w
                if modulus is not None:
                    val %= modulus
                if val:
                    if j not in row_i:
                        col_rows.setdefault(j, set()).add(i)
                    row_i[j] = val
                elif j in row_i:
                    del row_i[j]
                    col_rows[j].discard(i)
            if modulus is None:
                _normalize_row(row_i)
        for j in pivot_row:
            col_rows[j].discard(r)
        pivots.append((r, c))
        if keep_pivot_rows:
            frozen[r] = pivot_row
        del rows[r]
    return pivots, frozen


def _kernel_of_component(cols, pivots, frozen, ncols_total) -> list:
    """Back-substitute one free column at a time; primitive integer vectors."""
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in cols if c not in pivot_cols]
    vectors = []
    for f in free_cols:
        x = {f: Fraction(1)}
        for r, c in reversed(pivots):
            row = frozen[r]
            s = Fraction(0)
            for j, v in row.items():
                if j != c and j in x:
                    s += v * x[j]
            if s:
                x[c] = -s / row[c]
        vectors.append((f, x))
    return vectors


def _primitive(dense: list) -> tuple:
    den = 1
    for v in dense:
        d = v.denominator
        den = den // gcd(den, d) * d
    ints = [int(v * den) for v in dense]
    g = 0
    for v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def rank_exact(m: SparseExactMatrix) -> RankResult:
    """Exact rank over Q with an exact kernel basis and pivot columns.

    Kernel vectors are primitive integer vectors, one per free column,
    ordered by free column index; the entry at the free column is positive.
    """
    rows = _integer_rows(m)
    comps = _components(rows)
    pivot_columns = []
    kernel = []
    seen_cols = set()
    for cols, row_ids in comps:
        seen_cols.update(cols)
        sub = {r: dict(rows[r]) for r in row_ids}
        pivots, frozen = _eliminate(sub, keep_pivot_rows=True)
        pivot_columns.extend(c for _, c in pivots)
        for f, x in _kernel_of_component(cols, pivots, frozen, m.cols):
            dense = [x.get(j, Fraction(0)) for j in range(m.cols)]
            kernel.append((f, _primitive(dense)))
    for j in range(m.cols):
        if j not in seen_cols:
            unit = [Fraction(0)] * m.cols
            unit[j] = Fraction(1)
            kernel.append((j, tuple(unit)))
    kernel.sort(key=lambda fv: fv[0])
    return RankResult(
        rank=len(pivot_columns),
        kernel_basis=tuple(v for _, v in kernel),
        pivot_columns=tuple(sorted(pivot_columns)),
    )


def rank_only(m: SparseExactMatrix) -> int:
    """Exact rank without kernel bookkeeping; same pivoting as rank_exact."""
    rows = _integer_rows(m)
    total = 0
    for _, row_ids in _components(rows):
        sub = {r: rows[r] for r in row_ids}
        pivots, _ = _eliminate(sub, keep_pivot_rows=False)
        total += len(pivots)
    return total


# ---------------------------------------------------------------------------
# quotient representatives


def _reduce_against(echelon: dict, vec: dict) -> dict:
    """Reduce a sparse vector against echelon rows keyed by pivot index."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        row = echelon.get(lead)
        if row is None:
            return vec
        factor = vec[lead] / row[lead]
        for j, v in row.items():
            s = vec.get(j, Fraction(0)) - factor * v
            if s:
                vec[j] = s
            else:
                vec.pop(j, None)
    return vec


def _sparse(vec: Sequence) -> dict:
    return {j: Fraction(v) for j, v in enumerate(vec) if v}


def quotient_representatives(cocycles: Iterable, boundaries: Iterable) -> list:
    """Vectors completing the boundary span to the cocycle span.

    Input vectors are coordinate sequences in one fixed basis. Returns the
    original cocycle vectors whose classes extend the boundaries to a basis,
    in input order; the count is the Betti number. Raises ConsistencyError
    when some boundary is not in the cocycle span, which can only happen if
    an upstream differential is broken.
    """
    cocycles = [tuple(Fraction(v) for v in vec) for vec in cocycles]
    boundaries = [tuple(Fraction(v) for v in vec) for vec in boundaries]

    cocycle_echelon: dict = {}
    for vec in cocycles:
        residue = _reduce_against(cocycle_echelon, _sparse(vec))
        if residue:
            cocycle_echelon[min(residue)] = residue
    echelon: dict = {}
    for vec in boundaries:
        sp = _sparse(vec)
        if _reduce_against(cocycle_echelon, dict(sp)):
            raise ConsistencyError("boundary vector outside the cocycle span")
        residue = _reduce_against(echelon, sp)
        if residue:
            echelon[min(residue)] = residue
    representatives = []
    for vec in cocycles:
        residue = _reduce_against(echelon, _sparse(vec))
        if residue:
            echelon[min(residue)] = residue
            representatives.append(vec)
    return representatives


# ---------------------------------------------------------------------------
# multimodular path


def _rank_mod_p(rows: dict, p: int):
    """Rank mod p with the same core and pivot rule; returns pivots."""
    mod_rows = {}
    for r, row in rows.items():
        mr = {c: v % p for c, v in row.items() if v % p}
        if mr:
            mod_rows[r] = mr
    pivots = []
    for _, row_ids in _components(mod_rows):
        sub = {r: mod_rows[r] for r in row_ids}
        pivots.extend(_eliminate(sub, keep_pivot_rows=False, modulus=p)[0])
    return pivots


def rank_multimodular(
    m: SparseExactMatrix, primes: Sequence[int], confirm: bool = True
) -> MultimodularCertificate:
    """Lower bound on the rank as the max of ranks modulo the given primes.

    The bound never exceeds the exact rank. Equality is flagged only when
    verified: via the exact rank of a full-size mod-p pivot minor when the
    bound reaches min(rows, cols), or via full exact elimination when
    ``confirm`` is set. Raises ValueError when a pivot is not invertible
    modulo one of the given numbers, which a prime never causes.
    """
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    rows = _integer_rows(m)
    per_prime = []
    best_pivots = None
    bound = 0
    for p in primes:
        pivots = _rank_mod_p(rows, p)
        per_prime.append((p, len(pivots)))
        if len(pivots) > bound or best_pivots is None:
            bound = max(bound, len(pivots))
            if len(pivots) == bound:
                best_pivots = pivots
    if bound == min(m.rows, m.cols) and bound > 0:
        rset = {r for r, _ in best_pivots}
        cset = {c for _, c in best_pivots}
        rmap = {r: i for i, r in enumerate(sorted(rset))}
        cmap = {c: i for i, c in enumerate(sorted(cset))}
        minor = SparseExactMatrix(
            bound,
            bound,
            {
                (rmap[r], cmap[c]): v
                for (r, c), v in m.entries.items()
                if r in rset and c in cset
            },
        )
        if rank_only(minor) == bound:
            return MultimodularCertificate(
                bound=bound,
                per_prime=tuple(per_prime),
                confirmed=True,
                method="minor",
                exact_rank=bound,
            )
    if confirm:
        exact = rank_only(m)
        return MultimodularCertificate(
            bound=bound,
            per_prime=tuple(per_prime),
            confirmed=exact == bound,
            method="exact",
            exact_rank=exact,
        )
    return MultimodularCertificate(
        bound=bound, per_prime=tuple(per_prime), confirmed=False, method=None, exact_rank=None
    )
