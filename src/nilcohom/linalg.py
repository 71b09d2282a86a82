"""Exact rank, kernel, and quotient computations for sparse rational matrices.

The eliminator clears denominators row-wise with ``_clear_denominators``
(which changes neither rank nor kernel) and runs one cross-multiplication
elimination core, ``_eliminate``: exact over the integers with row GCD
normalization, or modulo a prime for the multimodular rank bounds.
Every elimination takes its matrix or block as one piece. A step touches
only the rows and columns of its own connected component of the nonzero
pattern, so each component gets the pivots it would get alone; only their
interleaving differs. Every elimination pivots by one rule, the column
count: the column with the fewest live rows, lowest column on ties, then
in it the row with the fewest entries, lowest row id on ties (Markowitz
1957; Dumas-Villard 2002). It depends only on matrix content, so results,
including the pivot columns and kernel vectors that ``rank_exact`` and
``cohomology.representatives`` show, are deterministic. ``_eliminate``
keeps the columns in a heap of (live rows, column), so a pivot costs a few
heap steps instead of a scan of every live column.

``_row_pivots`` eliminates integer rows and returns the pivots, whose
number is the rank: ``rank_only`` feeds it the rows of a matrix, and
``cohomology.betti`` the columns of d that ``CDGA._block_columns``
assembles for one torus-weight block without building a matrix, keyed by
target monomial. Their pivot targets are the rows that clearing drops
from the sources of the next degree. ``rank_multimodular`` ranks mod p
through ``_rank_mod_p``, which reduces the rows and hands them to
``_row_pivots``. ``lie`` keeps the frozen pivot rows of ``_eliminate`` as
the next term of a lower central series.

Kernel and quotient work on sparse vectors, dicts from index to Fraction.
``_kernel`` takes integer rows, as ``_row_pivots`` does, so
``cohomology.representatives`` hands it one torus-weight block of d built
from monomial keys, with no matrix; it back-substitutes one primitive
integer vector per free column, in int arithmetic, over only the pivot
rows that the free column reaches. ``_extend_echelon`` is the one
reduce-and-insert routine: ``_quotient``, which picks cocycles modulo
boundaries by index, and the representatives and class checks in
``cohomology`` reduce through it. The public ``rank_exact`` and
``quotient_representatives`` wrap ``_kernel`` and ``_quotient`` with
dense tuples.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "SparseExactMatrix":
        """Adopt entries already known to be in range, nonzero and Fraction."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

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
        # Integral entries multiply as ints, far cheaper than Fraction.
        by_row: dict = {}
        for (k, c), w in other.entries.items():
            by_row.setdefault(k, []).append((c, w.numerator if w.denominator == 1 else w))
        acc: dict = {}
        for (r, k), v in self.entries.items():
            v = v.numerator if v.denominator == 1 else v
            for c, w in by_row.get(k, ()):
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


class RankResult(NamedTuple):
    """Exact rank with a kernel basis; rank + len(kernel_basis) == cols."""

    rank: int
    kernel_basis: tuple
    pivot_columns: tuple


class MultimodularCertificate(NamedTuple):
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


def _clear_denominators(rows: dict) -> dict:
    """Rows {row: {col: rational}} scaled by their denominators' lcm, as ints.

    Accepts int and Fraction entries alike; row and column order are kept.
    """
    out = {}
    for r, row in rows.items():
        den = 1
        for v in row.values():
            d = v.denominator
            den = den // gcd(den, d) * d
        out[r] = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    return out


def _integer_rows(m: SparseExactMatrix) -> dict:
    """Rows as integer dicts after clearing denominators row-wise."""
    rows: dict = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return _clear_denominators(rows)


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
    mod p and without normalization. Each pivot follows the count rule: the
    column with the fewest live rows, lowest column on ties, then in it the
    row with the fewest entries, lowest row id on ties. It depends on matrix
    content alone, never on dict or set iteration order. Emptied column
    sets are dropped.
    ``pivots`` is the list of (row, col) in elimination order;
    ``frozen_rows`` maps pivot row id to its content at freeze time (support
    only on its own and later pivot columns plus free columns), empty unless
    requested.

    A column with one live row (an apparent pair, as Ripser calls it: most
    pivots of the u_n blocks) takes that row without a step: there is no
    row to pick among and none to eliminate, so only the row's columns are
    updated. The pivot sequence and the frozen rows are those of the
    general step.
    """
    col_rows: dict = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    pivots = []
    frozen = {}
    # The columns sit in a heap of (live rows, column) instead of being
    # scanned per pivot. A step changes the counts of the pivot row's columns
    # only, and those are pushed again; an entry whose column is gone or
    # whose count is out of date is dropped when it surfaces, so the top
    # valid entry is the least (count, column).
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapify(heap)
    while col_rows:
        count, c = heap[0]
        while c not in col_rows or len(col_rows[c]) != count:
            heappop(heap)
            count, c = heap[0]
        if count == 1:
            # The only row of its column: there is nothing to eliminate.
            (r,) = col_rows[c]
            others = ()
        else:
            _, r = min((len(rows[r]), r) for r in col_rows[c])
            others = [i for i in col_rows[c] if i != r]
        pivot_row = rows[r]
        p = pivot_row[c]
        # Over Z, p*row - a*pivot_row for p = -1 is row + a*pivot_row negated;
        # the sign changes neither support nor rank nor back-substitution.
        fold = modulus is None and p == -1
        for i in others:
            row_i = rows[i]
            a = row_i.pop(c)
            col_rows[c].discard(i)
            if fold:
                a = -a
            elif p != 1:
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
                    rs = col_rows[j]
                    rs.discard(i)
                    if not rs:
                        del col_rows[j]
            if modulus is None:
                _normalize_row(row_i)
        for j in pivot_row:
            rs = col_rows[j]
            rs.discard(r)
            if rs:
                heappush(heap, (len(rs), j))
            else:
                del col_rows[j]
        pivots.append((r, c))
        if keep_pivot_rows:
            frozen[r] = pivot_row
        del rows[r]
    return pivots, frozen


def _kernel(rows: dict, cols: int) -> tuple:
    """Sorted pivot columns and a sparse kernel basis of the nonempty integer
    rows {row: {col: int}} on columns 0 .. ``cols`` - 1, left unmodified.

    The rows are eliminated as one piece. The basis has one primitive
    integer vector per free column, ordered by free column, as a dict from
    index to Fraction, sorted by index, with positive entry at its free
    column; ``rank_exact`` is this spread into dense tuples.

    A frozen pivot row holds its own pivot column, the pivot columns of
    rows eliminated after it and free columns. So free column f reaches
    the rows that hold f, then the rows that hold the pivot column of a row
    reached, and so on; every other row gives 0 at its pivot column, and a
    zero column reaches none. The vector of f back-substitutes over the
    rows it reaches only, latest eliminated first, in integers: it is kept
    as y / D with y integral and D = y at f, starting from y = 1 there.
    When the pivot p does not divide s, the sum of the row's other terms, y
    is scaled by k = |p| / gcd(s, p) first, so y_c = -s / p is an integer
    prime to k. y ends primitive and positive at f: for each prime q of D,
    the last scaling by a multiple of q left an entry prime to q, and no
    later factor has q.
    """
    pivots, frozen = _eliminate({r: dict(row) for r, row in rows.items()}, keep_pivot_rows=True)
    steps = [(c, frozen[r]) for r, c in pivots]
    pivot_columns = {c for c, _ in steps}
    holders: dict = {}
    for i, (c, row) in enumerate(steps):
        for j in row:
            if j != c:
                holders.setdefault(j, []).append(i)
    kernel = []
    for f in range(cols):
        if f in pivot_columns:
            continue
        reached = set()
        stack = [f]
        while stack:
            for i in holders.get(stack.pop(), ()):
                if i not in reached:
                    reached.add(i)
                    stack.append(steps[i][0])
        y = {f: 1}
        for i in sorted(reached, reverse=True):
            c, row = steps[i]
            s = 0
            for j, v in row.items():
                if j != c and j in y:
                    s += v * y[j]
            if s:
                p = row[c]
                if s % p:
                    k = abs(p) // gcd(s, p)
                    for j in y:
                        y[j] *= k
                    s *= k
                y[c] = -s // p
        kernel.append({j: Fraction(y[j]) for j in sorted(y)})
    return sorted(pivot_columns), kernel


def rank_exact(m: SparseExactMatrix) -> RankResult:
    """Exact rank over Q with an exact kernel basis and pivot columns.

    Kernel vectors are primitive integer vectors, one per free column,
    ordered by free column index; the entry at the free column is positive.
    """
    pivot_columns, vectors = _kernel(_integer_rows(m), m.cols)
    zero = Fraction(0)
    kernel = []
    for vec in vectors:
        dense = [zero] * m.cols
        for j, v in vec.items():
            dense[j] = v
        kernel.append(tuple(dense))
    return RankResult(
        rank=len(pivot_columns),
        kernel_basis=tuple(kernel),
        pivot_columns=tuple(pivot_columns),
    )


def _row_pivots(rows: dict, modulus: Optional[int] = None) -> list:
    """Pivots (row, col) of an elimination of nonempty integer rows {row: {col: int}}.

    Their number is the rank: over Z, or over Z/p for the prime ``modulus``
    on entries already reduced mod p. The rows are eliminated in place, as
    one piece, by ``_eliminate``. A single row is its own pivot, at its
    lowest column as the count rule picks, and needs no elimination.
    """
    if len(rows) < 2:
        return [(r, min(row)) for r, row in rows.items()]
    return _eliminate(rows, keep_pivot_rows=False, modulus=modulus)[0]


def rank_only(m: SparseExactMatrix) -> int:
    """Exact rank without kernel bookkeeping.

    Eliminates the whole matrix as one piece, by the same rule as
    ``rank_exact``, but keeps no pivot rows for back-substitution.
    """
    return len(_row_pivots(_integer_rows(m)))


# ---------------------------------------------------------------------------
# quotient representatives


def _extend_echelon(echelon: dict, vectors: Iterable[dict]) -> list:
    """Reduce sparse vectors in turn against echelon rows keyed by pivot index.

    Each nonzero residue joins ``echelon`` under its least index before the
    next vector is reduced. Returns the residues in input order, an empty
    dict for a vector already in the span; the inputs are not modified.
    """
    residues = []
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = echelon.get(lead)
            if row is None:
                echelon[lead] = vec
                break
            factor = vec[lead] / row[lead]
            for j, v in row.items():
                s = vec.get(j, 0) - factor * v
                if s:
                    vec[j] = s
                else:
                    vec.pop(j, None)
        residues.append(vec)
    return residues


def _sparse(vec: Sequence) -> dict:
    return {j: Fraction(v) for j, v in enumerate(vec) if v}


def _quotient(cocycles: Sequence[dict], boundaries: Sequence[dict]) -> list:
    """Indices of the sparse cocycles whose classes complete the boundaries.

    Vectors are dicts from coordinate to Fraction in one fixed basis. The
    chosen indices are increasing, and their classes extend the boundary
    span to the cocycle span. Raises ConsistencyError when some boundary is
    not in the cocycle span, which can only happen if an upstream
    differential is broken.
    """
    cocycle_echelon: dict = {}
    _extend_echelon(cocycle_echelon, cocycles)
    if any(_extend_echelon(cocycle_echelon, boundaries)):
        raise ConsistencyError("boundary vector outside the cocycle span")
    echelon: dict = {}
    _extend_echelon(echelon, boundaries)
    return [i for i, residue in enumerate(_extend_echelon(echelon, cocycles)) if residue]


def quotient_representatives(cocycles: Iterable, boundaries: Iterable) -> list:
    """Vectors completing the boundary span to the cocycle span.

    Input vectors are coordinate sequences in one fixed basis. Returns the
    original cocycle vectors whose classes extend the boundaries to a basis,
    in input order; the count is the Betti number. Raises ConsistencyError
    when some boundary is not in the cocycle span, which can only happen if
    an upstream differential is broken.
    """
    cocycles = [tuple(Fraction(v) for v in vec) for vec in cocycles]
    chosen = _quotient([_sparse(v) for v in cocycles], [_sparse(v) for v in boundaries])
    return [cocycles[i] for i in chosen]


# ---------------------------------------------------------------------------
# multimodular path


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson and Webster 2015).
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_LIMIT."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rank_mod_p(rows: dict, p: int):
    """Pivots of the integer rows reduced mod p, eliminated over Z/p."""
    mod_rows = {}
    for r, row in rows.items():
        mr = {c: v % p for c, v in row.items() if v % p}
        if mr:
            mod_rows[r] = mr
    return _row_pivots(mod_rows, modulus=p)


def rank_multimodular(
    m: SparseExactMatrix, primes: Sequence[int], confirm: bool = True
) -> MultimodularCertificate:
    """Lower bound on the rank as the max of ranks modulo the given primes.

    The bound never exceeds the exact rank. Equality is flagged only when
    verified: via the exact rank of a full-size mod-p pivot minor when the
    bound reaches min(rows, cols), or via full exact elimination when
    ``confirm`` is set. Every modulus must be a prime below 3.18e23, the
    range where the deterministic Miller-Rabin test used here is exact;
    anything else (0, 1, negatives, composites, larger numbers) raises
    ValueError.
    """
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not 2 <= p < _MR_LIMIT or not _is_prime(p):
            raise ValueError(f"modulus {p} is not a prime below {_MR_LIMIT}")
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
