"""Betti tables, representative cocycles, class verification, and tensor products."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    Element,
    Signature,
    basis_dimensions,
    basis_index,
    basis_of_degree,
    transport,
)
from .cdga import CDGA
from .linalg import ConsistencyError, _extend_echelon, _kernel, _rank_of_rows


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


# ``betti`` forks only when the degrees left to rank hold this many basis
# monomials. Measured on a 2-core VM: at 386..1562 monomials (u_5, X_9,
# u_7 truncated at 4) forking saved at most 2 ms and lost up to 4 ms where
# one degree dominates; at 1941..7547 (u_6 truncated at 5 and 6, u_7 at 5)
# it saved 12..24%.
FORK_MIN_MONOMIALS = 2000


def _fork_workers(jobs: Optional[int], degrees: int, monomials: int) -> int:
    """How many child processes should rank ``degrees`` degrees; 0 or 1 means none."""
    threading = sys.modules.get("threading")
    if (
        jobs is None
        or jobs < 2
        or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
        or monomials < FORK_MIN_MONOMIALS
    ):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, cpus or 1, degrees)


def _shares(cost: dict, workers: int) -> list:
    """Split the degrees, keys of ``cost``, into ``workers`` nonempty shares.

    Longest first: each degree, costliest first (lowest degree on ties),
    joins the share with the least total cost so far (lowest share on ties).
    """
    loads = [[0, k, []] for k in range(workers)]
    for n in sorted(cost, key=lambda n: (-cost[n], n)):
        least = min(loads, key=lambda load: load[:2])
        least[0] += cost[n]
        least[2].append(n)
    return [share for _, _, share in loads]


def _rank_share(cdga: CDGA, share: list, fd: int) -> None:
    """In a forked child: write "degree:rank" pairs for ``share`` to ``fd``, then exit.

    Leaves through ``os._exit``, with status 0 only once every rank is
    written, so no parent cleanup (atexit, buffered output) runs twice.
    """
    status = 1
    try:
        text = " ".join(f"{n}:{_rank_of_rows(cdga._integer_rows(n))}" for n in share)
        with open(fd, "wb") as pipe:
            pipe.write(text.encode())
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _ranks_in_children(cdga: CDGA, shares: list) -> dict:
    """{degree: rank of d_degree} in degree order, one forked child per share.

    Every child is reaped before this returns or raises; children still
    running when something fails are killed first. Raises RuntimeError when
    a child exits nonzero or leaves out a degree of its share.
    """
    children = []
    pipes = []
    ranks = {}
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _rank_share(cdga, share, write_fd)
            finally:
                os.close(write_fd)
            children.append((pid, share, read_fd))
        while children:
            pid, share, read_fd = children[0]
            chunks = []
            while chunk := os.read(read_fd, 1 << 16):
                chunks.append(chunk)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            pairs = [pair.split(b":") for pair in b"".join(chunks).split()]
            if code or sorted(int(n) for n, _ in pairs) != sorted(share):
                raise RuntimeError(f"rank worker for degrees {share} failed (exit status {code})")
            ranks.update((int(n), int(rank)) for n, rank in pairs)
    finally:
        for fd in pipes:
            os.close(fd)
        if children:
            import signal  # only on failure: ``import nilcohom`` stays as lean as before

            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return dict(sorted(ranks.items()))


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
    mirrored ranks join the rank cache after the ranked ones. Otherwise every
    degree of the window is ranked. Ranks come from integer rows assembled
    directly from d, so no differential matrix is built or cached, and are
    eliminated with the rank-only pivot rule. dim_n is counted from the
    generator degrees, not enumerated.

    With ``jobs`` >= 2, ``os.fork`` available, a single running thread and
    at least ``FORK_MIN_MONOMIALS`` basis monomials in the degrees left to
    rank, the degrees are ranked in up to min(jobs, usable CPUs, degrees)
    forked child processes, each sending back only its ranks. Otherwise,
    and always with the default ``jobs=None``, they are ranked in order in
    this process. Both give the same table and the same rank cache.
    """
    degrees = _degree_range(cdga)
    mirror = _mirror_top(cdga)
    ranked = degrees if mirror is None else range((mirror - 1) // 2 + 1)
    todo = [n for n in ranked if n not in cdga._rank_cache]
    dims = basis_dimensions(cdga.signature, degrees[-1] + 1)
    workers = _fork_workers(jobs, len(todo), sum(dims[n] for n in todo))
    if workers > 1:
        cost = {n: dims[n] * dims[n + 1] for n in todo}
        cdga._rank_cache.update(_ranks_in_children(cdga, _shares(cost, workers)))
    else:
        for n in todo:
            cdga._rank_cache[n] = _rank_of_rows(cdga._integer_rows(n))
    if mirror is not None:
        for n in ranked:
            cdga._rank_cache.setdefault(mirror - 1 - n, cdga._rank_cache[n])
        cdga._rank_cache.setdefault(mirror, 0)
    ranks = cdga._rank_cache
    per_degree = [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in degrees]
    top = cdga.top_degree()
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
