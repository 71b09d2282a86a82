"""Betti tables, representative cocycles, class verification, and tensor products."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    _EXPONENT_BITS,
    Element,
    Signature,
    _decode,
    _encode,
    _keys_by_weight,
    _weight_dimensions,
    basis_dimensions,
    transport,
)
from .cdga import CDGA
from .linalg import (
    ConsistencyError,
    _clear_denominators,
    _extend_echelon,
    _kernel,
    _row_pivots,
)


def _window_below_top(cdga: CDGA, top: int) -> bool:
    """Whether the truncation window stops at or below the top degree ``top``."""
    return cdga.truncation is not None and cdga.truncation <= top


def _mirror_top(cdga: CDGA) -> Optional[int]:
    """The top degree when ranks mirror about it, else None.

    In a purely odd model the product into the top degree pairs degrees n
    and top - n perfectly. If moreover d_(top-1) = 0, then for x of degree n
    and y of degree top-1-n, d(xy) = 0 makes d_(top-1-n) plus or minus the
    transpose of d_n, so the two ranks agree (Lambrechts-Stanley 2008).
    """
    top = cdga.top_degree()
    sig = cdga.signature
    if (
        not sig.is_purely_odd
        or top < 1
        or _window_below_top(cdga, top)
        or any(map(cdga._d_key, _keys_by_weight(sig, top - 1, (0,) * len(sig)).get(0, ())))
    ):
        return None
    return top


def _degree_range(cdga: CDGA) -> range:
    """Degrees n for which b_n is computable (rank d_n needs basis at n+1)."""
    top = cdga.top_degree()
    if top is not None:
        if _window_below_top(cdga, top):
            return range(cdga.truncation)
        return range(top + 1)
    if cdga.truncation is None:
        raise ValueError("infinite signature requires a truncation degree")
    return range(cdga.truncation)


def _rank_blocks(cdga: CDGA, degrees: list, by_weight: bool, share=None) -> tuple:
    """({n: rank d_n}, {n: source monomials}) for the increasing ``degrees``.

    Each degree is split by ``CDGA._blocks``. Each block's integer columns
    of d are assembled, eliminated with the count rule as the rows of the
    transpose and dropped before the next block. A weight block is
    eliminated whole: on u_n and X_r it is one connected component of the
    nonzero pattern. The one block of a degree not split by weight is cut
    into components first. Each pivot pairs a source with a target key, and
    the pivot targets of a block are a basis of its rows of d. With
    ``share``, {weight: copies}, only the blocks of those weights are walked
    and ranked, and each counts ``copies`` times, sources and rank; the
    counts are of the sources before clearing.

    Orbits: when the CDGA carries a checked symmetry sigma, the block of
    weight w and the block of sigma(w) have equal ranks and sizes, sigma
    being a chain isomorphism between them. Without a ``share``, the share
    is then the orbit representatives of ``_weight_costs``: a block with
    w < sigma(w) is ranked and counted twice, so the counts still add up to
    dim_n, one with w = sigma(w) once, and one with w > sigma(w) is never
    walked. The representatives do not depend on the degree, so each kept
    pivot set clears a ranked block one degree up.

    Clearing (Chen-Kerber 2011): when d_(n-1) was ranked just before, the
    pivot targets of each of its blocks, degree-n monomials of the block's
    weight, are dropped from that block's sources at degree n before d is
    expanded on them. The image of d_(n-1) lies in ker d_n and projects
    onto their coordinates, so each dropped column of d_n is a combination
    of the kept ones and the rank is unchanged; d^2 = 0 is all this needs.
    """
    if share is None and by_weight and cdga._weight_lattice().mirrors is not None:
        share = {w: copies for w, (_, copies) in _weight_costs(cdga, degrees).items()}
    ranks: dict = {}
    counts: dict = {}
    pivot_keys: dict = {}
    for n in degrees:
        blocks = cdga._blocks(n, by_weight, share)
        cleared = pivot_keys if n - 1 in ranks else {}
        pivot_keys = {}
        clears_next = n + 1 in degrees
        rank = count = 0
        for weight in list(blocks):
            keys = blocks.pop(weight)
            copies = 1 if share is None else share[weight]
            count += copies * len(keys)
            drop = cleared.pop(weight, None)
            columns = cdga._block_columns([k for k in keys if k not in drop] if drop else keys)
            pivots = _row_pivots(columns, split=not by_weight)
            rank += copies * len(pivots)
            if clears_next:
                pivot_keys[weight] = {key for _, key in pivots}
        ranks[n] = rank
        counts[n] = count
    return ranks, counts


# ``betti`` forks only when the degrees left to rank hold this many basis
# monomials. Measured on a 2-core VM with weight shares and clearing: at
# 1024..1562 monomials (X_9, u_7 truncated at 4) forking lost 15..76%, at
# 1941 (u_6 truncated at 5) it broke even, and at 4944..7547 (u_6 truncated
# at 6, u_7 at 5) it saved 17..28%. Measured again with orbit ranking, the
# same truncated u_n given the anti-transpose symmetry, medians of 7
# alternating runs, two runs each: u_7 truncated at 4 lost 5..60%, u_6
# truncated at 5 saved 4..9%, at 6 24..26%, u_7 truncated at 5 9..19%, and
# the 15-generator fiber of split_at_k(7, 3) 28..31%. Halving the serial
# work did not move the break-even past 2000.
FORK_MIN_MONOMIALS = 2000


def _fork_workers(jobs: Optional[int], monomials: int) -> int:
    """How many child processes may rank ``monomials`` basis monomials; 0 means none."""
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
    return min(jobs, cpus or 1)


def _shares(cost: dict, workers: int) -> list:
    """Split the keys of ``cost`` into ``workers`` shares, empty only when keys run out.

    Longest first: each key, costliest first (lowest key on ties), joins
    the share with the least total cost so far (lowest share on ties). The
    rule reads nothing but ``cost``, so it deals the same shares every time.
    """
    loads = [[0, k, []] for k in range(workers)]
    for key in sorted(cost, key=lambda key: (-cost[key], key)):
        least = min(loads, key=lambda load: load[:2])
        least[0] += cost[key]
        least[2].append(key)
    return [share for _, _, share in loads]


def _weight_costs(cdga: CDGA, degrees: list) -> dict:
    """{weight: (cost, copies)} for the torus weights ``_rank_blocks`` ranks in ``degrees``.

    A weight costs the sum over ``degrees`` of dim(n, w)^2, counted from the
    weight-graded generating function without enumerating a basis, and has
    one copy. With a symmetry sigma only the orbit representatives,
    w <= sigma(w), are kept, each at its own cost, with 2 copies when
    w < sigma(w): the cells are counted with the packed weight
    w + span * sigma(w) of each generator, which carries both weights of
    every monomial.
    """
    lattice = cdga._weight_lattice()
    weights, mirrors, span = lattice.generators, lattice.mirrors, lattice.span
    if mirrors is not None:
        weights = [w + span * m for w, m in zip(weights, mirrors)]
    cells = _weight_dimensions(cdga.signature, degrees[-1], weights)
    cost: dict = {}
    for n in degrees:
        for weight, count in cells[n].items():
            cost[weight] = cost.get(weight, 0) + count * count
    if mirrors is None:
        return {weight: (c, 1) for weight, c in cost.items()}
    half = span // 2
    representatives = {}
    for pair, c in cost.items():
        weight = (pair + half) % span - half
        mirror = (pair - weight) // span
        if weight <= mirror:
            representatives[weight] = (c, 1 if weight == mirror else 2)
    return representatives


def _weight_shares(cdga: CDGA, degrees: list, workers: int) -> list:
    """The weights of ``_weight_costs``, dealt into ``workers`` shares by
    ``_shares``, each share as {weight: copies}."""
    costs = _weight_costs(cdga, degrees)
    shares = _shares({weight: c for weight, (c, _) in costs.items()}, workers)
    return [{weight: costs[weight][1] for weight in share} for share in shares]


def _rank_share(cdga: CDGA, degrees: list, index: int, workers: int, fd: int) -> None:
    """In forked child ``index`` of ``workers``: rank its weights through ``degrees``, then exit.

    Every child deals the same shares (``_weight_shares``) and takes its own.
    Writes one "degree:rank:count" triple per degree to ``fd``: the rank of
    the share's blocks of d_degree and how many source monomials they hold.
    Leaves through ``os._exit``, with status 0 only once every triple is
    written, so no parent cleanup (atexit, buffered output) runs twice.
    """
    status = 1
    try:
        share = _weight_shares(cdga, degrees, workers)[index]
        ranks, counts = _rank_blocks(cdga, degrees, True, share)
        text = " ".join(f"{n}:{ranks[n]}:{counts[n]}" for n in degrees)
        with open(fd, "wb") as pipe:
            pipe.write(text.encode())
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _ranks_in_children(cdga: CDGA, degrees: list, workers: int, dims: list) -> dict:
    """{degree: rank of d_degree} for ``degrees``, from ``workers`` forked children.

    The parent adds up the children's ranks of each degree. Every child is
    reaped before this returns or raises; children still running when
    something fails are killed first. Raises RuntimeError when a child exits
    nonzero or leaves out a degree, or when the children's source counts of
    a degree n do not add up to ``dims[n]``, which a share rule that drops
    or doubles a weight would cause.
    """
    children = []
    pipes = []
    ranks = dict.fromkeys(degrees, 0)
    counts = dict.fromkeys(degrees, 0)
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _rank_share(cdga, degrees, index, workers, write_fd)
            finally:
                os.close(write_fd)
            children.append((pid, read_fd))
        while children:
            pid, read_fd = children[0]
            chunks = []
            while chunk := os.read(read_fd, 1 << 16):
                chunks.append(chunk)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            triples = [[int(v) for v in t.split(b":")] for t in b"".join(chunks).split()]
            if code or [n for n, _, _ in triples] != degrees:
                raise RuntimeError(f"rank worker for degrees {degrees} failed (exit status {code})")
            for n, rank, count in triples:
                ranks[n] += rank
                counts[n] += count
    finally:
        for fd in pipes:
            os.close(fd)
        if children:
            import signal  # only on failure: ``import nilcohom`` stays as lean as before

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for n in degrees:
        if counts[n] != dims[n]:
            raise RuntimeError(
                f"rank workers ranked {counts[n]} of the {dims[n]} monomials of degree {n}"
            )
    return ranks


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
    degree of the window is ranked. dim_n is counted from the generator
    degrees, not enumerated.

    The degrees left to rank go in increasing order through
    ``_rank_blocks``, one torus-weight block at a time (one block per
    degree for models under ``_BLOCK_MIN_MONOMIALS``): the block's sources
    come from a key walk that builds no ``Monomial``, its integer columns
    are assembled directly from d, ranked by ``_row_pivots`` and dropped
    before the next block, so no differential matrix is built or cached.
    Clearing drops from each block's sources the pivot targets of the same
    weight one degree down, which leaves the rank as it is. A
    degree whose rank d_(n-1) was already cached, by ``representatives`` or
    ``verify_classes``, has no pivots below it and is ranked uncleared.
    When the CDGA carries a symmetry sigma (u_n and the models of
    ``split_at_k``), checked exactly on first use, blocks w and sigma(w)
    have equal ranks: only the block of each pair with w <= sigma(w) is
    ranked, and one with w < sigma(w) counts twice.

    With ``jobs`` >= 2, ``os.fork`` available, a single running thread,
    blocks by weight and at least ``FORK_MIN_MONOMIALS`` basis monomials in
    the degrees left to rank, min(jobs, usable CPUs) forked child processes
    rank them. Each deals the weights (with sigma, the orbit
    representatives) longest first, by the sum over n of dim(n, w)^2 from
    the weight-graded generating function, takes its own
    share, ranks it through every degree left, clearing as it goes, and
    sends back per-degree partial ranks and source counts, which the parent
    adds up and checks against dim_n. Otherwise, and always with the
    default ``jobs=None``, the degrees are ranked in this process. Both
    give the same table and the same rank cache.
    """
    degrees = _degree_range(cdga)
    mirror = _mirror_top(cdga)
    ranked = degrees if mirror is None else range((mirror - 1) // 2 + 1)
    todo = [n for n in ranked if n not in cdga._rank_cache]
    dims = basis_dimensions(cdga.signature, degrees[-1] + 1)
    by_weight = cdga._by_weight([dims[n] for n in todo])
    workers = _fork_workers(jobs, sum(dims[n] for n in todo)) if by_weight else 0
    if workers > 1:
        cdga._rank_cache.update(_ranks_in_children(cdga, todo, workers, dims))
    else:
        cdga._rank_cache.update(_rank_blocks(cdga, todo, by_weight)[0])
    if mirror is not None:
        for n in ranked:
            cdga._rank_cache.setdefault(mirror - 1 - n, cdga._rank_cache[n])
        cdga._rank_cache.setdefault(mirror, 0)
    ranks = cdga._rank_cache
    per_degree = [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in degrees]
    top = cdga.top_degree()
    truncated = top is None or _window_below_top(cdga, top)
    return BettiTable(
        tuple(per_degree), sum(per_degree), cdga.truncation if truncated else None
    )


def representatives(cdga: CDGA, n: int) -> list:
    """Closed elements whose classes form a basis of H^n; deterministic.

    Degree n is split as ``betti`` splits it: into torus-weight blocks of
    monomial keys when ``CDGA._by_weight`` says so, otherwise one block.
    d maps the block of weight w into the keys of weight w one degree up,
    so each block is solved alone, with d expanded on its keys by
    ``_d_key``. Its columns and its degree-(n+1) target rows are numbered
    in lexicographic order, as ``_keys_by_weight`` emits them, and each row
    is cleared of denominators, so the count rule picks the pivots that it
    picks on the whole-degree matrix.

    The classes are primitive integer kernel vectors of d_n, picked in
    free-column order and merged across blocks in global basis order. Each
    is nonzero at its own free column only, so the quotient by the image of
    d_(n-1) runs on the block's boundaries projected onto the free columns,
    which is faithful once d_n o d_(n-1) = 0 is checked on them. The ranks
    of d_n (its pivot count) and of d_(n-1) (the size of the projected
    boundary echelons) are stored in the CDGA's rank cache for a later
    ``betti``.
    """
    if n not in _degree_range(cdga):
        if cdga.top_degree() is not None and n > cdga.top_degree():
            return []
        raise ValueError(f"degree {n} outside the computable window")
    sig = cdga.signature
    if cdga._by_weight(basis_dimensions(sig, n + 1)):
        weights = cdga._weight_lattice().generators
    else:
        weights = (0,) * len(sig)
    d_key = cdga._d_key
    sources = _keys_by_weight(sig, n - 1, weights) if n else {}
    targets = _keys_by_weight(sig, n + 1, weights)
    rank = rank_below = 0
    classes = []
    for weight, keys in _keys_by_weight(sig, n, weights).items():
        columns = [d_key(key) for key in keys]
        column_of = {key: j for j, key in enumerate(keys)}
        boundaries = []
        for key in sources.get(weight, ()):
            boundary = {column_of[k]: v for k, v in d_key(key).items()}
            image: dict = {}
            for j, v in boundary.items():
                for t, w in columns[j].items():
                    image[t] = image.get(t, 0) + v * w
            if any(image.values()):
                raise ConsistencyError(f"d_{n} o d_{n - 1} is not zero")
            boundaries.append(boundary)
        row_of = {key: i for i, key in enumerate(targets.get(weight, ()))}
        rows: dict = {}
        for j, column in enumerate(columns):
            for t, v in column.items():
                rows.setdefault(row_of[t], {})[j] = v
        pivot_columns, cocycles = _kernel(
            rows if cdga._integral else _clear_denominators(rows), len(keys)
        )
        rank += len(pivot_columns)
        pivots = set(pivot_columns)
        echelon: dict = {}
        _extend_echelon(
            echelon,
            ({j: Fraction(v) for j, v in b.items() if j not in pivots} for b in boundaries),
        )
        rank_below += len(echelon)
        free = [f for f in range(len(keys)) if f not in pivots]
        units = _extend_echelon(echelon, ({f: Fraction(1)} for f in free))
        for f, z, residue in zip(free, cocycles, units):
            if residue:
                terms = {_decode(sig, keys[j]): v for j, v in z.items()}
                classes.append((_decode(sig, keys[f]).exponents(), terms))
    cdga._rank_cache.setdefault(n, rank)
    if n:
        cdga._rank_cache.setdefault(n - 1, rank_below)
    classes.sort(key=lambda c: c[0])
    return [Element(sig, terms) for _, terms in classes]


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
    The rank of d_(d-1), read off the boundary echelon of each degree d
    checked, joins the CDGA's rank cache before the Betti table is ranked.
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

    # Independence mod boundaries, degree by degree, on monomial keys: the
    # boundaries are d of the degree-(d-1) keys (``_d_key``). Element i
    # carries a tag coordinate tag + i set to 1, above every key, so a
    # residue left with only tag entries is an explicit vanishing
    # combination of classes. It still joins the echelon, under a tag
    # index, so it can only reduce tag entries of later residues: later
    # independence counts and the first dependency, the one reported, do
    # not depend on it.
    dependency = None
    independent_count: dict = {}
    by_degree: dict = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    sig = cdga.signature
    tag = 1 << (len(sig.odd_indices) + _EXPONENT_BITS * len(sig.even_indices))
    for d in sorted(by_degree):
        echelon: dict = {}
        if d:
            cdga._check_window(d - 1)
            keys = _keys_by_weight(sig, d - 1, (0,) * len(sig)).get(0, ())
            boundaries = (cdga._d_key(key) for key in keys)
            _extend_echelon(echelon, ({k: Fraction(v) for k, v in b.items()} for b in boundaries))
            cdga._rank_cache.setdefault(d - 1, len(echelon))
        tagged = (
            {**{_encode(mono): c for mono, c in elems[i].terms.items()}, tag + i: Fraction(1)}
            for i in by_degree[d]
        )
        for i, residue in zip(by_degree[d], _extend_echelon(echelon, tagged)):
            if min(residue) < tag:
                independent_count[d] = independent_count.get(d, 0) + 1
            elif dependency is None:
                dependency = tuple(sorted((j - tag, v) for j, v in residue.items()))

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
