"""Betti tables, representative cocycles, class verification, and tensor products."""

from __future__ import annotations

import marshal
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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
from .cdga import CDGA, _Weights
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


def _middle(degrees: list, by_weight: bool, top: Optional[int]) -> Optional[int]:
    """The middle degree m that ``_rank_blocks`` ranks by duality pairs, or None.

    Only for an odd mirror top ``top`` = 2m + 1, degrees split by weight
    and m the last of ``degrees``, so no degree above m is cleared by it.
    """
    if top is None or top % 2 == 0 or not by_weight or degrees[-1] != top // 2:
        return None
    return top // 2


def _rank_blocks(cdga: CDGA, degrees: list, by_weight: bool, share=None, top=None) -> tuple:
    """({n: source monomials}, ledger) for the increasing ``degrees``.

    Each degree is split by ``CDGA._blocks``. Each block's integer columns
    of d are assembled, eliminated as one piece with the count rule as the
    rows of the transpose and dropped before the next block; on u_n and X_r
    a weight block is one connected component of the nonzero pattern, and
    the one block of a degree not split by weight may hold several. Each
    pivot pairs a source with a target key, and the pivot targets of a
    block are a basis of its rows of d. With ``share``, {weight:
    sigma(weight)}, only the blocks of those weights are walked and ranked,
    and one with sigma(w) != w counts twice; the counts are of the sources
    before clearing.

    The ledger is {n: {weight: b_(n,w)}} over the blocks with a nonzero
    Betti number b_(n,w) = dim - rank d_n|w - rank d_(n-1)|w, for each
    degree n that is 0 or follows a degree ranked here; the block of
    sigma(w) is entered with the b of w.

    Orbits: when the CDGA carries a checked symmetry sigma, the block of
    weight w and the block of sigma(w) have equal ranks and sizes, sigma
    being a chain isomorphism between them. Without a ``share``, the share
    is then the orbit representatives of ``_weight_costs``: a block with
    w < sigma(w) is ranked and counted twice, so the counts still add up to
    dim_n, one with w = sigma(w) once, and one with w > sigma(w) is never
    walked. The representatives do not depend on the degree, so each kept
    pivot set clears a ranked block one degree up.

    Duality pairs: ``top`` is ``_mirror_top``'s top degree or None. When it
    is odd, 2m + 1, the degrees are split by weight and m is the last of
    them (``_middle``), d_m on the block of weight w and d_m on the block of
    its partner t = w_top - sigma(w) are adjoint under the product into the
    top degree, w_top the weight of the top monomial, and so have equal
    ranks (sigma(w) = w without a symmetry; t is an orbit representative
    whenever w is). Every degree's blocks go in increasing weight order, so
    only the lesser of each pair {w, t} is ranked and the other takes its
    rank, or 0 when the lesser has no degree-m keys:
    b_(m,t) = dim(m,t) - rank d_(m-1)|t - rank d_m|w. A weight paired with
    itself is ranked. A ``share`` must hold both halves of each pair.

    Clearing (Chen-Kerber 2011): when d_(n-1) was ranked just before, the
    pivot targets of each of its blocks, degree-n monomials of the block's
    weight, are dropped from that block's sources at degree n before d is
    expanded on them. The image of d_(n-1) lies in ker d_n and projects
    onto their coordinates, so each dropped column of d_n is a combination
    of the kept ones and the rank is unchanged; d^2 = 0 is all this needs.
    """
    if share is None and by_weight and cdga._weight_lattice().mirrors is not None:
        share = {w: mirror for w, (_, mirror) in _weight_costs(cdga, degrees).items()}
    middle = _middle(degrees, by_weight, top)
    top_weight = sum(cdga._weight_lattice().generators) if middle is not None else None
    counts: dict = {}
    ledger: dict = {}
    pivot_keys: dict = {}
    for i, n in enumerate(degrees):
        blocks = cdga._blocks(n, by_weight, share)
        below = i > 0 and degrees[i - 1] == n - 1
        cleared = pivot_keys if below else {}
        pivot_keys = {}
        clears_next = i + 1 < len(degrees) and degrees[i + 1] == n + 1
        count = 0
        row: dict = {}
        halves: dict = {}
        for weight in sorted(blocks):
            keys = blocks.pop(weight)
            mirror = weight if share is None else share[weight]
            copies = 1 if mirror == weight else 2
            count += copies * len(keys)
            drop = cleared.pop(weight, ())
            partner = top_weight - mirror if n == middle else weight
            if partner < weight:
                # The lesser half came first; one with no keys has rank 0.
                r = halves.get(partner, 0)
            else:
                columns = cdga._block_columns([k for k in keys if k not in drop] if drop else keys)
                pivots = _row_pivots(columns)
                r = halves[weight] = len(pivots)
                if clears_next:
                    pivot_keys[weight] = {key for _, key in pivots}
            b = len(keys) - r - len(drop)
            if b:
                row[weight] = row[mirror] = b
        counts[n] = count
        if below or n == 0:
            ledger[n] = row
    return counts, ledger


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
    """{weight: (cost, sigma(weight))} for the torus weights ``_rank_blocks`` ranks in ``degrees``.

    A weight costs the sum over ``degrees`` of dim(n, w)^2, counted from the
    weight-graded generating function without enumerating a basis, and is
    its own image. With a symmetry sigma only the orbit representatives,
    w <= sigma(w), are kept, each at its own cost and with its image: the
    cells are counted with the packed weight w + span * sigma(w) of each
    generator, which carries both weights of every monomial.
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
        return {weight: (c, weight) for weight, c in cost.items()}
    half = span // 2
    representatives = {}
    for pair, c in cost.items():
        weight = (pair + half) % span - half
        mirror = (pair - weight) // span
        if weight <= mirror:
            representatives[weight] = (c, mirror)
    return representatives


def _weight_shares(cdga: CDGA, degrees: list, workers: int, top: Optional[int] = None) -> list:
    """The weights of ``_weight_costs``, dealt into ``workers`` shares by
    ``_shares``, each share as {weight: sigma(weight)}.

    When ``_rank_blocks`` ranks the middle degree by duality pairs
    (``_middle``), each pair {w, w_top - sigma(w)} is dealt as one unit,
    keyed by its lesser weight at the sum of both costs, so every share
    holds both halves of its pairs.
    """
    costs = _weight_costs(cdga, degrees)
    units = {weight: [weight] for weight in costs}
    if _middle(degrees, True, top) is not None:
        top_weight = sum(cdga._weight_lattice().generators)
        for weight, (_, mirror) in costs.items():
            partner = top_weight - mirror
            if partner < weight and partner in units:
                units[partner] += units.pop(weight)
    shares = _shares({key: sum(costs[w][0] for w in unit) for key, unit in units.items()}, workers)
    return [{w: costs[w][1] for key in share for w in units[key]} for share in shares]


def _rank_share(
    cdga: CDGA, degrees: list, index: int, workers: int, fd: int, top: Optional[int] = None
) -> None:
    """In forked child ``index`` of ``workers``: rank its weights through ``degrees``, then exit.

    Every child deals the same shares (``_weight_shares``) and takes its own;
    ``top`` is as for ``_rank_blocks``. Writes the share's ``_rank_blocks``
    result, (counts, ledger), to ``fd`` with ``marshal``. Leaves
    through ``os._exit``, with status 0 only once the reply is written, so
    no parent cleanup (atexit, buffered output) runs twice.
    """
    status = 1
    try:
        share = _weight_shares(cdga, degrees, workers, top)[index]
        reply = marshal.dumps(_rank_blocks(cdga, degrees, True, share, top))
        with open(fd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _ranks_in_children(cdga: CDGA, degrees: list, workers: int, top: Optional[int] = None) -> tuple:
    """``_rank_blocks``'s (counts, ledger) for ``degrees``, from ``workers`` forked children.

    The parent adds up the children's source counts of each degree and
    joins their ledger entries. Every child is reaped before this returns
    or raises; children still running when something fails are killed
    first. Raises ConsistencyError when a child exits nonzero
    or its reply does not unmarshal or leaves out a degree. ``top`` goes to
    every child (``_rank_share``).
    """
    children = []
    pipes = []
    counts = dict.fromkeys(degrees, 0)
    ledger: dict = {n: {} for n in degrees}
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _rank_share(cdga, degrees, index, workers, write_fd, top)
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
            failed = ConsistencyError(
                f"rank worker for degrees {degrees} failed (exit status {code})"
            )
            if code:
                raise failed
            try:
                part_counts, part_ledger = marshal.loads(b"".join(chunks))
                for n in degrees:
                    counts[n] += part_counts[n]
                    ledger[n].update(part_ledger[n])
            except (EOFError, ValueError, TypeError, KeyError) as err:
                raise failed from err
    finally:
        for fd in pipes:
            os.close(fd)
        if children:
            import signal  # only on failure: ``import nilcohom`` stays as lean as before

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return counts, ledger


class BettiTable(NamedTuple):
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
    The first call ranks the CDGA in one pass and stores on it the ledger
    of the Betti number of every block; b_n is the sum of its row n, so
    every later call, with any ``jobs``, reads the table off the ledger and
    counts and ranks nothing. dim_n is counted from the generator degrees,
    not enumerated.

    When the window reaches the top degree of a purely odd model with
    d_(top-1) = 0, only the degrees n <= (top-1)/2 are ranked: rank d_(top-1-n)
    equals rank d_n by Poincare duality and rank d_top is 0, so the rows of
    the degrees above are mirrored from those below. Otherwise every
    degree of the window is ranked. When that top is odd, 2m + 1, and the
    degrees are split by weight, d_m is self-dual block by block: the block
    of weight w and that of w_top - sigma(w) have equal ranks, so only the
    lesser of each pair is ranked (``_rank_blocks``).

    A model with even generators and no symmetry is first scanned for a
    contractible pair (``_contractible_pair``): generators x and y with a
    term c*y in d x, x in no differential, its own included, and y in none
    but d x, as a Borel twist d g += t makes when g occurs in no
    differential. The model is then the sub-CDGA on the other generators
    tensored with Lambda(x, d x), whose cohomology is Q in degree 0
    (Felix-Halperin-Thomas, GTM 205, section 14), so that sub-CDGA is ranked
    instead, its own pairs cancelled in turn, and the ledger is filled from
    it (``_from_quotient``), equal to what ranking the model itself would
    store.

    The degrees ranked go in increasing order through ``_rank_blocks``,
    split once by ``CDGA._by_weight`` into torus-weight blocks, or one
    block per degree for models under ``_BLOCK_MIN_MONOMIALS``: each block's
    sources come from a key walk that builds no ``Monomial``, its integer
    columns are assembled directly from d, ranked by ``_row_pivots`` and
    dropped before the next block, so no differential matrix is built or
    cached. Clearing drops from each block's sources the pivot targets of
    the same weight one degree down, which leaves the rank as it is. When
    the CDGA carries a symmetry sigma (u_n and the models of
    ``split_at_k``), checked exactly on first use, blocks w and sigma(w)
    have equal ranks: only the block of each pair with w <= sigma(w) is
    ranked, and one with w < sigma(w) counts twice.

    The ledger holds, for each degree n, the weights w whose block has
    b_(n,w) = dim - rank d_n|w - rank d_(n-1)|w > 0, with that b; the one
    block of an unsplit degree has weight 0. A block of sigma(w) takes the
    b of w. A mirrored degree top - n takes b_(top-n, w_top-w) = b_(n,w),
    w_top the weight of the top monomial, by the same duality, and the
    middle degree of an even top takes its b per weight from the weight's
    Euler characteristic and the b of every other degree. A negative b
    raises ``ConsistencyError``. ``representatives`` solves only the blocks
    the ledger names, split as here.

    With ``jobs`` >= 2, ``os.fork`` available, a single running thread,
    blocks by weight and at least ``FORK_MIN_MONOMIALS`` basis monomials in
    the degrees ranked, min(jobs, usable CPUs) forked child processes
    rank them. Each deals the weights (with sigma, the orbit
    representatives) longest first, by the sum over n of dim(n, w)^2 from
    the weight-graded generating function, each middle-degree pair as one
    unit, takes its own share, ranks it through every degree, clearing as
    it goes, and sends back its ``_rank_blocks`` result, which the parent
    sums. Otherwise, and always with the default ``jobs=None``, the degrees
    are ranked in this process. Both give the same ledger, and both must
    rank dim_n source monomials in each degree n, or ``ConsistencyError``
    is raised and no ledger is stored.
    """
    if cdga._ledger is None:
        _rank_table(cdga, jobs)
    rows = cdga._ledger[1]
    per_degree = [sum(rows[n].values()) for n in _degree_range(cdga)]
    top = cdga.top_degree()
    truncated = top is None or _window_below_top(cdga, top)
    return BettiTable(
        tuple(per_degree), sum(per_degree), cdga.truncation if truncated else None
    )


def _rank_table(cdga: CDGA, jobs: Optional[int], by_weight: Optional[bool] = None) -> None:
    """Rank every degree of ``betti``'s window in one pass and store the ledger.

    ``by_weight`` is ``CDGA._by_weight``'s decision on the degrees ranked
    unless given. When ``_contractible_pair`` finds a pair (x, y), nothing
    of ``cdga`` is ranked: the sub-CDGA on the other generators is ranked
    by this function, with that decision and ``cdga``'s generator weights,
    and ``_from_quotient`` fills the ledger from it.
    """
    degrees = _degree_range(cdga)
    mirror = _mirror_top(cdga)
    ranked = list(degrees if mirror is None else range((mirror - 1) // 2 + 1))
    dims = basis_dimensions(cdga.signature, ranked[-1] + 1)
    if by_weight is None:
        by_weight = cdga._by_weight([dims[n] for n in ranked])
    weights = cdga._weight_lattice().generators if by_weight else (0,) * len(cdga.signature)
    pair = _contractible_pair(cdga)
    if pair is not None:
        _from_quotient(cdga, pair, degrees, jobs, by_weight, weights)
        return
    workers = _fork_workers(jobs, sum(dims[n] for n in ranked)) if by_weight else 0
    if workers > 1:
        counts, ledger = _ranks_in_children(cdga, ranked, workers, mirror)
    else:
        counts, ledger = _rank_blocks(cdga, ranked, by_weight, None, mirror)
    for n in ranked:
        if counts[n] != dims[n]:
            raise ConsistencyError(f"ranked {counts[n]} of the {dims[n]} monomials of degree {n}")
    if mirror is not None:
        top_weight = sum(weights)
        for n in ranked:
            ledger.setdefault(mirror - n, {top_weight - w: b for w, b in ledger[n].items()})
        if mirror % 2 == 0:
            ledger[mirror // 2] = _middle_row(cdga, mirror, weights, ledger)
    for n in degrees:
        for w, b in ledger[n].items():
            if b < 0:
                raise ConsistencyError(
                    f"the block of weight {w} in degree {n} has Betti number {b}"
                )
    cdga._ledger = (weights, {n: dict(sorted(ledger[n].items())) for n in degrees})


def _contractible_pair(cdga: CDGA) -> Optional[tuple]:
    """The first pair (x, y) of generator indices, in signature order of x,
    such that d x has a term c*y, x occurs in no differential, its own
    included, and y occurs in no differential but d x; else None.

    d being homogeneous, |y| = |x| + 1, so a purely odd model holds no pair
    and is not scanned; nor is a model that carries a symmetry, whose
    orbit ranking stays as it is.
    """
    sig = cdga.signature
    if sig.is_purely_odd or cdga._symmetry is not None:
        return None
    users = [set() for _ in sig.generators]
    for g, value in enumerate(cdga._diff):
        for mono in value.terms:
            for h, e in enumerate(mono.exponents()):
                if e:
                    users[h].add(g)
    for x, value in enumerate(cdga._diff):
        if users[x]:
            continue
        for mono in value.terms:
            exponents = mono.exponents()
            if sum(exponents) == 1:
                y = exponents.index(1)
                if users[y] == {x}:
                    return x, y
    return None


def _from_quotient(
    cdga: CDGA,
    pair: tuple,
    degrees: range,
    jobs: Optional[int],
    by_weight: bool,
    weights: tuple,
) -> None:
    """Fill ``cdga``'s ledger from the sub-CDGA without ``pair``.

    With d x = c*y + phi, substituting y' = c*y + phi is a triangular
    automorphism, weight-homogeneous, with d y' = d^2 x = 0. The other
    generators form a sub-CDGA, since neither x nor y occurs in their
    differentials, and the model is that sub-CDGA tensored with
    Lambda(x, y'), d x = y', whose cohomology over Q is Q in degree 0 for
    either parity of x (Felix-Halperin-Thomas, Rational Homotopy Theory,
    GTM 205, section 14). So b_(n,w) is the sub-CDGA's in every degree of
    the window and every torus weight.

    The sub-CDGA keeps the differentials and the truncation, and is ranked
    with the same split decision and, when split by weight, ``cdga``'s
    generator weights restricted to it (no symmetry). Its ledger rows fill
    ``cdga``'s, with {} above its own window, which is what ranking
    ``cdga`` itself would store.
    """
    sig = cdga.signature
    kept = [g for g in sig.generators if g.index not in pair]
    quotient_sig = Signature([(g.name, g.degree) for g in kept])
    diffs = {}
    for g in kept:
        terms = {}
        for mono, c in cdga._diff[g.index].terms.items():
            exponents = mono.exponents()
            terms[quotient_sig.monomial([exponents[h.index] for h in kept])] = c
        diffs[g.name] = Element(quotient_sig, terms)
    quotient = CDGA(quotient_sig, diffs, truncation=cdga.truncation, name=cdga.name)
    if by_weight:
        lattice = cdga._weight_lattice()
        restricted = tuple(weights[g.index] for g in kept)
        quotient._weights = _Weights(lattice.rank, restricted, None, lattice.span)
    _rank_table(quotient, jobs, by_weight)
    cdga._ledger = (weights, {n: quotient._ledger[1].get(n, {}) for n in degrees})


def _middle_row(cdga: CDGA, top: int, weights: tuple, ledger: dict) -> dict:
    """{weight: b_(m,w)} for the middle degree m = top / 2, from every other degree.

    Each weight's complex has Euler characteristic
    chi_w = sum over n of (-1)^n dim(n, w) = sum over n of (-1)^n b_(n,w),
    with dim(n, w) counted by ``_weight_dimensions``; b_(m,w) is what the
    other degrees leave of it.
    """
    m = top // 2
    row: dict = {}
    for n, cell in enumerate(_weight_dimensions(cdga.signature, top, weights)):
        sign = -1 if (n - m) % 2 else 1
        for w, c in cell.items():
            row[w] = row.get(w, 0) + sign * c
        if n != m:
            for w, b in ledger[n].items():
                row[w] -= sign * b
    return {w: b for w, b in row.items() if b}


def representatives(cdga: CDGA, n: int) -> list:
    """Closed elements whose classes form a basis of H^n; deterministic.

    ``betti(cdga)`` runs first, which only reads the ledger once the table
    is ranked. The ledger names the torus-weight blocks of degree n that
    carry cohomology and how many classes each carries; degree n is split as
    ``betti`` split it, and only those blocks are walked and solved. d maps
    the block of weight w into the keys of weight w one degree up, so each
    block is solved alone, with d expanded on its keys by ``_d_key``. Its
    columns and its degree-(n+1) target rows are numbered in lexicographic
    order, as ``_keys_by_weight`` emits them, and each row is cleared of
    denominators, so the count rule picks the pivots that it picks on the
    whole-degree matrix.

    The classes are primitive integer kernel vectors of d_n, picked in
    free-column order and merged across blocks in global basis order. Each
    is nonzero at its own free column only, so the quotient by the image of
    d_(n-1) runs on the block's boundaries projected onto the free columns,
    which is faithful once d_n o d_(n-1) = 0 is checked on them. One
    echelon of the projected boundaries decides it, keyed by -j so that
    each lead is a row's greatest column: the class of free column f is
    kept exactly when no combination of boundaries has its greatest column
    at f, that is, when e_f is not in the span of the boundaries and the
    unit vectors of the free columns below f. A block whose d^2 check fails,
    or whose class count differs from its ledger entry, raises
    ``ConsistencyError``.
    """
    if n not in _degree_range(cdga):
        if cdga.top_degree() is not None and n > cdga.top_degree():
            return []
        raise ValueError(f"degree {n} outside the computable window")
    betti(cdga)
    weights, ledger = cdga._ledger
    carried = ledger[n]
    if not carried:
        return []
    sig = cdga.signature
    d_key = cdga._d_key
    sources = _keys_by_weight(sig, n - 1, weights, carried) if n else {}
    targets = _keys_by_weight(sig, n + 1, weights, carried)
    classes = []
    for weight, keys in _keys_by_weight(sig, n, weights, carried).items():
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
        pivots = set(pivot_columns)
        echelon: dict = {}
        _extend_echelon(
            echelon,
            ({-j: Fraction(v) for j, v in b.items() if j not in pivots} for b in boundaries),
        )
        free = [f for f in range(len(keys)) if f not in pivots]
        found = 0
        for f, z in zip(free, cocycles):
            if -f not in echelon:
                terms = {_decode(sig, keys[j]): v for j, v in z.items()}
                classes.append((_decode(sig, keys[f]).exponents(), terms))
                found += 1
        if found != carried[weight]:
            raise ConsistencyError(
                f"the block of weight {weight} in degree {n} gave {found} classes,"
                f" its Betti number is {carried[weight]}"
            )
    classes.sort(key=lambda c: c[0])
    return [Element(sig, terms) for _, terms in classes]


class VerifyReport(NamedTuple):
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
    single-term dependency. ``missing_degrees`` lists (degree, have, need),
    with need from ``betti(cdga)``, read off the ledger once the table is
    ranked.

    Independence is decided degree by degree, one weight block at a time
    (``_independent_in_degree``), and the blocks give the same report as
    one echelon of the whole degree.
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

    dependency = None
    independent_count: dict = {}
    by_degree: dict = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    table = betti(cdga)
    for d in sorted(by_degree):
        if d:
            cdga._check_window(d - 1)
        count, found = _independent_in_degree(cdga, d, elems, by_degree[d])
        independent_count[d] = count
        if dependency is None:
            dependency = found

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


def _independent_in_degree(cdga: CDGA, d: int, elems: Sequence, indices: list) -> tuple:
    """(number of independent classes, first dependency or None) of the
    elements ``elems[i]``, i in ``indices``, all of degree d, by one
    ``Fraction`` echelon per weight block.

    The blocks group the elements by weight under the generator weights of
    ``betti``'s ledger, or, when an element spans several weights, under
    all-zero weights, which make the degree one block. A block's echelon
    takes d of its degree-(d-1) keys (``_d_key``) in lexicographic order,
    then its elements. Element i carries a tag coordinate tag + i set to 1,
    above every key, so a residue left with only tag entries is an explicit
    vanishing combination of classes; it still joins the echelon, under a
    tag, so it only reduces tags of later residues. The dependency reported
    is the one of least index.

    d keeps weights, so the blocks are direct summands: a residue of weight
    w only meets rows led by a key of weight w or a tag of its own block,
    and each residue is the one a single echelon of the whole degree would
    leave.
    """
    sig = cdga.signature
    weights = cdga._ledger[0]
    blocks: dict = {}
    for i in indices:
        found = {
            sum(weights[g] * k for g, k in enumerate(mono.exponents()) if k)
            for mono in elems[i].terms
        }
        if len(found) != 1:
            weights = (0,) * len(sig)
            blocks = {0: indices}
            break
        blocks.setdefault(found.pop(), []).append(i)
    sources = _keys_by_weight(sig, d - 1, weights, blocks) if d else {}
    tag = 1 << (len(sig.odd_indices) + _EXPONENT_BITS * len(sig.even_indices))
    dependent: dict = {}
    for weight, members in blocks.items():
        echelon: dict = {}
        boundaries = (cdga._d_key(key) for key in sources.get(weight, ()))
        _extend_echelon(echelon, ({k: Fraction(v) for k, v in b.items()} for b in boundaries))
        tagged = (
            {**{_encode(mono): c for mono, c in elems[i].terms.items()}, tag + i: Fraction(1)}
            for i in members
        )
        for i, residue in zip(members, _extend_echelon(echelon, tagged)):
            if min(residue) >= tag:
                dependent[i] = residue
    if not dependent:
        return len(indices), None
    first = dependent[min(dependent)]
    return len(indices) - len(dependent), tuple(sorted((j - tag, v) for j, v in first.items()))


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
