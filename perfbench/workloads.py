"""The three workloads: seeded request streams, the op each request runs, and
the oracle that checks its output.

An op is everything a user waits for, and it runs inside the timed region.
`CDGA` and `Signature` cache bases, matrices and ranks on the object, so an op
that reused a model from an earlier op would time dictionary lookups instead
of the computation. Every op therefore builds its models through
`OpContext.build` and names them in its `Outcome`; the harness rejects an
outcome whose models were not built by that op.

The library is looked up through its modules at call time (`cohomology.betti`,
not a name bound at import), so the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from nilcohom import cli, cohomology, dsl, lie, models, trc

import oracles


class Rejected(Exception):
    """An op's output failed its oracle or broke the rules for an op."""


class Outcome(NamedTuple):
    value: object
    models: tuple = ()


class OpContext:
    """Records the models one op builds, so reuse across ops can be caught."""

    def __init__(self):
        self.built = []

    def build(self, constructor: Callable, *args):
        model = constructor(*args)
        self.built.append(model)
        return model


def check_fresh(ctx: OpContext, outcome: Outcome) -> None:
    for model in outcome.models:
        if not any(model is built for built in ctx.built):
            raise Rejected(f"{model!r} was not built inside the timed op")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


class Workload(NamedTuple):
    requests: Callable[[int], Iterator[tuple]]
    run: Callable[[OpContext, tuple], Outcome]
    check: Callable[[tuple, Outcome], None]


# ---------------------------------------------------------------------------
# betti-u6: the headline computation through the command line


def betti_requests(seed: int) -> Iterator[tuple]:
    # The model is fixed by the paper; the seed has nothing to vary here.
    return itertools.repeat(("cohomology", "--builtin", "upper-tri:6"))


def betti_run(ctx: OpContext, request: tuple) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(request))
    return Outcome((code, json.loads(out.getvalue())))


def betti_check(request: tuple, outcome: Outcome) -> None:
    code, report = outcome.value
    expect(code == 0, f"exit code {code}")
    table = report["outputs"]["betti"]
    row = list(oracles.mahonian_row(6))
    expect(table["per_degree"] == row, f"betti row {table['per_degree']} != {row}")
    expect(table["total"] == math.factorial(6), f"total {table['total']} != 720")


# ---------------------------------------------------------------------------
# reps-u6: representatives, rendering and verification in degree 4

REPS_DEGREE = 4


def reps_requests(seed: int) -> Iterator[tuple]:
    # Degree 7 would take minutes and gigabytes; see perfbench/README.md.
    return itertools.repeat((6, REPS_DEGREE))


def reps_run(ctx: OpContext, request: tuple) -> Outcome:
    n, degree = request
    model = ctx.build(models.upper_tri_model, n)
    reps = cohomology.representatives(model, degree)
    texts = [dsl.render_element(e) for e in reps]
    report = cohomology.verify_classes(model, reps)
    return Outcome((reps, texts, report), (model,))


def reps_check(request: tuple, outcome: Outcome) -> None:
    n, degree = request
    (model,) = outcome.models
    reps, texts, report = outcome.value
    row = oracles.mahonian_row(n)
    expect(len(reps) == row[degree], f"{len(reps)} classes, expected {row[degree]}")
    for e, text in zip(reps, texts):
        expect(model.apply_d(e).is_zero(), f"class {text} is not closed")
        expect(dsl.parse_element(model.signature, text) == e, f"{text} does not parse back")
    expect(report.all_closed and report.independent, "verify rejected the classes")
    # Only one degree is passed, so every other nonzero degree is missing.
    missing = [(d, 0, b) for d, b in enumerate(row) if b and d != degree]
    expect(list(report.missing_degrees) == missing, "unexpected missing_degrees")


# ---------------------------------------------------------------------------
# certificates: a seeded stream of small certificate, center, obstruction
# and text-format requests

GOLDEN = (math.sqrt(5) - 1) / 2

# Products: every shape of two to four factors with at most 10 generators
# (r + 2 per factor), so each tensor model has at most 2^10 monomials. They
# exercise the Kunneth path while elimination stays small.
PRODUCTS = tuple(
    shape
    for factors in (2, 3, 4)
    for shape in itertools.combinations_with_replacement(range(9, -1, -1), factors)
    if sum(shape) + 2 * factors <= 10
)

PARAMETERS = {
    "trc": tuple(range(2, 401)),
    "ratio": tuple(range(2, 401)),
    "scan": tuple(range(26, 121)),
    "xr": tuple(range(0, 10)),
    "product": PRODUCTS,
    "twist": tuple(range(1, 8)),
    "center": tuple(("u", n) for n in range(2, 13)) + tuple(("xr-dual", r) for r in range(1, 10)),
    "obstruction": tuple((r, rank) for r in range(2, 10) for rank in range(1, 4)),
    "dsl": tuple(("upper-tri", n) for n in range(2, 7))
    + tuple(("xr", r) for r in range(10))
    + tuple(("twist-xr", r) for r in range(1, 7)),
}


def certificate_requests(seed: int) -> Iterator[tuple]:
    """Endless request stream; the same seed gives the same stream.

    Each round holds one request of every kind, in a seeded order. Each kind
    walks its parameter list along a golden-ratio (Weyl) sequence from a
    seeded start, so every run sees each parameter in nearly equal shares
    and the share of requests that hit the rendering defect stays steady
    from seed to seed.
    """
    rng = random.Random(seed)
    starts = {kind: rng.random() for kind in PARAMETERS}
    counts = dict.fromkeys(PARAMETERS, 0)
    while True:
        kinds = list(PARAMETERS)
        rng.shuffle(kinds)
        for kind in kinds:
            values = PARAMETERS[kind]
            position = (starts[kind] + counts[kind] * GOLDEN) % 1.0
            counts[kind] += 1
            yield (kind, values[int(position * len(values))])


def is_render_defect(request: tuple) -> bool:
    """Requests whose rendering needs more than 4300 decimal digits."""
    if request[0] == "ratio":
        return request[1] >= oracles.RATIO_RENDER_LIMIT_N
    if request[0] == "trc":
        return request[1] >= oracles.CERTIFICATE_RENDER_LIMIT_N
    return False


def is_expected_failure(request: tuple, exc: Exception) -> bool:
    """The known render defect: CPython's int-to-str digit limit, raised by a
    request that `is_render_defect` predicts. Any other exception is wrong."""
    return (
        is_render_defect(request)
        and isinstance(exc, ValueError)
        and "integer string conversion" in str(exc)
    )


def _dsl_model(ctx: OpContext, spec: tuple):
    family, p = spec
    if family == "upper-tri":
        return ctx.build(models.upper_tri_model, p)
    xr = ctx.build(models.xr_model, p)
    if family == "xr":
        return xr
    return ctx.build(models.borel_twist, xr, f"x{p}")


def certificate_run(ctx: OpContext, request: tuple) -> Outcome:
    kind, p = request
    if kind == "trc":
        cert = trc.trc_inequality(p, trc.default_k(p))
        return Outcome((cert, cert.to_json_dict()))
    if kind == "ratio":
        (entry,) = trc.ratio_table([p])
        return Outcome((entry, trc.decimal_string(entry.ratio)))
    if kind == "scan":
        return Outcome(trc.scan_minimal_counterexample(p).to_json_dict())
    if kind == "xr":
        return Outcome(trc.certificate_xr(p).to_json_dict())
    if kind == "product":
        return Outcome(trc.certificate_xr_product(p).to_json_dict())
    if kind == "twist":
        model = ctx.build(models.borel_twist, ctx.build(models.xr_model, p), f"x{p}")
        return Outcome(cohomology.betti(model), (model,))
    if kind == "center":
        family, q = p
        if family == "u":
            presentation = lie.u_n_presentation(q)
            return Outcome(lie.center(presentation).to_json_dict())
        model = ctx.build(models.xr_model, q)
        return Outcome(lie.center(lie.dual_homotopy_lie(model)).to_json_dict(), (model,))
    if kind == "obstruction":
        r, rank = p
        model = ctx.build(models.xr_model, r)
        fiber = [f"x{i}" for i in range(1, r + 1)]
        report = models.principal_obstruction(model, fiber, rank)
        return Outcome(report.to_json_dict(), (model,))
    if kind == "dsl":
        model = _dsl_model(ctx, p)
        text = dsl.serialize(model)
        parsed = dsl.parse(text)
        copy = ctx.build(dsl.to_cdga, parsed.document)
        return Outcome(text, (model, copy))
    raise ValueError(f"unknown request kind {kind!r}")


def _check_trc(n: int, value) -> None:
    cert, js = value
    k = oracles.default_k(n)
    d = oracles.d_closed_form(n, k)
    expect((cert.n, cert.k, cert.d_nk) == (n, k, d), f"trc({n}) has wrong n, k or d")
    expect(int(js["factorial"]) == math.factorial(n), f"trc({n}) factorial")
    expect(int(js["power"]) == 2**d, f"trc({n}) power")
    expect(js["inequality_holds"] == oracles.factorial_beats_power(n), f"trc({n}) verdict")
    expect(js["stirling_threshold_holds"] == oracles.stirling_verdict(n, k), f"trc({n}) stirling")


def _check_ratio(n: int, value) -> None:
    entry, text = value
    k = oracles.default_k(n)
    exact = Fraction(math.factorial(n), 2 ** oracles.d_closed_form(n, k))
    expect(entry.ratio == exact, f"ratio({n}) value")
    expect(oracles.parse_decimal(text) == exact, f"ratio({n}) decimal {text[:20]}...")


def _check_scan(n_max: int, js) -> None:
    holds = [n for n in range(2, n_max + 1) if oracles.factorial_beats_power(n)]
    expect(js["true_at"] == holds, f"scan({n_max}) verdicts")
    expect(js["minimal_n"] == (holds[0] if holds else None), f"scan({n_max}) minimum")


def _check_xr_certificate(rs: tuple, js) -> None:
    total = math.prod(oracles.XR_TOTALS[r] for r in rs)
    rank = sum(rs)
    expect(js["total_betti"] == total, f"X_{rs} total {js['total_betti']} != {total}")
    expect(js["fiber_rank"] == rank and js["power"] == str(2**rank), f"X_{rs} rank")
    expect(js["verdict"] == (total < 2**rank), f"X_{rs} verdict")


def _check_twist(r: int, table) -> None:
    # Twisting X_r by its top generator leaves the cohomology of X_{r-1},
    # whose top degree is r + 1, inside the window below the truncation.
    window = table.truncated_at - 1
    low = table.per_degree[:window]
    expect(table.truncated_at == r + 6, f"twist({r}) window {table.truncated_at}")
    expect(sum(low) == oracles.XR_TOTALS[r - 1], f"twist({r}) total {sum(low)}")
    expect(all(b == 0 for b in low[r + 2:]), f"twist({r}) classes above degree {r + 1}")
    expect(low[: r + 2] == low[r + 1:: -1], f"twist({r}) breaks Poincare duality")


def _check_center(spec: tuple, js) -> None:
    family, q = spec
    basis = [f"X_{q}_1"] if family == "u" else [f"X{q}"]
    expect(js == {"dimension": 1, "basis": basis}, f"center({spec}) = {js}")


def _check_obstruction(spec: tuple, js) -> None:
    r, rank = spec
    free = [[f"x{r}", f"t{s}"] for s in range(1, rank + 1)]
    expect(js["free"] == free, f"obstruction({spec}) free {js['free']}")
    expect(js["solution_dimension"] == rank, f"obstruction({spec}) dimension")


def certificate_check(request: tuple, outcome: Outcome) -> None:
    kind, p = request
    value = outcome.value
    if kind == "trc":
        _check_trc(p, value)
    elif kind == "ratio":
        _check_ratio(p, value)
    elif kind == "scan":
        _check_scan(p, value)
    elif kind == "xr":
        _check_xr_certificate((p,), value)
    elif kind == "product":
        _check_xr_certificate(p, value)
    elif kind == "twist":
        _check_twist(p, value)
    elif kind == "center":
        _check_center(p, value)
    elif kind == "obstruction":
        _check_obstruction(p, value)
    elif kind == "dsl":
        model, copy = outcome.models
        expect(copy == model, f"dsl round trip of {p} changed the model")
        expect(dsl.serialize(copy) == value, f"dsl round trip of {p} changed the text")


WORKLOADS = {
    "betti-u6": Workload(betti_requests, betti_run, betti_check),
    "reps-u6": Workload(reps_requests, reps_run, reps_check),
    "certificates": Workload(certificate_requests, certificate_run, certificate_check),
}
