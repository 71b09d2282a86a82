"""Command-line surface: every model family, certificate, and probe as a
subcommand emitting a versioned run report in JSON, CSV, or markdown.

Exit codes: 0 success, 1 a computed check violated its expectation (verify
failure, shift mismatch), 2 usage or input validation error, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .cdga import CDGA, DifferentialError, TruncationError
from .cohomology import betti, representatives, tensor_product, verify_classes
from .dsl import (
    DslValidationError,
    parse,
    parse_element,
    render_element,
    to_cdga,
    to_lie,
)
from .lie import abelian_presentation, center, dual_homotopy_lie, u_n_presentation
from .linalg import ConsistencyError
from .models import (
    borel_twist,
    c_formula,
    d_formula,
    degree_shift,
    principal_obstruction,
    split_at_k,
    torus_model,
    upper_tri_model,
    xr_model,
)
from .trc import (
    certificate_xr,
    certificate_xr_product,
    ratio_table,
    scan_minimal_counterexample,
    trc_inequality,
)

MAX_GENERATORS = 24
MAX_TRUNCATION = 40
FORMAT_ENV = "NILCOHOM_FORMAT"
FORMATS = ("json", "csv", "md")

R0_NOTE = (
    "X_0 is the free exterior algebra on a and b with zero differential; its "
    "computed total dimension is 4 = (1,2,1). The tabulated value 3 for this "
    "row does not match the direct computation and is reported, not adopted."
)


class UsageError(ValueError):
    """Bad flags, ranges, or inputs; exits with code 2."""


def _ints(text: str, count=None):
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"expected {count} parameters, got {len(values)}")
    return values


def builtin_object(spec: str):
    """Resolve a family:params builtin to a CDGA or a Lie presentation."""
    family, sep, params = spec.partition(":")
    if not sep:
        raise UsageError(f"builtin {spec!r} needs family:params syntax")
    try:
        if family == "torus":
            return torus_model(_ints(params, 1)[0])
        if family == "xr":
            return xr_model(_ints(params, 1)[0])
        if family == "upper-tri":
            return upper_tri_model(_ints(params, 1)[0])
        if family == "split-fiber":
            n, k = _ints(params, 2)
            return split_at_k(n, k).fiber
        if family == "split-base":
            n, k = _ints(params, 2)
            return split_at_k(n, k).base
        if family == "split-total":
            n, k = _ints(params, 2)
            return split_at_k(n, k).total
        if family == "shift":
            n, kappa = _ints(params, 2)
            return degree_shift(upper_tri_model(n), kappa)
        if family == "twist-xr":
            r = _ints(params, 1)[0]
            return borel_twist(xr_model(r), f"x{r}")
        if family == "xr-product":
            rs = _ints(params)
            if len(rs) < 2:
                raise UsageError("xr-product needs at least two ranks")
            model = xr_model(rs[0])
            for r in rs[1:]:
                model = tensor_product(model, xr_model(r))
            return model
        if family == "upper-tri-lie":
            return u_n_presentation(_ints(params, 1)[0])
        if family == "abelian-lie":
            return abelian_presentation(_ints(params, 1)[0])
        if family == "xr-dual":
            return dual_homotopy_lie(xr_model(_ints(params, 1)[0]))
    except ValueError as err:
        raise UsageError(str(err)) from None
    raise UsageError(f"unknown builtin family {family!r}")


def _load_document(path: str):
    try:
        text = open(path, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    result = parse(text)
    if not result.ok:
        raise DslValidationError(result.diagnostics)
    return result.document


def _resolve(args, lie: bool = False):
    """The algebra, or with ``lie`` the Lie presentation, named by --builtin
    or read from the file argument."""
    if args.builtin and args.file:
        raise UsageError("give either --builtin or a file, not both")
    if args.builtin:
        obj = builtin_object(args.builtin)
        if isinstance(obj, CDGA) == lie:
            kind = "a Lie presentation" if lie else "an algebra"
            raise UsageError(f"builtin {args.builtin!r} is not {kind}")
        return obj
    if args.file:
        document = _load_document(args.file)
        return to_lie(document) if lie else to_cdga(document)
    raise UsageError("need --builtin NAME or a file argument")


def _guard(cdga: CDGA, args) -> None:
    if args.unsafe_large:
        return
    if len(cdga.signature) > MAX_GENERATORS:
        raise UsageError(
            f"{len(cdga.signature)} generators exceeds the ceiling of "
            f"{MAX_GENERATORS}; pass --unsafe-large to proceed"
        )
    if cdga.truncation is not None and cdga.truncation > MAX_TRUNCATION:
        raise UsageError(
            f"truncation {cdga.truncation} exceeds the ceiling of "
            f"{MAX_TRUNCATION}; pass --unsafe-large to proceed"
        )


# ---------------------------------------------------------------------------
# subcommand handlers: return (inputs, outputs, tabular, failed_expectation)


def _cmd_cohomology(args):
    model = _resolve(args)
    if args.truncate is not None:
        if args.truncate < 1:
            raise UsageError("truncation must be >= 1")
        truncated = CDGA(
            model.signature, model.differentials, truncation=args.truncate, name=model.name
        )
        # A symmetry keeps degrees, so it holds in every window; the CDGA
        # still checks it on first use.
        truncated._symmetry = model._symmetry
        model = truncated
    _guard(model, args)
    table = betti(model, jobs=args.jobs)
    outputs = {"name": model.name, "betti": table.to_json_dict()}
    if args.representatives:
        reps = {}
        for n in range(len(table.per_degree)):
            if table.per_degree[n]:
                reps[str(n)] = [render_element(e) for e in representatives(model, n)]
        outputs["representatives"] = reps
    rows = [[n, b] for n, b in enumerate(table.per_degree)]
    rows.append(["total", table.total])
    return (
        {"model": model.name, "truncate": model.truncation},
        outputs,
        (["degree", "dimension"], rows),
        False,
    )


def _cmd_table1(args):
    if args.max_r < 1:
        raise UsageError(f"--max-r needs R >= 1, got R={args.max_r}")
    if args.max_r > 9 and not args.unsafe_large:
        raise UsageError("--max-r above 9 needs --unsafe-large")
    rows = []
    for r in range(1, args.max_r + 1):
        total = betti(xr_model(r), jobs=args.jobs).total
        rows.append({"r": r, "power": 2**r, "total": total})
    r0_total = betti(xr_model(0)).total
    outputs = {
        "rows": rows,
        "r0_discrepancy": {
            "computed_total": r0_total,
            "tabulated_total": 3,
            "note": R0_NOTE,
        },
    }
    tabular = (
        ["r", "2^r", "dim H*(X_r)"],
        [[row["r"], row["power"], row["total"]] for row in rows],
    )
    return {"max_r": args.max_r}, outputs, tabular, False


def _cmd_trc(args):
    chosen = [
        name
        for name, flag in [
            ("--n/--k", args.n is not None or args.k is not None),
            ("--scan-min", args.scan_min),
            ("--xr", args.xr is not None),
            ("--product", args.product is not None),
            ("--ratio-range", args.ratio_range is not None),
        ]
        if flag
    ]
    if len(chosen) != 1:
        raise UsageError("pick exactly one of --n/--k, --scan-min, --xr, --product, --ratio-range")
    try:
        if args.n is not None or args.k is not None:
            if args.n is None or args.k is None:
                raise UsageError("--n and --k go together")
            cert = trc_inequality(args.n, args.k)
            outputs = {"certificate": cert.to_json_dict()}
            tabular = (["field", "value"], sorted(outputs["certificate"].items()))
        elif args.scan_min:
            if args.max_n < 2:
                raise UsageError(f"--max-n needs N >= 2, got N={args.max_n}")
            scan = scan_minimal_counterexample(args.max_n)
            outputs = {"scan": scan.to_json_dict()}
            tabular = (["n", "inequality_holds"], [list(v) for v in scan.verdicts])
        elif args.xr is not None or args.product is not None:
            if args.xr is not None:
                cert = certificate_xr(args.xr)
            else:
                cert = certificate_xr_product(_ints(args.product))
            outputs = {"xr_certificate": cert.to_json_dict()}
            # Render every value here, total_betti included, so a total past
            # the int-to-str digit limit is refused as a too-long power is.
            tabular = (
                ["field", "value"],
                [[k, str(v)] for k, v in sorted(outputs["xr_certificate"].items())],
            )
        else:
            lo, hi = args.ratio_range
            if lo < 2:
                raise UsageError(f"--ratio-range needs LO >= 2, got LO={lo}")
            if lo > hi:
                raise UsageError(f"--ratio-range needs LO <= HI, got LO={lo}, HI={hi}")
            entries = [e.to_json_dict() for e in ratio_table(range(lo, hi + 1))]
            outputs = {"ratio_table": entries}
            tabular = (
                ["n", "k", "d(n,k)", "ratio"],
                [[e["n"], e["k"], e["d_nk"], e["ratio_decimal"]] for e in entries],
            )
    except ValueError as err:
        raise UsageError(str(err)) from None
    inputs = {
        key: getattr(args, key)
        for key in ("n", "k", "scan_min", "max_n", "xr", "product", "ratio_range")
    }
    return inputs, outputs, tabular, False


def _cmd_split(args):
    try:
        triple = split_at_k(args.n, args.k)
    except ValueError as err:
        raise UsageError(str(err)) from None
    zero = triple.fiber_differential_is_zero()
    outputs = {
        "n": args.n,
        "k": args.k,
        "d_nk": d_formula(args.n, args.k),
        "c_nk": c_formula(args.n, args.k),
        "total_generators": len(triple.total.signature),
        "base_generators": list(triple.base.signature.names),
        "fiber_generators": list(triple.fiber.signature.names),
        "fiber_differential_zero": zero,
    }
    if not zero:
        witness = next(
            g for g in triple.fiber.signature.names if not triple.fiber.d_of(g).is_zero()
        )
        outputs["fiber_differential_witness"] = {
            "generator": witness,
            "value": render_element(triple.fiber.d_of(witness)),
        }
    if args.fiber_betti:
        _guard(triple.fiber, args)
        outputs["fiber_betti"] = betti(triple.fiber, jobs=args.jobs).to_json_dict()
    tabular = (["field", "value"], [[k, json.dumps(v)] for k, v in outputs.items()])
    return {"n": args.n, "k": args.k}, outputs, tabular, False


def _cmd_obstruction(args):
    model = _resolve(args)
    fiber = args.fiber_gens.split(",") if args.fiber_gens else [
        g.name for g in model.signature.generators if g.degree == 1
    ]
    try:
        report = principal_obstruction(model, fiber, args.rank)
    except ValueError as err:
        raise UsageError(str(err)) from None
    except KeyError as err:
        # str() of a KeyError is the repr of its message.
        raise UsageError(err.args[0]) from None
    outputs = {"name": model.name, "obstruction": report.to_json_dict()}
    tabular = (
        ["parameter", "status"],
        [[f"{g}:{t}", "forced 0"] for g, t in report.forced_zero]
        + [[f"{g}:{t}", "free"] for g, t in report.free],
    )
    return {"model": model.name, "rank": args.rank}, outputs, tabular, False


def _cmd_center(args):
    L = _resolve(args, lie=True)
    report = center(L)
    outputs = {"name": L.name, "center": report.to_json_dict()}
    tabular = (["center basis"], [[d] for d in report.descriptions] or [["(trivial)"]])
    return {"model": L.name}, outputs, tabular, False


def _cmd_shift(args):
    try:
        original = upper_tri_model(args.n)
        shifted = degree_shift(original, args.kappa)
    except ValueError as err:
        raise UsageError(str(err)) from None
    _guard(original, args)
    b0 = betti(original, jobs=args.jobs)
    b1 = betti(shifted, jobs=args.jobs)
    equal = b0.total == b1.total
    outputs = {
        "n": args.n,
        "kappa": args.kappa,
        "original_betti": b0.to_json_dict(),
        "shifted_betti": b1.to_json_dict(),
        "totals_equal": equal,
    }
    tabular = (
        ["quantity", "original", "shifted"],
        [["total", b0.total, b1.total]],
    )
    return {"n": args.n, "kappa": args.kappa}, outputs, tabular, not equal


def _cmd_verify(args):
    model = _resolve(args)
    _guard(model, args)
    try:
        lines = open(args.classes, encoding="utf-8").read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {args.classes}: {err}") from None
    elems = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            elems.append(parse_element(model.signature, stripped))
    # Rank the Betti table with the user's --jobs; verify_classes reuses it.
    betti(model, jobs=args.jobs)
    try:
        report = verify_classes(model, elems)
    except ValueError as err:
        raise UsageError(str(err)) from None
    outputs = {
        "name": model.name,
        "count": len(elems),
        "verdict": report.to_json_dict(),
        "ok": report.ok,
    }
    tabular = (
        ["check", "result"],
        [
            ["all_closed", report.all_closed],
            ["independent", report.independent],
            ["spanning", report.spanning],
        ],
    )
    return {"model": model.name, "classes": args.classes}, outputs, tabular, not report.ok


# ---------------------------------------------------------------------------
# rendering


def _render_csv(tabular) -> str:
    headers, rows = tabular
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render_md(tabular) -> str:
    headers, rows = tabular
    out = ["| " + " | ".join(str(h) for h in headers) + " |"]
    out.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(out) + "\n"


def _add_model_arguments(sub, lie=False) -> None:
    sub.add_argument("file", nargs="?", help="definition file (.cdga)")
    sub.add_argument(
        "--builtin",
        help="family:params, e.g. xr:5, upper-tri:4, split-fiber:5,4, shift:4,1, "
        "twist-xr:5, xr-product:5,5"
        + (", upper-tri-lie:6, xr-dual:5, abelian-lie:3" if lie else ""),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcohom",
        description="Exact cohomology of free graded-commutative differential "
        "algebras, with the upper-triangular and X_r model families and "
        "big-integer counterexample certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=os.environ.get(FORMAT_ENV, "json"),
        help=f"output format (env {FORMAT_ENV} sets the default)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count(),
        help="most child processes that rank Betti torus-weight shares at once, "
        "each through every degree (default: the CPU count); 1, and models "
        "under the size gate, rank in this process; results never depend on it",
    )
    common.add_argument(
        "--unsafe-large",
        action="store_true",
        help=f"bypass the resource ceilings ({MAX_GENERATORS} generators, "
        f"truncation {MAX_TRUNCATION})",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, help_text):
        return commands.add_parser(name, help=help_text, parents=[common])

    sub = add_command("cohomology", "Betti table of a model")
    _add_model_arguments(sub)
    sub.add_argument("--representatives", action="store_true")
    sub.add_argument("--truncate", type=int)
    sub.set_defaults(handler=_cmd_cohomology)

    sub = add_command("table1", "2^r against dim H*(X_r) for r = 1..R")
    sub.add_argument("--max-r", type=int, default=9)
    sub.set_defaults(handler=_cmd_table1)

    sub = add_command("trc", "big-integer certificates and scans")
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--scan-min", action="store_true")
    sub.add_argument("--max-n", type=int, default=60)
    sub.add_argument("--xr", type=int)
    sub.add_argument("--product", help="comma-separated ranks, e.g. 5,5")
    sub.add_argument("--ratio-range", type=int, nargs=2, metavar=("LO", "HI"))
    sub.set_defaults(handler=_cmd_trc)

    sub = add_command("split", "base/fiber splitting of the triangular model")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--fiber-betti", action="store_true")
    sub.set_defaults(handler=_cmd_split)

    sub = add_command("obstruction", "principal-twist constraint solve")
    _add_model_arguments(sub)
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--fiber-gens", help="comma-separated generator names")
    sub.set_defaults(handler=_cmd_obstruction)

    sub = add_command("center", "center of a Lie presentation")
    _add_model_arguments(sub, lie=True)
    sub.set_defaults(handler=_cmd_center)

    sub = add_command("shift", "degree-shifted triangular model comparison")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--kappa", type=int, required=True)
    sub.set_defaults(handler=_cmd_shift)

    sub = add_command("verify", "check a proposed list of cohomology classes")
    _add_model_arguments(sub)
    sub.add_argument("--classes", required=True, help="file with one expression per line")
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.jobs is not None and args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if args.format not in FORMATS:
            # argparse checks --format against its choices, but not the default.
            raise UsageError(f"{FORMAT_ENV}={args.format!r} is not one of {', '.join(FORMATS)}")
        inputs, outputs, tabular, failed = args.handler(args)
    except DslValidationError as err:
        for diag in err.diagnostics:
            print(diag, file=sys.stderr)
        return 2
    except (UsageError, TruncationError, DifferentialError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"internal consistency error: {err}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    report = {
        "schema_version": "1",
        "command": ["nilcohom"] + argv,
        "subcommand": args.subcommand,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_seconds": round(elapsed, 6),
        "engine_version": __version__,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        sys.stdout.write(_render_csv(tabular))
    else:
        sys.stdout.write(_render_md(tabular))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
