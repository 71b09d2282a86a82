"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` swaps each traced function, in every `nilcohom` module that
binds it, for a wrapper that records a span: name, layer, start, end, parent
span and op id. `uninstall` puts the originals back, so untraced ops run the
unmodified library. Spans stay in memory until the run writes them out.

Worker threads (the command line's `--jobs` pool) start with an empty span
stack; their first span takes as parent the innermost open span of the main
thread, which is the call that started the pool.

Self time is attributed by a sweep over each op: at every instant the open
spans with no open child share the elapsed time equally. With one thread this
is the usual span-minus-children rule; when pool threads hold the
interpreter lock in turn, each gets its share of the wall time, so the layer
self times of an op always add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("algebra", "cdga", "linalg", "cohomology", "lie", "models", "trc", "dsl", "cli")

MODEL_BUILDERS = tuple(
    f"models.{name}"
    for name in (
        "upper_tri_model", "xr_model", "torus_model", "split_at_k", "degree_shift", "borel_twist",
    )
)
CERTIFICATES = tuple(
    f"trc.{name}"
    for name in (
        "trc_inequality", "ratio_table", "scan_minimal_counterexample",
        "certificate_xr", "certificate_xr_product", "factorial_split", "stirling_threshold",
    )
)
RENDERERS = (
    "trc.decimal_string", "trc.TrcCertificate.to_json_dict", "trc.RatioEntry.to_json_dict",
    "trc.ScanResult.to_json_dict", "trc.XrCertificate.to_json_dict",
)
TRACED = (
    "algebra.basis_of_degree", "algebra.basis_index", "algebra.transport",
    "cdga.CDGA.__init__", "cdga.CDGA.apply_d", "cdga.CDGA.differential_matrix",
    "linalg.rank_exact", "linalg.rank_only", "linalg.quotient_representatives",
    "cohomology.betti", "cohomology.representatives", "cohomology.verify_classes",
    "cohomology.tensor_product",
    "lie.u_n_presentation", "lie.center", "lie.chevalley_eilenberg", "lie.dual_homotopy_lie",
    "models.principal_obstruction",
    "dsl.parse", "dsl.to_cdga", "dsl.parse_element", "dsl.render_element",
    "dsl.serialize",
    "cli.main",
) + MODEL_BUILDERS + CERTIFICATES + RENDERERS

# Per-layer time metrics: ("inclusive", names) is the time of the outermost
# such spans with everything under them; ("self", names) excludes traced
# callees in any layer.
TIME_METRICS = {
    "algebra.basis_s": ("inclusive", ("algebra.basis_of_degree",)),
    "models.build_s": ("inclusive", MODEL_BUILDERS),
    "cdga.assemble_s": ("self", ("cdga.CDGA.differential_matrix",)),
    "linalg.rank_s": ("inclusive", ("linalg.rank_only",)),
    "linalg.kernel_s": ("inclusive", ("linalg.rank_exact",)),
    "linalg.quotient_s": ("inclusive", ("linalg.quotient_representatives",)),
    "cohomology.betti_self_s": ("self", ("cohomology.betti",)),
    "cohomology.verify_s": ("inclusive", ("cohomology.verify_classes",)),
    "cohomology.tensor_s": ("inclusive", ("cohomology.tensor_product",)),
    "trc.certificate_s": ("self", CERTIFICATES),
    "trc.render_s": ("inclusive", RENDERERS),
    "lie.center_s": ("self", ("lie.center",)),
    "lie.dualize_s": ("self", ("lie.dual_homotopy_lie", "lie.chevalley_eilenberg")),
    "dsl.parse_s": ("inclusive", ("dsl.parse",)),
    "dsl.serialize_s": ("inclusive", ("dsl.serialize",)),
    "dsl.render_s": ("inclusive", ("dsl.render_element",)),
    "cli.overhead_s": ("self", ("cli.main",)),
}

COUNT_METRICS = (
    "algebra.basis_monomials", "cdga.nnz", "linalg.rank", "linalg.kernel_vectors",
    "linalg.kernel_nonzeros", "linalg.kernel_stored", "trc.bigint_bits",
)

ROOT = "bench.op"
HOOK = "trace.hook"


class Span(NamedTuple):
    sid: int
    name: str
    parent: object
    start: float
    end: float
    failed: bool


def _bits(*values) -> int:
    return sum(abs(v).bit_length() for v in values)


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._bindings = None
        self.op_spans = []
        self.counts = defaultdict(int)
        self._seen = set()

    # ---- recording -------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> None:
        self.op_spans = []
        self.counts = defaultdict(int)
        self._seen = set()
        self._main_stack[:] = [next(self._ids)]
        self._root_start = perf_counter()

    def end_op(self) -> list:
        end = perf_counter()
        sid = self._main_stack.pop()
        self.op_spans.append(Span(sid, ROOT, None, self._root_start, end, False))
        return self.op_spans

    def count(self, key: str, amount: int, once=None) -> None:
        with self._lock:
            if once is not None:
                if once in self._seen:
                    return
                self._seen.add(once)
            self.counts[key] += amount

    def call(self, name, hook, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.op_spans.append(Span(sid, name, parent, start, perf_counter(), True))
            raise
        finally:
            stack.pop()
        end = perf_counter()
        self.op_spans.append(Span(sid, name, parent, start, end, False))
        if hook is not None:
            hook(self, args, result)
            self.op_spans.append(Span(next(self._ids), HOOK, parent, end, perf_counter(), False))
        return result

    # ---- installation ------------------------------------------------------

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to swap."""
        import nilcohom

        modules = [nilcohom] + [importlib.import_module(f"nilcohom.{m}") for m in LAYERS]
        plan = []
        for name in TRACED:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"nilcohom.{module_name}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                plan.append((owner, method, original, self._wrap(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        plan.append((mod, key, original, wrapper))
        return plan

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings or ():
            setattr(owner, key, original)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            return self.call(name, hook, fn, args, kwargs)

        return wrapper


# ---- counters taken at the call boundaries --------------------------------


def _basis_hook(tracer, args, result):
    sig, n = args[0], args[1]
    tracer.count("algebra.basis_monomials", len(result), once=("basis", id(sig), n))


def _matrix_hook(tracer, args, result):
    cdga, n = args[0], args[1]
    tracer.count("cdga.nnz", result.nnz(), once=("matrix", id(cdga), n))


def _rank_hook(tracer, args, result):
    tracer.count("linalg.rank", result)


def _kernel_hook(tracer, args, result):
    vectors = result.kernel_basis
    tracer.count("linalg.rank", result.rank)
    tracer.count("linalg.kernel_vectors", len(vectors))
    tracer.count("linalg.kernel_nonzeros", sum(1 for v in vectors for x in v if x))
    tracer.count("linalg.kernel_stored", sum(len(v) for v in vectors))


def _trc_hook(tracer, args, result):
    tracer.count("trc.bigint_bits", _bits(result.factorial, result.power))


def _ratio_hook(tracer, args, result):
    for entry in result:
        tracer.count("trc.bigint_bits", _bits(entry.ratio.numerator, entry.ratio.denominator))


def _xr_hook(tracer, args, result):
    tracer.count("trc.bigint_bits", _bits(result.total_betti, result.power))


HOOKS = {
    "algebra.basis_of_degree": _basis_hook,
    "cdga.CDGA.differential_matrix": _matrix_hook,
    "linalg.rank_only": _rank_hook,
    "linalg.rank_exact": _kernel_hook,
    "trc.trc_inequality": _trc_hook,
    "trc.ratio_table": _ratio_hook,
    "trc.certificate_xr": _xr_hook,
    "trc.certificate_xr_product": _xr_hook,
}


# ---- analysis ------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def attribute(spans) -> dict:
    """Self time of each span id, by the equal-share sweep described above."""
    parent = {s.sid: s.parent for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, 0, -s.sid))
    events.sort()
    own = defaultdict(float)
    open_children = defaultdict(int)
    active = set()
    previous = None
    for time, kind, key in events:
        if active and time > previous:
            leaves = [a for a in active if not open_children[a]]
            share = (time - previous) / len(leaves)
            for a in leaves:
                own[a] += share
        previous = time
        sid = key if kind else -key
        p = parent.get(sid)
        if kind:
            active.add(sid)
            if p in active:
                open_children[p] += 1
        else:
            active.discard(sid)
            if p in active:
                open_children[p] -= 1
    return own


def analyse_op(spans, counts) -> dict:
    """Per-layer self times, the named time metrics and the counts of one op."""
    own = attribute(spans)
    by_id = {s.sid: s for s in spans}
    subtree = defaultdict(float)
    for sid in sorted(by_id, reverse=True):  # children have larger ids than parents
        subtree[sid] += own[sid]
        p = by_id[sid].parent
        if p in by_id:
            subtree[p] += subtree[sid]

    def has_ancestor_in(sid, names):
        p = by_id[sid].parent
        while p in by_id:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    out = defaultdict(float)
    for s in spans:
        out[f"{layer_of(s.name)}.self_s"] += own[s.sid]
    for metric, (mode, names) in TIME_METRICS.items():
        chosen = [s for s in spans if s.name in names]
        if mode == "self":
            out[metric] = sum(own[s.sid] for s in chosen)
        else:
            out[metric] = sum(subtree[s.sid] for s in chosen if not has_ancestor_in(s.sid, names))
    out["trc.render_failed"] = sum(
        1 for s in spans if s.failed and s.name in RENDERERS and not has_ancestor_in(s.sid, RENDERERS)
    )
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    return out
