"""One workload in its own process: a closed loop with one client.

Started by run.py with the library's sources on PYTHONPATH. It issues the
next op only after the previous one has finished, for the given number of
seconds, checks every output against its oracle outside the timed region,
and prints one JSON line with the per-op samples and its own peak RSS.
Between untraced ops it runs the reference kernel of speed.py, every
`KERNEL_PERIOD_S` seconds or after each op if ops take longer, and reports
each op's time also scaled to the reference speed.

With --trace 1, each request runs untraced and then traced; the traced runs
give the per-layer figures and each pair gives one sample of the tracing
overhead. The spans are written to --spans when the loop ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict

import tracer as tracing
from speed import Speedometer
from workloads import (
    WORKLOADS,
    OpContext,
    Rejected,
    check_fresh,
    is_expected_failure,
)

KERNEL_PERIOD_S = 2.5


class Loop:
    """Samples, failures and per-layer sums of one closed-loop run.

    An op fails when it raises or its oracle rejects its output; every failed
    op is in `failures` and makes the run incorrect. A request predicted to
    hit the known render defect that raises CPython's digit-limit error does
    what the library does today, so it is counted in `defects` instead.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.speed = None
        self.untraced, self.traced = [], []
        self.failures = []
        self.attempted = self.defects = 0
        self.layer_sums = defaultdict(float)
        self.spans = []

    def run_op(self, request, traced: bool) -> None:
        """One op: time it, then check it outside the timed region."""
        self.attempted += 1
        ctx = OpContext()
        if traced:
            self.tracer.install()
            self.tracer.begin_op()
        t0 = time.perf_counter()
        outcome = error = None
        try:
            outcome = self.workload.run(ctx, request)
        except Exception as exc:  # a raising op is a failed op, not a crash
            if is_expected_failure(request, exc):
                self.defects += 1
            else:
                error = f"{type(exc).__name__}: {str(exc)[:120]}"
        elapsed = time.perf_counter() - t0
        if traced:
            op_spans = self.tracer.end_op()
            self.tracer.uninstall()
            for key, value in tracing.analyse_op(op_spans, self.tracer.counts).items():
                self.layer_sums[key] += value
            self.spans.extend((self.attempted, *s) for s in op_spans)
        (self.traced if traced else self.untraced).append(elapsed)
        if not traced and self.speed is not None:
            self.speed.add(elapsed)
        if outcome is not None:
            try:
                check_fresh(ctx, outcome)
                self.workload.check(request, outcome)
            except Rejected as exc:
                error = f"rejected: {exc}"
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {str(exc)[:120]}"
        if error is not None:
            self.failures.append([request, error])

    def run(self, seed: int, seconds: float) -> float:
        """Issue requests while the next one, predicted to take as long as
        the last, would end no more than half its time past `seconds`. A
        traced run repeats each request traced right after its untraced run;
        an untraced run also measures the machine's speed between ops."""
        requests = self.workload.requests(seed)
        start = time.perf_counter()
        if self.tracer is None:
            self.speed = Speedometer(KERNEL_PERIOD_S)
        last = 0.0
        while time.perf_counter() - start + last / 2 < seconds:
            began = time.perf_counter()
            if self.speed is not None:
                self.speed.mark()
            request = next(requests)
            self.run_op(request, traced=False)
            if self.tracer is not None:
                self.run_op(request, traced=True)
            last = time.perf_counter() - began
        if self.speed is not None:
            self.speed.close()
        return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the recorded spans (traced runs)")
    args = parser.parse_args(argv)

    loop = Loop(WORKLOADS[args.workload], tracing.Tracer() if args.trace else None)
    try:
        loop_s = loop.run(args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 3
    if args.spans and loop.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            fields = ["op", "span", "name", "parent", "start", "end", "failed"]
            json.dump({"fields": fields, "spans": loop.spans}, fh)
    result = {
        "attempted": loop.attempted,
        "render_defect_ops": loop.defects,
        "failures": loop.failures,
        "untraced": loop.untraced,
        "scaled": loop.speed.scaled() if loop.speed else [],
        "kernels": loop.speed.kernels if loop.speed else [],
        "kernels_before": loop.speed.before if loop.speed else [],
        "traced": loop.traced,
        "layer_sums": dict(loop.layer_sums),
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
