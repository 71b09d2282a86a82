"""nilcohom benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload betti-u6 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout; the library is imported from
src/ with no install step. The parent process times several fresh
interpreter starts up to `import nilcohom` (setup_s), then runs the workload
in a child process (worker.py) that reads its own peak RSS. With --trace 0
the result carries the end-to-end metrics, whose timings are scaled to the
reference speed of speed.py; with --trace 1 it carries the per-layer metrics
of a separate traced run, in raw seconds. The last line of stdout is the
JSON result; the lines before it print every metric with its unit and the
run's context, and a copy goes to perfbench/out/. `--workload all` runs the
workloads one after another, each printing its own block and result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("betti-u6", "reps-u6", "certificates")

SETUP_STARTS = 15
PROBE = "import time, nilcohom; print(time.monotonic())"
DEADLINE_S = 175  # the whole benchmark must finish within 180 s

# Per-layer metrics of a traced run: name -> unit. Times are seconds per op
# and counts are per op, both averaged over the traced ops.
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "algebra.basis_s": "s",
    "algebra.basis_monomials": "count",
    "models.build_s": "s",
    "cdga.assemble_s": "s",
    "cdga.nnz": "count",
    "linalg.rank_s": "s",
    "linalg.rank": "count",
    "linalg.kernel_s": "s",
    "linalg.kernel_vectors": "count",
    "linalg.kernel_nonzeros": "count",
    "linalg.kernel_density": "ratio",
    "linalg.quotient_s": "s",
    "cohomology.betti_self_s": "s",
    "cohomology.verify_s": "s",
    "cohomology.tensor_s": "s",
    "trc.certificate_s": "s",
    "trc.render_s": "s",
    "trc.bigint_bits": "count",
    "trc.render_failed": "count",
    "lie.center_s": "s",
    "lie.dualize_s": "s",
    "dsl.parse_s": "s",
    "dsl.serialize_s": "s",
    "dsl.render_s": "s",
    "cli.overhead_s": "s",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    env.pop("NILCOHOM_FORMAT", None)  # the CLI op runs with default flags
    # Imports read cached bytecode, as from an installed package, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child {argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup() -> tuple:
    """Seconds from spawning a fresh interpreter until `import nilcohom` is
    done: (raw samples, samples scaled to the reference speed).

    One unmeasured start first fills the bytecode cache, as any installed
    copy would have it. The reference kernel runs between starts.
    """
    run_child(["-c", PROBE], timeout=60)
    meter = speed.Speedometer(period=0.5)
    for _ in range(SETUP_STARTS):
        meter.mark()
        start = time.monotonic()
        ready = float(run_child(["-c", PROBE], timeout=60).split()[-1])
        meter.add(ready - start)
    meter.close()
    return meter.raw, meter.scaled()


def git_commit() -> object:
    """HEAD read from .git without running git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, never below the median. With fewer than 21
    samples no such percentile lies above the median, and the median is used."""
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(result: dict, setup: tuple) -> tuple:
    """Timings are scaled to the reference speed; the notes give them raw."""
    samples, raw = result["scaled"], result["untraced"]
    setup_raw, setup_scaled = setup
    value, percentile, beyond = tail(samples)
    metrics = {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    notes = {
        "ops_per_s": f"{len(samples)} ops; raw {len(raw) / sum(raw):.6g}",
        "op_p50_s": f"raw {statistics.median(raw):.6g}",
        "op_tail_s": f"p{percentile:.1f} of {len(samples)} ops, {beyond} beyond; raw {tail(raw)[0]:.6g}",
        "setup_s": f"median of {len(setup_raw)} interpreter starts; raw {statistics.median(setup_raw):.6g}",
    }
    return metrics, notes


def per_layer(result: dict) -> tuple:
    traced, untraced = result["traced"], result["untraced"]
    n = len(traced)
    sums = result["layer_sums"]
    stored = sums.get("linalg.kernel_stored", 0)
    derived = {
        "linalg.kernel_density": sums.get("linalg.kernel_nonzeros", 0) / stored if stored else 0.0,
        "trace.untraced_op_s": statistics.median(untraced),
        "trace.traced_op_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
    }
    metrics = {
        name: (derived[name] if name in derived else sums.get(name, 0.0) / n, unit)
        for name, unit in LAYER_UNITS.items()
    }
    core = ("algebra", "cdga", "linalg", "cohomology", "cli")
    accounted = sum(metrics[f"{layer}.self_s"][0] for layer in core)
    notes = {
        "trace.overhead_s": f"median of {n} traced-minus-untraced pairs",
        "trace.untraced_op_s": (
            f"algebra+cdga+linalg+cohomology+cli self time {accounted:.6g} s per traced op"
        ),
    }
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Run one workload, print its metrics and its result line; 0 on success."""
    started = time.monotonic()
    ctx = context(workload, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    try:
        setup = ([], []) if trace else measure_setup()
        worker = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            worker += ["--spans", str(OUT / f"spans-{stem}.json")]
        remaining = DEADLINE_S - (time.monotonic() - started)
        result = json.loads(run_child(worker, timeout=remaining).splitlines()[-1])
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    metrics, notes = per_layer(result) if trace else end_to_end(result, setup)

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    print("context " + json.dumps(ctx))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:26s} {value:.6g} {unit}{note}")
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"  failed_op_ratio {failed / attempted:.6g} ({failed}/{attempted}); "
          f"{result['render_defect_ops']} ops hit the 4300-digit render defect")
    if result["kernels"]:
        print(f"  reference kernel median {statistics.median(result['kernels']):.4g} s "
              f"over {len(result['kernels'])} runs (REFERENCE_S {speed.REFERENCE_S} s)")
    for request, error in result["failures"][:5]:
        print(f"  failed {request}: {error}")
    summary = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"context": ctx, "setup_samples": setup, "worker": result, "result": summary}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "nilcohom" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SOURCE}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
