"""plurikp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify-qan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The line
before it is a JSON record of the run: environment, counts, gate failures.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

import refclock

# One thread everywhere (the rank probes call SVD); set before numpy loads.
PINNED_ENV = {
    "PLURIKP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

_CALLS_AND_SELF = (
    "dilog.re_dilog", "dilog.skew_dilog",
    "lagrangian.three_form", "lagrangian.action", "lagrangian.corner_product",
    "lagrangian.corner_residual", "lagrangian.exterior_derivative",
    "cells.facets", "cells.boundary", "cells.flower", "cells.decompose_flower",
    "cells.parse_chain", "cells.format_chain", "cells.Chain.restricted_to_vertex",
    "dkp.solve_ambo_ivp", "dkp.solve_cube_ivp",
    "dkp.nonsingularity_margin", "dkp.monomial_sign_pattern",
    "verify.classify_branch",
)
PER_LAYER = {
    **{f"{key}.{part}": unit for key in _CALLS_AND_SELF
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "cells.OrientedCell.created": "count",
    "dkp.solve.singular": "count",
    "verify.draw_accept_ratio": "ratio",
    "dkp.field_io.self_s": "s",
    "dkp.field_io.bytes": "bytes",
    "cli.main.self_s": "s",
    "verify.run_suite.self_s": "s",
    "verify.classify_branch.inconclusive": "count",
    "verify.check_euler_lagrange_sum.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.sanity_failures": "count",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="import and build the first round's inputs, then exit (times setup_s)",
    )
    return parser.parse_args(argv)


# Tail percentiles as exact fractions, so that nearest ranks have no rounding.
_TAIL_LADDER = ((50, 1, 2), (90, 9, 10), (99, 99, 100), (99.9, 999, 1000), (99.99, 9999, 10000))


def tail_percentile(samples: list[float]) -> tuple[float | None, float]:
    """(percentile, value) of the highest of p50/p90/p99/p99.9/p99.99 that has at
    least ten samples beyond it (nearest rank).  With fewer than twenty samples
    no percentile qualifies; the maximum is returned with percentile None."""
    ordered = sorted(samples)
    n = len(ordered)
    best: tuple[float | None, float] = (None, ordered[-1])
    for p, num, den in _TAIL_LADDER:
        rank = -(-num * n // den)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    try:
        return {"revision": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}


def _environment() -> dict:
    import numpy

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpus,
        **_git_state(),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Time from spawning a fresh process until it has imported the package and
    built the first round's inputs (interpreter start, imports, module-level
    tables, input generation), at reference speed.  The probe reports when it
    was ready, the time its reference clock paused it, and its scale factor."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        probe = subprocess.run(command, check=True, timeout=120, capture_output=True, text=True)
        ready = json.loads(probe.stdout.splitlines()[-1])
        times.append((ready["ready"] - spawned - ready["paused"]) * ready["factor"])
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_plain(workload, args) -> tuple[dict, dict]:
    setup = _setup_seconds(args)
    rounds, raw_rounds, factors, item_samples = [], [], [], []
    failures, attempted, items = [], 0, 0
    with refclock.ReferenceClock() as ref:
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            inputs = workload.inputs(args.seed, len(rounds))
            mark = len(ref.samples)
            result = workload.run(inputs, clock=ref.now)
            factor = ref.factor(mark)
            tried, failed = workload.gate(inputs, result.outputs)
            attempted += tried
            failures.extend(failed)
            raw_rounds.append(result.seconds)
            factors.append(factor)
            rounds.append(factor * result.seconds)
            items += result.items
            per_span = result.items / len(result.item_spans)
            for start, end in result.item_spans:
                local = ref.local_factor(start, end) or factor
                item_samples.append(local * (end - start) / per_span)
    tail_p, tail = tail_percentile(item_samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds),
        "items_per_s": items / sum(rounds),
        "item_p50_ms": 1e3 * statistics.median(item_samples),
        "item_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_seconds": setup,
        "rounds": len(rounds),
        "round_raw_seconds": raw_rounds,
        "round_factors": factors,
        "reference_samples": len(ref.samples),
        "items": items,
        "item_samples": len(item_samples),
        "item_tail_percentile": tail_p,
        "attempted": attempted,
        "failures": failures,
    }
    return metrics, detail


def _run_traced(workload, args) -> tuple[dict, dict]:
    """Each round runs twice on the same inputs, once traced and once not, in
    alternating order; per-layer numbers are averages per traced round."""
    import tracer
    import workloads

    trace = tracer.Tracer()
    plain, traced, factors, failures, attempted = [], [], [], [], 0
    with refclock.ReferenceClock() as ref:
        begin = time.perf_counter()
        while not traced or time.perf_counter() - begin < args.seconds:
            inputs = workload.inputs(args.seed, len(traced))
            for use_tracer in (len(traced) % 2 == 0, len(traced) % 2 == 1):
                mark = len(ref.samples)
                if use_tracer:
                    # Kernel time inside a span is taken out of its self time.
                    ref.on_pause = trace.pause
                    trace.install()
                    try:
                        result = workload.run(inputs, trace, ref.now)
                    finally:
                        trace.uninstall()
                        ref.on_pause = None
                else:
                    result = workload.run(inputs, clock=ref.now)
                factor = ref.factor(mark)
                (traced if use_tracer else plain).append(factor * result.seconds)
                if use_tracer:
                    factors.append(factor)
                tried, failed = workload.gate(inputs, result.outputs)
                attempted += tried
                failures.extend(failed)
    n = len(traced)
    # Self times are scaled like the end-to-end times, with the mean factor of
    # the traced rounds, and given per traced round.
    per_round = statistics.fmean(factors) / n
    totals = trace.function_totals()
    bindings = trace.binding_calls()
    counts = trace.counts
    metrics = {}
    for key in _CALLS_AND_SELF:
        calls, own = totals[key]
        metrics[f"{key}.calls"] = calls / n
        metrics[f"{key}.self_s"] = own * per_round
    attempts = bindings.get("verify.solve_ambo_ivp", 0) + bindings.get("verify.solve_cube_ivp", 0)
    accepted = counts["verify.random_solution.accepted"]
    sanity = tracer.sanity_failures(
        bindings, totals,
        workloads.EXPECTED_BINDINGS[workload.name],
        workloads.EXPECTED_SILENT.get(workload.name, ()),
    )
    metrics.update({
        "cells.OrientedCell.created": counts["cells.OrientedCell.created"] / n,
        "dkp.solve.singular": counts["dkp.solve.singular"] / n,
        "verify.draw_accept_ratio": accepted / attempts if attempts else 0.0,
        "dkp.field_io.self_s": (
            totals["dkp.read_field_file"][1] + totals["dkp.write_field_file"][1]
        ) * per_round,
        "dkp.field_io.bytes": counts["dkp.field_io.bytes"] / n,
        "cli.main.self_s": totals["cli.main"][1] * per_round,
        "verify.run_suite.self_s": totals["verify.run_suite"][1] * per_round,
        "verify.classify_branch.inconclusive": counts["verify.classify_branch.inconclusive"] / n,
        "verify.check_euler_lagrange_sum.self_s": (
            totals["verify.check_euler_lagrange_sum"][1] * per_round
        ),
        "trace.untraced_wall_s": statistics.median(plain),
        "trace.traced_wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.spans": len(trace.start) / n,
        "trace.sanity_failures": len(sanity),
    })
    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"spans-{workload.name}.npz"
    trace.write(str(span_file))
    detail = {
        "traced_rounds": n,
        "traced_round_seconds": traced,
        "untraced_round_seconds": plain,
        "round_factors": factors,
        "span_file": str(span_file.relative_to(ROOT)),
        "binding_calls": bindings,
        "draws": {"accepted": accepted, "solver_attempts": attempts},
        "sanity_failures": sanity,
        "attempted": attempted,
        "failures": failures,
    }
    return metrics, detail


def main(argv: list[str]) -> int:
    os.environ.update(PINNED_ENV)
    args = _parse_args(argv)
    if not (SRC / "plurikp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'plurikp'}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        # A setup probe is timed from the start, imports included.
        probe = stack.enter_context(refclock.ReferenceClock()) if args.setup_probe else None
        sys.path.insert(0, str(SRC))
        import plurikp

        if Path(plurikp.__file__).resolve().parent != (SRC / "plurikp").resolve():
            print(f"error: imported plurikp from {plurikp.__file__}", file=sys.stderr)
            return 2
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        WORKDIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORKDIR)
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        workload = workloads.make(args.workload, workdir)
        if probe is not None:
            workload.inputs(args.seed, 0)
            ready = time.time()
            print(json.dumps({"ready": ready, "paused": probe.paused, "factor": probe.factor()}))
            return 0
        if args.trace:
            metrics, detail = _run_traced(workload, args)
            units = PER_LAYER
        else:
            metrics, detail = _run_plain(workload, args)
            units = END_TO_END
    failed = len(detail["failures"])
    correct = failed == 0
    detail["failures"] = detail["failures"][:20]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        **detail,
    }
    print(json.dumps({"perfbench": record}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {name: _metric(metrics[name], unit) for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
