"""Benchmark of the fbqp library.

Run from the repository root, for example:

    python3 bench/run.py --workload acceptance_fleet --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.
The workloads are described in workloads.py. With ``--trace 0`` a run
measures the library untouched and prints the end-to-end metrics; with
``--trace 1`` it wraps the library's layer boundaries (see tracing.py) and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` counts the inputs checked and ``failed`` those that failed a
check on any visit, so both depend only on the seed. Item and solve times
are gated in ref-ms, a unit that follows the shared host's speed (see
refclock.py), and printed in ms of the wall clock as well.
Every run also writes a result file (and a traced run its spans) under
``bench/out/`` or ``--out``; compare.py reads those files.

BLAS is pinned to one thread before numpy is imported, and a run that finds
the pin not in force prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
import spec

BENCH_DIR = Path(__file__).resolve().parent
SOURCE = BENCH_DIR.parent / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
WARMUP_ITEMS = 4
# Items of dense_medium that the informational run at nproc BLAS threads solves.
PROBE_ITEMS = 16
PROBE_TIMEOUT_S = 120
SOLVE_COUNTERS = ("inner_iterations", "outer_iterations", "factorizations")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*spec.WORKLOADS, "all"),
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, help="use only the first N inputs")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument(
        "--blas-threads",
        type=int,
        help="informational run at this BLAS thread count; prints no result",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.items is not None and args.items < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --items >= 1")
    if args.workload == "all" and args.blas_threads is not None:
        parser.error("--blas-threads needs a single workload")
    return args


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else float("nan")


class Tally:
    """What one phase of a run measured, visit by visit.

    An item is one input of the workload. A run visits each input one or
    more times; ``inputs`` counts the inputs visited and ``visits`` every
    visit. An input fails when any of its visits fails, so the counts of
    failed and wrong inputs depend only on the seed, not on how many passes
    the run found time for.
    """

    def __init__(self):
        self.times: dict[int, list[dict[str, float]]] = {}
        # Seconds per ref-ms at each visit (see refclock.py); None untimed.
        self.ref_ms_s: dict[int, list[float | None]] = {}
        self.visits = 0
        self.failed: set[int] = set()
        self.wrong: set[int] = set()
        self.failures: list[str] = []
        # Sums of the SolveResult counters; None once a result lacks one.
        self.counters: dict[str, int | None] = dict.fromkeys(SOLVE_COUNTERS, 0)
        self.doc_bytes = 0

    @property
    def inputs(self) -> int:
        return len(self.times)

    def add(self, k, times, failure, out, ref_ms_s=None) -> None:
        self.times.setdefault(k, []).append(times)
        self.ref_ms_s.setdefault(k, []).append(ref_ms_s)
        self.visits += 1
        if failure is not None:
            self.failed.add(k)
            if failure.wrong:
                self.wrong.add(k)
            line = f"item {k}: {failure.reason}"
            if len(self.failures) < 10 and line not in self.failures:
                self.failures.append(line)
        if out is not None:
            for name, total in self.counters.items():
                count = getattr(out["result"], name, None)
                self.counters[name] = None if total is None or count is None else total + count
            self.doc_bytes += out.get("doc_bytes", 0)

    def per_input(self, op: str | None = None, inputs=None, ref=False) -> list[float]:
        """Each input's time in ``op`` (the whole item when None) in ms, or
        in ref-ms when ``ref``, as the median of its visits.

        The median of an input's visits, seconds apart, drops the moments
        when a neighbour on the shared host slowed this process down.
        """
        times = []
        for k in self.times if inputs is None else inputs:
            seen = [(sum(t.values()) if op is None else t[op]) / (r if ref else 1e-3)
                    for t, r in zip(self.times.get(k, ()), self.ref_ms_s.get(k, ()))
                    if op is None or op in t]
            if seen:
                times.append(statistics.median(seen))
        return times

    def items_per_s(self, ref=False) -> float:
        """Verified items per second (per ref-s when ``ref``) of a pass at
        each input's median time."""
        return (self.inputs - len(self.failed)) / (sum(self.per_input(ref=ref)) * 1e-3)


def run_item(workload, k, tally, recorder=None, clock=None) -> None:
    from workloads import Failure

    times: dict[str, float] = {}
    if clock is not None:
        clock.tick()
    out = None
    if recorder is not None:
        recorder.item = k
        recorder.on = True
    try:
        out = workload.execute(k, times)
    except Exception as exc:  # a raising call fails its item; the run goes on
        op = next((op for op in workload.ops if op not in times), "item")
        failure = Failure(f"{op} raised {type(exc).__name__}: {exc}", wrong=False)
    finally:
        if recorder is not None:
            recorder.on = False
    if out is not None:
        failure = workload.check(k, out)
    tally.add(k, times, failure, out, clock.ref_ms_s() if clock is not None else None)


def timed_loop(workload, seconds, clock) -> Tally:
    """Run items in order, one at a time, cycling over the inputs: at least
    one whole pass, then on until ``seconds`` have elapsed."""
    tally = Tally()
    for _ in range(refclock.WINDOW):
        clock.tick()
    deadline = time.perf_counter() + seconds
    count = len(workload)
    visits = 0
    while visits < count or time.perf_counter() < deadline:
        run_item(workload, visits % count, tally, clock=clock)
        visits += 1
    return tally


def traced_loop(workload, seconds, recorder) -> tuple[Tally, Tally]:
    """Alternate whole passes with the spans off and on for about
    ``seconds``, at least one of each, so that both sides of the tracing
    overhead see the same machine. A pair of passes that would end past the
    deadline is not started."""
    untraced, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for tally, spans in ((untraced, None), (traced, recorder)):
            for k in range(len(workload)):
                run_item(workload, k, tally, spans)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return untraced, traced


def import_seconds() -> float:
    """Median time to import fbqp, each time in a fresh interpreter.

    The run's own import happens once and varies with what the machine is
    doing at that moment, so set-up time takes the median of several.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import fbqp; print(time.perf_counter() - t0)")
    durations = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SOURCE)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        durations.append(float(proc.stdout))
    return statistics.median(durations)


def set_up(args):
    """Build the inputs and warm up, several times; keep the last workload."""
    from workloads import WORKLOADS

    durations = []
    for _ in range(1 if args.blas_threads else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.items)
        warm = Tally()
        for k in range(min(WARMUP_ITEMS, len(workload))):
            run_item(workload, k, warm)
        durations.append(time.perf_counter() - t0)
    return workload, statistics.median(durations)


def thread_probe(args, workload) -> None:
    """Informational run: solve the first items once at --blas-threads."""
    tally = Tally()
    for k in range(len(workload)):
        run_item(workload, k, tally)
    print(json.dumps({
        "informational": True,
        "blas_threads": args.blas_threads,
        "solve_ms_p50": percentile(tally.per_input("solve"), 50),
        "items": tally.inputs,
    }))


def probe_at_nproc(args, nproc, tally) -> dict:
    """dense_medium's solve_ms_p50 at nproc BLAS threads, beside the pinned value."""
    items = min(PROBE_ITEMS, tally.inputs)
    pinned = tally.per_input("solve", range(items))
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
        "--items", str(items), "--blas-threads", str(nproc),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "blas_threads": nproc,
        "solve_ms_p50": probe["solve_ms_p50"],
        "pinned_solve_ms_p50_same_items": percentile(pinned, 50),
        "items": items,
    }


def end_to_end(workload, tally, setup_s) -> dict[str, float]:
    values = {
        "items_per_ref_s": tally.items_per_s(ref=True),
        "solve_ref_ms_p50": percentile(tally.per_input("solve", ref=True), 50),
        "solve_ref_ms_p90": percentile(tally.per_input("solve", ref=True), 90),
        "items_per_s": tally.items_per_s(),
        "solve_ms_p50": percentile(tally.per_input("solve"), 50),
        "solve_ms_p90": percentile(tally.per_input("solve"), 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(tally.failed) / tally.inputs,
    }
    for metric in spec.WORKLOAD_END_TO_END[workload.name]:
        op = metric.name.removesuffix("_ms_p50")
        values[metric.name] = percentile(tally.per_input(op), 50)
    return values


def per_layer(recorder, untraced, traced) -> tuple[dict[str, float], dict]:
    import tracing

    items = traced.visits
    values, accounting = tracing.layer_split(recorder, items)
    counters = traced.counters
    for name, total in counters.items():
        if total is None:
            print(f"warning: SolveResult has no {name}; reads as 0", file=sys.stderr)
            counters[name] = 0
        values[f"solver.{name}"] = counters[name] / items
    values["solver.steps_per_factorization"] = (
        counters["inner_iterations"] / counters["factorizations"]
        if counters["factorizations"] else 0.0
    )
    values["solver.residuals_per_jacobian"] = (
        values["solver.residual_calls"] / values["solver.jacobian_calls"]
        if values["solver.jacobian_calls"] else 0.0
    )
    values["io.doc_bytes"] = traced.doc_bytes / items
    values["trace.untraced_items_per_s"] = untraced.items_per_s()
    values["trace.traced_items_per_s"] = traced.items_per_s()
    values["trace.overhead_pct"] = (
        values["trace.untraced_items_per_s"] / values["trace.traced_items_per_s"] - 1.0
    ) * 100.0
    return values, accounting


def untraced_run(args, workload, env, setup_s, result) -> tuple[list, dict]:
    clock = refclock.RefClock()
    tally = timed_loop(workload, args.seconds, clock)
    values = end_to_end(workload, tally, setup_s)
    passes = tally.visits / len(workload)
    beyond = len(workload) - math.ceil(0.9 * len(workload))
    report(spec.workload_metrics(args.workload), values)
    print(f"{len(workload)} inputs, each timed as the median of its visits "
          f"({passes:.2f} per input); {beyond} beyond p90"
          + ("" if beyond >= 10 else " (fewer than 10)"))
    ref_ms = [tick * 1e3 * refclock.REF_MS_ITERATIONS / refclock.TICK_ITERATIONS
              for tick in clock.ticks]
    q1, median, q3 = statistics.quantiles(ref_ms, n=4)
    print(f"one ref-ms took {median:.4g} ms [quartiles {q1:.4g}, {q3:.4g}] "
          f"over {len(ref_ms)} ticks")
    result.update(passes=passes, ref_ms_in_ms={"q1": q1, "median": median, "q3": q3})
    if args.workload == "dense_medium" and env["nproc"] > 1:
        info = result["informational"] = probe_at_nproc(args, env["nproc"], tally)
        if "error" in info:
            print(f"informational run failed: {info['error']}")
        else:
            print(f"informational: solve_ms_p50 {info['solve_ms_p50']:.4g} ms at "
                  f"{info['blas_threads']} BLAS threads vs "
                  f"{info['pinned_solve_ms_p50_same_items']:.4g} ms pinned to 1, "
                  f"on the first {info['items']} items (not compared)")
    return [tally], values


def traced_run(args, workload, recorder, result) -> tuple[list, dict]:
    untraced, traced = traced_loop(workload, args.seconds, recorder)
    values, accounting = per_layer(recorder, untraced, traced)
    print(f"traced {traced.visits} items in {traced.visits // len(workload)} pass(es), "
          f"{len(recorder)} spans")
    report(spec.PER_LAYER, values)
    for ctx, entry in sorted(accounting.items()):
        print(f"accounting {ctx}: span {entry['span_ms']:.6g} ms/item = "
              f"split {entry['split_ms']:.6g} ms/item, unattributed "
              f"{entry['unattributed_ms']:.3g} ms/item")
    result.update(accounting=accounting, missing_targets=recorder.missing, spans=len(recorder))
    return [untraced, traced], values


def report(metrics, values) -> None:
    for metric in metrics:
        print(f"{metric.name:<32} {values[metric.name]:>14.6g} {metric.unit}")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for workload in spec.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        if args.items is not None:
            command += ["--items", str(args.items)]
        sys.stdout.flush()
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.workload == "all":
        sys.exit(run_all(args))
    if "numpy" in sys.modules:
        fail("numpy was imported before the BLAS thread pin was set")
    threads = args.blas_threads or 1
    for variable in BLAS_ENV:
        os.environ[variable] = str(threads)
    if not (SOURCE / "fbqp" / "__init__.py").is_file():
        fail(f"no fbqp sources at {SOURCE}; run from a checkout of the repository")
    sys.path.insert(0, str(SOURCE))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imported here so the pin above precedes it)

    recorder = None
    if args.trace:
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401

        import tracing

        recorder = tracing.Recorder()
        recorder.patch_scipy()
    import fbqp

    import_s = time.perf_counter() - t0
    if Path(fbqp.__file__).resolve().parent != (SOURCE / "fbqp").resolve():
        fail(f"imported fbqp from {fbqp.__file__}, not from {SOURCE}")
    if recorder is not None:
        recorder.patch_fbqp()

    import envinfo

    env = envinfo.collect(threads)
    live = {owner: info["threads"] for owner, info in env["blas"].items()}
    if any(count not in (None, threads) for count in live.values()):
        fail(f"BLAS reports {live} threads, expected {threads}")

    workload, build_s = set_up(args)
    if args.blas_threads is not None:
        thread_probe(args, workload)
        return

    print(f"fbqp bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={len(workload)}")
    print(envinfo.describe(env))
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": len(workload), "env": env,
        "import_s": import_s, "build_and_warm_s": build_s,
    }
    if args.trace:
        phases, values = traced_run(args, workload, recorder, result)
    else:
        result["fresh_import_s"] = fresh_import_s = import_seconds()
        phases, values = untraced_run(args, workload, env, fresh_import_s + build_s, result)
    # Both phases of a traced run visit the same inputs; an input counts once.
    attempted = len(set().union(*(p.times for p in phases)))
    failed = len(set().union(*(p.failed for p in phases)))
    wrong = len(set().union(*(p.wrong for p in phases)))
    visits = sum(p.visits for p in phases)
    failures = list(dict.fromkeys(line for p in phases for line in p.failures))
    print(f"items: {attempted} attempted in {visits} visits, {failed} failed, {wrong} wrong")
    for line in failures:
        print(f"  {line}")

    table = spec.by_name()
    result.update(
        attempted=attempted, visits=visits, failed=failed, wrong=wrong, failures=failures,
        metrics={name: {"value": value, "unit": table[name].unit}
                 for name, value in values.items()},
    )
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if recorder is not None:
        recorder.save(args.out / f"{stem}-spans.npz")

    gated = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in gated},
    }))


if __name__ == "__main__":
    main()
