"""The repository benchmark: one workload, one seed, one invocation.

    python3 perfbench/run.py --workload sim-fcfs-light --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` the workload is measured untraced for about
``--seconds`` seconds and the end-to-end metrics are printed; with
``--trace 1`` one input is run untraced and then traced, and the
per-layer metrics, the per-layer self-time table and the tracing
overhead are printed, and the spans are written to ``.perfbench/spans/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A failed correctness check exits with code 1 and prints no result; a
checkout without ``src/repro`` exits with code 2.

End-to-end metrics (``--trace 0``), per workload kind:

    tasks_per_s  sim: simulated tasks completed per host second of
                 Simulator.run, drain included (median over runs);
                 live: completed tasks per wall second (median over windows)
    p50_us       sim: scheduling delay (submit -> start), simulated us,
    p99_us       pooled over the workload's sub-runs after warm-up;
                 live: client submit -> completion notice, wall us
                 (median over windows)
    setup_s      interpreter start (before importing repro) to the first
                 task submitted: the median import time of 5 fresh
                 interpreters, sampled between the first runs, plus the
                 median per-run set-up (input generation and cluster
                 build, or switch start, executor registration and client
                 start), scaled by the median host speed
    peak_rss_mb  peak resident set size of this process when its first run
                 ends, before the reference loop first runs, MiB

Throughput and the live latencies are scaled to a nominal host: each
run's value is divided (latencies: multiplied) by the speed of the reference loop in
``reference.py`` timed just before and just after that run, and the
median over runs is reported; setup_s is multiplied by the median of
those speeds. The unscaled values are printed with ``_raw``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from reference import reference_s, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: fresh interpreters timed per invocation for the import part of setup_s
IMPORT_SAMPLES = 5

def host_info() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def import_s() -> float:
    """Time for a fresh interpreter to import the program and the
    benchmark's own modules (the part of set-up that happens once)."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import defs, measure\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


class Sampler:
    """The host-side samples taken after the runs of one invocation.

    After every run the garbage left so far is collected and the reference
    loop is timed, so neither a run nor the loop pays for the other's
    garbage; a run's host speed is the geometric mean of the loop speeds
    timed just before and just after it (the first run has only the one
    after it). The process's peak RSS is read when the first run ends,
    before the reference loop first runs. After each of the first
    :data:`IMPORT_SAMPLES` runs a fresh interpreter's import time is
    sampled. Sampling time is kept out of the measured window.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.speeds: List[float] = []
        self.imports: List[float] = []
        self.sampling_s = 0.0
        self.peak_rss_mb = 0.0

    def after_run(self, runs: int, min_runs: int) -> bool:
        """Take the samples due after a run; True once the window is over."""
        t0 = time.perf_counter()
        if not self.speeds:
            # ru_maxrss is in KiB on Linux
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()
        self.speeds.append(speed(reference_s()))
        gc.collect()
        if len(self.imports) < IMPORT_SAMPLES:
            self.imports.append(import_s())
        self.sampling_s += time.perf_counter() - t0
        measured = time.perf_counter() - self.start - self.sampling_s
        return (runs >= min_runs and measured >= self.seconds
                and len(self.imports) == IMPORT_SAMPLES)

    def run_speeds(self) -> List[float]:
        """Host speed during each run, relative to the reference host."""
        pairs = zip(self.speeds, self.speeds[1:])
        return self.speeds[:1] + [math.sqrt(a * b) for a, b in pairs]

    def import_s(self) -> float:
        return statistics.median(self.imports)


class Report:
    """Collects printed metric lines plus the final JSON payload."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.extra: Dict[str, Dict[str, object]] = {}

    def line(self, label: str, value: float, unit: str, samples: int, note: str = "") -> None:
        print(f"  {label:<32} {value:>16.4f} {unit:<16} n={samples:<8} {note}")
        self.extra[label] = {"value": value, "unit": unit, "samples": samples}

    def metric(self, name: str, value: float, unit: str, samples: int,
               label: Optional[str] = None, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.line(label or name, value, unit, samples, note or (
            f"[{name}]" if label and label != name else ""))


def report_setup(report: Report, sampler: Sampler, setups: List[float],
                 speeds: List[float]) -> None:
    """setup_s: the median import plus the median per-run set-up, scaled
    by the median host speed of the invocation, because import and set-up
    slow down on a loaded host as the runs do."""
    raw = sampler.import_s() + statistics.median(setups)
    report.metric("setup_s", raw * statistics.median(speeds), "s", len(setups),
                  note="median import + median per-run set-up, scaled")
    report.line("setup_s_raw", raw, "s", len(setups), "this host")
    report.line("setup_import_s", sampler.import_s(), "s", IMPORT_SAMPLES, "this host")


def measure_sim(workload, seed: int, seconds: float, report: Report) -> Tuple[int, int]:
    from repro.metrics.summary import PercentileSummary

    from defs import subrun_seed
    from measure import BenchFailure, run_sim

    first = {}
    runs = []
    sampler = Sampler(seconds)
    while True:
        k = len(runs) % workload.subruns
        outcome = run_sim(workload, subrun_seed(seed, k))
        if k in first:
            if outcome.fingerprint() != first[k].fingerprint():
                raise BenchFailure(
                    f"sub-run {k} of seed {seed} is not deterministic: "
                    f"{first[k].fingerprint()} vs {outcome.fingerprint()}"
                )
            outcome.sched_delays_ns = []
        else:
            first[k] = outcome
        runs.append(outcome)
        if sampler.after_run(len(runs), workload.subruns + 1):
            break

    pooled: List[int] = []
    for k in range(workload.subruns):
        pooled.extend(first[k].sched_delays_ns)
    tail = PercentileSummary.from_ns(pooled)
    attempted = sum(o.submitted for o in runs)
    failed = sum(o.failed for o in runs)
    events = sum(o.events for o in runs)
    speeds = sampler.run_speeds()
    print(f"{workload.name}: {len(runs)} runs over {workload.subruns} inputs, "
          f"{events:,} events, {attempted:,} tasks; each run's host time below "
          f"is scaled by its own host speed")
    report.line("host_speed", statistics.median(speeds), "ratio", len(runs),
                "median over runs, against the reference host")
    report.metric("tasks_per_s",
                  statistics.median(o.tasks_per_s / v for o, v in zip(runs, speeds)),
                  "tasks/s", len(runs), label="sim_tasks_per_s",
                  note="[tasks_per_s] median over runs, scaled")
    report.line("sim_tasks_per_s_raw", statistics.median(o.tasks_per_s for o in runs),
                "tasks/s", len(runs), "median over runs, this host")
    report.metric("p50_us", tail.p50_us, "us", tail.count, label="sched_p50_us",
                  note="[p50_us] simulated")
    report.metric("p99_us", tail.p99_us, "us", tail.count, label="sched_p99_us",
                  note="[p99_us] simulated")
    if tail.count >= 10_000:
        report.line("sched_p999_us", tail.p999_us, "us", tail.count, "simulated")
    report.line("failed_frac", failed / attempted, "ratio", attempted)
    report_setup(report, sampler, [o.setup_s for o in runs], speeds)
    report.metric("peak_rss_mb", sampler.peak_rss_mb, "MiB", 1, note="after the first run")
    report.line("events_per_s_raw", events / sum(o.run_s for o in runs), "events/s",
                len(runs), "this host")
    return attempted, failed


def measure_live(workload, seed: int, seconds: float, report: Report) -> Tuple[int, int]:
    from defs import subrun_seed
    from measure import run_live

    windows = []
    sampler = Sampler(seconds)
    while True:
        windows.append(run_live(workload, subrun_seed(seed, len(windows))))
        if sampler.after_run(len(windows), 3):
            break
    results = [w.result for w in windows]
    samples = sum(r.e2e.count for r in results)
    attempted = sum(r.tasks_submitted for r in results)
    failed = sum(w.failed for w in windows)
    speeds = sampler.run_speeds()
    print(f"{workload.name}: {len(windows)} windows, {attempted:,} tasks; each "
          f"window's tps and latencies below are scaled by its own host speed")
    report.line("host_speed", statistics.median(speeds), "ratio", len(windows),
                "median over windows, against the reference host")

    report.metric("tasks_per_s",
                  statistics.median(r.throughput_tps / v for r, v in zip(results, speeds)),
                  "tasks/s", len(windows), label="live_tps",
                  note="[tasks_per_s] median over windows, scaled")
    report.line("live_tps_raw", statistics.median(r.throughput_tps for r in results),
                "tasks/s", len(windows), "median over windows, this host")

    def e2e_us(q: float, scaled: bool) -> float:
        return statistics.median(
            r.e2e.percentile(q) * (v if scaled else 1.0) for r, v in zip(results, speeds)
        ) / 1e3

    for q, name in ((50, "p50_us"), (99, "p99_us")):
        label = f"live_e2e_p{q}_us"
        report.metric(name, e2e_us(q, scaled=True), "us", samples, label=label,
                      note=f"[{name}] median over windows, scaled")
        report.line(f"{label}_raw", e2e_us(q, scaled=False), "us", samples,
                    "median over windows, this host")
    if samples >= 10_000:
        report.line("live_e2e_p999_us", e2e_us(99.9, scaled=True), "us", samples,
                    "median over windows, scaled")
    report.line("failed_frac", failed / attempted, "ratio", attempted)
    report_setup(report, sampler, [w.setup_s for w in windows], speeds)
    report.metric("peak_rss_mb", sampler.peak_rss_mb, "MiB", 1, note="after the first window")
    return attempted, failed


def print_self_times(tracer, wall_ns: float, idle_label: str) -> None:
    from spans import LAYERS

    total = sum(tracer.self_ns)
    print(f"  {'layer':<12} {'self ms':>10} {'share':>7}")
    for name in LAYERS:
        own = tracer.self_ns[LAYERS.index(name)]
        if own:
            print(f"  {name:<12} {own / 1e6:>10.1f} {own / wall_ns:>7.1%}")
    rest = wall_ns - total
    print(f"  {idle_label:<12} {rest / 1e6:>10.1f} {rest / wall_ns:>7.1%}")
    print(f"  {'wall':<12} {wall_ns / 1e6:>10.1f}   ({len(tracer.parent):,} spans)")


def trace_sim(workload, seed: int, report: Report) -> Tuple[int, int]:
    from layers import UNITS, sim_layers
    from defs import subrun_seed
    from measure import BenchFailure, run_sim
    from spans import Tracer

    sub_seed = subrun_seed(seed, 0)
    base = run_sim(workload, sub_seed)
    gc.collect()
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    with tracer:
        traced = run_sim(
            workload, sub_seed, keep_handles=True,
            generate_span=lambda fn: tracer.span_wrapper(fn, "workloads", "generate"),
        )
    wall_ns = time.perf_counter_ns() - t0
    if traced.fingerprint() != base.fingerprint():
        raise BenchFailure(
            f"traced run differs from the untraced run: "
            f"{traced.fingerprint()} vs {base.fingerprint()}"
        )
    gen_s = tracer.name_self_ns("workloads.generate") / 1e9
    metrics = sim_layers(traced, tracer, gen_s)
    metrics["bench.trace_overhead"] = base.tasks_per_s / traced.tasks_per_s
    print(f"{workload.name}: traced input {sub_seed}, {traced.events:,} events, "
          f"{traced.completed:,} tasks; outcome identical to the untraced run")
    print_self_times(tracer, wall_ns, "unattributed")
    attributed = sum(tracer.self_ns)
    if abs(wall_ns - attributed) > 0.05 * wall_ns:
        raise BenchFailure(
            f"layer self times sum to {attributed / 1e6:.1f} ms, more than 5% "
            f"away from the traced wall time {wall_ns / 1e6:.1f} ms"
        )
    path = tracer.export(OUT / "spans" / f"{workload.name}.npz")
    print(f"  spans written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        report.metric(name, value, UNITS[name], traced.completed)
    return base.submitted + traced.submitted, base.failed + traced.failed


def trace_live(workload, seed: int, report: Report) -> Tuple[int, int]:
    from layers import UNITS, live_layers
    from defs import subrun_seed
    from measure import run_live
    from spans import Tracer

    base = run_live(workload, subrun_seed(seed, 0))
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = run_live(workload, subrun_seed(seed, 1), keep_switch=True)
    metrics = live_layers(traced, tracer)
    metrics["bench.trace_overhead"] = (
        base.result.throughput_tps / traced.result.throughput_tps
    )
    tasks = traced.result.tasks_completed
    print(f"{workload.name}: traced window, {tasks:,} tasks")
    print_self_times(tracer, traced.wall_s * 1e9, "loop idle")
    path = tracer.export(OUT / "spans" / f"{workload.name}.npz")
    print(f"  spans written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        report.metric(name, value, UNITS[name], tasks)
    attempted = base.result.tasks_submitted + traced.result.tasks_submitted
    return attempted, base.failed + traced.failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    host = host_info()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from defs import WORKLOADS, SimWorkload
    from measure import BenchFailure

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"loadavg_1m={host['loadavg_1m']:.2f} platform={host['platform']}")
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {workload.why}")
    report = Report()
    try:
        if args.trace:
            runner = trace_sim if isinstance(workload, SimWorkload) else trace_live
            attempted, failed = runner(workload, args.seed, report)
        else:
            runner = measure_sim if isinstance(workload, SimWorkload) else measure_live
            attempted, failed = runner(workload, args.seed, args.seconds, report)
    except BenchFailure as failure:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
        "printed": report.extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
