"""Sensitivity self-test: a deliberate slowdown must trip the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. From outside the program, ``Link.send`` is
wrapped with a busy-wait calibrated to double each sim workload's host
time per task, and the benchmark is run on every workload with and
without it. Then the same is done to ``codec.decode`` for the live
workload. The test checks that

* with ``Link.send`` slowed, every sim workload reports ``tasks_per_s``
  worse than its bound in ``BENCHMARK.json``, a traced run reports a
  higher ``net.ns_per_packet``, and ``live-noop-closed`` stays within
  its bounds;
* with ``codec.decode`` slowed, ``live-noop-closed`` reports
  ``tasks_per_s`` worse than its bound and no sim workload does.

Every benchmark run is a child process, so the injected wrapper never
leaks into a baseline. Each check compares the medians of :data:`PAIRS`
alternating baseline and slowed runs of :data:`SECONDS` seconds, because a
single pair on a shared host can differ by more than a bound. Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIM = ("sim-fcfs-light", "sim-priority-burst", "sim-ha-parked")
LIVE = "live-noop-closed"
#: seed of the first pair; pair ``i`` runs seed ``SEED + i``
SEED = 7
#: measured seconds per benchmark run
SECONDS = 6
#: alternating baseline/slowed runs per check; their medians are compared
PAIRS = 3


def busy_wait(fn: Callable, wait_ns: int) -> Callable:
    """``fn`` preceded by ``wait_ns`` of spinning on the host clock."""

    def slowed(*args, **kwargs):
        end = perf_counter_ns() + wait_ns
        while perf_counter_ns() < end:
            pass
        return fn(*args, **kwargs)

    return slowed


def inject(target: str, wait_ns: int) -> None:
    from repro.net.link import Link
    from repro.protocol import codec

    if target == "link_send":
        Link.send = busy_wait(Link.send, wait_ns)
    elif target == "codec_decode":
        codec.decode = busy_wait(codec.decode, wait_ns)
    else:
        raise SystemExit(f"unknown injection target {target!r}")


def child(target: str, wait_ns: int, bench_args: List[str]) -> int:
    """Run the benchmark in this process with one entry point slowed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    inject(target, wait_ns)
    import run

    return run.main(bench_args)


def calibrate() -> Dict[str, int]:
    """Busy-wait per call that doubles each workload's host time per task."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from defs import WORKLOADS, subrun_seed
    from measure import run_live, run_sim
    from repro.net.link import Link
    from repro.protocol import codec

    waits: Dict[str, int] = {}
    calls = [0]
    original_send = Link.send

    def counted_send(*args, **kwargs):
        calls[0] += 1
        return original_send(*args, **kwargs)

    Link.send = counted_send
    try:
        for name in SIM:
            workload = WORKLOADS[name]
            calls[0] = 0
            outcome = run_sim(workload, subrun_seed(SEED, 0))
            waits[name] = int(outcome.run_s * 1e9 / calls[0])
    finally:
        Link.send = original_send

    original_decode = codec.decode

    def counted_decode(*args, **kwargs):
        calls[0] += 1
        return original_decode(*args, **kwargs)

    codec.decode = counted_decode
    try:
        calls[0] = 0
        t0 = perf_counter()
        run_live(WORKLOADS[LIVE], subrun_seed(SEED, 0))
        waits[LIVE] = int((perf_counter() - t0) * 1e9 / calls[0])
    finally:
        codec.decode = original_decode
    return waits


def bench(workload: str, seed: int, trace: int,
          injection: Optional[tuple] = None) -> Dict[str, float]:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    if injection is None:
        cmd = [sys.executable, str(HERE / "run.py"), *args]
    else:
        target, wait_ns = injection
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               target, str(wait_ns), "--", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed: {' '.join(cmd)}\n{proc.stderr}")
    last = proc.stdout.strip().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        return child(argv[1], int(argv[2]), argv[4:])
    if argv:
        raise SystemExit(__doc__.split("\n\n")[1])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    waits = calibrate()
    print("calibrated busy-waits (ns per call):", waits)

    failures: List[str] = []

    def drop(base: Dict[str, float], slow: Dict[str, float], name: str) -> float:
        """Relative worsening of metric ``name``."""
        if name in higher:
            return 1.0 - slow[name] / base[name]
        return slow[name] / base[name] - 1.0

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    def paired(name: str, injection: tuple, trace: int = 0):
        """Medians of alternating baseline and slowed runs, per metric."""
        base_runs, slow_runs = [], []
        for i in range(PAIRS):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side == 0:
                    base_runs.append(bench(name, SEED + i, trace))
                else:
                    slow_runs.append(bench(name, SEED + i, trace, injection))
        median = lambda runs: {  # noqa: E731
            k: statistics.median(r[k] for r in runs) for k in runs[0]
        }
        return median(base_runs), median(slow_runs)

    bound = bounds["tasks_per_s"]
    for name in SIM:
        base, slow = paired(name, ("link_send", waits[name]))
        worse = drop(base, slow, "tasks_per_s")
        expect(worse > bound,
               f"Link.send slowed: {name} tasks_per_s worse by {worse:.1%} "
               f"(bound {bound:.0%}) is flagged")
    base, slow = paired(LIVE, ("link_send", waits["sim-fcfs-light"]))
    for metric in bounds:
        worse = drop(base, slow, metric)
        expect(worse <= bounds[metric],
               f"Link.send slowed: {LIVE} {metric} moved {worse:+.1%} "
               f"(bound {bounds[metric]:.0%}) stays within bounds")
    base, slow = paired(
        "sim-fcfs-light", ("link_send", waits["sim-fcfs-light"]), trace=1
    )
    expect(slow["net.ns_per_packet"] > base["net.ns_per_packet"],
           f"Link.send slowed: net.ns_per_packet rises "
           f"({base['net.ns_per_packet']:.0f} -> {slow['net.ns_per_packet']:.0f} ns)")

    base, slow = paired(LIVE, ("codec_decode", waits[LIVE]))
    worse = drop(base, slow, "tasks_per_s")
    expect(worse > bound,
           f"codec.decode slowed: {LIVE} tasks_per_s worse by {worse:.1%} "
           f"(bound {bound:.0%}) is flagged")
    for name in SIM:
        base, slow = paired(name, ("codec_decode", waits[LIVE]))
        worse = drop(base, slow, "tasks_per_s")
        expect(worse <= bound,
               f"codec.decode slowed: {name} tasks_per_s worse by {worse:+.1%} "
               f"(bound {bound:.0%}) is not flagged")

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
