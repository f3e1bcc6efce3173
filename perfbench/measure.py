"""Run one workload input through the program and check its outcome.

:func:`run_sim` builds and runs one simulated cluster; :func:`run_live`
runs one closed-loop window of the live runtime. Both raise
:class:`BenchFailure` when a correctness check fails: conservation
(submitted = completed + failed, no duplicates, no strays), the switch
program's register invariants, the controller's single term and zero
fencing rejections, and the live runtime's zero-loss, zero-phantom rule.
Tasks that simply never finished are not a failure of the check; they
are counted as failed tasks.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, List, Optional, Tuple

from repro.cluster.worker import Worker
from repro.experiments.common import ClusterHandles, build_cluster
from repro.live import runtime as live_runtime
from repro.live.results import LiveResult
from repro.live.softswitch import SoftSwitch
from repro.sim.rng import RngStreams

from defs import LiveWorkload, SimWorkload

#: hard cap on one live window, set-up and drain included
LIVE_TIMEOUT_S = 60.0


class BenchFailure(Exception):
    """A correctness check failed; the invocation must not report."""


@dataclass
class SimOutcome:
    """What one simulated run produced, plus its host timings."""

    seed: int
    submitted: int
    completed: int
    events: int
    sched_delays_ns: List[int]
    setup_s: float
    run_s: float
    handles: Optional[ClusterHandles] = field(default=None, repr=False)

    @property
    def failed(self) -> int:
        return self.submitted - self.completed

    @property
    def tasks_per_s(self) -> float:
        return self.completed / self.run_s

    def fingerprint(self) -> Tuple[Any, ...]:
        """Everything simulated; identical across repeats of one seed."""
        delays = sorted(self.sched_delays_ns)
        n = len(delays)
        picks = tuple(delays[min(n - 1, int(q * n))] for q in (0.5, 0.99, 0.999)) if n else ()
        return (self.events, self.submitted, self.completed, n, sum(delays), picks)


def run_sim(
    workload: SimWorkload,
    seed: int,
    keep_handles: bool = False,
    generate_span=None,
) -> SimOutcome:
    """Generate one input from ``seed``, build the cluster, run, check."""
    t0 = perf_counter()
    config, make_events = workload.inputs(seed)
    rngs = RngStreams(seed)
    if generate_span is not None:
        make_events = generate_span(make_events)
    events = make_events(rngs)
    handles = build_cluster(config, [events], rngs=rngs)
    setup_s = perf_counter() - t0
    t1 = perf_counter()
    handles.sim.run(until=workload.horizon_ns + workload.drain_ns)
    run_s = perf_counter() - t1

    submitted = sum(len(event.tasks) for event in events)
    completed = check_sim(workload, handles, submitted)
    delays = handles.collector.scheduling_delays(since=workload.warmup_ns)
    return SimOutcome(
        seed=seed,
        submitted=submitted,
        completed=completed,
        events=handles.sim.events_processed,
        sched_delays_ns=delays,
        setup_s=setup_s,
        run_s=run_s,
        handles=handles if keep_handles else None,
    )


def check_sim(workload: SimWorkload, handles: ClusterHandles, submitted: int) -> int:
    """Correctness gate for one sim run; returns the completed count."""
    collector = handles.collector
    records = collector.records
    strays = sum(1 for r in records.values() if r.submitted_at < 0)
    if strays:
        raise BenchFailure(f"{strays} task record(s) were never submitted (strays)")
    if len(records) != submitted:
        raise BenchFailure(
            f"generated {submitted} tasks but the collector saw {len(records)}"
        )
    duplicates = (
        collector.duplicate_assignments
        + collector.duplicate_finishes
        + collector.duplicate_completions
        + sum(c.stats.duplicate_completions + c.stats.stray_completions
              for c in handles.clients)
    )
    if duplicates:
        raise BenchFailure(f"{duplicates} duplicate or stray task event(s)")
    completed = sum(1 for r in records.values() if r.completed_at >= 0)
    client_completed = sum(c.stats.tasks_completed for c in handles.clients)
    if client_completed != completed:
        raise BenchFailure(
            f"clients counted {client_completed} completions, records {completed}"
        )
    try:
        handles.draconis.check_invariants()
    except Exception as err:  # noqa: BLE001 - any violated invariant fails the run
        raise BenchFailure(f"switch invariants violated: {err}") from err
    if workload.replicated_ctrl:
        stats = handles.ctrl_group.stats()
        if stats["term"] != 1 or stats["fencing_rejections"] != 0:
            raise BenchFailure(
                f"controller group ended in term {stats['term']} with "
                f"{stats['fencing_rejections']} fencing rejection(s); "
                f"expected term 1 and none"
            )
    return completed


def executors_of(handles: ClusterHandles) -> Iterator[Any]:
    for worker in handles.workers:
        if isinstance(worker, Worker):
            yield from worker.executors


@dataclass
class LiveOutcome:
    result: LiveResult
    setup_s: float
    wall_s: float
    switch: Optional[SoftSwitch] = field(default=None, repr=False)

    @property
    def failed(self) -> int:
        return self.result.tasks_submitted - self.result.tasks_completed


@contextlib.contextmanager
def _first_call_time(cls: type, attr: str) -> Iterator[List[float]]:
    """Record the host time of the first ``cls.attr`` call in the block."""
    original = cls.__dict__[attr]
    stamps: List[float] = []

    def stamped(*args, **kwargs):
        if not stamps:
            stamps.append(perf_counter())
        return original(*args, **kwargs)

    setattr(cls, attr, stamped)
    try:
        yield stamps
    finally:
        setattr(cls, attr, original)


@contextlib.contextmanager
def _capture_init(cls: type) -> Iterator[List[Any]]:
    """Collect every instance of ``cls`` constructed in the block."""
    original = cls.__dict__["__init__"]
    made: List[Any] = []

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    cls.__init__ = init
    try:
        yield made
    finally:
        cls.__init__ = original


def run_live(
    workload: LiveWorkload,
    seed: int,
    keep_switch: bool = False,
) -> LiveOutcome:
    """One closed-loop window on loopback; set-up ends at the first submit."""
    spec = workload.spec(seed)
    t0 = perf_counter()
    with _first_call_time(live_runtime.ClosedLoopGen, "run") as started, \
            _capture_init(SoftSwitch) as switches:
        result = live_runtime.run_live(spec, timeout_s=LIVE_TIMEOUT_S)
    wall_s = perf_counter() - t0
    check_live(result)
    return LiveOutcome(
        result=result,
        setup_s=started[0] - t0,
        wall_s=wall_s,
        switch=switches[0] if keep_switch else None,
    )


def check_live(result: LiveResult) -> None:
    if not result.conserved:
        raise BenchFailure(
            f"live run not conserved: lost={result.tasks_lost} "
            f"phantoms={result.phantoms}"
        )
    if result.duplicates:
        raise BenchFailure(f"live run saw {result.duplicates} duplicate completion(s)")
    if result.tasks_completed != result.tasks_submitted:
        raise BenchFailure(
            f"live run completed {result.tasks_completed} of "
            f"{result.tasks_submitted} submitted tasks"
        )
