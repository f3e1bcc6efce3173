"""The invariant oracle: what must hold in *every* run, faults or not.

The chaos fuzzer's value is only as good as its oracle. Crashing is easy
to detect; a scheduler that silently loses a task, leaks a lease, or
restores a corrupted checkpoint is not. The oracle encodes the repo's
correctness claims as six invariant families:

* **task conservation** — no phantom lifecycle records (completions for
  tasks never submitted), and every incomplete task is *accounted for*:
  either the client deliberately gave it up after exhausting its retry
  budget, or it still has a live resubmit timer at the horizon. An
  incomplete task with neither was silently lost — the bug class the
  paper's §3.3 "failure handling is nearly free" claim must exclude.
* **lease safety** (controller runs only) — the sweep loop collects
  every expired lease within one period, the reclaim backlog drains,
  and no parked pull belongs to an executor the controller believes
  dead at the end of the run.
* **failover consistency** — after every ``SwitchFailover``, the newly
  installed program's queue contents are explainable: without
  checkpointing the standby must start empty; with checkpointing, the
  restored multiset of task keys may only differ from the pre-failover
  one in ways the :class:`~repro.ctrl.checkpoint.RecoveryReport` admits
  (dropped entries, journal overflow, unmatched dequeues). Extra keys
  that the old program never held are always a violation.
* **election safety** (controller runs, replicated or a group of one;
  :func:`check_election`, shared with the live oracle) — at most one
  leader per term (new-term grants strictly increase), every accepted
  fenced action carries the register's *current* term (a deposed leader
  never mutated the switch), the observed register term never moves
  backwards, at most one live replica claims leadership, and one does
  at the horizon whenever any replica survived.
* **register sanity** — the switch program's own control-plane checks
  (circular-queue pointer windows, occupancy bounds, parked-pull
  capacity) pass both at the end and in cheap periodic mid-run samples.
* **quiescence** — after the drain window every transient is gone:
  switch queues empty, no silently-abandoned outstanding task, every
  fault window closed (no residual link degradations, speed factors
  back to 1.0, recirculation limit restored).

``InvariantOracle.attach`` must be called before ``sim.run`` so the
mid-run sampler and the failover hook are registered; ``check_final``
after the run returns the full :class:`OracleReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.errors import SwitchError
from repro.sim.core import ms

#: cap on mid-run sampler violations kept; one broken register check
#: repeats every sample, and the first few are what the shrinker needs
MAX_LIVE_VIOLATIONS = 20

DEFAULT_SAMPLE_INTERVAL_NS = ms(2)


@dataclass(frozen=True)
class Violation:
    """One violated invariant: which family, and the evidence."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class OracleReport:
    """Verdict of one oracle pass over a finished run."""

    violations: List[Violation] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        """Sorted, de-duplicated family names — the shrinker's target."""
        return sorted({v.invariant for v in self.violations})

    def describe(self) -> str:
        if self.ok:
            return f"OK ({self.checks} checks)"
        lines = [f"{len(self.violations)} violation(s) / {self.checks} checks"]
        lines.extend(f"  ! {v}" for v in self.violations)
        return "\n".join(lines)


def check_election(
    election: Any, alive: Optional[Sequence[Any]], out: List[Violation]
) -> int:
    """Election safety, shared by the sim and live oracles.

    ``election`` is the switch's :class:`~repro.switchsim.election.
    ElectionRegister`; ``alive`` the replicas still running (anything
    with ``replica_id`` and ``is_leader()``), or None when the run kept
    no handle on them. Appends violations to ``out`` and returns the
    number of checks made; nothing is checked before a first grant.
    """
    if election is None or election.term == 0:
        return 0
    terms = [term for term, _leader, _at in election.history]
    if terms != sorted(set(terms)):
        out.append(
            Violation(
                "election-safety",
                f"new-term grants are not strictly increasing — two "
                f"leaders shared a term: {terms[:10]}",
            )
        )
    deposed = [
        (stamped, reg) for stamped, reg in election.actions if stamped != reg
    ]
    if deposed:
        out.append(
            Violation(
                "election-safety",
                f"{len(deposed)} accepted action(s) stamped with a "
                f"non-current term — a deposed leader mutated the switch, "
                f"e.g. {deposed[:3]}",
            )
        )
    reg_terms = [reg for _stamped, reg in election.actions]
    if reg_terms != sorted(reg_terms):
        out.append(
            Violation(
                "election-safety",
                f"register term moved backwards across accepted actions: "
                f"{reg_terms[:10]}",
            )
        )
    if alive is None:
        return 3
    leaders = [r.replica_id for r in alive if r.is_leader()]
    if len(leaders) > 1:
        out.append(
            Violation(
                "election-safety",
                f"{len(leaders)} replicas claim live leadership "
                f"simultaneously: {leaders}",
            )
        )
    if alive and not leaders:
        out.append(
            Violation(
                "election-safety",
                f"no live leader at the horizon despite {len(alive)} live "
                f"replica(s) — election stalled",
            )
        )
    return 5


class InvariantOracle:
    """Checks the invariant catalogue against one live cluster.

    ``handles`` is an :class:`~repro.experiments.common.ClusterHandles`;
    the oracle reads only control-plane state (no packets, no data-plane
    registers), so attaching it never perturbs the simulation schedule
    beyond its own sampling callbacks — which are pure reads.
    """

    def __init__(
        self,
        handles: Any,
        injector: Any = None,
        sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    ) -> None:
        self.handles = handles
        self.injector = injector
        self.sample_interval_ns = sample_interval_ns
        self._live: List[Violation] = []
        self._live_suppressed = 0
        self._checks = 0
        self._attached = False
        self._until_ns = 0
        self._recirc_limit_baseline: Optional[int] = None
        self._samples = 0

    # -- wiring (before sim.run) ------------------------------------------

    def attach(self, until_ns: int) -> "InvariantOracle":
        """Register the mid-run sampler and the failover hook."""
        if self._attached:
            return self
        self._attached = True
        self._until_ns = until_ns
        switch = self.handles.switch
        if switch is not None:
            self._recirc_limit_baseline = getattr(
                switch, "recirc_queue_packets", None
            )
            if hasattr(switch, "add_install_hook"):
                # Registered after CheckpointManager/Controller (built by
                # build_cluster), so this hook observes the *post-restore*
                # program state on failover.
                switch.add_install_hook(self._on_install)
            self._schedule_sample()
        return self

    def _schedule_sample(self) -> None:
        sim = self.handles.sim
        at = sim.now + self.sample_interval_ns
        if at < self._until_ns:
            sim.call_at(at, self._sample)

    def _sample(self) -> None:
        """Cheap register-sanity probe between events (the "during")."""
        self._samples += 1
        switch = self.handles.switch
        if switch is not None and hasattr(switch, "audit"):
            self._checks += 1
            try:
                switch.audit()
            except SwitchError as exc:
                self._note_live(
                    "register-sanity",
                    f"mid-run audit at t={self.handles.sim.now}: {exc}",
                )
        self._schedule_sample()

    def _note_live(self, invariant: str, detail: str) -> None:
        if len(self._live) >= MAX_LIVE_VIOLATIONS:
            self._live_suppressed += 1
            return
        self._live.append(Violation(invariant, detail))

    # -- failover consistency ---------------------------------------------

    def _on_install(self, new_program: Any, old_program: Any) -> None:
        """Judge a completed failover: is the restored state explainable?"""
        self._checks += 1
        if not hasattr(new_program, "queued_keys") or not hasattr(
            old_program, "queued_keys"
        ):
            return
        old_keys = Counter(old_program.queued_keys())
        new_keys = Counter(new_program.queued_keys())
        invented = new_keys - old_keys
        if invented:
            sample = sorted(invented)[:3]
            self._note_live(
                "failover-consistency",
                f"failover at t={self.handles.sim.now} installed "
                f"{sum(invented.values())} queue entr(ies) the old program "
                f"never held, e.g. {sample}",
            )
        lost = old_keys - new_keys
        manager = getattr(self.handles, "checkpoints", None)
        if manager is None:
            # No checkpointing: the paper's cold standby. Losing the queue
            # is the *expected* behaviour; inventing entries is not.
            return
        report = manager.last_report
        if lost and report is not None:
            admitted = (
                report.entries_dropped
                + report.journal_overflows
                + report.unmatched_dequeues
            )
            if admitted == 0:
                sample = sorted(lost)[:3]
                self._note_live(
                    "failover-consistency",
                    f"checkpointed failover at t={self.handles.sim.now} lost "
                    f"{sum(lost.values())} queue entr(ies) with a clean "
                    f"recovery report (no drops/overflows/unmatched), "
                    f"e.g. {sample}",
                )

    # -- final verdict -----------------------------------------------------

    def _program(self) -> Any:
        """The *currently installed* scheduler program.

        After a ``SwitchFailover`` the cluster handle still points at the
        pre-failover program, whose orphaned queues legitimately retain
        entries; all register/quiescence checks must read the live one.
        """
        switch = self.handles.switch
        if switch is not None and hasattr(switch, "program"):
            program = switch.program
            if hasattr(program, "total_queued"):
                return program
        return self.handles.draconis

    def check_final(self) -> OracleReport:
        """Run every invariant family against the finished cluster."""
        violations: List[Violation] = list(self._live)
        if self._live_suppressed:
            violations.append(
                Violation(
                    "register-sanity",
                    f"... and {self._live_suppressed} more mid-run "
                    f"violations suppressed",
                )
            )
        self._check_conservation(violations)
        self._check_lease_safety(violations)
        self._check_election(violations)
        self._check_register_sanity(violations)
        self._check_quiescence(violations)
        return OracleReport(violations=violations, checks=self._checks)

    def _check_conservation(self, out: List[Violation]) -> None:
        collector = self.handles.collector
        clients = self.handles.clients
        gave_up: set = set()
        pending: set = set()
        for client in clients:
            gave_up |= client.gave_up_keys()
            pending |= client.pending_timeout_keys()
        for key, record in sorted(collector.records.items()):
            self._checks += 1
            if record.submitted_at < 0:
                out.append(
                    Violation(
                        "task-conservation",
                        f"task {key}: lifecycle events recorded but never "
                        f"submitted (phantom)",
                    )
                )
            elif record.completed_at < 0:
                if key in gave_up:
                    continue  # budgeted give-up, accounted for
                if key in pending:
                    continue  # retry still in flight at the horizon
                out.append(
                    Violation(
                        "task-conservation",
                        f"task {key}: submitted but never completed, no "
                        f"give-up recorded and no retry pending — silently "
                        f"lost",
                    )
                )
        self._checks += 1
        if collector.completed_count() > collector.submitted_count():
            out.append(
                Violation(
                    "task-conservation",
                    f"more completions ({collector.completed_count()}) than "
                    f"submissions ({collector.submitted_count()})",
                )
            )
        self._checks += 1
        client_dups = sum(c.stats.duplicate_completions for c in clients)
        if collector.duplicate_completions > 0 and client_dups == 0:
            out.append(
                Violation(
                    "task-conservation",
                    f"collector saw {collector.duplicate_completions} "
                    f"duplicate completions but no client suppressed any — "
                    f"a duplicate reached the record without a client "
                    f"noticing",
                )
            )
        for client in clients:
            self._checks += 1
            if client.stats.stray_completions:
                out.append(
                    Violation(
                        "task-conservation",
                        f"client{client.uid}: {client.stats.stray_completions}"
                        f" completion(s) for tasks it never submitted",
                    )
                )

    def _check_lease_safety(self, out: List[Violation]) -> None:
        controller = getattr(self.handles, "controller", None)
        group = getattr(self.handles, "ctrl_group", None)
        if controller is None and group is not None:
            # Replicated control plane: lease safety is judged against
            # the current leader's view (followers keep warm but
            # non-authoritative tables). Leader absence is the election
            # family's problem, not a lease violation.
            controller = group.leader()
        if controller is None:
            return
        audit = controller.audit()
        self._checks += 1
        if audit["stale_leases"]:
            stale = [
                lease.executor_id for lease in audit["stale_leases"]
            ]
            out.append(
                Violation(
                    "lease-safety",
                    f"leases for executors {stale} expired more than one "
                    f"sweep ago and were never collected",
                )
            )
        self._checks += 1
        if audit["reclaim_backlog"]:
            out.append(
                Violation(
                    "lease-safety",
                    f"{audit['reclaim_backlog']} reclaimed entr(ies) still "
                    f"stuck in the controller backlog after drain",
                )
            )
        program = self._program()
        if program is not None and hasattr(program, "parked_executor_ids"):
            self._checks += 1
            dead_parked = program.parked_executor_ids() - controller.live_executors()
            if dead_parked:
                out.append(
                    Violation(
                        "lease-safety",
                        f"parked pulls for executors {sorted(dead_parked)} "
                        f"whose leases are gone — proactive reclaim missed "
                        f"them",
                    )
                )

    def _check_election(self, out: List[Violation]) -> None:
        handles = self.handles
        controllers = getattr(handles, "ctrl_group", None) or getattr(
            handles, "controller", None
        )
        self._checks += check_election(
            getattr(handles.switch, "election", None),
            None
            if controllers is None
            else [r for r in controllers.replicas if not r.crashed],
            out,
        )

    def _check_register_sanity(self, out: List[Violation]) -> None:
        program = self._program()
        if program is None:
            return
        for i, queue in enumerate(getattr(program, "queues", [])):
            self._checks += 1
            try:
                queue.check_invariants()
            except SwitchError as exc:
                out.append(
                    Violation("register-sanity", f"queue {i}: {exc}")
                )
                continue
            self._checks += 1
            occupancy = queue.occupancy()
            entries = len(queue.snapshot_entries())
            if occupancy != entries:
                out.append(
                    Violation(
                        "register-sanity",
                        f"queue {i}: occupancy counter says {occupancy} but "
                        f"{entries} entries are reachable",
                    )
                )
        self._checks += 1
        if program.parked_pull_count() > program.pull_queue_capacity:
            out.append(
                Violation(
                    "register-sanity",
                    f"{program.parked_pull_count()} parked pulls exceed the "
                    f"capacity register ({program.pull_queue_capacity})",
                )
            )

    def _check_quiescence(self, out: List[Violation]) -> None:
        program = self._program()
        if program is not None:
            self._checks += 1
            queued = program.total_queued()
            if queued:
                keys = program.queued_keys()[:3]
                out.append(
                    Violation(
                        "quiescence",
                        f"{queued} task(s) still queued in the switch after "
                        f"drain, e.g. {keys}",
                    )
                )
        # every fault window must have closed behind itself
        if self.injector is not None:
            for link in self.injector._touched_links:
                self._checks += 1
                hook = link.fault_hook
                active = getattr(hook, "active", [])
                if active:
                    out.append(
                        Violation(
                            "quiescence",
                            f"link {link.name}: {len(active)} degradation(s) "
                            f"still active after every fault window closed",
                        )
                    )
        for worker in self.handles.workers:
            executors = getattr(worker, "executors", None)
            if executors is None:
                continue
            if getattr(worker, "crashed", False):
                continue  # permanently-crashed workers keep whatever state
            for executor in executors:
                self._checks += 1
                if executor.speed_factor != 1.0:
                    out.append(
                        Violation(
                            "quiescence",
                            f"executor {executor.executor_id} speed factor "
                            f"stuck at {executor.speed_factor} after the "
                            f"slowdown window closed",
                        )
                    )
        switch = self.handles.switch
        if (
            switch is not None
            and self._recirc_limit_baseline is not None
        ):
            self._checks += 1
            if switch.recirc_queue_packets != self._recirc_limit_baseline:
                out.append(
                    Violation(
                        "quiescence",
                        f"recirculation limit left at "
                        f"{switch.recirc_queue_packets}, baseline was "
                        f"{self._recirc_limit_baseline}",
                    )
                )
