"""The Draconis switch dataplane program (paper §4–§6).

One :class:`DraconisProgram` instance implements every packet path of the
in-network scheduler:

* **job_submission** (§4.3): enqueue the first task, recirculate for the
  rest, bounce with an error_packet when the queue is full, and launch
  pointer repairs (§4.5) when a mistake is detected;
* **task_request** (§4.6): pop the head task, run the policy check, and
  either assign the task, send a no-op, recirculate down the priority
  ladder (§6.1), or start task swapping (§5.1);
* **swap_task** (§5.1): walk the queue exchanging the carried task with
  successive entries until one satisfies the policy, with the staleness
  guard on the retrieve pointer and re-insertion at the end of the walk;
* **repair** (§4.5, §4.7): apply delayed pointer corrections;
* **completion**: forward the result to the client and process the
  piggybacked task request in the same traversal (§3.1).

Every traversal obeys the one-access-per-register-array constraint; the
register file raises if any path regresses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import SwitchError
from repro.net.packet import Address, Packet
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ElectionRequest,
    ErrorPacket,
    JobSubmission,
    NoOpTask,
    RepairPacket,
    SubmissionAck,
    SwapTaskPacket,
    TaskAssignment,
    TaskRequest,
)
from repro.core.policies import ExecProps, FcfsPolicy, Policy, Verdict
from repro.core.queue import QueueEntry, SwitchCircularQueue
from repro.ctrl.degradation import DegradationPolicy
from repro.switchsim.pipeline import (
    Action,
    Drop,
    Forward,
    P4Program,
    Recirculate,
    Reply,
)
from repro.switchsim.registers import PacketContext

DEFAULT_QUEUE_CAPACITY = 4096
DEFAULT_PULL_TTL_NS = 200_000  # parked GetTask pulls expire after 200 us


@dataclass
class SchedulerStats:
    """Scheduler-level counters for the evaluation harness."""

    tasks_enqueued: int = 0
    tasks_assigned: int = 0
    noops_sent: int = 0
    submissions_bounced: int = 0
    acks_sent: int = 0
    swap_walks_started: int = 0
    swap_reinserts: int = 0
    priority_ladder_recircs: int = 0
    pulls_parked: int = 0
    pulls_expired: int = 0
    parked_wakeups: int = 0
    tasks_shed: int = 0
    tasks_reclaimed: int = 0
    entries_restored: int = 0
    parked_restored: int = 0
    fencing_rejections: int = 0


@dataclass(frozen=True)
class ParkedPull:
    """A GetTask pull held at the switch while every queue is empty.

    Instead of answering an empty-queue task_request with a no-op (and
    eating a full poll backoff on the executor), the switch can *park*
    the pull and replay it — via one recirculation — as soon as the next
    submission lands. ``parked_at`` drives expiry: a crashed executor
    leaves its parked pulls behind, and without garbage collection the
    next submitted task would be assigned to a dead node and sit in its
    NIC ring until the client times out. Entries older than the TTL are
    lazily discarded whenever the deque is touched (the control plane
    owns the SRAM ring holding these entries, so the sweep does not count
    against the one-access-per-register-array budget).
    """

    requester: Address
    request: TaskRequest
    parked_at: int


class DraconisProgram(P4Program):
    """The in-switch centralized scheduler."""

    def __init__(
        self,
        policy: Optional[Policy] = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        service_port: int = 9000,
        record_queue_delays: bool = False,
        retrieve_mode: str = "conditional",
        queues_in_stages: bool = False,
        park_pulls: bool = False,
        pull_queue_capacity: int = 256,
        pull_ttl_ns: int = DEFAULT_PULL_TTL_NS,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        """``retrieve_mode``: "conditional" (repair-free retrieval, the
        default deployment) or "delayed" (the paper's §4.5 delayed
        retrieve-pointer correction; kept for the ablation benchmark).

        ``queues_in_stages``: place each replicated queue in its own
        stage span, so a task_request examines successive priority levels
        *within one traversal* instead of recirculating down the ladder —
        the Tofino 2 deployment the paper describes in §6.1/§8.7
        ("newer switches ... can house each task queue in separate
        stages, eliminating the need for packet recirculation"). Legal
        under the register model because each level's arrays are
        distinct. The paper's first-generation switch shares stages and
        must recirculate; that remains the default.

        ``park_pulls``: hold empty-queue task_requests in a bounded
        switch-side ring (see :class:`ParkedPull`) and replay one per
        accepted submission instead of replying no-op. ``pull_ttl_ns``
        bounds how long a parked pull may represent a possibly-dead
        executor; expired entries are garbage-collected lazily. Off by
        default (the paper's no-op/poll behaviour).

        ``degradation``: optional
        :class:`~repro.ctrl.degradation.DegradationPolicy`. When set, the
        scheduler sheds the lowest priority classes *before* the queues
        are physically full and stamps a ``backoff_hint_ns`` into every
        bounce error so clients widen their retry backoff. Off by default
        (the paper's accept-or-bounce behaviour).
        """
        super().__init__()
        self.service_port = service_port
        self.policy = policy or FcfsPolicy()
        self.policy.validate()
        if retrieve_mode not in ("conditional", "delayed"):
            raise SwitchError(f"unknown retrieve_mode {retrieve_mode!r}")
        self.retrieve_mode = retrieve_mode
        self.queues_in_stages = queues_in_stages
        self.queue_capacity = queue_capacity
        # Queue replication (§6): one circular queue per class. Queues are
        # placed in the same stage span and reached by recirculation, like
        # the paper's first-generation switch deployment (§8.7).
        self.queues: List[SwitchCircularQueue] = [
            SwitchCircularQueue(
                self.registers,
                name=f"queue{i}",
                capacity=queue_capacity,
                stage_base=(6 * i if queues_in_stages else 0),
            )
            for i in range(self.policy.num_queues)
        ]
        self.park_pulls = park_pulls
        if pull_queue_capacity <= 0:
            raise SwitchError(
                f"pull queue capacity must be positive: {pull_queue_capacity}"
            )
        if pull_ttl_ns <= 0:
            raise SwitchError(f"pull TTL must be positive: {pull_ttl_ns}")
        self.pull_queue_capacity = pull_queue_capacity
        self.pull_ttl_ns = pull_ttl_ns
        #: FIFO of parked GetTask pulls, oldest first (front expires first)
        self._parked_pulls: Deque[ParkedPull] = deque()
        if degradation is not None:
            degradation.validate()
        self.degradation = degradation
        #: control-plane mirrors, bound by repro.ctrl when deployed:
        #: a CheckpointManager's DeltaJournal and a Controller instance
        self.journal = None
        self.ctrl = None
        self.sched_stats = SchedulerStats()
        self.record_queue_delays = record_queue_delays
        #: (queue_index, queue_delay_ns) samples, see Fig. 12
        self.queue_delays: List[Tuple[int, int]] = []
        # Hot-path dispatch: one dict probe per packet instead of an
        # isinstance ladder; unknown payloads fall back to plain forwarding.
        self._handlers = {
            JobSubmission: self._on_submission,
            TaskRequest: self._on_request,
            SwapTaskPacket: self._on_swap,
            RepairPacket: self._on_repair,
            Completion: self._on_completion,
            ElectionRequest: self._on_election,
        }
        self._conditional_retrieve = retrieve_mode == "conditional"
        self._always_assign = bool(
            getattr(self.policy, "always_assigns", False)
        )
        # No-op replies carry no fields and payloads are never mutated in
        # place, so a single shared message (and its wire size) serves
        # every empty-queue response.
        self._noop_msg = NoOpTask()
        self._noop_size = codec.wire_size(self._noop_msg)
        # The policy is fixed for the scheduler's lifetime; bind its two
        # per-retrieval hooks once instead of two attribute chains per pull.
        self._first_request_queue = self.policy.first_request_queue
        self._next_queue_on_empty = self.policy.next_queue_on_empty

    # -- helpers ----------------------------------------------------------

    def _now(self) -> int:
        return self.switch.sim.now if self.switch is not None else 0

    def _obs(self):
        """The attached telemetry bus, if the hosting switch carries one."""
        return self.switch.obs if self.switch is not None else None

    def _task_hop(self, uid: int, jid: int, tid: int, stage: str,
                  detail: str = "") -> None:
        switch = self.switch
        if switch is None:
            return
        obs = switch.obs
        if obs is not None:
            obs.task_event((uid, jid, tid), stage, switch.sim.now, detail)

    def _queue(self, index: int) -> SwitchCircularQueue:
        if not 0 <= index < len(self.queues):
            raise SwitchError(f"queue index {index} out of range")
        return self.queues[index]

    @staticmethod
    def _reply(dst: Address, message) -> Reply:
        return Reply(dst=dst, payload=message, size=codec.wire_size(message))

    def _repair_packet(
        self, original: Packet, target: str, value: int, queue_index: int
    ) -> Recirculate:
        message = RepairPacket(target=target, value=value, queue_index=queue_index)
        packet = Packet(
            src=original.src,
            dst=original.dst,
            payload=message,
            size=codec.wire_size(message) + 42,
        )
        return Recirculate(packet)

    # -- parked pulls (§3.3 hardening) -------------------------------------

    def _gc_parked(self) -> None:
        """Lazily expire parked pulls whose executor may be dead.

        The deque is FIFO, so the front is always the oldest entry; the
        sweep stops at the first live one.
        """
        now = self._now()
        while self._parked_pulls and (
            now - self._parked_pulls[0].parked_at > self.pull_ttl_ns
        ):
            self._parked_pulls.popleft()
            self.sched_stats.pulls_expired += 1

    def _try_park(self, requester: Address, request: TaskRequest) -> bool:
        """Park an empty-queue pull instead of answering no-op."""
        if not self.park_pulls:
            return False
        self._gc_parked()
        if len(self._parked_pulls) >= self.pull_queue_capacity:
            return False
        self._parked_pulls.append(
            ParkedPull(
                requester=requester, request=request, parked_at=self._now()
            )
        )
        self.sched_stats.pulls_parked += 1
        return True

    def _wake_parked(self, original: Packet) -> Optional[Recirculate]:
        """Replay one live parked pull as a recirculated task_request.

        Called after a submission lands a task. The replayed request goes
        through the ordinary :meth:`_on_request` path in its own traversal
        — re-reading the queue registers within this one would violate the
        one-access constraint. If the recirculation port drops the wake
        (budget exhaustion) the pull is lost, which is safe: the executor
        re-polls after its response timeout.
        """
        if not self.park_pulls:
            return None
        self._gc_parked()
        if not self._parked_pulls:
            return None
        pull = self._parked_pulls.popleft()
        self.sched_stats.parked_wakeups += 1
        wake = Packet(
            src=pull.requester,
            dst=original.dst,
            payload=pull.request,
            size=codec.wire_size(pull.request) + 42,
        )
        return Recirculate(wake)

    # -- control-plane resilience hooks (repro.ctrl) ------------------------

    def _journal_enqueue(self, queue_index: int, entry: QueueEntry) -> None:
        if self.journal is not None:
            self.journal.record_enqueue(queue_index, entry)

    def _journal_dequeue(self, entry: QueueEntry) -> None:
        if self.journal is not None:
            self.journal.record_dequeue((entry.uid, entry.jid, entry.task.tid))

    def _overload_severity(self) -> float:
        """Degradation signal from O(1) control-plane counters."""
        total_slots = self.queue_capacity * len(self.queues)
        occupied = sum(q.approx_occupancy() for q in self.queues)
        occupancy_frac = occupied / total_slots if total_slots else 0.0
        recirc_frac = 0.0
        if self.switch is not None:
            recirc_frac = self.switch.recirc_backlog_fraction()
        return self.degradation.severity(occupancy_frac, recirc_frac)

    def _backpressure_hint(self) -> int:
        """Backoff hint to stamp into bounce errors (0 when healthy)."""
        if self.degradation is None:
            return 0
        return self.degradation.hint_ns(self._overload_severity())

    def _maybe_shed(
        self, packet: Packet, job: JobSubmission, queue_index: int
    ) -> Optional[List[Action]]:
        """Priority-aware load shedding before the queue is full.

        Returns the bounce actions when this submission's class is being
        shed at the current severity, else None. The top
        ``protect_classes`` levels are never shed; queue index 0 is the
        highest priority, so shedding starts from the tail of the list.
        """
        if self.degradation is None:
            return None
        severity = self._overload_severity()
        if severity <= 0.0:
            return None
        shed = self.degradation.shed_classes(severity, len(self.queues))
        if shed == 0 or queue_index < len(self.queues) - shed:
            return None
        hint = self.degradation.hint_ns(severity)
        self.sched_stats.tasks_shed += len(job.tasks)
        self.sched_stats.submissions_bounced += 1
        obs = self._obs()
        if obs is not None:
            obs.incr("sched.tasks_shed", len(job.tasks))
            for task in job.tasks:
                self._task_hop(
                    job.uid, job.jid, task.tid, "bounce",
                    f"shed queue={queue_index} severity={severity:.2f}",
                )
        return [
            self._reply(
                packet.src,
                ErrorPacket(
                    uid=job.uid,
                    jid=job.jid,
                    tasks=list(job.tasks),
                    backoff_hint_ns=hint,
                ),
            )
        ]

    def _fenced(self, term: int) -> bool:
        """Reject a control-plane action stamped with a stale term.

        ``term`` is the issuing controller's fencing token; when the
        switch's election register has moved past it the issuer was
        deposed and its action must not land (the new leader re-issues it
        from replicated state).
        """
        election = self.switch.election
        if election.term > term:
            self.sched_stats.fencing_rejections += 1
            obs = self._obs()
            if obs is not None:
                obs.incr("sched.fencing_rejections")
            return True
        election.note_action(term)
        return False

    def expire_parked_for(self, executor_ids, term: int) -> int:
        """Drop parked pulls belonging to ``executor_ids`` (lease expiry).

        Called by the :class:`~repro.ctrl.controller.Controller` when an
        executor's lease lapses, so the next submission cannot wake a
        pull whose executor is dead. Returns how many were dropped.
        ``term`` fences the action against a deposed leader.
        """
        if self._fenced(term):
            return 0
        if not self._parked_pulls:
            return 0
        kept: Deque[ParkedPull] = deque()
        expired = 0
        for pull in self._parked_pulls:
            if pull.request.executor_id in executor_ids:
                expired += 1
            else:
                kept.append(pull)
        self._parked_pulls = kept
        self.sched_stats.pulls_expired += expired
        return expired

    def reinject(self, entry: QueueEntry, term: int) -> bool:
        """Put a reclaimed in-flight task back at the tail (lease expiry).

        Control-plane insert — no packet traversal, no register budget.
        Refused (returns False) while the target queue is full or holds a
        pending repair; the controller retries on its next sweep.
        ``term`` fences the insert against a deposed leader —
        a stale leader's reinject would double-queue a task the new
        leader already reclaimed.
        """
        if self._fenced(term):
            return False
        queue_index = self.policy.submit_queue(entry.task)
        queue = self._queue(queue_index)
        fresh = replace(entry, enqueued_at=self._now())
        if not queue.cp_enqueue(fresh):
            return False
        self.sched_stats.tasks_reclaimed += 1
        self._journal_enqueue(queue_index, fresh)
        self._task_hop(entry.uid, entry.jid, entry.task.tid, "reclaim_hop",
                       f"queue={queue_index}")
        return True

    def _on_election(
        self, ctx: PacketContext, packet: Packet, req: ElectionRequest
    ) -> Sequence[Action]:
        """Arbitrate a controller leadership lease (repro.ctrl.replication).

        The election register lives on the *switch*, not the program, so
        a standby program installed mid-failover keeps arbitrating the
        same term sequence — leadership cannot fork across an
        install_program.
        """
        ack = self.switch.election.request(
            req.candidate_id, req.term, self._now(), req.lease_ns
        )
        return [self._reply(packet.src, ack)]

    def snapshot(self):
        """Control-plane checkpoint of queues + parked pulls.

        Returns a :class:`~repro.ctrl.checkpoint.SwitchSnapshot`. Entries
        are frozen dataclasses so the snapshot shares references safely.
        """
        from repro.ctrl.checkpoint import SwitchSnapshot

        return SwitchSnapshot(
            at_ns=self._now(),
            queues={
                i: queue.snapshot_entries()
                for i, queue in enumerate(self.queues)
            },
            parked=list(self._parked_pulls),
        )

    def restore(self, queues, parked) -> Tuple[int, int, int]:
        """Bulk-load checkpointed state into this (standby) program.

        ``queues`` maps queue index -> FIFO entry list; indices beyond
        this program's class count are clamped to the lowest class rather
        than dropped. ``parked`` is a list of :class:`ParkedPull`; their
        original ``parked_at`` stamps are kept, so pulls whose executor
        has been silent longer than the TTL expire cleanly instead of
        waking against a dead node. Returns
        ``(entries_restored, entries_dropped, parked_restored)``.
        """
        merged: dict = {}
        for index, entries in queues.items():
            target = index if 0 <= index < len(self.queues) else (
                len(self.queues) - 1
            )
            merged.setdefault(target, []).extend(entries)
        restored = 0
        dropped = 0
        obs = self._obs()
        for index, queue in enumerate(self.queues):
            entries = merged.get(index, [])
            kept = queue.restore_entries(entries)
            restored += kept
            dropped += len(entries) - kept
            if obs is not None:
                for entry in entries[:kept]:
                    self._task_hop(
                        entry.uid, entry.jid, entry.task.tid, "restore_hop",
                        f"queue={index}",
                    )
        parked_restored = 0
        if self.park_pulls:
            self._parked_pulls = deque()
            for pull in parked:
                if len(self._parked_pulls) >= self.pull_queue_capacity:
                    break
                self._parked_pulls.append(pull)
                parked_restored += 1
        self.sched_stats.entries_restored += restored
        self.sched_stats.parked_restored += parked_restored
        return restored, dropped, parked_restored

    # -- dispatch ----------------------------------------------------------

    def process(self, ctx: PacketContext, packet: Packet) -> Sequence[Action]:
        payload = packet.payload
        handler = self._handlers.get(payload.__class__)
        if handler is not None:
            return handler(ctx, packet, payload)
        # Message subclasses still reach their base handler.
        for cls, candidate in self._handlers.items():
            if isinstance(payload, cls):
                return candidate(ctx, packet, payload)
        # Unknown scheduler-port payloads are forwarded like a regular
        # switch would (§4.1, colocation safety).
        return [Forward(packet)]

    # -- job submission (§4.3, §4.5) ---------------------------------------

    def _on_submission(
        self, ctx: PacketContext, packet: Packet, job: JobSubmission
    ) -> Sequence[Action]:
        if not job.tasks:
            return [self._reply(packet.src, SubmissionAck(uid=job.uid, jid=job.jid))]

        head, rest = job.tasks[0], job.tasks[1:]
        queue_index = self.policy.submit_queue(head)
        shed = self._maybe_shed(packet, job, queue_index)
        if shed is not None:
            # Degraded mode: this class is being shed before the queue is
            # physically full (the whole batch bounces with a hint).
            return shed
        queue = self._queue(queue_index)
        entry = QueueEntry(
            uid=job.uid,
            jid=job.jid,
            task=head,
            client=packet.src,
            enqueued_at=self._now(),
        )
        outcome = queue.enqueue(ctx, entry)
        actions: List[Action] = []

        if not outcome.accepted:
            # Queue full (or a pointer repair in flight): the increment
            # was a mistake. Bounce this and all remaining tasks back to
            # the client, which retries after a short wait (§4.3).
            self.sched_stats.submissions_bounced += 1
            if self._obs() is not None:
                for task in job.tasks:
                    self._task_hop(job.uid, job.jid, task.tid, "bounce",
                                   f"queue={queue_index}")
            if outcome.need_add_repair:
                actions.append(
                    self._repair_packet(packet, "add_ptr", 0, queue_index)
                )
            actions.append(
                self._reply(
                    packet.src,
                    ErrorPacket(
                        uid=job.uid,
                        jid=job.jid,
                        tasks=list(job.tasks),
                        backoff_hint_ns=self._backpressure_hint(),
                    ),
                )
            )
            return actions

        self.sched_stats.tasks_enqueued += 1
        self._journal_enqueue(queue_index, entry)
        self._task_hop(job.uid, job.jid, head.tid, "sched_enqueue",
                       f"queue={queue_index}")
        wake = self._wake_parked(packet)
        if wake is not None:
            self._task_hop(job.uid, job.jid, head.tid, "park_wake",
                           "replayed a parked pull")
            actions.append(wake)
        if outcome.need_rtr_repair:
            # The retrieve pointer overran while the queue was empty; aim
            # it at the task we just stored (§4.5).
            self._task_hop(job.uid, job.jid, head.tid, "repair_hop",
                           f"retrieve_ptr queue={queue_index}")
            actions.append(
                self._repair_packet(
                    packet, "retrieve_ptr", outcome.rtr_repair_value, queue_index
                )
            )

        if rest:
            # No loops on the switch: strip one task per traversal and
            # recirculate the remainder (§4.3, "Adding Multiple Tasks").
            if self._obs() is not None:
                for task in rest:
                    self._task_hop(job.uid, job.jid, task.tid, "recirc_hop",
                                   f"batch remainder of {len(rest)}")
            packet.payload = JobSubmission(uid=job.uid, jid=job.jid, tasks=rest)
            actions.append(Recirculate(packet))
        else:
            self.sched_stats.acks_sent += 1
            actions.append(
                self._reply(
                    packet.src,
                    SubmissionAck(uid=job.uid, jid=job.jid, accepted=1),
                )
            )
        return actions

    # -- task retrieval (§4.6, §6.1) -----------------------------------------

    def _on_request(
        self,
        ctx: PacketContext,
        packet: Packet,
        request: TaskRequest,
        requester: Optional[Address] = None,
    ) -> Sequence[Action]:
        # Registered directly in _handlers (no wrapper — task_request is
        # the hottest opcode): a plain traversal answers the packet source,
        # the completion-piggyback path passes the requester explicitly.
        if requester is None:
            requester = packet.src
        queue_index = self._first_request_queue(request)
        queues = self.queues
        conditional = self._conditional_retrieve
        while True:
            if not 0 <= queue_index < len(queues):
                raise SwitchError(f"queue index {queue_index} out of range")
            queue = queues[queue_index]
            if conditional:
                outcome = queue.dequeue_conditional(ctx)
            else:
                outcome = queue.dequeue(ctx)
            if outcome.entry is not None:
                break
            if outcome.repair_pending:
                self.sched_stats.noops_sent += 1
                return [Reply(dst=requester, payload=self._noop_msg,
                              size=self._noop_size)]
            next_queue = self._next_queue_on_empty(queue_index)
            if next_queue is None:
                # Bottom of the ladder, nothing queued anywhere: park the
                # pull (if enabled) so the next submission assigns without
                # waiting out an executor poll interval.
                if self._try_park(requester, request):
                    return []
                self.sched_stats.noops_sent += 1
                return [Reply(dst=requester, payload=self._noop_msg,
                              size=self._noop_size)]
            if self.queues_in_stages:
                # Tofino 2 layout: the next level's registers live in a
                # later stage of the same traversal — no recirculation.
                queue_index = next_queue
                continue
            # Priority ladder (§6.1): retry the next level via
            # recirculation; the packet keeps the executor as source.
            self.sched_stats.priority_ladder_recircs += 1
            packet.payload = replace(request, rtrv_prio=next_queue + 1)
            packet.src = requester
            return [Recirculate(packet)]

        entry = outcome.entry
        if self.record_queue_delays:
            self.queue_delays.append(
                (queue_index, self._now() - entry.enqueued_at)
            )
        if self.journal is not None:
            self.journal.record_dequeue((entry.uid, entry.jid, entry.task.tid))
        if self._always_assign:
            # Unconditional-placement policies (FCFS, priority) skip the
            # ExecProps build and the examine call per retrieval.
            return [self._assign(requester, entry, request.executor_id)]
        props = ExecProps.from_request(request)
        if self.policy.examine(entry, props) is Verdict.ASSIGN:
            return [self._assign(requester, entry, request.executor_id)]

        # Constraint not met: start a task-swapping walk (§5.1).
        self.sched_stats.swap_walks_started += 1
        self._task_hop(entry.uid, entry.jid, entry.task.tid, "swap_hop",
                       f"walk from index {outcome.index + 1}")
        swap = SwapTaskPacket(
            uid=entry.uid,
            jid=entry.jid,
            task=entry.task,
            client=entry.client,
            swap_indx=outcome.index + 1,
            exec_props=request.exec_rsrc,
            node_id=request.node_id,
            rack_id=request.rack_id,
            pkt_retrieve_ptr=outcome.index + 1,
            requester=requester,
            executor_id=request.executor_id,
            swaps_left=self.policy.max_swaps,
            skip_counter=entry.skip_counter + 1,
            queue_index=queue_index,
        )
        packet.payload = swap
        return [Recirculate(packet)]

    def _assign(
        self, requester: Address, entry: QueueEntry, executor_id: int
    ) -> Reply:
        self.sched_stats.tasks_assigned += 1
        if self.ctrl is not None:
            # Mirror the assignment so an expired lease can reclaim it.
            self.ctrl.note_assign(
                (entry.uid, entry.jid, entry.task.tid), entry, executor_id
            )
        switch = self.switch
        if switch is not None and switch.obs is not None:
            switch.obs.task_event(
                (entry.uid, entry.jid, entry.task.tid), "sched_assign",
                switch.sim.now, f"to={requester.node}",
            )
        assignment = TaskAssignment(
            uid=entry.uid, jid=entry.jid, task=entry.task, client=entry.client
        )
        return Reply(
            dst=requester, payload=assignment, size=codec.wire_size(assignment)
        )

    def _note_dequeue(self, queue_index: int, entry: QueueEntry) -> None:
        if self.record_queue_delays:
            self.queue_delays.append(
                (queue_index, self._now() - entry.enqueued_at)
            )

    # -- task swapping (§5.1) ---------------------------------------------

    def _entry_from_swap(self, swap: SwapTaskPacket) -> QueueEntry:
        return QueueEntry(
            uid=swap.uid,
            jid=swap.jid,
            task=swap.task,
            client=swap.client,
            skip_counter=swap.skip_counter,
            enqueued_at=self._now(),
        )

    def _on_swap(
        self, ctx: PacketContext, packet: Packet, swap: SwapTaskPacket
    ) -> Sequence[Action]:
        queue_index = swap.queue_index
        queue = self._queue(queue_index)
        carried = self._entry_from_swap(swap)

        if swap.insert_mode:
            # End of the walk: the carried task re-enters the queue via
            # the ordinary submission logic (§5.1). This is a separate
            # traversal because the walk already read add_ptr.
            self.sched_stats.swap_reinserts += 1
            outcome = queue.enqueue(ctx, carried)
            if outcome.accepted:
                self._journal_enqueue(queue_index, carried)
                self._task_hop(swap.uid, swap.jid, swap.task.tid,
                               "sched_enqueue", f"queue={queue_index} reinsert")
            actions: List[Action] = []
            if not outcome.accepted:
                if outcome.need_add_repair:
                    actions.append(
                        self._repair_packet(packet, "add_ptr", 0, queue_index)
                    )
                if swap.client is not None:
                    actions.append(
                        self._reply(
                            swap.client,
                            ErrorPacket(
                                uid=swap.uid,
                                jid=swap.jid,
                                tasks=[swap.task],
                                backoff_hint_ns=self._backpressure_hint(),
                            ),
                        )
                    )
                return actions
            if outcome.need_rtr_repair:
                actions.append(
                    self._repair_packet(
                        packet,
                        "retrieve_ptr",
                        outcome.rtr_repair_value,
                        queue_index,
                    )
                )
            return actions

        cur_retrieve = queue.read_retrieve_ptr(ctx)
        if swap.pkt_retrieve_ptr < cur_retrieve:
            # The retrieve pointer passed our target while we were in
            # flight; swapping there would lose the carried task. Swap at
            # the current head instead (§5.1 concurrency guard).
            index = cur_retrieve
        else:
            index = swap.swap_indx

        add_ptr = queue.read_add_ptr(ctx)
        if index >= add_ptr:
            # Walked past the tail: nothing in the queue suits this
            # executor. Re-insert the carried task and send a no-op.
            self.sched_stats.noops_sent += 1
            packet.payload = replace(swap, insert_mode=True)
            actions = [Recirculate(packet)]
            if swap.requester is not None:
                actions.append(self._reply(swap.requester, NoOpTask()))
            return actions

        out_entry = queue.swap_at(ctx, index, carried)
        if out_entry is None:
            # Swapped into a hole: the carried task is parked in-order;
            # the executor polls again.
            self._journal_enqueue(queue_index, carried)
            self.sched_stats.noops_sent += 1
            if swap.requester is None:
                return []
            return [self._reply(swap.requester, NoOpTask())]
        self._journal_enqueue(queue_index, carried)
        self._journal_dequeue(out_entry)

        props = ExecProps(
            exec_rsrc=swap.exec_props,
            node_id=swap.node_id,
            rack_id=swap.rack_id,
        )
        self._note_dequeue(queue_index, out_entry)
        if self.policy.examine(out_entry, props) is Verdict.ASSIGN:
            if swap.requester is None:
                raise SwitchError("swap packet lost its requester")
            return [self._assign(swap.requester, out_entry, swap.executor_id)]

        # Keep walking with the newly extracted task.
        skipped = out_entry.skipped()
        if swap.swaps_left <= 1:
            self.sched_stats.noops_sent += 1
            packet.payload = replace(
                swap,
                uid=skipped.uid,
                jid=skipped.jid,
                task=skipped.task,
                client=skipped.client,
                skip_counter=skipped.skip_counter,
                insert_mode=True,
            )
            actions = [Recirculate(packet)]
            if swap.requester is not None:
                actions.append(self._reply(swap.requester, NoOpTask()))
            return actions

        self._task_hop(skipped.uid, skipped.jid, skipped.task.tid, "swap_hop",
                       f"carried past index {index}")
        packet.payload = replace(
            swap,
            uid=skipped.uid,
            jid=skipped.jid,
            task=skipped.task,
            client=skipped.client,
            skip_counter=skipped.skip_counter,
            swap_indx=index + 1,
            pkt_retrieve_ptr=cur_retrieve,
            swaps_left=swap.swaps_left - 1,
        )
        return [Recirculate(packet)]

    # -- pointer repair (§4.5, §4.7) ----------------------------------------

    def _on_repair(
        self, ctx: PacketContext, packet: Packet, repair: RepairPacket
    ) -> Sequence[Action]:
        queue = self._queue(repair.queue_index)
        if repair.target == "add_ptr":
            queue.apply_add_repair(ctx)
        elif repair.target == "retrieve_ptr":
            queue.apply_rtr_repair(ctx, repair.value)
        else:
            raise SwitchError(f"unknown repair target {repair.target!r}")
        obs = self._obs()
        if obs is not None:
            obs.incr(f"sched.repairs_applied.{repair.target}")
        return [Drop(packet, reason="repair-consumed")]

    # -- completions (§3.1) --------------------------------------------------

    def _on_completion(
        self, ctx: PacketContext, packet: Packet, completion: Completion
    ) -> Sequence[Action]:
        actions: List[Action] = []
        if self.ctrl is not None:
            self.ctrl.note_complete(
                (completion.uid, completion.jid, completion.tid)
            )
        request = completion.piggyback_request
        if completion.client is not None:
            # Direct construction: dataclasses.replace() resolves fields
            # dynamically and is measurably slower on this per-task path.
            notice = Completion(
                uid=completion.uid,
                jid=completion.jid,
                tid=completion.tid,
                executor_id=completion.executor_id,
                success=completion.success,
                client=completion.client,
                piggyback_request=None,
            )
            actions.append(self._reply(completion.client, notice))
        if request is not None:
            actions.extend(self._on_request(ctx, packet, request, packet.src))
        return actions

    # -- control-plane telemetry ---------------------------------------------

    def total_queued(self) -> int:
        return sum(q.occupancy() for q in self.queues)

    def parked_pull_count(self) -> int:
        return len(self._parked_pulls)

    def queued_keys(self) -> list:
        """Every queued task key, in queue order (oracle inspection).

        Control-plane scan — the verify oracle compares this against a
        checkpoint+journal replay after failover, and against per-queue
        ``occupancy()`` for register sanity.
        """
        keys = []
        for queue in self.queues:
            for entry in queue.snapshot_entries():
                keys.append((entry.uid, entry.jid, entry.task.tid))
        return keys

    def parked_executor_ids(self) -> set:
        """Executor ids with a pull currently parked (oracle inspection)."""
        return {pull.request.executor_id for pull in self._parked_pulls}

    def check_invariants(self) -> None:
        for queue in self.queues:
            queue.check_invariants()
