"""Replicated control plane: leader election, fencing, and state sync.

The unreplicated :class:`~repro.ctrl.controller.Controller` is a single
point of failure: when it dies, its lease table and assignment mirror
die with it, and in-flight tasks of crashed executors wait out the full
client timeout window — exactly the gap the paper's "failure handling
is nearly free" claim glosses over for the control plane itself. This
module closes it with N warm replicas and three mechanisms:

**Election through the switch.** Replicas do not run a quorum protocol
among themselves; they CAS a leadership lease in the switch's
:class:`~repro.switchsim.election.ElectionRegister`
(``switch.election``). Every control-plane action already traverses the
switch, so the register is the one arbiter that cannot split-brain.
The protocol is deliberately RNG-free: each replica polls on a fixed
period with a per-replica start stagger, so the leader sequence is a
pure function of the crash schedule — the chaos harness replays
elections bit-identically from a seed.

**Fencing.** Each grant increments a monotonic term; the leader stamps
its term into every switch mutation (``expire_parked_for`` /
``reinject``). The switch rejects stamps older than the register term,
so a deposed leader — crashed-and-restarted, or partitioned past its
lease — cannot clobber the new leader's reclaim decisions. A leader
also *self-demotes* when its lease expires locally: it stops acting
before it even learns who replaced it.

**State sync.** The leader journals assignment-mirror deltas (the
:class:`~repro.ctrl.checkpoint.DeltaJournal` shape: bounded buffer,
overflow forces a snapshot) and flushes them to followers as
:class:`~repro.protocol.messages.ControllerSync` datagrams — periodic
snapshots bound resync cost, sequence gaps trigger a snapshot wait.
Followers build their *lease* tables first-hand from executor heartbeat
broadcasts, so only the mirror and checkpoint metadata travel on sync.
A follower that wins takeover therefore reclaims the dead leader's
orphans immediately: zero queued or in-flight task loss, bounded by one
election timeout (:meth:`ControllerGroup.election_timeout_bound`).

Every election and sync decision lives once, in the I/O-free
:class:`ReplicaCore`. :class:`ReplicaController` drives it on simulator
timers and sockets; :class:`repro.live.ctrlplane.LiveControllerReplica`
drives the same object on asyncio and real UDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ctrl.controller import (
    DEFAULT_LEASE_NS,
    DEFAULT_SWEEP_NS,
    Controller,
    TaskKey,
)
from repro.errors import ConfigurationError
from repro.protocol import codec
from repro.protocol.codec import MAX_CTRL_OPS_PER_PACKET
from repro.protocol.messages import (
    ControllerSync,
    CtrlOp,
    ElectionAck,
    ElectionRequest,
)
from repro.sim.core import Interrupted, Simulator, us
from repro.switchsim.election import ElectionRegister

__all__ = [
    "SIM_TIMING",
    "STEPPED_DOWN",
    "WON",
    "ControllerGroup",
    "CtrlJournal",
    "CtrlOpKind",
    "ElectionRegister",
    "ReplicaController",
    "ReplicaCore",
    "ReplicaTiming",
]


@dataclass(frozen=True)
class ReplicaTiming:
    """Election and sync cadence of one controller replica."""

    #: leadership lease granted by the switch per renewal (ns)
    lease_ns: int
    #: the leader renews this long before its lease expires (ns)
    renew_margin_ns: int
    #: follower candidacy poll period, bounding takeover detection (ns)
    poll_ns: int
    #: per-replica start offset breaking the t=0 candidacy tie (ns)
    stagger_ns: int
    #: leader->follower sync flush period (ns)
    sync_interval_ns: int
    #: every Nth flush is a full snapshot regardless of journal state
    snapshot_every: int = 8
    #: journal ops buffered between flushes before overflow forces a snapshot
    journal_ops: int = 256


#: simulated replicas: a µs-scale lease, far below any client timeout
SIM_TIMING = ReplicaTiming(
    lease_ns=us(600),
    renew_margin_ns=us(200),
    poll_ns=us(100),
    stagger_ns=us(5),
    sync_interval_ns=us(200),
)

#: what :meth:`ReplicaCore.on_ack` / :meth:`ReplicaCore.on_sync` report
#: for the driver's hooks (None: nothing to act on)
WON = "won"
STEPPED_DOWN = "stepped_down"


class CtrlOpKind(IntEnum):
    """Wire op kinds for :class:`~repro.protocol.messages.CtrlOp`.

    Only the kinds a follower applies: assignment-mirror inserts and
    removals, and ``CKPT_META`` (``d`` = checkpoints the leader's switch
    checkpoint manager has taken; 0 where none runs). Values 1 and 2
    are retired and must not be reused.
    """

    ASSIGN = 3
    COMPLETE = 4
    PULL_RECLAIMED = 5
    CKPT_META = 6


def _key_op(kind: CtrlOpKind, key: TaskKey, executor_id: int = 0) -> CtrlOp:
    return CtrlOp(
        kind=int(kind), executor_id=executor_id, a=key[0], b=key[1], c=key[2]
    )


class CtrlJournal:
    """Bounded delta buffer between sync flushes (DeltaJournal shape).

    Overflow does not drop ops silently: it marks the journal dirty and
    the next flush ships a full snapshot instead of deltas.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.ops: List[CtrlOp] = []
        #: sim-only piggyback: task key -> queue entry for ASSIGN ops
        self.entries: Dict[TaskKey, Any] = {}
        self.overflowed = False
        self.overflows = 0

    def record(
        self, op: CtrlOp, key: Optional[TaskKey] = None, entry: Any = None
    ) -> None:
        if len(self.ops) >= self.capacity:
            self.overflowed = True
            self.overflows += 1
            return
        self.ops.append(op)
        if key is not None and entry is not None:
            self.entries[key] = entry

    def drain(self) -> Tuple[List[CtrlOp], Dict[TaskKey, Any], bool]:
        ops, self.ops = self.ops, []
        entries, self.entries = self.entries, {}
        overflowed, self.overflowed = self.overflowed, False
        return ops, entries, overflowed

    def clear(self) -> None:
        self.ops.clear()
        self.entries.clear()
        self.overflowed = False


class ReplicaCore:
    """One controller replica's election and sync decisions, with no I/O.

    A driver owns the timers and the socket. It sends what
    :meth:`election_request` and :meth:`flush` build, sleeps for
    :meth:`next_wait`, and feeds every ack and sync back in with the
    time it arrived. :meth:`on_ack` and :meth:`on_sync` return
    :data:`WON` or :data:`STEPPED_DOWN` when the driver has host-side
    work to do (bind the program, reconcile, drop a backlog).

    ``mirror`` is the replicated state, task key -> ``(executor_id,
    queue entry)``: snapshots are built from it and applied syncs land
    in it. The simulated replica shares it as its assignment mirror;
    the live replica has none, so its mirror stays empty.
    """

    def __init__(self, replica_id: int, timing: ReplicaTiming) -> None:
        self.replica_id = replica_id
        self.timing = timing
        self.mirror: Dict[TaskKey, Tuple[int, Any]] = {}
        self.journal = CtrlJournal(timing.journal_ops)
        #: checkpoint counter carried by CKPT_META
        self.ckpt_meta = 0
        self.elections_won = 0
        self.step_downs = 0
        self.sync_applied = 0
        self.sync_gaps = 0
        self.reset()

    def reset(self) -> None:
        """Crash: forget the term, the lease and both sync positions."""
        self.role = "follower"
        self.term = 0  #: last term granted to *this* replica
        self.known_term = 0  #: highest term seen in any ack or sync
        self.leader_until = -1
        self._request_sent_ns = 0
        self.journal.clear()
        self._seq = 0
        self._flushes = 0
        self._need_snapshot = True
        self._sync_term = -1
        self._sync_last_seq = 0
        self._sync_gap = True  # wait for the term's first snapshot

    # -- election ----------------------------------------------------------

    def is_leader(self, now: int) -> bool:
        """Leader role *and* a live local lease.

        The second clause is the self-demotion half of fencing: a
        partitioned leader stops acting the instant its lease lapses
        locally, before it ever hears about its successor.
        """
        return self.role == "leader" and now <= self.leader_until

    def first_wait(self) -> int:
        """Delay before the first candidacy.

        At t=0 all replicas race for term 1; the per-replica offset
        makes replica 0 win deterministically.
        """
        return 1 + self.replica_id * self.timing.stagger_ns

    def next_wait(self, now: int) -> int:
        """Delay after a request: renew in time while leading, else poll."""
        timing = self.timing
        if self.is_leader(now):
            return timing.lease_ns - timing.renew_margin_ns
        return timing.poll_ns

    def election_request(self, now: int) -> ElectionRequest:
        """The next candidacy or renewal; ``now`` is when it is sent."""
        self._request_sent_ns = now
        return ElectionRequest(
            candidate_id=self.replica_id,
            term=self.term if self.role == "leader" else self.known_term,
            lease_ns=self.timing.lease_ns,
        )

    def on_ack(self, now: int, ack: ElectionAck) -> Optional[str]:
        if ack.term > self.known_term:
            self.known_term = ack.term
        if ack.granted and ack.leader_id == self.replica_id:
            if ack.term < self.term:
                return None  # stale ack from an earlier grant
            newly = self.role != "leader" or ack.term != self.term
            self.term = ack.term
            # The register stamped its own arrival clock; request-send
            # time + lease can only be earlier, so the local lease never
            # outlives the granted one, whatever clock the driver runs.
            self.leader_until = min(
                ack.expires_at_ns, self._request_sent_ns + self.timing.lease_ns
            )
            if not newly:
                return None
            self.role = "leader"
            self.elections_won += 1
            self.journal.clear()
            self._seq = 0
            self._flushes = 0
            # First flush of a tenure is a snapshot: followers that
            # missed the term change resync from scratch.
            self._need_snapshot = True
            return WON
        # Any other verdict at our term or newer means someone else (or
        # a grant to us we never heard of) holds the lease.
        if self.role == "leader" and ack.term >= self.term:
            self._step_down()
            return STEPPED_DOWN
        return None

    def _step_down(self) -> None:
        self.role = "follower"
        self.leader_until = -1
        self.step_downs += 1
        self.journal.clear()

    # -- leader -> follower sync -------------------------------------------

    def flush(self) -> List[ControllerSync]:
        """Drain the journal into the next flush's sync messages.

        The flush is a full snapshot of :attr:`mirror` on a new tenure,
        after a journal overflow, and every ``snapshot_every``-th time;
        otherwise it carries the journal deltas. It is chunked to the
        codec's per-packet op limit; only the first chunk of a snapshot
        is marked as one.
        """
        ops, entries, overflowed = self.journal.drain()
        self._flushes += 1
        snapshot = (
            self._need_snapshot
            or overflowed
            or self._flushes % self.timing.snapshot_every == 0
        )
        if snapshot:
            self._need_snapshot = False
            ops = [
                _key_op(CtrlOpKind.ASSIGN, key, eid)
                for key, (eid, _entry) in self.mirror.items()
            ]
            entries = {key: entry for key, (_eid, entry) in self.mirror.items()}
        ops.append(CtrlOp(kind=int(CtrlOpKind.CKPT_META), d=self.ckpt_meta))
        messages = []
        for lo in range(0, len(ops), MAX_CTRL_OPS_PER_PACKET):
            chunk = ops[lo : lo + MAX_CTRL_OPS_PER_PACKET]
            self._seq += 1
            piggyback = {
                (op.a, op.b, op.c): entries[(op.a, op.b, op.c)]
                for op in chunk
                if op.kind == int(CtrlOpKind.ASSIGN)
                and (op.a, op.b, op.c) in entries
            }
            messages.append(
                ControllerSync(
                    leader_id=self.replica_id,
                    term=self.term,
                    seq=self._seq,
                    snapshot=snapshot and lo == 0,
                    ops=chunk,
                    entries=piggyback or None,
                )
            )
        return messages

    def on_sync(self, msg: ControllerSync) -> Optional[str]:
        """Apply one sync message to :attr:`mirror`, or drop it.

        Dropped: our own echo, a stale term, and — after a new term or a
        sequence gap — every delta until the next snapshot, since
        applying a delta over a mirror it does not extend would merge
        two states.
        """
        if msg.leader_id == self.replica_id or msg.term < self.known_term:
            return None
        self.known_term = msg.term
        verdict = None
        if self.role == "leader" and msg.term > self.term:
            self._step_down()
            verdict = STEPPED_DOWN
        if msg.term != self._sync_term:
            self._sync_term = msg.term
            self._sync_last_seq = 0
            self._sync_gap = True
        if msg.snapshot:
            self.mirror.clear()
            self._sync_gap = False
        elif self._sync_gap:
            return verdict
        elif msg.seq != self._sync_last_seq + 1:
            self._sync_gap = True
            self.sync_gaps += 1
            return verdict
        self._sync_last_seq = msg.seq
        entries = msg.entries or {}
        for op in msg.ops:
            key = (op.a, op.b, op.c)
            if op.kind == int(CtrlOpKind.ASSIGN):
                entry = entries.get(key)
                if entry is not None:
                    self.mirror[key] = (op.executor_id, entry)
            elif op.kind in (
                int(CtrlOpKind.COMPLETE),
                int(CtrlOpKind.PULL_RECLAIMED),
            ):
                self.mirror.pop(key, None)
            elif op.kind == int(CtrlOpKind.CKPT_META):
                self.ckpt_meta = op.d
        self.sync_applied += 1
        return verdict


class ReplicaController(Controller):
    """One replica of the replicated controller, driven on the simulator.

    Extends the lease controller with the :class:`ReplicaCore` election
    and sync protocol: the election and sync loops are simulator timers,
    acks and syncs arrive on the controller socket, and the core's
    mirror *is* the controller's assignment mirror. Exactly one replica
    acts on the switch at a time; followers keep warm lease tables from
    the executors' heartbeat broadcasts and a warm assignment mirror
    from the leader's sync stream.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Any,
        name: str = "ctrl0",
        replica_id: int = 0,
        lease_ns: int = DEFAULT_LEASE_NS,
        sweep_ns: int = DEFAULT_SWEEP_NS,
        program: Any = None,
        switch: Any = None,
        obs: Any = None,
        checkpoints: Any = None,
    ) -> None:
        # program=None on the base: only the elected leader may own
        # program.ctrl, so binding waits for the first election win.
        super().__init__(
            sim,
            topology,
            name=name,
            lease_ns=lease_ns,
            sweep_ns=sweep_ns,
            program=None,
            switch=None,
            obs=obs,
        )
        self.replica_id = replica_id
        self.core = ReplicaCore(replica_id, SIM_TIMING)
        # One dict, two roles: the lease logic's assignment mirror and
        # the replicated state the core snapshots and applies syncs to.
        self._inflight = self.core.mirror
        self.program = program
        self.switch_address = switch.service_address if switch else None
        #: peer replica addresses, wired by :class:`ControllerGroup`
        self.peers: List[Any] = []
        self.checkpoints = checkpoints
        self.sync_sent = 0
        if switch is not None:
            switch.add_install_hook(self._on_install)
        self._spawn_loops()

    def _spawn_loops(self) -> None:
        self._election_process = self.sim.spawn(
            self._election_loop(), name=f"{self.name}-election"
        )
        self._sync_process = self.sim.spawn(
            self._sync_loop(), name=f"{self.name}-sync"
        )

    # -- leadership ----------------------------------------------------------

    @property
    def term(self) -> int:  # type: ignore[override]
        """Fencing token stamped into switch mutations: the core's term."""
        return self.core.term

    def is_leader(self) -> bool:
        """Up, and leading on a live local lease (self-demotion)."""
        return not self.crashed and self.core.is_leader(self.sim.now)

    def _on_install(self, new_program: Any, old_program: Any) -> None:
        self.program = new_program
        if self.is_leader():
            new_program.ctrl = self

    def _election_loop(self):
        core = self.core
        try:
            yield self.sim.timeout(core.first_wait())
            while True:
                if self.switch_address is not None:
                    req = core.election_request(self.sim.now)
                    self.socket.send(
                        self.switch_address, req, codec.wire_size(req)
                    )
                yield self.sim.timeout(core.next_wait(self.sim.now))
        except Interrupted:
            return

    def _on_verdict(self, verdict: Optional[str]) -> None:
        if verdict == WON:
            self._become_leader()
        elif verdict == STEPPED_DOWN:
            # The new leader re-derives reclaim work from replicated
            # state; retrying here would be fenced anyway, and a backlog
            # that can never drain would trip the oracle's lease-safety
            # check.
            self._reclaim_backlog.clear()
            if self.obs is not None:
                self.obs.incr("ctrl.step_downs")

    def _become_leader(self) -> None:
        if self.obs is not None:
            self.obs.incr("ctrl.elections_won")
            self.obs.gauge("ctrl.term", self.term)
            self.obs.emit(
                self.sim.now,
                "ctrl",
                opcode="leader_elected",
                detail=f"replica={self.replica_id} term={self.term}",
            )
        if self.program is not None:
            self.program.ctrl = self
        self._takeover_reconcile()

    def _takeover_reconcile(self) -> None:
        """Reclaim everything the previous leader left orphaned.

        Runs synchronously at the win: parked pulls of executors with no
        live lease are expired (term-stamped, so a zombie predecessor
        cannot race us) and their mirrored in-flight tasks re-injected.
        This is what makes takeover lose zero tasks.
        """
        program = self.program
        if program is None:
            return
        live = self.live_executors()
        dead: Set[int] = {
            eid for eid, _entry in self._inflight.values() if eid not in live
        }
        if hasattr(program, "parked_executor_ids"):
            dead |= program.parked_executor_ids() - live
        if dead:
            self._reclaim(dead)

    # -- fenced mirror + reclaim overrides ----------------------------------

    def note_assign(self, key: TaskKey, entry: Any, executor_id: int) -> None:
        if self.crashed:
            return
        super().note_assign(key, entry, executor_id)
        if self.is_leader():
            self.core.journal.record(
                _key_op(CtrlOpKind.ASSIGN, key, executor_id), key, entry
            )

    def note_complete(self, key: TaskKey) -> None:
        if self.crashed:
            return
        super().note_complete(key)
        if self.is_leader():
            self.core.journal.record(_key_op(CtrlOpKind.COMPLETE, key))

    def _reclaim(self, executor_ids: Set[int]) -> None:
        orphaned = [
            key
            for key, (eid, _entry) in self._inflight.items()
            if eid in executor_ids
        ]
        super()._reclaim(executor_ids)
        if self.is_leader():
            # Replicate the mirror pops so a follower that later takes
            # over does not re-inject tasks this incarnation already
            # reclaimed (double execution is counted, but why invite it).
            for key in orphaned:
                self.core.journal.record(
                    _key_op(CtrlOpKind.PULL_RECLAIMED, key)
                )

    def _sweep(self) -> None:
        if self.is_leader():
            super()._sweep()
            return
        # Follower: lease bookkeeping only. Expiry is tracked so the
        # table stays warm, but reclaim is the leader's job — a follower
        # acting on the switch would need a term it does not hold.
        now = self.sim.now
        expired = [
            eid
            for eid, lease in self._leases.items()
            if lease.expires_at_ns < now
        ]
        for eid in expired:
            del self._leases[eid]
            self.stats.leases_expired += 1

    def _post_restart_reconcile(self) -> None:
        # A restarted replica is a follower until it wins an election,
        # and the win path runs its own takeover reconcile.
        if self.is_leader():
            super()._post_restart_reconcile()

    # -- packet dispatch -----------------------------------------------------

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        if isinstance(payload, ElectionAck):
            self._on_verdict(self.core.on_ack(self.sim.now, payload))
        elif isinstance(payload, ControllerSync):
            self._on_verdict(self.core.on_sync(payload))
        else:
            super()._on_packet(packet)

    def _sync_loop(self):
        try:
            while True:
                yield self.sim.timeout(SIM_TIMING.sync_interval_ns)
                if self.is_leader() and self.peers:
                    if self.checkpoints is not None:
                        self.core.ckpt_meta = int(
                            self.checkpoints.stats.checkpoints_taken
                        )
                    for msg in self.core.flush():
                        for peer in self.peers:
                            self.socket.send(peer, msg, codec.wire_size(msg))
                            self.sync_sent += 1
        except Interrupted:
            return

    # -- fail-stop -----------------------------------------------------------

    def crash(self) -> None:
        if self.crashed:
            return
        super().crash()
        if not self._election_process.triggered:
            self._election_process.interrupt("controller crash")
        if not self._sync_process.triggered:
            self._sync_process.interrupt("controller crash")
        self.core.reset()

    def restart(self) -> None:
        if not self.crashed:
            return
        super().restart()
        self._spawn_loops()

    # -- inspection ----------------------------------------------------------

    def audit(self) -> Dict[str, Any]:
        core = self.core
        report = super().audit()
        report.update(
            {
                "replica_id": self.replica_id,
                "role": core.role,
                "is_leader": self.is_leader(),
                "term": core.term,
                "known_term": core.known_term,
                "elections_won": core.elections_won,
                "step_downs": core.step_downs,
                "sync_sent": self.sync_sent,
                "sync_applied": core.sync_applied,
                "sync_gaps": core.sync_gaps,
                "journal_overflows": core.journal.overflows,
                "ckpt_meta": core.ckpt_meta,
            }
        )
        return report


class ControllerGroup:
    """N controller replicas plus the glue the harness needs.

    Builds ``ctrl0..ctrlN-1`` as topology hosts, cross-wires their peer
    addresses, and exposes the surface the fault injector and the oracle
    share with a plain :class:`Controller` (``replicas``) plus
    :meth:`leader` and :meth:`stats`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Any,
        switch: Any,
        program: Any = None,
        replicas: int = 3,
        lease_ns: int = DEFAULT_LEASE_NS,
        sweep_ns: int = DEFAULT_SWEEP_NS,
        obs: Any = None,
        checkpoints: Any = None,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(f"need at least one replica: {replicas}")
        self.sim = sim
        self.switch = switch
        self.replicas: List[ReplicaController] = [
            ReplicaController(
                sim,
                topology,
                name=f"ctrl{i}",
                replica_id=i,
                lease_ns=lease_ns,
                sweep_ns=sweep_ns,
                program=program,
                switch=switch,
                obs=obs,
                checkpoints=checkpoints,
            )
            for i in range(replicas)
        ]
        addrs = [r.address for r in self.replicas]
        for r in self.replicas:
            r.peers = [a for a in addrs if a != r.address]

    def addresses(self) -> List[Any]:
        return [r.address for r in self.replicas]

    def leader(self) -> Optional[ReplicaController]:
        """The replica holding a live switch lease right now, if any."""
        election = getattr(self.switch, "election", None)
        if election is None:
            return None
        rid = election.current_leader(self.sim.now)
        if rid is None or not 0 <= rid < len(self.replicas):
            return None
        replica = self.replicas[rid]
        return None if replica.crashed else replica

    def election_timeout_bound(self) -> int:
        """Worst-case ns from leader death to successor takeover.

        The dead leader's lease must lapse (one full lease, if it died
        right after renewing), then a follower's next candidacy poll
        lands, plus one poll period of slack for in-flight RTT and
        processing. The controller_ha experiment asserts reclamation
        resumes within this bound.
        """
        return SIM_TIMING.lease_ns + 2 * SIM_TIMING.poll_ns

    def stats(self) -> Dict[str, Any]:
        """Group health rollup for experiment summary rows."""
        election = getattr(self.switch, "election", None)
        fencing = 0
        program = getattr(self.switch, "program", None)
        sched_stats = getattr(program, "sched_stats", None)
        if sched_stats is not None:
            fencing = getattr(sched_stats, "fencing_rejections", 0)
        leader = self.leader()
        return {
            "replicas": len(self.replicas),
            "elections_held": election.elections_held if election else 0,
            "term": election.term if election else 0,
            "leader_id": leader.replica_id if leader else None,
            "fencing_rejections": fencing,
            "leases_reclaimed": sum(
                r.stats.pulls_reclaimed for r in self.replicas
            ),
            "tasks_reclaimed": sum(
                r.stats.tasks_reclaimed for r in self.replicas
            ),
            "reclaim_backlog": sum(
                len(r._reclaim_backlog) for r in self.replicas
            ),
            "step_downs": sum(r.core.step_downs for r in self.replicas),
        }
