"""Lease-based executor membership for the in-network scheduler.

The paper's switch never learns that an executor died: a crashed node
simply stops pulling, its parked GetTask (if any) rots until the TTL GC
sweeps it, and any task it was running waits out the *client's* full
timeout window before resubmission. The :class:`Controller` is the
control-plane process (the switch's local CPU, or an adjacent server)
that closes this gap the way production schedulers do (cf. Dask's
heartbeat-driven worker membership):

* executors send periodic :class:`~repro.protocol.messages.Heartbeat`
  datagrams; each one grants or renews a **lease** of ``lease_ns``;
* a sweep loop expires stale leases. Expiry *proactively* reclaims the
  dead executor's state: its parked pull is cancelled in the switch
  program (``expire_parked_for``) and every task the controller saw
  assigned to it is re-injected into the scheduler queue
  (``reinject``) — recovery in one lease window instead of one client
  timeout window;
* the controller mirrors assignments/completions via control-plane
  callbacks from the switch program (``note_assign``/``note_complete``),
  the model of the switch CPU tailing mirrored scheduler traffic — no
  data-plane register budget is spent.

A false-positive expiry (slow or partitioned executor that is actually
alive) can double-execute a task; that is the documented trade-off, and
the metrics collector suppresses and counts duplicate completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.protocol.messages import Heartbeat
from repro.sim.core import Interrupted, Simulator, us

#: well-known controller service port (clients 6000, executors 7000+,
#: scheduler dataplane 9000)
CTRL_PORT = 6500

DEFAULT_LEASE_NS = us(500)
DEFAULT_SWEEP_NS = us(100)

TaskKey = Tuple[int, int, int]


@dataclass
class Lease:
    executor_id: int
    node_id: int
    granted_at_ns: int
    expires_at_ns: int
    renewals: int = 0


@dataclass
class ControllerStats:
    heartbeats_received: int = 0
    leases_granted: int = 0
    leases_renewed: int = 0
    leases_expired: int = 0
    pulls_reclaimed: int = 0
    tasks_reclaimed: int = 0
    reclaims_deferred: int = 0


class Controller:
    """Heartbeat lease tracker + proactive reclaim for dead executors.

    Unreplicated, it is a controller group of one: it holds term 1,
    which the switch's election register grants locally when the
    controller binds a program, and stamps it into every switch
    mutation like any replicated leader.
    """

    #: fencing token stamped into ``expire_parked_for`` / ``reinject``
    term = 1
    replica_id = 0

    def __init__(
        self,
        sim: Simulator,
        topology: Any,
        name: str = "ctrl0",
        lease_ns: int = DEFAULT_LEASE_NS,
        sweep_ns: int = DEFAULT_SWEEP_NS,
        program: Any = None,
        switch: Any = None,
        obs: Any = None,
    ) -> None:
        if lease_ns <= 0:
            raise ConfigurationError(f"lease_ns must be positive: {lease_ns}")
        if sweep_ns <= 0:
            raise ConfigurationError(f"sweep_ns must be positive: {sweep_ns}")
        self.sim = sim
        self.lease_ns = lease_ns
        self.sweep_ns = sweep_ns
        self.program = program
        self.obs = obs
        self.stats = ControllerStats()
        self.host = topology.add_host(name)
        self.socket = self.host.socket(CTRL_PORT)
        self.address = self.socket.address
        self._leases: Dict[int, Lease] = {}
        #: assignment mirror: task key -> (executor_id, queue entry)
        self._inflight: Dict[TaskKey, Tuple[int, Any]] = {}
        #: entries whose reinjection bounced (queue full / repair pending);
        #: retried every sweep so a reclaim is deferred, never dropped
        self._reclaim_backlog: List[Any] = []
        self.name = name
        self.crashed = False
        if program is not None:
            self.bind_program(program)
        if switch is not None:
            # Survive failovers: rebind the mirror to each standby program.
            switch.add_install_hook(self._on_install)
        self._recv_process = sim.spawn(self._recv_loop(), name=f"{name}-recv")
        self._sweep_process = sim.spawn(
            self._sweep_loop(), name=f"{name}-sweep"
        )

    # -- fail-stop ----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop the controller process. Idempotent.

        All in-memory state — leases, the assignment mirror, the reclaim
        backlog — is lost, exactly like a real control-plane process
        dying. Heartbeats keep arriving but nobody reads them.
        """
        if self.crashed:
            return
        self.crashed = True
        self.socket.drain()
        if not self._recv_process.triggered:
            self._recv_process.interrupt("controller crash")
        if not self._sweep_process.triggered:
            self._sweep_process.interrupt("controller crash")
        self._leases.clear()
        self._inflight.clear()
        self._reclaim_backlog.clear()

    def restart(self) -> None:
        """Boot a fresh controller after a crash. Idempotent.

        The new incarnation starts with an empty lease table and no
        assignment mirror; live executors re-earn leases within one
        heartbeat interval. After one full lease window of grace a
        reconcile pass expires parked pulls belonging to executors that
        never came back — the best a memory-less restart can do (the
        in-flight assignments of the old incarnation are unrecoverable
        without replication; that is the availability gap
        ``repro.ctrl.replication`` exists to close).
        """
        if not self.crashed:
            return
        self.crashed = False
        self.socket.drain()
        self._recv_process = self.sim.spawn(
            self._recv_loop(), name=f"{self.name}-recv"
        )
        self._sweep_process = self.sim.spawn(
            self._sweep_loop(), name=f"{self.name}-sweep"
        )
        self.sim.call_at(
            self.sim.now + self.lease_ns + self.sweep_ns,
            self._post_restart_reconcile,
        )

    def _post_restart_reconcile(self) -> None:
        if self.crashed:
            return
        program = self.program
        if program is None or not hasattr(program, "parked_executor_ids"):
            return
        dead = program.parked_executor_ids() - self.live_executors()
        if dead:
            reclaimed = self._expire_parked(dead)
            self.stats.pulls_reclaimed += reclaimed
            if self.obs is not None and reclaimed:
                self.obs.incr("ctrl.pulls_reclaimed", reclaimed)

    # -- program binding ---------------------------------------------------

    def bind_program(self, program: Any) -> None:
        self.program = program
        program.ctrl = self
        election = getattr(program.switch, "election", None)
        if election is not None:
            election.grant_local(self.replica_id, self.sim.now)

    def is_leader(self) -> bool:
        """A group of one leads for as long as it is up."""
        return not self.crashed

    @property
    def replicas(self) -> List["Controller"]:
        """The group-of-one view the fault injector and oracle index."""
        return [self]

    def _on_install(self, new_program: Any, old_program: Any) -> None:
        self.bind_program(new_program)

    # -- mirror hooks (called by the switch program, control-plane) --------

    def note_assign(self, key: TaskKey, entry: Any, executor_id: int) -> None:
        self._inflight[key] = (executor_id, entry)

    def note_complete(self, key: TaskKey) -> None:
        self._inflight.pop(key, None)

    def inflight_count(self) -> int:
        return len(self._inflight)

    # -- membership --------------------------------------------------------

    def live_executors(self) -> Set[int]:
        return set(self._leases)

    def lease_for(self, executor_id: int) -> Optional[Lease]:
        return self._leases.get(executor_id)

    def _on_heartbeat(self, beat: Heartbeat) -> None:
        self.stats.heartbeats_received += 1
        now = self.sim.now
        lease = self._leases.get(beat.executor_id)
        if lease is None:
            self._leases[beat.executor_id] = Lease(
                executor_id=beat.executor_id,
                node_id=beat.node_id,
                granted_at_ns=now,
                expires_at_ns=now + self.lease_ns,
            )
            self.stats.leases_granted += 1
            if self.obs is not None:
                self.obs.incr("ctrl.leases_granted")
                self.obs.emit(
                    now,
                    "ctrl",
                    opcode="lease_grant",
                    detail=f"executor={beat.executor_id}",
                )
        else:
            lease.expires_at_ns = now + self.lease_ns
            lease.renewals += 1
            self.stats.leases_renewed += 1

    def _recv_loop(self):
        try:
            while True:
                packet = yield self.socket.recv()
                self._on_packet(packet)
        except Interrupted:
            return  # crash: datagrams rot in the socket until restart

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        if isinstance(payload, Heartbeat):
            self._on_heartbeat(payload)
        # anything else is stray traffic; a real controller would log it

    # -- lease expiry + reclaim ---------------------------------------------

    def _sweep_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.sweep_ns)
                self._sweep()
        except Interrupted:
            return

    def _sweep(self) -> None:
        now = self.sim.now
        # Strict comparison: a lease is live *through* its expiry instant,
        # so a heartbeat landing exactly at expires_at_ns renews it rather
        # than racing the sweep. audit() uses the same convention.
        expired = [
            eid
            for eid, lease in self._leases.items()
            if lease.expires_at_ns < now
        ]
        for eid in expired:
            del self._leases[eid]
            self.stats.leases_expired += 1
            if self.obs is not None:
                self.obs.incr("ctrl.leases_expired")
                self.obs.emit(
                    now, "ctrl", opcode="lease_expire", detail=f"executor={eid}"
                )
        if expired:
            self._reclaim(set(expired))
        self._drain_backlog()

    def _expire_parked(self, executor_ids: Set[int]) -> int:
        if self.program is None:
            return 0
        return self.program.expire_parked_for(executor_ids, term=self.term)

    def _reclaim(self, executor_ids: Set[int]) -> None:
        """Pull a dead executor's parked pull and in-flight tasks back."""
        if self.program is not None:
            reclaimed_pulls = self._expire_parked(executor_ids)
            self.stats.pulls_reclaimed += reclaimed_pulls
            if self.obs is not None and reclaimed_pulls:
                self.obs.incr("ctrl.pulls_reclaimed", reclaimed_pulls)
        orphaned = [
            key
            for key, (eid, _entry) in self._inflight.items()
            if eid in executor_ids
        ]
        for key in orphaned:
            _eid, entry = self._inflight.pop(key)
            self._reinject(entry)

    def _reinject(self, entry: Any) -> None:
        program = self.program
        if program is not None:
            if program.reinject(entry, term=self.term):
                self.stats.tasks_reclaimed += 1
                if self.obs is not None:
                    self.obs.incr("ctrl.tasks_reclaimed")
                return
        self._reclaim_backlog.append(entry)
        self.stats.reclaims_deferred += 1
        if self.obs is not None:
            self.obs.gauge("ctrl.reclaim_backlog", len(self._reclaim_backlog))

    def _drain_backlog(self) -> None:
        if not self._reclaim_backlog:
            return
        pending, self._reclaim_backlog = self._reclaim_backlog, []
        for entry in pending:
            self._reinject(entry)
        if self.obs is not None:
            self.obs.gauge("ctrl.reclaim_backlog", len(self._reclaim_backlog))

    # -- verify-oracle inspection -------------------------------------------

    def audit(self) -> Dict[str, Any]:
        """Control-plane state the verify oracle's lease-safety checks read.

        ``stale_leases`` are leases that expired more than one sweep ago
        but were never collected — the sweep loop has a one-period
        detection lag, anything older means the sweep is broken.
        """
        now = self.sim.now
        return {
            "leases": dict(self._leases),
            "stale_leases": [
                lease
                for lease in self._leases.values()
                if lease.expires_at_ns < now - self.sweep_ns
            ],
            "inflight": len(self._inflight),
            "reclaim_backlog": len(self._reclaim_backlog),
        }
