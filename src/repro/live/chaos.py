"""Live chaos: seeded fault injection for the real-socket runtime.

The simulator's chaos fuzzer (PR 6) exercises every recovery path —
bounce backoff, resubmit watchdogs, re-register epochs, credit resync,
checkpoint failover — against a *modelled* network. This module points
the same :class:`~repro.faults.plan.FaultPlan` window grammar at the
actual dataplane:

* **wire faults** — :class:`ChaosTransport` wraps the asyncio datagram
  transports of :class:`~repro.live.softswitch.SoftSwitch`,
  :class:`~repro.live.executor.LiveExecutor` and
  :class:`~repro.live.client.LiveClient`, injecting loss, duplication,
  reorder/delay jitter, bit corruption and burst blackouts on the send
  side. Every datagram is *somebody's* send, so wrapping all three
  components covers both directions of every link: a fault window naming
  ``exec0`` matches packets exec0 sends (its own transport) *and*
  packets the switch sends to exec0's endpoint (the switch's transport,
  matched through the endpoint registry).
* **process faults** — :class:`LiveFaultInjector` schedules
  ``WorkerCrash`` (kill + restart on a *new socket*, exercising the
  epoch-bump / endpoint-move re-register path for real),
  ``WorkerSlowdown`` (scales the executor's ``time_scale``) and
  ``SwitchFailover`` (swaps in :meth:`SoftSwitch.standby_program`, with
  :class:`~repro.ctrl.checkpoint.CheckpointManager` replaying
  checkpoint + journal so queued tasks survive).
* **corruption is the FCS model** — mutated frames are pushed through
  ``codec.decode`` as a parser fuzz (only ``ProtocolError`` is an
  acceptable outcome) and then *always dropped*, exactly like the
  simulator's :class:`~repro.faults.links.LinkChaos`; a codec without
  checksums must never deliver a mutated frame that decodes to a
  plausible message.

All randomness comes from one named :class:`~repro.sim.rng.RngStreams`
stream, so a scenario's *decisions* (which packet dropped, which bits
flipped) replay deterministically from its seed; wall-clock interleaving
is the one thing that cannot (see DESIGN.md §9.4).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.policies import PriorityPolicy
from repro.ctrl.checkpoint import CheckpointManager
from repro.errors import ConfigurationError, LiveTimeoutError, ProtocolError
from repro.faults.events import (
    ControllerCrash,
    LinkFault,
    PacketCorruption,
    Partition,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
    event_end,
)
from repro.faults.plan import FaultPlan, sample_ctrl_faults
from repro.live.base import Counters, Endpoint
from repro.live.client import LiveClient, LiveClientConfig
from repro.live.ctrlplane import LiveControllerReplica, ctrl_name
from repro.live.executor import LiveExecutor, LiveExecutorConfig
from repro.live.loadgen import OpenLoopGen
from repro.live.results import LiveResult
from repro.live.runtime import LiveSpec, _collect, diagnostic_dump
from repro.live.softswitch import SoftSwitch
from repro.protocol import codec
from repro.sim.rng import RngStreams
from repro.verify.live_oracle import LiveInvariantOracle
from repro.verify.oracle import Violation

#: wire-fault windows the transport layer matches at send time
_WIRE_FAULTS = (LinkFault, PacketCorruption, Partition)


def exec_name(executor_id: int) -> str:
    """The fault-plan node name of one live executor."""
    return f"exec{executor_id}"


CLIENT_NAME = "client"
SWITCH_NAME = "switch"


# ---------------------------------------------------------------------------
# the fault-injecting datagram layer
# ---------------------------------------------------------------------------


class ChaosNet:
    """Shared state for every :class:`ChaosTransport` in one run.

    Holds the plan, the seeded RNG, the chaos clock origin (``arm()`` at
    workload start — fault windows are nanoseconds relative to it, the
    same convention the simulator's injector uses), and the endpoint →
    component-name registry that lets the switch's transport attribute an
    outgoing packet to the link it will travel.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        clock,
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.clock = clock
        self.counters = Counters()
        self.endpoints: Dict[Endpoint, str] = {}
        self.transports: List["ChaosTransport"] = []
        self._t0: Optional[int] = None
        self._wire: Dict[type, list] = {cls: [] for cls in _WIRE_FAULTS}
        for event in plan:
            if event.__class__ in self._wire:
                self._wire[event.__class__].append(event)
        self._last_end_ns = max(
            (event_end(e) for e in plan.events), default=0
        )

    def arm(self) -> None:
        """Start the chaos clock; fault windows count from here."""
        self._t0 = self.clock.now

    @property
    def armed(self) -> bool:
        return self._t0 is not None

    def elapsed_ns(self) -> int:
        if self._t0 is None:
            return -1
        return self.clock.now - self._t0

    def windows_closed(self) -> bool:
        """True once every fault window in the plan has ended."""
        return self.armed and self.elapsed_ns() >= self._last_end_ns

    def last_end_ns(self) -> int:
        return self._last_end_ns

    def register_endpoint(self, name: str, endpoint: Endpoint) -> None:
        self.endpoints[endpoint] = name

    def link_name(self, sender: str, addr) -> str:
        """Which link a packet travels: the remote end if known, else
        the sender's own cable (connected sockets pass ``addr=None``)."""
        if addr is None:
            return sender
        return self.endpoints.get((addr[0], addr[1]), sender)

    def active(self, cls: type, link: str) -> list:
        """Fault windows of ``cls`` currently open on ``link``."""
        now = self.elapsed_ns()
        if now < 0:
            return []
        out = []
        for event in self._wire[cls]:
            if not event.start_ns <= now < event.end_ns:
                continue
            nodes = event.nodes
            if nodes is None or link in nodes:
                out.append(event)
        return out

    def wrap(self, name: str) -> Callable:
        """A ``transport_wrap`` factory for one named component.

        Registers the transport's local endpoint under ``name`` (so the
        switch's sends toward it are attributed to the same link) and
        returns the wrapping :class:`ChaosTransport`.
        """

        def factory(transport) -> "ChaosTransport":
            sockname = transport.get_extra_info("sockname")
            if sockname:
                self.register_endpoint(name, (sockname[0], sockname[1]))
            wrapped = ChaosTransport(self, name, transport)
            self.transports.append(wrapped)
            return wrapped

        return factory

    def pending_delayed(self) -> int:
        """Reorder-delayed packets not yet released (quiescence check)."""
        return sum(len(t._delayed) for t in self.transports)


class ChaosTransport:
    """A fault-injecting façade over one ``asyncio.DatagramTransport``.

    Injection is send-side only — sufficient because every packet is
    someone's send — and per-packet decisions draw from the shared
    seeded RNG in plan order: blackout (Partition) first, then
    corruption, then loss/duplication/reorder.
    """

    def __init__(self, net: ChaosNet, name: str, inner) -> None:
        self.net = net
        self.name = name
        self.inner = inner
        self._delayed: Set[asyncio.TimerHandle] = set()
        self._closing = False

    # -- the injection point ----------------------------------------------

    def sendto(self, data: bytes, addr=None) -> None:
        net = self.net
        if not net.armed:
            self.inner.sendto(data, addr)
            return
        link = net.link_name(self.name, addr)
        if net.active(Partition, link):
            net.counters.incr("partition_drops")
            return
        for fault in net.active(PacketCorruption, link):
            if net.rng.random() < fault.corrupt_prob:
                self._corrupt(data, fault)
                return
        duplicate = False
        delay_ns = 0
        for fault in net.active(LinkFault, link):
            if fault.loss_prob and net.rng.random() < fault.loss_prob:
                net.counters.incr("loss_drops")
                return
            if (
                fault.duplicate_prob
                and net.rng.random() < fault.duplicate_prob
            ):
                duplicate = True
            if fault.reorder_prob and net.rng.random() < fault.reorder_prob:
                delay_ns = max(
                    delay_ns,
                    int(net.rng.uniform(0, fault.reorder_jitter_ns)),
                )
        if delay_ns > 0:
            net.counters.incr("reorder_delays")
            self._send_later(delay_ns / 1e9, data, addr)
            if duplicate:
                net.counters.incr("wire_duplicates")
                self._send_later(delay_ns / 1e9, data, addr)
            return
        self.inner.sendto(data, addr)
        if duplicate:
            net.counters.incr("wire_duplicates")
            self.inner.sendto(data, addr)

    def _corrupt(self, data: bytes, fault: PacketCorruption) -> None:
        """Mutate, fuzz the parser with the result, drop the frame.

        Matches the simulator's FCS model bit for bit in spirit: the
        decode attempt is a free protocol-parser fuzz (anything but
        ``ProtocolError`` out of the codec is a bug the oracle flags),
        and the frame never reaches the peer — a real NIC discards a
        frame whose checksum fails.
        """
        net = self.net
        rng = net.rng
        blob = bytearray(data)
        if len(blob) > 1 and rng.random() < fault.truncate_prob:
            blob = blob[: int(rng.integers(1, len(blob)))]
        else:
            for _ in range(int(rng.integers(1, fault.max_bit_flips + 1))):
                pos = int(rng.integers(0, len(blob)))
                blob[pos] ^= 1 << int(rng.integers(0, 8))
        try:
            codec.decode(bytes(blob))
        except ProtocolError:
            pass
        except Exception:
            net.counters.incr("parser_crashes")
        net.counters.incr("corrupt_drops")

    def _send_later(self, delay_s: float, data: bytes, addr) -> None:
        if self._closing:
            return
        loop = asyncio.get_running_loop()
        handle: Optional[asyncio.TimerHandle] = None

        def fire() -> None:
            if handle is not None:
                self._delayed.discard(handle)
            if not self._closing and not self.inner.is_closing():
                self.inner.sendto(data, addr)

        handle = loop.call_later(delay_s, fire)
        self._delayed.add(handle)

    # -- transport façade --------------------------------------------------

    def close(self) -> None:
        self._closing = True
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        self.inner.close()

    def is_closing(self) -> bool:
        return self._closing or self.inner.is_closing()

    def abort(self) -> None:
        self._closing = True
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        self.inner.abort()

    def get_extra_info(self, name: str, default=None):
        return self.inner.get_extra_info(name, default)


# ---------------------------------------------------------------------------
# process-level faults
# ---------------------------------------------------------------------------


class _WallSim:
    """Duck-types the simulator surface ``CheckpointManager`` drives.

    The manager reads ``sim.now``, yields ``sim.timeout(ns)`` from its
    checkpoint loop, and hands that generator to ``sim.spawn``. Here
    ``timeout`` returns the delay itself and the spawned driver awaits
    it on the asyncio clock — the manager's code runs unmodified against
    wall time.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self._tasks: List[asyncio.Task] = []

    @property
    def now(self) -> int:
        return self.clock.now

    def timeout(self, delay_ns: int) -> int:
        return delay_ns

    def spawn(self, gen, name: Optional[str] = None) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(
            self._drive(gen), name=name
        )
        self._tasks.append(task)
        return task

    async def _drive(self, gen) -> None:
        for delay_ns in gen:
            await asyncio.sleep(delay_ns / 1e9)

    async def aclose(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()


class LiveFaultInjector:
    """Schedules process-level faults from a plan onto the event loop.

    Wire faults (loss, corruption, blackouts) are matched per packet by
    :class:`ChaosNet`; this injector owns the faults that need a hand on
    a component: executor kill/restart, slowdown windows, and switch
    failover. ``arm()`` converts every event's plan-relative time into a
    ``call_later`` against the armed chaos clock.
    """

    def __init__(
        self,
        plan: FaultPlan,
        switch: SoftSwitch,
        executors: Dict[int, LiveExecutor],
        make_executor: Callable[[int], LiveExecutor],
        base_time_scale: float = 1.0,
        controllers: Optional[Dict[int, LiveControllerReplica]] = None,
        make_controller: Optional[
            Callable[[int], LiveControllerReplica]
        ] = None,
    ) -> None:
        self.plan = plan
        self.switch = switch
        self.executors = executors
        self.make_executor = make_executor
        self.base_time_scale = base_time_scale
        self.controllers = controllers if controllers is not None else {}
        self.make_controller = make_controller
        self.counters = Counters()
        #: killed incarnations, kept for counter/histogram aggregation
        self.retired: List[LiveExecutor] = []
        self.ctrl_retired: List[LiveControllerReplica] = []
        self._timers: Set[asyncio.TimerHandle] = set()
        self._tasks: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def arm(self) -> None:
        self._loop = asyncio.get_running_loop()
        for event in self.plan:
            cls = event.__class__
            if cls is WorkerCrash:
                self._at(event.at_ns, self._crash, event)
                if event.restart_after_ns is not None:
                    self._at(
                        event.at_ns + event.restart_after_ns,
                        self._restart,
                        event.node_id,
                    )
            elif cls is WorkerSlowdown:
                self._at(event.start_ns, self._slow, event)
                self._at(event.end_ns, self._restore_speed, event.node_id)
            elif cls is SwitchFailover:
                self._at(event.at_ns, self._failover)
            elif cls is ControllerCrash:
                if self.controllers:
                    self._at(event.at_ns, self._ctrl_crash, event)
                    if event.restart_after_ns is not None:
                        self._at(
                            event.at_ns + event.restart_after_ns,
                            self._ctrl_restart,
                            event.replica_id,
                        )
                else:
                    self.counters.incr("unsupported_events")
            elif cls in _WIRE_FAULTS:
                pass  # window-matched per packet by ChaosNet
            else:
                # e.g. RecircExhaustion: the soft switch recirculates
                # inline, there is no backlog queue to shrink. Counted so
                # a plan that expected it to bite is visibly a no-op.
                self.counters.incr("unsupported_events")

    def _at(self, at_ns: int, fn, *args) -> None:
        assert self._loop is not None
        handle: Optional[asyncio.TimerHandle] = None

        def fire() -> None:
            if handle is not None:
                self._timers.discard(handle)
            fn(*args)

        handle = self._loop.call_later(at_ns / 1e9, fire)
        self._timers.add(handle)

    def _crash(self, event: WorkerCrash) -> None:
        executor = self.executors.get(event.node_id)
        if executor is None or executor.closed:
            self.counters.incr("crash_skipped")
            return
        self.counters.incr("crashes")
        self.retired.append(executor)
        executor.kill()

    def _restart(self, node_id: int) -> None:
        self.counters.incr("restarts")
        # A fresh socket: the OS hands out a new ephemeral port, so the
        # re-register is also an endpoint move — the switch must bump the
        # epoch and re-home the record, or completions go to a dead port.
        executor = self.make_executor(node_id)
        self.executors[node_id] = executor
        assert self._loop is not None
        self._tasks.append(self._loop.create_task(executor.start()))

    def _slow(self, event: WorkerSlowdown) -> None:
        executor = self.executors.get(event.node_id)
        if executor is not None and not executor.closed:
            self.counters.incr("slowdowns")
            executor.config.time_scale = self.base_time_scale * event.factor

    def _restore_speed(self, node_id: int) -> None:
        # Absolute restore (not division): idempotent across overlapping
        # windows and across a crash/restart that replaced the incarnation
        # mid-window with a base-speed config.
        executor = self.executors.get(node_id)
        if executor is not None:
            executor.config.time_scale = self.base_time_scale

    def _failover(self) -> None:
        self.counters.incr("failovers")
        self.switch.install_program(self.switch.standby_program())

    def _ctrl_crash(self, event: ControllerCrash) -> None:
        replica = self.controllers.get(event.replica_id)
        if replica is None or replica.closed:
            self.counters.incr("ctrl_crash_skipped")
            return
        self.counters.incr("ctrl_crashes")
        self.ctrl_retired.append(replica)
        replica.kill()

    def _ctrl_restart(self, replica_id: int) -> None:
        if self.make_controller is None:
            return
        self.counters.incr("ctrl_restarts")
        # Fresh socket, fresh incarnation: the replica rejoins as a
        # follower at term 0 and relearns the current term from acks and
        # peer sync — it must never be granted a stale term again (the
        # register only moves forward).
        replica = self.make_controller(replica_id)
        self.controllers[replica_id] = replica
        assert self._loop is not None
        self._tasks.append(self._loop.create_task(replica.start()))

    def idle(self) -> bool:
        """No fault is still scheduled or mid-restart (quiescence)."""
        return not self._timers and all(t.done() for t in self._tasks)

    async def aclose(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        for task in self._tasks:
            if not task.done():
                task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def sample_live_plan(
    rng: np.random.Generator,
    horizon_ns: int,
    executor_ids: Sequence[int],
    max_events: int = 5,
) -> FaultPlan:
    """The live chaos grammar: every fault the dataplane can express.

    A trimmed :meth:`FaultPlan.fuzzed`: same recoverability guardrails
    (windows close inside the middle 60% of the horizon; permanent
    crashes are budgeted so at least one executor always survives), node
    names follow the live convention (``exec{i}``, plus ``client`` as a
    wire-fault target), and ``RecircExhaustion`` is excluded — the soft
    switch recirculates inline and has no backlog queue to shrink.
    """
    if not executor_ids:
        raise ConfigurationError("live plan needs executor ids")
    if max_events < 1:
        raise ConfigurationError(f"max_events must be >= 1: {max_events}")
    nodes = list(executor_ids)
    exec_names = [exec_name(n) for n in nodes]
    wire_names = exec_names + [CLIENT_NAME]
    lo, hi = int(horizon_ns * 0.2), int(horizon_ns * 0.8)

    def when() -> int:
        return int(rng.integers(lo, hi))

    def window(max_frac: float = 0.2) -> Tuple[int, int]:
        start = when()
        length = int(
            rng.integers(max(1, horizon_ns * 0.02), horizon_ns * max_frac)
        )
        return start, min(start + length, hi)

    def maybe_target():
        return (
            None if rng.random() < 0.5 else (str(rng.choice(wire_names)),)
        )

    state = {"permanent_budget": len(nodes) - 1}
    permanently_dead: set = set()

    def crash_burst() -> List[object]:
        node = int(rng.choice(nodes))
        cycles = int(rng.integers(1, 3))
        out: List[object] = []
        at = when()
        for _ in range(cycles):
            if at >= hi:
                break
            permanent = (
                rng.random() < 0.2
                and state["permanent_budget"] > 0
                and node not in permanently_dead
            )
            if permanent:
                out.append(
                    WorkerCrash(at_ns=at, node_id=node, restart_after_ns=None)
                )
                state["permanent_budget"] -= 1
                permanently_dead.add(node)
                break
            restart = int(rng.integers(horizon_ns * 0.05, horizon_ns * 0.2))
            out.append(
                WorkerCrash(at_ns=at, node_id=node, restart_after_ns=restart)
            )
            at = at + restart + int(
                rng.integers(horizon_ns * 0.02, horizon_ns * 0.08)
            )
        return out

    def link_fault() -> List[object]:
        start, end = window()
        return [
            LinkFault(
                start_ns=start,
                end_ns=end,
                nodes=maybe_target(),
                loss_prob=float(rng.uniform(0.0, 0.2)),
                duplicate_prob=float(rng.uniform(0.0, 0.08)),
                reorder_prob=float(rng.uniform(0.0, 0.15)),
                reorder_jitter_ns=int(rng.integers(100_000, 5_000_000)),
            )
        ]

    def corruption() -> List[object]:
        start, end = window()
        return [
            PacketCorruption(
                start_ns=start,
                end_ns=end,
                nodes=maybe_target(),
                corrupt_prob=float(rng.uniform(0.01, 0.25)),
                truncate_prob=float(rng.uniform(0.0, 0.6)),
                max_bit_flips=int(rng.integers(1, 6)),
            )
        ]

    def partition() -> List[object]:
        start, end = window(max_frac=0.15)
        return [
            Partition(
                start_ns=start,
                end_ns=end,
                nodes=(str(rng.choice(wire_names)),),
            )
        ]

    def slowdown() -> List[object]:
        start, end = window()
        return [
            WorkerSlowdown(
                start_ns=start,
                end_ns=end,
                node_id=int(rng.choice(nodes)),
                factor=float(rng.uniform(1.5, 6.0)),
            )
        ]

    def failover_burst() -> List[object]:
        return [
            SwitchFailover(at_ns=when())
            for _ in range(int(rng.integers(1, 3)))
        ]

    productions = (
        link_fault,
        corruption,
        partition,
        crash_burst,
        slowdown,
        failover_burst,
    )
    weights = np.array([0.22, 0.18, 0.15, 0.20, 0.12, 0.13])
    weights = weights / weights.sum()
    target = int(rng.integers(1, max_events + 1))
    events: List[object] = []
    while len(events) < target:
        idx = int(rng.choice(len(productions), p=weights))
        events.extend(productions[idx]())
    return FaultPlan(events[:max_events])


@dataclass
class ChaosScenario:
    """One seed-deterministic live chaos run, fully pinned.

    Live durations are short (hundreds of milliseconds of workload, a
    generous drain) because wall-clock seconds are CI seconds; the retry
    budget and resubmit timeout are deliberately generous so a plan from
    the recoverable grammar *can* always converge — an oracle violation
    then means a bug, not an impossible scenario.
    """

    seed: int
    executors: int = 3
    policy: str = "fcfs"  # "fcfs" | "priority"
    rate_tps: float = 400.0
    duration_s: float = 0.3
    drain_s: float = 6.0
    tasks_per_job: int = 2
    mean_us: float = 100.0
    max_outstanding: int = 2
    resubmit_timeout_s: float = 0.25
    max_retries: int = 24
    checkpoint_interval_s: float = 0.05
    max_events: int = 5
    #: 0 = no live control plane (the pre-replication default); >= 2
    #: runs that many LiveControllerReplica endpoints electing through
    #: the soft switch, and the plan may contain ControllerCrash events
    controller_replicas: int = 0
    plan_json: str = ""

    def plan(self) -> FaultPlan:
        return FaultPlan.from_json(self.plan_json)

    def spec(self) -> LiveSpec:
        """The workload half, as the live runtime describes workloads."""
        return LiveSpec(
            executors=self.executors,
            policy=self.policy,
            seed=self.seed,
            rate_tps=self.rate_tps,
            duration_s=self.duration_s,
            tasks_per_job=self.tasks_per_job,
            dist="exponential",
            mean_us=self.mean_us,
            max_outstanding=self.max_outstanding,
            drain_s=self.drain_s,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ChaosScenario":
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"ChaosScenario: unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


def sample_scenario(
    seed: int,
    max_events: int = 5,
    duration_s: float = 0.3,
    controller_replicas: Optional[int] = None,
) -> ChaosScenario:
    """Sample one scenario; the seed fully determines workload and plan.

    ``controller_replicas=None`` samples the toggle (half the runs get a
    3-replica live control plane); an explicit value pins it, which is
    what the CI matrix uses. Replication decisions draw from their own
    RNG streams so pre-replication seeds still produce byte-identical
    scenarios when the toggle is pinned to 0.
    """
    rngs = RngStreams(seed)
    rng = rngs.stream("live-fuzz")
    scenario = ChaosScenario(
        seed=seed,
        policy="priority" if rng.random() < 0.3 else "fcfs",
        rate_tps=float(rng.choice([200.0, 400.0, 800.0])),
        duration_s=duration_s,
        max_events=max_events,
    )
    if controller_replicas is None:
        rep_rng = rngs.stream("live-fuzz-ctrl")
        controller_replicas = 3 if rep_rng.random() < 0.5 else 0
    scenario.controller_replicas = int(controller_replicas)
    horizon_ns = int(scenario.duration_s * 1e9)
    plan = sample_live_plan(
        rng,
        horizon_ns=horizon_ns,
        executor_ids=list(range(scenario.executors)),
        max_events=max_events,
    )
    events = list(plan.events)
    if scenario.controller_replicas >= 2:
        events.extend(
            sample_ctrl_faults(
                rngs.stream("live-fuzz-ctrl-plan"),
                horizon_ns,
                replica_ids=list(range(scenario.controller_replicas)),
                ctrl_names=[
                    ctrl_name(i)
                    for i in range(scenario.controller_replicas)
                ],
                max_events=2,
            )
        )
        plan = FaultPlan(events)
    scenario.plan_json = plan.to_json()
    return scenario


# ---------------------------------------------------------------------------
# running one scenario
# ---------------------------------------------------------------------------


@dataclass
class ChaosRunResult:
    """One live chaos run: scenario, verdict, evidence."""

    scenario: ChaosScenario
    ok: bool
    violations: List[Violation]
    checks: int
    result: LiveResult
    #: merged ChaosNet + injector counters: what actually fired
    injected: Dict[str, int] = field(default_factory=dict)
    #: re-registrations beyond each executor's first (epoch bumps seen)
    reregistrations: int = 0
    epoch_history: Dict[int, List[int]] = field(default_factory=dict)
    #: per-replica LiveControllerReplica.stats() + the switch's election
    #: register audit, when the scenario ran a live control plane
    ctrl: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0

    def kinds(self) -> Tuple[str, ...]:
        return self.scenario.plan().kinds()

    def row(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        kinds = ",".join(k.replace("Worker", "").replace("Packet", "")
                         for k in self.kinds()) or "none"
        r = self.result
        ctrl = ""
        if self.ctrl:
            election = self.ctrl.get("election", {})
            ctrl = (
                f" ctrl[n={self.scenario.controller_replicas}"
                f" term={election.get('term', 0)}"
                f" elections={election.get('elections_held', 0)}]"
            )
        return (
            f"seed={self.scenario.seed:<6d} {verdict:<4s} "
            f"faults=[{kinds}] tasks={r.tasks_completed}/{r.tasks_submitted}"
            f" lost={r.tasks_lost} dup={r.duplicates}"
            f" resubmit={r.resubmits} rereg={self.reregistrations}"
            f"{ctrl} wall={self.wall_s:.1f}s"
        )


async def run_live_chaos_async(
    scenario: ChaosScenario, timeout_s: Optional[float] = None
) -> ChaosRunResult:
    """Run one chaos scenario end to end in this event loop."""
    spec = scenario.spec()
    spec.validate()
    plan = scenario.plan()
    rngs = RngStreams(scenario.seed)
    policy = (
        PriorityPolicy(spec.priority_levels)
        if scenario.policy == "priority"
        else None
    )

    switch = SoftSwitch(
        policy=policy, queue_capacity=spec.queue_capacity
    )
    chaos = ChaosNet(plan, rng=rngs.stream("live-chaos"), clock=switch.sim)
    switch.transport_wrap = chaos.wrap(SWITCH_NAME)
    await switch.start()
    wallsim = _WallSim(switch.sim)
    checkpoints = CheckpointManager(
        wallsim,  # type: ignore[arg-type]
        switch,
        interval_ns=int(scenario.checkpoint_interval_s * 1e9),
    )

    def make_executor(executor_id: int) -> LiveExecutor:
        return LiveExecutor(
            executor_id=executor_id,
            switch=switch.endpoint,
            config=LiveExecutorConfig(
                max_outstanding=scenario.max_outstanding
            ),
            node_id=executor_id,
            transport_wrap=chaos.wrap(exec_name(executor_id)),
        )

    executors: Dict[int, LiveExecutor] = {
        i: make_executor(i) for i in range(scenario.executors)
    }

    controllers: Dict[int, LiveControllerReplica] = {}

    def make_controller(replica_id: int) -> LiveControllerReplica:
        replica = LiveControllerReplica(
            replica_id=replica_id,
            switch=switch.endpoint,
            clock=switch.sim,
            transport_wrap=chaos.wrap(ctrl_name(replica_id)),
        )
        replica.peer_resolver = lambda: [
            r.endpoint for r in controllers.values() if not r.closed
        ]
        return replica

    if scenario.controller_replicas >= 2:
        for i in range(scenario.controller_replicas):
            controllers[i] = make_controller(i)

    client = LiveClient(
        uid=0,
        config=LiveClientConfig(
            resubmit_timeout_s=scenario.resubmit_timeout_s,
            max_retries=scenario.max_retries,
        ),
        clock=switch.sim,
        rng=rngs.stream("live-client"),
        transport_wrap=chaos.wrap(CLIENT_NAME),
    )
    injector = LiveFaultInjector(
        plan,
        switch,
        executors,
        make_executor,
        controllers=controllers,
        make_controller=make_controller,
    )
    oracle = LiveInvariantOracle(
        switch=switch,
        client=client,
        executors=executors,
        retired=injector.retired,
        chaos=chaos,
        injector=injector,
        controllers=controllers,
    )

    async def drive() -> ChaosRunResult:
        for executor in executors.values():
            await executor.start()
        await asyncio.gather(
            *(e.wait_registered(5.0) for e in executors.values())
        )
        for replica in controllers.values():
            await replica.start()
        await client.start(switch.endpoint)
        oracle.attach()

        start_ns = switch.sim.now
        chaos.arm()
        injector.arm()
        gen = OpenLoopGen(client, spec.events(rngs), clock=switch.sim)
        await gen.run()

        await client.drain(scenario.drain_s)
        # Every fault window must close before the final sweep — a
        # partition still open at check time is not a violation, it is
        # the scenario.
        while not chaos.windows_closed():
            await asyncio.sleep(0.01)
        # A leader killed near the end of the horizon needs up to one
        # lease + one poll before a successor is granted the next term;
        # give the election that long before the oracle demands a leader.
        if controllers:
            ctrl_deadline = switch.sim.now + int(1.0 * 1e9)
            while switch.sim.now < ctrl_deadline:
                alive = [r for r in controllers.values() if not r.closed]
                if not alive or any(r.is_leader() for r in alive):
                    break
                await asyncio.sleep(0.01)
        # Settle: late completions, reorder-delayed stragglers, the last
        # queued tasks behind a slow executor.
        deadline = switch.sim.now + int(2.0 * 1e9)
        while switch.sim.now < deadline:
            if (
                client.pending_count == 0
                and switch.total_queued() == 0
                and chaos.pending_delayed() == 0
                and injector.idle()
            ):
                break
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.05)

        wall_ns = switch.sim.now - start_ns
        report = oracle.check_final()
        all_executors = list(injector.retired) + list(executors.values())
        live_result = _collect(
            spec, switch, all_executors, client, wall_ns, gen.max_lag_ns
        )
        injected = Counters()
        for name, value in chaos.counters.items():
            injected.incr(name, value)
        for name, value in injector.counters.items():
            injected.incr(name, value)
        rereg = sum(
            len(history) - 1
            for history in switch.epoch_history.values()
            if len(history) > 1
        )
        ctrl_stats: Dict[str, Any] = {}
        if controllers:
            live_replicas = list(controllers.values())
            ctrl_stats = {
                "election": switch.election.audit(),
                "replicas": [r.stats() for r in live_replicas],
                "retired": [
                    r.stats()
                    for r in injector.ctrl_retired
                    if r not in live_replicas
                ],
            }
        return ChaosRunResult(
            scenario=scenario,
            ok=report.ok,
            violations=list(report.violations),
            checks=report.checks,
            result=live_result,
            injected=dict(injected),
            reregistrations=rereg,
            epoch_history={
                k: list(v) for k, v in switch.epoch_history.items()
            },
            ctrl=ctrl_stats,
            wall_s=wall_ns / 1e9,
        )

    try:
        if timeout_s is None:
            return await drive()
        try:
            return await asyncio.wait_for(drive(), timeout_s)
        except asyncio.TimeoutError:
            raise LiveTimeoutError(
                f"live chaos run (seed {scenario.seed}) exceeded the "
                f"{timeout_s}s hard cap\n"
                + f"plan: {plan.describe()}\n"
                + f"injected: {dict(chaos.counters)} "
                + f"{dict(injector.counters)}\n"
                + diagnostic_dump(
                    switch,
                    list(injector.retired) + list(executors.values()),
                    client,
                )
            ) from None
    finally:
        await oracle.aclose()
        await injector.aclose()
        await wallsim.aclose()
        await client.aclose()
        for replica in list(injector.ctrl_retired) + list(
            controllers.values()
        ):
            await replica.aclose()
        for executor in list(injector.retired) + list(executors.values()):
            await executor.aclose()
        switch.close()
        await asyncio.sleep(0)


def run_live_chaos(
    scenario: ChaosScenario, timeout_s: Optional[float] = None
) -> ChaosRunResult:
    """Synchronous wrapper: one fresh event loop per scenario."""
    return asyncio.run(run_live_chaos_async(scenario, timeout_s=timeout_s))
