"""Bind a :class:`FaultPlan` to a live cluster and fire it on the clock.

The injector is the only piece of the fault subsystem that touches live
objects. It translates each plan event into hook manipulations:

* :class:`LinkFault` / :class:`Partition` → :class:`Degradation`\\ s
  added to (and later removed from) each affected link's
  :class:`~repro.faults.links.LinkChaos` hook;
* :class:`WorkerCrash` / :class:`WorkerSlowdown` → ``Worker.crash()`` /
  ``restart()`` / ``set_speed_factor()``;
* :class:`SwitchFailover` → ``ProgrammableSwitch.install_program()`` with
  a fresh program from ``program_factory`` (the standby switch);
* :class:`RecircExhaustion` → ``set_recirc_limit()`` with restoration.

Everything is scheduled up front by :meth:`FaultInjector.arm`, before
``sim.run`` — the injector never acts mid-callback of another actor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.events import (
    ControllerCrash,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
)
from repro.faults.links import Degradation, chaos_for
from repro.faults.plan import FaultPlan
from repro.net.link import Link
from repro.net.topology import StarTopology
from repro.sim.core import Simulator


@dataclass
class FaultInjectorStats:
    """How many faults of each family actually fired."""

    worker_crashes: int = 0
    worker_restarts: int = 0
    controller_crashes: int = 0
    controller_restarts: int = 0
    slowdowns: int = 0
    partitions: int = 0
    link_faults: int = 0
    corruptions: int = 0
    failovers: int = 0
    recirc_exhaustions: int = 0
    #: sim time of the most recent switch failover (-1 if none fired);
    #: recovery experiments use it to window pre/post-failover metrics
    last_failover_ns: int = -1

    def total(self) -> int:
        return (
            self.worker_crashes
            + self.worker_restarts
            + self.controller_crashes
            + self.controller_restarts
            + self.slowdowns
            + self.partitions
            + self.link_faults
            + self.corruptions
            + self.failovers
            + self.recirc_exhaustions
        )


class FaultInjector:
    """Applies a plan's events to a cluster via the injection hooks."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        topology: StarTopology,
        workers: Iterable = (),
        switch=None,
        program_factory: Optional[Callable[[], object]] = None,
        rng: Optional[np.random.Generator] = None,
        controllers=None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.topology = topology
        self.switch = switch if switch is not None else topology.switch
        self.workers: Dict[int, object] = {
            w.spec.node_id: w for w in workers
        }
        self.program_factory = program_factory
        #: crash target for ControllerCrash events: a ControllerGroup,
        #: or a plain Controller (a group of one); both index ``replicas``
        self.controllers = controllers
        self.rng = rng or np.random.default_rng(0)
        self.stats = FaultInjectorStats()
        self._armed = False
        self._touched_links: List[Link] = []
        # Overlapping RecircExhaustion windows share one saved baseline:
        # per-event save/restore pairs unwind in open order, so the
        # later-closing window would "restore" the limit the first one
        # had set, leaving the switch degraded forever (found by the
        # chaos fuzzer, seed 42, minimized to two overlapping windows).
        self._recirc_windows = 0
        self._recirc_baseline: Optional[int] = None

    # -- link plumbing ----------------------------------------------------

    def _links_for(self, nodes: Optional[Iterable[str]]) -> List[Link]:
        """Both directions of each named host's cable (all hosts if None)."""
        hosts = self.topology.hosts
        names = list(hosts) if nodes is None else list(nodes)
        links: List[Link] = []
        for name in names:
            host = hosts.get(name)
            if host is None:
                raise ConfigurationError(f"no host named {name!r} in topology")
            if host.uplink is not None:
                links.append(host.uplink)
            port = self.topology.switch.port_for(name)
            if port is not None:
                links.append(port)
        return links

    def _schedule_window(
        self, links: List[Link], degradation_factory, start_ns: int, end_ns: int
    ) -> None:
        pairs = []
        for link in links:
            chaos = chaos_for(link, self.sim, rng=self._link_rng())
            pairs.append((chaos, degradation_factory()))
            if link not in self._touched_links:
                self._touched_links.append(link)

        def open_window() -> None:
            for chaos, deg in pairs:
                chaos.add(deg)

        def close_window() -> None:
            for chaos, deg in pairs:
                chaos.remove(deg)

        self.sim.call_at(max(self.sim.now, start_ns), open_window)
        self.sim.call_at(max(self.sim.now, end_ns), close_window)

    def _link_rng(self) -> np.random.Generator:
        return np.random.default_rng(int(self.rng.integers(0, 2**63)))

    # -- arming -----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every plan event; idempotent (second call is a no-op)."""
        if self._armed:
            return self
        self._armed = True
        for event in self.plan:
            self._arm_event(event)
        return self

    def _arm_event(self, event) -> None:
        now = self.sim.now
        if isinstance(event, LinkFault):
            self.stats.link_faults += 1
            self._schedule_window(
                self._links_for(event.nodes),
                lambda: Degradation(
                    loss_prob=event.loss_prob,
                    duplicate_prob=event.duplicate_prob,
                    reorder_prob=event.reorder_prob,
                    reorder_jitter_ns=event.reorder_jitter_ns,
                ),
                event.start_ns,
                event.end_ns,
            )
        elif isinstance(event, PacketCorruption):
            self.stats.corruptions += 1
            self._schedule_window(
                self._links_for(event.nodes),
                lambda: Degradation(
                    corrupt_prob=event.corrupt_prob,
                    truncate_prob=event.truncate_prob,
                    max_bit_flips=event.max_bit_flips,
                ),
                event.start_ns,
                event.end_ns,
            )
        elif isinstance(event, Partition):
            self.stats.partitions += 1
            self._schedule_window(
                self._links_for(event.nodes),
                lambda: Degradation(loss_prob=1.0),
                event.start_ns,
                event.end_ns,
            )
        elif isinstance(event, WorkerCrash):
            worker = self._worker(event.node_id)

            def crash() -> None:
                self.stats.worker_crashes += 1
                worker.crash()

            self.sim.call_at(max(now, event.at_ns), crash)
            if event.restart_after_ns is not None:

                def restart() -> None:
                    self.stats.worker_restarts += 1
                    worker.restart()

                self.sim.call_at(
                    max(now, event.at_ns) + event.restart_after_ns, restart
                )
        elif isinstance(event, ControllerCrash):
            if self.controllers is None:
                raise ConfigurationError(
                    "plan contains ControllerCrash but no controllers given"
                )
            replicas = self.controllers.replicas
            replica = replicas[event.replica_id % len(replicas)]

            def ctrl_crash() -> None:
                self.stats.controller_crashes += 1
                replica.crash()

            self.sim.call_at(max(now, event.at_ns), ctrl_crash)
            if event.restart_after_ns is not None:

                def ctrl_restart() -> None:
                    self.stats.controller_restarts += 1
                    replica.restart()

                self.sim.call_at(
                    max(now, event.at_ns) + event.restart_after_ns,
                    ctrl_restart,
                )
        elif isinstance(event, WorkerSlowdown):
            worker = self._worker(event.node_id)

            def slow() -> None:
                self.stats.slowdowns += 1
                worker.set_speed_factor(event.factor)

            self.sim.call_at(max(now, event.start_ns), slow)
            self.sim.call_at(
                max(now, event.end_ns), worker.set_speed_factor, 1.0
            )
        elif isinstance(event, SwitchFailover):
            if self.program_factory is None:
                raise ConfigurationError(
                    "plan contains SwitchFailover but no program_factory given"
                )
            if not hasattr(self.switch, "install_program"):
                raise ConfigurationError(
                    "switch does not support program failover"
                )

            def failover() -> None:
                self.stats.failovers += 1
                self.stats.last_failover_ns = self.sim.now
                self.switch.install_program(self.program_factory())

            self.sim.call_at(max(now, event.at_ns), failover)
        elif isinstance(event, RecircExhaustion):
            if not hasattr(self.switch, "set_recirc_limit"):
                raise ConfigurationError(
                    "switch does not support recirculation faults"
                )
            def exhaust() -> None:
                self.stats.recirc_exhaustions += 1
                previous = self.switch.set_recirc_limit(event.queue_packets)
                if self._recirc_windows == 0:
                    self._recirc_baseline = previous
                self._recirc_windows += 1

            def restore() -> None:
                self._recirc_windows -= 1
                if self._recirc_windows == 0 and self._recirc_baseline is not None:
                    self.switch.set_recirc_limit(self._recirc_baseline)
                    self._recirc_baseline = None

            self.sim.call_at(max(now, event.start_ns), exhaust)
            self.sim.call_at(max(now, event.end_ns), restore)
        else:  # pragma: no cover - plan.validate() rejects unknown events
            raise ConfigurationError(f"unhandled fault event {event!r}")

    def _worker(self, node_id: int):
        worker = self.workers.get(node_id)
        if worker is None:
            raise ConfigurationError(
                f"plan names worker node {node_id}, cluster has "
                f"{sorted(self.workers)}"
            )
        return worker

    # -- telemetry --------------------------------------------------------

    def injected_totals(self) -> Dict[str, int]:
        """Aggregate injected-fault counters over every touched link."""
        totals = {
            "injected_drops": 0,
            "injected_dups": 0,
            "injected_delays": 0,
            "corrupt_drops": 0,
        }
        for link in self._touched_links:
            totals["injected_drops"] += link.injected_drops
            totals["injected_dups"] += link.injected_dups
            totals["injected_delays"] += link.injected_delays
            totals["corrupt_drops"] += link.corrupt_drops
        return totals
