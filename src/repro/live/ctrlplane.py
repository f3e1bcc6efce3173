"""Replicated live controllers: leader election over real UDP.

:class:`LiveControllerReplica` is the asyncio driver of the same
:class:`~repro.ctrl.replication.ReplicaCore` the simulated replica
runs: it sends ``ElectionRequest`` datagrams to the :class:`~repro.live.
softswitch.SoftSwitch` (whose program arbitrates them against
``switch.election``, the exact code path the simulator exercises),
flushes ``ControllerSync`` datagrams to its peers while leading, and
feeds every ack and sync back into the core. Every election and sync
decision — self-demotion, step-down, snapshot-vs-delta, chunking, the
seq-gap rule — is the core's; this module is only timers and a socket.

What is *not* ported: the live control plane has no in-flight
assignment mirror — the live switch owns executor liveness itself (pull
TTLs, credit resync), so there is no lease table for a live controller
to reclaim from. Its sync stream therefore carries the core's snapshots
and checkpoint metadata only. The full state-machine replication
semantics are verified in simulation; the live layer verifies the part
wall clocks can falsify — election safety (one leader per term,
monotonic terms, takeover after a leader kill) and the sync wire
protocol under chaos.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Callable, List, Optional

from repro.ctrl.replication import ReplicaCore, ReplicaTiming
from repro.errors import ProtocolError
from repro.live.base import Endpoint, WallClock, bump_socket_buffers
from repro.protocol import codec
from repro.protocol.messages import ControllerSync, ElectionAck

#: Wall-clock cadence, tuned for loopback CI: a 50 ms lease fits several
#: election round trips and is well above an event-loop tick, so a
#: leader kill is detected well inside the chaos runner's 2 s settle.
LIVE_TIMING = ReplicaTiming(
    lease_ns=50_000_000,
    renew_margin_ns=15_000_000,
    poll_ns=10_000_000,
    stagger_ns=3_000_000,
    sync_interval_ns=15_000_000,
)


def ctrl_name(replica_id: int) -> str:
    """The fault-plan node name of one live controller replica."""
    return f"ctrl{replica_id}"


class LiveControllerReplica(asyncio.DatagramProtocol):
    """One controller replica on a real UDP socket.

    ``peer_resolver`` returns the peers' current endpoints at each
    flush: restarted peers come back on new ports, so a static list
    would sync into dead sockets.
    """

    def __init__(
        self,
        replica_id: int,
        switch: Endpoint,
        clock: Optional[WallClock] = None,
        transport_wrap=None,
    ) -> None:
        self.replica_id = replica_id
        self.switch = switch
        self.clock = clock if clock is not None else WallClock()
        self.transport_wrap = transport_wrap
        self.core = ReplicaCore(replica_id, LIVE_TIMING)
        self.peer_resolver: Callable[[], List[Optional[Endpoint]]] = (
            lambda: []
        )
        self.sync_sent = 0
        self.closed = False
        self.endpoint: Optional[Endpoint] = None  #: bound by :meth:`start`
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._tasks: List[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(host, port)
        )
        bump_socket_buffers(transport)
        bound = transport.get_extra_info("sockname")
        if self.transport_wrap is not None:
            transport = self.transport_wrap(transport)
        self._transport = transport
        self.endpoint = (bound[0], bound[1])
        self._tasks.append(loop.create_task(self._election_loop()))
        self._tasks.append(loop.create_task(self._sync_loop()))
        return self.endpoint

    def kill(self) -> None:
        """Fail-stop: drop the socket, stop every loop. Idempotent.

        A restarted incarnation is a *new* object on a new socket built
        by the injector's factory; like executors, live controllers do
        not resurrect in place.
        """
        if self.closed:
            return
        self.closed = True
        for task in self._tasks:
            task.cancel()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def aclose(self) -> None:
        tasks = list(self._tasks)
        self.kill()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()

    # -- the core's timers -------------------------------------------------

    def is_leader(self) -> bool:
        return not self.closed and self.core.is_leader(self.clock.now)

    async def _election_loop(self) -> None:
        core = self.core
        await asyncio.sleep(core.first_wait() / 1e9)
        while not self.closed:
            self._send(self.switch, core.election_request(self.clock.now))
            await asyncio.sleep(core.next_wait(self.clock.now) / 1e9)

    async def _sync_loop(self) -> None:
        while not self.closed:
            await asyncio.sleep(LIVE_TIMING.sync_interval_ns / 1e9)
            peers = [
                p
                for p in self.peer_resolver()
                if p is not None and p != self.endpoint
            ]
            if self.is_leader() and peers:
                for msg in self.core.flush():
                    for peer in peers:
                        self._send(peer, msg)
                        self.sync_sent += 1

    # -- datagram path -----------------------------------------------------

    def datagram_received(self, data: bytes, addr: Any) -> None:
        if self.closed:
            return
        try:
            message = codec.decode(data)
        except ProtocolError:
            return
        cls = message.__class__
        if cls is ElectionAck:
            self.core.on_ack(self.clock.now, message)
        elif cls is ControllerSync:
            self.core.on_sync(message)

    def _send(self, addr: Endpoint, payload: Any) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        self._transport.sendto(codec.encode(payload), addr)

    # -- inspection --------------------------------------------------------

    def stats(self) -> dict:
        core = self.core
        return {
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
            "closed": self.closed,
            "ckpt_meta": core.ckpt_meta,
        }
