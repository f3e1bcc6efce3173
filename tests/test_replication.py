"""Replicated control plane: election, fencing, sync, crash chaos.

Covers the pieces PR "controller replication" added:

* the switch's :class:`~repro.switchsim.election.ElectionRegister` —
  CAS lease semantics, inclusive expiry boundary, monotonic terms;
* term fencing on the program's control-plane mutations
  (``expire_parked_for`` / ``reinject``);
* the executor-lease expiry boundary (a heartbeat landing exactly at
  ``expires_at_ns`` renews; the sweep never races it) — regression for
  the off-by-one the replication work flushed out;
* the ``ControllerCrash`` fault event and its sampling grammar;
* leader-crash takeover end to end in simulation (zero loss) against
  the lossy single-controller baseline;
* the replica state machine (:class:`~repro.ctrl.replication.ReplicaCore`,
  shared by the sim and live drivers) fed acks and syncs directly;
* a live replica pair on a fake wire that loses one sync delta; and
* Hypothesis properties: election outcome is a pure function of the
  request script (register), the ack script (replica core), and the
  (seed, crash schedule) pair (simulation).
"""

import asyncio
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DraconisProgram
from repro.ctrl import Controller, CtrlOpKind, ReplicaCore
from repro.ctrl.replication import STEPPED_DOWN, WON
from repro.errors import ConfigurationError
from repro.experiments.controller_ha import run_ha
from repro.faults import FaultPlan, event_from_dict, event_to_dict
from repro.faults.events import ControllerCrash
from repro.faults.plan import sample_ctrl_faults
from repro.live.ctrlplane import LIVE_TIMING, LiveControllerReplica
from repro.metrics import MetricsCollector
from repro.net import StarTopology
from repro.protocol import codec
from repro.protocol.codec import MAX_CTRL_OPS_PER_PACKET
from repro.protocol.messages import (
    ControllerSync,
    CtrlOp,
    ElectionAck,
    Heartbeat,
)
from repro.sim import Simulator, ms, us
from repro.sim.rng import RngStreams
from repro.switchsim import ProgrammableSwitch
from repro.switchsim.election import ElectionRegister


# -- the ControllerCrash fault event ----------------------------------------


class TestControllerCrashEvent:
    def test_round_trip_with_restart(self):
        event = ControllerCrash(
            at_ns=ms(3), replica_id=1, restart_after_ns=ms(2)
        )
        payload = event_to_dict(event)
        assert payload["kind"] == "ControllerCrash"
        assert event_from_dict(payload) == event

    def test_round_trip_permanent(self):
        event = ControllerCrash(at_ns=ms(3), replica_id=0)
        assert event.restart_after_ns is None
        assert event_from_dict(event_to_dict(event)) == event

    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            [ControllerCrash(at_ns=ms(1), replica_id=2, restart_after_ns=None)]
        )
        assert list(FaultPlan.from_json(plan.to_json())) == list(plan)

    def test_grammar_same_seed_same_events(self):
        a = sample_ctrl_faults(
            RngStreams(9).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
        )
        b = sample_ctrl_faults(
            RngStreams(9).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
        )
        assert a == b

    def test_grammar_keeps_one_replica_alive(self):
        for seed in range(40):
            events = sample_ctrl_faults(
                RngStreams(seed).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
            )
            permanent = {
                e.replica_id
                for e in events
                if isinstance(e, ControllerCrash)
                and e.restart_after_ns is None
            }
            assert len(permanent) < 3

    def test_grammar_rejects_single_replica(self):
        with pytest.raises(ConfigurationError, match="replicas"):
            sample_ctrl_faults(
                RngStreams(0).stream("ctrl"), ms(12), replica_ids=[0]
            )


# -- the switch's election register -----------------------------------------


class TestElectionRegister:
    def test_first_grant_opens_term_one(self):
        reg = ElectionRegister()
        ack = reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        assert ack.granted and ack.term == 1 and ack.leader_id == 0
        assert reg.history == [(1, 0, 0)]

    def test_renewal_at_exact_expiry_is_not_a_new_term(self):
        # Inclusive boundary: the incumbent renewing at precisely
        # expires_at_ns keeps its term; no rival could have slipped in.
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=0, term=1, now=100, lease_ns=100)
        assert ack.granted and ack.term == 1
        assert reg.renewals == 1 and reg.elections_held == 1

    def test_rival_denied_while_lease_live(self):
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=1, term=1, now=100, lease_ns=100)
        assert not ack.granted
        assert ack.leader_id == 0 and ack.term == 1
        assert reg.denials == 1

    def test_lapsed_lease_grants_next_term(self):
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=1, term=1, now=101, lease_ns=100)
        assert ack.granted and ack.term == 2 and ack.leader_id == 1
        assert [row[0] for row in reg.history] == [1, 2]

    def test_current_leader_respects_boundary(self):
        reg = ElectionRegister()
        reg.request(candidate_id=3, term=0, now=0, lease_ns=100)
        assert reg.current_leader(100) == 3
        assert reg.current_leader(101) is None


# -- term fencing on the program's control-plane surface --------------------


class TestFencing:
    def build(self):
        sim = Simulator()
        program = DraconisProgram(queue_capacity=64, park_pulls=True)
        switch = ProgrammableSwitch(sim, program)
        return sim, switch, program

    def test_stale_term_is_rejected_and_counted(self):
        sim, switch, program = self.build()
        switch.election.request(candidate_id=0, term=0, now=0, lease_ns=100)
        switch.election.request(candidate_id=1, term=1, now=500, lease_ns=100)
        assert switch.election.term == 2
        assert program.expire_parked_for({1}, term=1) == 0
        assert program.sched_stats.fencing_rejections == 1

    def test_current_term_is_accepted_and_audited(self):
        sim, switch, program = self.build()
        switch.election.request(candidate_id=0, term=0, now=0, lease_ns=100)
        assert program.expire_parked_for({1}, term=1) == 0  # nothing parked
        assert program.sched_stats.fencing_rejections == 0
        assert switch.election.actions == [(1, 1)]

    def test_group_of_one_is_audited_at_term_1(self):
        # An unreplicated controller holds term 1, granted locally when
        # it binds (no election packet, no event), and its reclaim goes
        # through the same fence as a replicated leader's.
        sim, switch, program = self.build()
        topology = StarTopology(sim, switch)
        ctrl = Controller(sim, topology, program=program, lease_ns=us(500))
        assert switch.election.history == [(1, 0, 0)]
        assert sim.events_processed == 0
        sim.call_at(us(100), lambda: ctrl._on_heartbeat(Heartbeat(
            executor_id=7, node_id=0)))
        sim.run(until=us(750))  # the lease lapses and is reclaimed
        assert ctrl.stats.leases_expired == 1
        assert switch.election.actions == [(1, 1)]
        assert program.sched_stats.fencing_rejections == 0


# -- executor-lease expiry boundary (regression) ----------------------------


class TestLeaseExpiryBoundary:
    def build_controller(self):
        sim = Simulator()
        program = DraconisProgram(queue_capacity=64)
        switch = ProgrammableSwitch(sim, program)
        topology = StarTopology(sim, switch)
        ctrl = Controller(
            sim,
            topology,
            program=program,
            lease_ns=us(500),
            sweep_ns=us(100),
        )
        return sim, ctrl

    def test_lease_lives_through_its_expiry_instant(self):
        # Heartbeat at t=100us grants a lease through 600us inclusive.
        # The sweep that fires exactly at 600us must NOT expire it: a
        # renewal landing at that same instant is valid, so treating the
        # boundary as dead would race heartbeat against sweep ordering.
        sim, ctrl = self.build_controller()
        sim.call_at(us(100), lambda: ctrl._on_heartbeat(Heartbeat(
            executor_id=7, node_id=0)))
        sim.run(until=us(650))
        assert ctrl.live_executors() == {7}
        assert ctrl.stats.leases_expired == 0

    def test_heartbeat_at_exact_expiry_renews(self):
        sim, ctrl = self.build_controller()
        beat = lambda: ctrl._on_heartbeat(Heartbeat(executor_id=7, node_id=0))
        sim.call_at(us(100), beat)
        sim.call_at(us(600), beat)  # exactly expires_at_ns
        sim.run(until=ms(1))
        assert ctrl.live_executors() == {7}
        assert ctrl.stats.leases_renewed == 1
        assert ctrl.stats.leases_expired == 0

    def test_lease_expires_one_sweep_past_the_boundary(self):
        sim, ctrl = self.build_controller()
        sim.call_at(us(100), lambda: ctrl._on_heartbeat(Heartbeat(
            executor_id=7, node_id=0)))
        sim.run(until=us(750))
        assert ctrl.live_executors() == set()
        assert ctrl.stats.leases_expired == 1


# -- leader-crash takeover, end to end in simulation ------------------------


class TestReplicatedTakeover:
    def test_leader_and_worker_crash_lose_nothing(self):
        result = run_ha(
            seed=0,
            replicas=3,
            crash_fraction=0.5,
            duration_ns=ms(12),
            drain_ns=ms(12),
        )
        assert result.ok, result.violations
        assert result.tasks_lost == 0
        assert result.term == 2  # exactly one takeover
        assert result.takeover_ns is not None
        assert result.takeover_ns <= result.takeover_bound_ns
        assert result.tasks_reclaimed > 0  # the successor did the work

    def test_single_controller_baseline_loses_tasks(self):
        result = run_ha(
            seed=0,
            replicas=1,
            crash_fraction=0.5,
            duration_ns=ms(12),
            drain_ns=ms(12),
        )
        # The same crash schedule with no replica to take over: the dead
        # worker's in-flight tasks have no recovery path (client
        # timeouts are disabled in this experiment).
        assert result.tasks_lost > 0
        assert result.takeover_ns is None


# -- the replica state machine (ReplicaCore) ---------------------------------


def make_core(replica_id: int = 0) -> ReplicaCore:
    """The live replica's state machine: a core on the live timing."""
    return ReplicaCore(replica_id, LIVE_TIMING)


def grant(term=1, expires=50, leader_id=0):
    return ElectionAck(
        leader_id=leader_id, term=term, granted=True, expires_at_ns=expires
    )


class TestLiveReplicaStateMachine:
    """The election/sync core both drivers run, fed messages directly."""

    def test_granted_ack_makes_leader(self):
        core = make_core()
        assert core.on_ack(0, grant()) == WON
        assert core.role == "leader"
        assert core.term == 1 and core.is_leader(0)

    def test_denial_with_newer_term_steps_down(self):
        core = make_core()
        core.on_ack(0, grant())
        verdict = core.on_ack(
            0,
            ElectionAck(leader_id=2, term=2, granted=False, expires_at_ns=90),
        )
        assert verdict == STEPPED_DOWN
        assert core.role == "follower"
        assert core.step_downs == 1
        assert core.known_term == 2

    def test_lease_lapse_self_demotes(self):
        core = make_core()
        core.on_ack(0, grant(expires=50))
        assert core.is_leader(50)
        assert not core.is_leader(51)

    def test_local_lease_is_bounded_by_the_request_send_time(self):
        # The register's expiry is stamped on its own clock at arrival;
        # the local lease may not outlive request-send time + lease.
        core = make_core()
        core.election_request(now=1_000)
        core.on_ack(5_000, grant(expires=10**12))
        assert core.leader_until == 1_000 + LIVE_TIMING.lease_ns

    def test_sync_snapshot_then_gap_detection(self):
        core = make_core(replica_id=2)
        meta = CtrlOp(kind=int(CtrlOpKind.CKPT_META), d=3)
        core.on_sync(
            ControllerSync(
                leader_id=0, term=1, seq=1, snapshot=True, ops=[meta]
            )
        )
        assert core.sync_applied == 1 and core.sync_gaps == 0
        assert core.ckpt_meta == 3
        core.on_sync(ControllerSync(leader_id=0, term=1, seq=4, ops=[meta]))
        assert core.sync_gaps == 1  # seq jumped 1 -> 4
        assert core.sync_applied == 1  # and the delta was not applied

    def test_stale_term_sync_is_dropped(self):
        core = make_core(replica_id=2)
        core.on_sync(ControllerSync(leader_id=1, term=3, seq=1,
                                    snapshot=True, ops=[]))
        before = core.sync_applied
        core.on_sync(ControllerSync(leader_id=0, term=2, seq=1, ops=[]))
        assert core.sync_applied == before

    def test_leader_steps_down_on_higher_term_sync(self):
        core = make_core()
        core.on_ack(0, grant())
        verdict = core.on_sync(ControllerSync(leader_id=1, term=2, seq=1,
                                              snapshot=True, ops=[]))
        assert verdict == STEPPED_DOWN
        assert core.role == "follower" and core.step_downs == 1

    def test_flushes_snapshot_every_nth_and_chunk(self):
        core = make_core()
        core.on_ack(0, grant(expires=10**12))
        assigned = MAX_CTRL_OPS_PER_PACKET + 10
        core.mirror.update({(0, i, 0): (1, "entry") for i in range(assigned)})
        first = core.flush()
        # every ASSIGN + CKPT_META, over the per-packet op limit
        assert [len(m.ops) for m in first] == [MAX_CTRL_OPS_PER_PACKET, 11]
        assert [m.snapshot for m in first] == [True, False]
        assert [m.seq for m in first] == [1, 2]
        assert len(first[0].entries) + len(first[1].entries) == assigned
        kinds = [
            [m.snapshot for m in core.flush()][0]
            for _ in range(2, LIVE_TIMING.snapshot_every + 1)
        ]
        assert kinds == [False] * (LIVE_TIMING.snapshot_every - 2) + [True]

    def test_follower_waits_for_a_snapshot_after_a_gap(self):
        leader, follower = make_core(0), make_core(1)
        leader.on_ack(0, grant(expires=10**12))
        key = (0, 1, 0)
        leader.mirror[key] = (4, "entry")
        follower.on_sync(leader.flush()[0])  # snapshot
        assert follower.mirror == {key: (4, "entry")}
        leader.journal.record(CtrlOp(kind=int(CtrlOpKind.COMPLETE),
                                     a=0, b=1, c=0))
        leader.flush()  # lost on the wire
        for _ in range(3, LIVE_TIMING.snapshot_every):
            follower.on_sync(leader.flush()[0])
        assert follower.mirror == {key: (4, "entry")}  # deltas ignored
        assert follower.sync_gaps == 1
        del leader.mirror[key]
        follower.on_sync(leader.flush()[0])  # the periodic snapshot
        assert follower.mirror == {}


# -- live follower resync over a fake wire ------------------------------------


class FrozenClock:
    """Wall time that never moves: leases cannot lapse mid-test."""

    now = 0


class FakeWire:
    """In-process UDP between live replicas and the switch's register.

    Each replica's transport is replaced by one that delivers
    synchronously: election requests are arbitrated by a real
    ``ElectionRegister``, syncs go straight to the peer. The
    ``drop_seq``-th sync delta is lost; everything a follower receives
    is logged with whether its core applied it.
    """

    SWITCH = ("127.0.0.1", 1)

    def __init__(self, replicas, drop_seq):
        self.replicas = replicas
        self.by_endpoint = {}
        self.register = ElectionRegister()
        self.drop_seq = drop_seq
        self.dropped = []
        self.delivered = []

    def transport_for(self, index):
        wire = self

        class Transport:
            def __init__(self, real):
                self.real = real
                self.src = real.get_extra_info("sockname")[:2]
                wire.by_endpoint[self.src] = wire.replicas[index]

            def sendto(self, data, addr):
                wire.deliver(data, addr, self.src)

            def is_closing(self):
                return self.real.is_closing()

            def close(self):
                self.real.close()

        return Transport

    def deliver(self, data, addr, src):
        msg = codec.decode(data)
        if addr == self.SWITCH:
            ack = self.register.request(
                msg.candidate_id, msg.term, FrozenClock.now, msg.lease_ns
            )
            self.by_endpoint[src].datagram_received(codec.encode(ack), addr)
            return
        if not msg.snapshot and msg.seq == self.drop_seq:
            self.dropped.append(msg)
            return
        peer = self.by_endpoint[addr]
        before = peer.core.sync_applied
        peer.datagram_received(data, src)
        self.delivered.append((msg, peer.core.sync_applied > before))


class TestLiveFollowerResync:
    def test_lost_delta_is_resynced_by_the_next_snapshot(self):
        every = LIVE_TIMING.snapshot_every

        async def scenario():
            replicas = []
            wire = FakeWire(replicas, drop_seq=2)
            for i in range(2):
                replicas.append(
                    LiveControllerReplica(
                        replica_id=i,
                        switch=FakeWire.SWITCH,
                        clock=FrozenClock(),
                        transport_wrap=wire.transport_for(i),
                    )
                )
            for replica in replicas:
                replica.peer_resolver = lambda: [r.endpoint for r in replicas]
                await replica.start()
            try:
                for _ in range(300):
                    # flushes 1..every+1, less the lost one
                    if len(wire.delivered) >= every:
                        break
                    await asyncio.sleep(0.01)
            finally:
                for replica in replicas:
                    await replica.aclose()
            return replicas, wire

        replicas, wire = asyncio.run(scenario())
        assert replicas[0].core.term == 1 and replicas[1].core.term == 0
        assert [m.seq for m in wire.dropped] == [2]
        log = [(m.seq, m.snapshot, applied) for m, applied in wire.delivered]
        assert len(log) >= every, f"no resync within the wait: {log}"
        assert log[:every] == (
            [(1, True, True)]
            # the deltas past the gap: none applied
            + [(seq, False, False) for seq in range(3, every)]
            # the periodic snapshot resyncs the follower ...
            + [(every, True, True)]
            # ... and deltas apply again
            + [(every + 1, False, True)]
        )
        assert replicas[1].core.sync_gaps == 1


# -- purity: election outcome is a function of its inputs -------------------


request_scripts = st.lists(
    st.tuples(
        st.integers(0, 2),      # candidate
        st.integers(0, 40),     # time delta since previous request
        st.integers(1, 60),     # requested lease
    ),
    min_size=1,
    max_size=30,
)


class TestElectionPurity:
    @given(script=request_scripts)
    @settings(max_examples=100)
    def test_register_is_a_pure_function_of_the_request_script(self, script):
        def replay():
            reg = ElectionRegister()
            acks, now = [], 0
            for candidate, delta, lease in script:
                now += delta
                term = reg.term  # candidates ask with the observed term
                acks.append(
                    reg.request(candidate, term, now=now, lease_ns=lease)
                )
            return acks, reg.history, reg.term

        assert replay() == replay()

    @given(script=request_scripts)
    @settings(max_examples=100)
    def test_register_terms_never_regress(self, script):
        reg = ElectionRegister()
        now, last_term = 0, 0
        for candidate, delta, lease in script:
            now += delta
            ack = reg.request(candidate, reg.term, now=now, lease_ns=lease)
            assert ack.term >= last_term
            last_term = ack.term
        assert [row[0] for row in reg.history] == sorted(
            {row[0] for row in reg.history}
        )

    @given(
        acks=st.lists(
            st.tuples(
                st.integers(0, 1),   # leader_id in the ack
                st.integers(1, 6),   # term
                st.booleans(),       # granted
                st.integers(0, 99),  # expires_at_ns
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=100)
    def test_live_replica_is_a_pure_function_of_the_ack_script(self, acks):
        def replay():
            core = make_core(replica_id=0)
            trace = []
            for now, (leader_id, term, granted, expires) in enumerate(acks):
                verdict = core.on_ack(
                    now,
                    ElectionAck(
                        leader_id=leader_id,
                        term=term,
                        granted=granted,
                        expires_at_ns=expires,
                    ),
                )
                trace.append(
                    (verdict, core.role, core.term, core.known_term,
                     core.leader_until, core.step_downs, core.elections_won)
                )
            return trace

        assert replay() == replay()

    @given(
        seed=st.integers(0, 3),
        crash_fraction=st.sampled_from([0.3, 0.5, 0.7]),
    )
    @settings(max_examples=4, deadline=None)
    def test_sim_election_outcome_is_pure_in_seed_and_schedule(
        self, seed, crash_fraction
    ):
        """Same (seed, crash schedule) -> identical takeover, terms,
        reclaim counts — the whole HA result replays bit-identically."""
        kwargs = dict(
            seed=seed,
            replicas=3,
            crash_fraction=crash_fraction,
            duration_ns=ms(6),
            drain_ns=ms(8),
            workers=2,
            executors_per_worker=2,
        )
        assert asdict(run_ha(**kwargs)) == asdict(run_ha(**kwargs))


class TestSimElectionSafety:
    def test_two_replicas_claiming_leadership_are_flagged(self):
        from repro.experiments import common
        from repro.verify.oracle import InvariantOracle

        config = common.ClusterConfig(
            scheduler="draconis",
            workers=1,
            executors_per_worker=2,
            seed=0,
            controller=True,
            controller_replicas=3,
        )
        handles = common.build_cluster(config, [[]])
        oracle = InvariantOracle(handles).attach(ms(2))
        handles.sim.run(until=ms(2))
        assert oracle.check_final().ok
        handles.ctrl_group.replicas[2].is_leader = lambda: True
        report = oracle.check_final()
        assert report.invariants_violated() == ["election-safety"]
        assert "2 replicas claim live leadership" in report.describe()


class TestFuzzArtifact:
    """The shipped fuzz artifact (a plain controller reclaiming through a
    worker crash and a switch failover) must replay bit-identically."""

    def test_example_artifact_replays_exactly(self):
        import pathlib

        from repro.verify.replay import replay

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "fuzz_artifact.json"
        )
        assert replay(str(path)) == 0


class TestHaArtifact:
    """The shipped counterexample must keep reproducing bit-identically."""

    def test_example_artifact_replays_exactly(self):
        import pathlib

        from repro.verify.replay import replay

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "ha_artifact.json"
        )
        assert replay(str(path)) == 0

    def test_example_artifact_is_the_unreplicated_story(self):
        """The artifact documents the replicas=1 failure mode: a
        controller crash followed by a worker crash loses tasks."""
        import json
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "ha_artifact.json"
        )
        payload = json.loads(path.read_text())
        scenario = payload["scenario"]
        assert scenario["controller"] is True
        assert scenario["controller_replicas"] == 1
        kinds = [e["kind"] for e in scenario["plan"]["events"]]
        assert kinds == ["ControllerCrash", "WorkerCrash"]
        expected = payload["expected"]
        assert expected["ok"] is False
        families = {v["invariant"] for v in expected["violations"]}
        assert "task-conservation" in families
        assert expected["tasks_completed"] < expected["tasks_submitted"]


class TestControlPlaneHealthCounters:
    """Satellite: control-plane health exported through the TelemetryBus."""

    def test_gauge_is_last_write_wins(self):
        from repro.obs import TelemetryBus

        bus = TelemetryBus()
        bus.gauge("ctrl.term", 1)
        bus.gauge("ctrl.term", 3)
        assert bus.counters["ctrl.term"] == 3
        bus.enabled = False
        bus.gauge("ctrl.term", 9)
        assert bus.counters["ctrl.term"] == 3

    def test_ha_run_populates_the_bus(self):
        from repro.obs import TelemetryBus

        bus = TelemetryBus()
        result = run_ha(
            0,
            replicas=3,
            crash_fraction=0.5,
            duration_ns=ms(8),
            drain_ns=ms(10),
            workers=2,
            executors_per_worker=2,
            obs=bus,
        )
        # initial win + post-crash takeover
        assert bus.counters.get("ctrl.elections_won", 0) >= 2
        assert bus.counters.get("ctrl.term") == result.term
        assert bus.counters.get("ctrl.tasks_reclaimed", 0) > 0
        elected = bus.matching(kind="ctrl", opcode="leader_elected")
        assert len(elected) >= 2
