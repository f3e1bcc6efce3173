"""The benchmark's workloads, each generated from the ``--seed`` argument.

A sim workload runs ``subruns`` independent inputs per invocation and the
live workload runs a series of windows; input or window ``k`` is generated
from :func:`subrun_seed`. Pooling the sim inputs makes the simulated
latency percentiles steady across seeds. The program only ever receives
the generated :class:`~repro.cluster.task.SubmitEvent` stream (sim) or the
closed-loop :class:`~repro.live.runtime.LiveSpec` (live).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.cluster.task import SubmitEvent, TaskSpec
from repro.core.policies import PriorityPolicy
from repro.experiments.common import ClusterConfig
from repro.live.runtime import LiveSpec
from repro.sim.core import ms, us
from repro.sim.rng import RngStreams
from repro.workloads import exponential, fixed, open_loop, rate_for_utilization

Events = List[SubmitEvent]
InputFactory = Callable[[int], Tuple[ClusterConfig, Callable[[RngStreams], Events]]]


def subrun_seed(seed: int, k: int) -> int:
    """Seed of input (sim) or window (live) ``k`` of an invocation."""
    return seed * 1000 + k


@dataclass(frozen=True)
class SimWorkload:
    """A simulated Draconis cluster fed an open-loop arrival stream."""

    name: str
    why: str
    inputs: InputFactory
    horizon_ns: int
    drain_ns: int
    #: distinct inputs per invocation, pooled for the latency percentiles
    subruns: int
    #: tasks submitted before this instant are warm-up (excluded from
    #: the scheduling-delay percentiles)
    warmup_ns: int
    #: the run must end with exactly one controller term
    replicated_ctrl: bool = False


@dataclass(frozen=True)
class LiveWorkload:
    """The live UDP runtime on loopback, driven in closed-loop windows."""

    name: str
    why: str
    spec: Callable[[int], LiveSpec]


def _fcfs_light(seed: int):
    config = ClusterConfig(seed=seed)
    sampler = fixed(500.0)
    rate = rate_for_utilization(0.30, config.total_executors, sampler.mean_ns)

    def events(rngs: RngStreams) -> Events:
        return list(
            open_loop(rngs.stream("arrivals"), rate, sampler, FCFS_HORIZON)
        )

    return config, events


#: share of tasks per priority level 1..4: a latency-critical majority
#: over a best-effort backlog that the overload leaves waiting
PRIORITY_MIX = (0.55, 0.05, 0.05, 0.35)


def _priority_jobs(
    rng: np.random.Generator, rate_tps: float, mean_ns: float, horizon_ns: int
) -> Events:
    """Poisson single-task jobs, lognormal durations (sigma 0.8), with the
    priority level drawn from :data:`PRIORITY_MIX`."""
    sigma = 0.8
    mu = np.log(mean_ns) - sigma * sigma / 2.0
    mix = np.asarray(PRIORITY_MIX)
    events: Events = []
    now = 0.0
    while True:
        now += rng.exponential(1e9 / rate_tps)
        if now >= horizon_ns:
            return events
        duration = max(1_000, int(rng.lognormal(mu, sigma)))
        level = int(rng.choice(len(mix), p=mix)) + 1
        spec = TaskSpec(duration_ns=duration, tprops=level, priority=level)
        events.append(SubmitEvent(time_ns=int(now), tasks=(spec,)))


def _priority_burst(seed: int):
    config = ClusterConfig(
        seed=seed, policy=PriorityPolicy(len(PRIORITY_MIX)), queue_capacity=1 << 16
    )
    mean_ns = us(500)
    # offered load above capacity for the whole horizon, as in the
    # paper's priority experiment: the lowest level backs up
    rate = rate_for_utilization(1.20, config.total_executors, mean_ns)

    def events(rngs: RngStreams) -> Events:
        return _priority_jobs(
            rngs.stream("priority-arrivals"), rate, mean_ns, PRIO_HORIZON
        )

    return config, events


def _ha_parked(seed: int):
    config = ClusterConfig(
        seed=seed,
        park_pulls=True,
        controller=True,
        controller_replicas=3,
    )
    sampler = exponential(150.0)
    rate = rate_for_utilization(0.60, config.total_executors, sampler.mean_ns)

    def events(rngs: RngStreams) -> Events:
        return list(
            open_loop(rngs.stream("ha-arrivals"), rate, sampler, HA_HORIZON)
        )

    return config, events


def _live_noop(seed: int) -> LiveSpec:
    return LiveSpec(
        executors=2,
        policy="fcfs",
        seed=seed,
        mode="closed",
        dist="noop",
        duration_s=LIVE_WINDOW_S,
        tasks_per_job=32,
        outstanding_jobs=8,
        max_outstanding=4,
        drain_s=3.0,
    )


FCFS_HORIZON = ms(30)
PRIO_HORIZON = ms(30)
HA_HORIZON = ms(10)
#: wall seconds of closed-loop load per live window
LIVE_WINDOW_S = 1.0

WORKLOADS: Dict[str, Union[SimWorkload, LiveWorkload]] = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim-fcfs-light",
            why=(
                "Idle executors poll and get no-ops, so the sim kernel, the "
                "cluster pull loop and net do most of the work; the core "
                "queue stays nearly empty."
            ),
            inputs=_fcfs_light,
            horizon_ns=FCFS_HORIZON,
            drain_ns=ms(10),
            subruns=4,
            warmup_ns=FCFS_HORIZON // 8,
        ),
        SimWorkload(
            name="sim-priority-burst",
            why=(
                "A 120% overload backs up the lowest of four priority "
                "queues, so every pull walks the priority ladder: core and "
                "switchsim recirculation dominate."
            ),
            inputs=_priority_burst,
            horizon_ns=PRIO_HORIZON,
            drain_ns=ms(20),
            subruns=4,
            warmup_ns=PRIO_HORIZON // 8,
        ),
        SimWorkload(
            name="sim-ha-parked",
            why=(
                "Heartbeats to three controller replicas and journal sync "
                "make ctrl a main cost; parked pulls take core's park/wake "
                "path instead of no-ops."
            ),
            inputs=_ha_parked,
            horizon_ns=HA_HORIZON,
            drain_ns=ms(5),
            subruns=3,
            warmup_ns=HA_HORIZON // 8,
            replicated_ctrl=True,
        ),
        LiveWorkload(
            name="live-noop-closed",
            why=(
                "No service time, so throughput is bounded by the cost per "
                "datagram: protocol codec, asyncio UDP, live endpoints and "
                "the hosted core program."
            ),
            spec=_live_noop,
        ),
    )
}
