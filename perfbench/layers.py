"""Per-layer metrics of a traced run.

Counts come from the program's public stats objects (``SchedulerStats``,
``SwitchStats``, ``QueueStats``, ``ExecutorStats``, ``ClientStats``,
``ControllerStats``, replica ``sync_sent``, ``Link`` counters and
``LiveResult``); times come from the spans of :class:`spans.Tracer`.
Every metric is reported for every workload; a layer that does not run
reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from measure import LiveOutcome, SimOutcome, executors_of
from spans import LAYER_ID, Tracer

#: unit of every per-layer metric, in report order, as BENCHMARK.json lists them
UNITS: Dict[str, str] = {
    m["name"]: m["unit"]
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
}


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_ns(tracer: Tracer, layer: str) -> int:
    return tracer.self_ns[LAYER_ID[layer]]


def _calls(tracer: Tracer, prefix: str) -> int:
    return sum(n for name, n in tracer.calls.items() if name.startswith(prefix))


def _common(tracer: Tracer, tasks: int, traversals: int) -> Dict[str, float]:
    codec_calls = _calls(tracer, "protocol.codec.")
    reg_ops = _calls(tracer, "switchsim.RegisterArray.") + _calls(
        tracer, "switchsim.ObjectRegisterArray."
    )
    return {
        "switchsim.reg_ops_per_task": _per(reg_ops, tasks),
        "switchsim.ns_per_traversal": _per(_layer_ns(tracer, "switchsim"), traversals),
        "core.ns_per_traversal": _per(_layer_ns(tracer, "core"), traversals),
        "protocol.ns_per_msg": _per(_layer_ns(tracer, "protocol"), codec_calls),
        "protocol.bytes_per_task": _per(tracer.codec_bytes, tasks),
        "metrics.ns_per_task": _per(_layer_ns(tracer, "metrics"), tasks),
    }


def _core_counts(sched: Dict[str, int], queue_stats, tasks: int) -> Dict[str, float]:
    pulls = sched["tasks_assigned"] + sched["noops_sent"] + sched["pulls_expired"]
    repairs = sum(q.add_repairs + q.rtr_repairs for q in queue_stats)
    return {
        "core.pull_yield": _per(sched["tasks_assigned"], pulls),
        "core.ladder_recircs_per_task": _per(sched["priority_ladder_recircs"], tasks),
        "core.repairs_per_task": _per(repairs, tasks),
        "core.parks_per_task": _per(sched["pulls_parked"], tasks),
        "core.bounced": float(sched["submissions_bounced"]),
        "ctrl.fencing_rejections": float(sched["fencing_rejections"]),
    }


def sim_layers(outcome: SimOutcome, tracer: Tracer, gen_s: float) -> Dict[str, float]:
    handles = outcome.handles
    tasks = outcome.completed
    program = handles.draconis
    switch = handles.switch.stats
    links = handles.topology.links()
    packets = sum(link.packets_sent for link in links)
    executors = list(executors_of(handles))
    timers = sum(tracer.counts.values())
    metrics = {name: 0.0 for name in UNITS}
    metrics.update(
        {
            "sim.events_per_task": _per(outcome.events, tasks),
            "sim.timers_per_task": _per(timers, tasks),
            "sim.kernel_ns_per_event": _per(
                tracer.name_self_ns("sim.Simulator.run") - tracer.account_ns,
                outcome.events,
            ),
            "net.packets_per_task": _per(packets, tasks),
            "net.ns_per_packet": _per(_layer_ns(tracer, "net"), packets),
            "net.drops": float(sum(link.packets_dropped for link in links)),
            "switchsim.traversals_per_task": _per(switch.pipeline_packets, tasks),
            "switchsim.recircs_per_task": _per(switch.recirculations, tasks),
            "switchsim.recirc_drops": float(switch.recirc_dropped),
            "cluster.ns_per_task": _per(_layer_ns(tracer, "cluster"), tasks),
            "cluster.pulls_per_task": _per(
                sum(e.stats.requests_sent for e in executors), tasks
            ),
            "cluster.idle_pull_us_per_task": _per(
                sum(e.stats.idle_pull_time_ns for e in executors) / 1e3, tasks
            ),
            "cluster.retries": float(
                sum(c.stats.bounces + c.stats.timeouts for c in handles.clients)
            ),
            "ctrl.ns_per_task": _per(_layer_ns(tracer, "ctrl"), tasks),
            "workloads.gen_s": gen_s,
        }
    )
    metrics.update(_common(tracer, tasks, switch.pipeline_packets))
    metrics.update(
        _core_counts(
            vars(program.sched_stats), [q.stats for q in program.queues], tasks
        )
    )
    group = handles.ctrl_group
    if group is not None:
        heartbeats = sum(r.stats.heartbeats_received for r in group.replicas)
        metrics["ctrl.heartbeats_per_task"] = _per(heartbeats, tasks)
        metrics["ctrl.sync_msgs_per_task"] = _per(
            sum(r.sync_sent for r in group.replicas), tasks
        )
        metrics["ctrl.terms"] = float(group.stats()["term"])
    elif handles.controller is not None:
        metrics["ctrl.heartbeats_per_task"] = _per(
            handles.controller.stats.heartbeats_received, tasks
        )
    return metrics


def live_layers(outcome: LiveOutcome, tracer: Tracer) -> Dict[str, float]:
    result = outcome.result
    tasks = result.tasks_completed
    switch = result.switch_counters
    traversals = tracer.calls.get("core.DraconisProgram.process", 0)
    metrics = {name: 0.0 for name in UNITS}
    metrics.update(
        {
            "switchsim.traversals_per_task": _per(traversals, tasks),
            "switchsim.recircs_per_task": _per(switch.get("recirculations", 0), tasks),
            "switchsim.recirc_drops": float(switch.get("chain_overflows", 0)),
            "live.switch_ns_per_dgram": _per(
                tracer.name_self_ns("live._SwitchProtocol.datagram_received"),
                switch.get("rx", 0),
            ),
            "live.client_ns_per_task": _per(
                tracer.name_self_ns("live.LiveClient.datagram_received"), tasks
            ),
            "live.executor_ns_per_task": _per(
                tracer.name_self_ns("live.LiveExecutor.datagram_received"), tasks
            ),
            "live.dgrams_per_task": _per(
                switch.get("rx", 0) + switch.get("tx", 0), tasks
            ),
            "live.loop_busy_frac": _per(tracer.root_ns / 1e9, outcome.wall_s),
            "live.queue_p50_us": result.queue_delay.percentile(50) / 1e3
            if result.queue_delay.count else 0.0,
            "live.svc_p50_us": result.service.percentile(50) / 1e3
            if result.service.count else 0.0,
            "live.noops_per_task": _per(result.sched_stats.get("noops_sent", 0), tasks),
            "live.watchdog_repulls": float(
                result.executor_counters.get("watchdog_repulls", 0)
            ),
        }
    )
    metrics.update(_common(tracer, tasks, traversals))
    metrics.update(
        _core_counts(
            result.sched_stats,
            [q.stats for q in outcome.switch.program.queues],
            tasks,
        )
    )
    return metrics
