"""Span tracing from outside the program, for the benchmark's traced run.

:class:`Tracer` replaces the public entry points of each layer with thin
wrappers that record one span per call: layer, name, start, duration,
parent span and, when the call's arguments carry one, the task key. The
sim dispatch loop is covered through the public ``Simulator.profiler``
hook: each dispatched callback becomes a span whose layer is the module
that owns the callback (a ``Process`` resume belongs to its generator's
module), and ``Simulator.run`` itself is a span whose self time is the
kernel's: the run's wall time minus all dispatch spans.

Spans are kept in memory in packed columns and written out by
:meth:`Tracer.export` when the run ends. Self time (a span's duration
minus its child spans) is summed per layer as the spans close.

Install the tracer *before* building a cluster: links capture their sink
(``Host.receive``, ``ProgrammableSwitch.receive``) as bound methods at
construction time.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.queue import SwitchCircularQueue
from repro.core.scheduler import DraconisProgram
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor
from repro.live.softswitch import _SwitchProtocol
from repro.metrics.collector import MetricsCollector
from repro.net.host import Host, Socket
from repro.net.link import Link
from repro.protocol import codec
from repro.sim.core import AllOf, AnyOf, Process, ScheduledCallback, Simulator, Timeout
from repro.switchsim.pipeline import ProgrammableSwitch
from repro.switchsim.registers import ObjectRegisterArray, RegisterArray

LAYERS = (
    "sim", "net", "switchsim", "core", "cluster", "ctrl",
    "protocol", "metrics", "workloads", "live", "other",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
NO_KEY = (-1, -1, -1)

REGISTER_OPS = (
    "read", "write", "read_modify_write", "read_and_increment", "write_if",
    "bounded_increment", "sticky_count", "compare_and_swap",
    "read_and_clear", "exchange",
)
QUEUE_OPS = (
    "enqueue", "dequeue_conditional", "dequeue", "read_retrieve_ptr",
    "read_add_ptr", "swap_at", "apply_add_repair", "apply_rtr_repair",
    "cp_enqueue",
)
COLLECTOR_HOOKS = (
    "on_submit", "on_bounce", "on_resubmit", "on_assign", "on_start",
    "on_finish", "on_complete", "on_placement",
)

_MISSING = object()
_RUN, _DISPATCH, _CALL = 0, 1, 2


def message_key(message: Any) -> Tuple[int, int, int]:
    """(uid, jid, tid) of a protocol message; tid is -1 for a whole job."""
    uid = getattr(message, "uid", None)
    if uid is None:
        return NO_KEY
    tid = getattr(message, "tid", None)
    if tid is None:
        task = getattr(message, "task", None)
        tid = task.tid if task is not None else -1
    return (uid, message.jid, tid)


def _key_none(args: tuple) -> Tuple[int, int, int]:
    return NO_KEY


def _key_packet(args: tuple) -> Tuple[int, int, int]:
    # (self, packet) and (self, ctx, packet) share the packet's payload
    return message_key(args[-1].payload)


def _key_ctx(args: tuple) -> Tuple[int, int, int]:
    if len(args) > 1:
        packet = getattr(args[1], "packet", None)
        if packet is not None:
            return message_key(packet.payload)
    return NO_KEY


def _key_task(args: tuple) -> Tuple[int, int, int]:
    key = args[1]
    if isinstance(key, tuple) and len(key) == 3:
        return key
    return NO_KEY


def _key_message(args: tuple) -> Tuple[int, int, int]:
    return message_key(args[0]) if args else NO_KEY


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYER_ID:
        return parts[1]
    return "other"


def layer_of_file(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    first = filename[at + len(marker):].split("/", 1)[0]
    return first if first in LAYER_ID else "other"


class Tracer:
    """In-memory span recorder; also a ``Simulator.profiler``."""

    def __init__(self) -> None:
        # packed span columns; a row's index is its span id
        self.parent = array("i")
        self.layer = array("b")
        self.name = array("H")
        self.start = array("q")
        self.dur = array("q")
        self.uid = array("i")
        self.jid = array("i")
        self.tid = array("i")
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: self time per layer, nanoseconds (index = LAYER_ID)
        self.self_ns = [0] * len(LAYERS)
        #: summed duration of root spans (no parent): the busy time of a
        #: live event loop, or the Simulator.run wall time in sim
        self.root_ns = 0
        #: calls per span name, and counters of count-only wrappers
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        #: bytes the codec produced (encode output, wire_size results)
        self.codec_bytes = 0
        #: host time spent inside :meth:`account` itself; it lands in the
        #: Simulator.run span's self time and is tracing cost, not kernel
        self.account_ns = 0
        self._stack: List[list] = []
        self._dispatch_kind: Dict[Any, Tuple[int, int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.t0 = perf_counter_ns()

    # -- span rows ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, parent: int, lid: int, nid: int, key) -> int:
        row = len(self.parent)
        self.parent.append(parent)
        self.layer.append(lid)
        self.name.append(nid)
        self.start.append(0)
        self.dur.append(0)
        self.uid.append(key[0])
        self.jid.append(key[1])
        self.tid.append(key[2])
        return row

    def _close(self, frame: list, t0: int, t1: int, lid: int) -> int:
        row = frame[0]
        duration = t1 - t0
        self.start[row] = t0 - self.t0
        self.dur[row] = duration
        self.self_ns[lid] += duration - frame[1]
        stack = self._stack
        if stack:
            stack[-1][1] += duration
        else:
            self.root_ns += duration
        return duration

    def _enter(self, lid: int, nid: int, key, kind: int) -> list:
        stack = self._stack
        if stack and stack[-1][2] == _RUN and kind == _CALL:
            # First wrapped call inside a sim dispatch: open the dispatch
            # span now; account() closes it once the callback returns.
            run_row = stack[-1][0]
            dispatch = [self._open(run_row, 0, 0, NO_KEY), 0, _DISPATCH]
            stack.append(dispatch)
        parent = stack[-1][0] if stack else -1
        frame = [self._open(parent, lid, nid, key), 0, kind]
        stack.append(frame)
        return frame

    # -- Simulator.profiler protocol -------------------------------------

    def account(self, callback: Callable[..., Any], wall_ns: int) -> None:
        t1 = perf_counter_ns()
        lid, nid = self._dispatch_label(callback)
        stack = self._stack
        if stack[-1][2] == _DISPATCH:
            frame = stack.pop()
            row = frame[0]
            self.layer[row] = lid
            self.name[row] = nid
        else:
            frame = [self._open(stack[-1][0], lid, nid, NO_KEY), 0, _DISPATCH]
        self._close(frame, t1 - wall_ns, t1, lid)
        self.account_ns += perf_counter_ns() - t1

    def _dispatch_label(self, callback: Callable[..., Any]) -> Tuple[int, int]:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, ScheduledCallback):
            return self._dispatch_label(owner.callback)
        if isinstance(owner, Process):
            code = getattr(owner._generator, "gi_code", None)
            cache_key = code
        else:
            code = None
            cache_key = getattr(callback, "__func__", callback)
        label = self._dispatch_kind.get(cache_key)
        if label is None:
            if code is not None:
                layer = layer_of_file(code.co_filename)
                name = f"{layer}.dispatch:{code.co_qualname}"
            else:
                module = getattr(callback, "__module__", None) or "?"
                layer = layer_of_module(module)
                qual = getattr(callback, "__qualname__", type(callback).__name__)
                name = f"{layer}.dispatch:{qual}"
            label = (LAYER_ID[layer], self.name_id(name))
            self._dispatch_kind[cache_key] = label
        return label

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        key_of: Callable[[tuple], Tuple[int, int, int]] = _key_none,
        kind: int = _CALL,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        tracer = self
        lid = LAYER_ID[layer]
        full = f"{layer}.{name}"
        nid = self.name_id(full)
        calls = self.calls
        calls[full] = 0
        clock = perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(lid, nid, key_of(args), kind)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer._close(frame, t0, t1, lid)
                calls[full] += 1
            if size_of is not None:
                tracer.codec_bytes += size_of(result)
            return result

        return wrapper

    def count_wrapper(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, layer: str, key_of=_key_none, **kw) -> None:
        fn = getattr(cls, attr)
        self._patch(
            cls, attr,
            self.span_wrapper(fn, layer, f"{cls.__name__}.{attr}", key_of, **kw),
        )

    def install(self) -> "Tracer":
        """Wrap every traced entry point; undo with :meth:`uninstall`."""
        original_run = Simulator.run
        tracer = self

        def run_with_profiler(sim: Simulator, *args, **kwargs):
            sim.profiler = tracer
            try:
                return original_run(sim, *args, **kwargs)
            finally:
                sim.profiler = None

        self._patch(
            Simulator, "run",
            self.span_wrapper(
                functools.wraps(original_run)(run_with_profiler),
                "sim", "Simulator.run", kind=_RUN,
            ),
        )
        for cls in (Timeout, AnyOf, AllOf, ScheduledCallback):
            self._patch(
                cls, "__init__",
                self.count_wrapper(cls.__init__, f"sim.timers.{cls.__name__}"),
            )
        self._wrap_method(Link, "send", "net", _key_packet)
        self._wrap_method(Host, "receive", "net", _key_packet)
        self._wrap_method(Socket, "deliver", "net", _key_packet)
        self._wrap_method(ProgrammableSwitch, "receive", "switchsim", _key_packet)
        for cls in (RegisterArray, ObjectRegisterArray):
            for op in REGISTER_OPS:
                if op in cls.__dict__:
                    self._wrap_method(cls, op, "switchsim", _key_ctx)
        self._wrap_method(DraconisProgram, "process", "core", _key_packet)
        for op in QUEUE_OPS:
            self._wrap_method(SwitchCircularQueue, op, "core", _key_ctx)
        for hook in COLLECTOR_HOOKS:
            self._wrap_method(MetricsCollector, hook, "metrics", _key_task)
        self._patch(codec, "encode", self.span_wrapper(
            codec.encode, "protocol", "codec.encode", _key_message, size_of=len))
        self._patch(codec, "decode", self.span_wrapper(
            codec.decode, "protocol", "codec.decode"))
        self._patch(codec, "wire_size", self.span_wrapper(
            codec.wire_size, "protocol", "codec.wire_size", _key_message,
            size_of=int))
        self._wrap_method(_SwitchProtocol, "datagram_received", "live")
        self._wrap_method(LiveClient, "datagram_received", "live")
        self._wrap_method(LiveExecutor, "datagram_received", "live")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        return {name: self.self_ns[i] for i, name in enumerate(LAYERS)}

    def name_self_ns(self, prefix: str) -> int:
        """Self time of every span whose name starts with ``prefix``."""
        wanted = {i for i, n in enumerate(self.names) if n.startswith(prefix)}
        if not wanted:
            return 0
        names = np.frombuffer(self.name, dtype=np.uint16)
        durs = np.frombuffer(self.dur, dtype=np.int64)
        mask = np.isin(names, list(wanted))
        own = int(durs[mask].sum())
        # subtract the durations of direct children of the matching spans
        parents = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parents >= 0
        child_of_match = np.zeros(len(parents), dtype=bool)
        child_of_match[has_parent] = mask[parents[has_parent]]
        return own - int(durs[child_of_match].sum())

    def export(self, path: Path) -> Path:
        """Write every span as packed columns (``.npz``) plus name tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            dur_ns=np.frombuffer(self.dur, dtype=np.int64),
            uid=np.frombuffer(self.uid, dtype=np.int32),
            jid=np.frombuffer(self.jid, dtype=np.int32),
            tid=np.frombuffer(self.tid, dtype=np.int32),
            tables=np.frombuffer(
                json.dumps({"layers": LAYERS, "names": self.names}).encode(),
                dtype=np.uint8,
            ),
        )
        return path
