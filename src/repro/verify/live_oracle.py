"""The wall-clock invariant oracle: what must hold in every *live* run.

The simulator oracle (:mod:`repro.verify.oracle`) reads a deterministic
cluster at known instants; a live run offers neither, so this oracle is
built around what wall time *can* promise. It shares the
:class:`~repro.verify.oracle.Violation` / ``OracleReport`` vocabulary and
checks seven families against a live chaos cluster:

* **task conservation** — by ``(uid, jid, tid)`` key: no phantom
  completions (a completion for a key never submitted), no task still
  pending after the drain (silently lost), and the client's bookkeeping
  sums exactly (submitted = done + gave-up + pending). Duplicates and
  late completions are counted, never violations — resubmit races under
  loss *should* produce them.
* **epoch monotonicity** — the switch's per-executor epoch history
  (every ``RegisterAck`` ever sent) is strictly increasing: a
  kill/restart or endpoint move must never reuse or regress an epoch.
* **in-flight bound** — every executor record satisfies
  ``0 <= in_flight <= max_outstanding``, sampled mid-run and at the end.
  (``in_flight == 0`` at quiescence is *not* required: a credit leaked
  by a dropped assignment only resyncs once the executor saturates, by
  design.)
* **register sanity** — the scheduler program's own control-plane
  invariants (circular-queue pointer windows) pass mid-run and at the
  end.
* **quiescence** — after the drain: switch queues empty, every fault
  window closed, no reorder-delayed packet still buffered, no injector
  timer or restart still pending, every executor's ``time_scale`` back
  at baseline.
* **parser robustness** — the corruption fuzz never provoked anything
  but ``ProtocolError`` out of the codec.
* **election safety** — the sim oracle's own check
  (:func:`~repro.verify.oracle.check_election`) over the soft switch's
  election register and the live replicas: strictly increasing terms,
  no fenced action from a deposed leader, no register term regression,
  at most one replica claiming leadership at the final check, and a
  leader whenever a replica survived the plan (takeover completed
  inside the settle window).

The oracle is duck-typed on the handle objects the chaos runner builds
(it lives in ``verify/`` and must not import ``repro.live``); attach it
before the workload starts, ``check_final`` after the settle loop.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.verify.oracle import OracleReport, Violation, check_election

#: cap on sampler-observed violations kept (one broken bound repeats
#: every sample; the first few carry all the signal)
MAX_SAMPLED_VIOLATIONS = 20

DEFAULT_SAMPLE_INTERVAL_S = 0.05


class LiveInvariantOracle:
    """Checks the live invariant catalogue against one chaos cluster.

    All reads are control-plane only (registry records, client counters,
    program occupancy) — sampling never touches a socket, so attaching
    the oracle cannot perturb the run beyond its own event-loop ticks.
    """

    def __init__(
        self,
        switch: Any,
        client: Any,
        executors: Dict[int, Any],
        retired: Optional[List[Any]] = None,
        chaos: Any = None,
        injector: Any = None,
        controllers: Optional[Dict[int, Any]] = None,
        base_time_scale: float = 1.0,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
    ) -> None:
        self.switch = switch
        self.client = client
        self.executors = executors
        self.retired = retired if retired is not None else []
        self.chaos = chaos
        self.injector = injector
        self.controllers = controllers if controllers is not None else {}
        self.base_time_scale = base_time_scale
        self.sample_interval_s = sample_interval_s
        self._sampled: List[Violation] = []
        self._suppressed = 0
        self._checks = 0
        self._samples = 0
        self._sampler: Optional[asyncio.Task] = None

    # -- wiring ------------------------------------------------------------

    def attach(self) -> "LiveInvariantOracle":
        """Start the mid-run sampler (idempotent)."""
        if self._sampler is None:
            self._sampler = asyncio.get_running_loop().create_task(
                self._sample_loop()
            )
        return self

    async def aclose(self) -> None:
        sampler = self._sampler
        self._sampler = None
        if sampler is not None:
            sampler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sampler

    async def _sample_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sample_interval_s)
            self._samples += 1
            self._sample_once()

    def _sample_once(self) -> None:
        for violation in self._probe_registers("mid-run"):
            if len(self._sampled) >= MAX_SAMPLED_VIOLATIONS:
                self._suppressed += 1
            else:
                self._sampled.append(violation)

    # -- shared probes -----------------------------------------------------

    def _probe_registers(self, phase: str) -> List[Violation]:
        """In-flight bounds + program pointer checks (cheap, reentrant)."""
        out: List[Violation] = []
        self._checks += 1
        for record in self.switch.executors.values():
            if not 0 <= record.in_flight <= record.max_outstanding:
                out.append(
                    Violation(
                        "in-flight-bound",
                        f"{phase}: exec{record.executor_id} in_flight="
                        f"{record.in_flight} outside "
                        f"[0, {record.max_outstanding}]",
                    )
                )
        self._checks += 1
        try:
            self.switch.program.check_invariants()
        except ReproError as exc:
            out.append(
                Violation("register-sanity", f"{phase}: {exc}")
            )
        return out

    # -- the final sweep ---------------------------------------------------

    def check_final(self) -> OracleReport:
        report = OracleReport(
            violations=list(self._sampled), checks=self._checks
        )
        if self._suppressed:
            report.violations.append(
                Violation(
                    "in-flight-bound",
                    f"... and {self._suppressed} more sampled "
                    "violation(s) suppressed",
                )
            )
        self._check_conservation(report)
        self._check_epochs(report)
        report.violations.extend(self._probe_registers("final"))
        report.checks = self._checks
        self._check_quiescence(report)
        self._check_parser(report)
        self._check_election(report)
        report.checks = self._checks
        return report

    def _check_conservation(self, report: OracleReport) -> None:
        client = self.client
        self._checks += 3
        phantoms = client.counters.get("phantoms", 0)
        if phantoms:
            report.violations.append(
                Violation(
                    "task-conservation",
                    f"{phantoms} phantom completion(s): completions for "
                    "task keys the client never submitted",
                )
            )
        pending = client.pending_keys()
        if pending:
            report.violations.append(
                Violation(
                    "task-conservation",
                    f"{len(pending)} task(s) neither completed nor given "
                    f"up after the drain; first: "
                    f"{sorted(pending)[:5]}",
                )
            )
        submitted = client.tasks_submitted
        accounted = (
            client.completed_count
            + client.gave_up_count
            + client.pending_count
        )
        if submitted != accounted:
            report.violations.append(
                Violation(
                    "task-conservation",
                    f"bookkeeping mismatch: submitted={submitted} but "
                    f"done+gave_up+pending={accounted}",
                )
            )

    def _check_epochs(self, report: OracleReport) -> None:
        self._checks += 1
        for executor_id, history in self.switch.epoch_history.items():
            for earlier, later in zip(history, history[1:]):
                if later <= earlier:
                    report.violations.append(
                        Violation(
                            "epoch-monotonicity",
                            f"exec{executor_id} acked epochs {history}: "
                            f"{later} follows {earlier}",
                        )
                    )
                    break

    def _check_quiescence(self, report: OracleReport) -> None:
        self._checks += 1
        queued = self.switch.total_queued()
        if queued:
            report.violations.append(
                Violation(
                    "quiescence",
                    f"{queued} task(s) still queued on the switch after "
                    "the drain",
                )
            )
        if self.chaos is not None:
            self._checks += 2
            if not self.chaos.windows_closed():
                report.violations.append(
                    Violation(
                        "quiescence",
                        "fault windows still open at final check "
                        f"(elapsed {self.chaos.elapsed_ns()}ns < "
                        f"{self.chaos.last_end_ns()}ns)",
                    )
                )
            delayed = self.chaos.pending_delayed()
            if delayed:
                report.violations.append(
                    Violation(
                        "quiescence",
                        f"{delayed} reorder-delayed packet(s) still "
                        "buffered in chaos transports",
                    )
                )
        if self.injector is not None:
            self._checks += 1
            if not self.injector.idle():
                report.violations.append(
                    Violation(
                        "quiescence",
                        "fault injector still has scheduled timers or "
                        "unfinished restarts",
                    )
                )
        self._checks += 1
        for executor in self.executors.values():
            if executor.closed:
                continue  # permanently crashed; no speed to restore
            scale = executor.config.time_scale
            if scale != self.base_time_scale:
                report.violations.append(
                    Violation(
                        "quiescence",
                        f"exec{executor.executor_id} time_scale={scale} "
                        f"not restored to {self.base_time_scale}",
                    )
                )

    def _check_parser(self, report: OracleReport) -> None:
        if self.chaos is None:
            return
        self._checks += 1
        crashes = self.chaos.counters.get("parser_crashes", 0)
        if crashes:
            report.violations.append(
                Violation(
                    "parser-robustness",
                    f"codec raised non-ProtocolError on {crashes} "
                    "corrupted frame(s)",
                )
            )

    def _check_election(self, report: OracleReport) -> None:
        alive = [r for r in self.controllers.values() if not r.closed]
        self._checks += check_election(
            getattr(self.switch, "election", None),
            alive if self.controllers else None,
            report.violations,
        )
