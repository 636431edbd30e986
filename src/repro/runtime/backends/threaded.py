"""Threaded backend: the runtime on real host threads with real kernels.

This is the faithful functional path: a workload-manager thread on behalf
of the management core, one resource-manager thread per PE (optionally
pinned with ``sched_setaffinity`` on Linux), tasks executing their actual
kernel functions against the emulated shared memory, and accelerator PEs
driving the functional FFT device through the full DMA protocol.

Wall-clock timing here is *measured*, not modeled — including the real
scheduling overhead of each WM pass — but a Python runtime cannot hit the
paper's microsecond dispatch latencies (interpreter + GIL), so absolute
numbers from this backend are only meaningful relative to each other.
Figure reproduction uses the virtual backend; this backend provides
functional verification (validation mode) and the Case Study 4 speedup
measurements.

Wake-ups: the handlers are plain lock-guarded state machines, so waking
the resource managers is this backend's job.  Each RM thread owns one
``threading.Event``; the WM sets it after a hand-off that started a task
(``assign``, or a ``reserve`` that found the PE idle), and the stop path
sets them all.  An RM checks its handler's state first and only then
waits on its event, with a short timeout so timed failures still fire.

Crash semantics: a kernel exception (not retried away by fault hardening)
fail-stops its PE — the handler transitions to ``PEStatus.FAILED`` so no
handler is left stuck in RUN — and every RM/WM failure collected during
teardown is chained into the raised error rather than silently dropped.
Fault injection (``EmulationSession.faults``) adds wall-clock analogues of
the virtual backend's faults: timed permanent PE failures checked at task
boundaries, per-attempt transient kernel faults with bounded
retry-with-backoff, and post-kernel stall slowdowns.
"""

from __future__ import annotations

import os
import threading
import time

from repro.appmodel.library import KernelContext
from repro.common.errors import EmulationError
from repro.common.log import get_logger
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.runtime.backends.base import (
    EmulationSession,
    ExecutionBackend,
    PerfModelOracle,
)
from repro.runtime.faults import InjectedKernelFault
from repro.runtime.handler import PEFailedError, PEStatus, ResourceHandler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import WorkloadManagerCore

_log = get_logger("runtime.backends.threaded")


def _try_pin(core_index: int) -> bool:
    """Best-effort affinity pin of the calling thread to one host core."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        available = os.sched_getaffinity(0)
        if core_index not in available:
            return False
        os.sched_setaffinity(threading.get_native_id(), {core_index})
        return True
    except OSError:  # pragma: no cover - platform dependent
        return False


def combine_failures(failures: list[BaseException]) -> BaseException:
    """One exception carrying *every* collected backend failure.

    A single failure is returned as-is (callers re-raise it unchanged); for
    concurrent failures the summary error chains the first as ``__cause__``
    and attaches the rest as notes, so no RM thread's exception is dropped.
    """
    if not failures:
        raise ValueError("combine_failures requires at least one failure")
    if len(failures) == 1:
        return failures[0]
    summary = "; ".join(f"{type(e).__name__}: {e}" for e in failures)
    err = EmulationError(
        f"{len(failures)} concurrent backend failures: {summary}"
    )
    err.__cause__ = failures[0]
    add_note = getattr(err, "add_note", None)
    if add_note is not None:  # pragma: no branch - 3.11+
        for extra in failures[1:]:
            add_note(f"concurrent failure: {type(extra).__name__}: {extra}")
    return err


class ThreadedBackend(ExecutionBackend):
    name = "threaded"

    def __init__(
        self,
        *,
        pin_threads: bool = False,
        poll_interval_s: float = 0.0005,
        timeout_s: float = 300.0,
        join_timeout_s: float = 5.0,
    ) -> None:
        self.pin_threads = pin_threads
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        self.join_timeout_s = join_timeout_s

    def run(self, session: EmulationSession) -> EmulationStats:
        for instance in session.instances:
            if instance.variables is None:
                raise EmulationError(
                    "threaded backend requires materialized instances "
                    "(instantiate with materialize_memory=True)"
                )
        if session.source is not None and not hasattr(
            session.source, "instances"
        ):
            # Open-loop streams pace arrivals in virtual time and release
            # instances on completion — neither fits the real-time threaded
            # execution model.
            raise EmulationError(
                "threaded backend cannot run open-loop arrival streams; "
                "use the virtual backend for --arrivals runs"
            )
        devices: dict[int, FFTAcceleratorDevice] = {}
        for pe in session.plan.pes:
            if pe.is_accelerator:
                devices[pe.pe_id] = session.platform.make_accelerator(
                    f"{pe.name}_dev"
                )
        if session.scheduler.oracle is None:
            session.scheduler.oracle = PerfModelOracle(session.perf_model, devices)

        core = WorkloadManagerCore(
            session.source if session.source is not None else session.instances,
            session.handlers,
            session.scheduler,
            session.stats,
            validate=session.validate_assignments,
            faults=session.faults,
            qos=session.qos,
        )
        if session.qos is not None:
            session.qos.start_run()
        # Reference start time: all timestamps are µs since this instant.
        ref = time.perf_counter()

        def clock() -> float:
            return (time.perf_counter() - ref) * 1e6

        wm_lock = threading.Lock()
        wm_condition = threading.Condition(wm_lock)
        completed: list[tuple[ResourceHandler, object]] = []
        #: tasks handed back after exhausted in-place retries
        requeues: list[tuple[ResourceHandler, object]] = []
        #: (handler, orphans) pairs from permanent PE failures
        pe_failures: list[tuple[ResourceHandler, list]] = []
        failure: list[BaseException] = []
        #: per-RM wake-up, set by the WM after a hand-off that started a task
        wakeups = {handler: threading.Event() for handler in session.handlers}
        #: asks every RM thread to exit (set once, on the stop path)
        stop = threading.Event()

        rm_threads = [
            threading.Thread(
                target=self._rm_loop,
                args=(session, handler, devices.get(handler.pe_id), clock,
                      wakeups[handler], stop, wm_condition,
                      completed, requeues, pe_failures, failure),
                name=f"rm-{handler.name}",
                daemon=True,
            )
            for handler in session.handlers
        ]
        for t in rm_threads:
            t.start()
        try:
            self._wm_loop(
                session, core, clock, wakeups, wm_condition,
                completed, requeues, pe_failures, failure,
            )
        finally:
            stop.set()
            for wake in wakeups.values():
                wake.set()
            for t in rm_threads:
                t.join(timeout=self.join_timeout_s)
            alive = [t.name for t in rm_threads if t.is_alive()]
            if alive:
                _log.warning(
                    "%d RM daemon thread(s) still alive after %.1fs join "
                    "timeout (hung kernel?): %s",
                    len(alive), self.join_timeout_s, ", ".join(alive),
                )
            # A task dispatched in the same WM pass that detected a failure
            # can be stranded: the RM observes the stop flag and exits
            # without ever claiming it.  Abort it so no handler whose RM has
            # exited is left stuck in RUN (a still-alive RM owns its state).
            for t, handler in zip(rm_threads, session.handlers):
                if not t.is_alive() and handler.status is PEStatus.RUN:
                    try:
                        handler.abort_task()
                    except EmulationError:  # pragma: no cover - RM exit race
                        pass
        if failure:
            raise combine_failures(failure)
        if session.stats.interrupted:
            # Drained early (signal or budget): partial stats are the
            # deliverable, so the completeness invariant does not apply.
            return session.stats
        session.stats.assert_all_complete()
        return session.stats

    # -- workload-manager thread (runs on the caller) ------------------------------------

    def _wm_loop(self, session, core, clock, wakeups, wm_condition,
                 completed, requeues, pe_failures, failure):
        self_serve = session.scheduler.uses_reservation

        def take():
            """Snapshot and clear the three RM → WM channels at once."""
            with wm_condition:
                taken = (list(completed), list(pe_failures), list(requeues))
                completed.clear()
                pe_failures.clear()
                requeues.clear()
            return taken

        if self.pin_threads:
            _try_pin(session.platform.management_core)
        deadline = time.perf_counter() + self.timeout_s
        qos = session.qos
        hb_timeout_us = qos.heartbeat_timeout_us if qos is not None else None
        draining = False
        drain_deadline = 0.0
        while not core.all_complete():
            if failure:
                return
            if time.perf_counter() > deadline:
                raise EmulationError(
                    f"threaded emulation exceeded {self.timeout_s}s "
                    f"({core.apps_completed}/{core.n_apps} apps complete)"
                )
            if qos is not None and not draining:
                reason = qos.poll()
                if reason is not None:
                    session.stats.mark_interrupted(reason, clock())
                    _log.warning(
                        "threaded emulation draining (%s); waiting up to "
                        "%.1fs for in-flight tasks",
                        reason, self.join_timeout_s,
                    )
                    draining = True
                    drain_deadline = time.perf_counter() + self.join_timeout_s
            if draining:
                # Graceful shutdown: stop injecting/scheduling, absorb what
                # finishes, and exit once every PE is quiet (or the drain
                # deadline passes — a hung kernel must not hold us hostage).
                core.absorb(*take(), clock())
                busy = any(
                    h.status in (PEStatus.RUN, PEStatus.COMPLETE)
                    for h in session.handlers
                )
                if not busy:
                    with wm_condition:
                        if not completed and not requeues and not pe_failures:
                            return
                elif time.perf_counter() > drain_deadline:
                    _log.warning(
                        "drain deadline exceeded; abandoning in-flight tasks"
                    )
                    return
                with wm_condition:
                    wm_condition.wait(timeout=self.poll_interval_s * 10)
                continue
            with wm_condition:
                if (
                    not completed
                    and not requeues
                    and not pe_failures
                    and not (
                        core.has_due_arrival(clock()) and core.admission_open()
                    )
                ):
                    nxt = core.next_arrival()
                    wait_s = self.poll_interval_s
                    if nxt is not None and core.admission_open():
                        wait_s = max(0.0, min(wait_s * 50, (nxt - clock()) / 1e6))
                        wait_s = max(wait_s, 1e-5)
                    wm_condition.wait(timeout=wait_s)
            t0 = clock()
            now = t0
            n_comp = core.absorb(*take(), now)
            if hb_timeout_us is not None:
                self._check_heartbeats(session, core, now, hb_timeout_us)
            core.inject_due(now)
            ready_len = len(core.ready)
            assignments = core.run_policy(now)
            core.commit(assignments, clock())
            for a in assignments:
                try:
                    if not self_serve:
                        a.handler.assign(a.task)
                        wakeups[a.handler].set()
                    elif a.handler.reserve(a.task):
                        wakeups[a.handler].set()
                    if hb_timeout_us is not None:
                        a.handler.heartbeat = clock()
                except PEFailedError:
                    # Lost the race against a concurrent PE failure.
                    core.recover_failed_dispatch(a.task, clock())
            # Measured overhead: monitor + ready update + policy + dispatch.
            if n_comp or assignments or ready_len:
                session.stats.record_scheduling_pass(clock() - t0, ready_len)
            with wm_condition:
                pending = len(completed) + len(requeues) + len(pe_failures)
            try:
                core.check_liveness(clock(), pending_completions=pending)
            except EmulationError:
                # A completion may have landed between the snapshot and the
                # verdict; only a still-empty queue is a real deadlock.
                with wm_condition:
                    if not completed and not requeues and not pe_failures:
                        raise

    @staticmethod
    def _check_heartbeats(session, core, now, hb_timeout_us):
        """QoS watchdog: fail-stop PEs whose RM shows no sign of life.

        A PE stuck in RUN with a stale heartbeat has a hung kernel (the RM
        stamps the heartbeat at dispatch and around every attempt).  The
        existing ``mark_failed`` path orphans its work for rescheduling on
        the surviving PEs; the hung RM thread notices ``handler.failed``
        when (if) its kernel returns and exits without touching the task.
        """
        for handler in session.handlers:
            if handler.failed or handler.heartbeat < 0.0:
                continue
            if handler.status is not PEStatus.RUN:
                continue
            stale = now - handler.heartbeat
            if stale <= hb_timeout_us:
                continue
            _log.warning(
                "watchdog: PE %s unresponsive for %.0fms (timeout %.0fms); "
                "fail-stopping it",
                handler.name, stale / 1e3, hb_timeout_us / 1e3,
            )
            orphans = handler.mark_failed(now)
            core.absorb_pe_failure(
                handler, orphans, now, kind="watchdog_failstop"
            )

    # -- resource-manager threads -----------------------------------------------------------

    def _rm_loop(self, session, handler, device, clock, wake, stop,
                 wm_condition, completed, requeues, pe_failures, failure):
        if self.pin_threads:
            _try_pin(handler.pe.host_core)
        self_serve = session.scheduler.uses_reservation
        app_handler = session.app_handler
        injector = session.faults
        fail_at = injector.fail_at(handler) if injector is not None else None
        slowdown = (
            injector.slowdown_for(handler) if injector is not None else 1.0
        )
        harden = injector.harden if injector is not None else False

        def fail_permanently() -> None:
            """Fail-stop this PE and hand its orphaned work to the WM."""
            orphans = handler.mark_failed(clock())
            with wm_condition:
                pe_failures.append((handler, orphans))
                wm_condition.notify_all()

        try:
            while True:
                if (
                    fail_at is not None
                    and not handler.failed
                    and clock() >= fail_at
                ):
                    fail_permanently()
                    return
                # Level-triggered: clear, check the handler, then wait — a
                # hand-off after the check sets the event, so none is lost.
                wake.clear()
                if stop.is_set() or handler.failed:
                    return
                task = (
                    handler.current_task
                    if handler.status is PEStatus.RUN
                    else None
                )
                if task is None:
                    wake.wait(timeout=0.05)
                    continue
                while task is not None:
                    # Timed failures are checked at task boundaries: a
                    # kernel already executing runs to completion (wall
                    # clock cannot be interrupted mid-kernel).
                    if (
                        fail_at is not None
                        and not handler.failed
                        and clock() >= fail_at
                    ):
                        fail_permanently()
                        return
                    binding = task.chosen_platform
                    if binding is None:
                        raise EmulationError(
                            f"PE {handler.name}: task without platform binding"
                        )
                    kernel = app_handler.resolved(task.app_name).kernel_for(
                        task.name, binding.name
                    )
                    ctx = KernelContext(
                        task.app.variables,
                        arg_names=task.node.arguments,
                        platform=binding.name,
                        node_name=task.name,
                        app_name=task.app_name,
                        device=device,
                    )
                    task.mark_running(clock())
                    attempts = 0
                    requeued = False
                    while True:
                        # Sign of life for the QoS watchdog: stamped before
                        # every attempt, never *during* a kernel — which is
                        # exactly what makes a hung kernel detectable.
                        handler.heartbeat = clock()
                        injected = (
                            injector.draw_fault(handler)
                            if injector is not None
                            else None
                        )
                        try:
                            if injected is not None:
                                raise InjectedKernelFault(injected)
                            kernel(ctx)
                            break
                        except Exception as exc:
                            is_injected = isinstance(exc, InjectedKernelFault)
                            if injector is None or not (is_injected or harden):
                                raise EmulationError(
                                    f"kernel {binding.runfunc!r} failed on "
                                    f"{task.qualified_name()}: {exc}"
                                ) from exc
                            attempts += 1
                            kind = exc.kind if is_injected else "kernel_error"
                            session.stats.record_transient_fault(
                                handler.name, task.qualified_name(),
                                attempts, clock(), kind,
                            )
                            if handler.failed:
                                # The watchdog (or a timed failure) already
                                # fail-stopped this PE and orphaned the
                                # task; it is no longer ours to touch.
                                return
                            if attempts > injector.max_retries:
                                # Retries exhausted: return the task to the
                                # WM for rescheduling on another PE.
                                try:
                                    task.mark_requeued(clock())
                                    next_task = handler.abort_task(
                                        self_serve=self_serve
                                    )
                                except EmulationError:
                                    if handler.failed:
                                        return
                                    raise
                                with wm_condition:
                                    requeues.append((handler, task))
                                    wm_condition.notify_all()
                                task = next_task
                                requeued = True
                                break
                            time.sleep(
                                min(injector.backoff_us(attempts) / 1e6, 0.05)
                            )
                    if requeued:
                        continue
                    if handler.failed:
                        # The kernel returned after the watchdog fail-stopped
                        # this PE: the task was orphaned and requeued (maybe
                        # even re-dispatched elsewhere) — drop the stale
                        # result and exit; the PE is terminally dead.
                        return
                    if slowdown > 1.0:
                        # Model a degraded PE as a post-kernel stall
                        # proportional to the measured kernel time.
                        elapsed_us = clock() - task.start_time
                        time.sleep(
                            min((slowdown - 1.0) * elapsed_us / 1e6, 0.25)
                        )
                    try:
                        task.mark_complete(clock())
                        next_task = handler.finish_task(self_serve=self_serve)
                    except EmulationError:
                        if handler.failed:
                            # Lost the tiny race against a concurrent
                            # watchdog fail-stop; same story as above.
                            return
                        raise
                    with wm_condition:
                        completed.append((handler, task))
                        wm_condition.notify_all()
                    task = next_task
        except BaseException as exc:  # propagate to the WM thread
            # Fail-stop the PE so no handler is left stuck in RUN and the
            # WM requeues (or degrades) whatever work it still held.
            try:
                orphans = handler.mark_failed(clock())
            except Exception:  # pragma: no cover - defensive
                orphans = []
            failure.append(exc)
            with wm_condition:
                if orphans:
                    pe_failures.append((handler, orphans))
                wm_condition.notify_all()
