"""Virtual-time backend: the runtime state machine on a discrete-event clock.

Models the C/pthreads runtime's *behaviour* — not its host — with
calibrated timing:

* the workload manager runs as a DES process pinned to the platform's
  management core; each pass charges the scheduler-cost model's overhead
  (monitor + ready-list update + policy + dispatch) on that core, so a slow
  overlay core (Odroid LITTLE) inflates overhead exactly as in Fig. 11;
* one resource-manager process per PE, pinned to its host core from the
  affinity plan.  CPU PEs consume their core for the kernel's modeled
  service time; accelerator PEs consume their core for the DMA transfers,
  then *sleep* while the device computes (paper Sec. II-D), freeing the
  core for co-resident manager threads;
* host cores are round-robin time-sliced with a context-switch cost, which
  reproduces the 2C+2F preemption anomaly of Fig. 9.

Deterministic for a fixed seed: same workload, same policy, same numbers.
"""

from __future__ import annotations

from collections import deque

from repro import core as core_select
from repro.common.errors import EmulationError
from repro.common.log import get_logger
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.runtime.backends.base import (
    EmulationSession,
    ExecutionBackend,
    PerfModelOracle,
)
from repro.runtime.faults import FaultInjector
from repro.runtime.handler import PEFailedError, PEStatus, ResourceHandler
from repro.runtime.stats import EmulationStats
from repro.runtime.workload_manager import WorkloadManagerCore
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.resources import HostCore, Mailbox

_log = get_logger("runtime.backends.virtual")


class _Waker:
    """Level-triggered wakeup: fire() releases the current wait, if any.

    The workload manager used to sleep on ``AnyOf([wait, arrival_timer])``,
    which costs an AnyOf allocation plus an extra event hop per pass.  Now
    the WM yields the wait event directly and arrival timers call
    :meth:`wake` straight at the waker.  To keep event ordering
    bit-identical with the AnyOf formulation, :meth:`fire` relays through
    one ``call_at`` hop — the relay push stands in for the old wait-event
    push and the wait push stands in for the old AnyOf push, so every
    same-instant contender sees the same heap sequence as before.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._wait = None
        self._relay_pending = False

    def wait_event(self):
        self._wait = self.engine.event()
        self._relay_pending = False
        return self._wait

    def fire(self) -> None:
        wait = self._wait
        if wait is None or wait.triggered or self._relay_pending:
            return
        self._relay_pending = True
        self.engine.call_at(self.engine.now, self._relay)

    def _relay(self) -> None:
        self._relay_pending = False
        self.wake()

    def wake(self) -> None:
        """Succeed the current wait immediately (arrival-timer path)."""
        wait = self._wait
        if wait is not None and not wait.triggered:
            wait.succeed()


class VirtualBackend(ExecutionBackend):
    name = "virtual"

    def __init__(
        self,
        *,
        quantum_us: float = 100.0,
        switch_cost_us: float = 8.0,
        max_events: int | None = None,
    ) -> None:
        self.quantum_us = quantum_us
        self.switch_cost_us = switch_cost_us
        self.max_events = max_events
        #: engine counters from the most recent run() (perf harness input)
        self.last_run_info: dict | None = None

    # -- entry point -----------------------------------------------------------------

    def run(self, session: EmulationSession) -> EmulationStats:
        engine = core_select.make_engine()
        platform = session.platform

        # Host cores: the management core plus every core hosting an RM thread.
        cores: dict[int, HostCore] = {}
        needed = {platform.management_core} | session.plan.cores_in_use()
        for idx in sorted(needed):
            spec = platform.core(idx)
            cores[idx] = HostCore(
                engine,
                spec.name,
                quantum=self.quantum_us,
                switch_cost=self.switch_cost_us,
                speed=spec.speed,
            )

        # Accelerator devices (timing models only in this backend).
        devices: dict[int, FFTAcceleratorDevice] = {}
        for pe in session.plan.pes:
            if pe.is_accelerator:
                devices[pe.pe_id] = platform.make_accelerator(f"{pe.name}_dev")

        # Give the scheduler its oracle if it arrived without one.
        if session.scheduler.oracle is None:
            session.scheduler.oracle = PerfModelOracle(session.perf_model, devices)

        injector = session.faults
        core = WorkloadManagerCore(
            session.source if session.source is not None else session.instances,
            session.handlers,
            session.scheduler,
            session.stats,
            validate=session.validate_assignments,
            faults=injector,
            qos=session.qos,
        )
        if session.qos is not None:
            session.qos.start_run()
        waker = _Waker(engine)
        completed: deque[tuple[ResourceHandler, object]] = deque()
        #: tasks handed back by RMs after exhausting in-place retries
        requeues: deque[tuple[ResourceHandler, object]] = deque()
        #: (handler, orphans) pairs from permanent PE failures
        fault_events: deque[tuple[ResourceHandler, list]] = deque()
        mailboxes: dict[int, Mailbox] = {
            h.pe_id: Mailbox(engine) for h in session.handlers
        }

        rm_procs: dict[int, Process] = {}
        for handler in session.handlers:
            device = devices.get(handler.pe_id)
            host = cores[handler.pe.host_core]
            rm_procs[handler.pe_id] = engine.process(
                self._rm_process(
                    engine, session, handler, host, device,
                    mailboxes[handler.pe_id], completed, requeues, waker,
                )
            )
        engine.process(
            self._wm_process(
                engine, session, core, cores[platform.management_core],
                mailboxes, completed, requeues, fault_events, waker,
            )
        )
        if injector is not None:
            self._schedule_failures(
                engine, injector, session.handlers, rm_procs, core,
                fault_events, waker,
            )
        engine.run(max_events=self.max_events)
        self.last_run_info = {
            "events_fired": engine.events_fired,
            "events_scheduled": engine._seq,
            "final_time_us": engine.now,
        }
        if session.stats.interrupted:
            # Drained early (signal or budget): partial stats are the
            # deliverable, so the completeness invariants do not apply.
            return session.stats
        if not core.all_complete():
            raise EmulationError(
                f"virtual emulation stalled: {core.apps_completed}/"
                f"{core.n_apps} applications completed "
                f"({core.apps_degraded} degraded)"
            )
        session.stats.assert_all_complete()
        return session.stats

    # -- fault injection -----------------------------------------------------------

    @staticmethod
    def _schedule_failures(
        engine: Engine,
        injector: FaultInjector,
        handlers: list[ResourceHandler],
        rm_procs: dict[int, Process],
        core: WorkloadManagerCore,
        fault_events: deque,
        waker: _Waker,
    ) -> None:
        """Arm one engine callback per spec'd permanent PE failure."""

        def make_kill(handler: ResourceHandler):
            def kill() -> None:
                if handler.failed or core.all_complete():
                    return
                orphans = handler.mark_failed(engine.now)
                proc = rm_procs[handler.pe_id]
                if not proc.triggered:
                    # Fail-stop: abandon whatever the RM is doing.  An
                    # uncaught Interrupt is a clean process exit; a doomed
                    # in-flight attempt still charges its host core (the
                    # _Consume event self-drives) — modeling the core being
                    # wedged until the failure is fenced off.
                    proc.interrupt("pe-failure")
                fault_events.append((handler, orphans))
                waker.fire()

            return kill

        for handler in handlers:
            t_fail = injector.fail_at(handler)
            if t_fail is not None:
                engine.call_at(t_fail, make_kill(handler))

    # -- workload-manager process -------------------------------------------------------

    def _wm_process(
        self,
        engine: Engine,
        session: EmulationSession,
        core: WorkloadManagerCore,
        mgmt_core: HostCore,
        mailboxes: dict[int, Mailbox],
        completed: deque,
        requeues: deque,
        fault_events: deque,
        waker: _Waker,
    ):
        cost_model = session.cost_model
        policy = session.scheduler.name
        self_serve = session.scheduler.uses_reservation
        n_pes = session.n_pes
        qos = session.qos
        draining = False
        wm_token = object()  # identity on the management core

        while not core.all_complete():
            if qos is not None and not draining:
                reason = qos.poll(engine.now)
                if reason is not None:
                    session.stats.mark_interrupted(reason, engine.now)
                    _log.warning(
                        "virtual emulation draining at t=%.1fus (%s)",
                        engine.now, reason,
                    )
                    draining = True
            if draining:
                # Graceful shutdown: absorb whatever already finished, stop
                # injecting/scheduling, and exit once every PE is quiet.
                core.absorb(completed, fault_events, requeues, engine.now)
                completed.clear()
                fault_events.clear()
                requeues.clear()
                if not any(
                    h.status in (PEStatus.RUN, PEStatus.COMPLETE)
                    for h in session.handlers
                ):
                    return
                yield waker.wait_event()
                continue
            # Sleep until something is actionable: a buffered completion, a
            # fault event to absorb, or the workload queue's head arrival
            # coming due (and admittable — a defer-blocked arrival waits
            # for the completion that frees capacity, not for a timer).
            if (
                not completed
                and not fault_events
                and not requeues
                and not (
                    core.has_due_arrival(engine.now) and core.admission_open()
                )
            ):
                wait = waker.wait_event()
                nxt = core.next_arrival()
                if nxt is not None and core.admission_open():
                    engine.call_at(max(nxt, engine.now), waker.wake)
                yield wait
                continue  # re-evaluate state at the wakeup instant

            now = engine.now
            # absorb drains synchronously; nothing can append mid-call, so
            # hand it the deques and clear afterwards instead of copying
            # every pass.
            n_comp = core.absorb(completed, fault_events, requeues, now)
            completed.clear()
            fault_events.clear()
            requeues.clear()
            core.inject_due(now)
            ready_len = len(core.ready)
            assignments = core.run_policy(now)

            overhead, invocations = cost_model.pass_cost(
                policy, ready_len, n_pes, n_comp, len(assignments),
                per_completion=not self_serve,
            )
            # The pass executes serially on the management core; HostCore
            # divides by core speed (slow LITTLE overlay -> larger overhead,
            # the Fig. 11 mechanism).
            yield from mgmt_core.consume(wm_token, overhead)
            effective = overhead / mgmt_core.speed
            for _ in range(invocations):
                session.stats.record_scheduling_pass(
                    effective / invocations, ready_len
                )

            dispatch_now = engine.now
            core.commit(assignments, dispatch_now)
            for a in assignments:
                try:
                    if self_serve:
                        started = a.handler.reserve(a.task)
                        if started:
                            mailboxes[a.handler.pe_id].put(a.task)
                    else:
                        a.handler.assign(a.task)
                        mailboxes[a.handler.pe_id].put(a.task)
                except PEFailedError:
                    # The PE failed while this pass was charging its
                    # overhead; put the task back for the next pass.
                    core.recover_failed_dispatch(a.task, dispatch_now)
            core.check_liveness(
                dispatch_now,
                pending_completions=(
                    len(completed) + len(requeues) + len(fault_events)
                ),
            )

    # -- resource-manager process ----------------------------------------------------------

    def _rm_process(
        self,
        engine: Engine,
        session: EmulationSession,
        handler: ResourceHandler,
        host: HostCore,
        device: FFTAcceleratorDevice | None,
        mailbox: Mailbox,
        completed: deque,
        requeues: deque,
        waker: _Waker,
    ):
        perf = session.perf_model
        pe_type = handler.pe.pe_type
        is_accel = pe_type.is_accelerator
        jitter_rng = (
            session.seeds.rng("jitter", handler.name) if session.jitter else None
        )
        self_serve = session.scheduler.uses_reservation
        injector = session.faults
        slowdown = (
            injector.slowdown_for(handler) if injector is not None else 1.0
        )

        while True:
            task = yield mailbox.get()
            while task is not None:
                binding = task.chosen_platform
                if binding is None:
                    raise EmulationError(
                        f"PE {handler.name}: task {task.qualified_name()} "
                        "dispatched without a platform binding"
                    )
                jitter = (
                    perf.jitter(jitter_rng) if jitter_rng is not None else 1.0
                )
                task.mark_running(engine.now)
                if is_accel:
                    if device is None:
                        raise EmulationError(
                            f"PE {handler.name}: accelerator PE without device"
                        )
                    points = perf.accel_points(binding.runfunc)
                    nbytes = perf.accel_transfer_bytes(binding.runfunc)
                    t_in = device.dma.transfer_time(nbytes)
                    t_out = device.dma.transfer_time(nbytes)
                    t_compute = device.compute_time(points) * jitter
                    durations = (t_in, t_compute, t_out)
                else:
                    service = perf.cpu_time(binding.runfunc, pe_type) * jitter
                    durations = (service,)
                if injector is None:
                    # Fault-free fast path: identical yield sequence (and
                    # therefore identical event ordering) to the pre-fault
                    # backend.
                    yield from self._charge(engine, handler, host, is_accel, durations)
                else:
                    if slowdown != 1.0:
                        durations = tuple(d * slowdown for d in durations)
                    attempts = 0
                    gave_up = False
                    while True:
                        # The fault is decided up front (one RNG draw per
                        # attempt); the attempt still charges its full
                        # modeled time before the fault manifests.
                        fault = injector.draw_fault(handler)
                        yield from self._charge(
                            engine, handler, host, is_accel, durations
                        )
                        if fault is None:
                            break
                        attempts += 1
                        session.stats.record_transient_fault(
                            handler.name, task.qualified_name(), attempts,
                            engine.now, fault,
                        )
                        if attempts > injector.max_retries:
                            gave_up = True
                            break
                        yield engine.timeout(injector.backoff_us(attempts))
                    if gave_up:
                        # Retries exhausted: hand the task back to the WM
                        # for rescheduling and continue with reserved work.
                        task.mark_requeued(engine.now)
                        next_task = handler.abort_task(self_serve=self_serve)
                        requeues.append((handler, task))
                        waker.fire()
                        task = next_task
                        continue
                task.mark_complete(engine.now)
                next_task = handler.finish_task(self_serve=self_serve)
                completed.append((handler, task))
                waker.fire()
                task = next_task

    @staticmethod
    def _charge(
        engine: Engine,
        handler: ResourceHandler,
        host: HostCore,
        is_accel: bool,
        durations: tuple,
    ):
        """Charge one execution attempt's modeled time (one task, one try)."""
        if is_accel:
            t_in, t_compute, t_out = durations
            # DDR -> BRAM transfer occupies the manager's host core.
            yield from host.consume(handler, t_in)
            # The manager thread sleeps while the device computes,
            # releasing the core to co-resident manager threads.
            yield engine.timeout(t_compute)
            # BRAM -> DDR transfer occupies the core again.
            yield from host.consume(handler, t_out)
        else:
            # cpu_time() already applied the PE-type speed; the host
            # core's own speed equals the PE's, so consume the
            # pre-scaled duration at unit core speed.
            yield from host.consume(handler, durations[0] * host.speed)
