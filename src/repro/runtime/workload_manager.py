"""Workload-manager core logic (paper Sec. II-C, Fig. 3).

Backend-independent state machine shared by the virtual and threaded
backends: injection of arrived applications, completion monitoring and
ready-list maintenance, policy invocation with assignment validation, and
dispatch bookkeeping.  The backends own *time* (virtual clock vs. wall
clock) and the mechanics of waiting; this core owns *what happens* in each
workload-manager pass.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from repro import core as core_select
from repro.appmodel.instance import ApplicationInstance, TaskInstance, TaskState
from repro.common.errors import EmulationError
from repro.runtime.faults import FaultInjector
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.qos import QoSController
from repro.runtime.schedulers.base import Assignment, Scheduler, validate_assignments
from repro.runtime.stats import EmulationStats


class ReadyList:
    """The ready task list, tuned for the WM's access pattern.

    Policies iterate it in FIFO order and read its length; the WM removes
    the dispatched tasks each pass.  FIFO policies dispatch from the front,
    so removals are consumed two ways: a ``_start`` offset swallows the
    contiguous dead prefix immediately (the common case), and the rare
    mid-list removal sits in a tombstone set compacted lazily once the
    tombstones outnumber live entries.  Iteration is therefore a plain
    slice walk — no per-item id() filtering — while each pass stays
    O(live + dispatched) amortized instead of O(queue length).

    It also keeps a live count per platform class (:attr:`class_counts`),
    updated in O(1) per task, which lets the EFT-family placement loop
    stop once no remaining task can reach an open PE.
    """

    __slots__ = ("_items", "_start", "_dead", "_ids", "_counts", "_node_cls")

    def __init__(self) -> None:
        self._items: list[TaskInstance] = []
        self._start = 0
        self._dead: set[int] = set()
        #: id(task) -> platform class of every live task
        self._ids: dict[int, tuple[str, ...] | None] = {}
        # Live tasks per platform class (``node.platform_names()``), kept
        # for the EFT-family early exit; items without a task node count
        # under None.  Zero counts are deleted.
        self._counts: dict[tuple[str, ...] | None, int] = {}
        #: id(archetype node) -> (node, class); the node pins its id
        self._node_cls: dict[int, tuple] = {}

    def extend(self, tasks: list[TaskInstance]) -> None:
        dead = self._dead
        if dead and any(id(t) in dead for t in tasks):
            # A task re-entering while its mid-list tombstone is still
            # pending (fault requeue of a dispatched task, or an id()
            # recycled onto a tombstoned address): without compaction the
            # stale tombstone would make the new entry invisible to
            # iteration while len() still counts it, silently losing the
            # task.  Compact now so the dead occurrence is physically gone
            # before the id goes live again.
            self._compact()
        self._items.extend(tasks)
        ids, counts, node_cls = self._ids, self._counts, self._node_cls
        for t in tasks:
            key = id(t)
            if key in ids:
                continue
            node = getattr(t, "node", None)
            hit = node_cls.get(id(node))
            if hit is None:
                cls = None if node is None else node.platform_names()
                hit = node_cls[id(node)] = (node, cls)
            cls = hit[1]
            ids[key] = cls
            counts[cls] = counts.get(cls, 0) + 1

    def remove_ids(self, ids: set[int]) -> None:
        self._dead |= ids
        live, counts = self._ids, self._counts
        for key in ids:
            if key in live:
                cls = live.pop(key)
                n = counts[cls] - 1
                if n:
                    counts[cls] = n
                else:
                    del counts[cls]
        items, dead = self._items, self._dead
        start, n = self._start, len(items)
        while start < n and id(items[start]) in dead:
            dead.remove(id(items[start]))
            start += 1
        self._start = start
        if start > 64 and start * 2 > n:
            del items[:start]
            self._start = 0
        if len(dead) > max(64, len(live)):
            self._compact()

    @property
    def class_counts(self) -> dict[tuple[str, ...] | None, int]:
        """Live tasks per platform class (read-only view)."""
        return self._counts

    def _compact(self) -> None:
        items = self._items
        if self._start:
            items = items[self._start:]
            self._start = 0
        dead = self._dead
        if dead:
            items = [t for t in items if id(t) not in dead]
            dead.clear()
        self._items = items

    def __iter__(self):
        start = self._start
        dead = self._dead
        if not dead:
            if start == 0:
                return iter(self._items)
            return islice(self._items, start, None)
        return (
            t for t in islice(self._items, start, None) if id(t) not in dead
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __contains__(self, task: object) -> bool:
        return id(task) in self._ids

    def snapshot(self) -> list[TaskInstance]:
        return list(iter(self))


class MaterializedSource:
    """Finite instance queue over a prebuilt, arrival-ordered list.

    The closed-loop path: every :class:`ApplicationInstance` exists before
    the emulation starts (the application handler built the list in
    arrival order).  Injection is an index walk, so results through this
    source are bit-identical to the historical list-indexing WM.
    """

    __slots__ = ("instances", "_idx")

    #: lazy sources set this False when instances carry no emulated memory
    materialize = True

    def __init__(self, instances: list[ApplicationInstance]) -> None:
        self.instances = instances
        self._idx = 0

    @property
    def total(self) -> int:
        return len(self.instances)

    @property
    def produced(self) -> int:
        return self._idx

    @property
    def exhausted(self) -> bool:
        return self._idx >= len(self.instances)

    def peek_time(self) -> float | None:
        if self._idx >= len(self.instances):
            return None
        return self.instances[self._idx].arrival_time

    def pop(self) -> ApplicationInstance:
        instance = self.instances[self._idx]
        self._idx += 1
        return instance


class WorkloadManagerCore:
    """One emulation's WM state: workload queue, ready list, dispatch."""

    def __init__(
        self,
        workload: list[ApplicationInstance] | MaterializedSource,
        handlers: list[ResourceHandler],
        scheduler: Scheduler,
        stats: EmulationStats,
        *,
        validate: bool = True,
        faults: FaultInjector | None = None,
        qos: QoSController | None = None,
    ) -> None:
        # Workload queue, ordered by arrival.  A plain list (the historical
        # signature, kept for direct constructions in tests) is wrapped in a
        # MaterializedSource; anything else must quack like one — streaming
        # runs pass a LazyInstanceSource that builds instances at pop time.
        if isinstance(workload, list):
            self.source = MaterializedSource(workload)
        else:
            self.source = workload
        #: prebuilt instances when the source has them (empty for lazy sources)
        self.instances = getattr(self.source, "instances", [])
        self.handlers = handlers
        self.scheduler = scheduler
        #: event sink for stateful policies (rank caches, in-flight
        #: tracking); None keeps the per-completion hot path branch-cheap
        self._events_to = scheduler if scheduler.wants_events else None
        self.stats = stats
        self.validate = validate
        self.faults = faults
        self.qos = qos
        # Same structure twice: the compiled ReadyList walks its members
        # in C (which is what keeps the scheduler kernels' iteration off
        # the Python generator path); semantics are identical.
        kernels = core_select.native_kernels()
        self.ready = kernels.ReadyList() if kernels is not None else ReadyList()
        self.apps_completed = 0
        self.apps_degraded = 0
        #: set once any PE has permanently failed (enables recheck paths)
        self.any_failed = False
        #: tasks injected but not yet finished/discarded — counted up at
        #: injection so unbounded streams never need a full-workload sum
        self.tasks_outstanding = 0
        # -- admission control (see runtime.qos) ----------------------------
        self.apps_dropped = 0
        #: admitted but not yet completed/degraded/dropped
        self.apps_in_flight = 0
        admission = qos.admission if qos is not None else None
        #: admission order, for the drop-oldest victim scan (lazy-pruned)
        self._admitted: deque[ApplicationInstance] | None = (
            deque()
            if admission is not None and admission.policy == "drop-oldest"
            else None
        )

    # -- queries ---------------------------------------------------------------

    @property
    def n_apps(self) -> int:
        """Workload size: the total when known, else apps produced so far."""
        total = self.source.total
        return self.source.produced if total is None else total

    def all_complete(self) -> bool:
        """Every app is accounted for: completed, degraded, or dropped."""
        done = self.apps_completed + self.apps_degraded + self.apps_dropped
        total = self.source.total
        if total is not None:
            return done == total
        return self.source.exhausted and done == self.source.produced

    def admission_open(self) -> bool:
        """False only while a ``defer``-policy arrival must wait for capacity.

        Backends gate their "a due arrival needs a WM pass" wake-up on
        this, so a deferred arrival does not spin the WM; the completion
        that frees capacity triggers the pass that admits it.  The drop
        policies always resolve an arrival immediately, so admission is
        always "open" for them.
        """
        admission = self.qos.admission if self.qos is not None else None
        if admission is None or admission.policy != "defer":
            return True
        return self.apps_in_flight < admission.max_pending

    def next_arrival(self) -> float | None:
        """Arrival time of the workload queue's head, or None when drained."""
        return self.source.peek_time()

    def has_due_arrival(self, now: float) -> bool:
        nxt = self.next_arrival()
        return nxt is not None and nxt <= now

    # -- the three steps of a WM pass -----------------------------------------------

    def absorb(self, completions, pe_failures, requeues, now: float) -> int:
        """Take in everything the PEs reported since the last pass.

        Completions first, then permanent PE failures (``(handler,
        orphans)`` pairs, in arrival order), then retry-exhausted requeues
        — the one order both backends use, so their event order matches.
        Each argument is consumed synchronously; backends clear their
        buffers afterwards.  Returns the number of completions.
        """
        n = self.process_completions(completions, now)
        for handler, orphans in pe_failures:
            self.absorb_pe_failure(handler, orphans, now)
        if requeues:
            self.absorb_requeues(requeues, now)
        return n

    def process_completions(self, completions, now: float) -> int:
        """Monitor step: bookkeep finished tasks, release PEs, grow ready list.

        ``completions`` is any iterable of ``(handler, task)`` pairs; it is
        consumed synchronously, so backends can pass their live buffer and
        clear it afterwards instead of copying.
        """
        n = 0
        for handler, task in completions:
            n += 1
            # Plain-dispatch PEs park in COMPLETE until acknowledged here;
            # self-serving (reservation) PEs manage their own status.
            if handler.status is PEStatus.COMPLETE:
                handler.acknowledge_complete()
            newly_ready = task.app.on_task_complete(task, now)
            # Successors of a degraded app will never run; they were removed
            # from the outstanding count when the app was degraded.
            if not task.app.degraded:
                self.ready.extend(newly_ready)
            self.stats.record_task(task, handler.pe)
            self.tasks_outstanding -= 1
            if self._events_to is not None:
                self._events_to.notify_completion(task, now)
            if task.app.is_complete:
                self.apps_completed += 1
                self.stats.record_app_completion(task.app)
                if self.qos is not None:
                    self.apps_in_flight -= 1
                if self.stats.streaming:
                    # Open-loop runs: stats have everything they need, so
                    # the DAG/memory bookkeeping can go.  Degraded apps are
                    # never released — their in-flight tasks still complete
                    # through on_task_complete.
                    task.app.release()
        return n

    def inject_due(self, now: float) -> int:
        """Injection step: move arrived applications into the emulation.

        With bounded admission (see :class:`~repro.runtime.qos.AdmissionConfig`)
        an arrival that comes due at the in-flight bound is deferred (left at
        the queue head for a later pass) or shed — either the arrival itself
        (``drop-newest``) or the oldest admitted app that has made no progress
        yet (``drop-oldest``).  Shed arrivals still count as injected, which
        is what keeps ``completed + degraded + dropped == injected``.
        """
        admission = self.qos.admission if self.qos is not None else None
        queue = self._admitted
        if (
            queue is not None
            and len(queue) > 64
            and len(queue) > 4 * (self.apps_in_flight + 1)
        ):
            # Settled apps are normally pruned from the front by the victim
            # scan, but out-of-order completions can strand them mid-deque;
            # compact so streaming runs do not retain every admitted app.
            self._admitted = queue = deque(
                app
                for app in queue
                if not (
                    app.started or app.is_complete or app.degraded or app.dropped
                )
            )
        injected = 0
        source = self.source
        while True:
            arrival = source.peek_time()
            if arrival is None or arrival > now:
                break
            if (
                admission is not None
                and self.apps_in_flight >= admission.max_pending
            ):
                if admission.policy == "defer":
                    # leave the arrival at the stream head for a later pass
                    break
                if admission.policy == "drop-newest":
                    instance = source.pop()
                    self.tasks_outstanding += instance.task_count
                    injected += 1
                    self._drop_app(instance, now, "drop-newest", admitted=False)
                    continue
                victim = self._oldest_unstarted()
                if victim is None:
                    # every admitted app has made progress: shed the
                    # arrival instead of wasting work already done
                    instance = source.pop()
                    self.tasks_outstanding += instance.task_count
                    injected += 1
                    self._drop_app(instance, now, "drop-oldest", admitted=False)
                    continue
                self._drop_app(victim, now, "drop-oldest", admitted=True)
            instance = source.pop()
            self.tasks_outstanding += instance.task_count
            instance.inject_time = now
            heads = instance.head_tasks()
            for task in heads:
                task.mark_ready(now)
            self.ready.extend(heads)
            injected += 1
            if self.qos is not None:
                self.apps_in_flight += 1
                if self._admitted is not None:
                    self._admitted.append(instance)
        if injected:
            self.stats.record_injection(injected)
        return injected

    def _oldest_unstarted(self) -> ApplicationInstance | None:
        """Oldest admitted app with no progress, pruning settled entries."""
        queue = self._admitted
        while queue:
            app = queue[0]
            if app.started or app.is_complete or app.degraded or app.dropped:
                queue.popleft()
                continue
            return app
        return None

    def _drop_app(
        self,
        app: ApplicationInstance,
        now: float,
        reason: str,
        *,
        admitted: bool,
    ) -> None:
        """Shed one application under overload (terminal, like degradation).

        ``admitted=False`` sheds an arrival that never entered the
        emulation; ``admitted=True`` sheds an in-flight app, which by the
        drop-oldest victim rule has dispatched nothing — only its head
        tasks can be in the ready list.
        """
        app.dropped = True
        self.apps_dropped += 1
        if admitted:
            self.apps_in_flight -= 1
            in_ready = {id(t) for t in self.ready if t.app is app}
            if in_ready:
                self.ready.remove_ids(in_ready)
        self.tasks_outstanding -= app.task_count
        self.stats.record_app_drop(app, now, reason)
        if self.stats.streaming:
            # Never-started by the victim rule (or never admitted at all):
            # nothing in flight references its tasks.
            app.release()

    def run_policy(self, now: float) -> list[Assignment]:
        """Apply the user-selected policy to the ready list (no side effects)."""
        if not self.ready:
            return []
        assignments = self.scheduler.schedule(self.ready, self.handlers, now)
        # Under fault injection a PE can fail between the policy reading its
        # status and this pass committing (threaded backend); drop such
        # assignments here rather than tripping validation on them.
        if self.any_failed and assignments:
            assignments = [a for a in assignments if not a.handler.failed]
        if self.validate and assignments:
            validate_assignments(
                assignments, self.ready,
                allow_busy=self.scheduler.uses_reservation,
            )
        return assignments

    def commit(self, assignments: list[Assignment], now: float) -> None:
        """Dispatch step: remove selected tasks from the ready list, stamp
        them, update per-PE availability estimates, and hand them to PEs."""
        if not assignments:
            return
        chosen = {id(a.task) for a in assignments}
        self.ready.remove_ids(chosen)
        if self._admitted is not None:
            for a in assignments:
                a.task.app.started = True
        for a in assignments:
            binding = a.task.node.binding_for_any(a.handler.accepted_platforms)
            if binding is None:
                raise EmulationError(
                    f"task {a.task.qualified_name()} has no binding for PE "
                    f"{a.handler.name}"
                )
            a.task.mark_dispatched(now, a.handler, binding)
        # availability estimates for lookahead policies
        oracle = self.scheduler.oracle
        if oracle is not None:
            for a in assignments:
                est = oracle.estimate(a.task, a.handler)
                if est is None:
                    continue
                base = max(a.handler.estimated_free_time, now)
                if a.handler.status is PEStatus.IDLE:
                    base = now
                a.handler.estimated_free_time = base + est
        if self._events_to is not None:
            self._events_to.notify_dispatch(assignments, now)

    # -- fault handling ---------------------------------------------------------

    def absorb_pe_failure(
        self,
        handler: ResourceHandler,
        orphans: list[TaskInstance],
        now: float,
        *,
        kind: str = "pe_failure",
    ) -> None:
        """A PE permanently failed: requeue its surrendered work.

        ``orphans`` is what :meth:`ResourceHandler.mark_failed` returned —
        the in-flight task plus any reservation-queue bookings.  Orphaning
        does not count against a task's requeue budget (``charge=False``).
        Afterwards any application left without a live capable PE is
        terminally degraded.  ``kind`` distinguishes injected failures from
        watchdog fail-stops in the timeline.
        """
        self.any_failed = True
        if self._events_to is not None:
            self._events_to.notify_pe_failure(handler, now)
        self.stats.record_pe_failure(handler.name, handler.failed_at, kind=kind)
        requeued: list[TaskInstance] = []
        for task in orphans:
            if task.state in (TaskState.DISPATCHED, TaskState.RUNNING):
                task.mark_requeued(now, charge=False)
            if task.app.degraded:
                self.tasks_outstanding -= 1
                continue
            requeued.append(task)
            self.stats.record_requeue(task, handler.name, now, "pe_failure_requeue")
        if requeued:
            self.ready.extend(requeued)
        self.degrade_unrunnable(now)

    def absorb_requeues(
        self, items: list[tuple[ResourceHandler, TaskInstance]], now: float
    ) -> None:
        """Tasks whose PE exhausted in-place retries come back for rescheduling.

        A task over its requeue budget terminally degrades its application;
        tasks of already-degraded applications are dropped.
        """
        max_rq = self.faults.max_requeues if self.faults is not None else 0
        requeued: list[TaskInstance] = []
        for handler, task in items:
            if task.app.degraded:
                self.tasks_outstanding -= 1
                continue
            if task.fault_requeues > max_rq:
                self._degrade_app(task.app, now)
                continue
            requeued.append(task)
            self.stats.record_requeue(task, handler.name, now, "retry_exhausted")
        if requeued:
            self.ready.extend(requeued)

    def recover_failed_dispatch(self, task: TaskInstance, now: float) -> None:
        """Dispatch raced a concurrent PE failure: put the task back."""
        task.mark_requeued(now, charge=False)
        if task.app.degraded:
            self.tasks_outstanding -= 1
            return
        self.ready.extend([task])

    def degrade_unrunnable(self, now: float) -> None:
        """Degrade apps whose ready tasks have no live supporting PE left."""
        live_platforms: set[str] = set()
        for h in self.handlers:
            if not h.failed:
                live_platforms.update(h.accepted_platforms)
        doomed: list[ApplicationInstance] = []
        for t in self.ready:
            if t.app.degraded or t.app in doomed:
                continue
            if not (set(t.node.platform_names()) & live_platforms):
                doomed.append(t.app)
        for app in doomed:
            self._degrade_app(app, now)

    def _degrade_app(self, app: ApplicationInstance, now: float) -> None:
        """Terminal degradation: the app can never finish on the live PEs.

        Its queued work is discarded; tasks still in flight on live PEs run
        to completion (their stats remain valid) but unlock nothing.
        """
        if app.degraded or app.is_complete or app.dropped:
            return
        app.degraded = True
        self.apps_degraded += 1
        if self.qos is not None:
            self.apps_in_flight -= 1
        in_ready = {id(t) for t in self.ready if t.app is app}
        if in_ready:
            self.ready.remove_ids(in_ready)
        # Tasks that can no longer run: queued ones just removed, plus every
        # not-yet-ready task.  Requeued tasks still in a backend channel are
        # decremented by the absorb path that drops them.
        pending = sum(
            1 for t in app.tasks.values() if t.state is TaskState.PENDING
        )
        self.tasks_outstanding -= pending + len(in_ready)
        self.stats.record_app_degradation(app, now)

    def check_liveness(self, now: float, pending_completions: int = 0) -> None:
        """Deadlock guard: work remains but nothing can ever progress.

        ``pending_completions`` is the backend's count of finished tasks
        (or fault events) not yet run through the absorb/monitor steps;
        those still unlock work, so they defer the verdict to the next
        pass.
        """
        if self.all_complete() or pending_completions:
            return
        # FAILED is terminal, not "busy": only RUN/COMPLETE PEs make progress.
        any_running = any(
            h.status in (PEStatus.RUN, PEStatus.COMPLETE) for h in self.handlers
        )
        if any_running or self.next_arrival() is not None:
            return
        if self.ready:
            supported: set[str] = set()
            for h in self.handlers:
                if not h.failed:
                    supported.update(h.accepted_platforms)
            stuck = [
                t
                for t in self.ready
                if not (set(t.node.platform_names()) & supported)
            ]
            if stuck and self.any_failed:
                # PEs died under us: degrade instead of crashing the run.
                self.degrade_unrunnable(now)
                if not self.all_complete() and self.ready:
                    return  # runnable work remains for the next pass
                return
            if stuck:
                details = [
                    f"{t.qualified_name()} needs "
                    f"{sorted(t.node.platform_names())}"
                    for t in stuck[:5]
                ]
                more = f" (+{len(stuck) - 5} more)" if len(stuck) > 5 else ""
                raise EmulationError(
                    f"deadlock at t={now:.1f}us: {len(stuck)} ready task(s) "
                    f"have no supporting PE in this configuration: "
                    f"{'; '.join(details)}{more}; live PE platforms: "
                    f"{sorted(supported)}"
                )
        else:
            live = sorted(
                {h.type_name for h in self.handlers if not h.failed}
            )
            raise EmulationError(
                f"deadlock at t={now:.1f}us: {self.tasks_outstanding} tasks "
                f"outstanding but none ready, none running, none arriving "
                f"(live PE types: {live})"
            )
