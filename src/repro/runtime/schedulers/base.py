"""Scheduler interface and shared helpers.

A policy receives the ready task list and the resource handlers, and
returns assignments of tasks onto **idle** PEs whose type appears in the
task's platform list.  The workload manager validates every assignment
(:func:`validate_assignments`), so a buggy custom policy fails loudly with
a :class:`~repro.common.errors.SchedulingError` rather than corrupting the
emulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro import core as core_select
from repro.appmodel.instance import TaskInstance
from repro.common.errors import SchedulingError
from repro.runtime.handler import PEStatus, ResourceHandler


@dataclass(frozen=True)
class Assignment:
    """One scheduling decision: run ``task`` on ``handler``'s PE."""

    task: TaskInstance
    handler: ResourceHandler


class ExecutionTimeOracle(Protocol):
    """Expected execution times, as schedulers would obtain from profiling.

    ``estimate(task, handler)`` returns the expected service time (µs) of
    the task on the handler's PE, or ``None`` when the task's platform list
    does not include that PE type.
    """

    def estimate(self, task: TaskInstance, handler: ResourceHandler) -> float | None:
        ...  # pragma: no cover - protocol


class Scheduler:
    """Base class for scheduling policies."""

    #: registry name; used for overhead modeling and reporting
    name = "base"
    #: reservation-capable policies may also target busy PEs (queued dispatch)
    uses_reservation = False
    #: policies that maintain incremental state (rank caches, in-flight
    #: tracking) set this True so the workload manager forwards dispatch/
    #: completion/PE-failure events to the notify_* hooks below.  The
    #: default False keeps the WM hot loops free of per-event calls for
    #: the stateless policies.
    wants_events = False

    def __init__(self, oracle: ExecutionTimeOracle | None = None) -> None:
        self.oracle = oracle
        # Per-archetype-node row caches over the current handler list (see
        # estimate_row/support_row).  Keyed by id(node); each entry pins the
        # node object so the id cannot be recycled.
        self._row_handlers: list[ResourceHandler] | None = None
        self._row_oracle: ExecutionTimeOracle | None = None
        self._est_rows: dict[int, tuple] = {}
        self._support_rows: dict[int, tuple] = {}
        self._est_fb = None
        self._support_fb = None
        # EFT placement caches (see eft_placement): id(node) -> (node,
        # (PE index, estimate) pairs of the supported PEs, class mask),
        # and class -> mask.
        self._place_rows: dict[int, tuple] = {}
        self._class_masks: dict = {}
        # Compiled placement-loop kernels, bound at construction (None on
        # the pure core).  Subclass schedule() implementations branch on
        # this and hand the positional inner loop to C; results are
        # bit-identical by contract.
        self._kernels = core_select.native_kernels()

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        """Map ready tasks to PEs.  Must not mutate ``ready``."""
        raise NotImplementedError

    # -- incremental-state hooks (only called when wants_events is True) -----------

    def notify_dispatch(
        self, assignments: list[Assignment], now: float
    ) -> None:
        """Committed assignments left the ready list (after WM commit)."""

    def notify_completion(self, task: TaskInstance, now: float) -> None:
        """A task finished; called before a completed app is released, so
        ``task.app`` (and ``task.app.is_complete``) is still readable."""

    def notify_pe_failure(
        self, handler: ResourceHandler, now: float
    ) -> None:
        """A PE permanently failed; its in-flight work is about to be
        requeued by the WM."""

    # -- helpers for subclasses ----------------------------------------------------

    def _sync_row_cache(self, handlers: list[ResourceHandler]) -> None:
        if handlers is not self._row_handlers or self.oracle is not self._row_oracle:
            self._row_handlers = handlers
            self._row_oracle = self.oracle
            self._est_rows = {}
            self._support_rows = {}
            self._est_fb = None
            self._support_fb = None
            self._place_rows = {}
            self._class_masks = {}

    def estimate_row(
        self, task: TaskInstance, handlers: list[ResourceHandler]
    ) -> tuple:
        """Oracle estimates for ``task`` on every handler, positionally.

        All instances of an application share archetype ``TaskNode``
        objects and estimates depend only on the node, so the row is
        computed once per node and thereafter is a single dict lookup —
        this removes the oracle call from the O(ready × PEs) inner loops.
        """
        self._sync_row_cache(handlers)
        node = task.node
        hit = self._est_rows.get(id(node))
        if hit is not None:
            return hit[1]
        oracle = self.required_oracle()
        row = tuple(oracle.estimate(task, h) for h in handlers)
        self._est_rows[id(node)] = (node, row)
        return row

    def support_row(
        self, task, handlers: list[ResourceHandler]
    ) -> tuple:
        """Per-handler support flags for ``task``'s node, cached like
        :meth:`estimate_row` (no oracle required)."""
        self._sync_row_cache(handlers)
        node = task.node
        hit = self._support_rows.get(id(node))
        if hit is not None:
            return hit[1]
        row = tuple(node.supports_any(h.accepted_platforms) for h in handlers)
        self._support_rows[id(node)] = (node, row)
        return row

    def _est_fallback(self, handlers: list[ResourceHandler]):
        """Row-cache-miss closure handed to the compiled kernels.

        Cached alongside the row caches (callers must have run
        :meth:`_sync_row_cache` with the same ``handlers`` first, so the
        captured list is always the synced one)."""
        fb = self._est_fb
        if fb is None:
            fb = self._est_fb = (
                lambda task: self.estimate_row(task, handlers)
            )
        return fb

    def _support_fallback(self, handlers: list[ResourceHandler]):
        fb = self._support_fb
        if fb is None:
            fb = self._support_fb = (
                lambda task: self.support_row(task, handlers)
            )
        return fb

    def _class_mask(
        self, cls: tuple[str, ...], handlers: list[ResourceHandler]
    ) -> int:
        """Bitmask of the handlers that a platform class (a node's
        ``platform_names()``) supports, as ``TaskNode.supports_any``."""
        mask = self._class_masks.get(cls)
        if mask is None:
            mask = 0
            for i, h in enumerate(handlers):
                if any(p in cls for p in h.accepted_platforms):
                    mask |= 1 << i
            self._class_masks[cls] = mask
        return mask

    def eft_placement(
        self,
        order,
        handlers: list[ResourceHandler],
        now: float,
        ready=None,
    ) -> list[Assignment]:
        """Earliest-finish-time list placement, shared by EFT, HEFT, cprank.

        Walks ``order`` and books each task on the PE — idle or busy —
        where it would finish first, using per-PE availability estimates
        that the pass's own bookings push back; only bookings that land on
        an idle PE not yet taken this pass become assignments.

        ``ready`` is the container ``order`` was drawn from (the same
        tasks; defaults to ``order``).  When it keeps per-class live
        counts (the WM's :class:`ReadyList`), the scan stops as soon as no
        remaining task's class supports an open PE: later bookings could
        only touch busy or taken PEs and cannot change the assignments.
        Without counts (plain lists) the scan stops only once every idle
        PE is taken.  The compiled ``eft_pass`` kernel always runs the
        latter scan; the assignments are identical either way.
        """
        self._sync_row_cache(handlers)
        kern = self._kernels
        if kern is not None:
            # The availability prologue and placement loop both run in C;
            # the kernel reads handler.status/.estimated_free_time exactly
            # as the pure loop below does.
            pairs = kern.eft_pass(
                order, self._est_rows, self._est_fallback(handlers),
                handlers, now,
            )
            return [Assignment(task, handlers[i]) for task, i in pairs]
        # Availability estimates, positional over ``handlers``: idle PEs are
        # free now (and open); busy PEs free at their tracked estimate
        # (never in the past).  Failed PEs get inf, so they never win the
        # finish-time comparison without an extra branch in the inner loop.
        inf = float("inf")
        avail: list[float] = []
        open_mask = 0
        for i, h in enumerate(handlers):
            status = h.status
            if status is PEStatus.FAILED:
                avail.append(inf)
            elif status is PEStatus.IDLE:
                avail.append(now)
                open_mask |= 1 << i
            else:
                free = h.estimated_free_time
                avail.append(free if free > now else now)
        counts = getattr(order if ready is None else ready, "class_counts", None)
        # ``live`` is 0 exactly when no remaining task can be dispatched.
        # With counts it is the number of unvisited tasks whose class
        # meets the open-PE mask (``rem``: unvisited tasks per class mask);
        # without, it is the open-PE mask itself.
        if counts is None:
            rem = None
            live = open_mask
        else:
            rem = {}
            for cls, n in counts.items():
                m = self._class_mask(cls, handlers)
                rem[m] = rem.get(m, 0) + n
            live = sum(n for c, n in rem.items() if c & open_mask)
        rows = self._place_rows
        assignments: list[Assignment] = []
        if not live:
            return assignments
        for task in order:
            node = task.node
            hit = rows.get(id(node))
            if hit is None:
                row = self.estimate_row(task, handlers)
                hit = rows[id(node)] = (
                    node,
                    tuple((i, e) for i, e in enumerate(row) if e is not None),
                    self._class_mask(node.platform_names(), handlers),
                )
            if rem is not None:
                m = hit[2]
                rem[m] -= 1
                if m & open_mask:
                    live -= 1
            best_i = -1
            best_finish = inf
            for i, est in hit[1]:
                finish = avail[i] + est
                if finish < best_finish:
                    best_finish = finish
                    best_i = i
            if best_i >= 0:
                # Book the task on the chosen PE either way; dispatch only
                # if the PE is open (idle and not already taken this pass).
                avail[best_i] = best_finish
                bit = 1 << best_i
                if open_mask & bit:
                    open_mask ^= bit
                    assignments.append(Assignment(task, handlers[best_i]))
                    if rem is None:
                        live = open_mask
                    else:
                        live = sum(n for c, n in rem.items() if c & open_mask)
            # Checked before pulling the next task, so a pass with nothing
            # left to dispatch reads no further from ``order``.
            if not live:
                break
        return assignments

    @staticmethod
    def idle_handlers(handlers: list[ResourceHandler]) -> list[ResourceHandler]:
        """Snapshot of currently idle PEs (one lock-free status read each,
        matching the paper's 'begin by checking availability' guidance).
        ``PEStatus.FAILED`` is terminal and distinct from IDLE, so failed
        PEs are excluded here automatically."""
        return [h for h in handlers if h.status is PEStatus.IDLE]

    @staticmethod
    def failed_mask(handlers: list[ResourceHandler]) -> list[bool] | None:
        """Positional failed-PE flags, or None when every PE is live.

        Custom policies that scan ``handlers`` directly (instead of using
        :meth:`idle_handlers`) should skip handlers flagged here under
        fault injection; the None fast path keeps the no-fault case free.
        Reads each handler's ``status`` without its lock (writes happen
        under it) — the workload manager re-filters committed
        assignments, so a stale read is benign.
        """
        if not any(h.failed for h in handlers):
            return None
        return [h.failed for h in handlers]

    def required_oracle(self) -> ExecutionTimeOracle:
        if self.oracle is None:
            raise SchedulingError(
                f"policy {self.name!r} requires an execution-time oracle"
            )
        return self.oracle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def validate_assignments(
    assignments: list[Assignment],
    ready,
    *,
    allow_busy: bool = False,
) -> None:
    """Reject structurally invalid policy output.

    ``ready`` is any container supporting membership by identity (the WM's
    ReadyList, or a plain list in tests).
    """
    seen_tasks: set[int] = set()
    seen_handlers: set[int] = set()
    for a in assignments:
        if id(a.task) in seen_tasks:
            raise SchedulingError(
                f"task {a.task.qualified_name()} assigned twice in one pass"
            )
        seen_tasks.add(id(a.task))
        if a.task not in ready:
            raise SchedulingError(
                f"task {a.task.qualified_name()} is not in the ready list"
            )
        if not a.task.supports_pe(a.handler):
            raise SchedulingError(
                f"task {a.task.qualified_name()} does not support PE type "
                f"{a.handler.type_name!r}"
            )
        if not allow_busy:
            if id(a.handler) in seen_handlers:
                raise SchedulingError(
                    f"PE {a.handler.name} assigned two tasks in one pass"
                )
            if a.handler.status is not PEStatus.IDLE:
                raise SchedulingError(
                    f"PE {a.handler.name} is not idle "
                    f"({a.handler.status.value})"
                )
        seen_handlers.add(id(a.handler))
