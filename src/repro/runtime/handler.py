"""Resource handlers — the WM ↔ RM communication objects (paper Sec. II-C).

Each PE gets a dedicated handler composed of "fields that track PE
availability, type, and id along with its workload and synchronization
lock".  Availability follows the paper's three-state protocol, extended
with a terminal failure state for fault injection::

    IDLE ──(WM assigns task, sets RUN)──► RUN
    RUN ──(RM finishes, sets COMPLETE)──► COMPLETE
    COMPLETE ──(WM acknowledges)──► IDLE
    any ──(fault injection, mark_failed)──► FAILED   (terminal)

Writes happen under the handler's lock: every transition is one
check-and-set inside ``with self.lock``.  Reads take no lock — ``status``
is a plain attribute, and one attribute read is atomic under the GIL, so
schedulers (and the compiled kernels) scan it in their inner loops.  A
stale read is benign: the transitions re-check the state they need, and
the workload manager re-filters assignments against failed PEs before
dispatch.  The handler never blocks or signals anyone; waking a
resource-manager thread after a hand-off is the threaded backend's job,
and the single-threaded virtual backend needs no wake-ups at all.

The ``reservation_queue`` implements the paper's future-work PE-level work
queues: with a reservation-capable policy, the WM may book tasks onto a
busy PE and the resource manager *self-serves* the next task on completion
(``finish_task(self_serve=True)``), skipping the COMPLETE→IDLE handshake
entirely.  In that mode the WM's ``reserve`` and the RM's ``finish_task``
race on the queue, which is what the lock is for.
"""

from __future__ import annotations

import enum
import threading
from collections import deque

from repro.appmodel.instance import TaskInstance
from repro.common.errors import EmulationError
from repro.hardware.pe import ProcessingElement


class PEStatus(enum.Enum):
    IDLE = "idle"
    RUN = "run"
    COMPLETE = "complete"
    #: terminal: the PE suffered a permanent fault and accepts no more work
    FAILED = "failed"


class PEFailedError(EmulationError):
    """Work was handed to a PE that has permanently failed.

    Raised by :meth:`ResourceHandler.assign`/:meth:`ResourceHandler.reserve`
    when the WM loses the race against a concurrent failure; the workload
    manager catches it and requeues the task instead of crashing the run.
    """


class ResourceHandler:
    """Shared state between the workload manager and one resource manager."""

    def __init__(self, pe: ProcessingElement) -> None:
        self.pe = pe
        # Immutable PE identity, mirrored as plain attributes: schedulers
        # read pe_id millions of times per run, and a property indirection
        # there is measurable in profiles.
        self.pe_id: int = pe.pe_id
        self.name: str = pe.name
        self.type_name: str = pe.type_name
        #: platform-binding names this PE can execute.  A CPU-kind PE also
        #: accepts the generic "cpu" binding (a portable C kernel runs on
        #: any core cluster — this is how the unchanged SDR applications run
        #: on the Odroid's big/little PE types); accelerators match exactly.
        if pe.pe_type.is_cpu and pe.type_name != "cpu":
            self.accepted_platforms: tuple[str, ...] = (pe.type_name, "cpu")
        else:
            self.accepted_platforms = (pe.type_name,)
        #: guards every transition below (see module doc)
        self.lock = threading.Lock()
        #: written under ``lock``, read without it
        self.status: PEStatus = PEStatus.IDLE
        self.current_task: TaskInstance | None = None
        self.reservation_queue: deque[TaskInstance] = deque()
        #: scheduler-visible estimate of when this PE frees up (used by
        #: EFT/HEFT/reservation placement)
        self.estimated_free_time: float = 0.0
        #: time the PE failed (µs), or -1.0 while healthy
        self.failed_at: float = -1.0
        #: last sign of life from this PE's RM (threaded-backend wall-clock
        #: µs), stamped at dispatch and around kernel attempts; the QoS
        #: watchdog fail-stops a PE stuck in RUN past its heartbeat timeout.
        #: Plain float write/read — stale reads only delay detection.
        self.heartbeat: float = -1.0

    @property
    def failed(self) -> bool:
        """Whether the PE is in the terminal FAILED state."""
        return self.status is PEStatus.FAILED

    # -- WM side -----------------------------------------------------------------

    def assign(self, task: TaskInstance) -> None:
        """Hand a task to an idle PE and flip it to RUN."""
        with self.lock:
            if self.status is PEStatus.FAILED:
                raise PEFailedError(
                    f"PE {self.name}: assign after permanent failure"
                )
            if self.status is not PEStatus.IDLE:
                raise EmulationError(
                    f"PE {self.name}: assign while {self.status.value}"
                )
            self.current_task = task
            self.status = PEStatus.RUN

    def reserve(self, task: TaskInstance) -> bool:
        """Book a task onto this PE (reservation extension).

        Returns True when the PE was idle and the task starts immediately;
        False when it was queued behind the current work.
        """
        with self.lock:
            if self.status is PEStatus.FAILED:
                raise PEFailedError(
                    f"PE {self.name}: reserve after permanent failure"
                )
            if self.status is PEStatus.IDLE:
                self.current_task = task
                self.status = PEStatus.RUN
                return True
            self.reservation_queue.append(task)
            return False

    def acknowledge_complete(self) -> None:
        """Return a COMPLETE PE to IDLE (plain-dispatch handshake)."""
        with self.lock:
            if self.status is not PEStatus.COMPLETE:
                raise EmulationError(
                    f"PE {self.name}: acknowledge while {self.status.value}"
                )
            self.current_task = None
            self.status = PEStatus.IDLE

    def drain_finished(self) -> list[TaskInstance]:
        """Always ``[]``: completions reach the WM through the backends'
        own queues, and the handler buffers none.  Kept because
        ``perfbench/layers.py`` wraps this method by name."""
        return []

    def mark_failed(self, now: float) -> list[TaskInstance]:
        """Permanent fault: flip to FAILED and surrender unexecuted work.

        Returns the tasks the workload manager must requeue: the in-flight
        task when the PE was in RUN (assigned or mid-kernel — fail-stop
        semantics discard the attempt) plus every reservation-queue
        booking.  A task already in COMPLETE finished execution and stays
        with the completion channel.  Idempotent: a second call returns
        ``[]``.
        """
        with self.lock:
            if self.status is PEStatus.FAILED:
                return []
            orphans: list[TaskInstance] = []
            if self.status is PEStatus.RUN and self.current_task is not None:
                orphans.append(self.current_task)
            orphans.extend(self.reservation_queue)
            self.reservation_queue.clear()
            self.current_task = None
            self.status = PEStatus.FAILED
            self.failed_at = now
            return orphans

    # -- RM side -----------------------------------------------------------------

    def finish_task(self, *, self_serve: bool = False) -> TaskInstance | None:
        """RM reports the current task done.

        Plain mode (``self_serve=False``): flips to COMPLETE, awaiting the
        WM's acknowledgement.  Self-serve mode: the PE immediately
        continues with the next reserved task (returned), or goes straight
        to IDLE when its queue is empty.
        """
        with self.lock:
            if self.status is not PEStatus.RUN or self.current_task is None:
                raise EmulationError(
                    f"PE {self.name}: finish_task while {self.status.value}"
                )
            if not self_serve:
                self.status = PEStatus.COMPLETE
                return None
            if self.reservation_queue:
                self.current_task = self.reservation_queue.popleft()
                return self.current_task
            self.current_task = None
            self.status = PEStatus.IDLE
            return None

    def abort_task(self, *, self_serve: bool = False) -> TaskInstance | None:
        """RM abandons the current task without completing it (fault path).

        Mirrors :meth:`finish_task`, but the task goes back to the workload
        manager through the requeue channel instead of the completion one.
        Self-serve mode continues with the next reserved task.
        """
        with self.lock:
            if self.status is not PEStatus.RUN or self.current_task is None:
                raise EmulationError(
                    f"PE {self.name}: abort_task while {self.status.value}"
                )
            self.current_task = None
            if self_serve and self.reservation_queue:
                self.current_task = self.reservation_queue.popleft()
                return self.current_task
            self.status = PEStatus.IDLE
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceHandler({self.name!r}, {self.status.value}, "
            f"queued={len(self.reservation_queue)})"
        )
