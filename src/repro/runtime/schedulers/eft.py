"""Earliest finish time (EFT) — the paper's heavyweight policy.

For each ready task the policy evaluates the finish time on *every* PE —
idle or busy — using per-PE availability estimates that it updates as it
tentatively books tasks within the pass (so the booking of earlier ready
tasks delays the estimates seen by later ones, as in list-scheduling EFT).
Only decisions that landed on an actually-idle PE turn into dispatches;
bookings onto busy PEs merely shape subsequent estimates.

Two costs differ here.  The *modeled* cost — what the virtual backend
charges the management core via ``SchedulerCostModel`` — is the full
quadratic scan, as on the paper's hardware.  The *host* cost of a pass is
O(ready × PEs), cut off once no remaining ready task can reach an open PE
(see :meth:`Scheduler.eft_placement`); the assignments are the same.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler


class EFTScheduler(Scheduler):
    name = "eft"

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        return self.eft_placement(ready, handlers, now)
