"""Tests for the scheduling-policy library and its validation layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro import core as core_select
from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding
from repro.appmodel.instance import ApplicationInstance
from repro.common.errors import SchedulingError
from repro.hardware.pe import PE_CPU, PE_FFT, ProcessingElement
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.schedulers import (
    Assignment,
    EFTScheduler,
    FRFSScheduler,
    HEFTScheduler,
    METScheduler,
    PowerAwareMETScheduler,
    RandomScheduler,
    available_policies,
    make_scheduler,
    register_policy,
)
from repro.runtime.schedulers.base import validate_assignments
from repro.runtime.schedulers.cprank import CPRankScheduler
from repro.runtime.schedulers.reservation import (
    ReservationEFTScheduler,
    ReservationFRFSScheduler,
)
from repro.runtime.workload_manager import ReadyList


class FixedOracle:
    """Oracle with explicit (runfunc, pe_type) -> time entries."""

    def __init__(self, times: dict[tuple[str, str], float]) -> None:
        self.times = times

    def estimate(self, task, handler):
        binding = task.node.binding_for_any(handler.accepted_platforms)
        if binding is None:
            return None
        return self.times.get(
            (binding.runfunc, handler.type_name),
            self.times.get((binding.runfunc, "*"), 10.0),
        )


def build_app(n_tasks=4, fft_capable=()):
    """Independent (parallel) tasks T0..Tn-1; some also support fft."""
    b = GraphBuilder("sched_app", "sched.so")
    b.scalar("n", 1)
    for i in range(n_tasks):
        name = f"T{i}"
        platforms = [PlatformBinding(name="cpu", runfunc=f"k{i}")]
        if i in fft_capable:
            platforms.append(PlatformBinding(name="fft", runfunc=f"k{i}_accel"))
        b.node(name, args=["n"], platforms=platforms)
    graph = b.build()
    instance = ApplicationInstance(graph, 0, 0.0, materialize=False)
    tasks = [instance.tasks[f"T{i}"] for i in range(n_tasks)]
    for t in tasks:
        t.mark_ready(0.0)
    return tasks


def make_handlers(spec):
    """spec: list of ('cpu'|'fft'); returns handlers with dense ids."""
    handlers = []
    for i, kind in enumerate(spec):
        pe_type = PE_CPU if kind == "cpu" else PE_FFT
        handlers.append(
            ResourceHandler(
                ProcessingElement(pe_id=i, pe_type=pe_type,
                                  name=f"{kind}{i}", host_core=i + 1)
            )
        )
    return handlers


class TestFRFS:
    def test_fifo_order_onto_idle_pes(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "cpu"])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert [(a.task.name, a.handler.pe_id) for a in out] == [
            ("T0", 0), ("T1", 1)
        ]

    def test_skips_unsupported_pes(self):
        tasks = build_app(2)  # cpu-only tasks
        handlers = make_handlers(["fft", "cpu"])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert [(a.task.name, a.handler.pe_id) for a in out] == [("T0", 1)]

    def test_busy_pes_ignored(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu", "cpu"])
        handlers[0].assign(build_app(1)[0])
        out = FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert len(out) == 1 and out[0].handler.pe_id == 1

    def test_no_idle_pes_returns_empty(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        handlers[0].assign(build_app(1)[0])
        assert FRFSScheduler().schedule(tasks, handlers, 0.0) == []

    def test_does_not_mutate_ready_list(self):
        tasks = build_app(3)
        handlers = make_handlers(["cpu"])
        FRFSScheduler().schedule(tasks, handlers, 0.0)
        assert len(tasks) == 3


class TestMET:
    def test_picks_minimum_execution_time(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({("k0", "cpu"): 50.0, ("k0_accel", "fft"): 10.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "fft"

    def test_prefers_cpu_when_faster(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        oracle = FixedOracle({("k0", "cpu"): 5.0, ("k0_accel", "fft"): 40.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "cpu"

    def test_ties_break_to_lower_pe_id(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({("k0", "cpu"): 5.0})
        out = METScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.pe_id == 0

    def test_requires_oracle(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu"])
        with pytest.raises(SchedulingError, match="oracle"):
            METScheduler().schedule(tasks, handlers, 0.0)

    def test_power_aware_variant_prefers_efficient_pe(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        # fft slower but much lower power => lower energy
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k0_accel", "fft"): 12.0})
        out = PowerAwareMETScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert out[0].handler.type_name == "fft"


class TestEFT:
    def test_accounts_for_busy_pe_availability(self):
        tasks = build_app(1, fft_capable={0})
        handlers = make_handlers(["cpu", "fft"])
        # cpu is busy until t=100; fft idle but slow
        other = build_app(1)[0]
        handlers[0].assign(other)
        handlers[0].estimated_free_time = 100.0
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k0_accel", "fft"): 60.0})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        # finish on fft = 60 < finish on cpu = 110
        assert out[0].handler.type_name == "fft"

    def test_books_earlier_tasks_before_later_ones(self):
        tasks = build_app(3)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({(f"k{i}", "cpu"): 10.0 for i in range(3)})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        # only one idle PE: exactly the first ready task dispatches
        assert [(a.task.name, a.handler.pe_id) for a in out] == [("T0", 0)]

    def test_prefers_globally_earliest_finish(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({("k0", "cpu"): 10.0, ("k1", "cpu"): 10.0})
        out = EFTScheduler(oracle).schedule(tasks, handlers, 0.0)
        assert len(out) == 2
        assert {a.handler.pe_id for a in out} == {0, 1}


class TestRandom:
    def test_only_supported_idle_pes_chosen(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "fft", "cpu"])
        out = RandomScheduler(rng=np.random.default_rng(0)).schedule(
            tasks, handlers, 0.0
        )
        assert all(a.handler.type_name == "cpu" for a in out)
        assert len(out) == 2

    def test_deterministic_with_seeded_rng(self):
        def run(seed):
            tasks = build_app(3)
            handlers = make_handlers(["cpu", "cpu", "cpu"])
            sched = RandomScheduler(rng=np.random.default_rng(seed))
            return [
                (a.task.name, a.handler.pe_id)
                for a in sched.schedule(tasks, handlers, 0.0)
            ]

        assert run(7) == run(7)


class TestHEFT:
    def test_prioritizes_critical_path(self):
        # chain X -> Y plus independent cheap task Z; X has higher rank
        b = GraphBuilder("heft_app", "h.so")
        b.scalar("n", 1)
        b.node("X", args=["n"], cpu="kx")
        b.node("Y", args=["n"], cpu="ky", after=["X"])
        b.node("Z", args=["n"], cpu="kz")
        graph = b.build()
        instance = ApplicationInstance(graph, 0, 0.0, materialize=False)
        x, z = instance.tasks["X"], instance.tasks["Z"]
        x.mark_ready(0.0)
        z.mark_ready(0.0)
        handlers = make_handlers(["cpu"])
        oracle = FixedOracle({
            ("kx", "cpu"): 10.0, ("ky", "cpu"): 50.0, ("kz", "cpu"): 10.0,
        })
        out = HEFTScheduler(oracle).schedule([z, x], handlers, 0.0)
        # X leads despite Z being first in ready order (rank 60 vs 10)
        assert out[0].task.name == "X"


class TestReservation:
    def test_frfs_reserve_books_busy_pe(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        handlers[0].reserve(build_app(1)[0])  # PE now busy
        sched = ReservationFRFSScheduler(queue_depth=4)
        out = sched.schedule(tasks, handlers, 0.0)
        assert len(out) == 2
        assert all(a.handler.pe_id == 0 for a in out)

    def test_queue_depth_bounds_bookings(self):
        tasks = build_app(6)
        handlers = make_handlers(["cpu"])
        sched = ReservationFRFSScheduler(queue_depth=2)
        out = sched.schedule(tasks, handlers, 0.0)
        assert len(out) == 2

    def test_eft_reserve_balances_by_finish_time(self):
        tasks = build_app(4)
        handlers = make_handlers(["cpu", "cpu"])
        oracle = FixedOracle({(f"k{i}", "cpu"): 10.0 for i in range(4)})
        out = ReservationEFTScheduler(oracle, queue_depth=2).schedule(
            tasks, handlers, 0.0
        )
        per_pe = {}
        for a in out:
            per_pe[a.handler.pe_id] = per_pe.get(a.handler.pe_id, 0) + 1
        assert per_pe == {0: 2, 1: 2}

    def test_invalid_queue_depth(self):
        with pytest.raises(ValueError):
            ReservationFRFSScheduler(queue_depth=0)


class TestValidation:
    def test_duplicate_task_rejected(self):
        tasks = build_app(1)
        handlers = make_handlers(["cpu", "cpu"])
        bad = [Assignment(tasks[0], handlers[0]), Assignment(tasks[0], handlers[1])]
        with pytest.raises(SchedulingError, match="twice"):
            validate_assignments(bad, tasks)

    def test_task_not_in_ready_rejected(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        bad = [Assignment(tasks[1], handlers[0])]
        with pytest.raises(SchedulingError, match="not in the ready list"):
            validate_assignments(bad, tasks[:1])

    def test_unsupported_pe_rejected(self):
        tasks = build_app(1)  # cpu-only
        handlers = make_handlers(["fft"])
        bad = [Assignment(tasks[0], handlers[0])]
        with pytest.raises(SchedulingError, match="does not support"):
            validate_assignments(bad, tasks)

    def test_busy_pe_rejected_unless_reservation(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        handlers[0].assign(build_app(1)[0])
        bad = [Assignment(tasks[0], handlers[0])]
        with pytest.raises(SchedulingError, match="not idle"):
            validate_assignments(bad, tasks)
        validate_assignments(bad, tasks, allow_busy=True)  # reservation OK

    def test_double_booked_pe_rejected(self):
        tasks = build_app(2)
        handlers = make_handlers(["cpu"])
        bad = [Assignment(tasks[0], handlers[0]), Assignment(tasks[1], handlers[0])]
        with pytest.raises(SchedulingError, match="two tasks"):
            validate_assignments(bad, tasks)


class TestRegistry:
    def test_all_builtins_available(self):
        for name in ("frfs", "met", "eft", "random", "heft", "met_power",
                     "frfs_reserve", "eft_reserve"):
            assert name in available_policies()
            assert make_scheduler(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scheduling policy"):
            make_scheduler("mystery")

    def test_register_custom_policy(self):
        class Custom(FRFSScheduler):
            name = "custom_test_policy"

        register_policy("custom_test_policy", lambda oracle: Custom(oracle))
        assert make_scheduler("custom_test_policy").name == "custom_test_policy"
        with pytest.raises(SchedulingError, match="already registered"):
            register_policy("custom_test_policy", lambda oracle: Custom(oracle))
        register_policy(
            "custom_test_policy", lambda oracle: Custom(oracle), replace=True
        )


@given(
    n_tasks=st.integers(min_value=0, max_value=12),
    pes=st.lists(st.sampled_from(["cpu", "fft"]), min_size=1, max_size=5),
    policy=st.sampled_from(["frfs", "met", "eft", "random", "heft"]),
)
@settings(max_examples=60, deadline=None)
def test_policy_output_always_valid_property(n_tasks, pes, policy):
    """Whatever the ready list and PE mix, every built-in policy produces
    structurally valid assignments (the WM's invariant)."""
    if n_tasks == 0:
        tasks = []
    else:
        tasks = build_app(n_tasks, fft_capable=set(range(0, n_tasks, 2)))
    handlers = make_handlers(pes)
    oracle = FixedOracle({})
    sched = make_scheduler(policy, oracle)
    if policy == "random":
        sched.rng = np.random.default_rng(0)
    out = sched.schedule(tasks, handlers, 0.0)
    validate_assignments(out, tasks)
    assert len({id(a.handler) for a in out}) == len(out)


# -- EFT-family placement: exactness and early exit ----------------------------


def naive_eft(order, handlers, oracle, now):
    """Reference list-scheduling EFT written without the library's helpers:
    every task is costed on every live PE (no early exit, no caches), and
    bookings on idle PEs not yet taken become (task, handler) pairs."""
    avail = {}
    for h in handlers:
        if h.status is PEStatus.IDLE:
            avail[h.name] = now
        else:
            avail[h.name] = max(h.estimated_free_time, now)
    taken = set()
    out = []
    for task in order:
        best = None
        for h in handlers:
            if h.failed:
                continue
            est = oracle.estimate(task, h)
            if est is None:
                continue
            finish = avail[h.name] + est
            if best is None or finish < best[0]:
                best = (finish, h)
        if best is None:
            continue
        finish, h = best
        avail[h.name] = finish
        if h.status is PEStatus.IDLE and h.name not in taken:
            taken.add(h.name)
            out.append((task, h))
    return out


class NoDeviceOracle:
    """Wraps an oracle and answers None on the listed PEs: an accelerator
    with no device attached, which the task's platform list still names."""

    def __init__(self, inner, dead_pe_ids):
        self.inner = inner
        self.dead = set(dead_pe_ids)

    def estimate(self, task, handler):
        if handler.pe_id in self.dead:
            return None
        return self.inner.estimate(task, handler)


class CountingIter:
    """Iterable wrapper that counts the items pulled from it."""

    def __init__(self, items):
        self.items = items
        self.pulled = 0

    def __iter__(self):
        for item in self.items:
            self.pulled += 1
            yield item


EFT_FAMILY = {"eft": EFTScheduler, "heft": HEFTScheduler,
              "cprank": CPRankScheduler}


def _cores():
    cores = [core_select.CORE_PURE]
    if _native.load() is not None:
        cores.append(core_select.CORE_COMPILED)
    return cores


def _spy_placement(sched):
    """Record each pass's ``order`` (and wrap it in a CountingIter) while
    the real placement helper runs unchanged."""
    real = sched.eft_placement
    seen = {}

    def spy(order, handlers, now, ready=None):
        seen["order"] = list(order)
        seen["pulls"] = counting = CountingIter(order)
        return real(counting, handlers, now,
                    order if ready is None else ready)

    sched.eft_placement = spy
    return seen


@pytest.mark.parametrize("core", _cores())
@pytest.mark.parametrize("policy", sorted(EFT_FAMILY))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_eft_placement_matches_naive_full_scan(policy, core, data):
    apps = data.draw(st.lists(
        st.tuples(st.integers(1, 8), st.sets(st.integers(0, 7))),
        min_size=1, max_size=3,
    ))
    tasks = [t for n, fft in apps for t in build_app(n, fft_capable=fft)]
    order = data.draw(st.permutations(tasks))
    kinds = data.draw(st.lists(st.sampled_from(["cpu", "fft"]),
                               min_size=1, max_size=5))
    handlers = make_handlers(kinds)
    filler = build_app(1)[0]
    for h in handlers:
        state = data.draw(st.sampled_from(["idle", "busy", "failed"]))
        if state == "busy":
            h.assign(filler)
            h.estimated_free_time = data.draw(
                st.sampled_from([0.0, 3.0, 10.0, 25.0]))
        elif state == "failed":
            h.mark_failed(0.0)
    time = st.sampled_from([5.0, 10.0, 12.5, 40.0])
    times = {}
    for i in range(8):
        times[(f"k{i}", "cpu")] = data.draw(time)
        times[(f"k{i}_accel", "fft")] = data.draw(time)
    no_device = data.draw(st.sets(st.sampled_from(
        [h.pe_id for h in handlers if h.type_name == "fft"] or [-1])))
    oracle = NoDeviceOracle(FixedOracle(times), no_device)
    container = data.draw(st.sampled_from(["list", "ready", "tombstoned"]))
    if container == "list":
        ready = list(order)
    else:
        ready = ReadyList()
        if container == "tombstoned" and order:
            # Interleave extra tasks and remove them mid-list, so live
            # entries sit between tombstones (and their classes were
            # counted and uncounted).
            extras = build_app(len(order), fft_capable={0, 2})
            ready.extend([order[0]])
            for t, x in zip(order[1:], extras):
                ready.extend([x, t])
            ready.remove_ids({id(x) for x in extras})
        else:
            ready.extend(order)
        assert list(ready) == order
    with core_select.forced(core):
        sched = EFT_FAMILY[policy](oracle)
    seen = _spy_placement(sched)
    out = sched.schedule(ready, handlers, 2.0)
    expected = naive_eft(seen["order"], handlers, oracle, 2.0)
    assert [(id(a.task), a.handler.name) for a in out] == \
        [(id(t), h.name) for t, h in expected]


@pytest.mark.parametrize("policy", sorted(EFT_FAMILY))
class TestEFTEarlyExit:
    """The pure placement loop stops reading the ready tasks once none of
    the remaining ones can reach an open PE.  The equivalence test above
    cannot see a regression that silently disables the exit; this can."""

    def _pass(self, policy, kinds, busy, ready):
        handlers = make_handlers(kinds)
        filler = build_app(1)[0]
        for i in busy:
            handlers[i].assign(filler)
            handlers[i].estimated_free_time = 50.0
        with core_select.forced(core_select.CORE_PURE):
            sched = EFT_FAMILY[policy](FixedOracle({}))
        seen = _spy_placement(sched)
        out = sched.schedule(ready, handlers, 0.0)
        return out, seen["pulls"].pulled

    def test_idle_accelerator_and_cpu_only_tasks_reads_nothing(self, policy):
        ready = ReadyList()
        ready.extend(build_app(6))  # CPU-only
        out, pulled = self._pass(policy, ["cpu", "fft"], busy=[0],
                                 ready=ready)
        assert out == [] and pulled == 0

    def test_stops_after_last_reachable_pe_is_taken(self, policy):
        ready = ReadyList()
        ready.extend(build_app(6))
        out, pulled = self._pass(policy, ["cpu", "cpu", "fft"], busy=[1],
                                 ready=ready)
        assert [a.handler.pe_id for a in out] == [0]
        assert pulled == len(out)

    def test_plain_list_keeps_the_full_scan(self, policy):
        # Without class counts only a fully taken PE set ends the scan.
        out, pulled = self._pass(policy, ["cpu", "fft"], busy=[0],
                                 ready=build_app(6))
        assert out == [] and pulled == 6
