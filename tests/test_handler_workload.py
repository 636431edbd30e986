"""Tests for resource handlers and workload generation."""

from __future__ import annotations

import sys
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.instance import ApplicationInstance
from repro.common.errors import ApplicationSpecError, EmulationError
from repro.common.units import MS
from repro.hardware.pe import PE_BIG, PE_CPU, PE_FFT, ProcessingElement
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.workload import (
    WorkloadItem,
    performance_workload,
    periodic_arrivals,
    validation_workload,
    workload_for_counts,
)
from repro.experiments.workloads import TABLE_II_COUNTS
from tests.conftest import make_diamond_graph


def make_handler(pe_type=PE_CPU, pe_id=0, core=1) -> ResourceHandler:
    return ResourceHandler(
        ProcessingElement(pe_id=pe_id, pe_type=pe_type,
                          name=f"{pe_type.name}{pe_id}", host_core=core)
    )


def make_task(name="A"):
    instance = ApplicationInstance(make_diamond_graph(), 0, 0.0)
    task = instance.tasks[name]
    task.mark_ready(0.0)
    return task


class TestResourceHandler:
    def test_three_state_protocol(self):
        handler = make_handler()
        task = make_task()
        assert handler.status is PEStatus.IDLE
        handler.assign(task)
        assert handler.status is PEStatus.RUN
        assert handler.current_task is task
        handler.finish_task()
        assert handler.status is PEStatus.COMPLETE
        handler.acknowledge_complete()
        assert handler.status is PEStatus.IDLE
        assert handler.current_task is None

    def test_assign_to_busy_pe_rejected(self):
        handler = make_handler()
        handler.assign(make_task())
        with pytest.raises(EmulationError, match="assign while run"):
            handler.assign(make_task())

    def test_finish_without_run_rejected(self):
        with pytest.raises(EmulationError):
            make_handler().finish_task()

    def test_acknowledge_without_complete_rejected(self):
        with pytest.raises(EmulationError):
            make_handler().acknowledge_complete()

    def test_reserve_starts_immediately_when_idle(self):
        handler = make_handler()
        task = make_task()
        assert handler.reserve(task) is True
        assert handler.status is PEStatus.RUN

    def test_reserve_queues_when_busy(self):
        handler = make_handler()
        first, second = make_task(), make_task()
        handler.reserve(first)
        assert handler.reserve(second) is False
        assert list(handler.reservation_queue) == [second]

    def test_self_serve_pulls_next_reservation(self):
        handler = make_handler()
        first, second = make_task(), make_task()
        handler.reserve(first)
        handler.reserve(second)
        next_task = handler.finish_task(self_serve=True)
        assert next_task is second
        assert handler.status is PEStatus.RUN
        assert handler.finish_task(self_serve=True) is None
        assert handler.status is PEStatus.IDLE
        assert handler.current_task is None

    def test_accepted_platforms_generic_cpu(self):
        cpu = make_handler(PE_CPU)
        assert cpu.accepted_platforms == ("cpu",)
        big = make_handler(PE_BIG)
        assert big.accepted_platforms == ("big", "cpu")
        fft = make_handler(PE_FFT)
        assert fft.accepted_platforms == ("fft",)

    def test_failed_reads_status(self):
        handler = make_handler()
        handler.reserve(make_task())
        assert not handler.failed
        handler.mark_failed(5.0)
        assert handler.failed and handler.status is PEStatus.FAILED
        with pytest.raises(AttributeError):
            handler.failed = False  # read-only view of status


class _YieldingQueue(deque):
    """A reservation queue that gives up the GIL inside every check and
    append, so an unguarded check-then-act in the handler really
    interleaves with the other thread instead of hiding between switches."""

    def __len__(self):
        n = super().__len__()
        time.sleep(0)
        return n

    def __bool__(self):
        return len(self) > 0

    def append(self, item):
        time.sleep(0)
        super().append(item)


class TestResourceHandlerRace:
    """The WM's ``reserve`` and the RM's self-serve ``finish_task`` race on
    ``reservation_queue``; only the handler lock keeps them consistent."""

    def test_reserve_vs_self_serve_finish(self):
        handler = make_handler()
        handler.reservation_queue = _YieldingQueue()
        n = 10_000
        executed: list[int] = []
        stranded: list[int] = []
        wm_done = threading.Event()

        def wm():
            for k in range(n):
                handler.reserve(k)
            wm_done.set()

        def rm():
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                with handler.lock:
                    if (
                        handler.status is PEStatus.IDLE
                        and handler.reservation_queue
                    ):
                        stranded.append(handler.reservation_queue[0])
                        return
                task = (
                    handler.current_task
                    if handler.status is PEStatus.RUN
                    else None
                )
                if task is None:
                    if wm_done.is_set() and handler.status is PEStatus.IDLE:
                        return
                    continue
                while task is not None:
                    executed.append(task)
                    task = handler.finish_task(self_serve=True)

        # Switch threads as often as possible so the check-and-set windows
        # in reserve/finish_task actually interleave.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f) for f in (wm, rm)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert stranded == [], "task queued behind an IDLE PE"
        # Every reserved task ran exactly once, in booking order, or is
        # still queued — nothing lost, nothing run twice.
        assert executed + list(handler.reservation_queue) == list(range(n))
        assert handler.status is PEStatus.IDLE
        assert not handler.reservation_queue


class TestWorkloadSpecs:
    def test_validation_all_at_zero(self):
        spec = validation_workload({"a": 2, "b": 1})
        assert spec.size == 3
        assert all(item.arrival_time == 0.0 for item in spec.items)
        assert spec.mode == "validation"
        assert spec.counts() == {"a": 2, "b": 1}

    def test_validation_empty_rejected(self):
        with pytest.raises(ApplicationSpecError):
            validation_workload({})
        with pytest.raises(ApplicationSpecError):
            validation_workload({"a": -1})

    def test_items_sorted_by_arrival(self):
        from repro.runtime.workload import WorkloadSpec

        spec = WorkloadSpec(
            items=[WorkloadItem("a", 50.0), WorkloadItem("b", 10.0)]
        )
        assert [i.app_name for i in spec.items] == ["b", "a"]

    def test_negative_arrival_rejected(self):
        with pytest.raises(ApplicationSpecError):
            WorkloadItem("a", -1.0)

    def test_periodic_arrivals_exact_count(self):
        arrivals = periodic_arrivals(period=100.0, time_frame=1000.0)
        assert len(arrivals) == 10
        assert arrivals[0] == 0.0

    def test_periodic_arrivals_probability_zero(self):
        rng = np.random.default_rng(0)
        assert periodic_arrivals(10.0, 100.0, probability=0.0, rng=rng) == []

    def test_periodic_arrivals_probability_subsamples(self):
        rng = np.random.default_rng(0)
        arrivals = periodic_arrivals(1.0, 1000.0, probability=0.5, rng=rng)
        assert 380 < len(arrivals) < 620

    def test_performance_workload_rate(self):
        spec = performance_workload({"a": 1000.0}, time_frame=100.0 * MS)
        assert spec.size == 100
        assert spec.injection_rate_per_ms() == pytest.approx(1.0)

    def test_performance_workload_deterministic_with_seed(self):
        kwargs = dict(
            app_periods={"a": 500.0},
            time_frame=10_000.0,
            probabilities={"a": 0.5},
        )
        a = performance_workload(seed=42, **kwargs)
        b = performance_workload(seed=42, **kwargs)
        c = performance_workload(seed=43, **kwargs)
        assert [i.arrival_time for i in a.items] == [i.arrival_time for i in b.items]
        assert a.size != c.size or (
            [i.arrival_time for i in a.items] != [i.arrival_time for i in c.items]
        )

    @pytest.mark.parametrize("rate,counts", sorted(TABLE_II_COUNTS.items()))
    def test_table_ii_inversion_exact(self, rate, counts):
        """Every Table II workload hits its exact counts and rate."""
        spec = workload_for_counts(counts)
        assert spec.counts() == counts
        assert spec.injection_rate_per_ms() == pytest.approx(rate, abs=0.005)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=1, max_value=600),
            min_size=1,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_count_inversion_property(self, counts):
        spec = workload_for_counts(counts, time_frame=100.0 * MS)
        assert spec.counts() == counts

    def test_workload_for_counts_rejects_all_zero(self):
        with pytest.raises(ApplicationSpecError):
            workload_for_counts({"a": 0})


class TestWorkloadParamValidation:
    """Performance-mode parameters are rejected up front, not mid-loop.

    A NaN period/time-frame would make every loop comparison False and
    spin the arrival generator forever; zero/negative values would
    silently produce empty or absurd traces.
    """

    @pytest.mark.parametrize(
        "period", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_periodic_arrivals_rejects_bad_period(self, period):
        with pytest.raises(ApplicationSpecError, match="period"):
            periodic_arrivals(period, 100.0)

    @pytest.mark.parametrize(
        "time_frame", [0.0, -5.0, float("nan"), float("inf")]
    )
    def test_periodic_arrivals_rejects_bad_time_frame(self, time_frame):
        with pytest.raises(ApplicationSpecError, match="time_frame"):
            periodic_arrivals(10.0, time_frame)

    @pytest.mark.parametrize("phase", [-1.0, float("nan"), float("inf")])
    def test_periodic_arrivals_rejects_bad_phase(self, phase):
        with pytest.raises(ApplicationSpecError, match="phase"):
            periodic_arrivals(10.0, 100.0, phase=phase)

    @pytest.mark.parametrize("time_frame", [0.0, float("nan")])
    def test_performance_workload_rejects_bad_time_frame(self, time_frame):
        with pytest.raises(ApplicationSpecError, match="time_frame"):
            performance_workload({"a": 10.0}, time_frame=time_frame)

    def test_workload_for_counts_rejects_negative_count(self):
        with pytest.raises(ApplicationSpecError, match="negative instance count"):
            workload_for_counts({"a": -1}, 100.0)

    @pytest.mark.parametrize("rate", [0.0, -2.0, float("nan"), float("inf")])
    def test_counts_at_rate_rejects_bad_rate(self, rate):
        from repro.experiments.workloads import counts_at_rate

        with pytest.raises(ApplicationSpecError, match="rate"):
            counts_at_rate(rate)

    def test_counts_at_rate_rejects_bad_time_frame(self):
        from repro.experiments.workloads import counts_at_rate

        with pytest.raises(ApplicationSpecError, match="time_frame"):
            counts_at_rate(4.0, time_frame=float("nan"))
