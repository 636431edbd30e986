"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are named by module.  Every boundary below is a public method or
module function; the benchmark wraps it from outside, so the program is
unchanged and the measured runs carry no wrappers at all.

Self times are summed over a layer's boundaries.  The ``setup.*`` and
``application_handler.instantiate_s`` metrics are inclusive totals, since
set-up spans sit outside the ``VirtualBackend.run`` root.
"""

from __future__ import annotations

from perfbench.tracer import Tracer, quantile_ns

ROOT = "VirtualBackend.run"
SCHEDULERS = ("FRFSScheduler", "METScheduler", "EFTScheduler")
WORKLOAD_CONSTRUCTORS = (
    "validation_workload",
    "workload_at_rate",
    "ArrivalSpec.build",
)

#: boundary name -> layer
LAYER_OF: dict[str, str] = {
    ROOT: "virtual",
    **{
        f"WorkloadManagerCore.{m}": "workload_manager"
        for m in (
            "process_completions", "inject_due", "run_policy", "commit",
            "check_liveness", "absorb_requeues",
        )
    },
    **{f"{cls}.schedule": "schedulers" for cls in SCHEDULERS},
    "PerfModelOracle.estimate": "oracle",
    **{
        f"ResourceHandler.{m}": "handler"
        for m in (
            "assign", "reserve", "finish_task", "acknowledge_complete",
            "drain_finished",
        )
    },
    "ApplicationHandler.instantiate_one": "application_handler",
    "ApplicationInstance.release": "appmodel.instance",
    **{
        f"EmulationStats.{m}": "stats"
        for m in (
            "record_task", "record_scheduling_pass", "record_injection",
            "record_app_completion", "record_app_drop", "record_pe_failure",
            "record_transient_fault", "record_requeue",
            "record_app_degradation",
        )
    },
    "QoSController.poll": "qos",
    "QoSController.assign_deadline": "qos",
    "EDFScheduler.schedule": "qos",
    "Emulation.__init__": "setup",
    "Emulation.build_session": "setup",
    **{name: "setup" for name in WORKLOAD_CONSTRUCTORS},
    "run_campaign": "dse",
    "ResultCache.put": "dse",
    "Journal.append": "dse",
}

#: name, unit, better — in the order BENCHMARK.json lists them.  Every one
#: is measured on every workload.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("virtual.run_s", "s", "lower"),
    ("virtual.self_s", "s", "lower"),
    ("sim.engine.events_per_task", "count", "lower"),
    ("sim.resources.consumes_per_task", "count", "lower"),
    ("sim.resources.mailbox_ops_per_task", "count", "lower"),
    ("workload_manager.self_s", "s", "lower"),
    ("workload_manager.passes_per_task", "count", "lower"),
    ("schedulers.self_s", "s", "lower"),
    ("schedulers.pass_p50_us", "us", "lower"),
    ("schedulers.pass_p99_us", "us", "lower"),
    ("schedulers.ready_len_mean", "count", "lower"),
    ("schedulers.useful_pass_frac", "ratio", "higher"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.calls_per_pass", "count", "lower"),
    ("handler.self_s", "s", "lower"),
    ("handler.calls_per_task", "count", "lower"),
    ("application_handler.instantiate_s", "s", "lower"),
    ("application_handler.instantiate_calls", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("stats.calls_per_task", "count", "lower"),
    ("setup.build_session_s", "s", "lower"),
    ("setup.workload_build_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Layers only some workloads run: release only in streaming runs, qos
#: only in stream-qos, dse only in sweep-pool.  Elsewhere they read 0, so
#: they are printed and recorded but kept out of BENCHMARK.json, whose
#: metrics every run must report as measured.
WORKLOAD_SPECIFIC: tuple[tuple[str, str, str], ...] = (
    ("appmodel.instance.release_s", "s", "lower"),
    ("appmodel.instance.release_calls", "count", "lower"),
    ("qos.self_s", "s", "lower"),
    ("dse.worker_busy_frac", "ratio", "higher"),
    ("dse.overhead_per_cell_ms", "ms", "lower"),
    ("dse.cell_wall_ms_p50", "ms", "lower"),
    ("dse.cell_wall_ms_p99", "ms", "lower"),
    ("dse.cache_put_s", "s", "lower"),
    ("dse.journal_append_s", "s", "lower"),
)


def _on_run(tracer: Tracer, args, stats) -> None:
    backend = args[0]
    extra = tracer.extra
    extra["tasks"] = extra.get("tasks", 0) + stats.task_count
    info = backend.last_run_info or {}
    extra["events"] = extra.get("events", 0) + info.get("events_fired", 0)


def _on_schedule(tracer: Tracer, args, assignments) -> None:
    extra = tracer.extra
    extra["passes"] = extra.get("passes", 0) + 1
    extra["ready_len_sum"] = extra.get("ready_len_sum", 0) + len(args[1])
    if assignments:
        extra["useful_passes"] = extra.get("useful_passes", 0) + 1


def install(tracer: Tracer) -> None:
    """Wrap every boundary of :data:`LAYER_OF` plus the count-only ones."""
    import repro.dse.runner as runner_mod
    import repro.experiments.workloads as exp_workloads
    import repro.runtime.workload as workload_mod
    from repro.appmodel.instance import ApplicationInstance
    from repro.dse.cache import ResultCache
    from repro.dse.journal import Journal
    from repro.runtime.application_handler import ApplicationHandler
    from repro.runtime.backends.base import PerfModelOracle
    from repro.runtime.backends.virtual import VirtualBackend
    from repro.runtime.emulation import Emulation
    from repro.runtime.handler import ResourceHandler
    from repro.runtime.qos import EDFScheduler, QoSController
    from repro.runtime.schedulers.eft import EFTScheduler
    from repro.runtime.schedulers.frfs import FRFSScheduler
    from repro.runtime.schedulers.met import METScheduler
    from repro.runtime.stats import EmulationStats
    from repro.runtime.workload_manager import WorkloadManagerCore
    from repro.sim.resources import HostCore, Mailbox

    owners = {
        "VirtualBackend": VirtualBackend,
        "WorkloadManagerCore": WorkloadManagerCore,
        "FRFSScheduler": FRFSScheduler,
        "METScheduler": METScheduler,
        "EFTScheduler": EFTScheduler,
        "PerfModelOracle": PerfModelOracle,
        "ResourceHandler": ResourceHandler,
        "ApplicationHandler": ApplicationHandler,
        "ApplicationInstance": ApplicationInstance,
        "EmulationStats": EmulationStats,
        "QoSController": QoSController,
        "EDFScheduler": EDFScheduler,
        "Emulation": Emulation,
        "ArrivalSpec": workload_mod.ArrivalSpec,
        "ResultCache": ResultCache,
        "Journal": Journal,
        "validation_workload": workload_mod,
        "workload_at_rate": exp_workloads,
        "run_campaign": runner_mod,
    }
    hooks = {ROOT: _on_run}
    hooks.update({f"{cls}.schedule": _on_schedule for cls in SCHEDULERS})
    for name in LAYER_OF:
        owner_name, _, attr = name.rpartition(".")
        if not owner_name:
            owner_name, attr = name, name
        tracer.wrap(owners[owner_name], attr, name, hooks.get(name))
    tracer.count(HostCore, "consume", "HostCore.consume")
    tracer.count(Mailbox, "put", "Mailbox.put")
    tracer.count(Mailbox, "get", "Mailbox.get")


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    tracer: Tracer,
    *,
    setups: int,
    rows: list[dict] | None = None,
    campaign_wall_s: float = 0.0,
    jobs: int = 1,
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``setups`` divides the set-up totals; ``rows``, ``campaign_wall_s``
    and ``jobs`` describe a sweep workload's campaign.  The tracing
    overhead ratio needs an untraced run and is added by the caller.
    """
    aggs, counts, extra = tracer.aggs, tracer.counts, tracer.extra
    tasks = extra.get("tasks", 0)
    passes = extra.get("passes", 0)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sched_hist: dict[int, int] = {}
    for name, agg in aggs.items():
        layer = LAYER_OF[name]
        self_s[layer] = self_s.get(layer, 0.0) + agg.self_ns / 1e9
        calls[layer] = calls.get(layer, 0) + agg.count
        if layer == "schedulers":
            for b, c in agg.hist.items():
                sched_hist[b] = sched_hist.get(b, 0) + c
    instantiate = aggs["ApplicationHandler.instantiate_one"]
    release = aggs["ApplicationInstance.release"]
    out = {
        "virtual.run_s": aggs[ROOT].total_ns / 1e9,
        "virtual.self_s": self_s["virtual"],
        "sim.engine.events_per_task": _per(extra.get("events", 0), tasks),
        "sim.resources.consumes_per_task": _per(counts["HostCore.consume"], tasks),
        "sim.resources.mailbox_ops_per_task": _per(
            counts["Mailbox.put"] + counts["Mailbox.get"], tasks
        ),
        "workload_manager.self_s": self_s["workload_manager"],
        "workload_manager.passes_per_task": _per(
            aggs["WorkloadManagerCore.run_policy"].count, tasks
        ),
        "schedulers.self_s": self_s["schedulers"],
        "schedulers.pass_p50_us": quantile_ns(sched_hist, 0.50) / 1e3,
        "schedulers.pass_p99_us": quantile_ns(sched_hist, 0.99) / 1e3,
        "schedulers.ready_len_mean": _per(extra.get("ready_len_sum", 0), passes),
        "schedulers.useful_pass_frac": _per(extra.get("useful_passes", 0), passes),
        "oracle.self_s": self_s["oracle"],
        "oracle.calls_per_pass": _per(calls["oracle"], passes),
        "handler.self_s": self_s["handler"],
        "handler.calls_per_task": _per(calls["handler"], tasks),
        "application_handler.instantiate_s": instantiate.total_ns / 1e9,
        "application_handler.instantiate_calls": instantiate.count,
        "appmodel.instance.release_s": release.total_ns / 1e9,
        "appmodel.instance.release_calls": release.count,
        "stats.self_s": self_s["stats"],
        "stats.calls_per_task": _per(calls["stats"], tasks),
        "qos.self_s": self_s["qos"],
        "setup.build_session_s": (
            aggs["Emulation.__init__"].total_ns
            + aggs["Emulation.build_session"].total_ns
        ) / 1e9 / setups,
        "setup.workload_build_s": sum(
            aggs[name].total_ns for name in WORKLOAD_CONSTRUCTORS
        ) / 1e9 / setups,
        "dse.cache_put_s": aggs["ResultCache.put"].total_ns / 1e9,
        "dse.journal_append_s": aggs["Journal.append"].total_ns / 1e9,
    }
    out.update(campaign_metrics(rows or [], campaign_wall_s, jobs))
    return out


def campaign_metrics(rows: list[dict], wall_s: float, jobs: int) -> dict[str, float]:
    """Pool accounting of one campaign from its rows' per-cell wall time."""
    walls = sorted(r["wall_time_s"] for r in rows if r.get("wall_time_s") is not None)
    if not walls or wall_s <= 0:
        return {
            "dse.worker_busy_frac": 0.0,
            "dse.overhead_per_cell_ms": 0.0,
            "dse.cell_wall_ms_p50": 0.0,
            "dse.cell_wall_ms_p99": 0.0,
        }
    busy = sum(walls)
    capacity = wall_s * jobs
    return {
        "dse.worker_busy_frac": busy / capacity,
        "dse.overhead_per_cell_ms": (capacity - busy) / len(walls) * 1e3,
        "dse.cell_wall_ms_p50": _nearest_rank(walls, 0.50) * 1e3,
        "dse.cell_wall_ms_p99": _nearest_rank(walls, 0.99) * 1e3,
    }


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    idx = max(0, min(len(sorted_vals) - 1, int(q * len(sorted_vals) + 0.5) - 1))
    return sorted_vals[idx]
