"""Distributed sweep coordinator: partition, monitor, merge, conclude.

The coordinator owns the *campaign* while workers own *cells*.  One
loop, :func:`run_distributed_campaign`, serves both transports; it sees
the campaign through a *store* with eight operations (``publish``,
``cache_pass``, ``resolved_snapshot``, ``fetch``, ``status_snapshot``,
``request_stop``, ``event``, ``close``).  Without ``server`` the store is
:class:`DirectoryCampaign` (the shared campaign directory); with
``server=HOST:PORT`` it is the network client
:class:`~repro.dse.distrib.net.client.NetTransport`.  The loop:

1. expands the grid and publishes the durable manifest (the work queue);
2. runs the same cache pass a single-process campaign runs, journaling
   ``cell_cached`` for every cell already resolved on disk;
3. optionally spawns N local worker processes (any number of additional
   workers may attach from other hosts via ``sweep-worker``);
4. polls the store's resolved set — in the directory store this folds
   per-worker journal shards into the canonical ``journal.jsonl``
   exactly once per resolution, with byte offsets of the merged prefix
   persisted so a killed coordinator never re-merges or loses events on
   ``--resume``;
5. watches worker processes and the store's worker health, streaming a
   live status line (cells/sec, ETA, worker health, cache hit rate);
6. on completion writes ``results.json``/frontier inputs identical in
   shape to a single-process campaign (modulo worker attribution).

Killing the coordinator mid-flight loses nothing: workers keep draining
the queue (results land in shards + shared cache, or on the server), and
a resumed coordinator folds it all back together.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterable

from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib.queue import (
    DEFAULT_LEASE_TTL_S,
    DistribError,
    WorkQueue,
    _atomic_write_json,
    _read_json,
    write_manifest,
)
from repro.dse.distrib.status import campaign_snapshot
from repro.dse.distrib.transport import FsTransport
from repro.dse.grid import SweepCell, SweepGrid
from repro.dse.journal import Journal, JournalState
from repro.dse.runner import CampaignResult, CellResult, ProgressFn

#: Shard fields copied verbatim into the canonical journal on merge.
_MERGE_DROP = ("event", "seq", "ts")

#: Worker id of the coordinator's own worker thread (``workers=0``).
_EMBEDDED_WORKER = "w0-embedded"


class ShardMerger:
    """Exactly-once folding of worker journal shards into the canonical log.

    Byte offsets of each shard's merged prefix live in
    ``distrib/merge_state.json`` (written atomically after every merge),
    so a coordinator killed between merges re-reads only unmerged
    suffixes.  Events that would double-resolve a cell — two finishes
    after a lease was re-issued to a second worker just as the first
    woke back up — are dropped here, which is what makes "no
    double-counted results" hold end to end.
    """

    def __init__(
        self, queue: WorkQueue, journal: Journal, state: JournalState
    ) -> None:
        self.queue = queue
        self.journal = journal
        self.state = state
        self.path = queue.root / "merge_state.json"
        doc = _read_json(self.path)
        self.offsets: dict[str, int] = (
            {str(k): int(v) for k, v in doc.items()}
            if isinstance(doc, dict)
            else {}
        )

    def merge(self) -> int:
        """Fold all new shard events into the canonical journal."""
        fresh: list[tuple[float, int, str, dict[str, Any]]] = []
        advanced = False
        for shard in self.queue.shard_paths():
            name = shard.stem
            offset = self.offsets.get(name, 0)
            events, consumed = journal_mod.read_events_from(shard, offset)
            if consumed != offset:
                self.offsets[name] = consumed
                advanced = True
            for event in events:
                fresh.append(
                    (float(event.get("ts", 0.0)), int(event.get("seq", 0)),
                     name, event)
                )
        merged = 0
        for _ts, _seq, name, event in sorted(fresh, key=lambda t: t[:3]):
            kind = event["event"]
            cell_id = event.get("cell_id")
            if cell_id and kind in (
                journal_mod.EVENT_CELL_FINISH,
                journal_mod.EVENT_CELL_CACHED,
            ):
                if cell_id in self.state.completed:
                    continue  # duplicate resolution (lease re-issue race)
            fields = {
                k: v for k, v in event.items() if k not in _MERGE_DROP
            }
            fields.setdefault("worker", name)
            self.journal.append(kind, **fields)
            self.state.fold({"event": kind, **fields})
            merged += 1
        if advanced:
            _atomic_write_json(self.path, self.offsets)
        return merged


def _spawn_worker(
    attach: list[str],
    worker_id: str,
    *,
    lease_ttl_s: float,
    poll_s: float,
) -> subprocess.Popen:
    """Start one local ``sweep-worker`` process; ``attach`` names the store."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    cmd = [
        sys.executable, "-m", "repro.cli", "sweep-worker",
        "--worker-id", worker_id,
        "--lease-ttl", str(lease_ttl_s),
        "--poll", str(poll_s),
        *attach,
    ]
    # Workers narrate to stderr; their stdout JSON summary would
    # otherwise interleave with the coordinator's own --json document.
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


class DirectoryCampaign:
    """The coordinator's side of the directory protocol.

    Offers the same eight coordinator operations as
    :class:`~repro.dse.distrib.net.client.NetTransport`, so one campaign
    loop drives either transport.  Owns the work queue, the shard
    merger, the result cache and the canonical journal of one campaign
    directory; ``publish`` opens them and ``close`` concludes them.
    """

    def __init__(self, out_dir: Path, *, lease_ttl_s: float) -> None:
        self.out_dir = out_dir
        self.queue = WorkQueue(out_dir, owner="coordinator", lease_ttl_s=lease_ttl_s)
        self.cache = ResultCache(out_dir / "cache")
        self.journal_path = out_dir / "journal.jsonl"
        self.cells: dict[str, SweepCell] = {}

    def publish(
        self,
        cells: list[dict[str, Any]],
        *,
        grid_id: str,
        max_attempts: int,
        timeout_s: float | None,
        lease_ttl_s: float,
        resume: bool,
    ) -> int:
        queue = self.queue
        if not resume:
            # Fresh campaign: reset queue state (keep the cache — the
            # cache pass mines it).
            for directory in (
                queue.leases.root, queue.journals_dir, queue.workers_dir,
                queue.failed_dir,
            ):
                for path in directory.iterdir():
                    try:
                        path.unlink()
                    except OSError:
                        pass
            try:
                (queue.root / "merge_state.json").unlink()
            except OSError:
                pass
        queue.clear_stop()
        self.cells = {}
        for doc in cells:
            cell = SweepCell.from_dict(doc)
            self.cells.setdefault(cell.cell_id, cell)
        write_manifest(
            self.out_dir, list(self.cells.values()), grid_id=grid_id,
            max_attempts=max_attempts, timeout_s=timeout_s,
            lease_ttl_s=lease_ttl_s,
        )
        self.state = (
            journal_mod.replay_indexed(self.journal_path)
            if resume
            else JournalState()
        )
        self.journal = Journal(self.journal_path, resume=resume)
        self.merger = ShardMerger(queue, self.journal, self.state)
        return len(self.cells)

    def cache_pass(self, *, force: bool) -> list[str]:
        """Journal every cell already in the cache (or drop them, ``force``)."""
        cached: list[str] = []
        for cell_id, cell in self.cells.items():
            if force:
                self.cache.discard(cell_id)
                continue
            if self.cache.get(cell_id) is not None:
                self.journal.append(
                    journal_mod.EVENT_CELL_CACHED,
                    cell_id=cell_id,
                    label=cell.label,
                    worker="coordinator",
                    attempts=0,
                )
                self.state.fold({"event": journal_mod.EVENT_CELL_CACHED,
                                 "cell_id": cell_id})
                cached.append(cell_id)
        return cached

    def resolved_snapshot(self) -> tuple[set[str], dict[str, dict[str, Any]]]:
        self.merger.merge()
        return set(self.state.completed), self.queue.final_failures()

    def fetch(self, cell_ids: list[str]) -> dict[str, Any]:
        return {cell_id: self.cache.get(cell_id) for cell_id in cell_ids}

    def status_snapshot(self) -> dict[str, Any]:
        return campaign_snapshot(self.out_dir)

    def request_stop(self, reason: str = "coordinator") -> None:
        self.queue.request_stop(reason)

    def event(self, kind: str, **fields: Any) -> None:
        self.journal.append(kind, **fields)

    def close(self) -> None:
        try:
            self.merger.merge()
        except OSError:
            pass
        self.journal.close()
        try:
            journal_mod.write_index(
                self.journal_path, journal_mod.replay(self.journal_path)
            )
        except OSError:
            pass


def _fleet_alive(snapshot: dict[str, Any]) -> bool:
    """Does any worker still beat (``live``, or ``stale`` within 3 ttls)?"""
    return any(
        w.get("health") in ("live", "stale") for w in snapshot["workers"]
    )


def run_distributed_campaign(
    grid: SweepGrid | Iterable[SweepCell],
    out_dir: str | Path,
    *,
    server: str | None = None,
    workers: int = 1,
    resume: bool = False,
    force: bool = False,
    retries: int = 1,
    timeout_s: float | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.5,
    status_interval_s: float = 5.0,
    progress: ProgressFn | None = None,
    status_fn=None,
    worker_grace_s: float = 15.0,
) -> CampaignResult:
    """Run a campaign through the distributed service; see module docstring.

    ``server`` is where the campaign lives: ``None`` for the shared
    directory ``out_dir``, or the ``HOST:PORT`` of a ``sweep-server``
    (no shared mount needed — the durable state lives in the server's
    directory, while ``results.json`` lands in the local ``out_dir``).

    ``workers=0`` coordinates without spawning: external workers attached
    via ``sweep-worker`` (possibly on other hosts) drain the queue, helped
    by one embedded worker thread.  The returned :class:`CampaignResult`
    matches ``run_campaign``'s — same row schema, same frontier inputs —
    so analysis code cannot tell the difference.

    The loop outlasts an unreachable store (a restarting server: workers
    spool and reconnect on their own).  It gives up only when the whole
    fleet is gone — every spawned worker exited and no worker's heartbeat
    is ``live`` or ``stale`` — with cells still unresolved, or when the
    store stays unreachable for ``worker_grace_s`` after that.
    """
    if isinstance(grid, SweepGrid):
        cells = grid.expand()
        grid_id = grid.grid_id
    else:
        cells = list(grid)
        grid_id = f"adhoc-{len(cells)}"
    by_id: dict[str, SweepCell] = {}
    for cell in cells:
        by_id.setdefault(cell.cell_id, cell)
    total = len(by_id)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()

    # The deployment address picks the store, how spawned workers attach
    # to it, and the embedded worker's transport — together.
    if server is None:
        store = DirectoryCampaign(out_path, lease_ttl_s=lease_ttl_s)

        def attach(worker_id: str) -> list[str]:
            return ["--out", str(out_path)]

        def embedded_transport():
            return FsTransport(
                out_path, worker_id=_EMBEDDED_WORKER, lease_ttl_s=lease_ttl_s
            )
    else:
        from repro.dse.distrib.net.client import NetTransport

        store = NetTransport(
            server, worker_id="coordinator",
            spool_dir=out_path / "coordinator-spool",
        )

        def attach(worker_id: str) -> list[str]:
            return ["--server", server,
                    "--spool", str(out_path / f"spool-{worker_id}")]

        def embedded_transport():
            return NetTransport(
                server, worker_id=_EMBEDDED_WORKER,
                spool_dir=out_path / "spool-embedded",
            )

    store.publish(
        [cell.to_dict() for cell in by_id.values()],
        grid_id=grid_id,
        max_attempts=1 + max(0, int(retries)),
        timeout_s=timeout_s,
        lease_ttl_s=lease_ttl_s,
        resume=resume,
    )
    if server is None:
        store_fields: dict[str, Any] = {
            "prior_completed": len(store.state.completed),
            "prior_incomplete": len(store.state.incomplete),
        }
    else:
        store_fields = {"transport": "net"}
    store.event(
        journal_mod.EVENT_CAMPAIGN_START,
        cells=len(cells),
        resume=resume,
        distributed=True,
        workers=workers,
        **store_fields,
    )

    collected: dict[str, CellResult] = {}

    def report(result: CellResult) -> None:
        collected[result.cell.cell_id] = result
        if progress is not None:
            progress(len(collected), total, result)

    def fold(completed: set[str], failed: dict[str, dict[str, Any]]) -> None:
        """Surface newly resolved cells to ``collected`` and the callback."""
        fresh = [
            cell_id for cell_id in sorted(completed)
            if cell_id in by_id and cell_id not in collected
        ]
        metrics = store.fetch(fresh) if fresh else {}
        for cell_id in fresh:
            report(CellResult(by_id[cell_id], "ok", metrics.get(cell_id)))
        for cell_id, record in failed.items():
            if cell_id in by_id and cell_id not in collected:
                report(CellResult(
                    by_id[cell_id], "error",
                    error=str(record.get("error", "?")),
                    attempts=int(record.get("attempts", 1)),
                ))

    # Cache pass — identical semantics to the single-process runner: cells
    # already on disk (including ones a prior interrupted run completed)
    # are journaled as cache hits, never queued.
    cached_ids = [c for c in store.cache_pass(force=force) if c in by_id]
    cached_metrics = store.fetch(cached_ids) if cached_ids else {}
    for cell_id in cached_ids:
        report(CellResult(
            by_id[cell_id], "ok", cached_metrics.get(cell_id), cached=True
        ))

    procs: dict[str, subprocess.Popen] = {}
    embedded: threading.Thread | None = None
    embedded_error: list[BaseException] = []
    interrupted = False
    reachable = True
    try:
        for i in range(max(0, workers)):
            worker_id = f"w{i + 1}"
            procs[worker_id] = _spawn_worker(
                attach(worker_id), worker_id,
                lease_ttl_s=lease_ttl_s, poll_s=poll_s,
            )
        if workers == 0 and len(collected) < total:
            # Coordinate-only mode with no one attached yet: work the
            # queue ourselves so the campaign always makes progress.
            # External workers can still join and share the load.
            from repro.dse.distrib.worker import run_worker

            def _embedded_worker() -> None:
                try:
                    run_worker(
                        transport=embedded_transport(),
                        lease_ttl_s=lease_ttl_s, poll_s=poll_s,
                    )
                except BaseException as exc:  # noqa: BLE001 — surfaced below
                    embedded_error.append(exc)

            embedded = threading.Thread(
                target=_embedded_worker, name="embedded-worker", daemon=True
            )
            embedded.start()

        last_status = 0.0
        fleet_gone_since: float | None = None
        while True:
            # Liveness: reap exited workers.  Spawned workers exist only
            # when ``workers > 0``, the embedded thread only when it is 0.
            for worker_id, proc in list(procs.items()):
                if proc.poll() is not None:
                    del procs[worker_id]
            if embedded is not None and not embedded.is_alive():
                if embedded_error:
                    raise DistribError(
                        f"embedded worker died: {embedded_error[0]}"
                    ) from embedded_error[0]
                embedded = None
            if workers > 0 and not procs and fleet_gone_since is None:
                fleet_gone_since = time.monotonic()

            # A fresh look at the store; once the fleet is gone it also
            # decides whether anyone is left to finish the campaign.
            try:
                fold(*store.resolved_snapshot())
                stranded = (
                    fleet_gone_since is not None
                    and len(collected) < total
                    and not _fleet_alive(store.status_snapshot())
                )
                reachable = True
            except DistribError as exc:
                # Store unreachable (a restarting server): live workers
                # spool and reconnect on their own, so wait it out — once
                # the fleet is gone, only for the grace window.
                reachable = False
                if (
                    fleet_gone_since is not None
                    and time.monotonic() - fleet_gone_since >= worker_grace_s
                ):
                    raise DistribError(
                        f"all workers exited and the campaign store is "
                        f"unreachable with {total - len(collected)} cells "
                        "unresolved — restart the server, then re-run "
                        "with --resume"
                    ) from exc
                time.sleep(poll_s)
                continue
            if len(collected) >= total:
                break
            if stranded:
                raise DistribError(
                    f"all workers exited with {total - len(collected)} "
                    "cells unresolved — check worker logs, then re-run "
                    "with --resume"
                )

            now = time.monotonic()
            if status_fn is not None and now - last_status >= status_interval_s:
                last_status = now
                try:
                    status_fn(store.status_snapshot())
                except DistribError:
                    pass
            time.sleep(poll_s)
    except (KeyboardInterrupt, Exception):
        interrupted = True
        raise
    finally:
        try:
            store.request_stop()
        except DistribError:
            pass
        deadline = time.monotonic() + worker_grace_s
        if embedded is not None:
            embedded.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
        # Fold what the stopped workers resolved last, so the canonical
        # journal holds it before ``campaign_end``.
        if reachable:
            try:
                fold(*store.resolved_snapshot())
            except (DistribError, OSError):
                pass
        end_fields: dict[str, Any] = {
            "cells": len(cells),
            "completed": sum(1 for r in collected.values() if r.ok),
            "failed": sum(1 for r in collected.values() if not r.ok),
        }
        if interrupted:
            end_fields["interrupted"] = True
        try:
            store.event(journal_mod.EVENT_CAMPAIGN_END, **end_fields)
        except DistribError:
            pass
        store.close()

    # -- conclude: same result shape as the single-process runner ------------------
    results = [
        collected.get(cell.cell_id)
        or CellResult(cell, "error", error="unresolved")
        for cell in cells
    ]
    campaign = CampaignResult(
        results=results,
        out_dir=out_path,
        elapsed_s=time.monotonic() - t_start,
    )
    campaign.save(out_path / "results.json")
    return campaign


def merge_once(out_dir: str | Path) -> dict[str, Any]:
    """One offline merge pass (no campaign run): shards -> canonical journal.

    Lets an operator fold completed workers' shards into the canonical
    journal without re-running the coordinator loop — ``sweep --status``
    after this sees the campaign's true state.  Returns a small report.
    """
    out_path = Path(out_dir)
    queue = WorkQueue(out_path, owner="coordinator")
    journal_path = out_path / "journal.jsonl"
    state = journal_mod.replay_indexed(journal_path)
    journal = Journal(journal_path, resume=True)
    merger = ShardMerger(queue, journal, state)
    merged = merger.merge()
    journal.close()
    journal_mod.write_index(journal_path, journal_mod.replay(journal_path))
    return {"merged_events": merged, "completed": len(state.completed)}
