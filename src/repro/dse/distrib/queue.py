"""Durable lease-based work queue for distributed sweep campaigns.

The queue is a directory protocol, not a server: coordinator and workers
share nothing but a campaign directory (same host, or many hosts over a
shared filesystem).  Layout under ``<campaign>/distrib/``::

    manifest.json        the whole campaign: every cell, in grid order
    leases/              one lease file per in-flight cell (see leases.py)
    journals/<w>.jsonl   per-worker append-only journal shards
    workers/<w>.json     per-worker heartbeat + status snapshots
    failed/<id>.json     per-cell failure records (attempts, last error)
    STOP                 coordinator's drain request to all workers

A cell is *resolved* when its result is in the shared cache (completed)
or its failure record says the attempt budget is exhausted (failed).
Everything else is claimable work; the lease protocol guarantees one
computing worker per cell at a time, and a crashed worker's lease
expires so its cell is re-issued.  Failure records are only ever written
by the cell's current lease holder, so read-modify-write on them is
race-free by construction.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any

from repro.common.errors import ReproError
from repro.dse.distrib.leases import LeaseDir
from repro.dse.grid import SweepCell

MANIFEST_VERSION = 1

#: Default lease ttl: a worker that misses heartbeats for this long is
#: presumed dead and its cell is re-issued.
DEFAULT_LEASE_TTL_S = 30.0


class DistribError(ReproError):
    """The distributed campaign directory is missing or inconsistent."""


def distrib_dir(out_dir: str | Path) -> Path:
    return Path(out_dir) / "distrib"


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _atomic_write_json(path: Path, doc: Any) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _read_json(path: Path) -> Any | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


# -- manifest --------------------------------------------------------------------


def write_manifest(
    out_dir: str | Path,
    cells: list[SweepCell],
    *,
    grid_id: str,
    max_attempts: int,
    timeout_s: float | None,
    lease_ttl_s: float,
) -> Path:
    """Partition the campaign into the durable queue (atomic, idempotent)."""
    root = distrib_dir(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": MANIFEST_VERSION,
        "grid_id": grid_id,
        "created_ts": round(time.time(), 3),
        "max_attempts": max_attempts,
        "timeout_s": timeout_s,
        "lease_ttl_s": lease_ttl_s,
        "cells": [cell.to_dict() for cell in cells],
    }
    path = root / "manifest.json"
    _atomic_write_json(path, doc)
    return path


def load_manifest(out_dir: str | Path) -> dict[str, Any]:
    path = distrib_dir(out_dir) / "manifest.json"
    doc = _read_json(path)
    if doc is None:
        raise DistribError(
            f"no campaign manifest at {path} — start the coordinator first "
            "(dssoc-emulate sweep --workers N --out DIR)"
        )
    if doc.get("version") != MANIFEST_VERSION:
        raise DistribError(
            f"manifest version {doc.get('version')!r} unsupported "
            f"(this build speaks {MANIFEST_VERSION})"
        )
    return doc


def manifest_cells(manifest: dict[str, Any]) -> list[SweepCell]:
    return [SweepCell.from_dict(d) for d in manifest["cells"]]


# -- queue -----------------------------------------------------------------------


class WorkQueue:
    """One process's handle on the campaign's shared queue directory."""

    def __init__(
        self,
        out_dir: str | Path,
        *,
        owner: str,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.root = distrib_dir(out_dir)
        self.owner = owner
        self.leases = LeaseDir(
            self.root / "leases", owner=owner, ttl_s=lease_ttl_s
        )
        self.journals_dir = self.root / "journals"
        self.workers_dir = self.root / "workers"
        self.failed_dir = self.root / "failed"
        for sub in (self.journals_dir, self.workers_dir, self.failed_dir):
            sub.mkdir(parents=True, exist_ok=True)

    # -- stop flag -------------------------------------------------------------------

    @property
    def stop_path(self) -> Path:
        return self.root / "STOP"

    def request_stop(self, reason: str = "coordinator") -> None:
        _atomic_write_json(
            self.stop_path, {"reason": reason, "ts": round(time.time(), 3)}
        )

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    # -- cell claims -----------------------------------------------------------------

    def try_claim(self, cell_id: str) -> bool:
        """Claim a cell for execution (breaking an expired holder's lease)."""
        return self.leases.acquire(cell_id)

    def renew_claim(self, cell_id: str) -> bool:
        return self.leases.renew(cell_id)

    def release_claim(self, cell_id: str) -> bool:
        return self.leases.release(cell_id)

    def holds_claim(self, cell_id: str) -> bool:
        return self.leases.holds(cell_id)

    def claimed_elsewhere(self, cell_id: str) -> bool:
        """Held by a live peer? (A stale lease reads as claimable.)"""
        info = self.leases.info(cell_id)
        if info is None or info.owner == self.owner:
            return False
        return not self.leases.is_stale(info)

    # -- failure records (lease-holder-only writes) ----------------------------------

    def failure_path(self, cell_id: str) -> Path:
        return self.failed_dir / f"{cell_id}.json"

    def record_failure(
        self, cell_id: str, error: str, *, max_attempts: int
    ) -> dict[str, Any]:
        """Charge one failed attempt; marks the cell final at the budget.

        Must only be called while holding the cell's lease — that is what
        makes the read-modify-write safe with many workers.
        """
        record = _read_json(self.failure_path(cell_id))
        if not isinstance(record, dict):
            record = {"cell_id": cell_id, "attempts": 0, "errors": []}
        record["attempts"] = int(record.get("attempts", 0)) + 1
        record.setdefault("errors", []).append(error)
        record["errors"] = record["errors"][-8:]  # bound the record size
        record["final"] = record["attempts"] >= max_attempts
        record["worker"] = self.owner
        record["ts"] = round(time.time(), 3)
        _atomic_write_json(self.failure_path(cell_id), record)
        return record

    def clear_failure(self, cell_id: str) -> None:
        try:
            self.failure_path(cell_id).unlink()
        except OSError:
            pass

    def failure(self, cell_id: str) -> dict[str, Any] | None:
        record = _read_json(self.failure_path(cell_id))
        return record if isinstance(record, dict) else None

    def failed_final(self) -> dict[str, dict[str, Any]]:
        """All cells whose attempt budget is exhausted."""
        out: dict[str, dict[str, Any]] = {}
        for path in self.failed_dir.glob("*.json"):
            record = _read_json(path)
            if isinstance(record, dict) and record.get("final"):
                out[path.stem] = record
        return out

    def final_failures(self) -> dict[str, dict[str, Any]]:
        """:meth:`failed_final` as the coordinator folds it: attempts and
        the last error per cell (the network ``resolved`` reply's shape)."""
        return {
            cell_id: {
                "attempts": int(rec.get("attempts", 1)),
                "final": True,
                "error": (rec.get("errors") or ["?"])[-1],
            }
            for cell_id, rec in self.failed_final().items()
        }

    # -- worker heartbeats -----------------------------------------------------------

    def worker_path(self, worker_id: str) -> Path:
        return self.workers_dir / f"{worker_id}.json"

    def write_worker_status(self, worker_id: str, **fields: Any) -> None:
        _atomic_write_json(
            self.worker_path(worker_id),
            {"worker": worker_id, "ts": round(time.time(), 3), **fields},
        )

    def worker_statuses(self) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for path in self.workers_dir.glob("*.json"):
            doc = _read_json(path)
            if isinstance(doc, dict):
                out[path.stem] = doc
        return out

    def shard_path(self, worker_id: str) -> Path:
        return self.journals_dir / f"{worker_id}.jsonl"

    def shard_paths(self) -> list[Path]:
        return sorted(self.journals_dir.glob("*.jsonl"))
