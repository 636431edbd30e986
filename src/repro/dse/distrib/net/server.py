"""The sweep queue server: campaign state behind a TCP request loop.

``dssoc-emulate sweep-server --out DIR`` owns one campaign: the
manifest, cell leases, result submission, failure records, worker
heartbeats, and the canonical journal.  Workers and coordinators speak
length-prefixed JSON frames (:mod:`repro.dse.distrib.net.framing`) to
it; no participant other than the server touches the campaign
directory, so fleets need no shared mount.

Two properties carry the robustness story:

* **Idempotent requests.**  Every mutating request carries a client
  token (its retry-stable request id).  A ``claim`` retried after a
  dropped ACK re-grants the same lease instead of reading as a
  competing claim; a ``submit`` retried after a dropped ACK folds as a
  dedupe because the completed set already contains the cell; a
  ``fail`` retried with the same token does not double-charge the
  attempt budget.  Exactly-once journal folding is therefore preserved
  end to end under arbitrary request replay.
* **Durable state, volatile bookkeeping.**  Everything that must
  survive a server SIGKILL is already durable through PR 5 machinery —
  the manifest file, the journal (+ index), the content-hash cache,
  per-cell failure records.  Leases and worker tables are deliberately
  in-memory: after a restart they are empty, workers re-claim on their
  next pass, and the completed-set replay guarantees no cell is lost or
  double-counted.

The request handler (:meth:`SweepServer.handle`) is a pure
dict-in/dict-out function, so protocol invariants are testable (and
property-testable) without sockets; :meth:`SweepServer.serve` is a thin
single-threaded ``selectors`` loop around it.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib.queue import (
    DEFAULT_LEASE_TTL_S,
    WorkQueue,
    _atomic_write_json,
    _read_json,
    distrib_dir,
    write_manifest,
)
from repro.dse.distrib.transport import (
    CLAIM_BUSY,
    CLAIM_CACHED,
    CLAIM_FAILED_FINAL,
    CLAIM_GRANTED,
    CLAIM_RESOLVED,
)
from repro.dse.grid import SweepCell
from repro.dse.journal import Journal
from repro.dse.distrib.net.framing import FrameAssembler, FrameError, encode_frame

#: Protocol version spoken by this build; bumped on incompatible change.
PROTOCOL_VERSION = 1

#: Window for the "recent" throughput estimate feeding the status ETA.
_RECENT_WINDOW_S = 60.0

#: A worker whose heartbeat is older than this many lease ttls is dead.
_STALE_FACTOR = 3.0


def endpoint_path(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir) / "server.json"


def load_endpoint(out_dir: str | Path) -> dict[str, Any] | None:
    """The running (or last) server's address record, or None."""
    doc = _read_json(endpoint_path(out_dir))
    return doc if isinstance(doc, dict) else None


@dataclass
class _Lease:
    """One in-memory cell lease (volatile by design; see module doc)."""

    worker: str
    token: str
    attempt: int
    expires_mono: float


@dataclass
class _WorkerInfo:
    state: str = "starting"
    current_cell: str | None = None
    cells_done: int = 0
    last_beat_mono: float = 0.0
    executed: int = 0
    cached: int = 0
    errors: int = 0


class SweepServer:
    """Single campaign, single process, single thread of state mutation."""

    def __init__(
        self,
        out_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float | None = None,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self.monotonic = monotonic
        self._ttl_override = lease_ttl_s

        self.queue = WorkQueue(
            self.out_dir, owner="server",
            lease_ttl_s=lease_ttl_s or DEFAULT_LEASE_TTL_S,
        )
        self.cache = ResultCache(self.out_dir / "cache")
        self.journal_path = self.out_dir / "journal.jsonl"

        self.manifest: dict[str, Any] | None = None
        self.labels: dict[str, str] = {}
        self.order: list[str] = []
        self.leases: dict[str, _Lease] = {}
        self.workers: dict[str, _WorkerInfo] = {}
        self.completed: set[str] = set()
        self.stop_flag = False
        self.leases_expired = 0
        self.cached_resolutions = 0
        self._fail_tokens: dict[str, str] = {}
        self._resolution_wall_ts: deque[float] = deque(maxlen=100_000)

        self.journal = Journal(self.journal_path, resume=True)
        self._load_durable_state()

    # -- durable state -------------------------------------------------------------

    def _load_durable_state(self) -> None:
        """Resume from whatever the campaign directory already holds."""
        doc = _read_json(distrib_dir(self.out_dir) / "manifest.json")
        if isinstance(doc, dict) and doc.get("cells"):
            self._adopt_manifest(doc)
        state = journal_mod.replay_indexed(self.journal_path, write=False)
        self.completed = set(state.completed)
        self.stop_flag = self.queue.stop_requested()

    def _adopt_manifest(self, doc: dict[str, Any]) -> None:
        self.manifest = doc
        self.labels = {}
        self.order = []
        for data in doc.get("cells", ()):
            cell = SweepCell.from_dict(data)
            cid = cell.cell_id  # content hash — identical on every host
            if cid not in self.labels:
                self.order.append(cid)
                self.labels[cid] = cell.label

    @property
    def lease_ttl_s(self) -> float:
        if self._ttl_override:
            return float(self._ttl_override)
        if self.manifest and self.manifest.get("lease_ttl_s"):
            return float(self.manifest["lease_ttl_s"])
        return DEFAULT_LEASE_TTL_S

    @property
    def max_attempts(self) -> int:
        return max(1, int((self.manifest or {}).get("max_attempts", 1)))

    def _note_resolution(self, cached: bool) -> None:
        self._resolution_wall_ts.append(time.time())
        if cached:
            self.cached_resolutions += 1

    def _live_lease(self, cell_id: str) -> _Lease | None:
        lease = self.leases.get(cell_id)
        if lease is None:
            return None
        if lease.expires_mono <= self.monotonic():
            del self.leases[cell_id]
            self.leases_expired += 1
            return None
        return lease

    # -- request handler (pure: dict in, dict out) ---------------------------------

    def handle(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Process one request; never raises (errors become replies)."""
        try:
            op = msg.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None or not isinstance(op, str) or op.startswith("_"):
                reply = {"ok": False, "error": f"unknown op {op!r}"}
            else:
                reply = handler(msg)
                reply.setdefault("ok", True)
        except Exception as exc:  # noqa: BLE001 — a bad request must not
            # take down the whole fleet's server
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if "rid" in msg:
            reply["rid"] = msg["rid"]
        return reply

    # Each _op_* mutates state only through this single-threaded path.

    def _op_ping(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"proto": PROTOCOL_VERSION, "pid": os.getpid()}

    def _op_hello(self, msg: dict[str, Any]) -> dict[str, Any]:
        proto = int(msg.get("proto", 0))
        if proto != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol {proto} unsupported "
                         f"(server speaks {PROTOCOL_VERSION})",
            }
        return {
            "proto": PROTOCOL_VERSION,
            "ready": self.manifest is not None,
            "total": len(self.order),
        }

    def _op_publish(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Coordinator publishes (or re-attaches to) the campaign."""
        cells = msg["cells"]
        resume = bool(msg.get("resume"))
        cell_objs = [SweepCell.from_dict(d) for d in cells]
        write_manifest(
            self.out_dir, cell_objs,
            grid_id=str(msg.get("grid_id", "net")),
            max_attempts=int(msg.get("max_attempts", 1)),
            timeout_s=msg.get("timeout_s"),
            lease_ttl_s=float(msg.get("lease_ttl_s", self.lease_ttl_s)),
        )
        self._adopt_manifest(_read_json(distrib_dir(self.out_dir) / "manifest.json"))
        self.queue.clear_stop()
        self.stop_flag = False
        if not resume:
            # Fresh campaign: reset queue state exactly as the filesystem
            # coordinator does (keep the cache — the cache pass mines it).
            self.leases.clear()
            self._fail_tokens.clear()
            for path in self.queue.failed_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            for path in self.queue.workers_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            self.workers.clear()
            self.completed = set()
            self.journal.close()
            self.journal = Journal(self.journal_path, resume=False)
        return {"total": len(self.order), "resume": resume}

    def _op_manifest(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self.manifest is None:
            return {"ready": False}
        return {"ready": True, "manifest": self.manifest}

    def _op_cache_pass(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Resolve every cell already in the cache (or drop them, --force)."""
        force = bool(msg.get("force"))
        worker = str(msg.get("worker", "coordinator"))
        cached: list[str] = []
        for cell_id in self.order:
            if force:
                self.cache.discard(cell_id)
                continue
            if cell_id in self.completed:
                cached.append(cell_id)
                continue
            if self.cache.get(cell_id) is not None:
                self.journal.append(
                    journal_mod.EVENT_CELL_CACHED,
                    cell_id=cell_id,
                    label=self.labels.get(cell_id, cell_id),
                    worker=worker,
                    attempts=0,
                )
                self.completed.add(cell_id)
                self._note_resolution(cached=True)
                cached.append(cell_id)
        return {"cached": sorted(cached)}

    def _op_resolved(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {
            "completed": sorted(self.completed),
            "failed": self.queue.final_failures(),
        }

    def _op_claim(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        worker = str(msg["worker"])
        token = str(msg.get("token", ""))
        if self.manifest is None:
            return {"ok": False, "error": "no campaign published yet"}
        if cell_id not in self.labels:
            return {"ok": False, "error": f"unknown cell {cell_id!r}"}
        if cell_id in self.completed:
            return {"status": CLAIM_RESOLVED}
        record = self.queue.failure(cell_id)
        if record and record.get("final"):
            return {"status": CLAIM_FAILED_FINAL}
        lease = self._live_lease(cell_id)
        if lease is not None:
            if lease.worker == worker:
                # The same worker again: either a retry of the claim whose
                # ACK we lost (same token — idempotent re-grant, nothing
                # re-journaled) or a restarted worker process re-claiming
                # its own stuck lease (new token — fresh attempt record).
                lease.expires_mono = self.monotonic() + self.lease_ttl_s
                if lease.token == token:
                    return {"status": CLAIM_GRANTED, "attempt": lease.attempt}
                lease.token = token
                self.journal.append(
                    journal_mod.EVENT_CELL_START,
                    cell_id=cell_id,
                    label=self.labels[cell_id],
                    attempt=lease.attempt,
                    worker=worker,
                )
                return {"status": CLAIM_GRANTED, "attempt": lease.attempt}
            return {"status": CLAIM_BUSY, "holder": lease.worker}
        if self.cache.get(cell_id) is not None:
            # Resolved on disk (a prior campaign, or a spool flush that
            # beat this claim): fold it as a cache hit exactly once,
            # attributed to the claiming worker — mirrors the filesystem
            # worker journaling cell_cached under its lease.
            self.journal.append(
                journal_mod.EVENT_CELL_CACHED,
                cell_id=cell_id,
                label=self.labels[cell_id],
                worker=worker,
                attempts=0,
            )
            self.completed.add(cell_id)
            self._note_resolution(cached=True)
            info = self.workers.get(worker)
            if info is not None:
                info.cached += 1
            return {"status": CLAIM_CACHED}
        attempt = int(record.get("attempts", 0) if record else 0) + 1
        self.leases[cell_id] = _Lease(
            worker=worker, token=token, attempt=attempt,
            expires_mono=self.monotonic() + self.lease_ttl_s,
        )
        self.journal.append(
            journal_mod.EVENT_CELL_START,
            cell_id=cell_id,
            label=self.labels[cell_id],
            attempt=attempt,
            worker=worker,
        )
        return {"status": CLAIM_GRANTED, "attempt": attempt}

    def _op_renew(self, msg: dict[str, Any]) -> dict[str, Any]:
        lease = self._live_lease(msg["cell_id"])
        if lease is None or lease.worker != msg.get("worker"):
            return {"renewed": False}
        lease.expires_mono = self.monotonic() + self.lease_ttl_s
        return {"renewed": True}

    def _op_release(self, msg: dict[str, Any]) -> dict[str, Any]:
        lease = self.leases.get(msg["cell_id"])
        if lease is not None and lease.worker == msg.get("worker"):
            del self.leases[msg["cell_id"]]
            return {"released": True}
        return {"released": False}

    def _op_submit(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        worker = str(msg.get("worker", "?"))
        metrics = msg["metrics"]
        if not isinstance(metrics, dict):
            return {"ok": False, "error": "metrics must be an object"}
        if cell_id in self.completed:
            # Exactly-once folding: a retried submit after a dropped ACK,
            # or a second worker finishing a re-issued cell, both land
            # here — acknowledged, deduped, never double-journaled.
            return {"accepted": True, "dedupe": True}
        if self.cache.get(cell_id) is None:
            self.cache.put(cell_id, metrics)
        self.queue.clear_failure(cell_id)
        self._fail_tokens.pop(cell_id, None)
        self.journal.append(
            journal_mod.EVENT_CELL_FINISH,
            cell_id=cell_id,
            label=self.labels.get(cell_id, cell_id),
            makespan_ms=metrics.get("makespan_ms"),
            attempts=int(msg.get("attempt", 1)),
            worker=worker,
            wall_time_s=msg.get("wall_time_s"),
            token=msg.get("token"),
        )
        self.completed.add(cell_id)
        self._note_resolution(cached=False)
        lease = self.leases.get(cell_id)
        if lease is not None and lease.worker == worker:
            del self.leases[cell_id]
        info = self.workers.get(worker)
        if info is not None:
            info.executed += 1
        return {"accepted": True, "dedupe": False}

    def _op_fail(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        token = str(msg.get("token", ""))
        if cell_id in self.completed:
            return {"attempts": 0, "final": False, "dedupe": True}
        if token and self._fail_tokens.get(cell_id) == token:
            # Retry of a failure report whose ACK we lost: do not charge
            # the attempt budget twice.
            record = self.queue.failure(cell_id) or {"attempts": 1}
            return {
                "attempts": int(record.get("attempts", 1)),
                "final": bool(record.get("final")),
                "dedupe": True,
            }
        record = self.queue.record_failure(
            cell_id, str(msg.get("error", "?")), max_attempts=self.max_attempts
        )
        if token:
            self._fail_tokens[cell_id] = token
        self.journal.append(
            journal_mod.EVENT_CELL_ERROR,
            cell_id=cell_id,
            label=self.labels.get(cell_id, cell_id),
            error=str(msg.get("error", "?")),
            attempts=record["attempts"],
            worker=str(msg.get("worker", "?")),
        )
        info = self.workers.get(str(msg.get("worker", "?")))
        if info is not None:
            info.errors += 1
        return {
            "attempts": int(record["attempts"]),
            "final": bool(record.get("final")),
            "dedupe": False,
        }

    def _op_interrupted(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        self.journal.append(
            journal_mod.EVENT_CELL_INTERRUPTED,
            cell_id=cell_id,
            label=self.labels.get(cell_id, cell_id),
            worker=str(msg.get("worker", "?")),
        )
        return {}

    def _op_heartbeat(self, msg: dict[str, Any]) -> dict[str, Any]:
        worker = str(msg["worker"])
        info = self.workers.setdefault(worker, _WorkerInfo())
        info.state = str(msg.get("state", "?"))
        info.current_cell = msg.get("current_cell")
        info.cells_done = int(msg.get("cells_done", 0))
        info.last_beat_mono = self.monotonic()
        try:
            # Durable mirror: lets `sweep --status --out DIR` on the
            # server host (and post-mortem forensics) see the fleet.
            self.queue.write_worker_status(
                worker,
                state=info.state,
                current_cell=info.current_cell,
                cells_done=info.cells_done,
                via="net",
            )
        except OSError:
            pass
        failed = len(self.queue.failed_final())
        return {
            "stop": self.stop_flag,
            "resolved": len(self.completed) + failed,
            "total": len(self.order),
        }

    def _op_stop(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.stop_flag = True
        self.queue.request_stop(str(msg.get("reason", "coordinator")))
        return {}

    def _op_clear_stop(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.stop_flag = False
        self.queue.clear_stop()
        return {}

    def _op_event(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Append one campaign-scope journal event (coordinator use)."""
        kind = str(msg["kind"])
        fields = msg.get("fields") or {}
        if not isinstance(fields, dict):
            return {"ok": False, "error": "fields must be an object"}
        self.journal.append(kind, **fields)
        return {}

    def _op_fetch(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_ids = msg.get("cell_ids") or []
        return {
            "metrics": {cid: self.cache.get(cid) for cid in cell_ids}
        }

    def _op_status(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"snapshot": self.snapshot()}

    # -- status --------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A status snapshot shaped like ``status.campaign_snapshot``'s."""
        now_mono = self.monotonic()
        now_wall = time.time()
        ttl = self.lease_ttl_s
        failed = self.queue.failed_final()
        completed = self.completed & set(self.labels) if self.labels else set(self.completed)
        resolved = len(completed) + len(set(failed) & set(self.labels))
        total = len(self.order)

        workers: list[dict[str, Any]] = []
        for worker_id, info in sorted(self.workers.items()):
            age = max(0.0, now_mono - info.last_beat_mono)
            terminal = info.state in (
                "done", "stop_requested", "interrupted", "oneshot_drained",
                "max_cells", "server_lost",
            )
            if terminal:
                health = "exited"
            elif age <= ttl:
                health = "live"
            elif age <= _STALE_FACTOR * ttl:
                health = "stale"
            else:
                health = "dead"
            workers.append({
                "worker": worker_id,
                "health": health,
                "state": info.state,
                "heartbeat_age_s": round(age, 1),
                "clock_skew": False,  # server-side receive stamps: no skew
                "current_cell": info.current_cell,
                "executed": info.executed,
                "cached": info.cached,
                "errors": info.errors,
            })

        leases = []
        for cell_id, lease in sorted(self.leases.items()):
            remaining = lease.expires_mono - now_mono
            leases.append({
                "cell_id": cell_id,
                "owner": lease.worker,
                "age_s": round(max(0.0, ttl - max(0.0, remaining)), 1),
                "stale": remaining <= 0,
            })

        ts = sorted(self._resolution_wall_ts)
        rate = recent_rate = 0.0
        if len(ts) >= 2 and ts[-1] > ts[0]:
            rate = (len(ts) - 1) / (ts[-1] - ts[0])
        recent = [t for t in ts if t >= now_wall - _RECENT_WINDOW_S]
        if recent:
            recent_rate = len(recent) / _RECENT_WINDOW_S
        best = recent_rate or rate
        remaining_cells = total - resolved
        eta = remaining_cells / best if best > 0 and remaining_cells > 0 else None
        hit_rate = self.cached_resolutions / resolved if resolved else 0.0

        return {
            "out_dir": str(self.out_dir),
            "transport": "net",
            "grid_id": (self.manifest or {}).get("grid_id"),
            "created_ts": (self.manifest or {}).get("created_ts"),
            "lease_ttl_s": ttl,
            "cells": total,
            "resolved": resolved,
            "completed": len(completed),
            "failed": len(set(failed) & set(self.labels)),
            "in_flight": len(leases),
            "stop_requested": self.stop_flag,
            "clock_skew": False,
            "cells_per_s": round(rate, 4),
            "recent_cells_per_s": round(recent_rate, 4),
            "eta_s": round(eta, 1) if eta is not None else None,
            "cache_hit_rate": round(hit_rate, 4),
            "leases_expired": self.leases_expired,
            "workers": workers,
            "leases": leases,
        }

    # -- socket plumbing -----------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind the listening socket and publish the endpoint record."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        _atomic_write_json(endpoint_path(self.out_dir), {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "proto": PROTOCOL_VERSION,
            "started_ts": round(time.time(), 3),
        })
        return self.host, self.port

    def serve(
        self,
        *,
        stop: threading.Event | None = None,
        poll_s: float = 0.2,
    ) -> None:
        """Run the event loop until ``stop`` is set (or forever)."""
        if not hasattr(self, "_listener"):
            self.bind()
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, data=None)
        conns: dict[socket.socket, dict[str, Any]] = {}

        def close_conn(sock: socket.socket) -> None:
            try:
                sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            conns.pop(sock, None)
            try:
                sock.close()
            except OSError:
                pass

        try:
            while stop is None or not stop.is_set():
                for key, events in sel.select(timeout=poll_s):
                    if key.data is None:
                        try:
                            sock, _addr = self._listener.accept()
                        except OSError:
                            continue
                        sock.setblocking(False)
                        conns[sock] = {
                            "assembler": FrameAssembler(), "out": bytearray()
                        }
                        sel.register(
                            sock, selectors.EVENT_READ, data=conns[sock]
                        )
                        continue
                    sock = key.fileobj
                    state = key.data
                    if events & selectors.EVENT_READ:
                        try:
                            data = sock.recv(1 << 16)
                        except (BlockingIOError, InterruptedError):
                            data = None
                        except OSError:
                            close_conn(sock)
                            continue
                        if data == b"":
                            close_conn(sock)
                            continue
                        if data:
                            state["assembler"].feed(data)
                            try:
                                requests = state["assembler"].frames()
                            except FrameError:
                                close_conn(sock)  # desynchronized stream
                                continue
                            for msg in requests:
                                if not isinstance(msg, dict):
                                    continue
                                state["out"] += encode_frame(self.handle(msg))
                    if state["out"]:
                        try:
                            sent = sock.send(bytes(state["out"]))
                            del state["out"][:sent]
                        except (BlockingIOError, InterruptedError):
                            pass
                        except OSError:
                            close_conn(sock)
                            continue
                    want = selectors.EVENT_READ
                    if state["out"]:
                        want |= selectors.EVENT_WRITE
                    try:
                        sel.modify(sock, want, data=state)
                    except (KeyError, ValueError):
                        pass
        finally:
            for sock in list(conns):
                close_conn(sock)
            sel.close()
            try:
                self._listener.close()
            except OSError:
                pass
            try:
                endpoint_path(self.out_dir).unlink()
            except OSError:
                pass
            self.close()

    def close(self) -> None:
        try:
            self.journal.close()
        except (OSError, ValueError):
            pass
        # Refresh the index sidecar so the next server (or a --resume
        # coordinator) starts from this run's end instead of replaying.
        try:
            journal_mod.write_index(
                self.journal_path, journal_mod.replay(self.journal_path)
            )
        except OSError:
            pass


def run_server(
    out_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl_s: float | None = None,
    stop: threading.Event | None = None,
    ready: Callable[[str, int], None] | None = None,
) -> None:
    """Construct, bind, announce, and serve (the CLI entry point)."""
    server = SweepServer(
        out_dir, host=host, port=port, lease_ttl_s=lease_ttl_s
    )
    bound_host, bound_port = server.bind()
    if ready is not None:
        ready(bound_host, bound_port)
    server.serve(stop=stop)
