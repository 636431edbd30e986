"""Distributed sweep service: sharded multi-worker DSE campaigns.

The PR 1 campaign engine runs every campaign on one host's process
pool; this package turns it into a coordination/transport layer that
shards cells across any number of independent worker processes — same
host, many hosts over a shared filesystem, or fleets with *no* shared
mount speaking TCP to a queue server:

* :mod:`repro.dse.distrib.leases` — NFS-safe lease primitives
  (hardlink acquire, mtime heartbeat, owner-checked release,
  rename-arbitrated stale break);
* :mod:`repro.dse.distrib.queue` — the durable work queue: manifest,
  per-cell leases, per-worker journal shards, heartbeats, failure
  records, stop flag;
* :mod:`repro.dse.distrib.shared_cache` — the shared-filesystem variant
  of the content-hash result cache (execution locks dedupe concurrent
  campaigns);
* :mod:`repro.dse.distrib.transport` — the
  :class:`~repro.dse.distrib.transport.WorkerTransport` interface both
  protocols implement, with the directory protocol refactored behind it
  (:class:`~repro.dse.distrib.transport.FsTransport`, bit-identical on
  disk);
* :mod:`repro.dse.distrib.net` — the network transport: a
  dependency-free TCP queue server (``dssoc-emulate sweep-server``),
  framed-JSON client with retry/backoff and idempotency tokens, and a
  worker-local result spool for partitions;
* :mod:`repro.dse.distrib.worker` — the transport-agnostic worker loop
  (``dssoc-emulate sweep-worker``);
* :mod:`repro.dse.distrib.coordinator` — one campaign loop for both
  transports (:func:`~repro.dse.distrib.coordinator.run_distributed_campaign`,
  with ``server=HOST:PORT`` for the network one): orchestration, shard
  merge, liveness (``dssoc-emulate sweep --workers N`` and
  ``sweep --server HOST:PORT``);
* :mod:`repro.dse.distrib.status` — live campaign status
  (``dssoc-emulate sweep --status``).

See ``docs/distributed.md`` for the architecture, the lease protocol,
the wire protocol, and the failure matrix.
"""

from repro.dse.distrib.coordinator import (
    ShardMerger,
    merge_once,
    run_distributed_campaign,
)
from repro.dse.distrib.leases import LeaseDir, LeaseInfo
from repro.dse.distrib.queue import (
    DEFAULT_LEASE_TTL_S,
    DistribError,
    WorkQueue,
    default_worker_id,
    load_manifest,
    manifest_cells,
    write_manifest,
)
from repro.dse.distrib.shared_cache import SharedResultCache
from repro.dse.distrib.status import campaign_snapshot, render_status, status_line
from repro.dse.distrib.transport import (
    ClaimReply,
    FsTransport,
    TransportError,
    WorkerTransport,
)
from repro.dse.distrib.worker import WorkerSummary, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "ClaimReply",
    "DistribError",
    "FsTransport",
    "LeaseDir",
    "LeaseInfo",
    "ShardMerger",
    "SharedResultCache",
    "TransportError",
    "WorkQueue",
    "WorkerSummary",
    "WorkerTransport",
    "campaign_snapshot",
    "default_worker_id",
    "load_manifest",
    "manifest_cells",
    "merge_once",
    "render_status",
    "run_distributed_campaign",
    "run_worker",
    "status_line",
    "write_manifest",
]
