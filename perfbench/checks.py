"""Output checks on the modeled results of each repetition.

They read only the plain dicts a repetition prints (its stats summary
fields or its campaign rows) and import nothing from the program, so they
share no code with the timed path.  Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

#: row fields that legitimately differ between runs of the same cell
VOLATILE_ROW_FIELDS = ("wall_time_s", "worker", "core")


def stable_row(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}


def check_outputs(out: dict, expected: dict | None, first: dict | None) -> list[str]:
    """One emulation's outputs against the invariant, the recorded values
    (``expected``, default seed only) and the seed's first repetition."""
    problems = []
    if out.get("interrupted"):
        problems.append("run was interrupted")
    if out.get("tasks", 0) <= 0:
        problems.append(f"no tasks ran: {out.get('tasks')}")
    settled = out["apps_completed"] + out["apps_degraded"] + out["apps_dropped"]
    if settled != out["apps_injected"]:
        problems.append(
            f"completed+degraded+dropped = {settled} != injected = {out['apps_injected']}"
        )
    if expected is not None:
        for key, want in expected.items():
            if out.get(key) != want:
                problems.append(f"{key} = {out.get(key)!r}, recorded {want!r}")
    if first is not None and out != first:
        diff = sorted(k for k in set(out) | set(first) if out.get(k) != first.get(k))
        problems.append(f"differs from the first repetition in {diff}")
    return problems


def _apps_in(workload_label: str) -> int:
    """Apps in a validation workload label such as ``wifi_tx=1,wifi_rx=2``."""
    return sum(int(part.rsplit("=", 1)[1]) for part in workload_label.split(","))


def check_row(row: dict, expected: dict | None, first: dict | None) -> list[str]:
    """One campaign cell, like :func:`check_outputs`."""
    problems = []
    if row.get("status") != "ok":
        return [f"cell {row.get('label')}: status {row.get('status')}: {row.get('error')}"]
    if row.get("cached"):
        problems.append(f"cell {row['label']}: served from a cache that should be empty")
    if row.get("core") != "pure":
        problems.append(f"cell {row['label']}: ran on core {row.get('core')!r}, not pure")
    settled = (row.get("apps_completed") or 0) + (row.get("apps_degraded") or 0)
    if settled != _apps_in(row["workload"]):
        problems.append(f"cell {row['label']}: {settled} apps settled of {row['workload']}")
    stable = stable_row(row)
    if expected is not None and stable != expected:
        diff = sorted(k for k in set(stable) | set(expected) if stable.get(k) != expected.get(k))
        problems.append(f"cell {row['label']}: differs from the recorded row in {diff}")
    if first is not None and stable != first:
        diff = sorted(k for k in set(stable) | set(first) if stable.get(k) != first.get(k))
        problems.append(f"cell {row['label']}: differs from the first repetition in {diff}")
    return problems
