"""The fault-point registry: every injectable fault, declared once.

The cluster's faults come from two places: the repository's crash
points between durable steps, and the chaos schedule's fault kinds,
whose wire faults :mod:`repro.chaos.streams` realises by wrapping
connections.  This module is the one place both are named, so a reader
(or the ``vecycle lint`` fault-registry rule) can see the whole
vocabulary at a glance and so nothing can be added without being
declared and tested.

Two groups, keyed by the name used at runtime:

* :data:`REPOSITORY_FAULT_POINTS` — the crash points
  :attr:`~repro.storage.repository.CheckpointRepository.fault_hook`
  fires between durable steps; must equal
  :data:`repro.storage.repository.FAULT_POINTS`.
* :data:`SCHEDULE_FAULT_KINDS` — the seeded soak vocabulary; must equal
  :data:`repro.chaos.schedule.FAULT_KINDS`.

``vecycle lint`` statically cross-checks both against their source
modules (both directions) and requires every declared name to be
referenced by at least one test; :func:`validate` performs the same
set comparison at import time so drift also fails fast dynamically.
"""

from __future__ import annotations

from typing import Dict

REPOSITORY_FAULT_POINTS: Dict[str, str] = {
    "segment.written": "A content segment file is durably on disk.",
    "segments.synced": "The batched segment-directory fsync completed.",
    "manifest.written": "The new manifest temp file is written+fsynced.",
    "manifest.committed": "The manifest rename (the commit point) landed.",
    "session.written": "A completed session record is durably on disk.",
}

SCHEDULE_FAULT_KINDS: Dict[str, str] = {
    "disconnect": "Daemon aborts after N applied protocol messages.",
    "mid_result": "Daemon aborts with the RESULT frame half-sent.",
    "stall_over": "READY stalled past the source's io_timeout_s.",
    "stall_under": "READY stalled just under the source's io_timeout_s.",
    "truncate_ready": "READY cut short on a connection that stays up.",
    "restart": "Daemon killed mid-session, restarted on the same port.",
    "corrupt_segment": "One durable segment's bytes flipped on disk.",
    "telemetry_loss": "One aggregator telemetry poll dropped.",
    "heartbeat_loss": "One registry heartbeat dropped.",
    "slow_link": "Migration shaped over a modelled WAN link.",
}

ALL_FAULT_POINTS: Dict[str, str] = {
    **REPOSITORY_FAULT_POINTS,
    **SCHEDULE_FAULT_KINDS,
}


def validate() -> None:
    """Assert the registry matches the implementing modules exactly.

    Imported lazily to keep this module import-cycle-free; called from
    the chaos package's tests and usable anywhere a sanity check is
    cheap insurance.
    """
    from repro.chaos.schedule import FAULT_KINDS
    from repro.storage.repository import FAULT_POINTS

    declared_points = set(REPOSITORY_FAULT_POINTS)
    if declared_points != set(FAULT_POINTS):
        raise AssertionError(
            f"repository fault points drifted: registry {declared_points} "
            f"!= repository.FAULT_POINTS {set(FAULT_POINTS)}"
        )
    declared_kinds = set(SCHEDULE_FAULT_KINDS)
    if declared_kinds != set(FAULT_KINDS):
        raise AssertionError(
            f"fault kinds drifted: registry {declared_kinds} "
            f"!= schedule.FAULT_KINDS {set(FAULT_KINDS)}"
        )
