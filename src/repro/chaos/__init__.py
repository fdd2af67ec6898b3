"""Deterministic chaos plane: seeded fault schedules and invariant checks.

The cluster has two kinds of fault point: the repository's crash
points between durable steps, and wire faults, which
:mod:`repro.chaos.streams` injects by wrapping a daemon's connections
through its one per-connection stream hook (the same hook the source
has).  This package drives both from one seeded
:class:`~repro.chaos.schedule.FaultSchedule` and a soak runner
(:func:`~repro.chaos.soak.run_soak`) that replays a live migration
schedule through real localhost daemons while injecting the scheduled
faults, then asserts cluster-wide invariants after every round.

Everything is deterministic: the same seed produces the same schedule,
the same fault firings, and the same report — so any bug the soak
shakes out is reproducible with ``vecycle chaos --seed N`` and can be
pinned as a regression test.
"""

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.schedule import (
    FAULT_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)
from repro.chaos.soak import RoundRecord, SoakReport, run_soak
from repro.chaos.streams import StreamFault

__all__ = [
    "FAULT_KINDS",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "RoundRecord",
    "SoakReport",
    "StreamFault",
    "run_soak",
]
