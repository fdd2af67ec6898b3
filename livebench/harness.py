"""Timing loop, statistics and the environment record shared by every workload.

A workload runs in *rounds*.  A round sets the program up (timed apart,
reported as ``setup_s``), performs one or more timed operations, and
checks their outputs.  :func:`run_phase` repeats rounds, closed loop,
until the next round would overrun the phase budget; there is always
at least one round (for ``fig1-sweep``, one round per machine).
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import get_registry

MIB = 2**20
PAGE = 4096


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when a failed run measured nothing."""
    return numerator / denominator if denominator else 0.0


@dataclass
class Phase:
    """Everything one timed phase measured.

    ``ops`` are operation wall times: one ``migrate()`` call, one step
    of the orchestrated schedule (departure install, ``migrate_vm`` and
    the telemetry poll), or one fig1 sweep.  ``migrate_s`` are the
    program's own ``MigrationMetrics.wall_time_s``, one per migration.
    The ``round_*`` lists hold one entry per round: the kind of
    operation it ran, its mean op time, and the MD5 rate and machine
    floor around it (see :func:`machine_floor`), so a round that
    replays a whole schedule counts once, as an average over its mix
    of migrations.
    """

    setups: List[float] = field(default_factory=list)
    setup_floor_s: List[float] = field(default_factory=list)
    ops: List[float] = field(default_factory=list)
    migrate_s: List[float] = field(default_factory=list)
    round_labels: List[str] = field(default_factory=list)
    round_ops: List[float] = field(default_factory=list)
    round_md5: List[float] = field(default_factory=list)
    round_floor_s: List[float] = field(default_factory=list)
    downtimes: List[float] = field(default_factory=list)
    wire_bytes: int = 0
    vm_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    round_counts: List[Dict[str, float]] = field(default_factory=list)
    announce_bytes: List[int] = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, what: str, problems: List[str], count: int = 1) -> None:
        """Count ``count`` failed operations once each; keep the first reasons."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {'; '.join(problems)}")


REFERENCE_FLOOR_S = 0.025
"""The machine floor :func:`setup_seconds` scales set-up time to: about
what :func:`machine_floor` reads on a 2-vCPU x86 VM with Python 3.11
when nothing else contends for it (21–29 ms)."""


def setup_seconds(setups: List[float], floors: List[float]) -> float:
    """Median set-up time, in seconds on a machine whose floor is the reference.

    Each set-up is divided by the machine floor sampled around it and
    multiplied by :data:`REFERENCE_FLOOR_S`.  Raw set-up seconds follow
    the shared machine: over ten ``return-idle`` runs the median raw
    set-up ranged from 2.33 to 3.87 s while set-up ÷ floor ranged from
    79 to 104, and between two ten-seed batches an hour apart the raw
    median moved from 2.05 to 2.83 s.
    """
    return REFERENCE_FLOOR_S * median(s / f for s, f in zip(setups, floors))


def sum_of_medians(phase: Phase, values: List[float]) -> float:
    """Median of ``values`` (one per round) per kind of operation, summed.

    A workload whose rounds all run the same operation has one kind,
    and this is the plain median.  ``fig1-sweep`` runs one machine per
    round, so its sweep is the sum of the six machines' medians.
    """
    kinds: Dict[str, List[float]] = {}
    for label, value in zip(phase.round_labels, values):
        kinds.setdefault(label, []).append(value)
    return sum(median(group) for group in kinds.values())


async def run_phase(workload, budget_s: float, traced: bool = False) -> Phase:
    """Run rounds of ``workload`` until the next one would overrun the budget.

    The machine floor is sampled between rounds, so each round is
    bracketed by a sample before and after it and normalizes by their
    geometric mean.  Every round also starts from a collected heap: the
    previous round's daemons and stores are reference cycles, and
    collecting them at an arbitrary point would add noise to the time
    and the peak memory.
    """
    phase = Phase()
    durations: List[float] = []
    started = time.perf_counter()
    gc.collect()
    md5, floor_s = machine_floor(workload.seed)
    while True:
        round_started = time.perf_counter()
        first_op, first_setup = len(phase.ops), len(phase.setups)
        label = await workload.round(phase, traced=traced)
        durations.append(time.perf_counter() - round_started)
        gc.collect()
        next_md5, next_floor_s = machine_floor(workload.seed)
        round_floor_s = math.sqrt(floor_s * next_floor_s)
        phase.setup_floor_s += [round_floor_s] * (len(phase.setups) - first_setup)
        if len(phase.ops) > first_op:
            phase.round_labels.append(label or "")
            phase.round_ops.append(mean(phase.ops[first_op:]))
            phase.round_md5.append((md5 + next_md5) / 2)
            phase.round_floor_s.append(round_floor_s)
        md5, floor_s = next_md5, next_floor_s
        elapsed = time.perf_counter() - started
        if (
            len(durations) >= getattr(workload, "min_rounds", 1)
            and elapsed + median(durations) > budget_s
        ):
            break
    phase.wall_s = time.perf_counter() - started
    return phase


# --- exact counts from the program's own obs counters ---------------------

COUNTER_PREFIXES = (
    "runtime.messages.",
    "runtime.bytes.",
    "runtime.announce_bytes",
    "runtime.control_bytes",
    "runtime.retries",
    "runtime.retransmitted_bytes",
    "repo.fsync_batched",
    "daemon.pages_received",
    "daemon.announce.",
    "orchestrator.migrations.retried",
    "orchestrator.migrations.failed",
)


def counter_snapshot() -> Dict[str, float]:
    """Current values of the counters the benchmark reads as deltas.

    The registry is process-global and accumulates across rounds, so
    every exact count is the difference of two snapshots.
    """
    out: Dict[str, float] = {}
    for name, state in get_registry().snapshot().items():
        if state.get("type") == "counter" and name.startswith(COUNTER_PREFIXES):
            out[name] = state["value"]
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value - before.get(name, 0.0)
        for name, value in sorted(after.items())
        if value - before.get(name, 0.0)
    }


# --- floors and environment --------------------------------------------------


def md5_floor_mib_per_s(seed: int, mib: int = 4, repeats: int = 3) -> float:
    """Raw ``hashlib.md5`` MiB/s over 4 KiB pages of seeded random bytes.

    The denominator of ``vm_mib_per_s_over_md5``: the same machine, the
    same run, the per-page call pattern of the runtime's checksum
    layer.  The buffer is kept small so sampling it never sets the
    peak RSS.
    """
    data = np.random.default_rng(seed).bytes(mib * MIB)
    view = memoryview(data)
    md5 = hashlib.md5
    rates = []
    for _ in range(repeats):
        started = time.perf_counter()
        for offset in range(0, len(data), PAGE):
            md5(view[offset : offset + PAGE]).digest()
        rates.append(mib / (time.perf_counter() - started))
    return median(rates)


def interpreter_floor_s(updates: int = 300_000) -> float:
    """Seconds for a fixed loop of small-dict updates: the interpreter's speed."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(updates):
        table[index & 1023] = table.get(index & 1023, 0) + index
    return time.perf_counter() - started


def machine_floor(seed: int) -> Tuple[float, float]:
    """``(md5 MiB/s, floor seconds)`` sampled now, between two rounds.

    The floor is the geometric mean of two fixed jobs timed back to
    back: hashing 4 MiB of 4 KiB pages (native code) and
    :func:`interpreter_floor_s`.  On a shared 2-CPU box the machine's
    speed swings by about ±20% within minutes, and native and
    interpreted code swing by different amounts; dividing a round's
    times by the floor taken just before it roughly halved the spread
    of 30-second medians (16–20% raw, 7–9% over this floor, measured
    over ten minutes of ping-pong and first-visit rounds).
    """
    md5 = md5_floor_mib_per_s(seed, mib=4)
    return md5, math.sqrt(4 / md5 * interpreter_floor_s())


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def filesystem_type(path: str) -> str:
    """File system type of ``path`` via ``stat -f`` (statfs on the path)."""
    try:
        result = subprocess.run(
            ["stat", "-f", "-c", "%T", path],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def environment(md5_floor: float, state_dir_fs: Optional[str]) -> Dict[str, Any]:
    """What a reader needs to compare this run with one on another machine.

    ``state_dir_fs`` is the file system the repository replay persisted
    to (first-visit's traced run); None where nothing was persisted.
    """
    return {
        "md5_floor_mib_per_s": md5_floor,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "state_dir_fs": state_dir_fs,
        "transport": "loopback TCP, unshaped (link=None, time_scale=0)",
        "load": "closed loop, one migration in flight, one process, one asyncio loop",
    }
