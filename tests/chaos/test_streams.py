"""Wire faults realised by stream wrappers around daemon connections."""

import asyncio
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import FaultKind, StreamFault
from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE
from repro.mem.pagestore import PageStore
from repro.orchestrator.executor import AdmissionLimits, MigrationExecutor
from repro.orchestrator.registry import ClusterRegistry
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)

N = 192
EXTRA_ROUNDS = 2
DIRTY_PER_ROUND = 24
CONFIG = RuntimeConfig(
    io_timeout_s=0.5,
    connect_timeout_s=2.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.02),
    time_scale=0.0,
)


def build_vm(seed: int = 9):
    """(checkpoint hashes, current hashes, dirty slots) — pinned RNG."""
    rng = np.random.default_rng(seed)
    checkpoint = rng.integers(1, 2**62, size=N, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = np.sort(rng.choice(N, size=40, replace=False))
    current[dirty] = rng.integers(2**62, 2**63, size=40, dtype=np.uint64)
    return checkpoint, current, dirty


def dirty_feed(current):
    """Two live dirty rounds, each a pure function of its round number."""

    def feed(round_no):
        if round_no > 1 + EXTRA_ROUNDS:
            return None
        rng = np.random.default_rng(1000 + round_no)
        slots = rng.choice(N, size=DIRTY_PER_ROUND, replace=False)
        current[slots] = rng.integers(2**63, 2**64 - 1, size=len(slots),
                                      dtype=np.uint64)
        return slots

    return feed


async def _migrate(fault=None, use_executor=False):
    """One live migration with ``fault`` armed on the daemon.

    Returns (source metrics or executor outcome, daemon, the applied
    counts of the daemon's sessions as each connection arrived).
    """
    pagestore = PageStore()
    checkpoint, current, dirty = build_vm()
    async with CheckpointDaemon(pagestore=pagestore) as daemon:
        daemon.install_checkpoint("vm", Fingerprint(hashes=checkpoint))
        if fault is not None:
            fault.arm(daemon)
        armed = daemon.on_stream
        arrivals = []

        def spy(stream):
            arrivals.append(
                [s.total_applied for s in daemon._sessions.values()]
            )
            return stream if armed is None else armed(stream)

        daemon.on_stream = spy
        source = MigrationSource(
            SourceState(vm_id="vm", hashes=current, pagestore=pagestore,
                        dirty_slots=dirty),
            VECYCLE,
            config=CONFIG,
        )
        if use_executor:
            result = await MigrationExecutor(
                AdmissionLimits(max_attempts=3, retry_backoff_s=0.01,
                                max_backoff_s=0.02)
            ).run(source, "dest", daemon.host, daemon.port,
                  dirty_feed=dirty_feed(current))
        else:
            result = await source.migrate(
                daemon.host, daemon.port, dirty_feed=dirty_feed(current)
            )
        return result, daemon, arrivals


@lru_cache(maxsize=1)
def fault_free():
    """(round-one page frames, all page frames, slot digests, generation)."""
    metrics, daemon, _ = asyncio.run(_migrate())
    assert metrics.outcome == "completed"
    assert len(metrics.rounds) == 1 + EXTRA_ROUNDS
    frames = [r.messages for r in metrics.rounds]
    return (
        frames[0],
        sum(frames),
        tuple(daemon.checkpoints["vm"].slot_digests),
        daemon.checkpoints["vm"].generation,
    )


# --- the disconnect point, pinned -----------------------------------------


@pytest.mark.parametrize("where", ["first", "mid-round-one", "end-of-round-one",
                                   "into-round-two", "last", "beyond"])
def test_disconnect_fires_after_exactly_n_applied_page_frames(where):
    round_one, total, digests, _ = fault_free()
    n = {
        "first": 1,
        "mid-round-one": round_one // 2,
        "end-of-round-one": round_one,
        "into-round-two": round_one + 3,
        "last": total,
        "beyond": total + 1,
    }[where]
    fault = StreamFault(FaultKind.DISCONNECT, n)
    metrics, daemon, arrivals = asyncio.run(_migrate(fault))
    assert metrics.outcome == "completed"
    assert tuple(daemon.checkpoints["vm"].slot_digests) == digests
    if n > total:
        # Never reached: no abort, and the budget stays unspent (the
        # soak counts such a fault as skipped).
        assert metrics.retries == 0
        assert fault.times == 1 and not fault.spent
        assert daemon.telemetry.counter("daemon.injected_aborts").value == 0
        return
    assert metrics.retries == 1
    assert fault.spent
    assert daemon.telemetry.counter("daemon.injected_aborts").value == 1
    # The resuming connection found the session exactly N frames in.
    assert arrivals[0] == []
    assert arrivals[1] == [n]


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        StreamFault(FaultKind.SLOW_LINK)


def test_heartbeat_drop_marks_host_dead_until_next_poll():
    async def scenario():
        registry = ClusterRegistry(heartbeat_timeout_s=1.0)
        async with CheckpointDaemon(name="quiet") as daemon:
            fault = StreamFault(FaultKind.HEARTBEAT_LOSS).arm(daemon)
            registry.register("quiet", daemon.host, daemon.port)
            dropped = (await registry.poll("quiet")).alive
            revived = (await registry.poll("quiet")).alive
            return dropped, revived, fault, daemon.telemetry

    dropped, revived, fault, telemetry = asyncio.run(scenario())
    assert dropped is False
    assert revived is True
    assert fault.spent
    # The dropped probe never reached the opener dispatch.
    assert telemetry.counter("daemon.heartbeats").value == 1


# --- any single fault point -----------------------------------------------


@st.composite
def one_fault(draw):
    _, total, _, _ = fault_free()
    kind = draw(st.sampled_from([
        FaultKind.DISCONNECT, FaultKind.TRUNCATE_READY,
        FaultKind.STALL_UNDER, FaultKind.MID_RESULT,
    ]))
    if kind == FaultKind.DISCONNECT:
        return StreamFault(kind, draw(st.integers(1, total)))
    if kind == FaultKind.TRUNCATE_READY:
        return StreamFault(kind, draw(st.integers(1, 14)))
    if kind == FaultKind.STALL_UNDER:
        return StreamFault(kind, CONFIG.io_timeout_s * 0.8)
    return StreamFault(kind)


@settings(max_examples=25, deadline=None)
@given(fault=one_fault())
def test_any_single_fault_point_leaves_the_fault_free_outcome(fault):
    _, _, digests, generation = fault_free()
    outcome, daemon, _ = asyncio.run(_migrate(fault, use_executor=True))
    # One budgeted fault against three executor attempts (each with its
    # own transport retries): the migration completes.
    assert outcome.ok, f"{fault}: {outcome.error_code}: {outcome.error}"
    assert fault.spent
    assert tuple(daemon.checkpoints["vm"].slot_digests) == digests
    assert daemon.audit_store() == []
    assert outcome.checkpoint_generation == generation
