"""Regression gate: the disabled tracer must stay near-free.

The contract in :mod:`repro.obs.trace`: with tracing off, ``span()``
returns a preallocated no-op, so instrumented hot loops pay only a
function call and a truth test.  This test measures that cost directly
against the real work it decorates — ``compute_transfer_set`` over a
10k-page VM — and fails if the instrumentation overhead exceeds 5% of
the work it wraps.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.checkpoint import ChecksumIndex
from repro.core.fingerprint import Fingerprint
from repro.core.transfer import Method, compute_transfer_set
from repro.obs import NOOP_SPAN, get_tracer, span

NUM_PAGES = 10_000
REPEATS = 30


def _fixture_pair():
    rng = np.random.default_rng(3)
    checkpoint = rng.integers(1, 2**62, size=NUM_PAGES, dtype=np.uint64)
    current = checkpoint.copy()
    dirty = rng.choice(NUM_PAGES, size=NUM_PAGES // 20, replace=False)
    current[dirty] = rng.integers(2**62, 2**63, size=dirty.size, dtype=np.uint64)
    current_fp = Fingerprint(hashes=current)
    checkpoint_fp = Fingerprint(hashes=checkpoint)
    return current_fp, checkpoint_fp, ChecksumIndex(checkpoint_fp)


def _time(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(3):  # best-of-3 to shed scheduler noise
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_under_5_percent():
    tracer = get_tracer()
    assert not tracer.enabled
    current, checkpoint, index = _fixture_pair()

    def work():
        compute_transfer_set(
            Method.HASHES_DEDUP, current, checkpoint, checkpoint_index=index
        )

    def instrumentation_only():
        # exactly what one disabled instrumented call adds on top
        with span("engine.transfer_set"):
            pass

    work_time = _time(work)
    overhead_time = _time(instrumentation_only)
    assert tracer.finished() == []  # nothing recorded while disabled
    assert overhead_time <= 0.05 * work_time, (
        f"disabled span cost {overhead_time * 1e6 / REPEATS:.2f}us/call vs "
        f"work {work_time * 1e6 / REPEATS:.2f}us/call "
        f"({overhead_time / work_time * 100:.2f}% > 5%)"
    )


def test_disabled_span_allocates_nothing():
    tracer = get_tracer()
    assert not tracer.enabled
    spans = {id(span("a")) for _ in range(100)}
    assert spans == {id(NOOP_SPAN)}


def test_enabled_tracer_records_transfer_set_span():
    tracer = get_tracer()
    tracer.enable()
    current, checkpoint, index = _fixture_pair()
    result = compute_transfer_set(
        Method.HASHES_DEDUP, current, checkpoint, checkpoint_index=index
    )
    records = [r for r in tracer.finished() if r.name == "engine.transfer_set"]
    assert len(records) == 1
    attrs = records[0].attrs
    assert attrs["method"] == "hashes+dedup"
    assert attrs["slots"] == NUM_PAGES
    assert attrs["full"] == result.full_pages
    assert records[0].duration_s >= 0.0
