"""Per-layer replay: each layer's public calls, timed on the workload's inputs.

The benchmark adds no tracing inside the program.  It calls each
layer's public functions itself, on the data the workload moved, each
call inside a benchmark-side span (``bench.<layer>``), and reports the
time per migration.  The replay never touches a private name: pages
come from :meth:`PageStore.page_bytes`, checksums from
:meth:`ChecksumAlgorithm.digest`, the plan from
:func:`plan_first_round`, frames from :class:`FrameCodec`, and so on.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.analysis.similarity import similarity_decay
from repro.mem.pagestore import ContentAddressedStore, PageStore
from repro.obs.trace import span
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.frames import FrameCodec
from repro.runtime.planner import (
    KIND_CHECKSUM,
    KIND_FULL,
    KIND_PLAIN,
    KIND_REF,
    plan_first_round,
)
from repro.runtime.shaping import ShapedStream, open_shaped_connection
from repro.storage.repository import CheckpointManifest, CheckpointRepository
from repro.traces.generate import generate_trace

from harness import MIB, PAGE, counter_snapshot, filesystem_type, median

LOOPBACK_CHUNK = 64 * 1024
"""Send size for the loopback replay: the runtime's default batch."""


class Clock:
    """Accumulates wall seconds per layer, each timed block in a span."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds

    @contextmanager
    def timed(self, layer: str):
        with span(f"bench.{layer}"):
            started = time.perf_counter()
            try:
                yield
            finally:
                self.add(layer, time.perf_counter() - started)


async def _loopback_seconds(payload: bytes) -> float:
    """Unshaped ShapedStream send → recv of ``payload`` over loopback TCP."""
    received = asyncio.get_running_loop().create_future()

    async def handle(reader, writer):
        stream = ShapedStream(reader, writer, link=None, time_scale=0.0)
        try:
            await stream.recv(len(payload))
            received.set_result(time.perf_counter())
        finally:
            await stream.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    try:
        port = server.sockets[0].getsockname()[1]
        stream = await open_shaped_connection(
            "127.0.0.1", port, link=None, time_scale=0.0
        )
        try:
            started = time.perf_counter()
            for offset in range(0, len(payload), LOOPBACK_CHUNK):
                await stream.send(payload[offset : offset + LOOPBACK_CHUNK])
            finished = await asyncio.wait_for(received, 60.0)
        finally:
            await stream.close()
    finally:
        server.close()
        await server.wait_closed()
    return finished - started


async def _decode_all(codec: FrameCodec, data: bytes, frames: int) -> None:
    view = memoryview(data)
    position = 0

    async def recv(num_bytes: int) -> bytes:
        nonlocal position
        chunk = bytes(view[position : position + num_bytes])
        position += num_bytes
        return chunk

    for _ in range(frames):
        await codec.read_frame(recv)
    if position != len(data):
        raise RuntimeError(f"decoded {position} of {len(data)} replayed bytes")


def _distinct(arrays) -> List[int]:
    return np.unique(np.concatenate([np.asarray(a) for a in arrays])).tolist()


async def replay_runtime(inputs: Dict[str, Any], state_root: Path) -> Dict[str, Any]:
    """Replay one runtime workload's migrations layer by layer."""
    migrations = inputs["migrations"]
    count = len(migrations)
    algorithm = migrations[0].strategy.checksum
    clock = Clock()

    # mem.pagestore: synthesize every distinct page the source sends
    # from, once, in a fresh store (the source's per-workload cost).
    current_ids = _distinct([m.current for m in migrations])
    store = PageStore()
    pages: Dict[int, bytes] = {}
    with clock.timed("pagestore.page_bytes"):
        for cid in current_ids:
            pages[cid] = store.page_bytes(cid)
    # core.checksum over the same pages.
    digests: Dict[int, bytes] = {}
    with clock.timed("checksum.md5"):
        for cid, page in pages.items():
            digests[cid] = algorithm.digest(page)
    with clock.timed("pagestore.digests_for"):
        fresh = PageStore()
        source_digests = [
            fresh.digests_for(migration.current, algorithm) for migration in migrations
        ]
    # Checkpoint-only contents: their digests are the destination's
    # set-up work, computed here untimed for the planner and announce.
    others = [m.checkpoint for m in migrations if m.checkpoint is not None]
    others += [m.known for m in migrations if m.known is not None]
    if others:
        extra = [cid for cid in _distinct(others) if cid not in digests]
        extra_ids = np.asarray(extra, dtype=np.uint64)
        digests.update(zip(extra, PageStore().digests_for(extra_ids, algorithm)))

    def digest_many(ids: np.ndarray) -> List[bytes]:
        return [digests[cid] for cid in np.asarray(ids).tolist()]

    planned_slots = recycled = loopback_bytes = segments = fsyncs = 0
    announce_bytes: List[int] = []
    put_ms: List[float] = []
    errors: List[str] = []
    state_fs = None
    for migration, expected in zip(migrations, source_digests):
        method = migration.strategy.method
        codec = FrameCodec(migration.strategy.wire)
        checkpoint_set = (
            frozenset(digest_many(migration.checkpoint))
            if migration.checkpoint is not None
            else frozenset()
        )
        with clock.timed("planner.plan"):
            plan = plan_first_round(
                method,
                migration.current,
                announced=checkpoint_set if method.uses_hashes else None,
                digest_of=lambda cid: digests[int(cid)],
                dirty_slots=migration.dirty_slots,
                digest_many=digest_many if method.uses_hashes else None,
            )
        planned_slots += plan.num_slots
        recycled += plan.checksum_only_pages + plan.ref_pages

        stream_frames: List[bytes] = []
        with clock.timed("frames.announce_encode"):
            if method.uses_hashes:
                if migration.known is None:
                    stream_frames.append(
                        codec.encode_announce(sorted(checkpoint_set))
                    )
                else:
                    known = frozenset(digest_many(migration.known))
                    stream_frames.append(
                        codec.encode_digest_delta(
                            2, 1,
                            sorted(checkpoint_set - known),
                            sorted(known - checkpoint_set),
                        )
                    )
        announce_bytes.append(len(stream_frames[0]) if stream_frames else 0)

        sends = plan.sends()
        page_frames: List[bytes] = [codec.encode_round(1, len(sends))]
        with clock.timed("frames.page_encode"):
            for send in sends:
                cid = send.content_id
                if send.kind == KIND_FULL:
                    frame = codec.encode_page_full(
                        send.slot, digests[cid], pages[cid]
                    )
                elif send.kind == KIND_CHECKSUM:
                    frame = codec.encode_page_checksum(send.slot, digests[cid])
                elif send.kind == KIND_REF:
                    frame = codec.encode_page_ref(send.slot, send.ref)
                elif send.kind == KIND_PLAIN:
                    frame = codec.encode_page_plain(send.slot, pages[cid])
                else:
                    raise RuntimeError(f"unplannable send kind {send.kind}")
                page_frames.append(frame)
        payload = b"".join(page_frames)
        decode_stream = b"".join(stream_frames) + payload
        with clock.timed("frames.decode"):
            await _decode_all(
                codec, decode_stream, len(stream_frames) + len(page_frames)
            )
        with span("bench.shaping.loopback"):
            clock.add("shaping.loopback", await _loopback_seconds(payload))
        loopback_bytes += len(payload)

        full = [s for s in sends if s.kind in (KIND_FULL, KIND_PLAIN)]
        with clock.timed("castore.put"):
            content = ContentAddressedStore()
            for send in full:
                digest = digests[send.content_id]
                content.put(digest, pages[send.content_id])
                content.retain(digest)

        if inputs["replay_repository"]:
            # storage.repository with its defaults (fsync on, group
            # commit on): persist the full pages, commit the checkpoint,
            # recover it, then audit what landed.
            state_root.mkdir(parents=True, exist_ok=True)
            root = tempfile.mkdtemp(prefix="replay-", dir=state_root)
            state_fs = filesystem_type(root)
            try:
                repository = CheckpointRepository(root)
                fsyncs -= counter_snapshot().get("repo.fsync_batched", 0.0)
                with clock.timed("repo.put_page"):
                    for send in full:
                        started = time.perf_counter()
                        segments += repository.put_page(
                            digests[send.content_id], pages[send.content_id]
                        )
                        put_ms.append((time.perf_counter() - started) * 1e3)
                fsyncs += counter_snapshot().get("repo.fsync_batched", 0.0)
                manifest = CheckpointManifest(
                    vm_id=migration.vm_id,
                    slot_digests=digest_many(migration.current),
                    algorithm=algorithm.name,
                    page_size=PAGE,
                    generation=1,
                )
                with clock.timed("repo.commit"):
                    repository.commit_checkpoint(manifest)
                with clock.timed("repo.recover"):
                    CheckpointRepository(root).recover()
                report = repository.verify()
                distinct = len({digests[send.content_id] for send in full})
                if not report.ok or report.segments_checked != distinct:
                    errors.append(
                        f"repository verify: {report} over {distinct} pages"
                    )
                committed = repository.load_manifest(migration.vm_id)
                if committed is None or committed.slot_digests != expected:
                    errors.append(
                        "committed checkpoint digests differ from the source's"
                    )
            finally:
                shutil.rmtree(root, ignore_errors=True)

    # runtime.daemon: the checkpoint installs the workload performs.
    installs = inputs["installs"]
    install_store = PageStore()
    daemons: Dict[str, CheckpointDaemon] = {}
    with clock.timed("daemon.install_checkpoint"):
        for host, vm_id, fingerprint in installs:
            daemon = daemons.get(host)
            if daemon is None:
                daemon = daemons[host] = CheckpointDaemon(
                    name=host, time_scale=0.0, pagestore=install_store
                )
            daemon.install_checkpoint(vm_id, fingerprint, algorithm)

    s = clock.seconds
    synth_mib = len(pages) * PAGE / MIB

    def rate(mib: float, seconds: float) -> float:
        return mib / seconds if seconds > 0 else 0.0

    per = 1.0 / count
    # The in-memory migration's own data path; the repository replay
    # is not part of its wall.
    data_path = [
        "pagestore.page_bytes", "checksum.md5", "planner.plan",
        "frames.announce_encode", "frames.page_encode", "frames.decode",
        "shaping.loopback", "castore.put",
    ]
    return {
        "pagestore.synth_mib_per_s": rate(synth_mib, s["pagestore.page_bytes"]),
        "pagestore.digests_for_s": s["pagestore.digests_for"] * per,
        "checksum.md5_mib_per_s": rate(synth_mib, s["checksum.md5"]),
        "planner.plan_s": s["planner.plan"] * per,
        "planner.recycled_fraction": recycled / planned_slots if planned_slots else 0.0,
        "frames.announce_encode_s": s["frames.announce_encode"] * per,
        "frames.page_encode_s": s["frames.page_encode"] * per,
        "frames.decode_s": s["frames.decode"] * per,
        "shaping.loopback_mib_per_s": rate(
            loopback_bytes / MIB, s["shaping.loopback"]
        ),
        "castore.put_s": s["castore.put"] * per,
        "repo.put_page_ms.p50": median(put_ms),
        "repo.commit_s": s.get("repo.commit", 0.0) * per,
        "repo.recover_s": s.get("repo.recover", 0.0) * per,
        "repo.segments_written": segments * per,
        "repo.fsync_batched": fsyncs * per,
        "daemon.install_checkpoint_s": (
            s["daemon.install_checkpoint"] / len(installs) if installs else 0.0
        ),
        "_explained_s": sum(s.get(name, 0.0) for name in data_path) * per,
        "_announce_bytes": announce_bytes,
        "_errors": errors,
        "_state_fs": state_fs,
    }


def replay_fig1(machines) -> Dict[str, Any]:
    """fig1's two layers, machine by machine, as ``fig1_similarity.run`` calls them."""
    clock = Clock()
    results = {}
    for spec in machines:
        with clock.timed("traces.generate"):
            trace = generate_trace(spec)
        with clock.timed("similarity.decay"):
            results[spec.name] = similarity_decay(
                trace, max_delta_hours=24.0, max_pairs_per_bin=60
            )
    return {
        "traces.generate_s": clock.seconds["traces.generate"],
        "similarity.decay_s": clock.seconds["similarity.decay"],
        "_explained_s": sum(clock.seconds.values()),
        "_results": results,
    }


def span_self_times(records) -> Dict[str, float]:
    """Total self time per span name: duration minus its children's."""
    children: Dict[int, float] = {}
    for record in records:
        if record.kind == "span" and record.parent_id:
            children[record.parent_id] = (
                children.get(record.parent_id, 0.0) + record.duration_s
            )
    totals: Dict[str, float] = {}
    for record in records:
        if record.kind != "span":
            continue
        own = max(record.duration_s - children.get(record.span_id, 0.0), 0.0)
        totals[record.name] = totals.get(record.name, 0.0) + own
    return totals

