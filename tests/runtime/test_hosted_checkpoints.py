"""Daemon checkpoint inventory (ISSUE S1): live ∪ durable, last-used."""

import asyncio

import numpy as np

from repro.core.fingerprint import Fingerprint
from repro.core.strategies import VECYCLE_DEDUP
from repro.mem.pagestore import PageStore
from repro.runtime import (
    CheckpointDaemon,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.storage.repository import CheckpointManifest, CheckpointRepository

N = 64
FAST = RuntimeConfig(
    io_timeout_s=5.0,
    connect_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.05),
    time_scale=0.0,
)


def fingerprint(seed=3, distinct=32):
    rng = np.random.default_rng(seed)
    return Fingerprint(
        hashes=rng.integers(1, distinct + 1, size=N, dtype=np.uint64),
        timestamp=42.0,
    )


def _count_generate(pagestore):
    """Wrap ``pagestore._generate`` on the instance; returns the call list."""
    calls = []
    generate = pagestore._generate

    def counting(content_id):
        calls.append(content_id)
        return generate(content_id)

    pagestore._generate = counting
    return calls


def test_install_synthesizes_each_distinct_page_once():
    cache_limit = 64
    daemon = CheckpointDaemon(pagestore=PageStore(cache_limit=cache_limit))
    rng = np.random.default_rng(7)
    distinct = 5 * cache_limit
    hashes = np.concatenate(
        [np.arange(distinct + 1, dtype=np.uint64),  # includes the zero id
         rng.integers(0, distinct + 1, size=3 * distinct, dtype=np.uint64)]
    )
    rng.shuffle(hashes)
    fp = Fingerprint(hashes=hashes, timestamp=1.0)
    calls = _count_generate(daemon.pagestore)
    hosted = daemon.install_checkpoint("vm", fp)
    assert sorted(calls) == list(range(1, distinct + 1))
    assert hosted.slot_digests == daemon.pagestore.digests_for(hashes)
    # The digests are cached and the content is stored: a repeat install
    # of the same image synthesizes nothing.
    calls.clear()
    daemon.install_checkpoint("vm", fp)
    assert calls == []


def test_live_only_checkpoint_is_resident():
    daemon = CheckpointDaemon()
    fp = fingerprint()
    daemon.install_checkpoint("vm-live", fp)
    infos = daemon.hosted_checkpoints()
    assert [info.vm_id for info in infos] == ["vm-live"]
    info = infos[0]
    assert info.resident
    assert info.pages == N
    assert info.unique_pages == len(np.unique(fp.hashes))
    # No repository: stored size is estimated from distinct contents.
    assert info.stored_bytes == info.unique_pages * daemon.pagestore.page_size
    assert info.last_used == info.timestamp


def test_durable_only_checkpoint_is_listed_nonresident(tmp_path):
    daemon = CheckpointDaemon(state_dir=tmp_path)
    daemon.install_checkpoint("vm-live", fingerprint(seed=1))
    # A second repository handle commits a checkpoint the daemon never
    # sees through its live map — e.g. left behind by a prior
    # incarnation or a sibling handle.
    other = CheckpointRepository(tmp_path)
    store = PageStore()
    digests = []
    for content_id in (100, 101, 102):
        page = store.page_bytes(content_id)
        digest = store.digest_for(content_id)
        other.put_page(digest, page)
        digests.append(digest)
    other.commit_checkpoint(
        CheckpointManifest(
            vm_id="vm-cold", slot_digests=digests * 2, timestamp=7.0
        )
    )
    infos = {info.vm_id: info for info in daemon.hosted_checkpoints()}
    assert set(infos) == {"vm-cold", "vm-live"}
    cold = infos["vm-cold"]
    assert not cold.resident
    assert cold.pages == 6
    assert cold.unique_pages == 3
    assert cold.stored_bytes == 3 * store.page_size
    assert cold.timestamp == 7.0
    live = infos["vm-live"]
    assert live.resident
    # Resident + durable: stored size comes from the real segments.
    assert live.stored_bytes == live.unique_pages * store.page_size


def test_last_used_advances_when_checkpoint_is_recycled():
    async def main():
        pagestore = PageStore()
        async with CheckpointDaemon(pagestore=pagestore) as daemon:
            fp = fingerprint()
            daemon.install_checkpoint("vm", fp)
            before = daemon.hosted_checkpoints()[0]
            assert before.last_used == fp.timestamp
            source = MigrationSource(
                SourceState("vm", fp.hashes, pagestore),
                VECYCLE_DEDUP,
                config=FAST,
            )
            metrics = await source.migrate(daemon.host, daemon.port)
            assert metrics.outcome == "completed"
            after = daemon.hosted_checkpoints()[0]
            assert after.last_used > before.last_used

    asyncio.run(main())


def test_inventory_report_carries_capacity_and_sketches():
    daemon = CheckpointDaemon(name="inv-host", max_concurrent_migrations=5)
    daemon.install_checkpoint("vm", fingerprint())
    report = daemon.inventory_report(sketch_k=8)
    assert report["host"] == "inv-host"
    assert report["active_sessions"] == 0
    assert report["max_concurrent_migrations"] == 5
    assert report["sketch_k"] == 8
    (entry,) = report["checkpoints"]
    assert entry["vm_id"] == "vm"
    assert entry["pages"] == N
    assert entry["resident"] is True
    assert 0 < len(entry["sketch"]) <= 8
    assert entry["sketch"] == sorted(entry["sketch"])
