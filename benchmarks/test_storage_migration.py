"""Extension: whole-VM migration over non-shared storage (§3.1, [16][29]).

The paper's testbed avoids disk migration via NFS; real WAN moves
(XvMotion, CloudNet) must ship the virtual disk too.  This benchmark
moves a 2 GiB-RAM / 8 GiB-disk VM across the CloudNet WAN in three
configurations and checks that replica reuse does for the disk exactly
what checkpoint recycling does for memory — and that the two compound:

* cold: no state at the destination (first visit);
* memory-only recycling: a checkpoint but no disk replica;
* full recycling: checkpoint + stale disk replica (ping-pong return).
"""

import numpy as np

from repro.core.checkpoint import Checkpoint
from repro.core.strategies import QEMU, VECYCLE
from repro.migration.vm import SimVM
from repro.migration.wholevm import migrate_whole_vm
from repro.net.link import WAN_CLOUDNET
from repro.storage.blocksync import DiskImage
from repro.storage.disk import SSD_INTEL330

from benchmarks.conftest import once

MIB = 2**20
DISK_BLOCKS = (8 * 2**30) // (64 * 1024)  # 8 GiB at 64 KiB blocks


def _guest(seed=17):
    vm = SimVM("vm", 2048 * MIB, dirty_rate_pages_per_s=50,
               working_set_fraction=0.05, seed=seed)
    vm.image.write_fresh(np.arange(vm.num_pages))
    disk = DiskImage(DISK_BLOCKS)
    disk.write(np.arange(DISK_BLOCKS))
    return vm, disk


def _run():
    results = {}

    vm, disk = _guest()
    results["cold"] = migrate_whole_vm(
        vm, disk, QEMU, WAN_CLOUDNET,
        disk_write_blocks_per_s=0.5,
        source_disk=SSD_INTEL330, destination_disk=SSD_INTEL330,
    )

    vm, disk = _guest()
    checkpoint = Checkpoint(vm_id=vm.vm_id, fingerprint=vm.fingerprint(),
                            generation_vector=vm.tracker.snapshot())
    vm.run_for(1800)
    results["memory-only"] = migrate_whole_vm(
        vm, disk, VECYCLE, WAN_CLOUDNET,
        checkpoint=checkpoint, disk_write_blocks_per_s=0.5,
        source_disk=SSD_INTEL330, destination_disk=SSD_INTEL330,
    )

    vm, disk = _guest()
    checkpoint = Checkpoint(vm_id=vm.vm_id, fingerprint=vm.fingerprint(),
                            generation_vector=vm.tracker.snapshot())
    replica = disk.snapshot()
    vm.run_for(1800)
    # The disk also changed a little since the replica was taken.
    disk.clear_dirty()
    disk.write(np.arange(0, DISK_BLOCKS // 50))
    results["full-recycle"] = migrate_whole_vm(
        vm, disk, VECYCLE, WAN_CLOUDNET,
        checkpoint=checkpoint, destination_replica=replica,
        disk_write_blocks_per_s=0.5,
        source_disk=SSD_INTEL330, destination_disk=SSD_INTEL330,
    )
    return results


def test_storage_migration(benchmark):
    results = once(benchmark, _run)
    print()
    for name, report in results.items():
        print(f"  {name:<12s} {report.summary()}")

    cold = results["cold"]
    memory_only = results["memory-only"]
    full = results["full-recycle"]

    # Cold: the 8 GiB disk dominates a WAN move of a 2 GiB-RAM VM.
    assert cold.bulk_sync.transfer_bytes > 3 * cold.memory.tx_bytes

    # A memory checkpoint alone barely dents the total (the disk still
    # crosses in full) — recycling must cover the disk too.
    assert memory_only.tx_bytes > 0.75 * cold.tx_bytes
    assert memory_only.memory.tx_bytes < cold.memory.tx_bytes / 5

    # Replica + checkpoint together: an order of magnitude less data
    # and time.
    assert full.tx_bytes < cold.tx_bytes / 10
    assert full.total_time_s < cold.total_time_s / 10

    # The stale replica absorbed all but the recently written blocks.
    assert full.bulk_sync.blocks_full <= DISK_BLOCKS // 50 + 1
    assert full.bulk_sync.blocks_reused >= DISK_BLOCKS - DISK_BLOCKS // 50 - 1

    # Downtime is dominated by the final disk delta; it stays a tiny
    # fraction of the total move in every configuration, and drops to
    # sub-second when the replica absorbs the delta's content too.
    for report in results.values():
        assert report.downtime_s < 0.01 * report.total_time_s + 1.0
    assert full.downtime_s < 1.0
