"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* memory evolution, not just the
calibrated workloads: traffic conservation, similarity bounds, protocol
correctness under arbitrary mutation sequences.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import Checkpoint, ChecksumIndex
from repro.core.protocol import WireFormat, first_round_traffic
from repro.core.strategies import QEMU, VECYCLE
from repro.core.transfer import Method, compute_transfer_set
from repro.mem.image import MemoryImage
from repro.migration.precopy import simulate_migration
from repro.migration.vm import SimVM
from repro.net.link import LAN_1GBE

MIB = 2**20


# A mutation step: (kind, amount) applied to a 128-page image.
mutation_steps = st.lists(
    st.tuples(
        st.sampled_from(["fresh", "dup", "zero", "relocate"]),
        st.integers(min_value=1, max_value=32),
    ),
    min_size=0,
    max_size=8,
)


def apply_mutations(image: MemoryImage, steps, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for kind, amount in steps:
        slots = image.sample_slots(amount, rng)
        if kind == "fresh":
            image.write_fresh(slots)
        elif kind == "dup":
            image.write_duplicate_of(slots, int(image.sample_slots(1, rng)[0]))
        elif kind == "zero":
            image.zero(slots)
        elif kind == "relocate":
            image.relocate(slots, rng)


class TestMutationInvariants:
    @given(mutation_steps, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_vecycle_never_beats_nothing_and_never_loses_to_full(self, steps, seed):
        image = MemoryImage(128, zero_filled=False)
        checkpoint_fp = image.fingerprint()
        apply_mutations(image, steps, seed)
        current = image.fingerprint()
        for method in Method:
            ts = compute_transfer_set(method, current, checkpoint=checkpoint_fp)
            assert 0 <= ts.full_pages <= 128

    @given(mutation_steps, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_relocation_only_mutations_are_free_for_vecycle(self, steps, seed):
        relocate_only = [(k, n) for k, n in steps if k == "relocate"]
        image = MemoryImage(128, zero_filled=False)
        checkpoint_fp = image.fingerprint()
        apply_mutations(image, relocate_only, seed)
        ts = compute_transfer_set(
            Method.HASHES, image.fingerprint(), checkpoint=checkpoint_fp
        )
        assert ts.full_pages == 0  # all content still in the checkpoint

    @given(mutation_steps, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_traffic_conservation(self, steps, seed):
        image = MemoryImage(128, zero_filled=False)
        checkpoint_fp = image.fingerprint()
        apply_mutations(image, steps, seed)
        wire = WireFormat()
        ts = compute_transfer_set(
            Method.HASHES, image.fingerprint(), checkpoint=checkpoint_fp
        )
        traffic = first_round_traffic(ts, wire)
        reconstructed = (
            ts.full_pages * wire.full_page_message
            + ts.checksum_only_pages * wire.checksum_message
        )
        assert traffic.payload_bytes == reconstructed

    @given(mutation_steps, st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_similarity_matches_checkpoint_index_view(self, steps, seed):
        image = MemoryImage(128, zero_filled=False)
        checkpoint_fp = image.fingerprint()
        apply_mutations(image, steps, seed)
        current = image.fingerprint()
        index = ChecksumIndex(checkpoint_fp)
        # Every unique hash the similarity metric counts as shared must
        # be findable through the destination's index, and vice versa.
        shared = np.intersect1d(
            current.unique_hashes(), checkpoint_fp.unique_hashes(), assume_unique=True
        )
        for value in shared:
            assert index.lookup(int(value)) is not None
        missing = np.setdiff1d(current.unique_hashes(), checkpoint_fp.unique_hashes())
        for value in missing:
            assert index.lookup(int(value)) is None


class TestSimulationProperties:
    @given(st.integers(0, 50), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_migration_time_positive_and_traffic_bounded(self, dirty_pages, seed):
        vm = SimVM.idle("vm", 4 * MIB, seed=seed)
        vm.image.write_fresh(np.arange(vm.num_pages))
        ckpt = Checkpoint(vm_id="vm", fingerprint=vm.fingerprint())
        if dirty_pages:
            vm.write_slots(
                np.random.default_rng(seed).choice(
                    vm.num_pages, size=min(dirty_pages, vm.num_pages), replace=False
                )
            )
        report = simulate_migration(vm, VECYCLE, LAN_1GBE, checkpoint=ckpt)
        assert report.total_time_s > 0
        full = simulate_migration(vm, QEMU, LAN_1GBE)
        assert report.tx_bytes <= full.tx_bytes

    @given(st.integers(1, 60))
    @settings(max_examples=10, deadline=None)
    def test_more_updates_more_traffic(self, step):
        def traffic_for(updates):
            vm = SimVM.idle("vm", 4 * MIB, seed=1)
            vm.image.write_fresh(np.arange(vm.num_pages))
            ckpt = Checkpoint(vm_id="vm", fingerprint=vm.fingerprint())
            vm.write_slots(np.arange(updates))
            return simulate_migration(
                vm, VECYCLE, LAN_1GBE, checkpoint=ckpt
            ).tx_bytes

        assert traffic_for(step) <= traffic_for(step + 64)
