"""Materializing page bytes for content ids.

The scalable simulator works on 64-bit content ids only.  The
byte-faithful mini-hypervisor (:mod:`repro.vmm`) needs real 4 KiB blocks
so it can compute real MD5 checksums and write real checkpoint files.
:class:`PageStore` bridges the two: it deterministically expands a
content id into a unique 4 KiB page — one SHAKE-128 call seeded with
the id — so equal ids always give byte-identical pages and distinct ids
give distinct pages.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.checksum import PAGE_SIZE, ChecksumAlgorithm, MD5
from repro.core.fingerprint import ZERO_HASH
from repro.obs.metrics import get_registry


class PageStore:
    """Deterministic content-id → page-bytes expansion with bounded LRU caches.

    A page is the first ``page_size`` bytes of the SHAKE-128 output for
    the content id (8 bytes, little-endian).  The zero id maps to the
    all-zeros page, matching the
    :data:`~repro.core.fingerprint.ZERO_HASH` convention.

    Both the page cache and the digest cache evict one least-recently-used
    entry at a time instead of flushing wholesale, so a working set that
    slightly exceeds the limit degrades gracefully rather than falling
    off a cliff.  Evictions are counted in the process metrics registry
    (``pagestore.page_evictions`` / ``pagestore.digest_evictions``).

    Args:
        page_size: Page size in bytes (default 4 KiB, like the paper).
        cache_limit: Maximum number of generated pages to memoize.  The
            digest cache holds up to ``max(4 * cache_limit, 65536)``
            entries (digests are ~256× smaller than pages).
    """

    def __init__(self, page_size: int = PAGE_SIZE, cache_limit: int = 4096) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        self.page_size = page_size
        self._cache_limit = cache_limit
        self._digest_limit = max(cache_limit * 4, 1 << 16)
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._digest_cache: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self._zero = bytes(page_size)

    def page_bytes(self, content_id: int) -> bytes:
        """The unique ``page_size`` block of bytes for ``content_id``."""
        content_id = int(content_id)
        if content_id == int(ZERO_HASH):
            return self._zero
        cached = self._cache.get(content_id)
        if cached is not None:
            self._cache.move_to_end(content_id)
            return cached
        page = self._generate(content_id)
        while len(self._cache) >= self._cache_limit:
            self._cache.popitem(last=False)
            get_registry().counter("pagestore.page_evictions").add()
        self._cache[content_id] = page
        return page

    def _generate(self, content_id: int) -> bytes:
        # Hot path: one extendable-output call per page.
        return hashlib.shake_128(content_id.to_bytes(8, "little")).digest(
            self.page_size
        )

    def digest_for(
        self, content_id: int, algorithm: ChecksumAlgorithm = MD5
    ) -> bytes:
        """The real page checksum for ``content_id`` (memoized).

        The live migration runtime checksums every outgoing page; the
        deterministic id → bytes mapping makes the digest a pure function
        of the content id, so one digest per distinct content suffices no
        matter how many slots share it.
        """
        content_id = int(content_id)
        key = (algorithm.name, content_id)
        cached = self._digest_cache.get(key)
        if cached is None:
            cached = algorithm.digest(self.page_bytes(content_id))
            while len(self._digest_cache) >= self._digest_limit:
                self._digest_cache.popitem(last=False)
                get_registry().counter("pagestore.digest_evictions").add()
            self._digest_cache[key] = cached
        else:
            self._digest_cache.move_to_end(key)
        return cached

    def digests_for(
        self, content_ids: np.ndarray, algorithm: ChecksumAlgorithm = MD5
    ) -> List[bytes]:
        """Per-slot digests for an array of content ids.

        Each *distinct* id goes through :meth:`digest_for` once, so
        duplicate-heavy images digest far fewer pages than they have
        slots.
        """
        uniques, inverse = np.unique(np.asarray(content_ids), return_inverse=True)
        digests = [self.digest_for(cid, algorithm) for cid in uniques.tolist()]
        return [digests[i] for i in inverse]

    def materialize(self, slots: np.ndarray) -> bytes:
        """Concatenate the page bytes for an array of content ids.

        Used to write real checkpoint files from a simulated image.
        """
        return b"".join(self.page_bytes(int(cid)) for cid in np.asarray(slots))


class ContentAddressedStore:
    """Digest-keyed page storage with refcounts and optional spill.

    The receiving side of the live runtime keeps every page it has ever
    seen — from preloaded checkpoints and from incoming migrations —
    keyed by its checksum.  Storing by content means a page shared by
    many slots (or many VMs on a consolidation host) occupies one entry,
    and a checksum-only protocol message resolves to real bytes with one
    dictionary lookup (the runtime analogue of Listing 1's
    binary-search-then-seek path).

    Every *owner* of a page — a checkpoint slot, an in-flight migration
    session slot — holds one reference (:meth:`retain` /
    :meth:`release`).  Releasing the last reference evicts the bytes, so
    dropping a checkpoint under a retention policy actually shrinks
    :attr:`stored_bytes` instead of leaking forever.  ``stored_bytes``
    is a maintained running total, O(1) no matter how many pages.

    Args:
        repository: Optional durable backing
            (:class:`~repro.storage.repository.CheckpointRepository`).
            ``put`` writes through — pages are on disk *before* any
            manifest referencing them commits — and ``get`` faults
            missing pages back in, so released pages stay reachable
            until the repository itself reclaims their segments.
        spill: Optional ``(digest, page) -> None`` callable replacing
            the synchronous repository write-through on ``put``.  The
            daemon wires a write-behind queue in here so segment I/O
            overlaps frame reception; whoever installs a spill owns the
            durability contract (everything deferred must hit the
            repository before the referencing manifest commits).
    """

    def __init__(self, repository=None, spill=None) -> None:
        self._pages: Dict[bytes, bytes] = {}
        self._refs: Dict[bytes, int] = {}
        self._stored_bytes = 0
        self.repository = repository
        self._spill = spill

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, digest: bytes) -> bool:
        if digest in self._pages:
            return True
        return self.repository is not None and self.repository.has_page(digest)

    @property
    def stored_bytes(self) -> int:
        """Total resident bytes held, after deduplication (O(1))."""
        return self._stored_bytes

    def put(self, digest: bytes, page: bytes) -> bool:
        """Store ``page`` under ``digest``; True if it was new content.

        With a repository attached the page is durably written through
        before this returns (idempotent for known content), unless a
        ``spill`` hook was installed — then the hook decides when the
        bytes reach the repository.
        """
        if self._spill is not None:
            self._spill(digest, page)
        elif self.repository is not None:
            self.repository.put_page(digest, page)
        if digest in self._pages:
            return False
        self._pages[digest] = page
        self._stored_bytes += len(page)
        return True

    def get(self, digest: bytes) -> Optional[bytes]:
        """The page bytes for ``digest``, or None if never seen.

        A resident miss falls back to the backing repository and faults
        the page back into memory (the spill/load path).
        """
        page = self._pages.get(digest)
        if page is None and self.repository is not None:
            page = self.repository.get_page(digest)
            if page is not None:
                self._pages[digest] = page
                self._stored_bytes += len(page)
        return page

    # --- reference counting --------------------------------------------

    def refcount(self, digest: bytes) -> int:
        """Live references (slot owners) for ``digest``."""
        return self._refs.get(digest, 0)

    def retain(self, digest: bytes) -> None:
        """Record one more owner of ``digest`` (one call per slot)."""
        self._refs[digest] = self._refs.get(digest, 0) + 1

    def release(self, digest: bytes) -> int:
        """Drop one owner; evicts the bytes when the last one goes.

        Returns the number of resident bytes freed (0 while other
        owners remain).  The backing repository's copy, if any, is
        untouched — segment reclamation is the repository's refcounted
        job.
        """
        count = self._refs.get(digest, 0) - 1
        if count > 0:
            self._refs[digest] = count
            return 0
        self._refs.pop(digest, None)
        page = self._pages.pop(digest, None)
        if page is None:
            return 0
        self._stored_bytes -= len(page)
        return len(page)

    def refcounts(self) -> Dict[bytes, int]:
        """Snapshot copy of digest → live owner count.

        The audit surface for invariant checking (:mod:`repro.chaos`):
        comparing this against the owners a daemon *should* have (its
        hosted checkpoints plus non-retired sessions) detects both ref
        leaks and double releases without poking at private state.
        """
        return dict(self._refs)

    def retain_many(self, digests: Iterable[bytes]) -> None:
        """Retain every (non-None) digest in ``digests``, one per slot."""
        for digest in digests:
            if digest is not None:
                self.retain(digest)

    def release_many(self, digests: Iterable[bytes]) -> int:
        """Release every (non-None) digest; returns resident bytes freed."""
        freed = 0
        for digest in digests:
            if digest is not None:
                freed += self.release(digest)
        return freed

    def sweep_unreferenced(self) -> int:
        """Evict every resident page with no owner; returns bytes freed.

        Normally precise retain/release keeps the store tight; the sweep
        exists for callers that bulk-loaded pages without owners (e.g. a
        recovery that later decided against adopting a checkpoint).
        """
        freed = 0
        for digest in [d for d in self._pages if d not in self._refs]:
            page = self._pages.pop(digest)
            self._stored_bytes -= len(page)
            freed += len(page)
        return freed
