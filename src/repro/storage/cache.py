"""Pluggable decode-cache tiers for the serving path.

The paper's serving story is CPU-cheap random access; a decode cache on top
of it turns repeated-access query logs (the dominant web-archive workload)
into memory reads.  PR 1 hardcoded that cache into :class:`RlzStore` as a
private ``OrderedDict``; this module extracts it behind a small protocol so
the facade (:mod:`repro.api`) can plug in different tiers per deployment:

* :class:`NullCache` — no caching; every request decodes.  This is the
  paper-faithful default: the benchmark tables keep measuring cold decodes.
* :class:`LruCache` — the in-process LRU of decoded documents, semantics
  identical to the PR-1 store cache (move-to-end on hit, evict-oldest on
  overflow, hit/miss counters).
* :class:`SharedMemoryCache` — a cross-process tier: a fixed-slot ring of
  decoded documents in one ``multiprocessing.shared_memory`` segment, so
  every reader process serving the same archive shares one decode cache
  instead of each warming its own.

Every tier implements :class:`CacheTier`: ``get`` (counted lookup),
``peek`` (uncounted presence check, used by ``get_many``'s planning pass),
``put``, ``cache_info``, ``clear`` and ``close``.

Cross-process memory model
--------------------------

:class:`SharedMemoryCache` is deliberately lock-free across processes.  The
segment holds a header (magic, geometry, ring cursor, and the shared stats
block), four ``int64`` metadata arrays (``doc_id``, version, length,
checksum per slot), an open-addressing **slot index** (two ``int64`` arrays
of ``table_size >= 2 x slots`` entries mapping doc id -> slot, linear
probing with Fibonacci hashing), and the slot data.  Writers claim the next
ring slot, force the slot's version to an *odd* value, invalidate the doc
id, copy the bytes, then publish length, checksum, doc id and the next
*even* version — a seqlock — and finally point an index entry at the slot.
Readers **probe** the index by doc id (O(1), not O(slots)), snapshot the
version (odd means "write in progress": skip), copy the bytes out, and
re-check version and doc id; any change discards the copy and the probe
continues (a stale index entry — its slot since recycled for another
document — fails that same validation, so staleness costs a probe step,
never a wrong answer).
Index entries are reclaimed in place: an insert claims the first empty,
same-id or stale entry on its probe path.

The header also carries a **shared stats block** — machine-wide ``hits``/
``misses``/``stores``/``rejected``/``evictions`` counters folded into
``cache_info()`` as ``shared_*`` keys — so a fleet of reader processes
observes one hit rate instead of each handle guessing from its own.
Cross-process increments are not atomic (a racing pair can lose a count);
the shared block is observability, not accounting the correctness of
anything rests on.

The seqlock alone cannot order two *processes* writing the same slot (the
cursor bump and version arithmetic are not cross-process atomic, and two
racing writers can publish the same version value around interleaved byte
copies), so correctness does not rest on it: every slot also stores the
CRC-32 of its document, and a reader only serves bytes whose checksum
matches.  Writer races therefore cost a lost ``put`` or a spurious miss —
never served torn data.  Documents larger than ``slot_bytes`` are simply
not cached.

The *creator* of the segment owns its name and unlinks it on ``close()``;
attaching processes (same ``name=``) only borrow it, via the
tracker-suppressing attach shared with the parallel-encode pipeline
(:mod:`repro.core.shm`).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np

from ..core.shm import attach_segment, release_segment
from ..errors import StorageError

__all__ = [
    "CacheTier",
    "NullCache",
    "LruCache",
    "SharedMemoryCache",
]


@runtime_checkable
class CacheTier(Protocol):
    """Protocol every decode-cache tier implements.

    ``get`` is the *counted* lookup (it moves hit/miss statistics and any
    recency state); ``peek`` answers "would ``get`` hit right now?" without
    side effects, which batch planning (``RlzStore.get_many``) needs to
    stage decodes without disturbing the accounting of the replay pass.
    """

    def get(self, doc_id: int) -> Optional[bytes]:
        """Counted lookup: the cached document, or ``None`` on a miss."""
        ...

    def peek(self, doc_id: int) -> bool:
        """Uncounted presence check (no counter or recency side effects)."""
        ...

    def put(self, doc_id: int, document: bytes) -> None:
        """Offer a decoded document to the tier (may be declined)."""
        ...

    def cache_info(self) -> Dict[str, int]:
        """Counters; always includes ``hits``/``misses``/``size``/``capacity``."""
        ...

    def clear(self) -> None:
        """Drop all cached documents (counters keep accumulating)."""
        ...

    def close(self) -> None:
        """Release any resources held by the tier (idempotent)."""
        ...


class NullCache:
    """The no-op tier: never stores, never hits, never counts.

    The store's default: it skips the cache entirely (misses are *not*
    counted), so the paper-faithful benchmark numbers time every decode.
    """

    def get(self, doc_id: int) -> Optional[bytes]:
        return None

    def peek(self, doc_id: int) -> bool:
        return False

    def put(self, doc_id: int, document: bytes) -> None:
        pass

    def items(self) -> list:
        """Cached ``(doc_id, document)`` pairs — always empty here."""
        return []

    def cache_info(self) -> Dict[str, int]:
        return {"hits": 0, "misses": 0, "size": 0, "capacity": 0}

    def clear(self) -> None:
        pass

    def close(self) -> None:
        pass


class LruCache:
    """In-process LRU of decoded documents (the PR-1 store cache, extracted).

    Semantics are exactly the old ``RlzStore`` private cache: hits move the
    entry to the most-recent end, stores evict from the least-recent end
    while over capacity, and the counters only move through :meth:`get`.
    A lock makes the tier safe under the async front's thread pool.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise StorageError("LruCache capacity must be positive (use NullCache)")
        self._capacity = capacity
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum number of cached documents."""
        return self._capacity

    def get(self, doc_id: int) -> Optional[bytes]:
        with self._lock:
            document = self._entries.get(doc_id)
            if document is None:
                self._misses += 1
                return None
            self._entries.move_to_end(doc_id)
            self._hits += 1
            return document

    def peek(self, doc_id: int) -> bool:
        with self._lock:
            return doc_id in self._entries

    def put(self, doc_id: int, document: bytes) -> None:
        with self._lock:
            self._entries[doc_id] = document
            self._entries.move_to_end(doc_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def items(self) -> list:
        """Cached ``(doc_id, document)`` pairs, least-recent first."""
        with self._lock:
            return list(self._entries.items())

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "capacity": self._capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def close(self) -> None:
        # Nothing to release in-process; contents stay inspectable through
        # cache_info() after the owning store closes (matching the PR-1
        # store cache, whose counters survived close()).
        pass


class SharedMemoryCache:
    """Cross-process decode cache: a fixed-slot ring in shared memory.

    Parameters
    ----------
    slots:
        Number of document slots in the ring (the tier's capacity).
    slot_bytes:
        Bytes reserved per slot.  Documents larger than this are served but
        not cached (counted under ``rejected``).
    name:
        Segment name.  ``None`` creates an anonymous segment this process
        owns.  With a name, the first process to arrive *creates* (and owns)
        the segment; later processes with the same name *attach* to it and
        share its contents — that is how several reader processes share one
        cache over one archive.  ``slots``/``slot_bytes`` of an attacher are
        ignored in favour of the creator's geometry.

    The creator unlinks the segment on :meth:`close`; attachers only close
    their mapping.  See the module docstring for the seqlock memory model.
    """

    _MAGIC = 0x524C5A43_41434832  # "RLZCACH2": v2 layout (slot index + stats)
    #: magic, slots, slot_bytes, ring cursor, table_size, then the shared
    #: stats block: hits, misses, stores, rejected, evictions.
    _HEADER_WORDS = 10
    _H_CURSOR = 3
    _H_TABLE = 4
    _H_HITS = 5
    _H_MISSES = 6
    _H_STORES = 7
    _H_REJECTED = 8
    _H_EVICTIONS = 9
    #: Fibonacci-hashing multiplier (odd, ~2**64 / golden ratio): the high
    #: half of ``doc_id * multiplier`` (mod 2**64) spreads consecutive doc
    #: ids over the table.
    _FIB_MULTIPLIER = 0x9E3779B97F4A7C15
    _MASK_64 = (1 << 64) - 1

    def __init__(
        self,
        slots: int = 256,
        slot_bytes: int = 64 * 1024,
        name: Optional[str] = None,
    ) -> None:
        from multiprocessing import shared_memory

        if slots <= 0:
            raise StorageError("SharedMemoryCache slots must be positive")
        if slot_bytes <= 0:
            raise StorageError("SharedMemoryCache slot_bytes must be positive")
        self._closed = False
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._rejected = 0
        self._lock = threading.Lock()
        size = self._segment_size(slots, slot_bytes)
        if name is None:
            self._segment = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            try:
                self._segment = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                self._owner = True
            except FileExistsError:
                self._segment = attach_segment(name)
                self._owner = False
        try:
            self._map_views(initialize=self._owner, slots=slots, slot_bytes=slot_bytes)
        except Exception:
            self._release_views()
            release_segment(self._segment, unlink=self._owner)
            raise

    @classmethod
    def _table_size(cls, slots: int) -> int:
        """Open-addressing table entries: a power of two >= 2 x slots."""
        size = 8
        while size < 2 * slots:
            size *= 2
        return size

    @classmethod
    def _segment_size(cls, slots: int, slot_bytes: int) -> int:
        return (
            8 * (cls._HEADER_WORDS + 4 * slots + 2 * cls._table_size(slots))
            + slots * slot_bytes
        )

    def _map_views(self, initialize: bool, slots: int, slot_bytes: int) -> None:
        buf = self._segment.buf
        header = np.frombuffer(buf, dtype=np.int64, count=self._HEADER_WORDS)
        if initialize:
            header[0] = self._MAGIC
            header[1] = slots
            header[2] = slot_bytes
            header[3:] = 0
            header[self._H_TABLE] = self._table_size(slots)
        elif int(header[0]) != self._MAGIC:
            raise StorageError(
                f"segment {self._segment.name!r} is not a SharedMemoryCache"
            )
        else:
            slots = int(header[1])
            slot_bytes = int(header[2])
            if (
                int(header[self._H_TABLE]) != self._table_size(slots)
                or len(buf) < self._segment_size(slots, slot_bytes)
            ):
                raise StorageError(
                    f"segment {self._segment.name!r} is truncated for its geometry"
                )
        self._slots = slots
        self._slot_bytes = slot_bytes
        table_size = self._table_size(slots)
        offset = 8 * self._HEADER_WORDS
        self._header = header
        self._doc_ids = np.frombuffer(buf, dtype=np.int64, count=slots, offset=offset)
        offset += 8 * slots
        self._versions = np.frombuffer(buf, dtype=np.int64, count=slots, offset=offset)
        offset += 8 * slots
        self._lengths = np.frombuffer(buf, dtype=np.int64, count=slots, offset=offset)
        offset += 8 * slots
        self._checksums = np.frombuffer(buf, dtype=np.int64, count=slots, offset=offset)
        offset += 8 * slots
        self._index_ids = np.frombuffer(
            buf, dtype=np.int64, count=table_size, offset=offset
        )
        offset += 8 * table_size
        self._index_slots = np.frombuffer(
            buf, dtype=np.int64, count=table_size, offset=offset
        )
        offset += 8 * table_size
        self._data_offset = offset
        if initialize:
            self._doc_ids[:] = -1
            self._versions[:] = 0
            self._lengths[:] = 0
            self._checksums[:] = 0
            self._index_ids[:] = -1
            self._index_slots[:] = 0

    def _release_views(self) -> None:
        self._header = None
        self._doc_ids = None
        self._versions = None
        self._lengths = None
        self._checksums = None
        self._index_ids = None
        self._index_slots = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the shared-memory segment (pass to other processes)."""
        return self._segment.name

    @property
    def owner(self) -> bool:
        """Whether this handle created the segment (and will unlink it)."""
        return self._owner

    @property
    def slots(self) -> int:
        """Number of document slots in the ring."""
        return self._slots

    @property
    def slot_bytes(self) -> int:
        """Bytes reserved per slot."""
        return self._slot_bytes

    # ------------------------------------------------------------------
    # CacheTier
    # ------------------------------------------------------------------
    def _probe_slots(self, doc_id: int):
        """Yield ring slots the index claims hold ``doc_id`` (may be stale).

        Linear probing from the Fibonacci hash of the doc id; stops at the
        first empty index entry (entries are overwritten, never emptied, so
        an empty entry proves the id was never inserted past it).  O(1)
        expected — the table has at least twice as many entries as the ring
        has slots.
        """
        index_ids = self._index_ids
        index_slots = self._index_slots
        mask = len(index_ids) - 1
        entry = ((doc_id * self._FIB_MULTIPLIER) & self._MASK_64) >> 32 & mask
        for _ in range(mask + 1):
            entry_id = int(index_ids[entry])
            if entry_id == -1:
                return
            if entry_id == doc_id:
                slot = int(index_slots[entry])
                if 0 <= slot < self._slots:
                    yield slot
            entry = (entry + 1) & mask

    def _slot_read(self, slot: int, doc_id: int) -> Optional[bytes]:
        """Seqlock read of one slot: copy out and verify it did not move.

        The version re-check catches in-flight single-writer updates; the
        CRC-32 comparison is what makes the read safe against two *writer
        processes* racing the same slot (they can publish identical version
        values around interleaved byte copies, which no version check can
        see).  Any mismatch — including a stale index entry whose slot has
        been recycled for another document — is just a miss.
        """
        if int(self._doc_ids[slot]) != doc_id:
            return None
        version = int(self._versions[slot])
        if version & 1:
            return None  # write in progress
        length = int(self._lengths[slot])
        if not 0 <= length <= self._slot_bytes:
            return None
        checksum = int(self._checksums[slot])
        start = self._data_offset + slot * self._slot_bytes
        document = bytes(self._segment.buf[start : start + length])
        if (
            int(self._versions[slot]) == version
            and int(self._doc_ids[slot]) == doc_id
            and zlib.crc32(document) == checksum
        ):
            return document
        return None

    def _find(self, doc_id: int) -> Optional[bytes]:
        for slot in self._probe_slots(doc_id):
            document = self._slot_read(slot, doc_id)
            if document is not None:
                return document
        return None

    def _index_insert(self, doc_id: int, slot: int) -> None:
        """Point an index entry at ``slot``; claims the first reusable entry.

        Reusable means empty, already this doc id, or *stale* — pointing at
        a slot whose current occupant is a different document (its entry
        owner was evicted by the ring).  Reclaiming stale entries in place
        keeps the table from silting up without a sweep pass.
        """
        index_ids = self._index_ids
        index_slots = self._index_slots
        mask = len(index_ids) - 1
        entry = ((doc_id * self._FIB_MULTIPLIER) & self._MASK_64) >> 32 & mask
        for _ in range(mask + 1):
            entry_id = int(index_ids[entry])
            if entry_id == -1 or entry_id == doc_id:
                break
            entry_slot = int(index_slots[entry])
            if not 0 <= entry_slot < self._slots:
                break  # torn cross-process write: reclaim
            if int(self._doc_ids[entry_slot]) != entry_id:
                break  # stale: its document was evicted from the ring
            entry = (entry + 1) & mask
        else:  # pragma: no cover - table is 2x slots, a claimable entry exists
            return
        index_slots[entry] = slot
        self._index_ids[entry] = doc_id

    def _bump(self, header_word: int, amount: int = 1) -> None:
        """Increment a shared stats counter (caller holds the lock)."""
        self._header[header_word] += amount

    def get(self, doc_id: int) -> Optional[bytes]:
        if self._closed:
            return None
        document = self._find(doc_id)
        with self._lock:
            if document is None:
                self._misses += 1
                self._bump(self._H_MISSES)
            else:
                self._hits += 1
                self._bump(self._H_HITS)
        return document

    def peek(self, doc_id: int) -> bool:
        if self._closed:
            return False
        for slot in self._probe_slots(doc_id):
            if (
                int(self._doc_ids[slot]) == doc_id
                and not int(self._versions[slot]) & 1
            ):
                return True
        return False

    def put(self, doc_id: int, document: bytes) -> None:
        if self._closed or doc_id < 0:
            return
        if len(document) > self._slot_bytes:
            with self._lock:
                self._rejected += 1
                self._bump(self._H_REJECTED)
            return
        if self.peek(doc_id):
            return  # already cached (possibly by another process)
        with self._lock:
            cursor = int(self._header[self._H_CURSOR])
            self._header[self._H_CURSOR] = cursor + 1
            slot = cursor % self._slots
            evicted = int(self._doc_ids[slot])
            if evicted >= 0 and evicted != doc_id:
                self._bump(self._H_EVICTIONS)
            # Force parity rather than trusting the snapshot: a racing
            # writer process may leave the version odd, and in-progress must
            # stay odd / published even regardless of what was read.
            version = int(self._versions[slot]) | 1
            self._versions[slot] = version  # odd: write in progress
            self._doc_ids[slot] = -1
            start = self._data_offset + slot * self._slot_bytes
            self._segment.buf[start : start + len(document)] = document
            self._lengths[slot] = len(document)
            self._checksums[slot] = zlib.crc32(document)
            self._doc_ids[slot] = doc_id
            self._versions[slot] = version + 1  # even: published
            self._index_insert(doc_id, slot)
            self._stores += 1
            self._bump(self._H_STORES)

    def cache_info(self) -> Dict[str, int]:
        if self._closed:
            size = 0
            shared = dict.fromkeys(
                ("shared_hits", "shared_misses", "shared_stores",
                 "shared_rejected", "shared_evictions"),
                0,
            )
        else:
            size = int((self._doc_ids >= 0).sum())
            shared = {
                "shared_hits": int(self._header[self._H_HITS]),
                "shared_misses": int(self._header[self._H_MISSES]),
                "shared_stores": int(self._header[self._H_STORES]),
                "shared_rejected": int(self._header[self._H_REJECTED]),
                "shared_evictions": int(self._header[self._H_EVICTIONS]),
            }
        with self._lock:
            info = {
                "hits": self._hits,
                "misses": self._misses,
                "size": size,
                "capacity": self._slots,
                "slot_bytes": self._slot_bytes,
                "stores": self._stores,
                "rejected": self._rejected,
                "owner": int(self._owner),
            }
        info.update(shared)
        return info

    def clear(self) -> None:
        if self._closed:
            return
        with self._lock:
            for slot in range(self._slots):
                version = int(self._versions[slot]) | 1
                self._versions[slot] = version
                self._doc_ids[slot] = -1
                self._lengths[slot] = 0
                self._checksums[slot] = 0
                self._versions[slot] = version + 1
            self._index_ids[:] = -1
            self._index_slots[:] = 0

    def close(self) -> None:
        """Release the mapping; the creator also unlinks the segment."""
        # The view arrays are mutated under self._lock by put()/clear();
        # dropping them must hold the same lock or a concurrent writer can
        # observe a half-released handle.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._release_views()
        release_segment(self._segment, unlink=self._owner)

    def __enter__(self) -> "SharedMemoryCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
