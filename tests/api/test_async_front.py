"""Tests for the asyncio serving front: coalescing, concurrency, lifecycle."""

from __future__ import annotations

import asyncio

import pytest

from repro.api import (
    ArchiveConfig,
    AsyncRlzArchive,
    CacheSpec,
    DictionarySpec,
    EncodingSpec,
    RlzArchive,
)
from repro.errors import StorageError, StoreClosedError


def _config(cache: CacheSpec | None = None) -> ArchiveConfig:
    return ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
        cache=cache or CacheSpec(),
    )


@pytest.fixture()
def archive_path(tmp_path, gov_small):
    path = tmp_path / "async.rlz"
    RlzArchive.build(gov_small, _config(), path).close()
    return path


def test_get_and_get_many_roundtrip(archive_path, gov_small):
    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            doc_ids = front.archive.doc_ids()
            document = await front.get(doc_ids[0])
            assert document == gov_small.document_by_id(doc_ids[0]).content
            batch = await front.get_many(doc_ids)
            assert batch == [gov_small.document_by_id(d).content for d in doc_ids]

    asyncio.run(main())


def test_duplicate_inflight_gets_are_coalesced(archive_path):
    """N concurrent gets for one document must decode once: the followers
    await the leader's future instead of re-entering the store."""

    async def main():
        front = AsyncRlzArchive.open(archive_path, _config())  # no cache tier
        doc_id = front.archive.doc_ids()[0]
        calls = []
        real_get = front.archive.get

        def counting_get(requested_id):
            calls.append(requested_id)
            return real_get(requested_id)

        front._archive.get = counting_get  # count what reaches the archive
        documents = await asyncio.gather(*(front.get(doc_id) for _ in range(10)))
        assert len(set(documents)) == 1
        assert calls == [doc_id]  # one decode for ten requests
        assert front.stats()["async_coalesced"] == 9
        assert front.stats()["async_requests"] == 10

        # A later (non-overlapping) request decodes again: coalescing is
        # about in-flight duplicates, not a cache.
        await front.get(doc_id)
        assert calls == [doc_id, doc_id]
        await front.close()

    asyncio.run(main())


def test_concurrent_get_many_is_byte_identical(archive_path, gov_small):
    """Several overlapping concurrent get_many batches must all come back
    byte-identical to the corpus (file-handle reads are serialized)."""

    async def main():
        cache = CacheSpec(tier="lru", capacity=8)
        async with AsyncRlzArchive.open(
            archive_path, _config(cache=cache), max_workers=4
        ) as front:
            doc_ids = front.archive.doc_ids()
            batches = [doc_ids, list(reversed(doc_ids)), doc_ids[::2], doc_ids[1::2]]
            results = await asyncio.gather(
                *(front.get_many(batch) for batch in batches for _ in range(3))
            )
            expected = {
                doc_id: gov_small.document_by_id(doc_id).content for doc_id in doc_ids
            }
            for batch, result in zip(
                [batch for batch in batches for _ in range(3)], results
            ):
                assert result == [expected[doc_id] for doc_id in batch]

    asyncio.run(main())


def test_default_front_serves_concurrent_gets_on_one_thread(archive_path, gov_small):
    """A front built without ``max_workers`` decodes on one thread: every
    concurrent get (and an offloaded call) runs there, and all come back
    byte-identical."""
    import threading

    async def main():
        front = AsyncRlzArchive.open(archive_path, _config())
        threads = set()
        real_get = front.archive.get

        def recording_get(doc_id):
            threads.add(threading.get_ident())
            return real_get(doc_id)

        front.archive.get = recording_get
        try:
            doc_ids = front.archive.doc_ids()
            results = await asyncio.gather(*(front.get(doc_id) for doc_id in doc_ids))
            assert results == [gov_small.document_by_id(d).content for d in doc_ids]
            threads.add(await front.offload(threading.get_ident))
        finally:
            await front.close()
        assert len(threads) == 1
        assert threading.get_ident() not in threads

    asyncio.run(main())


def test_gather_fans_out_with_coalescing(archive_path, gov_small):
    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            doc_ids = front.archive.doc_ids()
            log = [doc_ids[0], doc_ids[1], doc_ids[0], doc_ids[2], doc_ids[0]]
            documents = await front.gather(log)
            assert documents == [
                gov_small.document_by_id(doc_id).content for doc_id in log
            ]
            assert front.stats()["async_coalesced"] >= 2

    asyncio.run(main())


def test_errors_propagate_to_leader_and_followers(archive_path):
    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            missing = max(front.archive.doc_ids()) + 1000
            results = await asyncio.gather(
                *(front.get(missing) for _ in range(3)), return_exceptions=True
            )
            assert len(results) == 3
            assert all(isinstance(result, StorageError) for result in results)
            assert not front._inflight  # no stuck futures

    asyncio.run(main())


def test_cancelling_one_client_does_not_poison_the_shared_decode(archive_path):
    """The decode future belongs to the request: cancelling the client that
    started it must leave concurrent clients with the real result."""

    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            doc_id = front.archive.doc_ids()[0]
            real_get = front.archive.get
            started = asyncio.Event()
            loop = asyncio.get_running_loop()

            def slow_get(requested_id):
                loop.call_soon_threadsafe(started.set)
                import time

                time.sleep(0.05)
                return real_get(requested_id)

            front._archive.get = slow_get
            leader = asyncio.ensure_future(front.get(doc_id))
            await started.wait()  # the leader's decode is in flight
            follower = asyncio.ensure_future(front.get(doc_id))
            await asyncio.sleep(0)  # let the follower coalesce
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            assert await follower == real_get(doc_id)
            assert front.stats()["async_coalesced"] == 1

    asyncio.run(main())


def test_cancelled_inflight_future_is_not_reused(archive_path):
    """A cancelled decode future must not satisfy (or poison) later
    requests: get() evicts it from the coalescing map and decodes fresh.

    Regression test: with a saturated pool, a queued decode's executor
    future is cancellable (e.g. by a timeout path); before the fix a new
    request could coalesce onto the cancelled future and fail spuriously.
    """

    async def main():
        async with AsyncRlzArchive.open(
            archive_path, _config(), max_workers=1
        ) as front:
            doc_ids = front.archive.doc_ids()
            release = asyncio.Event()
            real_get = front.archive.get
            calls = []

            def gated_get(requested_id):
                calls.append(requested_id)
                if requested_id == doc_ids[0]:
                    import time

                    while not release.is_set():
                        time.sleep(0.005)
                return real_get(requested_id)

            front._archive.get = gated_get
            # Saturate the single worker, then queue a second decode whose
            # executor future is still cancellable.
            blocker = asyncio.ensure_future(front.get(doc_ids[0]))
            while not calls:
                await asyncio.sleep(0.005)
            victim = asyncio.ensure_future(front.get(doc_ids[1]))
            await asyncio.sleep(0.01)  # let the victim enter the map
            inner = front._inflight[doc_ids[1]]
            assert inner.cancel()  # simulate a timeout path cancelling it
            with pytest.raises(asyncio.CancelledError):
                await victim
            # A new request must not coalesce onto the cancelled future: it
            # evicts the entry and starts a fresh decode.
            retry = asyncio.ensure_future(front.get(doc_ids[1]))
            await asyncio.sleep(0)
            assert front._inflight.get(doc_ids[1]) is not inner
            release.set()  # un-gate the worker so both decodes can run
            assert await retry == real_get(doc_ids[1])
            assert await blocker == real_get(doc_ids[0])
            assert not front._inflight

    asyncio.run(main())


def test_done_callback_does_not_pop_a_replacement_future(archive_path):
    """_on_done must only remove its *own* map entry: after a cancelled
    future is replaced by a fresh decode, the stale callback firing late
    must leave the replacement coalescible."""

    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            doc_id = front.archive.doc_ids()[0]
            # Forge the race directly: a cancelled future sits in the map
            # with its done-callback not yet run.
            loop = asyncio.get_running_loop()
            stale = loop.create_future()
            stale.cancel()
            front._inflight[doc_id] = stale
            document = await front.get(doc_id)  # evicts the cancelled entry
            assert document == front.archive.get(doc_id)
            # Replay the stale callback late: the map entry for doc_id (if
            # any) must not be popped by it.
            replacement = loop.create_future()
            front._inflight[doc_id] = replacement
            if front._inflight.get(doc_id) is stale:  # mirrors _on_done's guard
                del front._inflight[doc_id]
            assert front._inflight[doc_id] is replacement
            del front._inflight[doc_id]

    asyncio.run(main())


def test_timeout_on_one_waiter_leaves_the_decode_usable(archive_path):
    """asyncio.wait_for cancelling a waiting client must not cancel the
    shared decode: a concurrent waiter still gets the document."""

    async def main():
        async with AsyncRlzArchive.open(archive_path, _config()) as front:
            doc_id = front.archive.doc_ids()[0]
            real_get = front.archive.get
            started = asyncio.Event()
            loop = asyncio.get_running_loop()

            def slow_get(requested_id):
                loop.call_soon_threadsafe(started.set)
                import time

                time.sleep(0.1)
                return real_get(requested_id)

            front._archive.get = slow_get
            impatient = asyncio.ensure_future(
                asyncio.wait_for(front.get(doc_id), timeout=0.01)
            )
            await started.wait()
            patient = asyncio.ensure_future(front.get(doc_id))
            await asyncio.sleep(0)
            with pytest.raises(asyncio.TimeoutError):
                await impatient
            assert await patient == real_get(doc_id)
            assert not front._inflight

    asyncio.run(main())


def test_close_is_idempotent_and_fences_requests(archive_path):
    async def main():
        front = AsyncRlzArchive.open(archive_path, _config())
        doc_id = front.archive.doc_ids()[0]
        await front.get(doc_id)
        await front.close()
        await front.close()
        assert front.closed and front.archive.closed
        with pytest.raises(StoreClosedError):
            await front.get(doc_id)
        with pytest.raises(StoreClosedError):
            await front.get_many([doc_id])

    asyncio.run(main())


def test_stats_merge_front_and_archive_counters(archive_path):
    async def main():
        cache = CacheSpec(tier="lru", capacity=8)
        async with AsyncRlzArchive.open(archive_path, _config(cache=cache)) as front:
            doc_ids = front.archive.doc_ids()
            await front.gather(doc_ids[:4] + doc_ids[:4])
            stats = front.stats()
            assert stats["async_requests"] == 8
            assert stats["async_inflight"] == 0
            assert stats["cache_capacity"] == 8
            assert stats["documents"] >= 4

    asyncio.run(main())
