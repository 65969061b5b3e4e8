"""Chaos-injection battery for the serving stack.

Every test drives a *real* client against a *real* server through the
fault-injecting TCP proxy in :mod:`repro.testing.faults` and asserts the
two invariants the fault-tolerance work exists for:

1. **No silent wrong bytes** — a ``get`` either returns the exact
   document or raises a typed :class:`repro.errors.ReproError` (or OS
   error).  Never quietly-corrupted content.
2. **No hangs** — every failure mode resolves in bounded time, via
   deadlines, timeouts or hard connection errors.

Fault classes covered: added latency, connection resets, mid-frame
truncation, wire corruption, blackholes, gate saturation (brownout) and
server-side deadline expiry.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.api import ServeSpec
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServerBusyError,
)
from repro.serve import (
    BackgroundServer,
    ClusterClient,
    Opcode,
    RetryBudget,
    RlzClient,
    protocol,
)
from repro.testing import FaultPlan, FaultProxy


@pytest.fixture()
def live_server(served_archive):
    path, config, _ = served_archive
    with BackgroundServer(path, config) as server:
        yield server


def _expected(collection):
    return {d.doc_id: d.content for d in collection}


def _wait_until(predicate, timeout=5.0, interval=0.02):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Latency: slow networks delay answers but never change them
# ----------------------------------------------------------------------
def test_delay_fault_returns_identical_bytes(live_server, served_archive):
    _, _, collection = served_archive
    expected = _expected(collection)
    host, port = live_server.address
    plan = FaultPlan(delay_seconds=0.02)
    with FaultProxy(host, port, plan) as proxy:
        with RlzClient(proxy.host, proxy.port, timeout=10.0) as client:
            for doc_id in sorted(expected)[:8]:
                assert client.get(doc_id) == expected[doc_id]
        assert proxy.counters.snapshot()["delays"] > 0


# ----------------------------------------------------------------------
# Resets: a storm of ECONNRESETs fails loudly, and service heals
# ----------------------------------------------------------------------
def test_reset_storm_fails_typed_then_heals(live_server, served_archive):
    _, _, collection = served_archive
    expected = _expected(collection)
    doc_id = sorted(expected)[0]
    host, port = live_server.address
    with FaultProxy(host, port) as proxy:
        with RlzClient(
            proxy.host, proxy.port, timeout=2.0, retries=1, retry_delay=0.01
        ) as client:
            assert client.get(doc_id) == expected[doc_id]  # healthy baseline
            proxy.plan = FaultPlan(reset_probability=1.0)
            started = time.monotonic()
            with pytest.raises((ConnectionError, OSError)):
                client.get(doc_id)
            assert time.monotonic() - started < 10.0
            assert proxy.counters.snapshot()["resets"] >= 1
            proxy.plan = FaultPlan()  # heal
            assert client.get(doc_id) == expected[doc_id]


# ----------------------------------------------------------------------
# Truncation: responses cut mid-frame are framing errors, not bad bytes
# ----------------------------------------------------------------------
def test_midframe_truncation_is_a_typed_error(live_server, served_archive):
    _, _, collection = served_archive
    doc_id = sorted(_expected(collection))[0]
    host, port = live_server.address
    # 20 bytes lets the 6-byte handshake reply through, then cuts every
    # document response off mid-frame.
    plan = FaultPlan(truncate_after_bytes=20)
    with FaultProxy(host, port, plan) as proxy:
        with RlzClient(
            proxy.host, proxy.port, timeout=2.0, retries=1, retry_delay=0.01
        ) as client:
            started = time.monotonic()
            with pytest.raises((ConnectionError, ProtocolError, OSError)):
                client.get(doc_id)
            assert time.monotonic() - started < 10.0
        assert proxy.counters.snapshot()["truncations"] >= 1


# ----------------------------------------------------------------------
# Corruption: flipped wire bytes are caught by the frame CRC, always
# ----------------------------------------------------------------------
def test_wire_corruption_never_yields_wrong_bytes(live_server, served_archive):
    _, _, collection = served_archive
    expected = _expected(collection)
    ids = sorted(expected)[:8]
    host, port = live_server.address
    plan = FaultPlan(corrupt_probability=1.0)
    with FaultProxy(host, port, plan, seed=7) as proxy:
        errors = 0
        with RlzClient(
            proxy.host, proxy.port, timeout=0.5, retries=0
        ) as client:
            for doc_id in ids:
                try:
                    document = client.get(doc_id)
                except (ReproError, OSError):
                    errors += 1
                else:
                    # A response that survives must be byte-identical:
                    # the CRC trailer leaves no silent-corruption path.
                    assert document == expected[doc_id]
        assert errors >= 1
        assert proxy.counters.snapshot()["corruptions"] >= 1


# ----------------------------------------------------------------------
# Blackhole: a peer that goes dark hits the deadline, not a hang
# ----------------------------------------------------------------------
def test_blackhole_bounded_by_deadline(live_server, served_archive):
    _, _, collection = served_archive
    expected = _expected(collection)
    doc_id = sorted(expected)[0]
    host, port = live_server.address
    with FaultProxy(host, port) as proxy:
        with RlzClient(proxy.host, proxy.port, timeout=30.0, retries=0) as client:
            assert client.get(doc_id) == expected[doc_id]  # healthy baseline
            proxy.plan = FaultPlan(blackhole=True)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.get(doc_id, deadline_ms=300)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0  # bounded by the deadline, not the 30s timeout


# ----------------------------------------------------------------------
# Server-side deadline enforcement: expired work is dropped pre-decode
# ----------------------------------------------------------------------
def test_expired_deadline_rejected_without_decoding(served_archive, wire):
    """A request whose deadline dies in the gate queue gets R_TIMEOUT
    *without* the server ever decoding for it.

    Driven over a raw socket: a deadline-aware client gives up (and
    hangs up) on its own at the deadline, and the server drops the work
    of a vanished peer — the raw socket stays open to observe the
    server-side rejection itself.
    """
    path, config, collection = served_archive
    doc_id = sorted(_expected(collection))[0]
    config = dataclasses.replace(config, serve=ServeSpec(max_inflight=1))
    with BackgroundServer(path, config) as server:
        host, port = server.address
        front = server._server.front
        real_get = front.get
        decodes = []

        async def slow_get(requested):
            decodes.append(requested)
            import asyncio

            await asyncio.sleep(0.4)
            return await real_get(requested)

        front.get = slow_get
        try:
            holder_error = []

            def hold_gate():
                try:
                    with RlzClient(host, port, timeout=10.0) as holder:
                        holder.get(doc_id)
                except BaseException as exc:  # surface in the main thread
                    holder_error.append(exc)

            thread = threading.Thread(target=hold_gate, daemon=True)
            thread.start()
            # Wait until the holder's decode is in flight (gate held)...
            assert _wait_until(lambda: len(decodes) == 1)
            # ...then race a 100 ms-deadline request against a ~400 ms gate
            # wait.  It queues (the queue is not full, so no R_BUSY), its
            # deadline expires while waiting, and the post-gate re-check
            # must answer R_TIMEOUT without touching the archive.
            raw = wire.dial(host, port)
            try:
                raw.send(Opcode.GET, 1, protocol.pack_doc_id(doc_id), deadline_ms=100)
                opcode, request_id, _payload = raw.read()
            finally:
                raw.close()
            assert opcode == Opcode.R_TIMEOUT
            assert request_id == 1
            thread.join(timeout=10.0)
            assert not holder_error
            assert server.stats().get("server_deadline_rejections", 0) >= 1
            assert len(decodes) == 1  # the expired request never reached the archive
        finally:
            front.get = real_get


# ----------------------------------------------------------------------
# Brownout: the retry budget caps retry volume against a saturated gate
# ----------------------------------------------------------------------
def test_retry_budget_caps_brownout_retries(served_archive):
    path, config, collection = served_archive
    doc_id = sorted(_expected(collection))[0]
    config = dataclasses.replace(config, serve=ServeSpec(max_inflight=1))
    with BackgroundServer(path, config) as server:
        host, port = server.address
        front = server._server.front
        real_get = front.get
        import asyncio

        release = asyncio.Event()
        decodes = []

        async def stuck_get(requested):
            decodes.append(requested)
            await release.wait()
            return await real_get(requested)

        front.get = stuck_get
        try:
            occupants = [
                RlzClient(host, port, timeout=30.0, busy_retries=0, retries=0)
                for _ in range(2)
            ]
            threads = [
                threading.Thread(target=client.get, args=(doc_id,), daemon=True)
                for client in occupants
            ]
            # One request holds the gate, one fills the queue: every
            # further request is shed with R_BUSY.
            threads[0].start()
            assert _wait_until(lambda: len(decodes) == 1)
            threads[1].start()
            assert _wait_until(
                lambda: server.stats().get("server_queue_depth", 1) >= 1
                or True  # the waiter has no decode marker; give it a beat
            )
            time.sleep(0.2)

            budget = RetryBudget(capacity=3, refill_rate=0.0)
            with RlzClient(
                host,
                port,
                timeout=5.0,
                retries=0,
                busy_retries=50,
                retry_delay=0.001,
                retry_budget=budget,
            ) as client:
                with pytest.raises(ServerBusyError, match="retry budget"):
                    client.get(doc_id)
            # 50 busy-retries were allowed, but the budget stopped it at 3.
            assert budget.spent == 3
            assert budget.denied >= 1
            assert server.stats()["server_busy_rejections"] >= 4
        finally:
            server._loop.call_soon_threadsafe(release.set)
            for thread in threads:
                thread.join(timeout=10.0)
            for client in occupants:
                client.close()
            front.get = real_get


# ----------------------------------------------------------------------
# Hedging: a slow shard is masked by racing the next replica
# ----------------------------------------------------------------------
def test_hedged_get_masks_a_slow_shard(served_archive):
    path, config, collection = served_archive
    expected = _expected(collection)
    with BackgroundServer(path, config) as slow_server, BackgroundServer(
        path, config
    ) as fast_server:
        slow_host, slow_port = slow_server.address
        plan = FaultPlan(delay_seconds=0.3)
        with FaultProxy(slow_host, slow_port, plan) as proxy:
            fast_host, fast_port = fast_server.address
            endpoints = [proxy.address, f"{fast_host}:{fast_port}"]
            with ClusterClient(
                endpoints, hedge_delay=0.05, timeout=10.0
            ) as cluster:
                for doc_id in sorted(expected):
                    assert cluster.get(doc_id) == expected[doc_id]
                # Some documents hash to the proxied (slow) shard; each of
                # those must have fired a hedge, and the fast replica must
                # have won at least once.
                assert cluster.hedges > 0
                assert cluster.hedge_wins > 0
