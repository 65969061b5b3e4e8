"""Cluster layer: shard map stability, breakers, fan-out, failover.

The contract under test: a :class:`ClusterClient` over N replicas is
byte-for-byte indistinguishable from one archive — including while a
shard is dying mid-run — and the consistent-hash routing only remaps the
documents a removed endpoint owned.  The live-replica tests run under
both drivers of the one cluster policy (``ClusterClient`` and
``AsyncClusterClient``).
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.errors import (
    ConfigurationError,
    ServerBusyError,
    StorageError,
    StoreClosedError,
)
from repro.serve import BackgroundServer, CircuitBreaker, ClusterClient, ShardMap


@pytest.fixture(params=["sync", "async"])
def driver(request, async_view_bridge):
    """``make(endpoints, **options) -> (view, policy)`` for one cluster
    driver: :class:`ClusterClient`, or :class:`AsyncClusterClient` behind
    the shared sync bridge.  ``policy`` is the client object itself, for
    introspection (failovers, breakers, endpoint clients)."""
    made = []

    def make(endpoints, **options):
        if request.param == "sync":
            view = ClusterClient(endpoints, **options)
            policy = view
        else:
            view = async_view_bridge(endpoints, **options)
            policy = view._client
        made.append(view)
        return view, policy

    yield make
    for view in made:
        view.close()


@pytest.fixture(scope="module")
def cluster(served_archive):
    """Two live replicas of the same archive plus their endpoint labels."""
    path, config, collection = served_archive
    servers = [BackgroundServer(path, config) for _ in range(2)]
    endpoints = []
    for server in servers:
        host, port = server.start()
        endpoints.append(f"{host}:{port}")
    yield endpoints, collection, servers
    for server in servers:
        try:
            server.stop()
        except Exception:
            pass


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
def test_shard_map_routes_every_endpoint_exactly_once():
    shard_map = ShardMap(["a:1", "b:2", "c:3"], virtual_nodes=16)
    for doc_id in range(200):
        route = shard_map.route(doc_id)
        assert sorted(route) == ["a:1", "b:2", "c:3"]
        assert route[0] == shard_map.primary(doc_id)


def test_shard_map_is_independent_of_endpoint_order():
    doc_ids = range(500)
    forward = ShardMap(["a:1", "b:2", "c:3"])
    for permutation in itertools.permutations(["a:1", "b:2", "c:3"]):
        shuffled = ShardMap(list(permutation))
        assert all(
            forward.primary(doc_id) == shuffled.primary(doc_id)
            for doc_id in doc_ids
        )


def test_shard_map_balances_roughly():
    endpoints = [f"host{i}:70{i:02d}" for i in range(4)]
    shard_map = ShardMap(endpoints, virtual_nodes=128)
    counts = {label: 0 for label in endpoints}
    total = 4000
    for doc_id in range(total):
        counts[shard_map.primary(doc_id)] += 1
    for label, count in counts.items():
        assert total * 0.10 <= count <= total * 0.45, counts


def test_shard_map_removal_only_remaps_the_removed_endpoints_documents():
    """The consistent-hashing guarantee: dropping one endpoint leaves every
    other endpoint's documents exactly where they were."""
    full = ShardMap(["a:1", "b:2", "c:3"], virtual_nodes=64)
    without_c = ShardMap(["a:1", "b:2"], virtual_nodes=64)
    moved = 0
    for doc_id in range(2000):
        before = full.primary(doc_id)
        after = without_c.primary(doc_id)
        if before == "c:3":
            moved += 1
            assert after in ("a:1", "b:2")
        else:
            assert after == before, doc_id
    assert moved > 0  # c owned something


def test_shard_map_failover_order_is_the_ring_walk():
    shard_map = ShardMap(["a:1", "b:2", "c:3"], virtual_nodes=32)
    smaller = ShardMap(["a:1", "b:2"], virtual_nodes=32)
    for doc_id in range(300):
        route = shard_map.route(doc_id)
        if route[0] == "c:3":
            # With c gone, the doc lands on its first failover.
            assert smaller.primary(doc_id) == route[1]


def test_shard_map_validation():
    with pytest.raises(ConfigurationError):
        ShardMap([])
    with pytest.raises(ConfigurationError):
        ShardMap(["a:1", "a:1"])
    with pytest.raises(ConfigurationError):
        ShardMap(["a:1"], virtual_nodes=0)


def test_shard_map_assignments_group_in_order():
    shard_map = ShardMap(["a:1", "b:2"], virtual_nodes=32)
    doc_ids = list(range(50))
    groups = shard_map.assignments(doc_ids)
    assert sorted(sum(groups.values(), [])) == doc_ids
    for label, ids in groups.items():
        assert ids == [d for d in doc_ids if shard_map.primary(d) == label]


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_trips_after_consecutive_failures_and_cools_down():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=lambda: clock[0])
    assert breaker.state == "closed"
    for _ in range(2):
        breaker.record_failure()
    assert breaker.allow()  # two failures: still closed
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.trips == 1
    clock[0] = 4.9
    assert not breaker.allow()
    clock[0] = 5.1
    assert breaker.state == "half-open"
    # allow() is a pure query: routing layers may probe it repeatedly
    # without consuming the half-open trial.
    assert breaker.allow() and breaker.allow()
    breaker.record_failure()     # trial failed: re-open
    assert breaker.state == "open"
    assert not breaker.allow()
    clock[0] = 11.0
    assert breaker.allow()
    breaker.record_success()     # trial worked: closed again
    assert breaker.state == "closed"
    assert breaker.allow() and breaker.allow()


def test_breaker_success_resets_the_failure_streak():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"  # never two in a row


def test_breaker_validation():
    with pytest.raises(ConfigurationError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(cooldown=-1)


def test_breaker_half_open_admits_exactly_one_trial_under_contention():
    """Many threads racing try_trial() on a half-open breaker: one wins.

    Two concurrent probes hitting a barely-recovered endpoint is how
    half-open states re-kill it, so the exactly-one guarantee has to hold
    under real contention, not just sequentially.
    """
    import threading

    clock = [0.0]
    breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=lambda: clock[0])
    breaker.record_failure()
    clock[0] = 2.0  # cooldown elapsed: half-open
    assert breaker.state == "half-open"

    barrier = threading.Barrier(16)
    admitted = []
    admitted_lock = threading.Lock()

    def probe():
        barrier.wait()
        if breaker.try_trial():
            with admitted_lock:
                admitted.append(threading.get_ident())

    threads = [threading.Thread(target=probe) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert len(admitted) == 1

    # While the probe is unresolved, everyone else keeps being refused...
    assert not breaker.try_trial()
    # ...an inconclusive outcome hands the slot to the next prober...
    breaker.release_trial()
    assert breaker.try_trial()
    # ...and a successful probe closes the breaker for all.
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.try_trial() and breaker.try_trial()


# ----------------------------------------------------------------------
# ClusterClient against live replicas
# ----------------------------------------------------------------------
def test_cluster_get_and_get_many_preserve_order_across_shards(cluster, driver):
    endpoints, collection, _ = cluster
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    client, policy = driver(endpoints, retries=1, retry_delay=0.01)
    # Both shards own some documents (otherwise the test is vacuous).
    owners = {policy.shard_map.primary(doc_id) for doc_id in ids}
    assert owners == set(endpoints)
    for doc_id in ids[:5]:
        assert client.get(doc_id) == expected[doc_id]
    request = list(reversed(ids)) + ids[:4] + [ids[0]] * 3
    assert client.get_many(request) == [expected[i] for i in request]
    assert client.get_many([]) == []


def test_cluster_iter_documents_merges_to_store_order(cluster):
    endpoints, collection, _ = cluster
    with ClusterClient(endpoints, retries=1, retry_delay=0.01) as client:
        items = list(client.iter_documents())
        assert [doc_id for doc_id, _ in items] == client.doc_ids()
        assert dict(items) == {d.doc_id: d.content for d in collection}


def test_cluster_archive_errors_pass_through_not_failover(cluster, driver):
    endpoints, collection, _ = cluster
    client, policy = driver(endpoints, retries=1, retry_delay=0.01)
    missing = max(d.doc_id for d in collection) + 31337
    with pytest.raises(StorageError):
        client.get(missing)
    with pytest.raises(StorageError):
        client.get_many([next(iter(collection)).doc_id, missing])
    assert policy.failovers == 0  # an answer, not a failure


def test_cluster_stats_flat_and_numeric(cluster):
    endpoints, collection, _ = cluster
    with ClusterClient(endpoints, retries=1, retry_delay=0.01) as client:
        client.get(next(iter(collection)).doc_id)
        stats = client.stats()
        assert stats["cluster_endpoints"] == 2
        for key, value in stats.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float)), key
        assert client.ping() < 30


def test_cluster_close_fences(cluster):
    endpoints, collection, _ = cluster
    client = ClusterClient(endpoints, retries=1, retry_delay=0.01)
    doc_id = next(iter(collection)).doc_id
    assert client.get(doc_id)
    client.close()
    client.close()
    assert client.closed
    with pytest.raises(StoreClosedError):
        client.get(doc_id)
    with pytest.raises(StoreClosedError):
        client.get_many([doc_id])


def test_cluster_validation():
    with pytest.raises(ConfigurationError):
        ClusterClient(["not-an-endpoint"])
    with pytest.raises(ConfigurationError):
        ClusterClient([])


# ----------------------------------------------------------------------
# Failover: kill a shard mid-run, results stay byte-identical
# ----------------------------------------------------------------------
def test_failover_reroute_is_byte_identical(served_archive):
    path, config, collection = served_archive
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    request = ids * 2
    survivor = BackgroundServer(path, config)
    victim = BackgroundServer(path, config)
    endpoints = []
    for server in (survivor, victim):
        host, port = server.start()
        endpoints.append(f"{host}:{port}")
    try:
        with ClusterClient(
            endpoints, retries=0, retry_delay=0.01, breaker_cooldown=0.2
        ) as client:
            before = client.get_many(request)
            assert before == [expected[i] for i in request]
            assert client.failovers == 0
            victim.stop()  # a shard dies mid-run
            after = client.get_many(request)
            assert after == before  # byte-identical through the failover
            assert client.failovers > 0
            # Per-document gets fail over too (and trip the breaker so
            # later requests skip the corpse).
            victim_label = endpoints[1]
            victim_docs = [
                doc_id for doc_id in ids
                if client.shard_map.primary(doc_id) == victim_label
            ]
            assert victim_docs, "the dead shard owned nothing"
            for doc_id in victim_docs[:4]:
                assert client.get(doc_id) == expected[doc_id]
            assert dict(client.iter_documents()) == expected
            stats = client.stats()
            down = [
                index for index in range(2)
                if stats[f"shard{index}_reachable"] == 0
            ]
            assert down == [1]
    finally:
        survivor.stop()
        try:
            victim.stop()
        except Exception:
            pass


def test_failover_mid_scan_is_byte_identical(served_archive):
    """A shard that dies before (or while) its scan stream runs has its
    documents re-scanned from the replica, with the merged output still in
    exact store order."""
    path, config, collection = served_archive
    expected = {d.doc_id: d.content for d in collection}
    survivor = BackgroundServer(path, config)
    victim = BackgroundServer(path, config)
    endpoints = []
    for server in (survivor, victim):
        host, port = server.start()
        endpoints.append(f"{host}:{port}")
    try:
        with ClusterClient(
            endpoints, retries=0, retry_delay=0.01, breaker_cooldown=0.2
        ) as client:
            victim_label = endpoints[1]
            order = client.doc_ids()
            victim_owned = [
                doc_id for doc_id in order
                if client.shard_map.primary(doc_id) == victim_label
            ]
            assert victim_owned, "the dead shard owned nothing"
            # The per-shard streams dial lazily: killing the victim now
            # means its stream dies on first use, mid-iteration, and the
            # tail re-routes to the survivor.
            stream = client.iter_documents()
            victim.stop()
            items = list(stream)
            assert [doc_id for doc_id, _ in items] == order
            assert dict(items) == expected
            assert client.failovers > 0
    finally:
        survivor.stop()
        try:
            victim.stop()
        except Exception:
            pass


def test_all_shards_down_raises_the_connection_error(served_archive, driver):
    path, config, collection = served_archive
    server = BackgroundServer(path, config)
    host, port = server.start()
    endpoint = f"{host}:{port}"
    client, _ = driver([endpoint], retries=0, retry_delay=0.01)
    doc_id = next(iter(collection)).doc_id
    assert client.get(doc_id)
    server.stop()
    with pytest.raises((ConnectionError, OSError)):
        client.get(doc_id)
    with pytest.raises((ConnectionError, OSError)):
        client.get_many([doc_id])


# ----------------------------------------------------------------------
# Review regressions: busy re-route, breaker purity, window scoping
# ----------------------------------------------------------------------
def test_sustained_busy_reroutes_without_tripping_the_breaker(cluster, driver):
    """A shard answering R_BUSY past the retry budget is saturated, not
    dead: get_many must re-route its batch to the replica and leave the
    breaker closed so the shard returns to rotation immediately — under
    both drivers."""
    endpoints, collection, _ = cluster
    expected = {d.doc_id: d.content for d in collection}
    ids = sorted(expected)
    client, policy = driver(endpoints, retries=1, retry_delay=0.01)
    saturated = endpoints[0]
    shard = policy._clients[saturated]

    def always_busy(*args, **kwargs):
        raise ServerBusyError("server still busy after 8 retries")

    async def always_busy_async(*args, **kwargs):
        always_busy()

    if isinstance(policy, ClusterClient):
        busy, batch_call = always_busy, "pipelined_get"  # the sync batch path
    else:
        busy, batch_call = always_busy_async, "get_many"
    setattr(shard, batch_call, busy)
    try:
        request = list(reversed(ids)) + ids[:3]
        for _ in range(3):  # as many busy batches as it takes to trip
            assert client.get_many(request) == [expected[i] for i in request]
        assert policy.failovers > 0
        assert policy.breaker(saturated).state == "closed"  # not tripped
        # get() path: the saturated primary is skipped the same way.
        owned = [d for d in ids if policy.shard_map.primary(d) == saturated]
        assert owned, "the saturated shard owned nothing"
        shard.get = busy
        assert client.get(owned[0]) == expected[owned[0]]
        assert policy.breaker(saturated).state == "closed"
    finally:
        shard.__dict__.pop(batch_call, None)
        shard.__dict__.pop("get", None)


def test_breaker_filtering_does_not_consume_the_half_open_trial(cluster):
    """_candidates probes every breaker on every request; those probes
    must not eat the half-open trial slot or a recovered endpoint would
    stay excluded forever."""
    endpoints, collection, _ = cluster
    with ClusterClient(
        endpoints, retries=1, retry_delay=0.01, breaker_cooldown=0.05
    ) as client:
        breaker = client.breaker(endpoints[0])
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.08)
        # Many pure route-ordering probes...
        for doc_id in range(50):
            client._candidates(doc_id)
        # ...and the endpoint is still allowed for the actual request.
        assert breaker.allow()
        doc_id = next(iter(collection)).doc_id
        assert client.get(doc_id)  # a success closes it again
        assert breaker.state in ("closed", "half-open")


def test_hedge_backstop_leaves_a_fired_legs_half_open_trial_alone(cluster):
    """After a hedged get's legs fail over, the sequential backstop walks
    only the endpoints no leg reached: it must not claim (and then never
    resolve) the half-open probe of an endpoint a leg already tried."""
    endpoints, collection, _ = cluster
    doc_id = next(iter(collection)).doc_id
    with ClusterClient(
        endpoints, hedge_delay=5.0, retries=0, retry_delay=0.01, breaker_cooldown=0.05
    ) as client:
        primary = client._candidates(doc_id)[0]
        breaker = client.breaker(primary)
        for _ in range(3):
            breaker.record_failure()
        time.sleep(0.08)
        assert breaker.state == "half-open"

        def busy(*args, **kwargs):
            raise ServerBusyError("server still busy after 8 retries")

        client._clients[primary].get = busy  # the primary leg fails over at once
        assert client.get(doc_id) == collection.document_by_id(doc_id).content
        assert client.failovers == 1
        assert breaker.try_trial()  # the probe is still free


def test_pipelined_window_override_does_not_stick(cluster):
    endpoints, collection, _ = cluster
    ids = sorted(d.doc_id for d in collection)
    with ClusterClient(
        endpoints, retries=1, retry_delay=0.01, pipeline_window=32
    ) as client:
        client.pipelined_get(ids[:6], window=1)
        assert client._pipeline_window == 32  # per-call, not sticky
