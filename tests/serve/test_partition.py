"""Partitioned archives: builds, epochs, live rebalancing and chaos.

The invariants under test, end to end:

* each shard's container holds *only* the doc ids its arc of the
  consistent-hash ring owns — never a stale copy of someone else's;
* the ``SHARD_MAP`` / ``R_WRONG_SHARD`` frames round-trip exactly;
* adding a shard to the ring only remaps the documents the new shard
  takes — every other document keeps its old owner (the consistent-
  hashing contract an epoch bump relies on);
* a four-way partitioned fleet is byte-identical to the single local
  archive it was built from, through ``ClusterClient``;
* a live rebalance under concurrent reads completes with zero failed
  requests, clients cut over via pushed epochs (``R_WRONG_SHARD`` →
  refresh → retry, no restart), donors then refuse the moved arc, and
  every container on disk again holds only owned ids;
* a rebalance landing mid-scan re-plans the rest of a fleet-wide
  ``iter_documents`` against the new owners, in exact store order;
* killing the donor's link mid-rebalance (``FaultProxy``) leaves the
  recipient's staged sidecar intact: a re-run resumes from the last
  acked doc id and the final fleet serves byte-identical documents.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    ArchiveConfig,
    DictionarySpec,
    EncodingSpec,
    PartitionSpec,
    RlzArchive,
)
from repro.errors import ReproError, WrongShardError
from repro.serve import (
    BackgroundServer,
    ClusterClient,
    RlzClient,
    ShardMap,
    build_partitioned_archives,
    rebalance,
    write_spare_shard,
)
from repro.serve import protocol
from repro.storage import RlzStore
from repro.storage.partition import read_manifest
from repro.testing.faults import FaultPlan, FaultProxy


def make_config() -> ArchiveConfig:
    return ArchiveConfig(
        dictionary=DictionarySpec(size=32 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZV"),
    )


def _partition_config(shards: int) -> ArchiveConfig:
    config = make_config()
    return ArchiveConfig(
        dictionary=config.dictionary,
        encoding=config.encoding,
        partition=PartitionSpec(shards=shards),
    )


# ----------------------------------------------------------------------
# Wire frames
# ----------------------------------------------------------------------
def test_shard_map_frame_round_trips():
    labels = ["shard0@10.0.0.1:7000", "shard1@10.0.0.2:7000", "spare"]
    payload = protocol.pack_shard_map(7, labels, 128)
    assert protocol.unpack_shard_map(payload) == (7, labels, 128)


def test_shard_map_frame_empty_map():
    assert protocol.unpack_shard_map(protocol.pack_shard_map(0, [], 1)) == (0, [], 1)


def test_wrong_shard_frame_round_trips():
    payload = protocol.pack_wrong_shard(3, 41)
    assert protocol.unpack_wrong_shard(payload) == (3, 41)


# ----------------------------------------------------------------------
# Ring semantics
# ----------------------------------------------------------------------
def test_ring_id_and_transport_split():
    assert ShardMap.ring_id("shard0@10.0.0.1:7000") == "shard0"
    assert ShardMap.transport("shard0@10.0.0.1:7000") == "10.0.0.1:7000"
    assert ShardMap.ring_id("10.0.0.1:7000") == "10.0.0.1:7000"
    assert ShardMap.transport("10.0.0.1:7000") == "10.0.0.1:7000"


def test_placement_ignores_transport():
    """Moving a shard to a new host must not remap a single document."""
    before = ShardMap(["a@h1:1", "b@h2:2", "c@h3:3"])
    after = ShardMap(["a@h9:9", "b@h2:2", "c@h3:3"])
    for doc_id in range(500):
        assert ShardMap.ring_id(before.primary(doc_id)) == ShardMap.ring_id(
            after.primary(doc_id)
        )


def test_epoch_bump_adding_a_shard_only_remaps_its_arc():
    old = ShardMap(["shard0", "shard1", "shard2"], epoch=1)
    new = ShardMap(["shard0", "shard1", "shard2", "shard3"], epoch=2)
    assert new.epoch == old.epoch + 1
    moved = 0
    for doc_id in range(2000):
        if new.primary(doc_id) == "shard3":
            moved += 1
        else:
            # Everything the new shard does not take stays put.
            assert new.primary(doc_id) == old.primary(doc_id)
    # The new shard takes a real arc, roughly 1/4 of the space.
    assert 0 < moved < 2000 // 2


# ----------------------------------------------------------------------
# Partitioned builds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def partitioned(tmp_path_factory, gov_small):
    """A 4-way shared-dictionary partition of the module's collection."""
    directory = tmp_path_factory.mktemp("partition")
    paths = build_partitioned_archives(gov_small, _partition_config(4), directory)
    return paths, gov_small


def test_each_shard_holds_only_owned_doc_ids(partitioned):
    paths, collection = partitioned
    ring = ShardMap(list(paths), epoch=1)
    expected = {ring_id: set() for ring_id in paths}
    for document in collection:
        expected[ring.primary(document.doc_id)].add(document.doc_id)
    seen = set()
    for ring_id, path in paths.items():
        store = RlzStore.open(path)
        held = set(store.doc_ids())
        assert held == expected[ring_id], ring_id
        assert not (held & seen)  # pairwise disjoint: stored exactly once
        seen |= held
        manifest = read_manifest(path)
        assert manifest.epoch == 1
        assert manifest.shard == ring_id
        assert set(manifest.shards) == set(paths)
        assert list(manifest.doc_order) == [d.doc_id for d in collection]
    assert seen == {d.doc_id for d in collection}


def test_shards_decode_byte_identical(partitioned):
    paths, collection = partitioned
    ring = ShardMap(list(paths), epoch=1)
    for ring_id, path in paths.items():
        with RlzArchive.open(path, make_config()) as shard:
            for doc_id in shard.doc_ids():
                assert ring.primary(doc_id) == ring_id
                assert shard.get(doc_id) == collection.document_by_id(doc_id).content


def test_per_shard_dictionary_build(tmp_path, gov_small):
    config = ArchiveConfig(
        dictionary=make_config().dictionary,
        encoding=make_config().encoding,
        partition=PartitionSpec(shards=2, shared_dictionary=False),
    )
    paths = build_partitioned_archives(gov_small, config, tmp_path)
    recovered = {}
    for path in paths.values():
        with RlzArchive.open(path, make_config()) as shard:
            for doc_id in shard.doc_ids():
                recovered[doc_id] = shard.get(doc_id)
    assert recovered == {d.doc_id: d.content for d in gov_small}


def test_spare_shard_is_empty_and_joining(tmp_path, partitioned):
    paths, _ = partitioned
    source = next(iter(paths.values()))
    spare = write_spare_shard(source, tmp_path / "spare.rlz", "spare")
    store = RlzStore.open(spare)
    assert store.doc_ids() == []
    manifest = read_manifest(spare)
    assert manifest.shard == "spare"
    assert "spare" not in manifest.shards  # joining: owns nothing yet
    assert manifest.doc_order == read_manifest(source).doc_order


# ----------------------------------------------------------------------
# Partitioned serving
# ----------------------------------------------------------------------
def _serve_fleet(paths):
    servers, endpoints = [], []
    for ring_id, path in paths.items():
        server = BackgroundServer(path, make_config())
        host, port = server.start()
        servers.append(server)
        endpoints.append(f"{ring_id}@{host}:{port}")
    return servers, endpoints


def test_partitioned_fleet_matches_local_archive(partitioned):
    paths, collection = partitioned
    servers, endpoints = _serve_fleet(paths)
    try:
        with ClusterClient(endpoints, retries=0, retry_delay=0.01) as client:
            order = [d.doc_id for d in collection]
            assert client.doc_ids() == order
            for document in collection:
                assert client.get(document.doc_id) == document.content
            request = list(reversed(order)) + order[:2]
            assert client.get_many(request) == [
                collection.document_by_id(d).content for d in request
            ]
            assert list(client.iter_documents()) == [
                (d.doc_id, d.content) for d in collection
            ]
            assert client.epoch == 1  # bootstrapped from SHARD_MAP
    finally:
        for server in servers:
            server.stop()


def test_server_refuses_unowned_doc_ids(partitioned):
    paths, collection = partitioned
    ring = ShardMap(list(paths), epoch=1)
    some_shard = next(iter(paths))
    unowned = next(
        d.doc_id
        for d in collection
        if ring.primary(d.doc_id) != some_shard
    )
    with BackgroundServer(paths[some_shard], make_config()) as server:
        with RlzClient(*server.address) as client:
            with pytest.raises(WrongShardError) as info:
                client.get(unowned)
            assert info.value.epoch == 1
            with pytest.raises(WrongShardError):
                client.get_many([unowned])


# ----------------------------------------------------------------------
# Live rebalancing
# ----------------------------------------------------------------------
def test_live_rebalance_zero_failed_reads(tmp_path, gov_small):
    paths = build_partitioned_archives(gov_small, _partition_config(2), tmp_path)
    spare = write_spare_shard(
        next(iter(paths.values())), tmp_path / "shard2.rlz", "shard2"
    )
    paths["shard2"] = spare
    servers, endpoints = _serve_fleet(paths)
    contents = {d.doc_id: d.content for d in gov_small}
    try:
        failures = []
        reads = [0]
        final_stats = {}
        stop = threading.Event()

        def reader():
            with ClusterClient(endpoints[:2], retry_delay=0.01) as client:
                while not stop.is_set():
                    for doc_id, expected in contents.items():
                        try:
                            if client.get(doc_id) != expected:
                                failures.append((doc_id, "bytes differ"))
                        except Exception as exc:  # noqa: BLE001 - tallied
                            failures.append((doc_id, repr(exc)))
                        reads[0] += 1
                # One full post-cutover sweep: every read now crosses the
                # new map (donors refuse the moved arc, pushing the epoch).
                for doc_id, expected in contents.items():
                    try:
                        if client.get(doc_id) != expected:
                            failures.append((doc_id, "bytes differ"))
                    except Exception as exc:  # noqa: BLE001 - tallied
                        failures.append((doc_id, repr(exc)))
                    reads[0] += 1
                final_stats.update(client.stats())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            report = rebalance(endpoints[:2], to=endpoints[2], batch_docs=4)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not failures, failures[:5]
        assert reads[0] > 0
        assert report.epoch == 2
        assert report.moved > 0
        assert len(report.shards) == 3
        # The client cut over via the pushed epoch, not a restart: it
        # started with the two old endpoints and ended on the new map.
        assert final_stats["cluster_epoch"] == 2
        assert final_stats["cluster_epoch_refreshes"] >= 1

        # Donors now refuse the moved arc with the new epoch.
        new_ring = ShardMap([ShardMap.ring_id(s) for s in report.shards], epoch=2)
        moved = [d for d in contents if new_ring.primary(d) == "shard2"]
        donor_label = next(e for e in endpoints if e.startswith("shard0@"))
        host, port = ShardMap.transport(donor_label).rsplit(":", 1)
        donor_moved = [
            d for d in moved if ShardMap(["shard0", "shard1"]).primary(d) == "shard0"
        ]
        if donor_moved:
            with RlzClient(host, int(port)) as direct:
                with pytest.raises(WrongShardError) as info:
                    direct.get(donor_moved[0])
                assert info.value.epoch == 2
    finally:
        for server in servers:
            server.stop()

    # On disk, every container again holds only owned ids — committed,
    # not overlayed: the rebalance sidecar is gone.
    new_ring = ShardMap(["shard0", "shard1", "shard2"], epoch=2)
    for ring_id, path in paths.items():
        store = RlzStore.open(path)
        assert set(store.doc_ids()) == {
            d for d in contents if new_ring.primary(d) == ring_id
        }, ring_id
        assert read_manifest(path).epoch == 2
        assert not path.with_name(path.name + ".rebalance").exists()


def test_iter_documents_replans_across_a_mid_scan_rebalance(tmp_path, gov_small):
    """A rebalance lands while a fleet scan is open: the donor's stream is
    refused with ``R_WRONG_SHARD`` and the scan re-plans against the new
    map, the donor included for the arc it keeps."""
    paths = build_partitioned_archives(gov_small, _partition_config(2), tmp_path)
    paths["shard2"] = write_spare_shard(
        next(iter(paths.values())), tmp_path / "shard2.rlz", "shard2"
    )
    servers, endpoints = _serve_fleet(paths)
    order = [d.doc_id for d in gov_small]
    old_ring = ShardMap(["shard0", "shard1"])
    new_ring = ShardMap(["shard0", "shard1", "shard2"], epoch=2)

    def sheds_and_keeps(ring_id):
        # Past its first document, the donor both loses and keeps some.
        rest = [d for d in order if old_ring.primary(d) == ring_id][1:]
        owners = {new_ring.primary(d) for d in rest}
        return {"shard2", ring_id} <= owners

    donors = [ring_id for ring_id in ("shard0", "shard1") if sheds_and_keeps(ring_id)]
    assert donors, "collection too small to split a donor's scan"
    donor_label = next(e for e in endpoints if e.startswith(f"{donors[0]}@"))
    try:
        with ClusterClient(endpoints[:2], retries=0, retry_delay=0.01) as client:
            shard = client._clients[donor_label]
            real_scan = shard.scan

            def scan_across_a_rebalance(doc_ids):
                shard.scan = real_scan  # only this first scan is interrupted
                yield from real_scan(doc_ids[:1])
                rebalance(endpoints[:2], to=endpoints[2], batch_docs=4)
                yield from real_scan(doc_ids[1:])  # refused: epoch 2 is live

            shard.scan = scan_across_a_rebalance
            assert list(client.iter_documents()) == [
                (d.doc_id, d.content) for d in gov_small
            ]
            assert client.epoch == 2
    finally:
        for server in servers:
            server.stop()


def test_rebalance_resumes_after_donor_link_dies(tmp_path, gov_small):
    """Chaos: the donor's link is cut mid-stream; the re-run resumes."""
    paths = build_partitioned_archives(gov_small, _partition_config(2), tmp_path)
    spare = write_spare_shard(
        next(iter(paths.values())), tmp_path / "shard2.rlz", "shard2"
    )
    servers, endpoints = _serve_fleet(paths)
    contents = {d.doc_id: d.content for d in gov_small}
    spare_server = BackgroundServer(spare, make_config())
    spare_host, spare_port = spare_server.start()
    to_label = f"shard2@{spare_host}:{spare_port}"
    try:
        # Which donor moves the most documents?  Fault that one, after
        # letting roughly one document through, so some INGEST batches
        # are acked before the link dies.
        old_ring = ShardMap(["shard0", "shard1"], epoch=1)
        new_ring = ShardMap(["shard0", "shard1", "shard2"], epoch=2)
        moving = [d for d in contents if new_ring.primary(d) == "shard2"]
        assert len(moving) >= 2, "collection too small to exercise resume"
        by_donor = {}
        for doc_id in moving:
            by_donor.setdefault(old_ring.primary(doc_id), []).append(doc_id)
        victim = max(by_donor, key=lambda ring_id: len(by_donor[ring_id]))
        assert len(by_donor[victim]) >= 2, "victim donor moves too few docs"
        victim_label = next(e for e in endpoints if e.startswith(f"{victim}@"))
        host, port = ShardMap.transport(victim_label).rsplit(":", 1)
        first_moving = len(contents[sorted(by_donor[victim])[0]])

        plan = FaultPlan(truncate_after_bytes=first_moving + 2048)
        with FaultProxy(host, int(port), plan) as proxy:
            faulted = [
                f"{victim}@{proxy.host}:{proxy.port}" if e == victim_label else e
                for e in endpoints
            ]
            # Seed from a healthy donor so the map/doc-order fetch survives.
            faulted.sort(key=lambda e: e == f"{victim}@{proxy.host}:{proxy.port}")
            # Short client timeout: the cut link surfaces as a timeout,
            # not a reset, and the default 30s would dominate the test.
            with pytest.raises((ReproError, OSError)):
                rebalance(faulted, to=to_label, batch_docs=1, timeout=3.0)

        # The failed run never installed the epoch...
        for endpoint in endpoints:
            h, p = ShardMap.transport(endpoint).rsplit(":", 1)
            with RlzClient(h, int(p)) as probe:
                assert probe.shard_map()[0] == 1
        # ...but the recipient's sidecar kept what was acked.
        with RlzClient(spare_host, spare_port) as probe:
            staged = probe.ingest([])
        assert staged, "no batch was acked before the link died"

        # Second run, healthy links: resumes from the last acked doc id.
        report = rebalance(endpoints, to=to_label, batch_docs=1)
        assert report.epoch == 2
        assert report.resumed == len(staged)
        assert report.moved == len(moving)

        # The fleet now serves every document byte-identically.
        with ClusterClient(
            endpoints + [to_label], retry_delay=0.01
        ) as client:
            for doc_id, expected in contents.items():
                assert client.get(doc_id) == expected
        with RlzClient(spare_host, spare_port) as recipient:
            for doc_id in moving:
                assert recipient.get(doc_id) == contents[doc_id]
    finally:
        spare_server.stop()
        for server in servers:
            server.stop()


def test_install_shard_map_is_idempotent(tmp_path, gov_small):
    paths = build_partitioned_archives(gov_small, _partition_config(2), tmp_path)
    with BackgroundServer(paths["shard0"], make_config()) as server:
        with RlzClient(*server.address) as client:
            epoch, labels, virtual_nodes = client.shard_map()
            assert epoch == 1
            # Re-installing the current (or an older) epoch is a no-op.
            installed = client.install_shard_map(epoch, labels, virtual_nodes)
            assert installed[0] == 1
            before = set(client.doc_ids())
            installed = client.install_shard_map(0, labels, virtual_nodes)
            assert installed[0] == 1
            assert set(client.doc_ids()) == before
