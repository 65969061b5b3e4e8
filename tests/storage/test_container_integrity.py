"""Corruption-safety tests for the RPRC2 container format.

The acceptance bar: a single flipped byte anywhere in a container is
*detected* (typed error, never silently wrong bytes), and a build killed
mid-write leaves no openable partial archive.
"""

from __future__ import annotations

import os
import struct
import tracemalloc

import pytest

from repro.cli import verify_main
from repro.core import DictionaryConfig, RlzCompressor
from repro.errors import CorruptArchiveError, StorageError
from repro.storage import (
    BlockedStore,
    BlockedStoreConfig,
    DocumentEntry,
    DocumentMap,
    RawStore,
    RlzStore,
    read_container_header,
    verify_container,
)
from repro.storage import container as container_module


@pytest.fixture(scope="module")
def small_collection(gov_small):
    return gov_small


@pytest.fixture()
def rlz_path(tmp_path, small_collection):
    path = tmp_path / "a.rlz"
    _build_store("rlz", path, small_collection)
    return path


def test_verify_fresh_containers_report_ok(tmp_path, small_collection, rlz_path):
    blocked = tmp_path / "a.blocked"
    _build_store("blocked", blocked, small_collection)
    raw = tmp_path / "a.raw"
    _build_store("raw", raw, small_collection)
    for path in (rlz_path, blocked, raw):
        report = verify_container(path)
        header = read_container_header(path)
        assert report["format"] == "RPRC2"
        assert report["extents_checked"] == len(header.checksums) > 0
        assert report["bytes_checked"] > 0
        assert report["documents"] == len(small_collection)


def test_single_flipped_byte_anywhere_is_detected(rlz_path):
    """Sweep flip positions across the whole file: every one must raise."""
    original = rlz_path.read_bytes()
    size = len(original)
    header = read_container_header(rlz_path)
    # A prime stride samples every region (magic, store type, lengths,
    # metadata, map, dictionary, checksum table, payload) without taking
    # minutes; the section boundaries are hit explicitly.
    offsets = set(range(0, size, 211))
    offsets.update((0, 5, 7, size - 1, header.payload_offset, header.payload_offset - 5))
    for offset in sorted(offsets):
        mutated = bytearray(original)
        mutated[offset] ^= 0xFF
        rlz_path.write_bytes(bytes(mutated))
        with pytest.raises((CorruptArchiveError, StorageError)):
            verify_container(rlz_path)
    rlz_path.write_bytes(original)
    report = verify_container(rlz_path)
    assert report["extents_checked"] == report["documents"]


def _build_store(kind, path, collection):
    if kind == "rlz":
        compressor = RlzCompressor(
            dictionary_config=DictionaryConfig(size=16 * 1024, sample_size=512),
            scheme="ZZ",
        )
        RlzStore.write(compressor.compress(collection), path)
        return RlzStore.open
    if kind == "blocked":
        BlockedStore.build(
            collection, path, BlockedStoreConfig("zlib", block_size=16 * 1024)
        )
        return BlockedStore.open
    RawStore.build(collection, path)
    return RawStore.open


@pytest.mark.parametrize("store_kind", ["rlz", "blocked", "raw"])
def test_payload_flip_raises_corrupt_archive_on_read(
    tmp_path, small_collection, store_kind
):
    """The serving read path itself (not just offline verify) checks CRCs."""
    path = tmp_path / f"a.{store_kind}"
    opener = _build_store(store_kind, path, small_collection)
    header = read_container_header(path)
    data = bytearray(path.read_bytes())
    data[header.payload_offset + 3] ^= 0x40
    path.write_bytes(bytes(data))
    with opener(path) as store:
        corrupt = 0
        for doc_id in store.doc_ids():
            try:
                store.get(doc_id)
            except CorruptArchiveError:
                corrupt += 1
        assert corrupt >= 1  # the flipped extent is never served silently


def test_interrupted_build_leaves_no_partial_archive(tmp_path, monkeypatch):
    """A crash during the container write must not leave an openable file."""
    document_map = DocumentMap()
    document_map.add(DocumentEntry(doc_id=1, offset=0, length=4))
    target = tmp_path / "killed.repro"

    def dying_fsync(fd):
        raise OSError("simulated power loss")

    monkeypatch.setattr(container_module.os, "fsync", dying_fsync)
    with pytest.raises(OSError):
        container_module.write_container(
            target, "raw", {"original_size": 4}, document_map, b"", b"abcd"
        )
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp file either


def test_interrupted_rebuild_preserves_the_old_archive(tmp_path, monkeypatch):
    document_map = DocumentMap()
    document_map.add(DocumentEntry(doc_id=1, offset=0, length=4))
    target = tmp_path / "stable.repro"
    container_module.write_container(
        target, "raw", {"original_size": 4}, document_map, b"", b"abcd"
    )
    good = target.read_bytes()

    real_fsync = os.fsync

    def dying_fsync(fd):
        raise OSError("simulated power loss")

    monkeypatch.setattr(container_module.os, "fsync", dying_fsync)
    with pytest.raises(OSError):
        container_module.write_container(
            target, "raw", {"original_size": 8}, document_map, b"", b"abcdefgh"
        )
    monkeypatch.setattr(container_module.os, "fsync", real_fsync)
    assert target.read_bytes() == good
    report = verify_container(target)
    assert report["extents_checked"] == report["documents"] == 1


def test_rprc1_container_is_refused_with_a_typed_error(tmp_path, small_collection, capsys):
    """The checksum-less first format is no longer read: opening or
    verifying one raises a StorageError that names it."""
    document_map = DocumentMap()
    payload = bytearray()
    for document in small_collection:
        document_map.add(
            DocumentEntry(
                doc_id=document.doc_id, offset=len(payload), length=document.size
            )
        )
        payload += document.content
    metadata = b'{"collection": "legacy", "original_size": %d}' % small_collection.total_size
    map_bytes = document_map.to_bytes()
    path = tmp_path / "legacy.repro"
    with path.open("wb") as handle:
        handle.write(b"RPRC1\n")
        handle.write(struct.pack("<H", 3) + b"raw")
        handle.write(struct.pack("<Q", len(metadata)) + metadata)
        handle.write(struct.pack("<Q", len(map_bytes)) + map_bytes)
        handle.write(struct.pack("<Q", 0))
        handle.write(bytes(payload))

    for attempt in (lambda: RawStore.open(path), lambda: verify_container(path)):
        with pytest.raises(StorageError, match="RPRC1.*rebuild") as caught:
            attempt()
        assert not isinstance(caught.value, CorruptArchiveError)
    assert verify_main([str(path)]) == 1
    assert "RPRC1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Untrusted section lengths
# ----------------------------------------------------------------------
#: Offset of the metadata section's u64 length in a "raw" container.
_METADATA_LENGTH_AT = 6 + 2 + len(b"raw")


def test_huge_declared_section_length_raises_storage_error(tmp_path, small_collection):
    # A 1 TiB metadata section used to escape as a bare MemoryError.
    path = tmp_path / "a.raw"
    RawStore.build(small_collection, path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, _METADATA_LENGTH_AT, 1 << 40)
    path.write_bytes(bytes(data))
    for attempt in (
        lambda: read_container_header(path),
        lambda: RawStore.open(path),
        lambda: verify_container(path),
    ):
        with pytest.raises(StorageError, match="truncated"):
            attempt()


def test_declared_length_is_bounded_before_allocation(tmp_path):
    # A 300 MB length in a 40-byte file used to allocate 300 MB first.
    path = tmp_path / "tiny.repro"
    head = b"RPRC2\n" + struct.pack("<H", 3) + b"raw" + struct.pack("<Q", 300_000_000)
    path.write_bytes(head + bytes(40 - len(head)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with pytest.raises(StorageError):
            read_container_header(path)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        if not tracing:
            tracemalloc.stop()
    assert peak < 1 << 20


# ----------------------------------------------------------------------
# Every payload read is covered by the checksum table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store_kind", ["rlz", "blocked", "raw"])
def test_untabled_extent_is_refused(tmp_path, small_collection, store_kind):
    """The table entries sit outside the header CRC: re-point one entry
    and corrupt the extent it covered, and that extent is read unchecked
    unless a read of an extent missing from the table is refused."""
    path = tmp_path / f"a.{store_kind}"
    opener = _build_store(store_kind, path, small_collection)
    header = read_container_header(path)
    entry_at = header.payload_offset - 20 * len(header.checksums)
    data = bytearray(path.read_bytes())
    offset, length = struct.unpack_from("<QQ", data, entry_at)
    struct.pack_into("<Q", data, entry_at, offset + (1 << 40))
    data[header.payload_offset + offset + length // 2] ^= 0x20
    path.write_bytes(bytes(data))

    expected = {document.doc_id: document.content for document in small_collection}
    refused = 0
    with opener(path) as store:
        for doc_id in store.doc_ids():
            try:
                served = store.get(doc_id)
            except CorruptArchiveError:
                refused += 1
            else:
                assert served == expected[doc_id]
    assert refused >= 1
    with pytest.raises(StorageError):
        verify_container(path)
