"""Untrusted container bytes: a damaged RPRC2 header or checksum table must
surface as a typed error, never as another exception, an allocation sized by
a length field, or a wrong document.

The property mutates the section length fields, the checksum-table head and
the table entries of a valid small container of each store kind.  In one
branch it re-seals the header CRC where a reader would look for it, so the
mutation reaches the checks behind the CRC.  Opening, reading every document
and ``verify_container`` may raise only :class:`StorageError` (which
:class:`CorruptArchiveError` extends); the traced allocation stays within the
file size plus a small constant; and an opened container serves each
document's original bytes or a typed error.  The named tests pin the cases
the property relies on.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DictionaryConfig, RlzCompressor
from repro.corpus import generate_gov_collection
from repro.errors import StorageError
from repro.storage import (
    BlockedStore,
    BlockedStoreConfig,
    RawStore,
    RlzStore,
    verify_container,
)

_OPENERS = {"raw": RawStore.open, "rlz": RlzStore.open, "blocked": BlockedStore.open}

#: Section length fields in file order, after the 6-byte magic.
_SECTIONS = (("type", "<H"), ("metadata", "<Q"), ("map", "<Q"), ("dictionary", "<Q"))

#: Allowance over the file size for the traced peak of one open, every
#: ``get`` and a ``verify_container``.
_SLACK = 256 * 1024


@pytest.fixture(scope="module")
def collection():
    return generate_gov_collection(num_documents=6, target_document_size=1024, seed=3)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, collection):
    """``kind -> container bytes`` for one small container of each store."""
    directory = tmp_path_factory.mktemp("pristine")
    compressor = RlzCompressor(
        dictionary_config=DictionaryConfig(size=2048, sample_size=256), scheme="ZZ"
    )
    RlzStore.write(compressor.compress(collection), directory / "rlz")
    RawStore.build(collection, directory / "raw")
    BlockedStore.build(
        collection, directory / "blocked", BlockedStoreConfig("zlib", block_size=2048)
    )
    blobs = {kind: (directory / kind).read_bytes() for kind in _OPENERS}
    # Warm every lazy import and the decode kernel outside the traced runs.
    for kind in _OPENERS:
        _exercise(kind, directory / kind)
    return blobs


def _fields(blob):
    """Every mutable integer field: ``[(file offset, struct format)]``."""
    fields = []
    position = 6
    for _, fmt in _SECTIONS:
        fields.append((position, fmt))
        (length,) = struct.unpack_from(fmt, blob, position)
        position += struct.calcsize(fmt) + length
    fields.append((position, "<Q"))  # checksum-table length
    head = position + 8
    fields += [(head, "<I"), (head + 4, "<I")]  # header crc, extent count
    (count,) = struct.unpack_from("<I", blob, head + 4)
    for index in range(count):
        entry = head + 8 + 20 * index
        fields += [(entry, "<Q"), (entry + 8, "<Q"), (entry + 16, "<I")]
    return fields


def _reseal(data):
    """Write the header CRC where a reader of the mutated bytes finds the
    checksum-table head, over the bytes it would have read."""
    position = 6
    for _, fmt in _SECTIONS:
        width = struct.calcsize(fmt)
        if position + width > len(data):
            return
        (length,) = struct.unpack_from(fmt, data, position)
        position += width + length
    head = position + 8
    if head + 4 <= len(data):
        struct.pack_into("<I", data, head, zlib.crc32(bytes(data[:position])))


def _mutate(blob, mutations, reseal):
    data = bytearray(blob)
    fields = _fields(blob)
    for index, (kind, value) in mutations:
        position, fmt = fields[index % len(fields)]
        bits = 8 * struct.calcsize(fmt)
        (old,) = struct.unpack_from(fmt, data, position)
        new = old + value if kind == "add" else value
        struct.pack_into(fmt, data, position, new % (1 << bits))
    if reseal:
        _reseal(data)
    return bytes(data)


def _exercise(kind, path):
    """Open, read every document and verify; returns the documents served."""
    served = {}
    try:
        with _OPENERS[kind](path) as store:
            for doc_id in store.doc_ids():
                try:
                    served[doc_id] = store.get(doc_id)
                except StorageError:
                    pass
    except StorageError:
        pass
    try:
        verify_container(path)
    except StorageError:
        pass
    return served


def _check(directory, collection, pristine, kind, mutations, reseal):
    blob = _mutate(pristine[kind], mutations, reseal)
    path = directory / kind
    path.write_bytes(blob)
    expected = {document.doc_id: document.content for document in collection}

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        served = _exercise(kind, path)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        if not tracing:
            tracemalloc.stop()
    # No length field sizes an allocation before it is checked against
    # the bytes left in the file.
    assert peak < len(blob) + _SLACK
    for doc_id, document in served.items():
        assert document == expected.get(doc_id), doc_id


_mutation = st.tuples(
    st.integers(min_value=0, max_value=200),
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=-64, max_value=64)),
        st.tuples(
            st.just("set"),
            st.one_of(
                st.sampled_from([0, 1, 20, 2**16 - 1, 2**32 - 1, 2**40, 2**63, 2**64 - 1]),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
        ),
    ),
)


@settings(deadline=None)
@given(
    kind=st.sampled_from(sorted(_OPENERS)),
    mutations=st.lists(_mutation, min_size=1, max_size=3),
    reseal=st.booleans(),
)
def test_header_and_table_mutations_raise_only_typed_errors(
    tmp_path_factory, collection, pristine, kind, mutations, reseal
):
    _check(tmp_path_factory.mktemp("fuzz"), collection, pristine, kind, mutations, reseal)


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def test_unmutated_containers_serve_every_document(tmp_path, collection, pristine):
    expected = {document.doc_id: document.content for document in collection}
    for kind, blob in pristine.items():
        path = tmp_path / kind
        path.write_bytes(blob)
        assert _exercise(kind, path) == expected


@pytest.mark.parametrize(
    "kind, mutations",
    [
        # Shrunk failures of the property before section lengths were
        # bounded: a zero or off-by-one type length shifts every later
        # length field onto other bytes, and the first one read declared
        # far more than the file held (a MemoryError or a huge allocation).
        ("raw", [(0, ("set", 0))]),
        ("blocked", [(0, ("set", 0))]),
        ("blocked", [(0, ("add", 1))]),
    ],
)
@pytest.mark.parametrize("reseal", [False, True])
def test_misaligned_type_length(tmp_path, collection, pristine, kind, mutations, reseal):
    _check(tmp_path, collection, pristine, kind, mutations, reseal)


@pytest.mark.parametrize("field", range(5))
def test_every_section_length_past_the_file_is_refused(tmp_path, pristine, field):
    # Type, metadata, map, dictionary and checksum-table lengths.
    blob = pristine["raw"]
    position, fmt = _fields(blob)[field]
    data = bytearray(blob)
    struct.pack_into(fmt, data, position, len(blob))
    path = tmp_path / "raw"
    path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="truncated"):
        RawStore.open(path)


def test_table_entry_pointing_past_the_file(tmp_path, collection, pristine):
    # The table entries are outside the header CRC; one re-pointed past the
    # end of the file makes its document unreadable and verify fail.
    blob = pristine["raw"]
    offset_field = _fields(blob)[7]
    data = bytearray(blob)
    struct.pack_into("<Q", data, offset_field[0], 2**64 - 1)
    path = tmp_path / "raw"
    path.write_bytes(bytes(data))
    first = collection[0]
    with RawStore.open(path) as store:
        with pytest.raises(StorageError, match="checksum table"):
            store.get(first.doc_id)
    with pytest.raises(StorageError, match="truncated"):
        verify_container(path)
