"""On-disk container format shared by all stores.

A container file holds five sections behind a short header::

    magic          b"RPRC2\\n"
    store type     vbyte length + ASCII name ("rlz", "blocked", "raw")
    metadata       u64 length + UTF-8 JSON (store-specific parameters)
    document map   u64 length + DocumentMap.to_bytes()
    dictionary     u64 length + raw bytes (empty for non-RLZ stores)
    checksums      u64 length + CRC32 table (see below)
    payload        the remainder of the file

Offsets recorded in the document map are relative to the start of the
payload section, so the header can change size (e.g. when metadata grows)
without invalidating them.

The checksum section makes corruption *detectable* instead of silent:

* one CRC32 over every header byte before the checksum section (magic,
  store type, metadata, document map, dictionary — lengths included),
  verified when the header is parsed and *before* anything is decoded —
  a flipped byte anywhere in the header fails the open with
  :class:`repro.errors.CorruptArchiveError`;
* a table of ``(offset, length, crc32)`` entries covering every payload
  extent a reader will ever fetch (per document for ``rlz``/``raw``, per
  compressed block for ``blocked``).  Stores check the CRC on every
  positioned read — an extent missing from the table is refused too, since
  the table entries themselves sit outside the header CRC — and
  :func:`verify_container` scans the whole table offline (``repro
  verify``).

Every section length is checked against the bytes left in the file before
it is read, so a damaged length field raises :class:`StorageError` instead
of allocating what it declares.  Containers of the checksum-less first
version (``b"RPRC1\\n"``) are refused with a :class:`StorageError` that
names the version; rebuild them with ``repro compress``.

Writes are atomic: the container is built in a same-directory temporary
file, fsync'd, then :func:`os.replace`\\ d into place — a build killed
mid-write leaves no openable partial archive, only a stray ``*.tmp``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple

from ..errors import CorruptArchiveError, StorageError
from .document_map import DocumentMap

__all__ = [
    "ContainerHeader",
    "write_container",
    "read_container_header",
    "verify_container",
]

_MAGIC = b"RPRC2\n"
_CHECKSUM_HEAD = struct.Struct("<II")  # header crc, extent count
_CHECKSUM_EXTENT = struct.Struct("<QQI")  # payload offset, length, crc


@dataclass
class ContainerHeader:
    """Parsed header of a container file."""

    store_type: str
    metadata: Dict[str, Any]
    document_map: DocumentMap
    dictionary: bytes
    payload_offset: int
    path: Path
    #: ``(offset, length) -> crc32`` over payload extents.
    checksums: Dict[Tuple[int, int], int]

    def check_extent(self, offset: int, length: int, data: bytes) -> None:
        """Verify one payload read against the checksum table.

        Raises :class:`CorruptArchiveError` when the extent is not in the
        table or its CRC does not match.
        """
        expected = self.checksums.get((offset, length))
        if expected is None:
            raise CorruptArchiveError(
                f"{self.path}: payload extent at offset {offset} "
                f"({length} bytes) is not in the checksum table"
            )
        if zlib.crc32(data) != expected:
            raise CorruptArchiveError(
                f"{self.path}: payload extent at offset {offset} "
                f"({length} bytes) failed its CRC32 check"
            )


def _derive_extents(document_map: DocumentMap) -> List[Tuple[int, int]]:
    extents: List[Tuple[int, int]] = []
    for entry in document_map:
        if entry.block_index != -1:
            raise StorageError(
                "blocked document maps record within-block offsets; pass the "
                "block extents to write_container(checksum_extents=...) explicitly"
            )
        extents.append((entry.offset, entry.length))
    return extents


def write_container(
    path: str | Path,
    store_type: str,
    metadata: Dict[str, Any],
    document_map: DocumentMap,
    dictionary: bytes,
    payload: bytes,
    checksum_extents: Optional[Iterable[Tuple[int, int]]] = None,
) -> int:
    """Write a complete container file atomically; returns bytes written.

    ``checksum_extents`` names the payload extents to checksum (what the
    store's read path will fetch).  By default they are taken from the
    document map — correct for stores whose entries are direct payload
    extents (``rlz``, ``raw``); blocked stores must pass their block table.

    The file appears at ``path`` only after the full container (including
    checksums) has been written and fsync'd to a same-directory temporary,
    so readers never observe a torn write.
    """
    path = Path(path)
    encoded_type = store_type.encode("ascii")
    metadata_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    map_bytes = document_map.to_bytes()

    if checksum_extents is None:
        extents = _derive_extents(document_map)
    else:
        extents = [(int(offset), int(length)) for offset, length in checksum_extents]

    header = b"".join(
        (
            _MAGIC,
            struct.pack("<H", len(encoded_type)),
            encoded_type,
            struct.pack("<Q", len(metadata_bytes)),
            metadata_bytes,
            struct.pack("<Q", len(map_bytes)),
            map_bytes,
            struct.pack("<Q", len(dictionary)),
            dictionary,
        )
    )
    table = bytearray(_CHECKSUM_HEAD.pack(zlib.crc32(header), len(extents)))
    for offset, length in extents:
        if offset < 0 or length < 0 or offset + length > len(payload):
            raise StorageError(
                f"checksum extent ({offset}, {length}) is outside the payload"
            )
        table += _CHECKSUM_EXTENT.pack(
            offset, length, zlib.crc32(payload[offset : offset + length])
        )

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(header)
            handle.write(struct.pack("<Q", len(table)))
            handle.write(bytes(table))
            handle.write(payload)
            total = handle.tell()
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return total


def _parse_checksums(table: bytes, path: Path, header_crc: int) -> Dict[Tuple[int, int], int]:
    if len(table) < _CHECKSUM_HEAD.size:
        raise StorageError(f"{path}: checksum section truncated")
    recorded_crc, count = _CHECKSUM_HEAD.unpack_from(table, 0)
    if header_crc != recorded_crc:
        raise CorruptArchiveError(
            f"{path}: container header failed its CRC32 check"
        )
    expected_size = _CHECKSUM_HEAD.size + count * _CHECKSUM_EXTENT.size
    if len(table) != expected_size:
        raise StorageError(f"{path}: checksum section truncated")
    checksums: Dict[Tuple[int, int], int] = {}
    position = _CHECKSUM_HEAD.size
    for _ in range(count):
        offset, length, crc = _CHECKSUM_EXTENT.unpack_from(table, position)
        position += _CHECKSUM_EXTENT.size
        checksums[(offset, length)] = crc
    return checksums


def read_container_header(path: str | Path) -> ContainerHeader:
    """Read and parse the header sections of a container file.

    The whole header (every byte before the checksum section) is
    CRC-verified *before* the metadata or document map is parsed, so a
    flipped header byte raises :class:`CorruptArchiveError` instead of
    producing a parse error — or worse, a quietly wrong archive.
    """
    path = Path(path)
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            if magic[:4] == b"RPRC" and magic[5:] == b"\n":
                raise StorageError(
                    f"{path} is an unsupported {magic[:5].decode('ascii', 'replace')} "
                    f"container; rebuild it with this version (repro compress)"
                )
            raise StorageError(f"{path} is not a repro container (bad magic {magic!r})")
        crc = zlib.crc32(magic)

        def section(prefix: str) -> bytes:
            # Sections are read raw and only CRC'd here; parsing waits until
            # the header CRC has vouched for the bytes.
            nonlocal crc
            raw = _read(handle, struct.calcsize(prefix), size, path)
            data = _read(handle, struct.unpack(prefix, raw)[0], size, path)
            crc = zlib.crc32(data, zlib.crc32(raw, crc))
            return data

        type_bytes = section("<H")
        metadata_bytes = section("<Q")
        map_bytes = section("<Q")
        dictionary = section("<Q")
        header_crc = crc
        checksums = _parse_checksums(section("<Q"), path, header_crc)
        payload_offset = handle.tell()
    try:
        store_type = type_bytes.decode("ascii")
        metadata = json.loads(metadata_bytes.decode("utf-8"))
        document_map = DocumentMap.from_bytes(map_bytes)
    except CorruptArchiveError:
        raise
    except Exception as exc:
        # A header that passes its CRC can still be malformed; surface one
        # typed error instead of a parser traceback.
        raise StorageError(f"{path}: container header does not parse: {exc}") from exc
    return ContainerHeader(
        store_type=store_type,
        metadata=metadata,
        document_map=document_map,
        dictionary=dictionary,
        payload_offset=payload_offset,
        path=path,
        checksums=checksums,
    )


def verify_container(path: str | Path) -> Dict[str, Any]:
    """Scan a container end-to-end against its checksum table.

    Parses the header (which CRC-verifies the metadata, document-map and
    dictionary sections), then reads every checksummed payload extent and
    recomputes its CRC32.  A single flipped byte anywhere in a covered
    extent raises :class:`CorruptArchiveError`; structural damage
    (truncation, bad magic, an RPRC1 file) raises :class:`StorageError`.

    Returns a report::

        {"path", "store_type", "format", "documents",
         "extents_checked", "bytes_checked"}
    """
    path = Path(path)
    header = read_container_header(path)
    report: Dict[str, Any] = {
        "path": str(path),
        "store_type": header.store_type,
        "format": "RPRC2",
        "documents": len(header.document_map),
        "extents_checked": 0,
        "bytes_checked": 0,
    }
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        for (offset, length), crc in header.checksums.items():
            if header.payload_offset + offset + length > size:
                raise StorageError(
                    f"{path}: payload truncated (extent at offset {offset} "
                    f"extends past end of file)"
                )
            handle.seek(header.payload_offset + offset)
            data = _read(handle, length, size, path)
            if zlib.crc32(data) != crc:
                raise CorruptArchiveError(
                    f"{path}: payload extent at offset {offset} "
                    f"({length} bytes) failed its CRC32 check"
                )
            report["extents_checked"] += 1
            report["bytes_checked"] += length
    return report


def _read(handle: BinaryIO, length: int, size: int, path: Path) -> bytes:
    """``length`` bytes from the handle's position in a ``size``-byte file.

    No length field is trusted: one that exceeds the bytes left in the file
    raises :class:`StorageError` before anything is allocated.
    """
    left = size - handle.tell()
    if length > left:
        raise StorageError(
            f"{path}: container truncated ({length} bytes declared, "
            f"{max(left, 0)} left in the file)"
        )
    data = handle.read(length)
    if len(data) != length:
        raise StorageError(f"{path}: container truncated")
    return data
