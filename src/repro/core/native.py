"""Loader for the native RLZ decode kernel (``rlz_decode.c``).

The kernel decodes one document — or one window of it — from its pair blob
in a single C call, zlib inflate included; :class:`repro.core.PairEncoder`
routes its ``decode_document``/``decode_window`` through it for the schemes
it can read.  The Python decoder stays the reference: the kernel returns
``None`` for any blob the Python decoder would reject (for a window, any
blob malformed at or before the window's last covering factor), and the
caller then re-runs the Python path, which raises the typed error.

The source ships with the package and is compiled on first use with
``cc -O2 -shared -fPIC -pthread ... -lz`` into
``${XDG_CACHE_HOME:-~/.cache}/repro/``.  The file name carries the SHA-256
of the source, the compile command and the interpreter's ``SOABI``, and the
build is installed with :func:`os.replace`, so concurrent first uses,
upgraded sources and changed flags never load a stale or partial library.
It is bound with :class:`ctypes.PyDLL`, so each call enters with the GIL
held; the kernel itself releases the GIL around the inflate, validation and
copy and takes it back only to build the result ``bytes``.  A server runs
one decode thread per archive (:class:`repro.api.AsyncRlzArchive`), so a
release overlaps the event loop's socket work rather than other decodes.

If the kernel cannot be built or loaded (no compiler, no Python or zlib
headers, an unwritable cache directory), one ``logging`` warning names the
reason and every decode uses the Python decoder.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import zlib
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

__all__ = [
    "INFLATE_LENGTHS",
    "INFLATE_POSITIONS",
    "Kernel",
    "available",
    "decoder_name",
    "kernel",
]

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("rlz_decode.c")
_COMPILER = "cc"
_ZLIB_HEADER = "zlib.h"

#: ``PairEncoder`` layout bits: which of a blob's streams are zlib-wrapped.
INFLATE_POSITIONS = 1
INFLATE_LENGTHS = 2


class Kernel(NamedTuple):
    """The kernel's two bound entry points (see ``rlz_decode.c``).

    ``document(blob, layout, dictionary)`` returns the document's bytes;
    ``window(blob, layout, dictionary, start, length)`` returns ``(window,
    covered_bytes)``.  ``layout`` ORs :data:`INFLATE_POSITIONS` and
    :data:`INFLATE_LENGTHS`.  Both return ``None`` to reject the blob.
    """

    document: Callable[..., object]
    window: Callable[..., object]


class _Unavailable(Exception):
    """Why the kernel cannot be used (the warning's text)."""


_UNLOADED = object()
_kernel = _UNLOADED
_lock = threading.Lock()


def kernel() -> Optional[Kernel]:
    """The loaded kernel, building it on first use; ``None`` if unavailable."""
    loaded = _kernel
    if loaded is _UNLOADED:
        loaded = _load()
    return loaded


def available() -> bool:
    """Whether the native kernel serves decodes in this process."""
    return kernel() is not None


def decoder_name() -> str:
    """``"native"`` or ``"python"``: the decoder this process runs."""
    return "native" if available() else "python"


def _load() -> Optional[Kernel]:
    global _kernel
    with _lock:
        if _kernel is _UNLOADED:
            try:
                _kernel = _bind(_build())
            except _Unavailable as exc:
                logger.warning(
                    "native decode kernel unavailable, using the Python decoder: %s",
                    exc,
                )
                _kernel = None
        return _kernel


def _command(include: str) -> List[str]:
    """The compile command, output path excluded (it is part of the cache key)."""
    return [_COMPILER, "-O2", "-shared", "-fPIC", "-pthread", f"-I{include}", str(_SOURCE), "-lz"]


def _library_path(command: List[str]) -> Path:
    soabi = sysconfig.get_config_var("SOABI") or "abi3"
    key = _SOURCE.read_bytes() + soabi.encode() + "\0".join(command).encode()
    digest = hashlib.sha256(key).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(cache) / "repro" / f"rlz_decode-{digest[:16]}.{soabi}.so"


def _build() -> Path:
    """The compiled library's path, compiling it unless already cached."""
    include = sysconfig.get_paths()["include"]
    command = _command(include)
    try:
        target = _library_path(command)
    except (OSError, RuntimeError) as exc:
        raise _Unavailable(f"cannot locate the kernel source or cache: {exc}") from exc
    if target.exists():
        return target
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise _Unavailable(f"no C compiler ({_COMPILER!r}) on PATH")
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise _Unavailable(f"no Python headers in {include}")
    _require_header(compiler, _ZLIB_HEADER)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
        os.close(handle)
    except OSError as exc:
        raise _Unavailable(f"cache directory {target.parent} is not writable: {exc}") from exc
    try:
        try:
            result = subprocess.run(
                [compiler, *command[1:], "-o", partial], capture_output=True, text=True
            )
        except OSError as exc:
            raise _Unavailable(f"cannot run {compiler}: {exc}") from exc
        if result.returncode != 0:
            raise _Unavailable(f"{compiler} failed: {result.stderr.strip()[-400:]}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _require_header(compiler: str, header: str) -> None:
    """Fail unless ``compiler`` finds ``header`` (the kernel links zlib)."""
    probe = f"#include <{header}>\n"
    try:
        result = subprocess.run(
            [compiler, "-E", "-x", "c", "-", "-o", os.devnull],
            input=probe,
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise _Unavailable(f"cannot run {compiler}: {exc}") from exc
    if result.returncode != 0:
        raise _Unavailable(f"no zlib headers: cannot find {header} ({compiler})")


def _bind(path: Path) -> Kernel:
    try:
        library = ctypes.PyDLL(str(path))
        document, window = library.rlz_decode_document, library.rlz_decode_window
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc
    arguments = (ctypes.py_object, ctypes.c_int, ctypes.py_object)
    document.argtypes = arguments
    window.argtypes = arguments + (ctypes.c_uint64, ctypes.c_uint64)
    document.restype = window.restype = ctypes.py_object
    # One literal and one copy factor, bare and zlib-wrapped: a library that
    # cannot decode these is not the kernel this source describes.
    positions, lengths = b"\x41\x00\x00\x00\x01\x00\x00\x00", b"\x80\x82"
    deflated = zlib.compress(positions), zlib.compress(lengths)
    for layout, (position_bytes, length_bytes) in (
        (0, (positions, lengths)),
        (INFLATE_POSITIONS | INFLATE_LENGTHS, deflated),
    ):
        blob = bytes([0x82, 0x80 | len(position_bytes)]) + position_bytes + length_bytes
        if document(blob, layout, b"xyz") != b"Ayz" or window(
            blob, layout, b"xyz", 1, 5
        ) != (b"yz", 2):
            raise _Unavailable(f"{path} failed its self-test")
    return Kernel(document, window)
