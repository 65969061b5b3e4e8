"""Loader for the native RLZ kernels: decode (``rlz_decode.c``) and
factorize (``rlz_factorize.c``).

The *decode kernel* decodes one document — or one window of it — from its
pair blob in a single C call, zlib inflate included;
:class:`repro.core.PairEncoder` routes its ``decode_document``/
``decode_window`` through it for the schemes it can read.  The Python
decoder stays the reference: the kernel returns ``None`` for any blob the
Python decoder would reject (for a window, any blob malformed at or before
the window's last covering factor), and the caller then re-runs the Python
path, which raises the typed error.

The *factorize kernel* computes the greedy RLZ parse of one document
against a dictionary and its suffix array in a single C call;
:meth:`repro.suffix.SuffixArray.factorize_stream` (and ``match_stream``)
route through it when the match engine is enabled.  Its pure-Python port,
:func:`repro.suffix.suffix_array.greedy_parse` (the Python match engine),
is the fallback, and the per-character refinement the oracle.

Each kernel ships as a source with the package and is compiled on first
use with ``cc -O2 -shared -fPIC -pthread ...`` (``-lz`` for the decode
kernel) into ``${XDG_CACHE_HOME:-~/.cache}/repro/``.  Each file name
carries the SHA-256 of its source, the compile command and the
interpreter's ``SOABI``, and a build is installed with :func:`os.replace`,
so concurrent first uses, upgraded sources and changed flags never load a
stale or partial library.  The kernels load independently and lazily: a
process that only serves never compiles or maps the factorize kernel.
They are bound with :class:`ctypes.PyDLL`, so each call enters with the GIL
held; both release it for their work (the decode kernel around the
inflate, validation and copy, the factorize kernel around the parse) and
take it back only to build the result.  A server runs one decode thread per
archive (:class:`repro.api.AsyncRlzArchive`), so a release overlaps the
event loop's socket work rather than other decodes.

If a kernel cannot be built or loaded (no compiler, no Python headers, no
zlib headers for the decode kernel, an unwritable cache directory), one
``logging`` warning per kernel names the reason and that kernel's callers
use the Python implementation.
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
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = [
    "INFLATE_LENGTHS",
    "INFLATE_POSITIONS",
    "Kernel",
    "available",
    "decoder_name",
    "factorize_kernel",
    "factorizer_name",
    "kernel",
    "python_match_engine",
]

logger = logging.getLogger(__name__)

_COMPILER = "cc"
_ZLIB_HEADER = "zlib.h"

#: ``PairEncoder`` layout bits: which of a blob's streams are zlib-wrapped.
INFLATE_POSITIONS = 1
INFLATE_LENGTHS = 2


class Kernel(NamedTuple):
    """The decode kernel's two bound entry points (see ``rlz_decode.c``).

    ``document(blob, layout, dictionary)`` returns the document's bytes;
    ``window(blob, layout, dictionary, start, length)`` returns ``(window,
    covered_bytes)``.  ``layout`` ORs :data:`INFLATE_POSITIONS` and
    :data:`INFLATE_LENGTHS`.  Both return ``None`` to reject the blob.
    """

    document: Callable[..., object]
    window: Callable[..., object]


#: ``factorize(text, suffix_array, query) -> (positions, lengths)``: the
#: bound factorize kernel (see ``rlz_factorize.c``).  ``suffix_array`` is
#: any buffer of native int64 values, one per byte of ``text``.
Factorize = Callable[[bytes, object, bytes], Tuple[List[int], List[int]]]


class _Unavailable(Exception):
    """Why a kernel cannot be used (the warning's text)."""


class _Source(NamedTuple):
    """One kernel: its C source and what building and binding it takes."""

    name: str  # "decode" or "factorize": rlz_<name>.c, rlz_<name>-*.so
    slot: str  # the module global holding the loaded kernel
    fallback: str  # what serves callers without the kernel
    libraries: Tuple[str, ...]
    bind: Callable[[Path], object]

    @property
    def path(self) -> Path:
        return Path(__file__).with_name(f"rlz_{self.name}.c")


_UNLOADED = object()
#: The loaded decode kernel (``_UNLOADED`` until first use, ``None`` when
#: unavailable).  Tests set it to ``None`` to force the Python decoder.
_kernel = _UNLOADED
#: The loaded factorize kernel, with the same states as ``_kernel``
#: (:func:`python_match_engine` sets it to ``None``).
_factorize_kernel = _UNLOADED
_lock = threading.Lock()


def kernel() -> Optional[Kernel]:
    """The loaded decode kernel, building it on first use; ``None`` if unavailable."""
    loaded = _kernel
    if loaded is _UNLOADED:
        loaded = _load(_DECODE)
    return loaded


def available() -> bool:
    """Whether the native decode kernel serves decodes in this process."""
    return kernel() is not None


def decoder_name() -> str:
    """``"native"`` or ``"python"``: the decoder this process runs."""
    return "native" if available() else "python"


def factorize_kernel() -> Optional[Factorize]:
    """The loaded factorize kernel, built on first use; ``None`` if unavailable."""
    loaded = _factorize_kernel
    if loaded is _UNLOADED:
        loaded = _load(_FACTORIZE)
    return loaded


def factorizer_name(load: bool = True) -> str:
    """``"native"`` or ``"python"``: the match engine this process's builds run.

    With ``load=False`` the kernel is never built or mapped: before the
    first parse has asked for it the answer is ``"unloaded"``.
    """
    loaded = factorize_kernel() if load else _factorize_kernel
    if loaded is _UNLOADED:
        return "unloaded"
    return "native" if loaded is not None else "python"


@contextmanager
def python_match_engine() -> Iterator[None]:
    """Run the block on the Python match engine: the factorize kernel is
    off inside it, as on a host without a C compiler."""
    global _factorize_kernel
    saved = _factorize_kernel
    _factorize_kernel = None
    try:
        yield
    finally:
        _factorize_kernel = saved


def _load(source: _Source):
    with _lock:
        loaded = globals()[source.slot]
        if loaded is _UNLOADED:
            try:
                loaded = source.bind(_build(source))
            except _Unavailable as exc:
                logger.warning(
                    "native %s kernel unavailable, using %s: %s",
                    source.name,
                    source.fallback,
                    exc,
                )
                loaded = None
            globals()[source.slot] = loaded
        return loaded


def _command(source: _Source, include: str) -> List[str]:
    """The compile command, output path excluded (it is part of the cache key)."""
    return [
        _COMPILER,
        "-O2",
        "-shared",
        "-fPIC",
        "-pthread",
        f"-I{include}",
        str(source.path),
        *source.libraries,
    ]


def _library_path(source: _Source, command: List[str]) -> Path:
    soabi = sysconfig.get_config_var("SOABI") or "abi3"
    key = source.path.read_bytes() + soabi.encode() + "\0".join(command).encode()
    digest = hashlib.sha256(key).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(cache) / "repro" / f"rlz_{source.name}-{digest[:16]}.{soabi}.so"


def _build(source: _Source) -> Path:
    """The compiled library's path, compiling it unless already cached."""
    include = sysconfig.get_paths()["include"]
    command = _command(source, include)
    try:
        target = _library_path(source, command)
    except (OSError, RuntimeError) as exc:
        raise _Unavailable(f"cannot locate the kernel source or cache: {exc}") from exc
    if target.exists():
        return target
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise _Unavailable(f"no C compiler ({_COMPILER!r}) on PATH")
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise _Unavailable(f"no Python headers in {include}")
    if "-lz" in source.libraries:
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
    """Fail unless ``compiler`` finds ``header`` (the decode kernel links zlib)."""
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


def _open(path: Path, *names: str) -> list:
    try:
        library = ctypes.PyDLL(str(path))
        return [getattr(library, name) for name in names]
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc


def _bind_decode(path: Path) -> Kernel:
    document, window = _open(path, "rlz_decode_document", "rlz_decode_window")
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


def _bind_factorize(path: Path) -> Factorize:
    (factorize,) = _open(path, "rlz_factorize")
    factorize.argtypes = (ctypes.py_object, ctypes.py_object, ctypes.py_object)
    factorize.restype = ctypes.py_object
    # "xabc" sorts its suffixes abc, bc, c, xabc.  Two copies and a literal:
    # a library that parses these otherwise is not the kernel described.
    if factorize(b"xabc", array("q", [1, 2, 3, 0]), b"abcabz") != (
        [1, 1, ord("z")],
        [3, 2, 0],
    ):
        raise _Unavailable(f"{path} failed its self-test")
    return factorize


_DECODE = _Source("decode", "_kernel", "the Python decoder", ("-lz",), _bind_decode)
_FACTORIZE = _Source(
    "factorize", "_factorize_kernel", "the Python match engine", (), _bind_factorize
)
