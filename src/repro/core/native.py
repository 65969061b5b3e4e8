"""Loader for the native RLZ decode kernel (``rlz_decode.c``).

The kernel decodes one document — or one window of it — from its inflated
pair streams in a single C call; :class:`repro.core.PairEncoder` routes its
``decode_document``/``decode_window`` through it for the schemes it can
read.  The Python decoder stays the reference: the kernel returns ``None``
for any stream the Python decoder would reject, and the caller then re-runs
the Python path, which raises the typed error.

The source ships with the package and is compiled on first use with
``cc -O2 -shared -fPIC`` into ``${XDG_CACHE_HOME:-~/.cache}/repro/``.  The
file name carries the SHA-256 of the source and the interpreter's
``SOABI``, and the build is installed with :func:`os.replace`, so
concurrent first uses and upgraded sources never load a stale or partial
library.  It is bound with :class:`ctypes.PyDLL`, which keeps the GIL held
for the few-microsecond call: releasing it (as a ``ctypes.CDLL`` or cffi
call does) hands a busy server's event loop the thread's turn mid-request.

If the kernel cannot be built or loaded (no compiler, no Python headers, an
unwritable cache directory), one ``logging`` warning names the reason and
every decode uses the Python decoder.
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
from pathlib import Path
from typing import Callable, NamedTuple, Optional

__all__ = ["Kernel", "available", "decoder_name", "kernel"]

logger = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("rlz_decode.c")
_COMPILER = "cc"


class Kernel(NamedTuple):
    """The kernel's two bound entry points (see ``rlz_decode.c``).

    ``document(positions, lengths, count, dictionary)`` returns the
    document's bytes; ``window(..., start, length)`` returns ``(window,
    covered_bytes)``.  Both return ``None`` to reject the streams.
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


def _library_path() -> Path:
    soabi = sysconfig.get_config_var("SOABI") or "abi3"
    digest = hashlib.sha256(_SOURCE.read_bytes() + soabi.encode()).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(cache) / "repro" / f"rlz_decode-{digest[:16]}.{soabi}.so"


def _build() -> Path:
    """The compiled library's path, compiling it unless already cached."""
    try:
        target = _library_path()
    except (OSError, RuntimeError) as exc:
        raise _Unavailable(f"cannot locate the kernel source or cache: {exc}") from exc
    if target.exists():
        return target
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise _Unavailable(f"no C compiler ({_COMPILER!r}) on PATH")
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise _Unavailable(f"no Python headers in {include}")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
        os.close(handle)
    except OSError as exc:
        raise _Unavailable(f"cache directory {target.parent} is not writable: {exc}") from exc
    try:
        command = [compiler, "-O2", "-shared", "-fPIC", f"-I{include}"]
        command += [str(_SOURCE), "-o", partial]
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise _Unavailable(f"cannot run {compiler}: {exc}") from exc
        if result.returncode != 0:
            raise _Unavailable(f"{compiler} failed: {result.stderr.strip()[-400:]}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _bind(path: Path) -> Kernel:
    try:
        library = ctypes.PyDLL(str(path))
        document, window = library.rlz_decode_document, library.rlz_decode_window
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc
    streams = (ctypes.py_object, ctypes.py_object, ctypes.c_uint64, ctypes.py_object)
    document.argtypes = streams
    window.argtypes = streams + (ctypes.c_uint64, ctypes.c_uint64)
    document.restype = window.restype = ctypes.py_object
    # One literal and one copy factor: a library that cannot decode this is
    # not the kernel this source describes.
    probe = (b"\x41\x00\x00\x00\x01\x00\x00\x00", b"\x80\x82", 2, b"xyz")
    if document(*probe) != b"Ayz" or window(*probe, 1, 5) != (b"yz", 2):
        raise _Unavailable(f"{path} failed its self-test")
    return Kernel(document, window)
