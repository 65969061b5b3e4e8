"""The native factorize kernel's loader, fallback and build identity.

Parse identity against the per-character oracle lives in
``tests/suffix/test_vectorized_engine.py`` (the kernel is one of its
parametrized implementations), and fork/spawn worker identity in
``tests/core/test_parallel.py``.  Here: the kernel compiles lazily into
its own cache entry (a store that only serves never builds it); a build is
byte-identical with the kernel on, forced off, or missing for want of a
compiler, and a missing compiler costs one warning that names the reason;
and the spawn attach path publishes the suffix array alone, which the
kernel parses in place.
"""

from __future__ import annotations

import logging
import shutil
import sysconfig

import pytest

from repro import ArchiveConfig, DictionarySpec, EncodingSpec, RlzArchive
from repro.api import SearchSpec
from repro.core import native
from repro.search.serving import index_sidecar_path
from repro.storage import RlzStore
from repro.suffix import SuffixArray

requires_kernel = pytest.mark.skipif(
    native.factorize_kernel() is None,
    reason="the native factorize kernel is unavailable (no C compiler?)",
)


@pytest.fixture()
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded factorize kernel whose cache directory is empty."""
    monkeypatch.setattr(native, "_factorize_kernel", native._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro"


def _factorize_warnings(caplog):
    return [
        record
        for record in caplog.records
        if record.name == native.__name__
        and record.levelno == logging.WARNING
        and "factorize" in record.getMessage()
    ]


def _build(collection, path):
    """Build ``path`` (container and search sidecar); return both files' bytes."""
    config = ArchiveConfig(
        dictionary=DictionarySpec(size=16 * 1024, sample_size=512),
        encoding=EncodingSpec(scheme="ZZ"),
        search=SearchSpec(enabled=True),
    )
    RlzArchive.build(collection, config, path).close()
    return path.read_bytes(), index_sidecar_path(path).read_bytes()


@requires_kernel
def test_loader_compiles_the_kernel_into_its_own_cache_entry(fresh_loader, caplog):
    with caplog.at_level(logging.WARNING):
        assert native.factorizer_name() == "native"
    (library,) = fresh_loader.iterdir()
    soabi = sysconfig.get_config_var("SOABI")
    assert library.name.startswith("rlz_factorize-")
    assert library.name.endswith(f".{soabi}.so")
    assert not _factorize_warnings(caplog)


def test_the_two_kernels_have_distinct_cache_keys():
    include = sysconfig.get_paths()["include"]
    paths = {
        native._library_path(source, native._command(source, include))
        for source in (native._DECODE, native._FACTORIZE)
    }
    assert len(paths) == 2
    assert "-lz" not in native._command(native._FACTORIZE, include)


def test_serving_never_loads_the_factorize_kernel(
    fresh_loader, tmp_path, gov_small, monkeypatch
):
    path = tmp_path / "served.rlz"
    _build(gov_small, path)
    monkeypatch.setattr(native, "_factorize_kernel", native._UNLOADED)
    with RlzStore.open(path) as store:
        for document in gov_small:
            assert store.get(document.doc_id) == document.content
        assert store.get_window(0, 10, 40) == gov_small[0].content[10:50]
    assert native._factorize_kernel is native._UNLOADED


def test_acceleration_stats_never_loads_the_kernel(fresh_loader):
    """Stats are read-only: before a parse asks for the kernel they say
    ``"unloaded"`` and neither compile it nor build the Python engine."""
    suffix_array = SuffixArray(b"the quick brown fox jumps over the lazy dog")
    stats = suffix_array.acceleration_stats()
    assert stats["engine"] == "unloaded"
    assert stats["jump_index_kind"] is None
    assert native._factorize_kernel is native._UNLOADED
    assert not fresh_loader.exists()
    with native.python_match_engine():
        assert suffix_array.acceleration_stats()["engine"] == "python"
    assert native._factorize_kernel is native._UNLOADED


def test_build_is_identical_with_the_kernel_forced_off(tmp_path, gov_small):
    with_kernel = _build(gov_small, tmp_path / "native.rlz")
    with native.python_match_engine():
        assert _build(gov_small, tmp_path / "python.rlz") == with_kernel


def test_without_a_compiler_a_build_falls_back_identically_and_warns_once(
    fresh_loader, tmp_path, gov_small, monkeypatch, caplog
):
    with native.python_match_engine():
        expected = _build(gov_small, tmp_path / "python.rlz")
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with caplog.at_level(logging.WARNING):
        assert _build(gov_small, tmp_path / "fallback.rlz") == expected
        assert _build(gov_small, tmp_path / "again.rlz") == expected
        assert native.factorizer_name() == "python"
    (warning,) = _factorize_warnings(caplog)
    assert "no C compiler" in warning.getMessage()
    assert "Python match engine" in warning.getMessage()


@requires_kernel
def test_kernel_attach_path_publishes_and_reads_the_suffix_array_alone():
    text = b"the quick brown fox jumps over the lazy dog \x00 tail" * 6
    original = SuffixArray(text)
    state = original.shared_state()
    assert set(state) == {"sa"}
    shared = state["sa"].copy()
    shared.flags.writeable = False
    clone = SuffixArray.from_precomputed(text, shared, algorithm="shared:test")
    assert clone.array is shared  # parsed in place, never copied
    assert clone.acceleration_stats()["engine"] == "native"
    oracle = SuffixArray(text, accelerated=False)
    for query in (b"the quick brown fox", b"lazy dog \x00 tail", b"XYZ", b"", text):
        assert clone.factorize_stream(query) == oracle.factorize_stream(query)


def test_compiler_probe_is_skipped_for_the_factorize_kernel(fresh_loader, monkeypatch):
    """The zlib header probe belongs to the decode kernel alone: a missing
    zlib.h does not stop the factorize kernel."""
    if shutil.which(native._COMPILER) is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(native, "_ZLIB_HEADER", "repro-missing-zlib.h")
    assert native.factorize_kernel() is not None
