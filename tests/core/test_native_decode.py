"""Native decode kernel parity: the C kernel against the Python decoder.

The Python decoder (``decode_pairs(*decode_streams(blob))`` and the array
window path) is the oracle.  On every well-formed blob the kernel returns
exactly the oracle's bytes — and, for a window, charges what the
factor-walk oracle of ``tests/storage/test_windowed_decode.py`` charges.
For a whole document it rejects exactly the blobs the oracle raises on, and
``PairEncoder.decode_document`` then answers through the Python path: the
same typed error, same message.

A window reads and validates the blob only through its last covering
factor (the container's extent CRC rejects on-disk corruption before any
decode).  A blob malformed only after that factor yields the window from
the kernel; one malformed at or before it is rejected, and
``decode_window`` answers through the Python path.

The kernel inflates without the GIL in per-thread state: concurrent
decodes stay byte-identical, and a Python thread runs while one inflates.
The loader's fallback is covered too: without a compiler, without the zlib
headers, or with an unwritable cache directory, a store serves identical
bytes through the Python decoder and one warning names the reason.
"""

from __future__ import annotations

import importlib.util
import logging
import random
import shutil
import sys
import sysconfig
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding import encode_vbyte
from repro.core import PAPER_SCHEMES, PairEncoder, RlzDictionary, decode_pairs, native
from repro.errors import DecodingError
from repro.storage import RlzStore


def _load_window_oracle():
    path = Path(__file__).parents[1] / "storage" / "test_windowed_decode.py"
    spec = importlib.util.spec_from_file_location("_windowed_decode_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._covering_charge


#: Bytes the covering factors of a window output (the ``decoded_bytes`` charge).
covering_charge = _load_window_oracle()


def _budget(examples):
    """``examples`` in tier-1, or the active profile's budget when it is
    larger (CI runs this file with ``--hypothesis-profile=large``)."""
    return max(examples, settings.default.max_examples)


@pytest.fixture(scope="module")
def kernel():
    loaded = native.kernel()
    if loaded is None:
        pytest.skip("the native decode kernel is unavailable (no C compiler?)")
    return loaded


def _outcome(decode):
    """A decode's bytes, or its error as ``(type, message)``."""
    try:
        return decode()
    except DecodingError as exc:
        return type(exc), str(exc)


def _blob(scheme, positions, lengths, count=None, cut=0):
    """A pair blob with an optional forged factor count and truncation."""
    encoder = PairEncoder(scheme)
    position_bytes = encoder.scheme.position_codec.encode(positions)
    length_bytes = encoder.scheme.length_codec.encode(lengths)
    count = len(positions) if count is None else count
    blob = encode_vbyte([count, len(position_bytes)]) + position_bytes + length_bytes
    return blob[: len(blob) - cut] if cut else blob


def _python_document(encoder, blob, dictionary):
    return decode_pairs(*encoder.decode_streams(blob), dictionary)


def _raw_document(kernel, encoder, blob, dictionary):
    """The kernel's own answer: bytes, or ``None`` for a rejected blob."""
    return kernel.document(blob, encoder._kernel_layout, dictionary.data)


def _raw_window(kernel, encoder, blob, dictionary, start, length):
    """The kernel's own window: ``(bytes, covered)``, or ``None``."""
    return kernel.window(blob, encoder._kernel_layout, dictionary.data, start, length)


def _assert_document_parity(kernel, scheme, blob, dictionary):
    encoder = PairEncoder(scheme)
    expected = _outcome(lambda: _python_document(encoder, blob, dictionary))
    assert _outcome(lambda: encoder.decode_document(blob, dictionary)) == expected
    raw = _outcome(lambda: _raw_document(kernel, encoder, blob, dictionary))
    if isinstance(expected, bytes):
        assert raw == expected
    else:
        # Rejected by the kernel, or by the shared header read (same error).
        assert raw is None or raw == expected


@st.composite
def documents(draw):
    """A dictionary and a factor stream over it, mostly valid."""
    dictionary = RlzDictionary(draw(st.binary(min_size=1, max_size=300)))
    limit = len(dictionary.data)
    valid_copy = st.integers(0, limit - 1).flatmap(
        lambda position: st.tuples(st.just(position), st.integers(1, limit - position))
    )
    literal = st.tuples(st.integers(0, 255), st.just(0))
    factor = st.one_of(valid_copy, valid_copy, literal)
    factors = draw(st.lists(factor, max_size=60))
    return dictionary, [p for p, _ in factors], [l for _, l in factors]


invalid_factors = st.one_of(
    st.tuples(st.integers(256, 2**32 - 1), st.just(0)),  # literal above 255
    st.tuples(st.integers(0, 2**32 - 1), st.integers(301, 2**70)),  # past the dictionary
    st.tuples(st.integers(300, 2**32 - 1), st.integers(1, 8)),  # starts past it
)


@given(
    scheme=st.sampled_from(PAPER_SCHEMES),
    document=documents(),
    corrupt=st.one_of(
        st.none(),
        st.tuples(st.just("factor"), st.integers(0, 60), invalid_factors),
        st.tuples(st.just("count"), st.integers(1, 2**66)),
        st.tuples(st.just("cut"), st.integers(1, 40)),
    ),
)
@settings(max_examples=_budget(300), deadline=None)
def test_document_matches_python_decoder(kernel, scheme, document, corrupt):
    dictionary, positions, lengths = document
    count, cut = None, 0
    if corrupt is not None and corrupt[0] == "factor":
        _, index, bad = corrupt
        index = min(index, len(positions))
        positions.insert(index, bad[0])
        lengths.insert(index, bad[1])
    elif corrupt is not None and corrupt[0] == "count":
        count = len(positions) + corrupt[1]
    elif corrupt is not None:
        cut = corrupt[1]
    blob = _blob(scheme, positions, lengths, count=count, cut=cut)
    _assert_document_parity(kernel, scheme, blob, dictionary)


@given(scheme=st.sampled_from(PAPER_SCHEMES), document=documents())
@settings(max_examples=_budget(100), deadline=None)
def test_kernel_accepts_every_valid_stream(kernel, scheme, document):
    dictionary, positions, lengths = document
    blob = _blob(scheme, positions, lengths)
    encoder = PairEncoder(scheme)
    assert _raw_document(kernel, encoder, blob, dictionary) == _python_document(
        encoder, blob, dictionary
    )


DICTIONARY = RlzDictionary(bytes(range(200)))

EDGE_CASES = {
    "literals": ([65, 0, 255], [0, 0, 0], {}),
    "empty document": ([], [], {}),
    "literal above 255": ([65, 256], [0, 0], {}),
    "copy ends at the dictionary end": ([190], [10], {}),
    "copy one past the dictionary": ([190], [11], {}),
    "position past the dictionary": ([200], [1], {}),
    "position at 2**32 - 1": ([2**32 - 1], [1], {}),
    "length past 63 bits": ([3], [2**63 + 5], {}),
    "length past 64 bits": ([3], [2**70], {}),
    "count larger than the stream": ([1, 2], [3, 4], {"count": 3}),
    "huge count": ([1, 2], [3, 4], {"count": 2**70}),
    "count smaller than the stream": ([1, 2, 3], [3, 4, 5], {"count": 2}),
    "count zero over factors": ([1], [3], {"count": 0}),
    "truncated by one byte": ([1, 2], [3, 400], {"cut": 1}),
    "truncated into the positions": ([1, 2], [3, 4], {"cut": 9}),
    "header only": ([1], [3], {"cut": 5}),
}


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_python_decoder(kernel, scheme, case):
    positions, lengths, forged = EDGE_CASES[case]
    blob = _blob(scheme, positions, lengths, **forged)
    _assert_document_parity(kernel, scheme, blob, DICTIONARY)


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_rejected_blobs_raise_the_python_error(kernel, scheme):
    blob = _blob(scheme, [65, 256], [0, 0])
    with pytest.raises(DecodingError, match="literal byte out of range: 256"):
        PairEncoder(scheme).decode_document(blob, DICTIONARY)
    blob = _blob(scheme, [190], [11])
    with pytest.raises(DecodingError, match=r"factor \(190, 11\) is outside the dictionary"):
        PairEncoder(scheme).decode_document(blob, DICTIONARY)


def test_corrupt_zlib_stream_raises_the_python_error(kernel):
    """A corrupt deflate byte at the start of the position stream lies
    before any factor, so the document and every window reject it."""
    blob = bytearray(_blob("ZZ", [1, 2, 3], [4, 5, 6]))
    blob[4] ^= 0xFF
    blob = bytes(blob)
    encoder = PairEncoder("ZZ")
    with pytest.raises(DecodingError, match="corrupt zlib stream"):
        encoder.decode_document(blob, DICTIONARY)
    for window in ((0, 1), (0, 100)):
        assert _raw_window(kernel, encoder, blob, DICTIONARY, *window) is None
        with pytest.raises(DecodingError, match="corrupt zlib stream"):
            encoder.decode_window(blob, DICTIONARY, *window)


def test_other_schemes_use_the_python_decoder(kernel):
    assert PairEncoder("GV").decode_kernel == "python"
    assert PairEncoder("UU").decode_kernel == "python"
    for scheme in PAPER_SCHEMES:
        assert PairEncoder(scheme).decode_kernel == "native"
    blob = PairEncoder("GV").encode_streams([65, 3], [0, 5])
    assert PairEncoder("GV").decode_document(blob, DICTIONARY) == b"A" + bytes(range(3, 8))


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
def _assert_window(kernel, scheme, blob, dictionary, lengths, start, length):
    encoder = PairEncoder(scheme)
    full = _python_document(encoder, blob, dictionary)
    window, covered = encoder.decode_window(blob, dictionary, start, length)
    assert window == full[start : start + length], (start, length)
    assert covered == covering_charge(lengths, start, length), (start, length)
    clamped = min(start, 2**63 - 1), min(length, 2**63 - 1)
    assert _raw_window(kernel, encoder, blob, dictionary, *clamped) == (window, covered)
    assert encoder._decode_window_python(blob, dictionary, start, length) == (window, covered)


@given(scheme=st.sampled_from(PAPER_SCHEMES), document=documents(), data=st.data())
@settings(max_examples=_budget(200), deadline=None)
def test_window_equals_full_document_slice(kernel, scheme, document, data):
    dictionary, positions, lengths = document
    size = sum(length or 1 for length in lengths)
    start = data.draw(st.integers(0, size + 3))
    length = data.draw(st.integers(0, size + 3))
    blob = _blob(scheme, positions, lengths)
    _assert_window(kernel, scheme, blob, dictionary, lengths, start, length)


#: literal 'A', copy [10, 15), literal 'B', copy [100, 103): output
#: offsets 0 | 1-5 | 6 | 7-9.
WINDOW_FACTORS = ([65, 10, 66, 100], [0, 5, 0, 3])


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
@pytest.mark.parametrize(
    "start, length",
    [
        (0, 0),  # empty
        (4, 0),  # empty, inside a copy
        (10, 5),  # starts at the end
        (12, 5),  # starts past the end
        (2**64 + 1, 3),  # far past the end
        (0, 1),  # exactly the first literal
        (6, 1),  # exactly the middle literal
        (5, 2),  # ends inside a literal, starts at a copy's last byte
        (2, 2),  # inside one copy
        (3, 4),  # from inside a copy through a literal
        (6, 3),  # from a literal into a copy
        (8, 100),  # inside the last copy, clamped
        (0, 2**70),  # the whole document, clamped
    ],
)
def test_window_edges(kernel, scheme, start, length):
    blob = _blob(scheme, *WINDOW_FACTORS)
    _assert_window(kernel, scheme, blob, DICTIONARY, WINDOW_FACTORS[1], start, length)


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_window_of_empty_document(kernel, scheme):
    blob = _blob(scheme, [], [])
    for start, length in ((0, 0), (0, 10), (5, 5)):
        _assert_window(kernel, scheme, blob, DICTIONARY, [], start, length)


def _last_covering(lengths, start, length):
    """Index of the last factor whose output reaches ``start + length``."""
    end = start + length
    offset = 0
    for index, size in enumerate(lengths):
        offset += size or 1
        if offset >= end:
            return index
    return len(lengths) - 1


@st.composite
def windows_inside(draw, lengths):
    """A non-empty window inside a document with these factor lengths."""
    size = sum(length or 1 for length in lengths)
    start = draw(st.integers(0, size - 1))
    return start, draw(st.integers(1, size - start))


@given(
    scheme=st.sampled_from(PAPER_SCHEMES),
    document=documents().filter(lambda document: document[1]),
    bad=invalid_factors,
    data=st.data(),
)
@example(
    scheme="ZZ",
    document=(DICTIONARY, [1, 65], [3, 0]),
    bad=(9, 2**70),
    data=None,
)
@settings(max_examples=_budget(150), deadline=None)
def test_window_ignores_malformed_factors_after_its_last_covering_one(
    kernel, scheme, document, bad, data
):
    """The window comes from the kernel although the whole blob is
    malformed; the document decode still raises."""
    dictionary, positions, lengths = document
    if data is None:
        start, length = 0, 2
    else:
        start, length = data.draw(windows_inside(lengths))
    last = _last_covering(lengths, start, length)
    index = last + 1 if data is None else data.draw(st.integers(last + 1, len(lengths)))
    encoder = PairEncoder(scheme)
    expected = _python_document(encoder, _blob(scheme, positions, lengths), dictionary)
    covered = covering_charge(lengths, start, length)
    positions.insert(index, bad[0])
    lengths.insert(index, bad[1])
    blob = _blob(scheme, positions, lengths)
    window = (expected[start : start + length], covered)
    assert _raw_window(kernel, encoder, blob, dictionary, start, length) == window
    assert encoder.decode_window(blob, dictionary, start, length) == window
    with pytest.raises(DecodingError):
        encoder.decode_document(blob, dictionary)


@given(
    scheme=st.sampled_from(PAPER_SCHEMES),
    document=documents().filter(lambda document: document[1]),
    bad=invalid_factors,
    data=st.data(),
)
@example(scheme="ZZ", document=(DICTIONARY, [1], [3]), bad=(9, 2**70), data=None)
@settings(max_examples=_budget(150), deadline=None)
def test_window_over_corrupt_streams_matches_python(kernel, scheme, document, bad, data):
    """A malformed factor at or before the window's last covering one is
    rejected by the kernel, and ``decode_window`` answers as the Python path
    does.  (One after it is not read: see the test above.)"""
    dictionary, positions, lengths = document
    index = 0 if data is None else data.draw(st.integers(0, len(lengths)))
    positions.insert(index, bad[0])
    lengths.insert(index, bad[1])
    # A window inside the document whose end lies in or after the bad
    # factor's output.
    size = sum(length or 1 for length in lengths)
    reach = sum(length or 1 for length in lengths[: index + 1])
    if data is None or size > 2**62:
        start, length = 0, 2**70
    else:
        start = data.draw(st.integers(0, size - 1))
        length = max(0, reach - start) + data.draw(st.integers(1, size + 3))
    encoder = PairEncoder(scheme)
    blob = _blob(scheme, positions, lengths)
    clamped = min(start, 2**63 - 1), min(length, 2**63 - 1)
    assert _raw_window(kernel, encoder, blob, dictionary, *clamped) is None
    assert _outcome(
        lambda: encoder.decode_window(blob, dictionary, start, length)
    ) == _outcome(lambda: encoder._decode_window_python(blob, dictionary, start, length))
    with pytest.raises(DecodingError):
        encoder.decode_document(blob, dictionary)


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_window_reads_only_through_its_last_covering_factor(kernel, scheme):
    """A factor count one past the streams leaves the last factor without a
    position word or length codeword.  An early window never reads that
    far; a window past the end clamps, which reads the whole length stream,
    so it is rejected."""
    positions, lengths = WINDOW_FACTORS
    blob = _blob(scheme, positions, lengths, count=len(positions) + 1)
    encoder = PairEncoder(scheme)
    assert encoder.decode_window(blob, DICTIONARY, 1, 3) == (bytes(range(10, 13)), 5)
    assert _raw_window(kernel, encoder, blob, DICTIONARY, 8, 100) is None
    with pytest.raises(DecodingError):
        encoder.decode_window(blob, DICTIONARY, 8, 100)
    with pytest.raises(DecodingError):
        encoder.decode_document(blob, DICTIONARY)


@pytest.mark.parametrize("stream", ["positions", "lengths"])
def test_window_ignores_a_corrupt_zlib_checksum(kernel, stream):
    """A broken adler32 trailer lies after every factor: a window inflates
    only a prefix and never reaches it, the document inflates to the end."""
    encoder = PairEncoder("ZZ")
    rng = random.Random(5)
    positions = [rng.randrange(190) for _ in range(500)]
    lengths = [rng.randrange(1, 10) for _ in range(500)]
    good = _blob("ZZ", positions, lengths)
    count, position_size, offset = encoder._read_header(good)
    blob = bytearray(good)
    blob[offset + position_size - 1 if stream == "positions" else -1] ^= 0xFF
    blob = bytes(blob)
    expected = _python_document(encoder, good, DICTIONARY)
    window = encoder.decode_window(blob, DICTIONARY, 40, 160)
    assert window == encoder.decode_window(good, DICTIONARY, 40, 160)
    assert window[0] == expected[40:200]
    with pytest.raises(DecodingError, match="corrupt zlib stream"):
        encoder.decode_document(blob, DICTIONARY)


def test_window_rejects_negative_arguments():
    with pytest.raises(ValueError):
        PairEncoder("ZZ").decode_window(_blob("ZZ", [1], [2]), DICTIONARY, -1, 2)


# ----------------------------------------------------------------------
# Threads and the GIL
# ----------------------------------------------------------------------
def test_concurrent_decodes_match_the_python_decoder(kernel):
    """Eight threads interleave documents and windows of every scheme while
    the interpreter switches threads every microsecond: shared inflate
    state or buffers would mix their bytes."""
    rng = random.Random(11)
    dictionary = RlzDictionary(bytes(rng.randrange(256) for _ in range(4096)))
    tasks = []
    for number in range(24):
        scheme = PAPER_SCHEMES[number % len(PAPER_SCHEMES)]
        factors = [
            (rng.randrange(256), 0) if rng.random() < 0.2 else (rng.randrange(4000), rng.randrange(1, 96))
            for _ in range(rng.randrange(200, 3000))
        ]
        positions, lengths = [p for p, _ in factors], [l for _, l in factors]
        encoder = PairEncoder(scheme)
        blob = _blob(scheme, positions, lengths)
        document = _python_document(encoder, blob, dictionary)
        tasks.append((encoder, blob, None, document))
        for _ in range(3):
            start, length = rng.randrange(len(document)), rng.randrange(1, 400)
            window = encoder._decode_window_python(blob, dictionary, start, length)
            tasks.append((encoder, blob, (start, length), window))
    failures = []

    def work(seed):
        order = random.Random(seed).sample(tasks, len(tasks))
        for encoder, blob, window, expected in order * 4:
            if window is None:
                got = encoder.decode_document(blob, dictionary)
            else:
                got = encoder.decode_window(blob, dictionary, *window)
            if got != expected:
                failures.append((encoder.scheme_name, window))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


def test_kernel_releases_the_gil_while_it_inflates(kernel):
    """A pure-Python thread keeps counting during one kernel call that
    inflates an 8 MB position stream.  The switch interval is far longer
    than the call and the counter hands the GIL back after every step, so
    it only runs during the call if the kernel releases the GIL."""
    count = 2_000_000
    blob = _blob("ZV", list(range(200)) * (count // 200), [1] * count)
    encoder = PairEncoder("ZV")
    counter = [0]
    running = threading.Event()
    stop = threading.Event()

    def spin():
        running.set()
        while not stop.is_set():
            counter[0] += 1
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    thread = threading.Thread(target=spin)
    try:
        thread.start()
        assert running.wait(timeout=10)
        before = counter[0]
        document = _raw_document(kernel, encoder, blob, DICTIONARY)
        advanced = counter[0] - before
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert document == bytes(range(200)) * (count // 200)
    assert advanced > 0


# ----------------------------------------------------------------------
# Loader and fallback
# ----------------------------------------------------------------------
@pytest.fixture()
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel whose cache directory is empty."""
    monkeypatch.setattr(native, "_kernel", native._UNLOADED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


def _native_warnings(caplog):
    return [
        record
        for record in caplog.records
        if record.name == native.__name__ and record.levelno == logging.WARNING
    ]


def _serve_everything(store, collection):
    expected = {document.doc_id: document.content for document in collection}
    ids = list(expected)
    assert [store.get(doc_id) for doc_id in ids] == [expected[i] for i in ids]
    assert store.get_many(ids[::-1]) == [expected[i] for i in ids[::-1]]
    assert dict(store.iter_documents()) == expected
    content = expected[ids[0]]
    assert store.get_window(ids[0], 100, 160) == content[100:260]


@pytest.fixture(scope="module")
def zz_store_path(tmp_path_factory, gov_small, gov_dictionary):
    from repro.core import RlzCompressor

    path = tmp_path_factory.mktemp("native") / "gov.rlz"
    RlzStore.write(RlzCompressor(dictionary=gov_dictionary, scheme="ZZ").compress(gov_small), path)
    return path


def test_loader_compiles_into_the_cache_directory(fresh_loader, caplog, zz_store_path, gov_small):
    if shutil.which(native._COMPILER) is None:
        pytest.skip("no C compiler")
    with caplog.at_level(logging.WARNING):
        with RlzStore.open(zz_store_path) as store:
            _serve_everything(store, gov_small)
            assert store.decode_kernel == "native"
    (library,) = (fresh_loader / "cache" / "repro").iterdir()
    soabi = sysconfig.get_config_var("SOABI")
    assert library.name.startswith("rlz_decode-") and library.name.endswith(f".{soabi}.so")
    assert not _native_warnings(caplog)


def test_cache_key_covers_the_compile_command():
    """A changed flag (dropping ``-lz``, say) names a different library, so
    a build made with other flags is never loaded."""
    source = native._DECODE
    command = native._command(source, sysconfig.get_paths()["include"])
    assert "-lz" in command
    assert native._library_path(source, command) == native._library_path(
        source, list(command)
    )
    assert native._library_path(source, command) != native._library_path(
        source, command[:-1]
    )


@pytest.mark.parametrize(
    "failure", ["missing compiler", "missing zlib headers", "unwritable cache"]
)
def test_fallback_serves_identical_bytes_and_warns_once(
    failure, fresh_loader, monkeypatch, caplog, zz_store_path, gov_small
):
    if failure == "missing compiler":
        empty = fresh_loader / "empty-bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        reason = "no C compiler"
    elif failure == "missing zlib headers":
        if shutil.which(native._COMPILER) is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(native, "_ZLIB_HEADER", "repro-missing-zlib.h")
        reason = "no zlib headers: cannot find repro-missing-zlib.h"
    else:
        blocker = fresh_loader / "not-a-directory"
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        reason = "is not writable"
    with caplog.at_level(logging.WARNING):
        with RlzStore.open(zz_store_path) as store:
            _serve_everything(store, gov_small)
            _serve_everything(store, gov_small)
            assert store.decode_kernel == "python"
        assert not native.available()
        assert native.decoder_name() == "python"
    (warning,) = _native_warnings(caplog)
    assert reason in warning.getMessage()
    assert "Python decoder" in warning.getMessage()

