"""Tests for the command-line entry points."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import (
    bench_main,
    compress_main,
    corpus_main,
    get_main,
    main,
    serve_bench_main,
    verify_main,
)


def test_corpus_and_compress_roundtrip(tmp_path, capsys):
    warc = tmp_path / "mini.warc"
    assert corpus_main([str(warc), "--kind", "gov", "--documents", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote 8 documents" in out

    container = tmp_path / "mini.repro"
    status = compress_main(
        [
            str(warc),
            str(container),
            "--method",
            "rlz",
            "--scheme",
            "ZV",
            "--dictionary-size",
            str(16 * 1024),
            "--verify",
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "all documents round-tripped" in out
    assert container.exists()


def test_corpus_url_sort_and_wikipedia(tmp_path, capsys):
    warc = tmp_path / "wiki.warc"
    assert (
        corpus_main(
            [str(warc), "--kind", "wikipedia", "--documents", "3", "--url-sort"]
        )
        == 0
    )
    assert warc.exists()


@pytest.mark.parametrize("method", ["zlib", "lzma", "ascii"])
def test_compress_baselines(tmp_path, method, capsys):
    warc = tmp_path / "c.warc"
    corpus_main([str(warc), "--documents", "6", "--seed", "1"])
    container = tmp_path / f"c-{method}.repro"
    assert (
        compress_main(
            [str(warc), str(container), "--method", method, "--block-size", "0.1", "--verify"]
        )
        == 0
    )


def test_compress_with_workers(tmp_path, capsys):
    warc = tmp_path / "w.warc"
    corpus_main([str(warc), "--documents", "6", "--seed", "2"])
    container = tmp_path / "w.repro"
    status = compress_main(
        [
            str(warc),
            str(container),
            "--dictionary-size",
            str(16 * 1024),
            "--workers",
            "2",
            "--verify",
        ]
    )
    assert status == 0
    assert "all documents round-tripped" in capsys.readouterr().out


def test_compress_with_spawn_shared_memory(tmp_path, capsys):
    warc = tmp_path / "s.warc"
    corpus_main([str(warc), "--documents", "6", "--seed", "2"])
    container = tmp_path / "s.repro"
    status = compress_main(
        [
            str(warc),
            str(container),
            "--dictionary-size",
            str(16 * 1024),
            "--workers",
            "2",
            "--start-method",
            "spawn",
            "--share-memory",
            "--verify",
        ]
    )
    assert status == 0
    assert "all documents round-tripped" in capsys.readouterr().out


def test_compress_rejects_negative_workers(tmp_path):
    warc = tmp_path / "n.warc"
    corpus_main([str(warc), "--documents", "3", "--seed", "2"])
    with pytest.raises(SystemExit):
        compress_main([str(warc), str(tmp_path / "n.repro"), "--workers", "-1"])


def test_main_dispatches_subcommands(tmp_path, capsys):
    warc = tmp_path / "m.warc"
    assert main(["corpus", str(warc), "--documents", "3"]) == 0
    assert warc.exists()
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    assert "usage: repro" in capsys.readouterr().out


def test_serve_bench_runs_and_appends_json(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    output = tmp_path / "serve.txt"
    json_path = tmp_path / "serving.json"
    status = main(
        [
            "serve-bench",
            "--clients",
            "2",
            "--repeats",
            "2",
            "--cache-capacity",
            "16",
            "--output",
            str(output),
            "--output-json",
            str(json_path),
        ]
    )
    assert status == 0
    assert "serve/async-2-clients" in output.read_text()
    records = json.loads(json_path.read_text())
    assert records[-1]["benchmark"] == "fastpath-serving"


def test_serve_bench_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        serve_bench_main(["--clients", "0"])
    with pytest.raises(SystemExit):
        serve_bench_main(["--repeats", "-1"])


@pytest.fixture()
def built_container(tmp_path):
    warc = tmp_path / "serve.warc"
    corpus_main([str(warc), "--documents", "8", "--seed", "5"])
    container = tmp_path / "serve.repro"
    compress_main(
        [str(warc), str(container), "--dictionary-size", str(16 * 1024)]
    )
    return container


def test_get_local_archive(built_container, capsys):
    from repro.storage import RlzStore

    store = RlzStore.open(built_container)
    doc_ids = store.doc_ids()[:3]
    store.close()
    status = get_main([str(built_container)] + [str(d) for d in doc_ids])
    assert status == 0
    out = capsys.readouterr().out
    for doc_id in doc_ids:
        assert f"doc {doc_id}:" in out


def test_get_requires_exactly_one_target(built_container, capsys):
    with pytest.raises(SystemExit):
        get_main(["1"])  # one positional: doc id, but no archive/--connect
    with pytest.raises(SystemExit):
        get_main([str(built_container), "--connect", "x:1", "1"])  # both
    with pytest.raises(SystemExit):
        get_main(["--connect", "not-an-address", "1"])
    # A positional that is not a readable archive fails cleanly, not with
    # a traceback.
    assert get_main(["no-such-archive.rlz", "2"]) == 1
    assert "cannot open" in capsys.readouterr().err


def test_get_reports_missing_document(built_container, capsys):
    assert get_main([str(built_container), "99999"]) == 1
    assert "repro get:" in capsys.readouterr().err


def test_stats_archive_never_loads_the_factorize_kernel(
    built_container, capsys, monkeypatch
):
    """``repro stats --archive`` is read-only: it neither compiles nor maps
    the native factorize kernel."""
    from repro.core import native

    monkeypatch.setattr(native, "_factorize_kernel", native._UNLOADED)
    assert main(["stats", "--archive", str(built_container)]) == 0
    out = capsys.readouterr().out
    assert "engine=unloaded" in out
    assert "suffix_array_nbytes=" in out
    assert native._factorize_kernel is native._UNLOADED


def test_importing_the_cli_imports_no_benchmark_module():
    """Benchmark modules load only inside the subcommands that run them,
    so ``repro serve`` does not pay for them."""
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_verify_reports_ok_then_catches_a_flipped_byte(built_container, capsys):
    assert verify_main([str(built_container)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "verified" in out
    # One flipped payload byte must flip the verdict (and the exit code).
    data = bytearray(built_container.read_bytes())
    data[-3] ^= 0x01
    built_container.write_bytes(bytes(data))
    assert verify_main([str(built_container)]) == 1
    assert "CORRUPT" in capsys.readouterr().err


def test_verify_handles_missing_and_mixed_paths(built_container, capsys):
    # A good file plus a missing one: the good one still reports, exit is 1.
    assert verify_main([str(built_container), "no-such-file.repro"]) == 1
    captured = capsys.readouterr()
    assert "OK" in captured.out
    assert "cannot verify" in captured.err
    assert main(["verify", str(built_container)]) == 0  # dispatcher wiring
    capsys.readouterr()


def test_serve_and_get_connect_end_to_end(built_container, tmp_path):
    """`repro serve` in a subprocess, `repro get --connect` against it,
    SIGINT shuts it down cleanly (exit 0, shutdown summary printed)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from repro.cli import main; import sys; "
            "sys.exit(main(sys.argv[1:]))",
            "serve",
            str(built_container),
            "--cache",
            "lru",
            "--cache-capacity",
            "32",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline()
        assert "serving" in banner, banner
        address = banner.split(" on ")[1].split()[0]
        host, port = address.rsplit(":", 1)

        from repro.serve import RlzClient

        with RlzClient(host, int(port)) as client:
            doc_ids = client.doc_ids()
            assert client.get_many(doc_ids) == [client.get(d) for d in doc_ids]

        # `repro get --connect` in-process against the live server.
        assert get_main(["--connect", f"{host}:{port}", str(doc_ids[0])]) == 0

        server.send_signal(signal.SIGINT)
        stdout, stderr = server.communicate(timeout=30)
        assert server.returncode == 0, stderr
        assert "shutdown:" in stdout
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=10)


def test_bench_main_runs_selected_experiment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    output = tmp_path / "results.txt"
    assert bench_main(["ablation-sampling", "--output", str(output)]) == 0
    assert output.exists()
    assert "Ablation" in output.read_text()
