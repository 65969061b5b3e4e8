"""End-to-end RLZ benchmark: set-up, hot and cold random access, search.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload get-cold --seed 1 [--seconds 10]
        [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --all --seed 1 --out DIR
    python3 benchmarks/e2e/run.py compare BASE_DIR CHANGE_DIR

A run has ``Scale.setups`` rounds.  Each sets the system up — build the
archive in a process of its own, start ``repro serve`` and wait for its
first successful reply — and then loads that server from this process: one
asyncio thread and one multiplexed ``AsyncRlzClient`` connection, offering
open-loop Poisson arrivals for a warm-up and its share of the fixed-rate
window (latency), then a closed loop with ``CONCURRENCY`` requests in
flight (throughput).  Samples are pooled over the rounds.
Every GET reply is compared byte for byte with the corpus, every SEARCH
ranking with a local ``PostingsStore.search`` over the same sidecar and
every snippet with its document; a wrong answer makes the run exit 1.

``--trace 1`` replaces the closed loop by a second fixed-rate window against a
server whose layers are wrapped in spans, and prints the per-layer metrics
named in ``BENCHMARK.json``, including the tracing overhead on ``p50_ms``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import common
import layers
import openloop
import spans
from spans import percentile

TOP_K = 10
SNIPPET_CHARS = 160
QUERIES = 500
QUERY_SEED = 7
ZIPF_S = 1.1
#: Requests kept in flight by the closed-loop throughput phase: enough to
#: keep every server stage busy, well under the server's 64-request gate so
#: no request is refused.
CONCURRENCY = 16


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "get" or "search"
    zipf: bool  # doc-id picks: Zipf over a seeded permutation, else uniform
    fixed_rps: float  # rate of the warm-up and the fixed-rate window
    slo_ms: float  # p99 limit; the fixed window is flagged above it


# Fixed rates sit near 15% of saturated throughput, so a host that slows
# down by half raises utilisation without pushing latency into queueing.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("get-hot", "get", True, 300.0, 50.0),
        Workload("get-cold", "get", False, 300.0, 50.0),
        Workload("search", "search", False, 50.0, 500.0),
    )
}


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Processes: the archive build worker and the server
# ----------------------------------------------------------------------
async def _finish(process: asyncio.subprocess.Process, timeout: float) -> None:
    """Wait for ``process`` to exit; kill it after ``timeout`` seconds."""
    try:
        await asyncio.wait_for(process.communicate(), timeout)
    except asyncio.TimeoutError:
        process.kill()
        await process.wait()


async def build_archive(archive: Path, scale: common.Scale, spans_path=None) -> dict:
    """Build the archive in ``build_worker.py``; return its JSON report."""
    command = [sys.executable, str(common.HERE / "build_worker.py"), str(archive), scale.name]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    process = await asyncio.create_subprocess_exec(
        *command, stdout=asyncio.subprocess.PIPE, env=common.child_env()
    )
    try:
        output, _ = await process.communicate()
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"archive build exited with {process.returncode}")
    return json.loads(output.decode().strip().splitlines()[-1])


class Server:
    """A ``repro serve`` subprocess (through ``serve_boot.py``)."""

    def __init__(self, process: asyncio.subprocess.Process, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @classmethod
    async def start(cls, archive: Path, scale: common.Scale, spans_path=None) -> "Server":
        command = [sys.executable, str(common.HERE / "serve_boot.py")]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        command += [
            "serve",
            str(archive),
            "--cache",
            "lru",
            "--cache-capacity",
            str(scale.cache_capacity),
        ]
        process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, env=common.child_env()
        )
        try:
            banner = (await asyncio.wait_for(process.stdout.readline(), 120)).decode()
        except BaseException:
            process.kill()
            await process.wait()
            raise
        if " on " not in banner:
            await _finish(process, 10)
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        host, port = banner.strip().rsplit(" on ", 1)[1].rsplit(":", 1)
        return cls(process, host, int(port))

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(str(self.process.pid))

    async def stop(self) -> None:
        """Graceful SIGTERM shutdown (a traced server writes its spans)."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        await _finish(self.process, 60)


def new_client(server: Server):
    """One multiplexed connection; refusals and timeouts are not retried,
    so they count as failures instead of hiding inside a latency."""
    from repro import AsyncRlzClient

    return AsyncRlzClient(
        server.host, server.port, timeout=120.0, retries=0, busy_retries=0
    )


# ----------------------------------------------------------------------
# Requests and their checks
# ----------------------------------------------------------------------
def hits_match(hits, expected, contents: Dict[int, bytes]) -> bool:
    """Ids, scores and order as the local ranking; snippets verbatim."""
    if len(hits) != len(expected):
        return False
    for hit, want in zip(hits, expected):
        start = max(0, want.hit_offset - SNIPPET_CHARS // 2)
        if (hit.doc_id, hit.score, hit.snippet_start) != (want.doc_id, want.score, start):
            return False
        if hit.snippet != contents[hit.doc_id][start : start + SNIPPET_CHARS]:
            return False
    return True


def make_request(workload: Workload, client, contents, expected, unchecked):
    """One request and its check.  A SEARCH answered before the expected
    rankings are loaded (the set-up's first reply) is kept in
    ``unchecked`` and checked later."""
    if workload.op == "get":

        async def request(doc_id: int) -> bool:
            return await client.get(doc_id) == contents[doc_id]

    else:

        async def request(query: str) -> bool:
            hits = await client.search(query, top_k=TOP_K, snippet_chars=SNIPPET_CHARS)
            if query not in expected:
                unchecked.append((query, hits))
                return True
            return hits_match(hits, expected[query], contents)

    return request


def make_picker(workload: Workload, doc_ids: List[int], queries: List[str], seed: int):
    if workload.op == "search":
        return lambda rng: rng.choice(queries)
    if not workload.zipf:
        return lambda rng: rng.choice(doc_ids)
    order = list(doc_ids)
    random.Random(seed).shuffle(order)
    weights = list(
        itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, len(order) + 1))
    )
    return lambda rng: rng.choices(order, cum_weights=weights)[0]


def failure_types() -> tuple:
    from repro import ReproError

    return (ReproError, OSError, asyncio.TimeoutError)


async def first_reply(request, argument) -> None:
    """The first request to a fresh server; ``repro serve`` prints its
    banner only once it is listening, so one attempt must succeed."""
    if not await request(argument):
        raise RuntimeError("the server's first reply was wrong")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, scale, work: Path):
        from repro.search import generate_queries

        self.workload = workload
        self.seconds = seconds
        self.scale = scale
        self.work = work
        self.corpus = common.make_corpus(scale.documents)
        self.digest = common.corpus_digest(self.corpus)
        self.contents = {document.doc_id: document.content for document in self.corpus}
        self.queries = generate_queries(self.corpus, QUERIES, seed=QUERY_SEED)
        self.pick = make_picker(workload, sorted(self.contents), self.queries, seed)
        self.first = self.queries[0] if workload.op == "search" else min(self.contents)
        self.rng = random.Random(seed)
        self.expected: Dict[str, list] = {}
        self.unchecked: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.flags: List[str] = []
        self.server: Optional[Server] = None
        self.client = None

    def drain_s(self) -> float:
        return max(0.5, 4 * self.workload.slo_ms / 1e3)

    async def connect(self, archive: Path, spans_path=None) -> None:
        self.server = await Server.start(archive, self.scale, spans_path)
        self.client = new_client(self.server)
        await first_reply(self.request(), self.first)

    async def disconnect(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        if self.server is not None:
            await self.server.stop()
            self.server = None

    def request(self):
        return make_request(
            self.workload, self.client, self.contents, self.expected, self.unchecked
        )

    async def setup(self, index: int, spans_path=None):
        """Build, serve, first reply; returns (archive, build report, seconds).

        The previous round's server is stopped first, so a build never
        competes with a server for the CPU."""
        await self.disconnect()
        archive = self.work / f"setup{index}" / "archive.rlz"
        archive.parent.mkdir()
        began = time.monotonic()
        build = await build_archive(archive, self.scale, spans_path)
        await self.connect(archive)
        elapsed = time.monotonic() - began
        if build["digest"] != self.digest:
            raise RuntimeError("the build worker's corpus differs from the load generator's")
        return archive, build, elapsed

    def check_archive(self, archive: Path) -> None:
        """Decode every document through ``iter_documents``; load the
        expected rankings from the first archive's sidecar (builds are
        deterministic, so every set-up's sidecar ranks alike)."""
        from repro import RlzArchive
        from repro.search.serving import PostingsStore, index_sidecar_path

        with RlzArchive.open(archive) as opened:
            seen = 0
            for doc_id, document in opened.iter_documents():
                seen += 1
                self.wrong += document != self.contents.get(doc_id)
        self.wrong += abs(len(self.contents) - seen)
        if self.workload.op == "search" and not self.expected:
            postings = PostingsStore.open(index_sidecar_path(archive))
            self.expected.update(
                (query, postings.search(query, top_k=TOP_K)) for query in set(self.queries)
            )
        for query, hits in self.unchecked:
            self.wrong += not hits_match(hits, self.expected[query], self.contents)
        self.unchecked.clear()

    async def window(self, rate: float, seconds: float):
        window = await openloop.open_loop(
            self.request(),
            self.pick,
            rate,
            seconds,
            self.rng,
            self.drain_s(),
            failure_types(),
        )
        self.attempted += window.attempted
        self.failed += window.failed
        self.wrong += window.wrong
        if window.first_error:
            print(f"# {window.failed} failed at {rate:.0f} rps: {window.first_error}")
        return window

    async def fixed_window(self, seconds: float):
        """Warm-up (discarded), then a measured fixed-rate window."""
        rate = self.workload.fixed_rps
        await self.window(rate, self.scale.warmup_s)
        window = await self.window(rate, seconds)
        if window.generator_bound:
            self.flags.append("fixed_window:generator_bound")
        return window

    async def saturate(self, seconds: float):
        """Closed-loop throughput with ``CONCURRENCY`` requests in flight."""
        result = await openloop.closed_loop(
            self.request(),
            self.pick,
            CONCURRENCY,
            seconds,
            self.rng,
            failure_types(),
        )
        self.attempted += result.attempted
        self.failed += result.failed
        self.wrong += result.wrong
        if result.first_error:
            print(f"# {result.failed} failed under saturation: {result.first_error}")
        return result

    async def measure(self) -> Dict[str, float]:
        """Untraced run: end-to-end metrics.

        The fixed-rate window and the closed loop are split evenly across
        the set-ups' servers and their samples pooled, so no single server
        process decides a run.
        """
        setups, latencies, saturations, server_rss = [], [], [], []
        share = 1.0 / self.scale.setups
        for index in range(self.scale.setups):
            setups.append(await self.setup(index))
            self.check_archive(setups[-1][0])
            window = await self.fixed_window(self.seconds * share)
            latencies += window.latencies
            server_rss.append(self.server.peak_rss_mb())
            saturations.append(await self.saturate(self.scale.saturation_s * share))
            print(
                f"# round {index}: setup {setups[-1][2]:.3f} s, "
                f"build {setups[-1][1]['build_s']:.3f} s, p50 {window.p50_ms:.3f} ms, "
                f"p90 {percentile(window.latencies, 0.9) * 1e3:.3f} ms, "
                f"p99 {window.p99_ms:.3f} ms, "
                f"saturated {saturations[-1].completed / saturations[-1].seconds:.1f}/s"
            )
        await self.disconnect()
        # p99 sits where stalls (GIL hand-offs, host interference) start to
        # dominate, so it swings by 2x between runs; it is reported as a
        # note, and p90 is the bounded tail metric.
        p99_ms = percentile(latencies, 0.99) * 1e3
        print(f"# p99 {p99_ms:.3f} ms over {len(latencies)} requests")
        if p99_ms > self.workload.slo_ms:
            self.flags.append("fixed_window:p99_over_slo")
        builds = [build for _, build, _ in setups]
        # Build throughput swings by 20-40% between runs of the same code on
        # a shared host, too much for a bound; it is a note here, the build
        # is bounded through setup_s, and --trace reports it per stage.
        build_mb_s = sum(build["corpus_bytes"] for build in builds) / 1e6 / sum(
            build["build_s"] for build in builds
        )
        print(f"# build {build_mb_s:.3f} MB/s over {len(builds)} builds")
        return {
            "setup_s": statistics.median(elapsed for _, _, elapsed in setups),
            "stored_pct": statistics.median(build["stored_pct"] for build in builds),
            "build_rss_mb": statistics.median(build["rss_mb"] for build in builds),
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p90_ms": percentile(latencies, 0.90) * 1e3,
            "saturated_rps": sum(s.completed for s in saturations)
            / sum(s.seconds for s in saturations),
            "server_rss_mb": statistics.median(server_rss),
        }

    async def trace(self, spans_dir: Path, label: str) -> Dict[str, float]:
        """Traced run: per-layer metrics."""
        from repro import RlzStore

        build_spans = spans_dir / f"{label}-build.jsonl"
        server_spans = spans_dir / f"{label}-server.jsonl"
        archive, build, _ = await self.setup(0, build_spans)
        self.check_archive(archive)
        untraced = await self.fixed_window(self.seconds)
        await self.disconnect()

        tracer = spans.Tracer()
        spans.install_client_wrappers(tracer)
        await self.connect(archive, server_spans)
        await self.window(self.workload.fixed_rps, self.scale.warmup_s)
        stats_before = await self.client.stats()
        window_start = time.monotonic()
        traced = await self.window(self.workload.fixed_rps, self.seconds)
        stats_after = await self.client.stats()
        await self.disconnect()
        tracer.dump(spans_dir / f"{label}-client.jsonl")

        with RlzStore.open(archive) as store:
            blob_lengths = {entry.doc_id: entry.length for entry in store.document_map}
        metrics = {
            "bench.sched_lag_p99_ms": traced.lag_p99_ms,
            "bench.achieved_ratio": traced.achieved_ratio,
            "bench.trace_overhead_ms": traced.p50_ms - untraced.p50_ms,
        }
        metrics.update(
            layers.serving_layers(
                tracer.spans,
                spans.load_spans(server_spans),
                window_start,
                stats_before,
                stats_after,
                blob_lengths,
            )
        )
        metrics.update(
            layers.build_layers(
                spans.load_spans(build_spans), build["sample"], build["corpus_bytes"]
            )
        )
        return metrics


def report(workload: str, seed: int, trace: bool, run: Run, metrics, spec) -> dict:
    """Print every metric with its unit and return the result record."""
    section = "per_layer" if trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(
        f"# workload {workload} seed {seed} trace {int(trace)} "
        f"corpus sha256 {run.digest} attempted {run.attempted} "
        f"failed {run.failed} wrong {run.wrong}"
    )
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for flag in run.flags:
        print(f"# flag {flag}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "corpus_sha256": run.digest,
        "flags": run.flags,
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


async def run_workload(name: str, args, spec, work: Path) -> dict:
    scale = common.SMOKE if args.smoke else common.FULL
    (work / name).mkdir()
    run = Run(WORKLOADS[name], args.seed, args.seconds, scale, work / name)
    spans_dir = Path(args.out) if args.out else work
    label = f"{name}-s{args.seed}"
    try:
        if args.trace:
            metrics = await run.trace(spans_dir, label)
        else:
            metrics = await run.measure()
    finally:
        await run.disconnect()
    record = report(name, args.seed, bool(args.trace), run, metrics, spec)
    if args.out:
        path = Path(args.out) / f"{label}-t{int(args.trace)}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


async def main_async(args, spec) -> int:
    task = asyncio.current_task()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, task.cancel)
    work_root = common.ROOT / ".e2e_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        names = list(WORKLOADS) if args.all else [args.workload]
        records = [await run_workload(name, args, spec, work) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if args.all:
        metrics = {
            f"{record['workload']}:{name}": value
            for record in records
            for name, value in record["metrics"].items()
        }
    else:
        metrics = records[0]["metrics"]
    result = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for result files")
    parser.add_argument("--smoke", action="store_true", help="small corpus, short phases")
    args = parser.parse_args(argv)
    common.require_source()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    return asyncio.run(main_async(args, spec))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
