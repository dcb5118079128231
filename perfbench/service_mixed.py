"""service_mixed: a mixed read/write traffic mix against the Sinew service.

Set-up builds a durable instance with 2,000 settled NoBench documents,
closes it and starts the service on it in its own process (through
``server_launcher.py``, default options: materializer daemon on, no
checkpointer, 256-entry plan cache); ``setup_s`` runs from the open until
the server answers a ping, median of five.  ``settle_s`` is the median
of twelve settles of the preload: the five set-ups' and seven more on
their own after the timed phase.  The timed phase is a closed
loop on two connections (the 2-CPU reference machine's core count) driven
by one client thread.  The op mix, drawn from the seed:

* 50% point lookups on ``str1`` with ad-hoc literals over 1,000 keys,
  four times the plan cache, so most of them miss it;
* 20% equality on a sparse key, which stays a virtual column;
* 20% a prepared q10-shaped ``GROUP BY``, a plan-cache hit unless a write
  has moved the data epoch since it was last prepared;
* 10% loads of five new documents.

Reads are checked against what the client knows was loaded; at the end
every acknowledged write must be readable, the row count must equal the
preload plus the acknowledged documents, and the server must hold no
leftover session, transaction or latch.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import TABLE, Outcome, json_bytes
from layers import LayerReport, descendants, engine_layers
from repro.core import SinewDB
from repro.nobench import NoBenchGenerator
from repro.service.client import AsyncServiceClient
from tracing import Span, top_level, union_ns

PRELOAD = 2000
CONNECTIONS = 2
LOOKUP_KEYS = 1000
SPARSE_PAIRS = 200
DOCUMENTS_PER_LOAD = 5
#: op kinds and their shares of the mix
MIX = (("point", 50), ("sparse", 20), ("q10", 20), ("load", 10))
WARMUP_OPS = 60
#: op sequence length per requested second: far above the ~80 ops/s the
#: reference machine sustains, so the deadline, not the list, ends a run
OPS_PER_SECOND_CAP = 400
#: set-ups per run; each is short (~2 s), so five keep the median steady
SETUP_REPEATS = 5
#: settles of the preload per run (the set-ups' and the rest on their own).
#: One settle takes 1-2 s and swings by a third on a shared host; over ten
#: runs the median of five settles spread up to 0.28 (IQR/median), the
#: median of twelve 0.12-0.15.
SETTLE_REPEATS = 12
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0
LAUNCHER = Path(__file__).resolve().parent / "server_launcher.py"


class Workload:
    """The seeded documents and op sequence, and the client's knowledge of
    what has been loaded (for checking reads)."""

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(seed)
        n_ops = OPS_PER_SECOND_CAP * seconds + WARMUP_OPS
        kinds = [kind for kind, share in MIX for _ in range(share)]
        self.ops = [rng.choice(kinds) for _ in range(n_ops)]
        n_loads = self.ops.count("load")
        total = PRELOAD + DOCUMENTS_PER_LOAD * n_loads
        generator = NoBenchGenerator(total, seed=seed)
        self.documents = [generator.record(i) for i in range(total)]
        self.preload = self.documents[:PRELOAD]
        params = generator.params()
        self.q10 = (
            f"SELECT thousandth, count(*) FROM {TABLE} "
            f"WHERE num BETWEEN {params.q10_low} AND {params.q10_high} GROUP BY thousandth"
        )
        self.q10_match = {
            i for i, doc in enumerate(self.documents)
            if params.q10_low <= doc["num"] <= params.q10_high
        }
        self.keys = [self.documents[i]["str1"] for i in rng.sample(range(PRELOAD), LOOKUP_KEYS)]
        self.sparse = []
        for i in rng.sample(range(PRELOAD), SPARSE_PAIRS):
            key = rng.choice(sorted(k for k in self.documents[i] if k.startswith("sparse_")))
            value = self.documents[i][key]
            match = {j for j, doc in enumerate(self.documents) if doc.get(key) == value}
            self.sparse.append((key, value, match))
        self.rng = rng
        self.next_op = 0
        self.next_doc = PRELOAD
        #: document indexes loaded and acknowledged / sent (ack pending)
        self.acked: set[int] = set(range(PRELOAD))
        self.sent: set[int] = set(range(PRELOAD))

    def take(self):
        """The next op as (kind, argument), or None when the list is used up."""
        if self.next_op >= len(self.ops):
            return None
        kind = self.ops[self.next_op]
        self.next_op += 1
        if kind == "point":
            return kind, self.rng.choice(self.keys)
        if kind == "sparse":
            return kind, self.rng.choice(self.sparse)
        if kind == "load":
            start = self.next_doc
            self.next_doc += DOCUMENTS_PER_LOAD
            return kind, list(range(start, self.next_doc))
        return kind, None


class Connection:
    """One client connection and its op history (for trace matching)."""

    def __init__(self, client: AsyncServiceClient):
        self.client = client
        #: (statement seq on the server, round trip ms, timed?)
        self.history: list[tuple[int, float, bool]] = []
        self.statements = 0
        self.exec_stats: list[dict] = []

    async def statement(self, message: dict, timed: bool):
        """A request that runs one engine statement on the server."""
        seq = self.statements
        self.statements += 1
        started = time.perf_counter()
        try:
            response = await self.client.request(message)
        finally:
            self.history.append((seq, (time.perf_counter() - started) * 1000.0, timed))
        result = response.get("result")
        if result is not None:
            self.exec_stats.append(result.get("exec_stats", {}))
        return response


def _rows(response: dict) -> list:
    return response["result"]["rows"]


async def run_op(conn: Connection, work: Workload, op, timed: bool) -> bool:
    """Run one op and check its answer against what the client knows."""
    kind, argument = op
    if kind == "load":
        docs = [work.documents[i] for i in argument]
        work.sent.update(argument)
        response = await conn.statement(
            {"op": "load", "table": TABLE, "documents": docs}, timed
        )
        if response.get("loaded") != len(docs):
            return False
        work.acked.update(argument)
        return True
    if kind == "point":
        sql = f"SELECT str1, num FROM {TABLE} WHERE str1 = '{argument}'"
        response = await conn.statement({"op": "query", "sql": sql}, timed)
        return len(_rows(response)) == 1
    if kind == "sparse":
        key, value, match = argument
        low = len(match & work.acked)
        sql = f"SELECT str1 FROM {TABLE} WHERE {key} = '{value}'"
        response = await conn.statement({"op": "query", "sql": sql}, timed)
        return low <= len(_rows(response)) <= len(match & work.sent)
    low = len(work.q10_match & work.acked)
    response = await conn.statement({"op": "execute", "name": "q10"}, timed)
    total = sum(row[1] for row in _rows(response))
    return low <= total <= len(work.q10_match & work.sent)


async def closed_loop(conn, work, stop, timed, latencies, failures):
    """Send the next op only after the previous answer; ``stop()`` ends it."""
    while not stop():
        op = work.take()
        if op is None:
            return
        started = time.perf_counter()
        try:
            ok = await run_op(conn, work, op, timed)
        except Exception as error:  # an op failure counts; the loop goes on
            failures.append(f"{op[0]}: {error}"[:200])
            ok = False
        if timed:
            latencies.append(((time.perf_counter() - started) * 1000.0, ok))
        elif not ok:
            failures.append(f"warm-up {op[0]} failed")


async def drive(port: int, work: Workload, seconds: int, out: Outcome) -> dict:
    """Warm-up, status, timed closed loop, status, final verification."""
    conns: list[Connection] = []
    failures: list[str] = []
    try:
        for _ in range(CONNECTIONS):
            conns.append(Connection(await AsyncServiceClient("127.0.0.1", port).connect()))
            await conns[-1].client.request({"op": "prepare", "name": "q10", "sql": work.q10})
        # warm-up: the server's worker threads, the executor pool and the
        # plan cache fill before timing starts
        def warmed() -> bool:
            return work.next_op >= WARMUP_OPS

        await asyncio.gather(*(closed_loop(c, work, warmed, False, [], failures) for c in conns))
        before = (await conns[0].client.request({"op": "status"}))["status"]
        latencies: list = []
        started = time.perf_counter()
        deadline = started + seconds

        def due() -> bool:
            return time.perf_counter() >= deadline

        await asyncio.gather(*(closed_loop(c, work, due, True, latencies, failures) for c in conns))
        elapsed = time.perf_counter() - started
        after = (await conns[0].client.request({"op": "status"}))["status"]
        rows = _rows(
            await conns[0].statement({"op": "query", "sql": f"SELECT str1 FROM {TABLE}"}, False)
        )
    finally:
        for conn in conns:
            await conn.client.close()
    if failures:
        out.meta["op_errors"] = failures[:20]
    present = {row[0] for row in rows}
    missing = [i for i in work.acked if work.documents[i]["str1"] not in present]
    if missing:
        out.errors.append(f"{len(missing)} acknowledged documents are not readable")
    if len(rows) != len(work.acked):
        out.errors.append(f"final count {len(rows)} != preload + acknowledged {len(work.acked)}")
    out.errors.extend(await leftovers(port))
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "before": before,
        "after": after,
        "conns": [(c.client.session_id, c.history, c.exec_stats) for c in conns],
    }


async def leftovers(port: int) -> list[str]:
    """After the load connections close: no session, statement or latch left.

    The checking connection is itself the one session allowed.  The
    daemon may hold the catalog latch for a slice, so wait for it.
    """
    async with AsyncServiceClient("127.0.0.1", port) as client:
        deadline = time.monotonic() + 10.0
        while True:
            status = (await client.request({"op": "status"}))["status"]
            service, engine = status["service"], status["engine"]
            found = []
            if service["sessions"] != 1:
                found.append(f"{service['sessions'] - 1} leftover session(s)")
            if service["inflight"]:
                found.append(f"{service['inflight']} statement(s) in flight")
            if engine["latch"]["holder"] is not None:
                found.append(f"catalog latch held by {engine['latch']['holder']}")
            if not found or time.monotonic() >= deadline:
                return found
            await asyncio.sleep(0.05)


class Server:
    """The service in its own process, started through the launcher."""

    def __init__(self, path: Path, log: Path, summary: Path, trace: bool):
        self.summary = summary
        command = [sys.executable, str(LAUNCHER), "--summary", str(summary)]
        if trace:
            command.append("--trace")
        command += ["--", "--path", str(path), "--port", "0"]
        env = dict(os.environ, PYTHONHASHSEED="0")
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        buffer = b""
        try:
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("service did not start listening in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("service exited before listening")
                buffer += chunk
        finally:
            selector.close()
        line = buffer.split(b"\n", 1)[0].decode()
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> dict:
        """SIGTERM (graceful drain and close), wait, read the summary."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        try:
            return json.loads(self.summary.read_text())
        except (OSError, ValueError):
            return {}


async def _ping(port: int) -> None:
    async with AsyncServiceClient("127.0.0.1", port) as client:
        await client.request({"op": "ping"})


def build(path: Path, documents) -> tuple[float, int]:
    """Durable load + settle + close; returns the settle time and WAL bytes."""
    sdb = SinewDB.open(path)
    sdb.create_collection(TABLE)
    sdb.load(TABLE, documents)
    started = time.perf_counter()
    sdb.settle(TABLE)
    settle_s = time.perf_counter() - started
    wal_bytes = sdb.db.wal.bytes_written
    sdb.close()
    return settle_s, wal_bytes


def build_and_serve(path: Path, documents, work_dir, trace: bool):
    """Set-up: build the instance, then start the server on it."""
    started = time.perf_counter()
    settle_s, setup_wal_bytes = build(path, documents)
    server = Server(path, work_dir.fresh("server.log"), work_dir.fresh("summary.json"), trace)
    try:
        asyncio.run(_ping(server.port))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, settle_s, setup_wal_bytes


def run(seed: int, seconds: int, trace: bool, work_dir) -> Outcome:
    out = Outcome()
    work = Workload(seed, seconds)
    setups = []
    untraced_rate = None
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        server, setup_s, settle_s, setup_wal = build_and_serve(
            work_dir.fresh("service"), work.preload, work_dir, trace and last
        )
        setups.append((setup_s, settle_s))
        try:
            if last:
                result = asyncio.run(drive(server.port, work, seconds, out))
            elif trace and repeat == SETUP_REPEATS - 2:
                # the untraced twin of the traced run, for the overhead ratio
                twin = asyncio.run(drive(server.port, Workload(seed, seconds), seconds, out))
                untraced_rate = len(twin["latencies"]) / twin["elapsed"]
        finally:
            summary = server.stop()
    # the other settles come after the timed phase, so that the median
    # spans the whole run rather than one stretch of the host's CPU speed
    settles = []
    if not trace:  # the traced run reports no end-to-end metric
        for _ in range(SETTLE_REPEATS - SETUP_REPEATS):
            path = work_dir.fresh("settle")
            settles.append(build(path, work.preload)[0])
            shutil.rmtree(path)
    finish(out, work, result, summary, setups, settles, setup_wal)
    if trace:
        out.layers = service_layers(summary, result, out.metrics["ops_per_s"], untraced_rate)
        out.meta["trace_overhead"] = {
            "untraced_ops_per_s": untraced_rate,
            "traced_ops_per_s": out.metrics["ops_per_s"],
        }
    return out


def finish(out, work, result, summary, setups, settles, setup_wal) -> None:
    timed = result["latencies"]
    out.attempted = len(timed)
    out.failed = sum(1 for _latency, ok in timed if not ok)
    out.timed([latency for latency, _ok in timed], result["elapsed"])
    user_bytes = json_bytes(work.documents[i] for i in sorted(work.acked))
    close = summary.get("close")
    if close is None:
        out.errors.append("server summary missing: the service did not shut down cleanly")
        close = {**summary.get("start", {}), "stored_bytes": 0}
    if close.get("active_transactions"):
        out.errors.append(f"{close['active_transactions']} transaction(s) open at close")
    if close.get("latch_owner") is not None:
        out.errors.append(f"catalog latch held by {close['latch_owner']} at close")
    server_wal = close.get("wal_bytes", 0) - summary.get("start", {}).get("wal_bytes", 0)
    out.metrics.update(
        setup_s=statistics.median(s for s, _ in setups),
        settle_s=statistics.median(settles + [s for _, s in setups]),
        success_ratio=(out.attempted - out.failed) / out.attempted,
        peak_rss_mb=summary.get("peak_rss_mb", 0.0),
        stored_bytes_per_user_byte=close["stored_bytes"] / user_bytes,
        wal_bytes_per_user_byte=(setup_wal + server_wal) / user_bytes,
    )
    out.meta["setup_s_each"] = [s for s, _ in setups]
    out.meta["settle_s_each"] = settles + [s for _, s in setups]
    out.meta["user_bytes"] = user_bytes
    out.meta["lane"] = close.get("lane")
    out.meta["workers"] = close.get("workers")


def _delta(before: dict, after: dict, *path) -> float:
    for key in path:
        before, after = before[key], after[key]
    return after - before


def service_layers(summary, result, traced_rate, untraced_rate) -> LayerReport:
    report = LayerReport()
    spans = [Span.from_row(row) for row in summary.get("spans", [])]
    start, close = summary["start"], summary["close"]
    facts = {
        "wal": tuple(b - a for a, b in zip(start["wal"], close["wal"])),
        "latch": tuple(b - a for a, b in zip(start["latch"], close["latch"])),
        "tuples_scanned": close["tuples_scanned"] - start["tuples_scanned"],
        "queries": [stats for _sid, _history, all_stats in result["conns"] for stats in all_stats],
    }
    engine_layers(report, spans, facts)

    # client round trip minus the server's time inside SinewDB calls
    statements = {tuple(span.op): span for span in top_level(spans, "service.statement")}
    below = descendants(spans)
    overheads, unmatched = [], 0
    for session_id, history, _stats in result["conns"]:
        for seq, round_trip_ms, timed in history:
            span = statements.get((session_id, seq))
            if span is None:
                unmatched += 1
                continue
            engine = [
                (child.start, child.end)
                for child in below.get(span.id, [])
                if child.name.startswith("sinew.")
            ]
            if timed:
                overheads.append(round_trip_ms - union_ns(engine) / 1e6)
    report.put(
        "service.overhead_ms_p50",
        statistics.median(overheads) if overheads and not unmatched else None,
        f"{unmatched} client op(s) without a matching server statement span",
    )
    before, after = result["before"], result["after"]
    counters = ("service", "counters")
    report.put("service.shed_busy", _delta(before, after, *counters, "shed_busy"))
    report.put("service.errors", _delta(before, after, *counters, "errors"))
    cache = ("engine", "plan_cache")
    hits = _delta(before, after, *cache, "hits")
    lookups = hits + _delta(before, after, *cache, "misses")
    report.put("plan_cache.hit_ratio", hits / lookups if lookups else None)
    report.put("plan_cache.stale_evictions", _delta(before, after, *cache, "stale_evictions"))
    daemon = ("engine", "daemon")
    report.put("daemon.rows_moved", _delta(before, after, *daemon, "rows_moved"))
    report.put("daemon.steps", _delta(before, after, *daemon, "steps"))
    report.put("daemon.latch_waits", _delta(before, after, *daemon, "latch_waits"))
    report.put("trace.ops_per_s_ratio", traced_rate / untraced_rate if untraced_rate else None)
    return report
