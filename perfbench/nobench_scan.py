"""nobench_scan: one embedded client in a closed loop over NoBench q1-q11.

Set-up loads 8,000 NoBench records into a durable instance and settles
them (schema analyzer + materializer), three times; the median is
``setup_s``.  Two more instances are built and settled after the timed
phase, and ``settle_s`` is the median settle part of all five.  The last
instance serves the timed phase: passes over the eleven queries in a
seed-shuffled order through ``SinewDB.query``, whole passes only, so every
run times the same query mix.  Each query's row count must equal the
untimed reference pass that precedes the timed phase.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

from common import TABLE, Outcome, json_bytes, peak_rss_mb
from layers import LayerReport, embedded_only, engine_layers
from repro.core import SinewDB
from repro.core.materializer import ColumnMaterializer
from repro.nobench import NoBenchGenerator
from tracing import Tracer

N_RECORDS = 8000
SETUP_REPEATS = 3
#: settles per run: the set-ups' and two after the timed phase, so that
#: the median spans the whole run rather than one stretch of the host's
#: CPU speed (over ten runs the median of the three set-up settles spread
#: 0.20 IQR/median while the timed phase's ops/s spread 0.09)
SETTLE_REPEATS = 5
QUERY_IDS = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10", "q11")
EXEC_COUNTS = ("udf_calls", "header_decodes", "header_cache_hits", "morsels")


class MoveCounter:
    """Counts materializer row moves in every run, traced or not.

    ``SinewDB.settle`` does not return the materializer's report, and the
    exact-count check needs the rows moved.  The hook wraps one coarse
    call (a materializer slice of up to 10,000 rows during settle), so it
    costs nothing measurable.
    """

    def __init__(self) -> None:
        self.rows_moved = 0
        self.rows_examined = 0
        self._original = None

    def install(self) -> None:
        original = self._original = ColumnMaterializer.__dict__["step"]
        counter = self

        def step(materializer, table_name, max_rows=1000):
            report = original(materializer, table_name, max_rows)
            counter.rows_moved += report.rows_moved
            counter.rows_examined += report.rows_examined
            return report

        ColumnMaterializer.step = step

    def uninstall(self) -> None:
        if self._original is not None:
            ColumnMaterializer.step = self._original
            self._original = None


@dataclass
class Setup:
    """One durable instance built and settled from the workload's documents."""

    sdb: SinewDB
    seconds: float
    settle_seconds: float
    counts: dict = field(default_factory=dict)


def build(path, documents, moves: MoveCounter) -> Setup:
    """Open a durable instance at ``path``, load ``documents`` and settle.

    The engine's default configuration is used throughout; the timer runs
    from the open until the instance is ready to serve the timed phase.
    """
    moved_before = moves.rows_moved, moves.rows_examined
    started = time.perf_counter()
    sdb = SinewDB.open(path)
    sdb.create_collection(TABLE)
    sdb.load(TABLE, documents)
    settle_started = time.perf_counter()
    sdb.settle(TABLE)
    finished = time.perf_counter()
    setup = Setup(sdb, finished - started, finished - settle_started)
    setup.counts = engine_counts(sdb, moves, moved_before)
    return setup


def engine_counts(sdb: SinewDB, moves: MoveCounter, moved_before=(0, 0)) -> dict:
    """The counts that repeat exactly for one seed in a single-client run."""
    wal = sdb.db.wal
    return {
        "wal_commits": wal.commits,
        "wal_fsyncs": wal.fsyncs,
        "wal_bytes": wal.bytes_written,
        "rows_moved": moves.rows_moved - moved_before[0],
        "rows_examined": moves.rows_examined - moved_before[1],
        "stored_bytes": sdb.storage_bytes(TABLE),
        "materialized": sorted(
            key for key, _type, storage in sdb.logical_schema(TABLE) if storage != "virtual"
        ),
    }


def query_sql(p) -> dict[str, str]:
    """The NoBench queries, kept here so the benchmark's SQL never drifts."""
    t = TABLE
    return {
        "q1": f"SELECT str1, num FROM {t}",
        "q2": f'SELECT "nested_obj.str", "nested_obj.num" FROM {t}',
        "q3": f"SELECT {p.q3_key_a}, {p.q3_key_b} FROM {t}",
        "q4": f"SELECT {p.q4_key_a}, {p.q4_key_b} FROM {t}",
        "q5": f"SELECT * FROM {t} WHERE str1 = '{p.q5_str1}'",
        "q6": f"SELECT * FROM {t} WHERE num BETWEEN {p.q6_low} AND {p.q6_high}",
        "q7": f"SELECT * FROM {t} WHERE dyn1 BETWEEN {p.q7_low} AND {p.q7_high}",
        "q8": f"SELECT * FROM {t} WHERE '{p.q8_term}' = ANY(nested_arr)",
        "q9": f"SELECT * FROM {t} WHERE {p.q9_key} = '{p.q9_value}'",
        "q10": (
            f"SELECT thousandth, count(*) FROM {t} "
            f"WHERE num BETWEEN {p.q10_low} AND {p.q10_high} GROUP BY thousandth"
        ),
        "q11": (
            f"SELECT * FROM {t} l, {t} r "
            f'WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN {p.q11_low} AND {p.q11_high}'
        ),
    }


def _counts(result) -> dict:
    stats = result.exec_stats
    return {name: stats.get(name, 0) for name in EXEC_COUNTS}


def reference_pass(sdb, sql: dict[str, str], traced: list | None) -> dict:
    """Every query once in a fixed order: row counts plus exact counts."""
    reference = {}
    for qid in QUERY_IDS:
        scanned = sdb.db.counters.tuples_scanned
        result = sdb.query(sql[qid])
        reference[qid] = {"rows": len(result.rows), **_counts(result)}
        if traced is not None:
            traced.append({**_counts(result), "tuples": sdb.db.counters.tuples_scanned - scanned})
    return reference


def timed_phase(sdb, sql, reference, seed, seconds, out, tracer=None, traced=None):
    """Closed loop of seed-shuffled passes until ``seconds`` have passed."""
    rng = random.Random(seed)
    order = list(QUERY_IDS)
    latencies = []
    failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        rng.shuffle(order)
        for qid in order:
            if tracer is not None:
                tracer.current_op = len(latencies)
            scanned = sdb.db.counters.tuples_scanned
            op_started = time.perf_counter()
            try:
                result = sdb.query(sql[qid])
                ok = len(result.rows) == reference[qid]["rows"]
            except Exception as error:  # an op failure counts; the loop goes on
                out.meta.setdefault("op_errors", []).append(f"{qid}: {error}"[:200])
                result, ok = None, False
            latencies.append((time.perf_counter() - op_started) * 1000.0)
            failed += not ok
            if traced is not None and result is not None:
                traced.append(
                    {**_counts(result), "tuples": sdb.db.counters.tuples_scanned - scanned}
                )
        if time.perf_counter() >= deadline:
            break
    return latencies, time.perf_counter() - started, failed


def run(seed: int, seconds: int, trace: bool, work) -> Outcome:
    out = Outcome()
    generator = NoBenchGenerator(N_RECORDS, seed=seed)
    documents = list(generator.documents())
    user_bytes = json_bytes(documents)
    sql = query_sql(generator.params())
    moves = MoveCounter()
    moves.install()
    tracer = Tracer() if trace else None
    setups, signatures = [], []
    traced_queries: list = []
    untraced_rate = None
    try:
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            if last and tracer is not None:
                tracer.install()
            setup = build(work.fresh("nobench"), documents, moves)
            # the reference pass is also the warm-up: it starts the executor's
            # lazily created worker threads and runs every query path once
            reference = reference_pass(
                setup.sdb, sql, traced_queries if last and tracer is not None else None
            )
            setups.append(setup)
            signatures.append({**setup.counts, "queries": reference})
            if last:
                break
            if tracer is not None and repeat == SETUP_REPEATS - 2:
                # the untraced twin of the traced run, for the overhead ratio
                latencies, elapsed, _ = timed_phase(setup.sdb, sql, reference, seed, seconds, out)
                untraced_rate = len(latencies) / elapsed
            setup.sdb.db.close(checkpoint=False)
            setup.sdb = None  # only the last instance stays resident
        sdb = setups[-1].sdb
        out.meta["lane"] = sdb.db.config.executor_lane
        out.meta["workers"] = sdb.db.config.parallel_workers
        out.meta["exact_counts"] = signatures[-1]
        if any(signature != signatures[0] for signature in signatures):
            out.errors.append(f"exact counts differ between set-ups: {signatures}")

        latencies, elapsed, failed = timed_phase(
            sdb, sql, reference, seed, seconds, out, tracer, traced_queries
        )
        if tracer is not None:
            tracer.uninstall()
        out.attempted = len(latencies)
        out.failed = failed
        out.timed(latencies, elapsed)
        out.metrics.update(
            setup_s=statistics.median(s.seconds for s in setups),
            success_ratio=(out.attempted - out.failed) / out.attempted,
            stored_bytes_per_user_byte=sdb.storage_bytes(TABLE) / user_bytes,
            wal_bytes_per_user_byte=setups[-1].counts["wal_bytes"] / user_bytes,
        )
        out.meta["setup_s_each"] = [s.seconds for s in setups]
        out.meta["user_bytes"] = user_bytes
        if tracer is not None:
            # the traced region is the last instance's whole life
            status = sdb.status()
            facts = {
                "wal": (status["wal"]["commits"], status["wal"]["fsyncs"]),
                "latch": (status["latch"]["waits"], status["latch"]["wait_seconds"]),
                "queries": traced_queries,
                "tuples_scanned": sum(q["tuples"] for q in traced_queries),
            }
            out.layers = LayerReport()
            engine_layers(out.layers, tracer.spans, facts)
            traced_rate = len(latencies) / elapsed
            out.meta["trace_overhead"] = {
                "untraced_ops_per_s": untraced_rate,
                "traced_ops_per_s": traced_rate,
            }
            out.layers.put("trace.ops_per_s_ratio", traced_rate / untraced_rate)
            embedded_only(out.layers)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        sdb.db.close(checkpoint=False)
        settles = [s.settle_seconds for s in setups]
        if tracer is None:  # the traced run reports no end-to-end metric
            for _ in range(SETTLE_REPEATS - SETUP_REPEATS):
                path = work.fresh("nobench")
                extra = build(path, documents, moves)
                extra.sdb.db.close(checkpoint=False)
                shutil.rmtree(path)
                settles.append(extra.settle_seconds)
                if extra.counts != setups[0].counts:
                    out.errors.append(f"exact counts differ between settles: {extra.counts}")
        out.metrics["settle_s"] = statistics.median(settles)
        out.meta["settle_s_each"] = settles
    finally:
        if tracer is not None:
            tracer.uninstall()
        moves.uninstall()
    return out

