"""Per-query counters stay exact under concurrent reads.

Every query counts into a private bundle (``ExecutionContext.counters``,
reached by compiled UDF closures through a ``QueryFunctions`` view) and
folds it into the engine totals under a lock at query end.  So N
concurrent copies of one query each report exactly the serial counters,
and the engine totals grow by exactly their sum.  Table reads charged to
no query (maintenance scans, the materializer's row fetches) fold through
the same lock, so they are never lost to a concurrent query's fold.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.database import DatabaseConfig

COUNTS = (
    "udf_calls",
    "header_decodes",
    "header_cache_hits",
    "subdoc_decodes",
    "subdoc_cache_hits",
)
THREADS = 4
RUNS = 3
SQL = 'SELECT s, "o.x" FROM t WHERE k >= 0'


def _counts(result) -> dict:
    return {name: result.exec_stats[name] for name in COUNTS}


@pytest.mark.parametrize("lane", ["serial", "thread"])
def test_concurrent_queries_report_exactly_their_own_counters(lane):
    config = SinewConfig(
        database=DatabaseConfig(executor_lane=lane, parallel_workers=2)
    )
    sdb = SinewDB("counters", config)
    sdb.create_collection("t")
    sdb.load("t", [{"k": i, "s": f"v{i % 7}", "o": {"x": i}} for i in range(1000)])
    expected = _counts(sdb.query(SQL))
    # three extraction calls per row: the filter key and two projections
    assert expected["udf_calls"] == 3000

    engine = sdb.db.counters
    udf_before, scanned_before = engine.udf_calls, engine.tuples_scanned
    reported: list[dict] = []
    errors: list[BaseException] = []

    def client() -> None:
        try:
            barrier.wait()
            for _ in range(RUNS):
                reported.append(_counts(sdb.query(SQL)))
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    barrier = threading.Barrier(THREADS)
    threads = [threading.Thread(target=client) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert reported == [expected] * (THREADS * RUNS)
    assert engine.udf_calls - udf_before == THREADS * RUNS * expected["udf_calls"]
    assert engine.tuples_scanned - scanned_before == THREADS * RUNS * 1000


def test_unbundled_reads_fold_instead_of_writing_engine_totals():
    # maintenance scans and the materializer's fetches charge no query;
    # they must still go through the database's locked fold, since a
    # direct ``+= 1`` can be lost to a concurrent query's fold
    sdb = SinewDB("maintenance")
    sdb.create_collection("t")
    sdb.load("t", [{"k": i} for i in range(100)])
    table = sdb.db.table("t")
    assert table.fold_counters == sdb.db.fold_counters
    folded: list[int] = []
    table.fold_counters = lambda bundle: folded.append(bundle.tuples_scanned)
    scanned_before = sdb.db.counters.tuples_scanned

    assert len(list(table.scan())) == 100
    assert len(list(table.scan_range(10, 30))) == 20
    assert table.fetch(5) is not None

    assert sdb.db.counters.tuples_scanned == scanned_before
    assert folded == [100, 20, 1]
