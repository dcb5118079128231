"""Start the Sinew service the way ``python -m repro.service`` does.

    python3 perfbench/server_launcher.py --summary FILE [--trace] -- SERVICE-ARGS...

The launcher prepares the process like the benchmark's own (cleared
engine environment, fsync counted instead of waited for), installs the
span wrappers when ``--trace`` is given, and then calls the service's
``main``.  When the service has shut down it writes a JSON summary: peak
RSS, engine counters at start and at close, what was still open at close
(transactions, the catalog latch) and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def engine_snapshot(sdb) -> dict:
    wal = sdb.db.wal
    latch = sdb.catalog.latch_stats
    return {
        "wal": [wal.commits, wal.fsyncs],
        "wal_bytes": wal.bytes_written,
        "latch": [latch.waits, latch.wait_seconds],
        "tuples_scanned": sdb.db.counters.tuples_scanned,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import common

    common.clean_environment()
    flushes = common.DeviceFlushes()
    flushes.install()

    from repro.core.sinew import SinewDB
    from repro.service import __main__ as service_main
    from repro.service.server import SinewService
    from tracing import Tracer

    summary: dict = {}
    original_init = SinewService.__init__
    original_close = SinewDB.close

    def service_init(service, sdb, config=None):
        original_init(service, sdb, config)
        summary["start"] = engine_snapshot(sdb)

    def close(sdb):
        summary["close"] = {
            **engine_snapshot(sdb),
            "stored_bytes": sum(sdb.storage_bytes(name) for name in sdb.collections()),
            "lane": sdb.db.config.executor_lane,
            "workers": sdb.db.config.parallel_workers,
            "active_transactions": len(sdb.db.txn_manager.active),
            "latch_owner": sdb.catalog.latch_owner,
        }
        original_close(sdb)

    SinewService.__init__ = service_init
    SinewDB.close = close
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(service=True)
    try:
        code = service_main.main(service_args)
    finally:
        if tracer is not None:
            tracer.uninstall()
        summary["peak_rss_mb"] = common.peak_rss_mb()
        summary["fsync_calls"] = flushes.calls
        if tracer is not None:
            summary["spans"] = [span.to_row() for span in tracer.spans]
        tmp = Path(args.summary + ".tmp")
        tmp.write_text(json.dumps(summary))
        tmp.replace(args.summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
