"""Reduce a traced run to the per-layer metrics.

Each metric belongs to one engine layer (named after its module).  Times
come from the spans of :mod:`tracing`; counts come from the engine's own
counters (``exec_stats``, ``SinewDB.status()``, ``wal_status()`` and the
service ``status`` op).  Where a wrapper count must equal an engine count
and does not, the layer's time is reported as unmeasured with the reason
rather than guessed.
"""

from __future__ import annotations

import statistics

from tracing import Span, self_seconds, top_level, union_ns

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "service.overhead_ms_p50": "ms",
    "service.shed_busy": "count",
    "service.errors": "count",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.stale_evictions": "count",
    "parser.ms_per_stmt": "ms",
    "analyzer.ms_per_stmt": "ms",
    "rewriter.ms_per_stmt": "ms",
    "planner.ms_per_stmt": "ms",
    "executor.self_ms_per_query": "ms",
    "executor.us_per_row": "us",
    "executor.morsels": "count/query",
    "extractors.udf_calls": "count/query",
    "extractors.header_decodes": "count/query",
    "extractors.header_hit_ratio": "ratio",
    "extractors.us_per_call": "us",
    "loader.us_per_doc": "us",
    "serializer.bytes_per_doc": "B",
    "schema_analyzer.s": "s",
    "materializer.rows_moved": "count",
    "materializer.rows_examined": "count",
    "materializer.moved_ratio": "ratio",
    "materializer.us_per_row_moved": "us",
    "wal.commits": "count",
    "wal.fsyncs": "count",
    "wal.fsyncs_per_doc": "count/doc",
    "wal.append_us": "us",
    "latch.waits": "count",
    "latch.wait_s": "s",
    "daemon.rows_moved": "count",
    "daemon.steps": "count",
    "daemon.latch_waits": "count",
    "trace.ops_per_s_ratio": "ratio",
}

#: spans of the front end, in pipeline order
FRONT_END = ("parser.parse", "analyzer.analyze", "rewriter.rewrite_select", "planner.plan_select")

#: one call of a SQL extraction function (what ``udf_calls`` counts)
EXTRACT = "extractors.udf"


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


class LayerReport:
    """Collects metric values and the reasons some are unmeasured."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.unmeasured: dict[str, str] = {}
        #: span name -> [calls, self seconds]: the written-out trace
        self.span_totals: dict[str, list] = {}

    def put(self, name: str, value: float | None, reason: str = "no work of this kind") -> None:
        if value is None:
            self.unmeasured[name] = reason
        else:
            self.values[name] = value

    def absent(self, names, reason: str) -> None:
        for name in names:
            self.unmeasured[name] = reason

    def metrics(self) -> dict:
        """Every per-layer metric; an unmeasured one reads 0."""
        return {
            name: {"value": self.values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }


def descendants(spans: list[Span]) -> dict[int, list[Span]]:
    """span id -> every span below it (across threads, via parent links)."""
    by_id = {span.id: span for span in spans}
    below: dict[int, list[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None:
            below.setdefault(parent.id, []).append(span)
            parent = by_id.get(parent.parent)
    return below


def engine_layers(report: LayerReport, spans: list[Span], facts: dict) -> None:
    """Front end, executor, extraction, loader, analyzer, materializer, WAL.

    ``facts`` carries the engine counts of the traced region:
    ``queries`` (exec_stats of each traced query), ``tuples_scanned``,
    ``wal`` (commits, fsyncs) and ``latch`` (waits, wait seconds).
    """
    self_time = self_seconds(spans)
    for span in spans:
        report.span_totals.setdefault(span.name, [0, round(self_time[span.name], 6)])[0] += 1
    queries = top_level(spans, "sinew.query")
    n_queries = len(queries)
    for name in FRONT_END:
        metric = name.split(".")[0] + ".ms_per_stmt"
        report.put(metric, _ratio(self_time.get(name, 0.0) * 1000.0, n_queries))

    below = descendants(spans)
    stats = facts.get("queries", [])
    udf_calls = sum(stat.get("udf_calls", 0) for stat in stats)
    decodes = sum(stat.get("header_decodes", 0) for stat in stats)
    hits = sum(stat.get("header_cache_hits", 0) for stat in stats)
    morsels = sum(stat.get("morsels", 0) for stat in stats)
    outermost = {span.id for span in top_level(spans, EXTRACT)}
    query_extraction = []
    executor_self = 0.0
    for query in queries:
        under = below.get(query.id, [])
        front = [(span.start, span.end) for span in under if span.name in FRONT_END]
        extracts = [span for span in under if span.id in outermost]
        query_extraction.extend(extracts)
        covered = union_ns(front + [(span.start, span.end) for span in extracts])
        executor_self += (query.end - query.start - covered) / 1e9
    traced_morsels = sum(
        1 for query in queries for span in below.get(query.id, []) if span.name == "executor.morsel"
    )

    report.put("extractors.udf_calls", _ratio(udf_calls, n_queries))
    report.put("extractors.header_decodes", _ratio(decodes, n_queries))
    report.put("extractors.header_hit_ratio", _ratio(hits, hits + decodes))
    report.put("executor.morsels", _ratio(morsels or traced_morsels, n_queries))
    if stats and morsels != traced_morsels:
        report.unmeasured["executor.morsels"] = (
            f"wrapped morsel count {traced_morsels} != exec_stats morsels {morsels}"
        )
    if not n_queries:
        report.absent(
            ("extractors.us_per_call", "executor.self_ms_per_query", "executor.us_per_row"),
            "no queries in the traced region",
        )
    elif len(query_extraction) == udf_calls:
        report.put(
            "extractors.us_per_call",
            _ratio(sum(span.seconds for span in query_extraction) * 1e6, udf_calls),
        )
        report.put("executor.self_ms_per_query", _ratio(executor_self * 1000.0, n_queries))
        report.put(
            "executor.us_per_row",
            _ratio(executor_self * 1e6, facts.get("tuples_scanned", 0)),
        )
    else:
        reason = (
            f"wrapped extraction calls {len(query_extraction)} != exec_stats "
            f"udf_calls {udf_calls} (exec_stats udf_calls is an engine-wide delta, "
            f"so concurrent statements and the daemon leak into it); extraction "
            f"and executor time not separable"
        )
        report.absent(
            ("extractors.us_per_call", "executor.self_ms_per_query", "executor.us_per_row"),
            reason,
        )

    loads = top_level(spans, "sinew.load")
    docs = sum(span.result[0] for span in loads)
    serialized = sum(span.result[1] for span in loads)
    report.put("loader.us_per_doc", _ratio(self_time.get("sinew.load", 0.0) * 1e6, docs))
    report.put("serializer.bytes_per_doc", _ratio(serialized, docs))

    analyses = top_level(spans, "sinew.analyze_schema")
    report.put(
        "schema_analyzer.s",
        statistics.fmean(span.seconds for span in analyses) if analyses else None,
    )

    steps = top_level(spans, "materializer.step")
    moved = sum(span.result[0] for span in steps)
    examined = sum(span.result[1] for span in steps)
    report.put("materializer.rows_moved", moved)
    report.put("materializer.rows_examined", examined)
    report.put("materializer.moved_ratio", _ratio(moved, examined))
    report.put(
        "materializer.us_per_row_moved",
        _ratio(sum(span.seconds for span in steps) * 1e6, moved),
    )

    commits, fsyncs = facts["wal"]
    appends = [span for span in spans if span.name == "wal.append"]
    report.put("wal.commits", commits)
    report.put("wal.fsyncs", fsyncs)
    report.put("wal.fsyncs_per_doc", _ratio(fsyncs, docs))
    report.put(
        "wal.append_us",
        statistics.fmean(span.seconds for span in appends) * 1e6 if appends else None,
    )
    waits, wait_seconds = facts["latch"]
    report.put("latch.waits", waits)
    report.put("latch.wait_s", wait_seconds)


def embedded_only(report: LayerReport) -> None:
    """Per-layer metrics that only the service workload can measure."""
    report.absent(
        ("service.overhead_ms_p50", "service.shed_busy", "service.errors"),
        "embedded workload: no service layer",
    )
    report.absent(
        ("plan_cache.hit_ratio", "plan_cache.stale_evictions"),
        "embedded default runs with the plan cache off",
    )
    report.absent(
        ("daemon.rows_moved", "daemon.steps", "daemon.latch_waits"),
        "embedded workload drives the materializer itself; no daemon runs",
    )
