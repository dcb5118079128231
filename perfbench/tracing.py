"""Span tracing from outside the engine.

The engine has no trace spans of its own yet, so the benchmark wraps the
public entry points of each layer and records a span per call: name,
start, end, parent span and op id.  Spans stay in memory and are reduced
to per-layer figures after the run.  The wrappers are installed only in
a traced run; end-to-end figures always come from an untraced run.

Extraction is traced at the SQL extraction functions (``extract_key_*``,
``sinew_exists``, ``sinew_to_json``), the calls ``exec_stats`` counts as
``udf_calls``: one such call makes zero, one or two
``ReservoirExtractor.extract_typed`` calls, so spans at ``extract_typed``
could never be checked against the engine's count.

Parent links follow the calling thread.  Morsel work that the thread
lane runs on pool threads is linked back through a wrapper around
``ExecutorPool.map_morsels``, which hands the submitting thread's op id
and span to each morsel.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable

#: (module, class, method, span name) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.core.sinew", "SinewDB", "load", "sinew.load"),
    ("repro.core.sinew", "SinewDB", "query", "sinew.query"),
    ("repro.core.sinew", "SinewDB", "analyze_schema", "sinew.analyze_schema"),
    ("repro.core.sinew", "SinewDB", "materializer_step", "sinew.materializer_step"),
    ("repro.core.sinew", "SinewDB", "settle", "sinew.settle"),
    ("repro.analysis.analyzer", "SemanticAnalyzer", "analyze", "analyzer.analyze"),
    ("repro.core.rewriter", "QueryRewriter", "rewrite_select", "rewriter.rewrite_select"),
    ("repro.rdbms.planner", "Planner", "plan_select", "planner.plan_select"),
    ("repro.core.materializer", "ColumnMaterializer", "step", "materializer.step"),
    ("repro.rdbms.transactions", "WriteAheadLog", "append", "wal.append"),
    ("repro.rdbms.transactions", "WriteAheadLog", "sync", "wal.sync"),
)

#: ``Session`` methods that run one client op on the server; each call
#: gets the op id ``(session id, n-th statement of the session)``.
SERVICE_STATEMENTS = ("execute_sql", "execute_prepared", "load_documents")

#: Modules that call the SQL parser through their own ``parse`` name.
PARSE_USERS = (
    "repro.core.sinew",
    "repro.rdbms.database",
    "repro.service.session",
    "repro.service.server",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "result")

    def __init__(self, span_id, name, start, parent, op, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        #: small tuple summarizing the call's return value, when kept
        self.result = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.op, self.thread, self.result]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5], row[6])
        span.end = row[3]
        span.result = row[7]
        return span


#: What a traced call keeps of its return value (LoadReport and
#: MaterializerReport counts).
SUMMARIES = {
    "sinew.load": lambda report: (report.n_documents, report.serialized_bytes),
    "materializer.step": lambda report: (report.rows_moved, report.rows_examined),
}


class Tracer:
    """Records spans around wrapped entry points; installable and removable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: op id stamped on spans of threads that have none of their own
        #: (the single embedded client sets it around each op)
        self.current_op: Any = None
        # statements seen per service session (one client op each)
        self._statements: dict[int, int] = {}

    # -- context --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _op(self) -> Any:
        op = getattr(self._local, "op", None)
        return self.current_op if op is None else op

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter_ns(),
            stack[-1] if stack else None,
            self._op(),
            threading.get_ident(),
        )
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if summarize is not None:
                span.result = summarize(result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, service: bool = False) -> None:
        import importlib

        from repro.core.extractors import EXTRACTION_UDFS, ReservoirExtractor
        from repro.rdbms.executor import ExecutorPool
        from repro.rdbms.sql import parser

        for module_name, owner_name, attribute, name in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            self._patch(owner, attribute, self.span(name, owner.__dict__[attribute]))
        # The SQL-callable extraction functions, whose calls ``udf_calls``
        # counts.  An instance binds them when it is built, so only
        # instances built after install() are traced here.
        for method, _type in EXTRACTION_UDFS.values():
            original = ReservoirExtractor.__dict__[method]
            self._patch(ReservoirExtractor, method, self.span("extractors.udf", original))
        if service:
            from repro.service.session import Session

            for attribute in SERVICE_STATEMENTS:
                self._patch(Session, attribute, self._traced_statement(Session.__dict__[attribute]))
        traced_parse = self.span("parser.parse", parser.parse)
        for module_name in PARSE_USERS:
            module = importlib.import_module(module_name)
            if module.__dict__.get("parse") is parser.parse:
                self._patch(module, "parse", traced_parse)
        self._patch(ExecutorPool, "map_morsels", self._traced_map_morsels(ExecutorPool.map_morsels))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _traced_statement(self, original: Callable) -> Callable:
        tracer = self
        traced = self.span("service.statement", original)

        @functools.wraps(original)
        def statement(session, *args, **kwargs):
            seq = tracer._statements.get(session.id, 0)
            tracer._statements[session.id] = seq + 1
            tracer._local.op = [session.id, seq]
            try:
                return traced(session, *args, **kwargs)
            finally:
                tracer._local.op = None

        return statement

    def _traced_map_morsels(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def map_morsels(pool, fn, morsels):
            op = tracer._op()
            span = tracer.open("executor.map_morsels")
            traced_fn = tracer.span("executor.morsel", fn)

            def morsel_task(morsel):
                # runs on a pool thread (or inline): adopt the submitter's
                # op id and hang the morsel under its map_morsels span
                local = tracer._local
                saved = getattr(local, "stack", None), getattr(local, "op", None)
                local.stack, local.op = [span.id], op
                try:
                    return traced_fn(morsel)
                finally:
                    local.stack, local.op = saved

            try:
                return original(pool, morsel_task, morsels)
            finally:
                tracer.close(span)

        return map_morsels


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a set of (start, end) intervals."""
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        covered = union_ns(
            [
                (max(start, span.start), min(end, span.end))
                for start, end in children.get(span.id, ())
                if end > span.start and start < span.end
            ]
        )
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.end - span.start - covered
        ) / 1e9
    return totals


def top_level(spans: list[Span], name: str) -> list[Span]:
    """Spans of ``name`` not nested inside another span of the same name."""
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            result.append(span)
    return result

