"""Differential property test: bound extraction kernels vs the per-row UDFs.

For ``extract_key_*(data, '<literal key>')`` both expression compilers use
a kernel bound to the key (``ReservoirExtractor.binder``): the batch
compiler calls its ``column`` form, the row compiler calls it per row.  A
call whose key is *not* a literal keeps the per-row UDF method.  This test
compiles the same call three ways -- batch kernel, bound row closure, and
per-row method (the key read from a column) -- over Hypothesis-generated
NoBench-shaped documents and asserts identical values and identical
``udf_calls`` / header decode / hit / sub-document counts.

The documents cover the multi-typed ``dyn1``/``dyn2`` keys, nested
objects, a literal ``"b.c"`` key next to a nested ``b`` object (so
``a.b.c`` exists both ways and the shorter-prefix retry matters), absent
keys and NULL reservoirs.  Sub-documents extracted from the reservoir
stand in for materialized ``a`` / ``a.b`` / ``nested_obj`` columns.  The
second batch introduces keys the catalog first learns *between* the two
batches, while the kernels compiled for the first batch are reused.

A smoke run is tier-1; the larger seed set runs under ``-m slow``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import SinewCatalog
from repro.core.extractors import EXTRACTION_UDFS, ReservoirExtractor, register_extraction_udfs
from repro.core.loader import SinewLoader
from repro.rdbms.cost import CostCounters, ExtractionStats
from repro.rdbms.database import Database
from repro.rdbms.expressions import (
    ColumnRef,
    FunctionCall,
    Literal,
    SchemaResolver,
    bind_call,
    compile_expr,
)
from repro.rdbms.plan_nodes import QueryFunctions
from repro.rdbms.types import SqlType
from repro.rdbms.vectorized import ColumnBatch, compile_batch

KEYED_UDFS = [name for name, (method, _type) in EXTRACTION_UDFS.items() if method != "to_json"]

PROBE_KEYS = [
    "str1", "num", "dyn1", "dyn2", "bool", "sparse_000", "sparse_001",
    "nested_arr", "nested_obj", "nested_obj.str", "nested_obj.num",
    "a", "a.b", "a.b.c", "a.b.x", "a.b.c.d",
    "missing", "missing.key",
    # first added to the catalog by the second batch
    "late", "a.late", "a.b.late",
]

_text = st.text(alphabet="abc", max_size=3)
_int = st.integers(-3, 3)
_real = st.floats(-4, 4, allow_nan=False, width=32)

_b_object = st.fixed_dictionaries(
    {}, optional={"c": st.one_of(_int, _text), "x": _text}
)


def _documents(late: bool) -> st.SearchStrategy:
    a_fields = {"b": _b_object, "b.c": st.one_of(_int, _real, _text)}
    if late:
        a_fields["late"] = _int
    fields = {
        "str1": _text,
        "num": st.one_of(_int, _real),
        "dyn1": st.one_of(_int, _text, st.booleans()),
        "dyn2": st.one_of(_text, _int),
        "bool": st.booleans(),
        "sparse_000": _text,
        "sparse_001": _text,
        "nested_arr": st.lists(_text, max_size=3),
        "nested_obj": st.fixed_dictionaries({}, optional={"str": _text, "num": _int}),
        "a": st.fixed_dictionaries({}, optional=a_fields),
    }
    if late:
        fields["late"] = st.one_of(_int, _text)
    document = st.fixed_dictionaries({}, optional=fields)
    return st.lists(st.one_of(st.none(), document, document), max_size=8)


def _column(loader: SinewLoader, extractor: ReservoirExtractor, documents) -> list:
    """Reservoir values plus stand-ins for materialized sub-document columns."""
    values = [
        None if document is None else loader.serialize_document(document)
        for document in documents
    ]
    subdocs = [
        extractor.extract_doc(data, key)
        for data in values
        for key in ("a", "a.b", "nested_obj")
    ]
    return values + [sub for sub in subdocs if sub is not None]


class _Scope:
    """Query-listener scope: a private decode cache and stats bundle."""

    def __init__(self):
        self.extract_stats = ExtractionStats()
        self.use_extraction_cache = True
        self.extraction_cache_capacity = 4096


def _run(functions, registry, kernel, rows, batch: bool):
    """Evaluate one compiled call in a fresh query scope; values + counts."""
    scope = _Scope()
    registry.begin_query(scope)
    before = functions.counters.udf_calls
    try:
        if batch:
            values = kernel(ColumnBatch.from_rows(rows), list(range(len(rows))))
        else:
            values = [kernel(row) for row in rows]
    finally:
        registry.end_query(scope)
    counts = scope.extract_stats.as_dict()
    counts["udf_calls"] = functions.counters.udf_calls - before
    return values, counts


def _check(first_batch, second_batch):
    db = Database("bound")
    db.create_table("t", [("_id", SqlType.INTEGER), ("data", SqlType.BYTEA)])
    catalog = SinewCatalog()
    loader = SinewLoader(db, catalog)
    extractor = ReservoirExtractor(catalog)
    register_extraction_udfs(db, extractor)
    functions = QueryFunctions(db.functions, CostCounters())
    resolver = SchemaResolver([(None, "data"), (None, "key")], functions)
    data = ColumnRef(None, "data")

    compiled = []
    for name in KEYED_UDFS:
        for key in PROBE_KEYS:
            bound_call = FunctionCall(name, (data, Literal(key)))
            per_row_call = FunctionCall(name, (data, ColumnRef(None, "key")))
            compiled.append(
                (
                    name,
                    key,
                    compile_batch(bound_call, resolver),
                    compile_expr(bound_call, resolver),
                    compile_expr(per_row_call, resolver),
                )
            )
    # the kernels compiled above (keys resolved against the first batch's
    # catalog) keep serving the second batch, whose keys may be new
    for documents in (first_batch, second_batch):
        column = _column(loader, extractor, documents)
        for name, key, batch_kernel, row_kernel, per_row in compiled:
            rows = [(value, key) for value in column]
            expected = _run(functions, db.functions, per_row, rows, batch=False)
            assert _run(functions, db.functions, row_kernel, rows, batch=False) == expected, (
                name, key, "row closure",
            )
            assert _run(functions, db.functions, batch_kernel, rows, batch=True) == expected, (
                name, key, "batch kernel",
            )


@settings(max_examples=25, deadline=None)
@given(first_batch=_documents(late=False), second_batch=_documents(late=True))
def test_bound_kernels_match_per_row_udfs(first_batch, second_batch):
    _check(first_batch, second_batch)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(first_batch=_documents(late=False), second_batch=_documents(late=True))
def test_bound_kernels_match_per_row_udfs_many_seeds(first_batch, second_batch):
    _check(first_batch, second_batch)


def test_late_key_is_found_by_an_already_compiled_kernel():
    """A key absent at compile time is looked up again on the next call."""
    db = Database("late")
    db.create_table("t", [("_id", SqlType.INTEGER), ("data", SqlType.BYTEA)])
    catalog = SinewCatalog()
    loader = SinewLoader(db, catalog)
    extractor = ReservoirExtractor(catalog)
    register_extraction_udfs(db, extractor)
    resolver = SchemaResolver([(None, "data")], db.functions)
    call = FunctionCall("extract_key_text", (ColumnRef(None, "data"), Literal("late.k")))
    batch_kernel = compile_batch(call, resolver)
    row_kernel = compile_expr(call, resolver)
    early = loader.serialize_document({"x": 1})
    assert row_kernel((early,)) is None
    assert batch_kernel(ColumnBatch.from_rows([(early,)]), [0]) == [None]
    late = loader.serialize_document({"late": {"k": "v"}})
    assert row_kernel((late,)) == "v"
    assert batch_kernel(ColumnBatch.from_rows([(early,), (late,)]), [0, 1]) == [None, "v"]


def test_non_literal_and_keyless_calls_keep_the_per_row_path():
    """Only literal-key calls bind; ``sinew_to_json`` has no bind hook."""
    db = Database("paths")
    register_extraction_udfs(db, ReservoirExtractor(SinewCatalog()))
    data = ColumnRef(None, "data")

    def bound(name, *args):
        return bind_call(db.functions.scalar(name), FunctionCall(name, (data, *args)))

    for name in KEYED_UDFS:
        assert bound(name, Literal("k")) is not None
        assert bound(name, ColumnRef(None, "key")) is None
        assert bound(name, Literal(None)) is None
    assert bound("sinew_to_json") is None
