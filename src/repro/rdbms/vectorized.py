"""Vectorized batch execution: column batches + batch expression kernels.

The morsel workers (thread lane *and* process lane) run the pushed-down
Scan -> Filter -> Project fragment batch-at-a-time in the MonetDB /
VectorWise style: the scan buffers :data:`BATCH_ROWS` heap rows into a
:class:`ColumnBatch`, predicates evaluate as **kernels** over a selection
vector (one Python-level loop per expression node per batch instead of
one closure call per node per row), and the projection emits a compacted
column-major output batch that the sort-key and grouping stages consume
without re-materializing rows first.

Equivalence contract (the whole point of the careful kernel design): a
batch program produces *exactly* the serial row-at-a-time results and
extraction counters --

* **Totals** match because every kernel evaluates precisely the rows the
  serial closure would have: predicates run over the survivors of the
  previous predicate (the selection vector is the cross-predicate
  short-circuit), and the lazy forms (``COALESCE``, ``IN``) refine the
  selection per argument instead of evaluating eagerly.  ``AND``/``OR``/
  ``BETWEEN``/``= ANY`` evaluate both sides unconditionally -- exactly
  what :func:`repro.rdbms.expressions.compile_expr` compiles them to.
* **Decode/hit splits** match because the per-worker extraction context
  is sized to hold at least one full batch (see
  ``_WorkerQueryScope.extraction_cache_capacity``): column-major
  evaluation touches each row's reservoir header once per kernel, and
  every kernel after the first hits the entries the first one decoded --
  the same decode-once-hit-rest pattern as row-major evaluation.

Extraction calls with a literal key (``extract_key_text(data, 'k')``)
compile to a **bound kernel** (:func:`repro.rdbms.expressions.bind_call`):
the function's bind hook resolves the key once, and the batch kernel
hands the whole argument column to ``kernel.column(values)`` -- one call
per batch instead of one UDF dispatch per row.  Its counter contract is
the per-row one: ``udf_calls`` grows by ``len(sel)`` (the logical calls),
and every row still takes its header and sub-documents through the
extraction context in row order, so decode/hit counts are unchanged
(DESIGN.md section 8, "Bound extraction kernels").  Other calls keep the
per-row loop.

Only error *positions* may differ: a failing CAST in predicate three
aborts the batch before projections of earlier rows ran, where the
streaming serial pipeline had already projected them.  Failed queries
return no counters, so nothing observable diverges.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ExecutionError
from .expressions import (
    AnyPredicate,
    Between,
    BinaryOp,
    Cast,
    Coalesce,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Resolver,
    UnaryOp,
    _arith,
    _compare,
    _kleene_and,
    _kleene_or,
    bind_call,
    like_to_regex,
)
from .types import cast_value

Row = tuple

#: Rows per column batch.  Large enough to amortize the per-batch kernel
#: dispatch over ~1k rows, small enough that the extraction-context cache
#: sized to one batch stays tiny (see module docstring).
BATCH_ROWS = 1024

#: A compiled batch expression: ``(batch, selection) -> values``, where
#: ``selection`` is a list of row indices into the batch and the result
#: is positionally aligned with it.
BatchKernel = Callable[["ColumnBatch", list[int]], list[Any]]


class ColumnBatch:
    """A fixed-size batch of rows in columnar form with a validity mask.

    Two constructions cover the pipeline's two handoffs:

    * :meth:`from_rows` wraps the row tuples a heap scan produced;
      per-column lists are sliced out lazily (one pass per *referenced*
      column -- the NoBench table has dozens of physical columns and a
      query touches a handful).
    * :meth:`from_columns` builds directly from kernel outputs (the
      projected batches filters/projections emit); rows are only zipped
      back together at the operator boundary that needs tuples.

    ``valid`` is the validity mask: filters clear bits instead of moving
    rows, and :meth:`selection` is the index form kernels consume.
    """

    __slots__ = ("n_rows", "valid", "_rows", "_columns")

    def __init__(
        self,
        n_rows: int,
        rows: list[Row] | None,
        columns: dict[int, list[Any]],
    ):
        self.n_rows = n_rows
        self.valid = bytearray(b"\x01" * n_rows)
        self._rows = rows
        self._columns = columns

    @classmethod
    def from_rows(cls, rows: list[Row]) -> "ColumnBatch":
        return cls(len(rows), rows, {})

    @classmethod
    def from_columns(cls, columns: Sequence[list[Any]], n_rows: int) -> "ColumnBatch":
        return cls(n_rows, None, dict(enumerate(columns)))

    def column(self, position: int) -> list[Any]:
        """The full per-column list for ``position`` (lazily sliced)."""
        col = self._columns.get(position)
        if col is None:
            if self._rows is None:
                raise ExecutionError(
                    f"column {position} not materialized in this batch"
                )
            col = self._columns[position] = [row[position] for row in self._rows]
        return col

    def gather(self, position: int, selection: list[int]) -> list[Any]:
        """Column values for the selected rows, aligned with ``selection``."""
        col = self.column(position)
        return [col[i] for i in selection]

    def selection(self) -> list[int]:
        """Indices of currently-valid rows, in row order."""
        valid = self.valid
        return [i for i in range(self.n_rows) if valid[i]]

    def restrict(self, keep: Iterable[int]) -> None:
        """Clear the validity mask down to ``keep`` (a subset of valid)."""
        self.valid = bytearray(self.n_rows)
        for i in keep:
            self.valid[i] = 1

    def rows(self) -> list[Row]:
        """Valid rows as tuples, in row order."""
        if self._rows is not None:
            rows = self._rows
            valid = self.valid
            if len(rows) == self.n_rows and all(valid):
                return rows
            return [rows[i] for i in range(self.n_rows) if valid[i]]
        selection = self.selection()
        n_columns = len(self._columns)
        columns = [self._columns[p] for p in range(n_columns)]
        if columns and len(selection) == self.n_rows:
            # compacted (projected) batch: every row is valid
            return list(zip(*columns))
        return [tuple(col[i] for col in columns) for i in selection]

    def __len__(self) -> int:
        return sum(self.valid)


# ---------------------------------------------------------------------------
# batch kernel compilation
# ---------------------------------------------------------------------------


def compile_batch(expr: Expr, resolver: Resolver) -> BatchKernel:
    """Compile an expression tree into a batch kernel.

    Mirrors :func:`repro.rdbms.expressions.compile_expr` node for node;
    see the module docstring for the equivalence argument.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch, sel: [value] * len(sel)

    if isinstance(expr, ColumnRef):
        position = resolver.resolve(expr)
        return lambda batch, sel: batch.gather(position, sel)

    if isinstance(expr, BinaryOp):
        left = compile_batch(expr.left, resolver)
        right = compile_batch(expr.right, resolver)
        op = expr.op
        if op == "AND":
            return lambda batch, sel: [
                _kleene_and(lv, rv)
                for lv, rv in zip(left(batch, sel), right(batch, sel))
            ]
        if op == "OR":
            return lambda batch, sel: [
                _kleene_or(lv, rv)
                for lv, rv in zip(left(batch, sel), right(batch, sel))
            ]
        if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return lambda batch, sel: [
                _compare(op, lv, rv)
                for lv, rv in zip(left(batch, sel), right(batch, sel))
            ]
        return lambda batch, sel: [
            _arith(op, lv, rv)
            for lv, rv in zip(left(batch, sel), right(batch, sel))
        ]

    if isinstance(expr, UnaryOp):
        operand = compile_batch(expr.operand, resolver)
        if expr.op == "NOT":
            return lambda batch, sel: [
                None if v is None else not v for v in operand(batch, sel)
            ]
        if expr.op == "-":
            return lambda batch, sel: [
                None if v is None else -v for v in operand(batch, sel)
            ]
        if expr.op == "+":
            return operand
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, IsNull):
        operand = compile_batch(expr.operand, resolver)
        if expr.negated:
            return lambda batch, sel: [
                v is not None for v in operand(batch, sel)
            ]
        return lambda batch, sel: [v is None for v in operand(batch, sel)]

    if isinstance(expr, Between):
        operand = compile_batch(expr.operand, resolver)
        low = compile_batch(expr.low, resolver)
        high = compile_batch(expr.high, resolver)
        negated = expr.negated

        def _between(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            out = []
            for value, lo, hi in zip(
                operand(batch, sel), low(batch, sel), high(batch, sel)
            ):
                result = _kleene_and(
                    _compare(">=", value, lo), _compare("<=", value, hi)
                )
                if negated and result is not None:
                    result = not result
                out.append(result)
            return out

        return _between

    if isinstance(expr, InList):
        operand = compile_batch(expr.operand, resolver)
        items = [compile_batch(item, resolver) for item in expr.items]
        negated = expr.negated

        def _in(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            values = operand(batch, sel)
            out: list[Any] = [None] * len(sel)
            saw_null = [False] * len(sel)
            # lazy item evaluation: each list item only runs for rows no
            # earlier item matched -- the per-row short-circuit, expressed
            # as selection refinement
            pending = [j for j, v in enumerate(values) if v is not None]
            for item in items:
                if not pending:
                    break
                candidates = item(batch, [sel[j] for j in pending])
                still_pending = []
                for j, candidate in zip(pending, candidates):
                    if candidate is None:
                        saw_null[j] = True
                        still_pending.append(j)
                    elif _compare("=", values[j], candidate) is True:
                        out[j] = not negated
                    else:
                        still_pending.append(j)
                pending = still_pending
            for j in pending:
                out[j] = None if saw_null[j] else negated
            return out

        return _in

    if isinstance(expr, Like):
        operand = compile_batch(expr.operand, resolver)
        negated = expr.negated
        if isinstance(expr.pattern, Literal) and isinstance(expr.pattern.value, str):
            regex = like_to_regex(expr.pattern.value)

            def _like_const(batch: ColumnBatch, sel: list[int]) -> list[Any]:
                out = []
                for value in operand(batch, sel):
                    if value is None:
                        out.append(None)
                        continue
                    matched = regex.match(str(value)) is not None
                    out.append(not matched if negated else matched)
                return out

            return _like_const
        pattern = compile_batch(expr.pattern, resolver)

        def _like(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            out = []
            for value, pat in zip(operand(batch, sel), pattern(batch, sel)):
                if value is None or pat is None:
                    out.append(None)
                    continue
                matched = like_to_regex(str(pat)).match(str(value)) is not None
                out.append(not matched if negated else matched)
            return out

        return _like

    if isinstance(expr, Coalesce):
        compiled = [compile_batch(arg, resolver) for arg in expr.args]

        def _coalesce(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            out: list[Any] = [None] * len(sel)
            # lazy argument evaluation (the dirty-column contract: the
            # extraction-UDF bridge argument must not run for rows whose
            # physical column already has the value)
            pending = list(range(len(sel)))
            for kernel in compiled:
                if not pending:
                    break
                values = kernel(batch, [sel[j] for j in pending])
                still_pending = []
                for j, value in zip(pending, values):
                    if value is None:
                        still_pending.append(j)
                    else:
                        out[j] = value
                pending = still_pending
            return out

        return _coalesce

    if isinstance(expr, Cast):
        operand = compile_batch(expr.operand, resolver)
        target = expr.target
        return lambda batch, sel: [
            cast_value(v, target) for v in operand(batch, sel)
        ]

    if isinstance(expr, AnyPredicate):
        needle = compile_batch(expr.needle, resolver)
        haystack = compile_batch(expr.haystack, resolver)

        def _any(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            out = []
            for value, array in zip(needle(batch, sel), haystack(batch, sel)):
                if value is None or array is None:
                    out.append(None)
                elif not isinstance(array, (list, tuple)):
                    out.append(None)
                else:
                    out.append(
                        any(
                            _compare("=", value, element) is True
                            for element in array
                        )
                    )
            return out

        return _any

    if isinstance(expr, FunctionCall):
        implementation = resolver.resolve_function(expr.name)
        counters = implementation.counters if implementation.counts_as_udf else None
        bound = bind_call(implementation, expr)
        if bound is not None:
            source = compile_batch(expr.args[0], resolver)

            def _bound_call(batch: ColumnBatch, sel: list[int]) -> list[Any]:
                if counters is not None:
                    counters.udf_calls += len(sel)
                return bound.column(source(batch, sel))

            return _bound_call
        args = [compile_batch(arg, resolver) for arg in expr.args]
        fn = implementation.fn

        def _call(batch: ColumnBatch, sel: list[int]) -> list[Any]:
            out = []
            if args:
                arg_columns = [kernel(batch, sel) for kernel in args]
                for packed in zip(*arg_columns):
                    if counters is not None:
                        counters.udf_calls += 1
                    out.append(fn(*packed))
            else:
                for _ in sel:
                    if counters is not None:
                        counters.udf_calls += 1
                    out.append(fn())
            return out

        return _call

    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# the scan-side batch pipeline
# ---------------------------------------------------------------------------


class BatchProgram:
    """Compiled Scan -> Filter -> Project fragment over column batches."""

    def __init__(
        self,
        resolver: Resolver,
        predicates: Sequence[Expr],
        projection: Sequence[Expr] | None,
        batch_rows: int = BATCH_ROWS,
    ):
        self.predicates = [compile_batch(p, resolver) for p in predicates]
        self.projection = (
            [compile_batch(e, resolver) for e in projection]
            if projection is not None
            else None
        )
        self.batch_rows = max(1, batch_rows)

    def run(self, rows: Iterable[Row]) -> Iterator[ColumnBatch]:
        """Yield output batches for a row stream.

        Projected batches are compacted (kernels ran over the survivors
        only, so every row is valid); unprojected batches keep the scan
        layout with the validity mask cleared down to the survivors --
        consumers iterate ``batch.selection()`` / ``batch.rows()``.
        """
        buffer: list[Row] = []
        append = buffer.append
        batch_rows = self.batch_rows
        for row in rows:
            append(row)
            if len(buffer) >= batch_rows:
                yield self._apply(buffer)
                buffer = []
                append = buffer.append
        if buffer:
            yield self._apply(buffer)

    def _apply(self, rows: list[Row]) -> ColumnBatch:
        batch = ColumnBatch.from_rows(rows)
        sel = list(range(batch.n_rows))
        for predicate in self.predicates:
            if not sel:
                break
            flags = predicate(batch, sel)
            sel = [i for i, flag in zip(sel, flags) if flag is True]
        batch.restrict(sel)
        if self.projection is None:
            return batch
        columns = [kernel(batch, sel) for kernel in self.projection]
        return ColumnBatch.from_columns(columns, len(sel))
