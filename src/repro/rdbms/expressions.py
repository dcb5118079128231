"""Expression AST, three-valued-logic evaluation, and compilation.

Expressions appear in SELECT lists, WHERE/HAVING predicates, join
conditions, GROUP BY and ORDER BY keys, and UPDATE assignments.  The
evaluator implements SQL semantics:

* NULL propagates through arithmetic, comparison, LIKE and BETWEEN;
* AND/OR use Kleene three-valued logic;
* ``COALESCE`` evaluates arguments lazily (this matters for Sinew's dirty
  columns, where the second argument is a reservoir-extraction UDF that
  would be wasted work when the physical column already has the value);
* casts raise :class:`~repro.rdbms.errors.TypeCastError` exactly like
  PostgreSQL, aborting the query.

For execution, expressions are *compiled* into Python closures over a row
tuple (``compile_expr``), which keeps per-row interpretation overhead low
enough for benchmark-sized tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .errors import ExecutionError
from .types import SqlType, cast_value

Row = tuple
CompiledExpr = Callable[[Row], Any]


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression AST nodes.

    Every concrete node carries an optional ``span`` -- the ``(start, end)``
    character range it covers in the original SQL text -- populated by the
    parser and consumed by diagnostics.  Spans are excluded from equality
    and repr so that structurally identical expressions from different
    source locations still compare equal (the planner's subtree-replacement
    machinery depends on that).
    """

    span: tuple[int, int] | None = None

    def children(self) -> Iterator["Expr"]:
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (string, number, boolean, or NULL)."""

    value: Any
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference.

    ``table`` is the alias qualifier (``t1`` in ``t1."user.id"``) or None.
    ``name`` may contain dots when the logical attribute is a flattened
    nested key (``user.id``) -- Sinew's universal relation exposes those as
    ordinary quoted identifiers.
    """

    table: str | None
    name: str
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        quoted = f'"{self.name}"' if _needs_quotes(self.name) else self.name
        return f"{self.table}.{quoted}" if self.table else quoted


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a SELECT list."""

    table: str | None = None
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, logical, or concatenation operator."""

    op: str
    left: Expr
    right: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """``NOT expr`` or unary minus."""

    op: str
    operand: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``.

    Kept as a dedicated node (rather than desugared to two comparisons) so
    the operand is evaluated once per row.  The paper notes MongoDB
    precomputes the tested value while Postgres re-evaluates it for each
    bound; our Sinew build follows the single-evaluation behaviour.
    """

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.low
        yield self.high

    def __str__(self) -> str:
        not_part = "NOT " if self.negated else ""
        return f"({self.operand} {not_part}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield from self.items

    def __str__(self) -> str:
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with %/_ wildcards."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.pattern

    def __str__(self) -> str:
        return f"({self.operand} {'NOT ' if self.negated else ''}LIKE {self.pattern})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function invocation.

    Whether the name denotes an aggregate is decided by the function
    registry at planning time, not here.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name}({distinct}{inner})"


@dataclass(frozen=True)
class Coalesce(Expr):
    """``COALESCE(a, b, ...)`` with lazy argument evaluation."""

    args: tuple[Expr, ...]
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def __str__(self) -> str:
        return f"COALESCE({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST(expr AS type)`` / ``expr::type``; raises on malformed input."""

    operand: Expr
    target: SqlType
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target})"


@dataclass(frozen=True)
class AnyPredicate(Expr):
    """``scalar = ANY (array_expr)`` -- NoBench Q8's array containment."""

    needle: Expr
    haystack: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.needle
        yield self.haystack

    def __str__(self) -> str:
        return f"({self.needle} = ANY ({self.haystack}))"


_IDENTIFIER_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def _needs_quotes(name: str) -> bool:
    return not _IDENTIFIER_RE.match(name)


# ---------------------------------------------------------------------------
# Evaluation helpers (three-valued logic)
# ---------------------------------------------------------------------------


def _compare(op: str, left: Any, right: Any) -> bool | None:
    """SQL comparison with NULL propagation and type bracketing.

    Cross-type comparisons between numbers work (INTEGER vs REAL); any other
    cross-type comparison is UNKNOWN (None), mirroring how Sinew's typed
    extraction sidesteps mixed-type keys by returning NULL for values of the
    wrong type.
    """
    if left is None or right is None:
        return None
    left_is_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_is_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_is_num != right_is_num or (
        not left_is_num and type(left) is not type(right)
    ):
        if op == "=":
            return False
        if op in ("<>", "!="):
            return True
        return None
    try:
        if op == "=":
            return left == right
        if op in ("<>", "!="):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return None
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"operator {op!r} requires numeric operands, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return left // right if (left % right == 0) else left / right
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _kleene_and(left: bool | None, right: bool | None) -> bool | None:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: bool | None, right: bool | None) -> bool | None:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class Resolver:
    """Maps column references to positions in the runtime row tuple."""

    def resolve(self, ref: ColumnRef) -> int:
        raise NotImplementedError

    def resolve_function(self, name: str):
        """Return the scalar-function implementation for ``name``."""
        raise NotImplementedError


class SchemaResolver(Resolver):
    """Resolver over a flat list of (qualifier, name) output columns.

    Used by operators whose input row layout is a concatenation of base
    table columns (scans, joins).  Raises on genuinely ambiguous unqualified
    references, as a SQL engine must.
    """

    def __init__(self, columns: Sequence[tuple[str | None, str]], functions=None):
        self.columns = list(columns)
        self._functions = functions
        self._by_name: dict[str, list[int]] = {}
        self._by_qualified: dict[tuple[str, str], int] = {}
        for position, (qualifier, name) in enumerate(self.columns):
            self._by_name.setdefault(name, []).append(position)
            if qualifier is not None:
                self._by_qualified[(qualifier, name)] = position

    def resolve(self, ref: ColumnRef) -> int:
        if ref.table is not None:
            key = (ref.table, ref.name)
            if key in self._by_qualified:
                return self._by_qualified[key]
            raise ExecutionError(f"no such column: {ref.table}.{ref.name}")
        positions = self._by_name.get(ref.name, [])
        if len(positions) == 1:
            return positions[0]
        if not positions:
            raise ExecutionError(f"no such column: {ref.name!r}")
        raise ExecutionError(f"ambiguous column reference: {ref.name!r}")

    def resolve_function(self, name: str):
        if self._functions is None:
            raise ExecutionError(f"no function registry available for {name!r}")
        return self._functions.scalar(name)


def bind_call(implementation: Any, expr: FunctionCall) -> Any:
    """The function's kernel bound to the call's literal key, or None.

    Applies to ``fn(value, '<key>')`` calls of functions registered with a
    ``bind`` hook (the reservoir extraction UDFs).  Both compilers use the
    bound kernel in place of the per-row call, so a literal key is resolved
    once per compiled expression; other calls keep the per-row path.
    """
    if implementation.bind is None or len(expr.args) != 2:
        return None
    key = expr.args[1]
    if not isinstance(key, Literal) or not isinstance(key.value, str):
        return None
    return implementation.bind(key.value)


def compile_expr(expr: Expr, resolver: Resolver) -> CompiledExpr:
    """Compile an expression tree into a closure ``row -> value``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ColumnRef):
        position = resolver.resolve(expr)
        return lambda row: row[position]

    if isinstance(expr, BinaryOp):
        left = compile_expr(expr.left, resolver)
        right = compile_expr(expr.right, resolver)
        op = expr.op
        if op == "AND":
            return lambda row: _kleene_and(left(row), right(row))
        if op == "OR":
            return lambda row: _kleene_or(left(row), right(row))
        if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return lambda row: _compare(op, left(row), right(row))
        return lambda row: _arith(op, left(row), right(row))

    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, resolver)
        if expr.op == "NOT":
            def _not(row: Row) -> bool | None:
                value = operand(row)
                return None if value is None else not value

            return _not
        if expr.op == "-":
            def _neg(row: Row) -> Any:
                value = operand(row)
                return None if value is None else -value

            return _neg
        if expr.op == "+":
            return operand
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, resolver)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expr, Between):
        operand = compile_expr(expr.operand, resolver)
        low = compile_expr(expr.low, resolver)
        high = compile_expr(expr.high, resolver)
        negated = expr.negated

        def _between(row: Row) -> bool | None:
            value = operand(row)
            result = _kleene_and(
                _compare(">=", value, low(row)), _compare("<=", value, high(row))
            )
            if negated and result is not None:
                return not result
            return result

        return _between

    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, resolver)
        items = [compile_expr(item, resolver) for item in expr.items]
        negated = expr.negated

        def _in(row: Row) -> bool | None:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif _compare("=", value, candidate) is True:
                    return not negated
            if saw_null:
                return None
            return negated

        return _in

    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, resolver)
        if isinstance(expr.pattern, Literal) and isinstance(expr.pattern.value, str):
            regex = like_to_regex(expr.pattern.value)

            def _like_const(row: Row) -> bool | None:
                value = operand(row)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return not matched if expr.negated else matched

            return _like_const
        pattern = compile_expr(expr.pattern, resolver)

        def _like(row: Row) -> bool | None:
            value = operand(row)
            pat = pattern(row)
            if value is None or pat is None:
                return None
            matched = like_to_regex(str(pat)).match(str(value)) is not None
            return not matched if expr.negated else matched

        return _like

    if isinstance(expr, Coalesce):
        compiled = [compile_expr(arg, resolver) for arg in expr.args]

        def _coalesce(row: Row) -> Any:
            for fn in compiled:
                value = fn(row)
                if value is not None:
                    return value
            return None

        return _coalesce

    if isinstance(expr, Cast):
        operand = compile_expr(expr.operand, resolver)
        target = expr.target
        return lambda row: cast_value(operand(row), target)

    if isinstance(expr, AnyPredicate):
        needle = compile_expr(expr.needle, resolver)
        haystack = compile_expr(expr.haystack, resolver)

        def _any(row: Row) -> bool | None:
            value = needle(row)
            array = haystack(row)
            if value is None or array is None:
                return None
            if not isinstance(array, (list, tuple)):
                return None
            return any(_compare("=", value, element) is True for element in array)

        return _any

    if isinstance(expr, FunctionCall):
        implementation = resolver.resolve_function(expr.name)
        counters = implementation.counters if implementation.counts_as_udf else None
        bound = bind_call(implementation, expr)
        if bound is not None:
            source = compile_expr(expr.args[0], resolver)
            if counters is None:
                return lambda row: bound(source(row))

            def _bound(row: Row) -> Any:
                counters.udf_calls += 1
                return bound(source(row))

            return _bound
        args = [compile_expr(arg, resolver) for arg in expr.args]
        fn = implementation.fn
        if counters is not None:

            def _udf(row: Row) -> Any:
                counters.udf_calls += 1
                return fn(*[a(row) for a in args])

            return _udf
        return lambda row: fn(*[a(row) for a in args])

    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def contains_function_call(expr: Expr) -> bool:
    """True when any node in the tree is a function call.

    The planner uses this to fall back to the fixed default selectivity for
    predicates the statistics subsystem cannot see through -- the exact
    behaviour the paper exploits in Table 2 (virtual columns are invisible
    to the optimizer because they hide behind ``extract_key`` UDF calls).
    """
    return any(isinstance(node, FunctionCall) for node in expr.walk())


def referenced_columns(expr: Expr) -> list[ColumnRef]:
    """All column references in the tree, in pre-order."""
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]
