"""Key-extraction functions over the column reservoir.

These are the UDFs the query rewriter substitutes for virtual-column
references (paper section 3.2.2)::

    SELECT url, extract_key_text(data, 'owner') FROM webrequests ...

Each function takes the serialized reservoir value and a (possibly dotted)
key, resolves the key against the global catalog dictionary, and performs
the O(log n) random-access extraction of section 4.1.  Type handling
follows the paper:

* the extraction is *typed*: ``extract_key_num`` applied to a key that maps
  to both integers and strings returns the numeric values and NULL for the
  strings -- "rather than throwing an exception for type mismatches ... it
  will instead selectively extract the integer values and return NULL";
* with no type context (a bare projection) ``extract_key_any`` returns the
  value "downcast to a string type".

Dotted keys navigate nested sub-documents: the serializer stores every
level's attributes under their *full* dotted names, so navigation extracts
the longest nested-document prefix and recurses.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable

from ..rdbms.database import Database
from ..rdbms.types import SqlType
from . import serializer
from .catalog import SinewCatalog
from .extraction_context import DEFAULT_CACHE_CAPACITY, ExtractionContext
from .serializer import DecodedHeader


def _found(value: Any) -> bool:
    return value is not None


class _DirectAccess:
    """Header access outside any query scope (direct use, the materializer
    thread): plain decodes, no counters."""

    @staticmethod
    def header(data: bytes) -> DecodedHeader:
        return DecodedHeader(data)

    @staticmethod
    def subdocument(header: DecodedHeader, parent_id: int) -> bytes | None:
        return header.extract(parent_id, SqlType.BYTEA)


_DIRECT = _DirectAccess()


class ReservoirExtractor:
    """Catalog-aware extraction over serialized reservoir values."""

    def __init__(self, catalog: SinewCatalog):
        self.catalog = catalog
        # per-thread stack of query-scoped decode caches: queries on the
        # main thread never share state with the materializer daemon, and
        # nested query execution (UDFs issuing queries) stays balanced
        self._local = threading.local()
        # key -> its nested-document prefixes, longest first; pure string
        # derivation, so sharing across threads/queries is safe
        self._prefixes: dict[str, tuple[str, ...]] = {}

    # -- query-scoped decode cache (FunctionRegistry listener hooks) ---------

    def begin_query(self, execution_context: Any) -> None:
        """Install a fresh :class:`ExtractionContext` for one query.

        A scope may request a larger decode cache through an
        ``extraction_cache_capacity`` attribute: the vectorized batch
        pipeline evaluates expressions column-major, so the cache must
        hold one full batch of headers for the decode/hit split to match
        row-major evaluation (see repro.rdbms.vectorized).
        """
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        capacity = getattr(execution_context, "extraction_cache_capacity", None)
        stack.append(
            ExtractionContext(
                stats=getattr(execution_context, "extract_stats", None),
                enabled=getattr(execution_context, "use_extraction_cache", True),
                capacity=capacity or DEFAULT_CACHE_CAPACITY,
            )
        )
        # mirror of stack[-1]: one getattr on the hot path instead of two
        local.top = stack[-1]

    def end_query(self, execution_context: Any) -> None:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack:
            stack.pop()
        local.top = stack[-1] if stack else None

    def _access(self) -> ExtractionContext | _DirectAccess:
        """Where headers come from: the active query's decode cache, or
        plain decodes when no query is active."""
        return getattr(self._local, "top", None) or _DIRECT

    def _header(self, data: bytes) -> DecodedHeader:
        return self._access().header(data)

    def _subdocument(self, header: DecodedHeader, parent_id: int) -> bytes | None:
        return self._access().subdocument(header, parent_id)

    # -- core navigation ----------------------------------------------------

    def extract_typed(self, data: bytes | None, key: str, sql_type: SqlType) -> Any:
        """Extract ``key`` as ``sql_type``; None when absent or mistyped.

        A stored attribute's value is never NULL (the serializer encodes
        absence by omission), so a None from ``extract`` means "absent at
        this level" and navigation can proceed without a separate
        existence probe.
        """
        if data is None:
            return None
        header = self._header(data)
        if "." in key:
            # dotted keys almost always live inside a nested document;
            # navigate the parent chain first, then fall back to a literal
            # dotted key stored at this level
            value = self._descend(
                header, key, lambda sub: self.extract_typed(sub, key, sql_type)
            )
            if value is not None:
                return value
        attr_id = self.catalog.lookup_id(key, sql_type)
        if attr_id is None:
            return None
        return header.extract(attr_id, sql_type)

    def _descend(
        self,
        header: DecodedHeader,
        key: str,
        continuation: Callable[[bytes], Any],
        found: Callable[[Any], bool] = _found,
    ) -> Any:
        """Navigate nested-document prefixes of ``key``, longest first.

        A miss inside one prefix (``found`` rejects the continuation's
        result) keeps trying *shorter* prefixes: the key may live directly
        in a shallower cell -- e.g. a literal ``"b.c"`` key inside ``a``'s
        document coexisting with a materialized ``a.b`` sub-document --
        so the longest prefix must not short-circuit navigation.
        """
        prefixes = self._prefixes.get(key)
        if prefixes is None:
            parts = key.split(".")
            prefixes = self._prefixes[key] = tuple(
                ".".join(parts[:split]) for split in range(len(parts) - 1, 0, -1)
            )
        lookup_id = self.catalog.lookup_id
        for prefix in prefixes:
            parent_id = lookup_id(prefix, SqlType.BYTEA)
            if parent_id is None or not header.has(parent_id):
                continue
            sub_document = self._subdocument(header, parent_id)
            if sub_document is None:
                continue
            value = continuation(sub_document)
            if found(value):
                return value
        return None

    def exists(self, data: bytes | None, key: str) -> bool:
        """Key-existence check (any type) without decoding the value."""
        if data is None:
            return False
        header = self._header(data)
        for attribute in self.catalog.attributes_named(key):
            if header.has(attribute.attr_id):
                return True
        result = self._descend(
            header, key, lambda sub: self.exists(sub, key), found=bool
        )
        return bool(result)

    # -- typed entry points (the registered UDFs) ---------------------------

    def extract_text(self, data: bytes | None, key: str) -> str | None:
        return self.extract_typed(data, key, SqlType.TEXT)

    def extract_int(self, data: bytes | None, key: str) -> int | None:
        return self.extract_typed(data, key, SqlType.INTEGER)

    def extract_real(self, data: bytes | None, key: str) -> float | None:
        return self.extract_typed(data, key, SqlType.REAL)

    def extract_num(self, data: bytes | None, key: str) -> int | float | None:
        """Numeric extraction: integer attribute first, then real."""
        value = self.extract_typed(data, key, SqlType.INTEGER)
        if value is not None:
            return value
        return self.extract_typed(data, key, SqlType.REAL)

    def extract_bool(self, data: bytes | None, key: str) -> bool | None:
        return self.extract_typed(data, key, SqlType.BOOLEAN)

    def extract_array(self, data: bytes | None, key: str) -> list | None:
        return self.extract_typed(data, key, SqlType.ARRAY)

    def extract_doc(self, data: bytes | None, key: str) -> bytes | None:
        return self.extract_typed(data, key, SqlType.BYTEA)

    def extract_any(self, data: bytes | None, key: str) -> str | None:
        """Untyped extraction; non-text values are downcast to text."""
        if data is None:
            return None
        header = self._header(data)
        for attribute in self.catalog.attributes_named(key):
            if header.has(attribute.attr_id):
                value = header.extract(attribute.attr_id, attribute.key_type)
                return self._downcast(value, attribute.key_type, attribute.key_name)
        return self._descend(header, key, lambda sub: self.extract_any(sub, key))

    def _downcast(
        self, value: Any, sql_type: SqlType, key_name: str = ""
    ) -> str | None:
        """Downcast a non-text value to its JSON text rendering.

        Containers reconstruct under ``key_name``'s dotted prefix (nested
        attributes are stored under full dotted names) and render as
        canonical JSON, matching what the pgjson baseline's
        ``json_get_text`` produces for the same value.
        """
        if value is None:
            return None
        if sql_type is SqlType.TEXT:
            return value
        if sql_type is SqlType.BOOLEAN:
            return "true" if value else "false"
        prefix = key_name + "." if key_name else ""
        if sql_type is SqlType.BYTEA:
            return json.dumps(self.to_dict(value, prefix=prefix), sort_keys=True)
        if sql_type is SqlType.ARRAY:
            return json.dumps(self._array_to_plain(value, prefix=prefix))
        return str(value)

    # -- whole-document reconstruction ---------------------------------------

    def to_dict(self, data: bytes | None, prefix: str = "") -> dict[str, Any]:
        """Rebuild the original (nested) document from the reservoir."""
        if data is None:
            return {}
        out: dict[str, Any] = {}
        for attr_id, raw in serializer.iterate(data):
            attribute = self.catalog.attribute(attr_id)
            local_name = attribute.key_name[len(prefix):]
            if attribute.key_type is SqlType.BYTEA:
                out[local_name] = self.to_dict(
                    bytes(raw), prefix=attribute.key_name + "."
                )
            else:
                value = serializer.decode_value(raw, attribute.key_type)
                if attribute.key_type is SqlType.ARRAY:
                    value = self._array_to_plain(
                        value, prefix=attribute.key_name + "."
                    )
                out[local_name] = value
        return out

    def _array_to_plain(self, values: list, prefix: str = "") -> list:
        """Decode nested sub-documents stored inside arrays.

        Object elements were serialized under the array key's dotted
        prefix, which must be stripped when rebuilding them.
        """
        out = []
        for element in values:
            if isinstance(element, bytes):
                out.append(self.to_dict(element, prefix=prefix))
            elif isinstance(element, list):
                out.append(self._array_to_plain(element, prefix=prefix))
            else:
                out.append(element)
        return out

    def to_json(self, data: bytes | None) -> str | None:
        if data is None:
            return None
        return json.dumps(self.to_dict(data), sort_keys=True)

    # -- reservoir mutation (materializer / UPDATE support) ------------------

    def remove_path(self, data: bytes, key: str, sql_type: SqlType) -> bytes:
        """Remove a (possibly nested) attribute from a serialized document."""
        attr_id = self.catalog.lookup_id(key, sql_type)
        if attr_id is not None and serializer.has_attribute(data, attr_id):
            return serializer.remove_attribute(data, attr_id, self.catalog.type_of)
        rewritten = self._rewrite_parent(
            data, key, lambda sub: self.remove_path(sub, key, sql_type)
        )
        return rewritten if rewritten is not None else data

    def set_path(self, data: bytes, key: str, sql_type: SqlType, value: Any) -> bytes:
        """Set (or clear, when value is None) an attribute in a document.

        For dotted keys the nested parent document must already exist; a
        missing parent leaves the document unchanged except for top-level
        keys, which are created on demand.
        """
        attr_id = self.catalog.attribute_id(key, sql_type)
        if "." not in key or serializer.has_attribute(data, attr_id):
            return serializer.add_attribute(
                data, attr_id, sql_type, value, self.catalog.type_of
            )
        rewritten = self._rewrite_parent(
            data, key, lambda sub: self.set_path(sub, key, sql_type, value)
        )
        if rewritten is not None:
            return rewritten
        return serializer.add_attribute(
            data, attr_id, sql_type, value, self.catalog.type_of
        )

    # -- bound kernels (literal keys) ------------------------------------------

    def binder(self, method: str) -> Callable[[str], "BoundExtraction"] | None:
        """The bind hook registered with the UDF ``method``, or None.

        Every SQL extraction function except ``sinew_to_json`` takes a key;
        the expression compilers call the hook with a literal key once per
        compiled expression (see :class:`BoundExtraction`).
        """
        if method not in _BOUND_TYPES:
            return None
        return lambda key: BoundExtraction(self, method, key)

    # -- process-lane support -------------------------------------------------

    def remote_token(self) -> tuple:
        """Cache key for the catalog snapshot shipped to worker processes.

        Epochs move on every DDL / DML batch, so a worker never extracts
        against attribute ids the parent has since reassigned.
        """
        catalog = self.catalog
        return (catalog.schema_epoch, catalog.data_epoch, len(catalog))

    def remote_payload(self) -> list[tuple[int, str, str]]:
        """Picklable catalog image: ``(attr_id, key_name, type value)``.

        Worker processes rebuild a :class:`SinewCatalog` from these
        triples with ``ensure_attribute`` (forced ids), giving their
        private extractor the exact dictionary the parent's documents
        were serialized against.
        """
        return [
            (attribute.attr_id, attribute.key_name, attribute.key_type.value)
            for attribute in self.catalog.all_attributes()
        ]

    def _rewrite_parent(
        self, data: bytes, key: str, transform: Callable[[bytes], bytes]
    ) -> bytes | None:
        """Apply ``transform`` to the nested document owning ``key`` and
        re-serialize the chain of parents; None when no parent exists."""
        parts = key.split(".")
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            parent_id = self.catalog.lookup_id(prefix, SqlType.BYTEA)
            if parent_id is not None and serializer.has_attribute(data, parent_id):
                sub_document = serializer.extract(data, parent_id, SqlType.BYTEA)
                new_sub = transform(sub_document)
                return serializer.add_attribute(
                    data, parent_id, SqlType.BYTEA, new_sub, self.catalog.type_of
                )
        return None


#: Per bindable UDF method: the types tried in order, or None for the
#: any-type methods, which resolve every attribute sharing the key name.
_BOUND_TYPES: dict[str, tuple[SqlType, ...] | None] = {
    "extract_text": (SqlType.TEXT,),
    "extract_int": (SqlType.INTEGER,),
    "extract_real": (SqlType.REAL,),
    "extract_num": (SqlType.INTEGER, SqlType.REAL),
    "extract_bool": (SqlType.BOOLEAN,),
    "extract_array": (SqlType.ARRAY,),
    "extract_doc": (SqlType.BYTEA,),
    "extract_any": None,
    "exists": None,
}


class BoundExtraction:
    """One extraction UDF bound to a literal key (DESIGN.md section 8).

    ``column(values)`` is the batch kernel: it extracts a whole list of
    reservoir values in one loop.  Calling the object extracts one value
    (the row closure).  Both return exactly what the per-row method
    ``method(data, key)`` returns, and take each row's header and nested
    sub-documents through the active :class:`ExtractionContext` in the
    same order, so decode and hit counts are unchanged.

    Resolution happens at the start of each call, not per row: an attr id
    that was found is kept (ids are never rebound), a key or dotted prefix
    the catalog does not know yet is looked up again on the next call, and
    the any-type methods re-read the key's attribute list on every call
    because a new type may join it.  Looking up at call start sees every
    attribute of the rows being extracted: the loader publishes a row's
    attributes to the catalog before it writes the row to the heap.
    """

    __slots__ = (
        "_extractor", "_method", "_key", "_types", "_ids",
        "_prefixes", "_prefix_ids", "_named", "_one", "_null",
        "_complete",
    )

    def __init__(self, extractor: ReservoirExtractor, method: str, key: str):
        self._extractor = extractor
        self._method = method
        self._key = key
        self._types = _BOUND_TYPES[method]
        self._ids: list[int | None] = [None] * len(self._types or ())
        parts = key.split(".")
        self._prefixes = tuple(
            ".".join(parts[:split]) for split in range(len(parts) - 1, 0, -1)
        )
        self._prefix_ids: list[int | None] = [None] * len(self._prefixes)
        self._named: tuple | None = None
        #: row function ``(data, access) -> value`` for non-NULL data;
        #: None until the first call resolves the key
        self._one: Callable[[bytes, Any], Any] | None = None
        self._null = False if method == "exists" else None
        #: every id found: calls skip resolution from then on
        self._complete = False

    def __call__(self, data: bytes | None) -> Any:
        if data is None:
            return self._null
        one = self._one if self._complete else self._resolve()
        return one(data, self._extractor._access())

    def column(self, values: list) -> list:
        """Extract every value of ``values``, positionally aligned."""
        one = self._one if self._complete else self._resolve()
        access = self._extractor._access()
        null = self._null
        return [null if data is None else one(data, access) for data in values]

    # -- resolution ----------------------------------------------------------

    def _resolve(self) -> Callable[[bytes, Any], Any]:
        """Look up what is still unknown; rebuild the row function on change."""
        catalog = self._extractor.catalog
        changed = self._one is None
        for index, prefix in enumerate(self._prefixes):
            if self._prefix_ids[index] is None:
                found = catalog.lookup_id(prefix, SqlType.BYTEA)
                if found is not None:
                    self._prefix_ids[index] = found
                    changed = True
        if self._types is not None:
            for index, sql_type in enumerate(self._types):
                if self._ids[index] is None:
                    found = catalog.lookup_id(self._key, sql_type)
                    if found is not None:
                        self._ids[index] = found
                        changed = True
        else:
            named = tuple(
                (attribute.attr_id, attribute.key_type, attribute.key_name)
                for attribute in catalog.attributes_named(self._key)
            )
            if named != self._named:
                self._named = named
                changed = True
        if changed:
            self._one = self._build()
        self._complete = (
            self._types is not None
            and None not in self._ids
            and None not in self._prefix_ids
        )
        assert self._one is not None
        return self._one

    def _build(self) -> Callable[[bytes, Any], Any]:
        # unknown prefixes are skipped, as the per-row navigation skips them
        prefix_ids = tuple(pid for pid in self._prefix_ids if pid is not None)
        if self._method == "exists":
            return _exists_row(tuple(a for a, _t, _n in self._named or ()), prefix_ids)
        if self._method == "extract_any":
            return _any_row(self._named or (), prefix_ids, self._extractor._downcast)
        assert self._types is not None
        rows = [
            _typed_row(attr_id, sql_type, prefix_ids)
            for attr_id, sql_type in zip(self._ids, self._types)
        ]
        if len(rows) == 1:
            return rows[0]
        first, second = rows

        def numeric(data: bytes, access: Any) -> Any:
            # extract_num: the integer attribute first, then the real one
            value = first(data, access)
            return value if value is not None else second(data, access)

        return numeric


def _typed_row(
    attr_id: int | None, sql_type: SqlType, prefix_ids: tuple[int, ...]
) -> Callable[[bytes, Any], Any]:
    """Row function of :meth:`ReservoirExtractor.extract_typed`, ids bound."""

    def typed(data: bytes, access: Any) -> Any:
        header = access.header(data)
        for parent_id in prefix_ids:
            # dotted keys: every nested-document prefix, longest first
            if not header.has(parent_id):
                continue
            sub_document = access.subdocument(header, parent_id)
            if sub_document is None:
                continue
            value = typed(sub_document, access)
            if value is not None:
                return value
        if attr_id is None:
            return None
        return header.extract(attr_id, sql_type)

    return typed


def _exists_row(
    attr_ids: tuple[int, ...], prefix_ids: tuple[int, ...]
) -> Callable[[bytes, Any], bool]:
    """Row function of :meth:`ReservoirExtractor.exists`, ids bound."""

    def exists(data: bytes, access: Any) -> bool:
        header = access.header(data)
        for attr_id in attr_ids:
            if header.has(attr_id):
                return True
        for parent_id in prefix_ids:
            if not header.has(parent_id):
                continue
            sub_document = access.subdocument(header, parent_id)
            if sub_document is not None and exists(sub_document, access):
                return True
        return False

    return exists


def _any_row(
    named: tuple[tuple[int, SqlType, str], ...],
    prefix_ids: tuple[int, ...],
    downcast: Callable[[Any, SqlType, str], str | None],
) -> Callable[[bytes, Any], str | None]:
    """Row function of :meth:`ReservoirExtractor.extract_any`, ids bound."""

    def extract_any(data: bytes, access: Any) -> str | None:
        header = access.header(data)
        for attr_id, sql_type, key_name in named:
            if header.has(attr_id):
                return downcast(header.extract(attr_id, sql_type), sql_type, key_name)
        for parent_id in prefix_ids:
            if not header.has(parent_id):
                continue
            sub_document = access.subdocument(header, parent_id)
            if sub_document is None:
                continue
            value = extract_any(sub_document, access)
            if value is not None:
                return value
        return None

    return extract_any


#: Map from an expected SQL type to the UDF name the rewriter emits.
EXTRACT_FUNCTION_FOR_TYPE = {
    SqlType.TEXT: "extract_key_text",
    SqlType.INTEGER: "extract_key_num",
    SqlType.REAL: "extract_key_num",
    SqlType.BOOLEAN: "extract_key_bool",
    SqlType.ARRAY: "extract_key_array",
    SqlType.BYTEA: "extract_key_doc",
    None: "extract_key_any",
}


#: The extraction UDF surface: SQL name -> (extractor method, return type).
#: Shared with the process-lane worker (repro.rdbms.process_worker), which
#: re-registers the same methods on its private extractor from the same
#: table -- the two registries cannot drift apart.
EXTRACTION_UDFS: dict[str, tuple[str, SqlType]] = {
    "extract_key_text": ("extract_text", SqlType.TEXT),
    "extract_key_int": ("extract_int", SqlType.INTEGER),
    "extract_key_real": ("extract_real", SqlType.REAL),
    "extract_key_num": ("extract_num", SqlType.REAL),
    "extract_key_bool": ("extract_bool", SqlType.BOOLEAN),
    "extract_key_array": ("extract_array", SqlType.ARRAY),
    "extract_key_doc": ("extract_doc", SqlType.BYTEA),
    "extract_key_any": ("extract_any", SqlType.TEXT),
    "sinew_exists": ("exists", SqlType.BOOLEAN),
    "sinew_to_json": ("to_json", SqlType.TEXT),
}


def register_extraction_udfs(db: Database, extractor: ReservoirExtractor) -> None:
    """Register Sinew's extraction functions on the underlying RDBMS,
    exactly as the prototype installs its UDF extension (paper section 5).

    Each function carries a ``("sinew_extract", method)`` remote spec: the
    bound methods themselves are unpicklable (they close over the catalog
    and its latches), so the process lane ships the *name* and the worker
    rebinds it to its own extractor (see repro.rdbms.process_worker).
    Each keyed function also carries the extractor's literal-key bind hook
    (:meth:`ReservoirExtractor.binder`); the worker registers the same.
    """
    for name, (method, return_type) in EXTRACTION_UDFS.items():
        db.create_function(
            name,
            getattr(extractor, method),
            return_type,
            remote_spec=("sinew_extract", method),
            bind=extractor.binder(method),
        )
    # scope the extractor's decoded-header cache to each query's lifetime
    db.functions.register_query_listener(extractor)
    # and let the planner/process lane snapshot the catalog for workers
    db.functions.remote_catalog = extractor
