"""Per-query decode cache for reservoir extraction.

Sinew's serialization (section 4.1) makes a *single* key lookup cheap, but
a query touching k virtual columns used to re-parse the same row's document
header k times -- once per ``extract_key_*`` call -- and a dirty-column
``COALESCE`` bridge added yet another parse.  The :class:`ExtractionContext`
amortises that: one context lives for the duration of one query (installed
through the function registry's query-listener hooks) and memoises

* the parsed header (attr ids + value offsets) of every reservoir value
  seen, keyed by the *identity* of the bytes object, and
* resolved nested sub-document slices, so dotted-key navigation re-reads
  a parent chain at most once per row.

Identity keying is what makes invalidation trivial: the cache pins every
cached ``bytes`` object with a strong reference, so an ``id()`` can never
be reused while its entry is alive, and any concurrent row mutation (the
background materializer replaces the whole tuple, and serialized documents
are immutable ``bytes``) produces a *new* object that simply misses the
cache.  Stale data can therefore never be served; at worst a replaced row
costs one extra decode.  See DESIGN.md section 8.
"""

from __future__ import annotations

from ..rdbms.cost import ExtractionStats
from ..rdbms.types import SqlType
from .serializer import DecodedHeader

#: Capacity of row-at-a-time scopes (serial plans, joins), where a row's
#: extractions run back to back and a handful of entries suffices; the
#: bound keeps memory flat on joins that interleave many rows.  Batch
#: pipeline scopes evaluate column-major and ask for more through
#: ``extraction_cache_capacity`` (``4 * BATCH_ROWS``, see
#: ``repro.rdbms.plan_nodes._WorkerQueryScope``).
DEFAULT_CACHE_CAPACITY = 256


class ExtractionContext:
    """Query-scoped memo of decoded headers and sub-document slices."""

    def __init__(
        self,
        stats: ExtractionStats | None = None,
        enabled: bool = True,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        self.stats = stats if stats is not None else ExtractionStats()
        self.enabled = enabled
        self.capacity = max(1, capacity)
        # id(bytes) -> (the bytes object, its parsed header); the stored
        # bytes reference pins the id against reuse, and dict insertion
        # order gives FIFO eviction
        self._headers: dict[int, tuple[bytes, DecodedHeader]] = {}
        # (id(parent bytes), child attr id) -> (parent bytes, child bytes)
        self._subdocs: dict[tuple[int, int], tuple[bytes, bytes | None]] = {}

    def header(self, data: bytes) -> DecodedHeader:
        """The parsed header of ``data``, decoded at most once per object."""
        if not self.enabled:
            self.stats.header_decodes += 1
            return DecodedHeader(data)
        key = id(data)
        entry = self._headers.get(key)
        if entry is not None and entry[0] is data:
            self.stats.header_cache_hits += 1
            return entry[1]
        self.stats.header_decodes += 1
        header = DecodedHeader(data)
        if len(self._headers) >= self.capacity:
            self._headers.pop(next(iter(self._headers)))
        self._headers[key] = (data, header)
        return header

    def subdocument(self, header: DecodedHeader, parent_id: int) -> bytes | None:
        """The nested document stored under ``parent_id``, sliced once.

        Returns the *same* bytes object on repeat calls, so recursing into
        it hits the header cache by identity.
        """
        if not self.enabled:
            self.stats.subdoc_decodes += 1
            return header.extract(parent_id, SqlType.BYTEA)
        key = (id(header.data), parent_id)
        entry = self._subdocs.get(key)
        if entry is not None and entry[0] is header.data:
            self.stats.subdoc_cache_hits += 1
            return entry[1]
        self.stats.subdoc_decodes += 1
        sub_document = header.extract(parent_id, SqlType.BYTEA)
        if len(self._subdocs) >= self.capacity:
            self._subdocs.pop(next(iter(self._subdocs)))
        self._subdocs[key] = (header.data, sub_document)
        return sub_document
