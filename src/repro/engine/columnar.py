"""Columnar relation storage: interned id rows and the hash indexes over them.

The compiled engine (:mod:`repro.engine.compile`) does not evaluate over the
value-shaped relations of :class:`~repro.datalog.database.Database` /
:class:`~repro.engine.symbolic.SymbolicDatabase`.  It evaluates over a
:class:`ColumnarStore` — an interned, column-oriented image of the database in
which every constant is replaced by a small integer id chosen so that **id
order equals value order**:

* concrete databases intern by *rank in the sorted carrier* — ``id(a) < id(b)``
  iff ``a < b`` — so every comparison the query performs becomes a plain
  integer comparison;
* symbolic databases ``S_L`` intern a block representative by its *block
  position in the ordering L* — so comparisons decided by ``L`` become the
  same integer comparisons, and one compiled kernel serves both engines.

Constants that a query mentions but the carrier lacks cannot be given a rank
without breaking the order isomorphism; they are resolved per store into
*comparison bounds* ``(lo, hi, eq)`` (bisection ranks plus a ``-1`` equality
sentinel), which make every operator against an absent constant correct
without special cases — an absent key simply probes an index miss, and
``x < c`` compiles to ``id(x) < bisect_left(carrier, c)``.

On top of the id rows the store maintains the lazy per-``(predicate,
columns)`` hash indexes and the anti-join row sets the generated loop
kernels probe.

Stores are built once per database through :func:`store_for` (a capped global
cache — both database classes hash by value, so sweeps re-creating equal
``S_L`` objects still share one store) and are dropped by
:func:`clear_store_cache`, which ``clear_evaluation_caches`` calls.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from ..caches import register_cache
from ..datalog.terms import Constant
from ..obs import REGISTRY as _OBS
from .planner import Signature, statistics_signature


class ColumnarStore:
    """The interned, column-oriented image of one (immutable) database."""

    __slots__ = (
        "symbolic",
        "decode_values",
        "carrier_len",
        "_id_of",
        "_canonical",
        "_rows_all",
        "_rows",
        "_indexes",
        "_row_sets",
        "_bounds",
        "_decode_ids",
        "_signatures",
    )

    def __init__(self, database):  # noqa: ANN001 - Database | SymbolicDatabase
        # Deferred import: symbolic.py imports the engine package lazily too,
        # and the store only needs the class for the isinstance split.
        from .symbolic import SymbolicDatabase

        self.symbolic = isinstance(database, SymbolicDatabase)
        if self.symbolic:
            ordering = database.ordering
            representatives = [
                ordering.representative(index) for index in range(len(ordering.blocks))
            ]
            self.decode_values: list = representatives
            self._id_of: dict = {term: index for index, term in enumerate(representatives)}
            self._canonical = database.canonical
            relations = database.canonical_relations
        else:
            carrier = database.sorted_carrier()
            self.decode_values = list(carrier)
            self._id_of = {value: index for index, value in enumerate(carrier)}
            self._canonical = None
            relations = database._by_predicate
        self.carrier_len = len(self.decode_values)
        id_of = self._id_of
        rows_all: dict[str, tuple[tuple[int, ...], ...]] = {}
        for predicate, value_rows in relations.items():
            rows_all[predicate] = tuple(
                sorted(tuple(id_of[value] for value in row) for row in value_rows)
            )
        self._rows_all = rows_all
        self._rows: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {}
        self._indexes: dict[tuple[str, tuple[int, ...], int], dict] = {}
        self._row_sets: dict[str, frozenset] = {}
        self._bounds: dict[Constant, tuple[int, int, int]] = {}
        self._decode_ids: dict[Constant, int] = {}
        self._signatures: dict[tuple[tuple[str, int], ...], Signature] = {}

    # ------------------------------------------------------------------
    # Relation access (id space)
    # ------------------------------------------------------------------
    def size(self, predicate: str) -> int:
        return len(self._rows_all.get(predicate, ()))

    def rows(self, predicate: str, arity: int) -> tuple[tuple[int, ...], ...]:
        """The id rows of the relation that can match an ``arity``-ary atom."""
        key = (predicate, arity)
        cached = self._rows.get(key)
        if cached is None:
            everything = self._rows_all.get(predicate, ())
            if all(len(row) == arity for row in everything):
                cached = everything
            else:
                cached = tuple(row for row in everything if len(row) == arity)
            self._rows[key] = cached
        return cached

    def index(self, predicate: str, columns: tuple[int, ...], arity: int) -> dict:
        """A hash index over id rows on the given columns, keyed by the bare
        id for a single column and by the id tuple otherwise (single-column
        probes are by far the most common; skipping the tuple allocation on
        every probe is measurable)."""
        key = (predicate, columns, arity)
        cached = self._indexes.get(key)
        if cached is None:
            buckets: dict = {}
            if len(columns) == 1:
                column = columns[0]
                for row in self.rows(predicate, arity):
                    buckets.setdefault(row[column], []).append(row)
            else:
                for row in self.rows(predicate, arity):
                    buckets.setdefault(tuple(row[c] for c in columns), []).append(row)
            cached = {projection: tuple(bucket) for projection, bucket in buckets.items()}
            self._indexes[key] = cached
        return cached

    def row_set(self, predicate: str) -> frozenset:
        """All id rows of the relation as a set — the anti-join membership
        structure for negated atoms (arity mismatches miss naturally)."""
        cached = self._row_sets.get(predicate)
        if cached is None:
            cached = frozenset(self._rows_all.get(predicate, ()))
            self._row_sets[predicate] = cached
        return cached

    def distinct(self, predicate: str, column: int) -> int:
        """Distinct ids in one column — the planner's selectivity statistic.
        Not memoized: the planner reads it through :meth:`signature`."""
        rows = self._rows_all.get(predicate, ())
        return len({row[column] for row in rows if column < len(row)})

    def signature(self, arities: tuple[tuple[str, int], ...]) -> Signature:
        """The planner's :func:`~repro.engine.planner.statistics_signature`
        of this store for a condition's ``predicate_arities``, built once per
        store and arities, so the compiled engine's dispatch key costs one
        dict probe per evaluation."""
        cached = self._signatures.get(arities)
        if cached is None:
            cached = statistics_signature(arities, self.size, self.distinct)
            self._signatures[arities] = cached
        return cached

    # ------------------------------------------------------------------
    # Constant resolution (per store, per kernel invocation)
    # ------------------------------------------------------------------
    def bounds(self, constant: Constant) -> tuple[int, int, int]:
        """``(lo, hi, eq)`` for a query constant: ``lo``/``hi`` are the
        bisection ranks of the constant in the sorted carrier and ``eq`` its
        id (``-1`` when absent).  Every comparison operator against the
        constant reduces to one integer comparison against one of the three;
        ``eq`` also serves as the probe key for positive and negated atoms
        (the ``-1`` sentinel can never match an interned row)."""
        cached = self._bounds.get(constant)
        if cached is None:
            if self.symbolic:
                identifier = self._id_of[self._canonical(constant)]
                cached = (identifier, identifier + 1, identifier)
            else:
                value = constant.value
                identifier = self._id_of.get(value, -1)
                lo = bisect_left(self.decode_values, value, 0, self.carrier_len)
                hi = lo + 1 if identifier >= 0 else lo
                cached = (lo, hi, identifier)
            self._bounds[constant] = cached
        return cached

    def decode_id(self, constant: Constant) -> int:
        """An id whose :attr:`decode_values` entry is the constant's value
        (its block representative for symbolic stores).  Absent concrete
        constants — which can still reach query heads through equality
        definitions like ``x = 5`` — are appended to a decode-only extension
        region that comparisons and probes never see."""
        cached = self._decode_ids.get(constant)
        if cached is None:
            cached = self.bounds(constant)[2]
            if cached < 0:
                cached = len(self.decode_values)
                self.decode_values.append(constant.value)
            self._decode_ids[constant] = cached
        return cached

    def const_holds(self, left: Constant, op, right: Constant) -> bool:  # noqa: ANN001
        """Decide a comparison between two query constants: numerically for
        concrete stores, by block position (the ordering ``L``) for symbolic
        ones."""
        if self.symbolic:
            return op.holds(self.bounds(left)[2], self.bounds(right)[2])
        return op.holds(left.value, right.value)


# ----------------------------------------------------------------------
# The store cache
# ----------------------------------------------------------------------
_STORE_CACHE: dict = {}
_STORE_CACHE_LIMIT = 8192


def store_for(database) -> ColumnarStore:  # noqa: ANN001
    """The columnar image of a database, built once and cached.

    Both :class:`~repro.datalog.database.Database` and
    :class:`~repro.engine.symbolic.SymbolicDatabase` hash by value, so a sweep
    reconstructing an equal ``S_L`` (e.g. in a worker re-deriving its subset
    stream) lands on the same store.  The cache is capped; on overflow the
    oldest quarter is evicted (insertion order), matching the repo's shared
    Γ-cache scheme.
    """
    store = _STORE_CACHE.get(database)
    if store is None:
        _OBS.inc("engine.store.builds")
        store = ColumnarStore(database)
        if len(_STORE_CACHE) >= _STORE_CACHE_LIMIT:
            for stale in list(itertools.islice(iter(_STORE_CACHE), _STORE_CACHE_LIMIT // 4)):
                del _STORE_CACHE[stale]
        _STORE_CACHE[database] = store
    else:
        _OBS.inc("engine.store.hits")
    return store


def clear_store_cache() -> None:
    """Drop every cached store (and with them the column indexes and row
    sets they hold)."""
    _STORE_CACHE.clear()
    _OBS.reset("engine.store.")


register_cache("engine/columnar.py:_STORE_CACHE", "clear_evaluation_caches", clear_store_cache)


def store_cache_stats() -> dict[str, int]:
    return {
        "entries": len(_STORE_CACHE),
        "builds": _OBS.get("engine.store.builds"),
        "hits": _OBS.get("engine.store.hits"),
    }
