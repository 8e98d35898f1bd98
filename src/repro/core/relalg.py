"""Relational expression AST and per-backend dialect compilers.

The XPath translators no longer emit SQL text directly.  They build a
small relational algebra AST — tables with aliases, comparisons, AND/OR
(including the Local encoding's depth-expansion arms), EXISTS and
correlated COUNT subqueries, and ranked derived tables that number a
step's candidates for positional predicates — which a *dialect* then
compiles:

* :class:`SqlTextDialect` renders parameterized SQL with ``?``
  placeholders (the sqlite backends reuse prepared statements through
  the connection-level statement cache);
* :class:`MiniDbDialect` emits the engine's own structured statement
  nodes (:mod:`repro.minidb.sql_ast`), so minidb executes translator
  output without re-parsing SQL text.

Run-time values never appear in the compiled form.  Every value the SQL
depends on — the document id, the context-node id, and the safe XPath
predicate literals — compiles to a :class:`Param` carrying a *slot*, and
:meth:`CompiledPlan.bind` turns slots into a concrete parameter tuple.
Compiled plans are therefore keyed on query *shape* and shared across
documents and across differing predicate literals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import TranslationError

# ---------------------------------------------------------------------------
# Parameter slots
# ---------------------------------------------------------------------------


class _DocSlot:
    """The document id (bound per :meth:`CompiledPlan.bind` call)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DOC"


class _CtxSlot:
    """The context-node surrogate id (relative paths only)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "CTX"


#: Singleton slots: every doc/context parameter is the same object.
DOC = _DocSlot()
CTX = _CtxSlot()


@dataclass(frozen=True)
class FixedSlot:
    """A parameter whose value is fixed at compile time.

    Used for values that are part of the query shape (tag names,
    attribute names) but are still passed as ``?`` parameters so the
    SQL text stays stable and statement caches stay warm.
    """

    value: object


@dataclass(frozen=True)
class LitSlot:
    """A parameter fed from the query's extracted literal list.

    ``index`` addresses the literal (in extraction order); ``transform``
    names how the raw literal becomes the bound value:

    * ``raw``   — the literal itself;
    * ``num``   — as int when integral, else float;
    * ``len``   — ``len(v)`` (the ``starts-with`` prefix length).
    """

    index: int
    transform: str = "raw"


ParamSlot = Union[_DocSlot, _CtxSlot, FixedSlot, LitSlot]


def _apply_transform(transform: str, value: object) -> object:
    if transform == "raw":
        return value
    if transform == "num":
        number = float(value)  # type: ignore[arg-type]
        return int(number) if number == int(number) else number
    if transform == "len":
        return len(value)  # type: ignore[arg-type]
    raise TranslationError(f"unknown literal transform {transform!r}")


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """A column reference through a table alias."""

    alias: str
    name: str


@dataclass(frozen=True)
class Const:
    """A structural constant, inlined by every dialect."""

    value: object  # int | float | str


@dataclass(frozen=True)
class Param:
    """A ``?`` placeholder fed from a :data:`ParamSlot` at bind time."""

    slot: ParamSlot


@dataclass(frozen=True)
class Bool:
    """A constant truth value (rendered ``1 = 1`` / ``1 = 0``)."""

    value: bool


@dataclass(frozen=True)
class Cmp:
    """A binary comparison: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``."""

    op: str
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class And:
    items: tuple["RelExpr", ...]


@dataclass(frozen=True)
class Or:
    """Disjunction; ``expansion_arms`` counts depth-expansion arms for
    the E9 complexity statistics (Local encoding ancestor chains)."""

    items: tuple["RelExpr", ...]
    expansion_arms: int = 0


@dataclass(frozen=True)
class Not:
    item: "RelExpr"


@dataclass(frozen=True)
class Func:
    """A scalar function call (``INSTR``, ``SUBSTR``, ``dewey_parent``...)."""

    name: str
    args: tuple["RelExpr", ...]


@dataclass(frozen=True)
class CountStar:
    """``COUNT(*)``."""


@dataclass(frozen=True)
class Cast:
    item: "RelExpr"
    type_name: str  # "REAL"


@dataclass(frozen=True)
class IsNull:
    """``expr IS NULL`` — pairs with ``xpath_number``, whose NULL result
    stands for XPath NaN (``NaN != x`` is true, so ``!=`` needs the
    disjunct)."""

    item: "RelExpr"


@dataclass(frozen=True)
class Exists:
    """(NOT) EXISTS subquery.

    ``counted`` mirrors the historical stats accounting: the Local
    encoding's parent-pointer chain arms are not individually counted
    as EXISTS subqueries (the whole chain counts as OR expansions).
    """

    query: "Select"
    negated: bool = False
    counted: bool = True


@dataclass(frozen=True)
class ScalarCount:
    """A correlated ``(SELECT COUNT(*) ...)`` scalar subquery."""

    query: "Select"


@dataclass(frozen=True)
class StringValueAgg:
    """The XPath *string-value* of an element, computed in SQL.

    ``query`` is a correlated subquery yielding the element's descendant
    text values in document order as a column named ``v`` (plus any sort
    keys); the aggregate concatenates them:

    ``COALESCE((SELECT GROUP_CONCAT(v, '') FROM (<query>) <alias>), '')``

    The inner derived table keeps the ORDER BY effective: both engines
    feed the aggregate rows in derived-table order (sqlite cannot
    flatten an ordered subquery under an aggregate), so concatenation
    happens in document order.  Elements with no descendant text
    coalesce to ``''`` — the string-value of an empty element.
    """

    query: "RelQuery"
    alias: str


@dataclass(frozen=True)
class SelectItem:
    expr: "RelExpr"
    as_name: Optional[str] = None


@dataclass(frozen=True)
class RankedSource:
    """A derived table that numbers each group's candidates in axis order.

    ``query`` yields one row per (group, candidate): a ``grp`` column
    plus the passthrough ``columns``.  The derived table projects those
    columns and, per ``grp`` partition, the ``windows`` asked for:

    * ``rn``  — ``ROW_NUMBER()`` in axis order: ``order`` ascending, or
      descending on reverse axes (``descending``);
    * ``rrn`` — ``ROW_NUMBER()`` in the opposite order, so the last
      candidate has ``rrn = 1`` (``last()`` without counting);
    * ``cnt`` — ``COUNT(*)``, the partition size (``last() <op> k``).

    ``order`` is ``None`` when the encoding has no key for the axis;
    only ``cnt`` is available then.  ``alias`` names ``query`` inside
    the derived table.

    The window function keeps the source a derived table on sqlite
    (a subquery holding one is never flattened), and it references no
    outer alias unless the step sits in a correlated predicate path, so
    both engines evaluate it once per statement.
    """

    query: "Select"
    alias: str
    columns: tuple[str, ...]
    order: Optional[str]
    descending: bool = False
    windows: tuple[str, ...] = ("rn",)

    def pruned(
        self, alias: str, used: Optional[set]
    ) -> "RankedSource":
        """This source without the passthrough columns the statement
        never reads through *alias*; *used* holds every ``(alias,
        column)`` it reads (see :func:`compute_stats`; ``None``
        keeps all).  The inner query keeps ``grp``, the order key the
        windows sort by, and ``id``: a ``SELECT DISTINCT`` inner query
        must not merge two candidates that agree on the kept columns.

        Unread columns would otherwise be copied through the window's
        sort (DESIGN.md, "Ranked positional sources", gives the
        measured saving)."""
        if used is None:
            return self
        keep = tuple(c for c in self.columns if (alias, c) in used)
        keep = keep or self.columns[:1]
        inner_keep = {"grp", "id", self.order, *keep}
        inner = replace(self.query, columns=tuple(
            item for item in self.query.columns
            if (item.as_name or getattr(item.expr, "name", None))
            in inner_keep
        ))
        return replace(self, query=inner, columns=keep)

    def window_spec(self, name: str) -> tuple[Optional[str], bool]:
        """``(order column, descending)`` of window *name*."""
        if name == "cnt":
            return None, False
        return self.order, self.descending != (name == "rrn")


@dataclass(frozen=True)
class Select:
    """One SELECT.

    ``count_joins`` mirrors the historical stats accounting: FROM items
    beyond the first count as joins for step/exists/count selects, but
    not for the Local encoding's internal chain subqueries.
    """

    columns: tuple[SelectItem, ...]
    #: (table or ranked derived table, alias)
    from_items: tuple[tuple[Union[str, RankedSource], str], ...] = ()
    where: tuple["RelExpr", ...] = ()
    order_by: tuple[Col, ...] = ()
    distinct: bool = False
    count_joins: bool = True


@dataclass(frozen=True)
class UnionQuery:
    """``SELECT .. UNION SELECT ..`` ordered by output-column names."""

    selects: tuple[Select, ...]
    order_by: tuple[str, ...] = ()


RelExpr = Union[
    Col, Const, Param, Bool, Cmp, And, Or, Not, Func, CountStar, Cast,
    IsNull, Exists, ScalarCount, StringValueAgg,
]

RelQuery = Union[Select, UnionQuery]


# ---------------------------------------------------------------------------
# Statistics (experiment E9), computed on the AST
# ---------------------------------------------------------------------------


@dataclass
class TranslationStats:
    """Static complexity of one translated query (experiment E9)."""

    joins: int = 0  # FROM items beyond the first, across all queries
    exists_subqueries: int = 0
    count_subqueries: int = 0
    or_expansions: int = 0  # depth-expansion arms (Local encoding)
    rank_sources: int = 0  # ranked derived tables (positional steps)

    def total_relational_operations(self) -> int:
        return (
            self.joins
            + self.exists_subqueries
            + self.count_subqueries
            + self.or_expansions
            + self.rank_sources
        )


def compute_stats(
    query: RelQuery, used: Optional[set] = None
) -> TranslationStats:
    """Derive the E9 complexity statistics from a compiled AST.

    With *used*, the same walk also adds every ``(alias, column)`` a Col
    reads to it: the set :meth:`RankedSource.pruned` prunes by.
    """
    stats = TranslationStats()
    _collect_stats(query, stats, set() if used is None else used)
    return stats


def _collect_stats(
    node: object, stats: TranslationStats, used: set
) -> None:
    if isinstance(node, Col):
        used.add((node.alias, node.name))
    elif isinstance(node, UnionQuery):
        for arm in node.selects:
            _collect_stats(arm, stats, used)
    elif isinstance(node, Select):
        if node.count_joins:
            stats.joins += max(0, len(node.from_items) - 1)
        for source, _alias in node.from_items:
            if isinstance(source, RankedSource):
                stats.rank_sources += 1
                _collect_stats(source.query, stats, used)
        for item in node.columns:
            _collect_stats(item.expr, stats, used)
        for cond in node.where:
            _collect_stats(cond, stats, used)
        for col in node.order_by:
            used.add((col.alias, col.name))
    elif isinstance(node, Exists):
        if node.counted:
            stats.exists_subqueries += 1
        _collect_stats(node.query, stats, used)
    elif isinstance(node, ScalarCount):
        stats.count_subqueries += 1
        _collect_stats(node.query, stats, used)
    elif isinstance(node, Or):
        stats.or_expansions += node.expansion_arms
        for item in node.items:
            _collect_stats(item, stats, used)
    elif isinstance(node, And):
        for item in node.items:
            _collect_stats(item, stats, used)
    elif isinstance(node, Cmp):
        _collect_stats(node.left, stats, used)
        _collect_stats(node.right, stats, used)
    elif isinstance(node, Func):
        for arg in node.args:
            _collect_stats(arg, stats, used)
    elif isinstance(node, (Not, Cast, IsNull)):
        _collect_stats(node.item, stats, used)
    elif isinstance(node, StringValueAgg):
        # Its columns count, its structure does not: it is a scalar
        # evaluation detail of one comparison, not part of the E9
        # structural-complexity accounting (counting its internal arms
        # would shift the historical baselines).
        _collect_stats(node.query, TranslationStats(), used)
    # Const/Param/Bool/CountStar are leaves.


# ---------------------------------------------------------------------------
# SQL text dialect
# ---------------------------------------------------------------------------


def sql_string_literal(text: str) -> str:
    """Escape *text* as a single-quoted SQL literal (quotes doubled)."""
    return "'" + text.replace("'", "''") + "'"


def _render_const(value: object) -> str:
    if isinstance(value, str):
        return sql_string_literal(value)
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


class SqlTextDialect:
    """Compile the AST to SQL text with ``?`` placeholders.

    The slot list is collected in placeholder order, so binding the
    slots left to right yields the parameter tuple for the statement.

    Ranked sources pass through only the columns in *used*, collected
    by :func:`compute_stats` (see :meth:`RankedSource.pruned`); ``None``
    keeps every column.
    """

    name = "sqlite"

    def __init__(self, used: Optional[set] = None) -> None:
        self.used = used

    def compile(self, query: RelQuery) -> tuple[str, tuple[ParamSlot, ...]]:
        slots: list[ParamSlot] = []
        sql = self._query(query, slots)
        return sql, tuple(slots)

    def _query(self, query: RelQuery, slots: list) -> str:
        if isinstance(query, UnionQuery):
            sql = " UNION ".join(
                self._select(arm, slots) for arm in query.selects
            )
            if query.order_by:
                sql += " ORDER BY " + ", ".join(query.order_by)
            return sql
        return self._select(query, slots)

    def _select(self, select: Select, slots: list) -> str:
        parts = ["SELECT "]
        if select.distinct:
            parts.append("DISTINCT ")
        parts.append(self._items(select.columns, slots))
        if select.from_items:
            parts.append(" FROM ")
            parts.append(", ".join(
                f"{t} {a}" if isinstance(t, str)
                else f"({self._ranked(t.pruned(a, self.used), slots)}) {a}"
                for t, a in select.from_items
            ))
        if select.where:
            parts.append(" WHERE ")
            parts.append(
                " AND ".join(self._expr(c, slots) for c in select.where)
            )
        if select.order_by:
            parts.append(" ORDER BY ")
            parts.append(
                ", ".join(f"{c.alias}.{c.name}" for c in select.order_by)
            )
        return "".join(parts)

    def _items(self, columns: tuple[SelectItem, ...], slots: list) -> str:
        rendered = []
        for item in columns:
            text = self._expr(item.expr, slots)
            if item.as_name is not None:
                text += f" AS {item.as_name}"
            rendered.append(text)
        return ", ".join(rendered)

    def _ranked(self, source: RankedSource, slots: list) -> str:
        q = source.alias
        items = [f"{q}.{c}" for c in source.columns]
        # The unary plus keeps sqlite from reading the candidates
        # through the (doc, parent, order) index just to skip the
        # window's sort: that scans the whole document instead of the
        # step's candidates.  (minidb's parser drops the no-op plus.)
        partition = f"PARTITION BY +{q}.grp"
        for name in source.windows:
            order, descending = source.window_spec(name)
            if order is None:
                items.append(f"COUNT(*) OVER ({partition}) AS {name}")
            else:
                direction = " DESC" if descending else ""
                items.append(
                    f"ROW_NUMBER() OVER ({partition} ORDER BY "
                    f"{q}.{order}{direction}) AS {name}"
                )
        inner = self._select(source.query, slots)
        return f"SELECT {', '.join(items)} FROM ({inner}) {q}"

    def _expr(self, node: RelExpr, slots: list) -> str:
        if isinstance(node, Col):
            return f"{node.alias}.{node.name}"
        if isinstance(node, Const):
            return _render_const(node.value)
        if isinstance(node, Param):
            slots.append(node.slot)
            return "?"
        if isinstance(node, Bool):
            return "1 = 1" if node.value else "1 = 0"
        if isinstance(node, Cmp):
            left = self._expr(node.left, slots)
            right = self._expr(node.right, slots)
            return f"{left} {node.op} {right}"
        if isinstance(node, And):
            inner = " AND ".join(self._expr(i, slots) for i in node.items)
            return f"({inner})"
        if isinstance(node, Or):
            inner = " OR ".join(self._expr(i, slots) for i in node.items)
            return f"({inner})"
        if isinstance(node, Not):
            return f"NOT ({self._expr(node.item, slots)})"
        if isinstance(node, Func):
            args = ", ".join(self._expr(a, slots) for a in node.args)
            return f"{node.name}({args})"
        if isinstance(node, CountStar):
            return "COUNT(*)"
        if isinstance(node, Cast):
            return f"CAST({self._expr(node.item, slots)} AS {node.type_name})"
        if isinstance(node, IsNull):
            return f"{self._expr(node.item, slots)} IS NULL"
        if isinstance(node, Exists):
            keyword = "NOT EXISTS" if node.negated else "EXISTS"
            return f"{keyword} ({self._select(node.query, slots)})"
        if isinstance(node, ScalarCount):
            return f"({self._select(node.query, slots)})"
        if isinstance(node, StringValueAgg):
            inner = self._query(node.query, slots)
            return (
                "COALESCE((SELECT GROUP_CONCAT(v, '') "
                f"FROM ({inner}) {node.alias}), '')"
            )
        raise TranslationError(f"cannot render node {node!r}")


# ---------------------------------------------------------------------------
# minidb dialect
# ---------------------------------------------------------------------------


class MiniDbDialect:
    """Compile the AST to :mod:`repro.minidb.sql_ast` statement nodes.

    Traversal order matches :class:`SqlTextDialect` exactly, so the
    0-based ``Param.index`` values address the same bound-parameter
    tuple the text dialect's ``?`` placeholders consume.
    """

    name = "minidb"

    def __init__(self, used: Optional[set] = None) -> None:
        #: The query's column references (:func:`compute_stats`), to
        #: prune ranked sources as the text dialect does; ``None`` keeps
        #: every column.
        self.used = used

    def compile(self, query: RelQuery) -> tuple[object, tuple[ParamSlot, ...]]:
        from repro.minidb import sql_ast as m

        slots: list[ParamSlot] = []
        statement = self._query(query, slots, m)
        return statement, tuple(slots)

    def _query(self, query: RelQuery, slots: list, m) -> object:
        if isinstance(query, UnionQuery):
            arms = tuple(
                self._select(arm, slots, m) for arm in query.selects
            )
            order = tuple(
                m.OrderItem(m.ColumnRef(None, name))
                for name in query.order_by
            )
            if len(arms) == 1:
                # The minidb SQL parser folds a one-arm compound into a
                # plain Select; dialect parity requires the same shape.
                return replace(arms[0], order_by=order)
            return m.Union_(arms=arms, order_by=order)
        return self._select(query, slots, m)

    def _select(self, select: Select, slots: list, m) -> object:
        items = tuple(
            m.SelectItem(self._expr(item.expr, slots, m), item.as_name)
            for item in select.columns
        )
        from_items = tuple(
            m.FromItem(
                m.TableSource(source) if isinstance(source, str)
                else m.SubquerySource(self._ranked(
                    source.pruned(alias, self.used), slots, m
                )),
                alias,
            )
            for source, alias in select.from_items
        )
        where = None
        for cond in select.where:
            compiled = self._expr(cond, slots, m)
            where = (
                compiled if where is None
                else m.Binary("AND", where, compiled)
            )
        order = tuple(
            m.OrderItem(m.ColumnRef(c.alias, c.name))
            for c in select.order_by
        )
        return m.Select(
            items=items,
            from_items=from_items,
            where=where,
            order_by=order,
            distinct=select.distinct,
        )

    def _ranked(self, source: RankedSource, slots: list, m) -> object:
        q = source.alias
        items = [m.SelectItem(m.ColumnRef(q, c)) for c in source.columns]
        partition = (m.ColumnRef(q, "grp"),)
        for name in source.windows:
            order, descending = source.window_spec(name)
            if order is None:
                window = m.WindowExpr(
                    m.FunctionExpr("count", star=True), partition
                )
            else:
                window = m.WindowExpr(
                    m.FunctionExpr("row_number"),
                    partition,
                    (m.OrderItem(m.ColumnRef(q, order), descending),),
                )
            items.append(m.SelectItem(window, name))
        inner = self._select(source.query, slots, m)
        return m.Select(
            items=tuple(items),
            from_items=(m.FromItem(m.SubquerySource(inner), q),),
        )

    def _expr(self, node: RelExpr, slots: list, m) -> object:
        if isinstance(node, Col):
            return m.ColumnRef(node.alias, node.name)
        if isinstance(node, Const):
            value = node.value
            if isinstance(value, float) and value == int(value):
                value = int(value)
            return m.Literal(value)
        if isinstance(node, Param):
            slots.append(node.slot)
            return m.Param(len(slots) - 1)
        if isinstance(node, Bool):
            return m.Binary(
                "=", m.Literal(1), m.Literal(1 if node.value else 0)
            )
        if isinstance(node, Cmp):
            left = self._expr(node.left, slots, m)
            right = self._expr(node.right, slots, m)
            return m.Binary(node.op, left, right)
        if isinstance(node, (And, Or)):
            op = "AND" if isinstance(node, And) else "OR"
            combined = None
            for item in node.items:
                compiled = self._expr(item, slots, m)
                combined = (
                    compiled if combined is None
                    else m.Binary(op, combined, compiled)
                )
            return combined
        if isinstance(node, Not):
            return m.Unary("NOT", self._expr(node.item, slots, m))
        if isinstance(node, Func):
            args = tuple(self._expr(a, slots, m) for a in node.args)
            return m.FunctionExpr(node.name.lower(), args)
        if isinstance(node, CountStar):
            return m.FunctionExpr("count", (), star=True)
        if isinstance(node, Cast):
            return m.Cast(self._expr(node.item, slots, m), node.type_name)
        if isinstance(node, IsNull):
            return m.IsNull(self._expr(node.item, slots, m), False)
        if isinstance(node, Exists):
            # NOT EXISTS compiles as Unary NOT over Exists — the same
            # shape the minidb SQL parser produces for the text form,
            # so both dialects yield structurally identical statements.
            inner = m.Exists(self._select(node.query, slots, m))
            if node.negated:
                return m.Unary("NOT", inner)
            return inner
        if isinstance(node, ScalarCount):
            return m.ScalarSubquery(self._select(node.query, slots, m))
        if isinstance(node, StringValueAgg):
            inner = self._query(node.query, slots, m)
            agg = m.Select(
                items=(
                    m.SelectItem(
                        m.FunctionExpr(
                            "group_concat",
                            (m.ColumnRef(None, "v"), m.Literal("")),
                        ),
                        None,
                    ),
                ),
                from_items=(
                    m.FromItem(m.SubquerySource(inner), node.alias),
                ),
            )
            return m.FunctionExpr(
                "coalesce", (m.ScalarSubquery(agg), m.Literal(""))
            )
        raise TranslationError(f"cannot compile node {node!r} for minidb")


#: Dialect registry (the store picks by ``backend.dialect``).
DIALECTS = {
    "sqlite": SqlTextDialect,
    "minidb": MiniDbDialect,
}


# ---------------------------------------------------------------------------
# Compiled plans and bound queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslatedQuery:
    """The *bound* SQL form of one XPath query (ready to execute).

    ``statement`` carries the minidb structured statement when the plan
    was compiled for the minidb dialect; ``None`` means "execute the
    SQL text".
    """

    sql: str
    params: tuple
    result_kind: str  # "node" | "attribute"
    needs_client_order: bool
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    statement: object = None
    #: Access path the cost model picked: "scan" (translated joins over
    #: the node table) or an ``*-index`` plan over the secondary-index
    #: side tables; ``index_names``/``est_rows`` describe the choice.
    access_path: str = "scan"
    index_names: tuple[str, ...] = ()
    est_rows: Optional[int] = None


@dataclass(frozen=True)
class CompiledPlan:
    """A document-independent compiled query, keyed on query shape.

    The plan embeds no document id, context id, or predicate literal:
    those arrive through :meth:`bind`, which resolves the slot list
    into a concrete parameter tuple.
    """

    sql: str
    param_slots: tuple[ParamSlot, ...]
    result_kind: str
    needs_client_order: bool
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    statement: object = None
    #: Cost-model outcome (see :mod:`repro.index.cost`): which access
    #: path this plan uses, which secondary indexes it touches, and the
    #: estimated result cardinality (``None`` when no estimate exists).
    access_path: str = "scan"
    index_names: tuple[str, ...] = ()
    est_rows: Optional[int] = None

    def bind(
        self,
        doc: int,
        context_id: Optional[int] = None,
        literals: tuple = (),
    ) -> TranslatedQuery:
        """Resolve slots into parameters for one concrete execution."""
        params = []
        for slot in self.param_slots:
            if slot is DOC:
                params.append(doc)
            elif slot is CTX:
                if context_id is None:
                    raise TranslationError(
                        "relative paths need a context node "
                        "(pass context_id) or an absolute path"
                    )
                params.append(context_id)
            elif isinstance(slot, FixedSlot):
                params.append(slot.value)
            elif isinstance(slot, LitSlot):
                if slot.index >= len(literals):
                    raise TranslationError(
                        "literal slot out of range: plan compiled from "
                        "a different query shape"
                    )
                params.append(
                    _apply_transform(slot.transform, literals[slot.index])
                )
            else:  # pragma: no cover - defensive
                raise TranslationError(f"unknown parameter slot {slot!r}")
        return TranslatedQuery(
            sql=self.sql,
            params=tuple(params),
            result_kind=self.result_kind,
            needs_client_order=self.needs_client_order,
            encoding=self.encoding,
            columns=self.columns,
            stats=self.stats,
            statement=self.statement,
            access_path=self.access_path,
            index_names=self.index_names,
            est_rows=self.est_rows,
        )
