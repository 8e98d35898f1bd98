"""ORDPATH-encoding translation (extension).

Identical in structure to the Dewey translation — document order is
bytewise key order, a subtree is the half-open range
``(okey, ordpath_successor(okey))``, ancestry is a prefix test — with the
``ordpath_*`` scalar helpers in place of the ``dewey_*`` ones.
"""

from __future__ import annotations

from typing import Optional

from repro.core.encodings import get_encoding
from repro.core.relalg import (
    And,
    Bool,
    Cmp,
    Col,
    Const,
    Func,
    RelExpr,
    RelQuery,
    SelectItem,
)
from repro.core.schema import KIND_TEXT
from repro.core.sqlgen import SelectBuilder
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError


def _succ(alias: str) -> Func:
    return Func("ordpath_successor", (Col(alias, "okey"),))


class OrdpathSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_ordpath``."""

    def __init__(self, max_depth: int = 16) -> None:
        super().__init__(get_encoding("ordpath"), max_depth)

    def axis_condition(
        self,
        axis: str,
        ctx: Optional[str],
        cand: str,
        t: _Translation,
    ) -> Optional[RelExpr]:
        if ctx is None:
            return _document_axis(axis, cand)
        if axis == "child":
            return Cmp("=", Col(cand, "parent"), Col(ctx, "id"))
        if axis == "descendant":
            return And((
                Cmp(">", Col(cand, "okey"), Col(ctx, "okey")),
                Cmp("<", Col(cand, "okey"), _succ(ctx)),
            ))
        if axis == "descendant-or-self":
            return And((
                Cmp(">=", Col(cand, "okey"), Col(ctx, "okey")),
                Cmp("<", Col(cand, "okey"), _succ(ctx)),
            ))
        if axis == "self":
            return Cmp("=", Col(cand, "okey"), Col(ctx, "okey"))
        if axis == "parent":
            return Cmp(
                "=",
                Col(cand, "okey"),
                Func("ordpath_parent", (Col(ctx, "okey"),)),
            )
        if axis == "ancestor":
            return And((
                Cmp("<", Col(cand, "okey"), Col(ctx, "okey")),
                Cmp(">", _succ(cand), Col(ctx, "okey")),
            ))
        if axis == "ancestor-or-self":
            return And((
                Cmp("<=", Col(cand, "okey"), Col(ctx, "okey")),
                Cmp(">", _succ(cand), Col(ctx, "okey")),
            ))
        if axis == "following-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp(">", Col(cand, "okey"), Col(ctx, "okey")),
            ))
        if axis == "preceding-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp("<", Col(cand, "okey"), Col(ctx, "okey")),
            ))
        if axis == "following":
            return Cmp(">=", Col(cand, "okey"), _succ(ctx))
        if axis == "preceding":
            return And((
                Cmp("<", Col(cand, "okey"), Col(ctx, "okey")),
                Cmp("<=", _succ(cand), Col(ctx, "okey")),
            ))
        raise TranslationError(f"axis {axis!r} not supported (ordpath)")

    def order_by_columns(self, alias: str) -> Optional[list[Col]]:
        return [Col(alias, "okey")]

    def string_value_query(
        self, cand: str, t: _Translation
    ) -> RelQuery:
        """Descendant text of *cand* as a key-range scan in key order."""
        s = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Col(s, "value"), "v")]
        sub.count_joins = False
        sub.add_from(self.node_table, s)
        sub.add_where(t.doc_cond(s))
        sub.add_where(Cmp("=", Col(s, "kind"), Const(KIND_TEXT)))
        sub.add_where(Cmp(">", Col(s, "okey"), Col(cand, "okey")))
        sub.add_where(Cmp("<", Col(s, "okey"), _succ(cand)))
        sub.order_by = [Col(s, "okey")]
        return sub.build()


def _document_axis(axis: str, cand: str) -> Optional[RelExpr]:
    if axis == "child":
        return Cmp("=", Col(cand, "parent"), Const(0))
    if axis in ("descendant", "descendant-or-self"):
        return None
    if axis in ("self", "parent", "ancestor", "ancestor-or-self"):
        raise TranslationError(
            "the document node itself has no relational representation"
        )
    return Bool(False)
