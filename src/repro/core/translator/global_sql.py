"""Global-encoding translation: every axis is an integer comparison.

With ``pos`` (preorder rank) and ``endpos`` (rank of the last descendant)
on each row, subtree containment is interval containment and document
order is plain ``<`` — the reason the paper finds global order fastest for
ordered queries.
"""

from __future__ import annotations

from typing import Optional

from repro.core.encodings import GlobalEncoding
from repro.core.relalg import (
    Bool,
    Cmp,
    Col,
    Const,
    RelExpr,
    RelQuery,
    SelectItem,
)
from repro.core.schema import KIND_TEXT
from repro.core.sqlgen import SelectBuilder, all_of
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError


class GlobalSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_global``."""

    def __init__(self, max_depth: int = 16) -> None:
        super().__init__(GlobalEncoding(), max_depth)

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
            return all_of((
                Cmp(">", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp("<=", Col(cand, "pos"), Col(ctx, "endpos")),
            ))
        if axis == "descendant-or-self":
            return all_of((
                Cmp(">=", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp("<=", Col(cand, "pos"), Col(ctx, "endpos")),
            ))
        if axis == "self":
            return Cmp("=", Col(cand, "id"), Col(ctx, "id"))
        if axis == "parent":
            return Cmp("=", Col(cand, "id"), Col(ctx, "parent"))
        if axis == "ancestor":
            return all_of((
                Cmp("<", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp(">=", Col(cand, "endpos"), Col(ctx, "pos")),
            ))
        if axis == "ancestor-or-self":
            return all_of((
                Cmp("<=", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp(">=", Col(cand, "endpos"), Col(ctx, "pos")),
            ))
        if axis == "following-sibling":
            return all_of((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp(">", Col(cand, "pos"), Col(ctx, "pos")),
            ))
        if axis == "preceding-sibling":
            return all_of((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp("<", Col(cand, "pos"), Col(ctx, "pos")),
            ))
        if axis == "following":
            return Cmp(">", Col(cand, "pos"), Col(ctx, "endpos"))
        if axis == "preceding":
            return Cmp("<", Col(cand, "endpos"), Col(ctx, "pos"))
        raise TranslationError(f"axis {axis!r} not supported (global)")

    def order_by_columns(self, alias: str) -> Optional[list[Col]]:
        return [Col(alias, "pos")]

    def string_value_query(
        self, cand: str, t: _Translation
    ) -> RelQuery:
        """Descendant text of *cand* as an interval scan ordered by pos."""
        s = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Col(s, "value"), "v")]
        sub.count_joins = False
        sub.add_from(self.node_table, s)
        sub.add_where(t.doc_cond(s))
        sub.add_where(Cmp("=", Col(s, "kind"), Const(KIND_TEXT)))
        sub.add_where(Cmp(">", Col(s, "pos"), Col(cand, "pos")))
        sub.add_where(Cmp("<=", Col(s, "pos"), Col(cand, "endpos")))
        sub.order_by = [Col(s, "pos")]
        return sub.build()


def _document_axis(axis: str, cand: str) -> Optional[RelExpr]:
    """Axis conditions when the context is the document node itself."""
    if axis == "child":
        return Cmp("=", Col(cand, "parent"), Const(0))
    if axis in ("descendant", "descendant-or-self"):
        return None  # every stored node descends from the document
    if axis in ("self", "parent", "ancestor", "ancestor-or-self"):
        raise TranslationError(
            "the document node itself has no relational representation"
        )
    # following/preceding/sibling axes of the document are empty.
    return Bool(False)
