"""Dewey-encoding translation: axes are byte-range tests on the key.

The binary Dewey codec makes document order bytewise key order, a node's
subtree the half-open key range ``(key, dewey_successor(key))``, and
ancestry a prefix test — so every ordered axis becomes one or two
comparisons on a single indexed BLOB column, plus the two scalar helpers
``dewey_parent``/``dewey_successor`` both backends register.
"""

from __future__ import annotations

from typing import Optional

from repro.core.encodings import DeweyEncoding
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


def _succ(alias: str, column: str = "dkey") -> Func:
    return Func("dewey_successor", (Col(alias, column),))


class DeweySqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_dewey``."""

    def __init__(self, max_depth: int = 16) -> None:
        super().__init__(DeweyEncoding(), max_depth)

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
            # Derivable from the key alone: the candidate's key is one
            # component longer inside the context's subtree.  The parent
            # id join is equivalent and index-friendly on both backends.
            return Cmp("=", Col(cand, "parent"), Col(ctx, "id"))
        if axis == "descendant":
            return And((
                Cmp(">", Col(cand, "dkey"), Col(ctx, "dkey")),
                Cmp("<", Col(cand, "dkey"), _succ(ctx)),
            ))
        if axis == "descendant-or-self":
            return And((
                Cmp(">=", Col(cand, "dkey"), Col(ctx, "dkey")),
                Cmp("<", Col(cand, "dkey"), _succ(ctx)),
            ))
        if axis == "self":
            return Cmp("=", Col(cand, "dkey"), Col(ctx, "dkey"))
        if axis == "parent":
            # The parent's key is a prefix of the context's key — the
            # paper's headline property: no join through parent pointers.
            return Cmp(
                "=",
                Col(cand, "dkey"),
                Func("dewey_parent", (Col(ctx, "dkey"),)),
            )
        if axis == "ancestor":
            return And((
                Cmp("<", Col(cand, "dkey"), Col(ctx, "dkey")),
                Cmp(">", _succ(cand), Col(ctx, "dkey")),
            ))
        if axis == "ancestor-or-self":
            return And((
                Cmp("<=", Col(cand, "dkey"), Col(ctx, "dkey")),
                Cmp(">", _succ(cand), Col(ctx, "dkey")),
            ))
        if axis == "following-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp(">", Col(cand, "dkey"), Col(ctx, "dkey")),
            ))
        if axis == "preceding-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp("<", Col(cand, "dkey"), Col(ctx, "dkey")),
            ))
        if axis == "following":
            # Everything at or past the subtree's upper bound comes after
            # the context in document order and is not a descendant.
            return Cmp(">=", Col(cand, "dkey"), _succ(ctx))
        if axis == "preceding":
            # Before the context in key order, excluding ancestors
            # (whose subtree range still contains the context).
            return And((
                Cmp("<", Col(cand, "dkey"), Col(ctx, "dkey")),
                Cmp("<=", _succ(cand), Col(ctx, "dkey")),
            ))
        raise TranslationError(f"axis {axis!r} not supported (dewey)")

    def order_by_columns(self, alias: str) -> Optional[list[Col]]:
        return [Col(alias, "dkey")]

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
        sub.add_where(Cmp(">", Col(s, "dkey"), Col(cand, "dkey")))
        sub.add_where(Cmp("<", Col(s, "dkey"), _succ(cand)))
        sub.order_by = [Col(s, "dkey")]
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
