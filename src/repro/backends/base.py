"""Backend protocol: one SQL dialect, two engines.

Both backends accept the same SQL text with ``?`` placeholders and expose
the Dewey/ORDPATH scalar functions, so every translation and benchmark
runs unchanged on either engine.  Both support atomic transactions via
:meth:`Backend.transaction` — sqlite natively, minidb through an undo
journal — which the update manager wraps around every multi-statement
operation.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


@dataclass
class BackendResult:
    """Rows and affected-row count from one statement."""

    rows: list[tuple] = field(default_factory=list)
    rowcount: int = -1


#: Leading verbs of row-writing DML.
_WRITE_VERBS = frozenset({"insert", "update", "delete", "replace"})


def is_write_statement(sql: str) -> bool:
    """True when *sql* is row-writing DML, judged by its leading verb.

    The ``backend.rows_written`` accounting cannot be inferred from the
    cursor alone: DML with a ``RETURNING`` clause produces rows, and
    drivers report quirky ``rowcount`` values for some non-DML — so the
    statement text is the only reliable classifier.  Leading ``--``
    line comments are skipped before the verb is read.
    """
    text = sql.lstrip()
    while text.startswith("--"):
        newline = text.find("\n")
        if newline == -1:
            return False
        text = text[newline + 1:].lstrip()
    if not text:
        return False
    return text.split(None, 1)[0].lower() in _WRITE_VERBS


def split_sql_script(script: str) -> list[str]:
    """Split a ``;``-separated SQL script into individual statements.

    Quote-aware: semicolons inside single- or double-quoted literals
    (including the ``''`` / ``""`` doubling escape) and inside ``--``
    line comments do not terminate a statement.
    """
    statements: list[str] = []
    current: list[str] = []
    quote: str | None = None
    i = 0
    n = len(script)
    while i < n:
        ch = script[i]
        if quote is not None:
            current.append(ch)
            if ch == quote:
                quote = None  # a doubled quote just closes and reopens
            i += 1
            continue
        if ch in ("'", '"'):
            quote = ch
            current.append(ch)
            i += 1
            continue
        if ch == "-" and script.startswith("--", i):
            end = script.find("\n", i)
            end = n if end == -1 else end
            current.append(script[i:end])
            i = end
            continue
        if ch == ";":
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements


class Backend(ABC):
    """A relational engine that stores shredded documents."""

    #: Short backend name ("sqlite" or "minidb").
    name: str

    #: Which dialect the translator should compile plans for.  The
    #: sqlite backends execute SQL text; minidb overrides this and
    #: accepts structured statements through :meth:`execute_plan`.
    dialect: str = "sqlite"

    #: Whether the engine accepts ``CREATE ... IF NOT EXISTS`` DDL.
    #: When false, schema bootstrap falls back to tolerating (only)
    #: already-exists errors from plain CREATE statements.
    supports_if_not_exists: bool = False

    #: Whether worker threads get independent connections (statements
    #: from different threads run concurrently and transaction state is
    #: per-thread).  Non-pooled backends serialize instead; callers
    #: that fan work out across threads can check this to pick a
    #: strategy (e.g. the serve-bench driver, the write queue).
    pooled: bool = False

    @abstractmethod
    def execute(
        self, sql: str, params: Sequence = ()
    ) -> BackendResult:
        """Execute one statement and return its result."""

    @abstractmethod
    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        """Execute a DML statement once per parameter row."""

    def execute_plan(
        self,
        sql: str,
        params: Sequence = (),
        statement: object = None,
    ) -> BackendResult:
        """Execute a compiled query plan.

        ``statement`` is the dialect-specific structured form (minidb
        statement nodes); backends that execute SQL text ignore it.
        """
        return self.execute(sql, params)

    def explain_plan(self, sql: str, params: Sequence = ()) -> list[str]:
        """The access plan the engine chooses for a SELECT, one line per
        plan step (sqlite ``EXPLAIN QUERY PLAN``, children indented)."""
        rows = self.execute("EXPLAIN QUERY PLAN " + sql, params).rows
        levels: dict[int, int] = {}
        lines = []
        for node_id, parent, _unused, detail in rows:
            level = levels.get(parent, -1) + 1
            levels[node_id] = level
            lines.append("  " * level + str(detail))
        return lines

    @abstractmethod
    def rows_written(self) -> int:
        """Total rows written (inserted/updated/deleted) so far.

        The updates module reports renumbering cost in this unit, which
        is engine-independent, alongside wall-clock time.
        """

    def analyze(self) -> None:
        """Refresh optimizer statistics after a bulk load (no-op by
        default; the sqlite backend runs ``ANALYZE``)."""

    def list_tables(self) -> list[str]:
        """Names of all user tables currently in the database.

        Used by migration recovery (to drop leftover ``mig_*`` shadow
        tables after a crash) and by the invariant auditor (to flag
        orphaned shadow state).  Not abstract so minimal test doubles
        keep working; callers treat ``NotImplementedError`` as "cannot
        enumerate" and skip those checks.
        """
        raise NotImplementedError

    # -- transactions -----------------------------------------------------

    _tx_depth: int = 0
    _tx_owner: int = 0

    def begin(self) -> None:
        """Start a transaction (engine-specific)."""

    def commit_transaction(self) -> None:
        """Commit the current transaction (engine-specific)."""

    def rollback(self) -> None:
        """Roll the current transaction back (engine-specific)."""

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Atomic scope: commit on success, roll back on exception.

        Nested scopes flatten into the outermost transaction, so
        compound operations can freely call transactional helpers.
        Flattening is per-thread: a second thread opening a scope while
        another thread's transaction is live starts its own transaction
        (blocking in ``begin()`` on backends that serialize, like the
        lock-guarded sqlite connection) instead of silently joining one
        it does not own.
        """
        ident = threading.get_ident()
        if self._tx_depth > 0 and self._tx_owner == ident:
            self._tx_depth += 1
            try:
                yield
            finally:
                self._tx_depth -= 1
            return
        self.begin()
        self._tx_depth = 1
        self._tx_owner = ident
        try:
            yield
        except BaseException as original:
            self._tx_depth = 0
            self._tx_owner = 0
            try:
                self.rollback()
            except Exception as rollback_error:
                # The original exception is the root cause; a failed
                # rollback (e.g. the connection died) must not mask it.
                if hasattr(original, "add_note"):
                    original.add_note(
                        f"rollback also failed: {rollback_error!r}"
                    )
            raise
        else:
            self._tx_depth = 0
            self._tx_owner = 0
            self.commit_transaction()

    def executescript(self, script: str) -> None:
        """Execute ``;``-separated statements (DDL bootstrap)."""
        for text in split_sql_script(script):
            self.execute(text)

    def close(self) -> None:
        """Release resources (no-op by default)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
