"""A bounded, threshold-configurable slow-query log.

When enabled (:func:`enable_slow_log`), :meth:`XmlStore.query
<repro.store.XmlStore.query>` records every query at or above the
threshold: the XPath, the translated SQL and parameters, total elapsed
time, a per-phase breakdown (translate / execute / materialize /
client_order) collected through the :func:`repro.obs.tracer.span`
``collect`` hook — no tracer required — and the plan the database chose
for the SQL (sqlite ``EXPLAIN QUERY PLAN``, :meth:`MiniDb.explain
<repro.minidb.MiniDb.explain>` on minidb).  The plan is asked for only
once an entry passes the threshold, so fast queries never pay for it.

The log is a ring buffer (oldest entries evicted), process-wide like
the metrics registry, and disabled by default so the query hot path
pays a single ``None`` check.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class SlowQuery:
    """One recorded slow query."""

    xpath: str
    sql: str
    params: tuple
    elapsed_ms: float
    breakdown_ms: dict[str, float] = field(default_factory=dict)
    thread: str = ""
    #: The database's plan for ``sql``, one line per step.
    plan: tuple[str, ...] = ()

    def render(self) -> str:
        phases = ", ".join(
            f"{name}={ms:.2f}ms"
            for name, ms in sorted(
                self.breakdown_ms.items(), key=lambda kv: -kv[1]
            )
        )
        lines = [
            f"slow query ({self.elapsed_ms:.2f} ms) {self.xpath}",
            f"  phases: {phases or '(none)'}",
            f"  sql: {self.sql}",
        ]
        if self.params:
            lines.append(f"  params: {self.params!r}")
        if self.plan:
            lines.append("  plan:")
            lines.extend(f"    {step}" for step in self.plan)
        return "\n".join(lines)


class SlowQueryLog:
    """Ring buffer of queries slower than ``threshold_ms``."""

    def __init__(
        self, threshold_ms: float = 100.0, capacity: int = 50
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold_ms = threshold_ms
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    def maybe_record(
        self,
        xpath: str,
        sql: str,
        params: tuple,
        elapsed_ms: float,
        breakdown_ms: Optional[dict[str, float]] = None,
        explain: Optional[Callable[[], list[str]]] = None,
    ) -> bool:
        """Record the query if it met the threshold; True when kept.

        *explain* produces the database's plan; it is called only for
        kept entries.  A plan that cannot be produced is recorded as
        one line saying why instead of failing the query.
        """
        if elapsed_ms < self.threshold_ms:
            return False
        plan: tuple[str, ...] = ()
        if explain is not None:
            try:
                plan = tuple(explain())
            except Exception as exc:  # the query itself succeeded
                plan = (f"(plan unavailable: {exc})",)
        entry = SlowQuery(
            xpath=xpath,
            sql=sql,
            params=tuple(params),
            elapsed_ms=elapsed_ms,
            breakdown_ms=dict(breakdown_ms or {}),
            thread=threading.current_thread().name,
            plan=plan,
        )
        with self._lock:
            self._entries.append(entry)
            self.recorded += 1
        return True

    def entries(self) -> list[SlowQuery]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.recorded = 0


_log: Optional[SlowQueryLog] = None


def slow_log() -> Optional[SlowQueryLog]:
    """The active log, or ``None`` (the common, unobserved case)."""
    return _log


def enable_slow_log(
    threshold_ms: float = 100.0, capacity: int = 50
) -> SlowQueryLog:
    """Install (and return) a fresh process-wide slow-query log."""
    global _log
    _log = SlowQueryLog(threshold_ms=threshold_ms, capacity=capacity)
    return _log


def disable_slow_log() -> None:
    global _log
    _log = None
