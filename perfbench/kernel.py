"""The reference kernel that turns wall-clock timings into repeatable ones.

The host this benchmark runs on drifts: the same fixed Python loop can
take a third less time a minute later.  Drift of that kind slows every
piece of Python and sqlite work by the same factor, so the benchmark
measures it with a fixed workload of its own and divides it out.

The kernel uses only the standard library and never imports ``repro``:
a fixed pure-Python loop plus fixed ``sqlite3`` statements on a private
in-memory table.  A change to the program under test therefore cannot
move the kernel, and the scale factor ``K_NOMINAL_S / measured`` stays
a property of the host alone.
"""

from __future__ import annotations

import sqlite3
import statistics
from time import perf_counter

#: The kernel's median time on the reference machine (a shared x86-64
#: Linux container, CPython 3, sqlite 3.40).  Scaled timings read as
#: milliseconds on that machine at its nominal speed.
K_NOMINAL_S = 0.00108

#: Kernel repetitions per measurement; their median is the measurement.
REPS = 3

_ROWS = 2000
_GROUPS = 37


class ReferenceKernel:
    """A fixed stdlib-only workload, timed on demand."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute(
            "CREATE TABLE k (id INTEGER PRIMARY KEY, grp INTEGER, v TEXT)"
        )
        self._conn.executemany(
            "INSERT INTO k VALUES (?, ?, ?)",
            ((i, i % _GROUPS, f"v{i * 7919 % 10007}") for i in range(_ROWS)),
        )
        self._conn.execute("CREATE INDEX k_grp ON k (grp)")
        #: Every measurement taken, in seconds (for the diagnostics).
        self.samples: list[float] = []

    def _once(self) -> float:
        started = perf_counter()
        acc = 0
        for i in range(4000):
            acc = (acc * 31 + i) % 1000003
        conn = self._conn
        for grp in range(0, _GROUPS, 4):
            conn.execute(
                "SELECT count(*), max(v) FROM k WHERE grp = ?", (grp,)
            ).fetchall()
        conn.execute(
            "SELECT grp, count(*) FROM k GROUP BY grp ORDER BY 2 DESC"
        ).fetchall()
        return perf_counter() - started

    def measure(self) -> float:
        """Median kernel time in seconds over :data:`REPS` runs."""
        value = statistics.median(self._once() for _ in range(REPS))
        self.samples.append(value)
        return value

    def scale(self) -> float:
        """Factor that maps this moment's timings to nominal speed."""
        return K_NOMINAL_S / self.measure()

    def close(self) -> None:
        self._conn.close()
