"""Work-growth checks: does a query's work scale linearly with its document?

Wall-clock time is too noisy to tell a linear plan from a quadratic one
at test sizes, so these helpers count deterministic work units for one
execution of a translated query:

* sqlite — virtual-machine steps, through the connection's progress
  handler (:meth:`SqliteBackend.vm_steps
  <repro.backends.sqlite_backend.SqliteBackend.vm_steps>`);
* minidb — base-table rows examined (``MiniDb.stats.rows_read``).

Running the same query over a small and a large version of a document
gives a *work exponent*, ``log(work_large / work_small) / log(n_large /
n_small)`` for node counts ``n``: about 1 for a plan linear in the
document, 2 for one that re-scans a sibling group per candidate.  The
scaling test and ``repro fuzz --scaling`` both gate on it.
"""

from __future__ import annotations

import math

from repro.backends.sqlite_backend import VM_STEP_GRAIN
from repro.store import XmlStore

#: Work exponent above which growth counts as superlinear.
MAX_EXPONENT = 1.2

#: Resolution of :func:`query_work` per backend: sqlite counts VM steps
#: in grains, minidb counts whole rows.
WORK_GRAIN = {"sqlite": VM_STEP_GRAIN, "minidb": 1}


def query_work(store: XmlStore, xpath: str, doc: int) -> int:
    """Work units of one uncached execution of *xpath* over *doc*."""
    translated = store.translate(xpath, doc)
    backend = store.backend
    if backend.name == "minidb":
        stats = backend.db.stats
        before = stats.rows_read
        backend.execute_plan(
            translated.sql, translated.params,
            statement=translated.statement,
        )
        return stats.rows_read - before
    return backend.vm_steps(translated.sql, translated.params)


def work_exponent(
    work_small: int, work_large: int, nodes_small: int, nodes_large: int
) -> float:
    """Growth exponent of work against document size (0 when there is
    no work or no growth to measure)."""
    if work_small <= 0 or work_large <= 0 or nodes_large <= nodes_small:
        return 0.0
    return math.log(work_large / work_small) / math.log(
        nodes_large / nodes_small
    )


def min_judgeable_work(grain: int, ratio: float) -> float:
    """Smallest large-document work a scaling check can judge.

    A linear query doing ``L`` units on the large document does ``L /
    ratio`` on the small one; miscounting the small run by one *grain*
    reads as exponent ``log(L / (L / ratio - grain)) / log(ratio)``.
    Below the returned ``L`` that exponent can exceed
    :data:`MAX_EXPONENT` though the plan is linear (about 15.5 grains
    for a size ratio of 2).  Without growth nothing can be judged.
    """
    if ratio <= 1:
        return math.inf
    return grain * ratio ** MAX_EXPONENT / (
        ratio ** (MAX_EXPONENT - 1) - 1
    )
