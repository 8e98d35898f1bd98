"""Closed-loop measurement: slices of operations between kernel runs.

One client issues one operation at a time and waits for it (a closed
loop).  Operations run in slices of :data:`SLICE_S` wall-clock seconds;
before each slice the reference kernel is measured, and every timing in
the slice is multiplied by ``K_NOMINAL_S / K_measured``.  Work a
workload does between operations (bookkeeping, correctness checks) is
outside the timed region.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from kernel import ReferenceKernel

#: Wall-clock length of one slice of operations.
SLICE_S = 0.02

#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10

#: The run keeps going past ``--seconds`` until every reported
#: percentile has its tail samples, but never past this many seconds.
MAX_EXTRA_S = 60.0

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

READ_PERCENTILES = (0.50, 0.99)
WRITE_PERCENTILES = (0.50, 0.95)


class WrongAnswer(Exception):
    """The program returned a result that disagrees with the oracle."""


@dataclass
class Op:
    """One client operation.

    ``run`` is the timed call into the program; ``after`` receives its
    result outside the timed region (result recording, twin updates).
    ``cls`` names the operation class the diagnostics report.
    """

    kind: str  # "read" or "write"
    cls: str
    run: Callable[[], Any]
    after: Optional[Callable[[Any], None]] = None


@dataclass
class Sample:
    kind: str
    cls: str
    raw_s: float
    scaled_s: float


@dataclass
class Measurement:
    """Everything one measured phase produced."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def of(self, kind: str) -> list[Sample]:
        return [s for s in self.samples if s.kind == kind]


def percentile_index(n: int, q: float) -> int:
    """Nearest-rank index of the *q* quantile in *n* sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def tail_ok(n: int, q: float) -> bool:
    return n - 1 - percentile_index(n, q) >= TAIL_SAMPLES


def needed_samples(q: float) -> int:
    n = 1
    while not tail_ok(n, q):
        n += 1
    return n


def run_ops(
    stream: Iterator[Op],
    kernel: ReferenceKernel,
    seconds: float,
    min_reads: int,
    min_writes: int,
    max_ops: Optional[int] = None,
    around: Optional[Callable[[Op, float], tuple[Any, float]]] = None,
) -> Measurement:
    """Run operations from *stream* for *seconds* of wall-clock time.

    The loop continues past *seconds* (up to :data:`MAX_EXTRA_S`) until
    at least *min_reads* reads and *min_writes* writes completed, so
    every reported percentile has its tail.  With *max_ops* the loop
    instead stops after exactly that many operations.  *around*, when
    given, makes each timed call as ``around(op, scale)`` and returns
    ``(result, raw seconds)`` (the traced run's per-op accounting).
    """
    result = Measurement()
    reads = writes = 0
    # Objects built so far (documents, stores, twins) move to the
    # permanent generation, so collector pauses inside timed calls do
    # not grow with the benchmark's own bookkeeping.
    gc.collect()
    gc.freeze()
    started = perf_counter()
    hard_stop = started + seconds + MAX_EXTRA_S
    done = False
    while not done:
        scale = kernel.scale()
        slice_end = perf_counter() + SLICE_S
        while perf_counter() < slice_end:
            if max_ops is not None and result.attempted >= max_ops:
                done = True
                break
            op = next(stream)
            result.attempted += 1
            try:
                if around is None:
                    t0 = perf_counter()
                    value = op.run()
                    elapsed = perf_counter() - t0
                else:
                    value, elapsed = around(op, scale)
            except WrongAnswer:
                raise
            except Exception as exc:  # noqa: BLE001 - count and go on
                result.failed += 1
                if len(result.failures) < 5:
                    result.failures.append(
                        f"{op.cls}: {type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(limit=4)
                    )
                continue
            if op.after is not None:
                op.after(value)
            result.samples.append(
                Sample(op.kind, op.cls, elapsed, elapsed * scale)
            )
            if op.kind == "read":
                reads += 1
            else:
                writes += 1
        if max_ops is None:
            now = perf_counter()
            enough = reads >= min_reads and writes >= min_writes
            if now - started >= seconds and (enough or now >= hard_stop):
                done = True
    result.wall_s = perf_counter() - started
    gc.unfreeze()
    for text in result.failures:
        print(f"failed operation: {text}", file=sys.stderr)
    return result


def timed_setup(
    kernel: ReferenceKernel, steps: Iterator[None]
) -> tuple[float, float]:
    """Run a set-up given as a generator of steps, timing each step.

    Returns ``(raw seconds, scaled seconds)``: every step is scaled by
    the kernel measured just before it, as operations are per slice.
    """
    raw = scaled = 0.0
    while True:
        scale = kernel.scale()
        t0 = perf_counter()
        finished = next(steps, StopIteration) is StopIteration
        elapsed = perf_counter() - t0
        raw += elapsed
        scaled += elapsed * scale
        if finished:
            return raw, scaled


def percentile_report(samples: list[Sample], q: float) -> dict:
    """Scaled and raw value of the *q* percentile plus class diagnostics.

    Sorted by latency, every rank gets the majority class of the ranks
    within one step of it (one percent of samples, at most half the
    tail).  ``class`` is that majority class at the percentile, and
    ``boundary_distance`` the share of samples between the percentile
    and the nearest rank whose majority class differs.
    ``neighbour_ratio`` is the value one step above the percentile over
    the value one step below: a large ratio means the percentile sits
    on a step between latency classes and will jump from run to run.
    """
    ordered = sorted(samples, key=lambda s: s.scaled_s)
    n = len(ordered)
    index = percentile_index(n, q)
    # One percent of ranks, but at most half the tail: a step that
    # reached the slowest sample would compare against an outlier.
    step = max(1, min(n // 100, (n - 1 - index) // 2))
    window = Counter(s.cls for s in ordered[:step + 1])
    majority = []
    for rank in range(n):
        if rank and rank + step < n:
            window[ordered[rank + step].cls] += 1
        if rank - step - 1 >= 0:
            window[ordered[rank - step - 1].cls] -= 1
        majority.append(window.most_common(1)[0][0])
    pick = majority[index]
    distance = next(
        (d for d in range(1, n)
         if (index - d >= 0 and majority[index - d] != pick)
         or (index + d < n and majority[index + d] != pick)),
        n,
    )
    below = ordered[max(0, index - step)].scaled_s
    above = ordered[min(n - 1, index + step)].scaled_s
    return {
        "value_ms": ordered[index].scaled_s * 1000.0,
        "raw_ms": sorted(s.raw_s for s in samples)[index] * 1000.0,
        "class": pick,
        "class_share": round(sum(s.cls == pick for s in ordered) / n, 4),
        "boundary_distance": round(distance / n, 4),
        "neighbour_ratio": round(above / below, 3) if below else None,
        "neighbour_classes": dict(Counter(
            s.cls for s in ordered[max(0, index - step):index + step + 1]
        ).most_common(4)),
        "samples": n,
        "tail_ok": tail_ok(n, q),
    }


def class_mix(samples: list[Sample]) -> dict[str, dict]:
    """Per-class share, count and median scaled latency."""
    by_cls: dict[str, list[float]] = {}
    for s in samples:
        by_cls.setdefault(s.cls, []).append(s.scaled_s)
    n = len(samples) or 1
    return {
        cls: {
            "share": round(len(v) / n, 4),
            "count": len(v),
            "median_ms": round(statistics.median(v) * 1000.0, 4),
        }
        for cls, v in sorted(by_cls.items())
    }


def spread(values: list[float]) -> dict:
    """Median and quartile spread (as a share of the median)."""
    if not values:
        return {}
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
