"""Benchmark entry point for the ordered-XML store.

    python3 perfbench/run.py --workload article-ordered --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Prints diagnostics, then, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  Exits non-zero on a wrong answer
or when the program's sources are missing.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

from harness import (
    READ_PERCENTILES, SETUP_REPS, WRITE_PERCENTILES, WrongAnswer, class_mix,
    needed_samples, percentile_report, run_ops, spread, timed_setup,
)
from kernel import ReferenceKernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment switches that would change what the program does; the
#: benchmark clears them for itself and the shard processes it spawns.
PROGRAM_SWITCHES = ("REPRO_CACHE", "REPRO_INDEX", "REPRO_INDEX_INCR")

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "bytes_per_xml_byte": "ratio",
    "success_rate": "ratio",
}


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _emit(attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def measure(wl, kernel, seed: int, seconds: float) -> tuple[dict, dict, Any]:
    """The untraced run: end-to-end metrics plus diagnostics."""
    setups = []
    for rep in range(SETUP_REPS):
        setups.append(timed_setup(kernel, wl.setup()))
        if rep < SETUP_REPS - 1:
            wl.teardown()
            gc.collect()  # so peak RSS holds one set-up, not several
    wl.prepare_checks()
    m = run_ops(
        wl.stream(random.Random(seed)), kernel, seconds,
        min_reads=needed_samples(max(READ_PERCENTILES)),
        min_writes=needed_samples(max(WRITE_PERCENTILES)),
    )
    wl.finish()
    xml_bytes, storage = wl.xml_bytes(), wl.storage_bytes()
    wl.teardown()
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reads, writes = m.of("read"), m.of("write")
    pct = {}
    for kind, samples, qs in (("read", reads, READ_PERCENTILES),
                              ("write", writes, WRITE_PERCENTILES)):
        for q in qs:
            pct[f"{kind}_p{round(q * 100)}_ms"] = percentile_report(samples, q)
    metrics = {
        "setup_s": statistics.median(s for _raw, s in setups),
        **{name: rep["value_ms"] for name, rep in pct.items()},
        "ops_per_s": len(m.samples) / sum(s.scaled_s for s in m.samples),
        "peak_rss_mb": (own_kb + wl.child_rss_kb()) / 1024.0,
        "bytes_per_xml_byte": storage / xml_bytes,
        "success_rate": (m.attempted - m.failed) / m.attempted,
    }
    diagnostics = {
        "setup_raw_s": [round(raw, 4) for raw, _s in setups],
        "setup_scaled_s": [round(s, 4) for _raw, s in setups],
        "kernel_ms": {k: (v * 1000.0 if k in ("median", "min", "max") else v)
                      for k, v in spread(kernel.samples).items()},
        "percentiles": pct,
        "raw_ops_per_s": len(m.samples) / sum(s.raw_s for s in m.samples),
        "reads": len(reads),
        "writes": len(writes),
        "reads_checked": wl.log.checked,
        "wall_s": round(m.wall_s, 2),
        "read_mix": class_mix(reads),
        "write_mix": class_mix(writes),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, \
        diagnostics, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    # One CPU for the benchmark and every process it spawns: the
    # reference kernel then times the CPU that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from traced import traced_run
    from workloads import make_workload

    wl = make_workload(args.workload, args.seed)
    kernel = ReferenceKernel()
    try:
        if args.trace:
            result = traced_run(wl, kernel, args.seed, args.seconds)
            metrics = result.pop("metrics")
            attempted, failed = result["attempted"], result["failed"]
            diagnostics = result
        else:
            metrics, diagnostics, m = measure(
                wl, kernel, args.seed, args.seconds
            )
            attempted, failed = m.attempted, m.failed
    except WrongAnswer as exc:
        print(f"WRONG ANSWER in {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        kernel.close()
        if getattr(wl, "daemon", None) is not None:
            wl.teardown()  # stop shard processes a failure left running
    print("diagnostics:", json.dumps(diagnostics, indent=1, default=str))
    _emit(attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
