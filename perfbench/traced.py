"""The traced run: per-layer numbers, measured from outside the program.

Three passes over the same operation stream, each on freshly built
stores: two traced passes and one untraced pass.  A traced pass

* enables the program's own counters and span histograms
  (:mod:`repro.obs`) and records a span tree, written out at the end;
* counts sqlite VM steps with a progress handler on every connection
  the program's public ``connect_sqlite`` factory opens (the backend
  module's and the pooled backend's reference alike);
* wraps public methods of the stores, index managers, backends and the
  serve router on their instances, timing each call under a
  ``bench.<layer>`` span;
* attributes every counter and timer to the read or write operation
  during which it moved.

After :data:`WARMUP_OPS` uncounted operations, the next ``trace_ops``
operations of each pass are a fixed sequence, so work counts repeat
exactly; the two traced passes must agree on every exact count.  The
untraced pass gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from harness import Op, WrongAnswer, run_ops, timed_setup
from kernel import K_NOMINAL_S
from repro import obs
from repro.backends import pooled_sqlite, sqlite_backend
from repro.obs import METRICS, span
from workloads import ServedShards

#: Progress-handler period in VM instructions; counts are multiples.
VM_GRAIN = 100

#: Operations run before the counted prefix of each pass, so plan
#: caches are warm as they are in a timed run.
WARMUP_OPS = 300

#: Where the traced run writes its span trees.
TRACE_DIR = Path(".perfbench_out")

#: Per-layer counts that must repeat exactly between traced passes.
EXACT = (
    "sqlite.vm_steps_per_read",
    "sqlite.vm_steps_per_write",
    "minidb.rows_examined_per_read",
    "updates.relabeled_per_write",
    "index.row_writes_per_write",
)


class Probe:
    """Counters and timers the benchmark keeps around program calls."""

    def __init__(self) -> None:
        self.vm_steps = 0
        self.timers: Counter = Counter()
        self.calls: Counter = Counter()
        self.minidb: list = []
        self.rpc: list[tuple[float, float]] = []
        self.scatter_end = 0.0
        self.buckets = {"read": Counter(), "write": Counter()}
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        original = sqlite_backend.connect_sqlite

        def connect(*args, **kwargs):
            conn = original(*args, **kwargs)
            conn.set_progress_handler(self._tick, VM_GRAIN)
            return conn

        for module in (sqlite_backend, pooled_sqlite):
            self._originals.append((module, "connect_sqlite", original))
            module.connect_sqlite = connect

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _tick(self) -> int:
        self.vm_steps += VM_GRAIN
        return 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            with span(f"bench.{name}"):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.timers[name] += perf_counter() - t0
                    self.calls[name] += 1

        return timed

    def attach_store(self, store) -> None:
        """Time the store's layers through public methods."""
        store.backend.commit_transaction = self.wrap(
            "backends.commit", store.backend.commit_transaction
        )
        store.indexes.maintain_in_transaction = self.wrap(
            "index.maintain", store.indexes.maintain_in_transaction
        )
        store.indexes.create = self.wrap("index.create", store.indexes.create)
        store.reconstruct_subtree = self.wrap(
            "reconstruct", store.reconstruct_subtree
        )
        if store.backend.name == "minidb":
            self.minidb.append(store.backend)

    def attach_router(self, router) -> None:
        """Time the serve router and each shard round trip."""
        router.handle = self.wrap("serve.router", router.handle)
        scatter = router.query_scatter

        def query_scatter(*args, **kwargs):
            try:
                return scatter(*args, **kwargs)
            finally:
                self.scatter_end = perf_counter()

        router.query_scatter = query_scatter
        for client in router.clients:
            client.request = self._rpc(client.request)

    def _rpc(self, request: Callable) -> Callable:
        def timed(message):
            t0 = perf_counter()
            try:
                return request(message)
            finally:
                end = perf_counter()
                self.rpc.append((end, end - t0))

        return timed

    # -- per-operation accounting -----------------------------------------

    def _counts(self) -> dict[str, float]:
        snap = METRICS.snapshot()
        out: dict[str, float] = dict(snap["counters"])
        for name, hist in snap["histograms"].items():
            out[f"{name}.total"] = hist["total"]
        for name, value in self.timers.items():
            out[f"timer.{name}"] = value
        for name, value in self.calls.items():
            out[f"calls.{name}"] = value
        out["vm_steps"] = self.vm_steps
        out["minidb.rows_examined"] = sum(
            b.stats.rows_read for b in self.minidb
        )
        return out

    def around(self, op: Op, scale: float) -> tuple[Any, float]:
        self.rpc.clear()
        before = self._counts()
        t0 = perf_counter()
        value = op.run()
        end = perf_counter()
        after = self._counts()
        bucket = self.buckets[op.kind]
        for key, now in after.items():
            delta = now - before.get(key, 0)
            if delta:
                bucket[key] += delta * scale if _is_time(key) else delta
        if self.rpc:
            if op.cls == "scatter":
                bucket["rpc_s"] += max(d for _e, d in self.rpc) * scale
                last = max(e for e, _d in self.rpc)
                bucket["merge_s"] += max(0.0, self.scatter_end - last) * scale
            else:
                bucket["rpc_s"] += sum(d for _e, d in self.rpc) * scale
        bucket["ops"] += 1
        bucket[f"ops.{op.cls}"] += 1
        bucket["op_s"] += (end - t0) * scale
        return value, end - t0


def _is_time(key: str) -> bool:
    return key.startswith(("span.", "timer.", "pool.wait_seconds"))


def _shard_totals(stats: dict) -> Counter:
    """Sum the shards' counters and histogram totals/counts."""
    out: Counter = Counter()
    for shard in stats["shards"]:
        snap = shard.get("counters") or {}
        for name, value in snap.get("counters", {}).items():
            out[name] += value
        for name, hist in snap.get("histograms", {}).items():
            out[f"{name}.total"] += hist["total"]
            out[f"{name}.count"] += hist["count"]
    return out


def _pass(wl, kernel, seed: int, seconds: float, traced: bool) -> dict:
    """One pass: fresh set-up, then the fixed operation prefix."""
    probe = Probe() if traced else None
    tracer = None
    shard_before = shard_after = None
    with ExitStack() as stack:
        if traced:
            probe.install()
            stack.callback(probe.uninstall)
            obs.enable()
            stack.callback(obs.disable)
            METRICS.reset()
            tracer = stack.enter_context(obs.tracing())
        raw, scaled = timed_setup(kernel, wl.setup(probe))
        setup_hist = METRICS.snapshot()["histograms"] if traced else {}
        setup_timers = Counter(probe.timers) if traced else Counter()
        setup_calls = Counter(probe.calls) if traced else Counter()
        wl.prepare_checks()
        served = traced and isinstance(wl, ServedShards)
        if served:
            shard_before = _shard_totals(wl.client.stats())
        stream = wl.stream(random.Random(seed))
        for _ in range(WARMUP_OPS):
            op = next(stream)
            result = op.run()
            if op.after is not None:
                op.after(result)
        m = run_ops(
            stream, kernel, seconds, 0, 0, max_ops=wl.trace_ops,
            around=probe.around if traced else None,
        )
        if served:
            shard_after = _shard_totals(wl.client.stats())
            # Shard-side times are scaled by the pass's median kernel.
            scale = K_NOMINAL_S / statistics.median(kernel.samples)
            for key in list(shard_after):
                if _is_time(key):
                    shard_after[key] = (
                        shard_before[key]
                        + (shard_after[key] - shard_before[key]) * scale
                    )
        wl.finish()
        wl.teardown()
    return {
        "probe": probe,
        "tracer": tracer,
        "setup_scale": scaled / raw,
        "setup_hist": setup_hist,
        "setup_timers": setup_timers,
        "setup_calls": setup_calls,
        "shard_setup": shard_before,
        "shard_delta": (
            shard_after - shard_before if shard_after is not None else None
        ),
        "ops_per_s": len(m.samples) / sum(s.scaled_s for s in m.samples),
        "measurement": m,
    }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: dict) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics of one traced pass, plus reasons for absences."""
    probe: Probe = p["probe"]
    r, w = probe.buckets["read"], probe.buckets["write"]
    reads, writes = r["ops"], w["ops"]
    ops = reads + writes
    served = p["shard_delta"] is not None
    s = p["shard_delta"] or Counter()
    absent: dict[str, str] = {}

    # Store-side counters: in this process, or summed over the shards.
    def store_read(key: str) -> float:
        return s[key] if served else r[key]

    def ms(seconds: float) -> float:
        return seconds * 1000.0

    hist = p["setup_hist"]

    def setup_span(name: str) -> float:
        """Scaled seconds of one load phase over a whole set-up."""
        if served:
            raw = p["shard_setup"][f"span.{name}.total"]
        else:
            raw = hist.get(f"span.{name}", {}).get("total", 0.0)
        return raw * p["setup_scale"]

    update_self = sum(
        v for k, v in w.items()
        if k.startswith("span.update.") and k.endswith(".total")
    ) - w["timer.index.maintain"] - w["timer.backends.commit"]
    rhits = store_read("cache.result.hit")
    phits = store_read("cache.plan.hit")
    out = {
        "translator.compile_per_read":
            (_per(store_read("translate.compile"), reads), "count"),
        "translator.translate_ms_per_read":
            (ms(_per(store_read("span.translate.total"), reads)), "ms"),
        "translator.index_plan_share":
            (_per(store_read("index.plan_queries"),
                  store_read("query.executed")), "ratio"),
        "cache.result_hit_rate":
            (_per(rhits, rhits + store_read("cache.result.miss")), "ratio"),
        "cache.plan_hit_rate":
            (_per(phits, phits + store_read("cache.plan.miss")), "ratio"),
        "cache.invalidations_per_write":
            (_per((s if served else w)["cache.invalidate"], writes),
             "count"),
        "backends.execute_ms_per_read":
            (ms(_per(store_read("span.execute.total"), reads)), "ms"),
        "backends.statements_per_op":
            (_per(s["backend.statements"] if served
                  else r["backend.statements"] + w["backend.statements"],
                  ops), "count"),
        "backends.rows_returned_per_read":
            (_per(store_read("backend.rows_read"), reads), "count"),
        "backends.commit_ms_per_write":
            (ms(_per(w["timer.backends.commit"], writes)), "ms"),
        "sqlite.vm_steps_per_read": (_per(r["vm_steps"], reads), "count"),
        "sqlite.vm_steps_per_write": (_per(w["vm_steps"], writes), "count"),
        "minidb.rows_examined_per_read":
            (_per(r["minidb.rows_examined"], reads), "count"),
        "minidb.execute_ms_per_read":
            (ms(_per(r["span.execute.total"], reads))
             if probe.minidb else 0.0, "ms"),
        "store.client_order_sorts_per_read":
            (_per(store_read("query.client_order_sorts"), reads), "count"),
        "store.client_order_ms_per_read":
            (ms(_per(store_read("span.client_order.total"), reads)), "ms"),
        "store.materialize_ms_per_read":
            (ms(_per(store_read("span.materialize.total"), reads)), "ms"),
        "reconstruct.ms_per_call":
            (ms(_per(r["timer.reconstruct"], r["calls.reconstruct"])), "ms"),
        "updates.self_ms_per_write":
            (ms(_per(update_self, writes)) if not served else 0.0, "ms"),
        "updates.relabeled_per_write":
            (_per((s if served else w)["updates.relabeled"], writes),
             "count"),
        "index.maintain_ms_per_write":
            (ms(_per(w["timer.index.maintain"], writes)), "ms"),
        "index.row_writes_per_write":
            (_per((s if served else w)["index.row_writes"], writes),
             "count"),
        "index.fallback_rate":
            (_per(w["index.fallback_rebuild"], w["index.maintained"]),
             "ratio"),
        "index.stats_refreshes_per_write":
            (_per(w["index.stats_refreshed"], writes), "count"),
        "index.create_ms":
            (ms(_per(p["setup_timers"]["index.create"] * p["setup_scale"],
                     p["setup_calls"]["index.create"])), "ms"),
        "load.parse_ms": (ms(setup_span("parse")), "ms"),
        "load.shred_ms": (ms(setup_span("shred")), "ms"),
        "load.bulk_insert_ms": (ms(setup_span("bulk_insert")), "ms"),
        "serve.frontdoor_ms_per_op":
            (ms(_per(r["op_s"] + w["op_s"] - r["timer.serve.router"]
                     - w["timer.serve.router"], ops)) if served else 0.0,
             "ms"),
        "serve.router_ms_per_op":
            (ms(_per(r["timer.serve.router"] + w["timer.serve.router"]
                     - r["rpc_s"] - w["rpc_s"] - r["merge_s"], ops))
             if served else 0.0, "ms"),
        "serve.shard_rpc_ms_per_op":
            (ms(_per(r["rpc_s"] + w["rpc_s"], ops)), "ms"),
        "serve.merge_ms_per_scatter":
            (ms(_per(r["merge_s"], r["ops.scatter"])), "ms"),
        "writequeue.batch_size":
            (_per(s["writequeue.batch_size.total"],
                  s["writequeue.batch_size.count"]), "count"),
        "pool.wait_ms_per_op":
            (ms(_per(s["pool.wait_seconds.total"], ops)), "ms"),
        "retry.retries_per_op":
            (_per(r["retry.retries"] + w["retry.retries"] + r["serve.retries"]
                  + w["serve.retries"] + s["retry.retries"], ops), "count"),
    }
    index_metrics = (
        "translator.index_plan_share", "index.maintain_ms_per_write",
        "index.row_writes_per_write", "index.fallback_rate",
        "index.stats_refreshes_per_write", "index.create_ms",
    )
    if served:
        for name in ("sqlite.vm_steps_per_read", "sqlite.vm_steps_per_write",
                     "backends.commit_ms_per_write",
                     "updates.self_ms_per_write"):
            absent[name] = (
                "runs inside the shard processes, which the benchmark "
                "cannot wrap from outside"
            )
        absent["load.parse_ms"] = (
            "shard workers parse before calling the store, outside its "
            "parse span"
        )
    else:
        for name in ("writequeue.batch_size", "pool.wait_ms_per_op") + tuple(
            k for k in out if k.startswith("serve.")
        ):
            absent[name] = "only served-shards has a wire, pool and queue"
    if not p["setup_calls"]["index.create"]:
        for name in index_metrics:
            absent[name] = "this workload builds no index"
    if not probe.minidb:
        absent["minidb.rows_examined_per_read"] = "no minidb store"
        absent["minidb.execute_ms_per_read"] = "no minidb store"
    else:
        absent["sqlite.vm_steps_per_read"] = "no sqlite store"
        absent["sqlite.vm_steps_per_write"] = "no sqlite store"
    if not r["calls.reconstruct"]:
        absent["reconstruct.ms_per_call"] = "no reconstruct_subtree calls"
    return out, absent


def traced_run(wl, kernel, seed: int, seconds: float) -> dict:
    passes = [
        _pass(wl, kernel, seed, seconds, traced=True),
        _pass(wl, kernel, seed, seconds, traced=True),
        _pass(wl, kernel, seed, seconds, traced=False),
    ]
    first, second = layer_metrics(passes[0]), layer_metrics(passes[1])
    mismatched = {
        name: (first[0][name][0], second[0][name][0])
        for name in EXACT if first[0][name][0] != second[0][name][0]
    }
    if mismatched:
        raise WrongAnswer(f"exact counts differ between traced passes: "
                          f"{mismatched}")
    metrics = {}
    for name, (value, unit) in first[0].items():
        if name in EXACT:
            metrics[name] = (value, unit)
        else:
            metrics[name] = ((value + second[0][name][0]) / 2, unit)
    traced_ops = (passes[0]["ops_per_s"] + passes[1]["ops_per_s"]) / 2
    metrics["trace.overhead_frac"] = (
        passes[2]["ops_per_s"] / traced_ops - 1.0, "ratio"
    )
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(passes[0]["tracer"].to_dict()))
    measurements = [p["measurement"] for p in passes]
    return {
        "metrics": metrics,
        "absent": first[1],
        "attempted": sum(m.attempted for m in measurements),
        "failed": sum(m.failed for m in measurements),
        "trace_file": str(path),
        "ops_per_s": {"traced": traced_ops,
                      "untraced": passes[2]["ops_per_s"]},
    }
