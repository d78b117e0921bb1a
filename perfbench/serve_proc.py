"""The lease-lookup server under test, in a process of its own.

    python3 perfbench/serve_proc.py WORKLOAD SEED SIZE BURSTS BURST_RATE
                                    [--trace SPANS_JSONL]

Set-up, :data:`SETUPS` times (``setup_s`` is the median; the last one
is served): build the world, run the pipeline, freeze a ``LeaseIndex``
and start a ``LeaseQueryServer`` on an ephemeral port.  ``lookup-churn``
also builds the 12-epoch temporal product, the ``IncrementalEngine``
and the pre-generated live feed.

Talks JSON lines: writes ``ready`` once serving, then obeys commands on
stdin — ``mark`` (measured phase starts: reset GC accounting, note the
process's processor time and, for churn, start the feed thread),
``drain`` (wait for the feed to finish, answer with the final generation
and the processor time spent since ``mark``) and ``finish`` (report and
exit).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
from typing import Dict, List, Optional

import common
from common import emit, median
from spans import NullTracer, Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Temporal history mounted for ``lookup-churn``.
EPOCHS = 12
#: Updates per live-feed burst.
BURST_SIZE = 32


class Service:
    """One set-up of the program: index, server, and churn machinery."""

    def __init__(self, workload: str, seed: int, size: str, bursts: int,
                 tracer) -> None:
        from repro.core import IncrementalEngine, LeaseInferencePipeline
        from repro.core.leaseindex import LeaseIndex
        from repro.serve import LeaseQueryServer, SnapshotManager
        from repro.simulation import (
            bench_world,
            build_world,
            simulate_update_bursts,
        )

        with tracer.span("simulation.build_world"):
            world = build_world(bench_world(size, common.world_seed(seed)))
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        with tracer.span("core.pipeline_run"):
            result = pipeline.run()
        self.context = pipeline.context
        index = LeaseIndex.build(self.context, result)
        self.temporal = None
        self.engine = None
        self.feed: List = []
        if workload == "lookup-churn":
            from repro.bench import build_temporal_product

            self.temporal, _evolution, _base, _reports = (
                build_temporal_product(world, self.context, result,
                                       epochs=EPOCHS)
            )
            self.engine = IncrementalEngine(self.context)
            self.feed = simulate_update_bursts(
                world, bursts, BURST_SIZE, common.traffic_seed(seed)
            )
        self.manager = SnapshotManager(index)
        self.server = LeaseQueryServer(self.manager, temporal=self.temporal)
        self.server.start()
        self.leaves = len(index)
        self.routed = world.routing_table.num_prefixes()

    def stop(self) -> None:
        self.server.stop()


class Feed:
    """Applies the pre-generated bursts at a fixed rate on a thread."""

    def __init__(self, service: Service, rate: float) -> None:
        self.service = service
        self.rate = rate
        self.rows: List[Dict[str, float]] = []
        self.thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def join(self) -> None:
        if self.thread is not None:
            self.thread.join(timeout=120)

    def _run(self) -> None:
        service = self.service
        engine = service.engine
        context = service.context
        start = time.perf_counter()
        for number, burst in enumerate(service.feed):
            due = start + number / self.rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            began = time.perf_counter()
            report = engine.apply(burst)
            applied = time.perf_counter()
            timing: Dict[str, float] = {}

            def updater(index, changes=report.changed):
                entered = time.perf_counter()
                patched = index.with_updates(context, changes)
                timing["with_updates"] = time.perf_counter() - entered
                return patched

            service.manager.apply_updates(updater)
            published = time.perf_counter()
            self.rows.append({
                "visible_s": published - due,
                "apply_s": applied - began,
                "with_updates_s": timing["with_updates"],
                "apply_updates_s": published - applied,
                "lock_wait_s": published - applied - timing["with_updates"],
                "reclassified": float(report.reclassified),
                "changed": float(len(report.changed)),
            })

    def summary(self) -> Dict[str, float]:
        rows = self.rows
        if not rows:
            return {}
        column = {key: [row[key] for row in rows] for key in rows[0]}
        ms = lambda key, q: 1000.0 * common.quantile(column[key], q)
        return {
            "update_visible_p50_ms": ms("visible_s", 0.5),
            "update_visible_p90_ms": ms("visible_s", 0.9),
            "core.incremental_apply_p50_ms": ms("apply_s", 0.5),
            "core.incremental_apply_p90_ms": ms("apply_s", 0.9),
            "core.incremental.reclassified": sum(column["reclassified"]),
            "core.incremental.noop_burst_share": sum(
                1 for value in column["reclassified"] if value == 0
            ) / len(rows),
            "core.leaseindex_with_updates_p50_ms": ms("with_updates_s", 0.5),
            "core.leaseindex_with_updates_p90_ms": ms("with_updates_s", 0.9),
            "serve.apply_updates_ms": ms("apply_updates_s", 0.5),
            "serve.swap_lock_wait_ms": ms("lock_wait_s", 0.5),
        }


def live_digest(service: Service) -> Dict[str, str]:
    """Digests of the published index's image and the engine's rows
    (churn)."""
    if service.engine is None:
        return {}
    _generation, index = service.manager.snapshot()
    digests = common.image_digests(common.index_image(index))
    digests["engine"] = service.engine.digest()
    return digests


def install_tracing(tracer: Tracer) -> None:
    import layers

    layers.install_common(tracer)
    layers.install_core(tracer)
    layers.install_simulation(tracer)
    layers.install_temporal(tracer)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    from layers import percentiles_ms

    index_at = tracer.durations("temporal.index_at")
    at_p50, at_p99 = percentiles_ms(index_at, 0.5, 0.99)
    durations = lambda name: tracer.durations(name) or [0.0]
    return {
        "simulation.build_world_s": median(
            durations("simulation.build_world")
        ),
        "simulation.evolve_world_s": median(
            durations("simulation.evolve_world")
        ),
        "core.context_build_s": median(durations("core.context_build")),
        "core.pipeline_run_s": tracer.self_time("core.pipeline_run") / SETUPS,
        "core.leaseindex_build_s": median(durations("core.leaseindex_build")),
        "temporal.index_build_s": median(durations("temporal.index_build")),
        "temporal.timeline_build_s": median(
            durations("temporal.timeline_build")
        ),
        "temporal.index_at_p50_ms": at_p50,
        "temporal.index_at_p99_ms": at_p99,
        "net.radix.trie_inserts": tracer.counters.get(
            "net.radix.trie_inserts", 0.0
        ) / SETUPS,
        "runtime.gc_gen2_collections": tracer.gc_summary()["gen2_collections"],
        "runtime.gc_pause_ms": tracer.gc_summary()["pause_ms"],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("size")
    parser.add_argument("bursts", type=int)
    parser.add_argument("burst_rate", type=float)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    common.die_with_parent()
    common.require_program()

    tracer = Tracer(f"{args.workload}-server") if args.trace else NullTracer()
    if args.trace:
        install_tracing(tracer)
    setups: List[float] = []
    service: Optional[Service] = None
    for _ in range(SETUPS):
        if service is not None:
            service.stop()
            service = None
            gc.collect()
        started = time.perf_counter()
        service = Service(args.workload, args.seed, args.size, args.bursts,
                          tracer)
        setups.append(time.perf_counter() - started)
    assert service is not None
    emit({
        "event": "ready",
        "port": service.server.address[1],
        "setup_s": setups,
        "leaves": service.leaves,
        "routed_prefixes": service.routed,
        "feed_bursts": len(service.feed),
    })

    feed = Feed(service, args.burst_rate)
    cpu_mark = 0.0
    for line in sys.stdin:
        command = json.loads(line)["cmd"]
        if command == "mark":
            if isinstance(tracer, Tracer):
                tracer.gc_pauses.clear()
            cpu_mark = time.process_time()
            if service.engine is not None:
                feed.start()
        elif command == "drain":
            feed.join()
            emit({"event": "drained",
                  "generation": service.manager.generation,
                  "applied": len(feed.rows),
                  "cpu_s": time.process_time() - cpu_mark})
        elif command == "finish":
            report: Dict[str, object] = {
                "event": "report",
                "generation": service.manager.generation,
                "feed": feed.summary(),
                "digests": live_digest(service),
                "peak_rss_mb": common.max_rss_mb(),
                "override_entries": len(
                    service.manager.snapshot()[1].payload_overrides()
                ),
            }
            if isinstance(tracer, Tracer):
                tracer.restore()
                report["layers"] = layer_metrics(tracer)
                tracer.dump(common.OUT_DIR / args.trace)
            service.stop()
            emit(report)
            return 0
    service.stop()
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
