"""Where the traced run hooks into the program, layer by layer.

Each ``install_*`` wraps public functions at the attributes their
callers resolve them through; each ``*_metrics`` turns the recorded
spans and counters into the per-layer metrics named in
``BENCHMARK.json``.  Span names are ``<layer>.<step>``.
"""

from __future__ import annotations

from typing import Dict, List

from common import quantile
from spans import Tracer


def _whois_objects(database) -> Dict[str, float]:
    return {"whois.objects": float(
        len(database.inetnums) + len(database.autnums)
        + len(database.orgs) + len(database.mntners)
    )}


def install_common(tracer: Tracer) -> None:
    """Hooks every workload shares: trie inserts and GC pauses."""
    from repro.net.radix import PrefixTrie

    tracer.count_calls(PrefixTrie, "insert", "net.radix.trie_inserts")
    tracer.watch_gc()


def install_simulation(tracer: Tracer) -> None:
    import repro.bench

    tracer.wrap(repro.bench, "evolve_world", "simulation.evolve_world")


def install_loading(tracer: Tracer) -> None:
    """``load_datasets`` internals: one span per parser."""
    from repro.asdata.as2org import AS2Org
    from repro.asdata.relationships import ASRelationships
    from repro.bgp.rib import RoutingTable
    from repro.rpki.archive import RpkiArchive
    from repro.rpki.roa import RoaSet
    from repro.whois.database import WhoisDatabase

    tracer.wrap(WhoisDatabase, "from_text", "whois.parse",
                counter=_whois_objects)
    # read_table_dump is lazy: from_entries consumes it, so this one
    # span holds the parse as well as the table build.
    tracer.wrap(RoutingTable, "from_entries", "bgp.rib_load",
                counter=lambda table: {"bgp.rib_entries": float(len(table))})
    tracer.wrap(RpkiArchive, "from_directory", "rpki.archive_load")
    tracer.wrap(RoaSet, "from_csv", "rpki.vrp_parse",
                counter=lambda roas: {"rpki.vrps": float(len(roas))})
    tracer.wrap(ASRelationships, "from_text", "asdata.asrel_parse")
    tracer.wrap(AS2Org, "from_jsonl", "asdata.as2org_parse")


def install_core(tracer: Tracer) -> None:
    from repro.core.context import AnalysisContext
    from repro.core.leaseindex import LeaseIndex

    tracer.wrap(AnalysisContext, "build", "core.context_build")
    tracer.wrap(LeaseIndex, "build", "core.leaseindex_build")


def install_temporal(tracer: Tracer) -> None:
    from repro.temporal import TemporalLeaseIndex, TimelineStore

    tracer.wrap(TemporalLeaseIndex, "build", "temporal.index_build")
    tracer.wrap(TimelineStore, "build", "temporal.timeline_build")
    tracer.wrap(TemporalLeaseIndex, "index_at", "temporal.index_at")


#: Every per-layer metric and its unit.  A traced run of any workload
#: reports all of them; a layer the workload never enters reads 0.
PER_LAYER = {
    "simulation.build_world_s": "s",
    "simulation.write_world_s": "s",
    "simulation.evolve_world_s": "s",
    "whois.parse_s": "s",
    "whois.objects": "count",
    "bgp.rib_load_s": "s",
    "bgp.rib_entries": "count",
    "rpki.vrp_parse_s": "s",
    "rpki.archive_load_s": "s",
    "rpki.vrps": "count",
    "asdata.as2org_parse_s": "s",
    "asdata.asrel_parse_s": "s",
    "io.load_other_s": "s",
    "core.context_build_s": "s",
    "core.pipeline_run_s": "s",
    "core.classify.category_hit_rate": "ratio",
    "core.classify.relatedness_hit_rate": "ratio",
    "core.curate_reference_s": "s",
    "core.analyses_s": "s",
    "core.leaseindex_build_s": "s",
    "core.incremental_apply_p50_ms": "ms",
    "core.incremental_apply_p90_ms": "ms",
    "core.incremental.reclassified": "count",
    "core.incremental.noop_burst_share": "ratio",
    "core.leaseindex_with_updates_p50_ms": "ms",
    "core.leaseindex_with_updates_p90_ms": "ms",
    "core.leaseindex.override_entries": "count",
    "serve.cache_hit_rate": "ratio",
    "serve.cache_evictions": "count",
    **{
        f"serve.endpoint.{endpoint}.{stat}_ms": "ms"
        for endpoint in ("prefix", "asn", "org", "bulk", "history", "churn")
        for stat in ("mean", "max")
    },
    "serve.outside_handler_ms": "ms",
    "serve.apply_updates_ms": "ms",
    "serve.swap_lock_wait_ms": "ms",
    "serve.generations": "count",
    "temporal.index_build_s": "s",
    "temporal.timeline_build_s": "s",
    "temporal.index_at_p50_ms": "ms",
    "temporal.index_at_p99_ms": "ms",
    "reporting.render_s": "s",
    "net.radix.trie_inserts": "count",
    "runtime.gc_gen2_collections": "count",
    "runtime.gc_pause_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "tables_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_high_p99_ms": "ms",
    "sustained_rps": "1/s",
    "update_visible_p50_ms": "ms",
    "update_visible_p90_ms": "ms",
    "trace.span_coverage": "ratio",
    "traced.setup_s": "s",
    "traced.op_cpu_ms": "ms",
    "traced.peak_rss_mb": "MB",
}

def batch_metrics(tracer: Tracer) -> Dict[str, float]:
    """Layer times of one traced dumps-to-tables pass."""
    counters = tracer.counters
    return {
        "whois.parse_s": tracer.total("whois.parse"),
        "whois.objects": counters.get("whois.objects", 0.0),
        "bgp.rib_load_s": tracer.total("bgp.rib_load"),
        "bgp.rib_entries": counters.get("bgp.rib_entries", 0.0),
        "rpki.vrp_parse_s": tracer.total("rpki.vrp_parse"),
        "rpki.archive_load_s": tracer.self_time("rpki.archive_load"),
        "rpki.vrps": counters.get("rpki.vrps", 0.0),
        "asdata.as2org_parse_s": tracer.total("asdata.as2org_parse"),
        "asdata.asrel_parse_s": tracer.total("asdata.asrel_parse"),
        "io.load_other_s": tracer.self_time("io.load_datasets"),
        "core.context_build_s": tracer.total("core.context_build"),
        "core.pipeline_run_s": tracer.self_time("core.pipeline_run"),
        "core.curate_reference_s": tracer.total("core.curate_reference"),
        "core.analyses_s": tracer.total("core.analyses"),
        "reporting.render_s": tracer.total("reporting.render"),
    }


def percentiles_ms(values_s: List[float], *qs: float) -> List[float]:
    """Quantiles of second-valued samples, in ms (0 when empty)."""
    if not values_s:
        return [0.0 for _ in qs]
    return [1000.0 * quantile(values_s, q) for q in qs]
