"""One timed dumps-to-tables pass, in a process that never held the world.

    python3 perfbench/batch_pass.py DATA_DIR OUT_JSON [--trace SPANS_JSONL]
    python3 perfbench/batch_pass.py DATA_DIR OUT_JSON --reference

Times ``load_datasets`` through the last rendered table (``run-all`` read
from disk, at the CLI's default of one worker), in wall and processor
time, and writes the rendered tables, the result digest and the
process's peak RSS to OUT_JSON.
``--reference`` renders the same tables from the frozen
``run_reference`` engine instead, for the correctness gate; it is never
timed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

import common
from spans import NullTracer, Tracer


def render_tables(bundle, result, tracer) -> List[str]:
    """Tables 1-3 and the §6.3-6.4 statistics, as ``run-all`` prints them."""
    from repro.core import (
        curate_reference,
        drop_correlation,
        evaluate_inference,
        hijacker_overlap,
        roa_abuse_analysis,
        top_holders,
    )
    from repro.reporting import (
        render_drop_stats,
        render_hijacker_stats,
        render_roa_stats,
        render_table1,
        render_table2,
        render_table3,
    )

    table = bundle.routing_table
    tables: List[str] = []
    with tracer.span("reporting.render"):
        tables.append(render_table1(result, table.num_prefixes()))
    with tracer.span("core.curate_reference"):
        reference = curate_reference(
            bundle.whois,
            bundle.broker_registry,
            table,
            not_leased_exclusions=bundle.curation_exclusions,
            negative_isp_org_ids=bundle.negative_isp_org_ids,
        )
    with tracer.span("core.analyses"):
        report = evaluate_inference(result, reference)
        holders = top_holders(result, bundle.whois, 3)
        hijackers = hijacker_overlap(result, table, bundle.hijackers)
        drop = bundle.drop_archive.union()
        drops = drop_correlation(result, table, drop)
        leased = result.leased_prefixes()
        non_leased = set(table.prefixes()) - leased
        roa_leased = roa_abuse_analysis(leased, bundle.roas, drop)
        roa_other = roa_abuse_analysis(non_leased, bundle.roas, drop)
    with tracer.span("reporting.render"):
        tables.append(render_table2(report.matrix))
        tables.append(render_table3(holders))
        tables.append(render_hijacker_stats(hijackers))
        tables.append(render_drop_stats(drops))
        tables.append(render_roa_stats(roa_leased, roa_other))
    return tables


def timed_pass(data: Path, tracer) -> Dict[str, object]:
    from repro.core import LeaseInferencePipeline, result_digest
    from repro.simulation.io import load_datasets

    started = time.perf_counter()
    cpu_started = time.process_time()
    with tracer.span("batch.pass"):
        with tracer.span("io.load_datasets"):
            bundle = load_datasets(data)
        with tracer.span("core.pipeline_run"):
            pipeline = LeaseInferencePipeline(
                bundle.whois, bundle.routing_table, bundle.relationships,
                bundle.as2org,
            )
            result = pipeline.run()
        tables = render_tables(bundle, result, tracer)
    tables_s = time.perf_counter() - started
    tables_cpu_s = time.process_time() - cpu_started
    rates = pipeline.cache_stats().hit_rates()
    return {
        "tables_s": tables_s,
        "tables_cpu_s": tables_cpu_s,
        "tables": tables,
        "digest": result_digest(result),
        "leaves": len(result),
        "routed_prefixes": bundle.routing_table.num_prefixes(),
        "category_hit_rate": rates["category"],
        "relatedness_hit_rate": rates["relatedness"],
    }


def reference_pass(data: Path) -> Dict[str, object]:
    from repro.core import LeaseInferencePipeline, result_digest
    from repro.simulation.io import load_datasets

    bundle = load_datasets(data)
    pipeline = LeaseInferencePipeline(
        bundle.whois, bundle.routing_table, bundle.relationships,
        bundle.as2org,
    )
    result = pipeline.run_reference()
    return {
        "tables": render_tables(bundle, result, NullTracer()),
        "digest": result_digest(result),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    common.die_with_parent()
    common.require_program()
    # Import every layer up front: tables_s starts at load_datasets.
    import repro.core  # noqa: F401
    import repro.reporting  # noqa: F401
    import repro.simulation.io  # noqa: F401

    if args.reference:
        payload = reference_pass(args.data)
    else:
        import layers

        tracer = NullTracer()
        if args.trace is not None:
            tracer = Tracer(run_id=args.trace.stem)
            layers.install_common(tracer)
            layers.install_loading(tracer)
            layers.install_core(tracer)
        payload = timed_pass(args.data, tracer)
        if isinstance(tracer, Tracer):
            tracer.restore()
            payload["layers"] = layers.batch_metrics(tracer)
            payload["layers"]["net.radix.trie_inserts"] = tracer.counters.get(
                "net.radix.trie_inserts", 0.0
            )
            payload["span_coverage"] = tracer.covered("batch.pass")
            payload["gc"] = tracer.gc_summary()
            tracer.dump(args.trace)
    payload["peak_rss_mb"] = common.max_rss_mb()
    args.out.write_text(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
