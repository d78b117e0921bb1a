"""Workload ``dumps-to-tables``: dumps on disk to the paper's tables.

Set-up (timed as ``setup_s``, median of :data:`SETUPS`): generate the
world and write its dumps.  Measured: fresh processes, each running one
pass of ``load_datasets`` → ``LeaseInferencePipeline.run`` → reference
curation, evaluation and the §6.3-6.4 analyses → rendered tables, back
to back until the run's seconds are spent; ``op_cpu_ms`` is their mean
processor time (``tables_s``, their mean wall time, is reported beside
it).  A fresh process per pass keeps the generator's heap out of the
collector's way.  Gate (after timing, in no metric): every pass's tables
and result digest equal the frozen ``run_reference`` engine's on the
same dumps.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import common
from common import median
from spans import NullTracer, Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def setup_world(seed: int, size: str, data: Path, tracer) -> float:
    """Generate the world and write its dumps; returns seconds taken."""
    from repro.simulation import bench_world, build_world
    from repro.simulation.io import write_world

    if data.exists():
        shutil.rmtree(data)
    started = time.perf_counter()
    with tracer.span("simulation.build_world"):
        world = build_world(bench_world(size, common.world_seed(seed)))
    with tracer.span("simulation.write_world"):
        write_world(world, data)
    elapsed = time.perf_counter() - started
    del world
    gc.collect()
    return elapsed


def run_pass(data: Path, out: Path, trace: Optional[Path] = None,
             reference: bool = False) -> Dict[str, object]:
    """Run one ``batch_pass.py`` child to completion; returns its JSON."""
    command = [sys.executable, str(common.BENCH_DIR / "batch_pass.py"),
               str(data), str(out)]
    if trace is not None:
        command += ["--trace", str(trace)]
    if reference:
        command.append("--reference")
    subprocess.run(command, check=True, timeout=170)
    return json.loads(out.read_text())


def run(seed: int, seconds: float, traced: bool,
        size: str = common.WORLD_SIZE,
        expected_digest: Optional[str] = None) -> Dict[str, object]:
    """One run of the workload; returns the result record for ``run.py``.

    *expected_digest* replaces the reference engine's digest in the
    gate (the smoke test corrupts it to prove the gate fires).
    """
    work = common.OUT_DIR / f"dumps-to-tables-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    data = work / "dumps"
    tracer = Tracer(f"dumps-to-tables-{seed}") if traced else NullTracer()

    setups = [setup_world(seed, size, data, tracer) for _ in range(SETUPS)]

    passes: List[Dict[str, object]] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        index = len(passes)
        trace_path = work / f"pass-{index}.jsonl" if traced else None
        passes.append(run_pass(data, work / f"pass-{index}.json", trace_path))

    reference = run_pass(data, work / "reference.json", reference=True)
    want_digest = (
        reference["digest"] if expected_digest is None else expected_digest
    )
    failures = [
        f"pass {index}: tables or digest differ from run_reference"
        for index, record in enumerate(passes)
        if record["tables"] != reference["tables"]
        or record["digest"] != want_digest
    ]

    tables_s = [float(record["tables_s"]) for record in passes]
    tables_cpu_s = [float(record["tables_cpu_s"]) for record in passes]
    rss = [float(record["peak_rss_mb"]) for record in passes]
    record: Dict[str, object] = {
        "pass_s": tables_s,
        "attempted": len(passes),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {
            "setup_s": median(setups),
            "op_cpu_ms": 1000.0 * statistics.mean(tables_cpu_s),
            "peak_rss_mb": median(rss),
        },
        "wall": {"tables_s": statistics.mean(tables_s)},
        "provenance": common.provenance(
            seed,
            world_size=size,
            classifiable_leaves=passes[0]["leaves"],
            routed_prefixes=passes[0]["routed_prefixes"],
            dump_bytes=common.directory_bytes(data),
            passes=len(passes),
            reference_equivalent=not failures,
        ),
    }
    if traced:
        record["layers"] = layer_metrics(tracer, passes, setups)
        tracer.dump(work / "setup.jsonl")
    shutil.rmtree(data)
    return record


def layer_metrics(tracer: Tracer, passes: List[Dict[str, object]],
                  setups: List[float]) -> Dict[str, float]:
    """Median over traced passes of each layer, plus set-up layers."""
    names = sorted(passes[0]["layers"])
    metrics = {
        name: median([float(p["layers"][name]) for p in passes])
        for name in names
    }
    metrics.update({
        "simulation.build_world_s": median(
            tracer.durations("simulation.build_world")
        ),
        "simulation.write_world_s": median(
            tracer.durations("simulation.write_world")
        ),
        "core.classify.category_hit_rate": median(
            [float(p["category_hit_rate"]) for p in passes]
        ),
        "core.classify.relatedness_hit_rate": median(
            [float(p["relatedness_hit_rate"]) for p in passes]
        ),
        "runtime.gc_gen2_collections": median(
            [float(p["gc"]["gen2_collections"]) for p in passes]
        ),
        "runtime.gc_pause_ms": median(
            [float(p["gc"]["pause_ms"]) for p in passes]
        ),
        "trace.span_coverage": min(
            float(p["span_coverage"]) for p in passes
        ),
        "traced.setup_s": median(setups),
        "traced.op_cpu_ms": 1000.0 * statistics.mean(
            [float(p["tables_cpu_s"]) for p in passes]
        ),
        "tables_s": statistics.mean([float(p["tables_s"]) for p in passes]),
        "traced.peak_rss_mb": median(
            [float(p["peak_rss_mb"]) for p in passes]
        ),
    })
    return metrics
