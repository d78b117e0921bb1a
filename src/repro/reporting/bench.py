"""Terminal rendering of the pipeline and serve benchmark payloads."""

from __future__ import annotations

from typing import Any, Dict, List, cast

from .text import render_table

__all__ = ["render_bench_report", "render_serve_report"]


def render_bench_report(report: Dict[str, object]) -> str:
    """Tables per benched world: engine modes, then extension pipelines.

    Accepts a single run payload (``{"worlds": [...]}``) or a v2
    trajectory file (``{"runs": [...]}``), rendering the latest run.
    Runs from older schemas render too: their extra parallel modes
    appear as rows, their extra columns are not shown.
    """
    runs = report.get("runs")  # type: ignore[union-attr]
    if isinstance(runs, list) and runs:
        report = runs[-1]
    sections: List[str] = []
    for world in report["worlds"]:  # type: ignore[union-attr]
        headers = (
            "mode",
            "wall s",
            "leaves/s",
            "vs reference",
            "peak rss",
            "cat hit%",
            "root hit%",
            "ok",
        )
        rows = []
        for mode in world["modes"]:  # type: ignore[index]
            cache = mode.get("cache") or {}
            rates = cache.get("hit_rates") or {}
            rows.append(
                (
                    mode["mode"],
                    f"{mode['wall_s']:.2f}",
                    f"{mode['leaves_per_s']:,.0f}",
                    f"{mode['speedup_vs_reference']:.2f}x",
                    _bytes(mode.get("peak_rss_bytes")),
                    _percent(rates.get("category")),
                    _percent(rates.get("root_origin")),
                    "yes" if mode["equivalent"] else "NO",
                )
            )
        title = (
            f"Pipeline bench — {world['size']} world: "
            f"{world['classifiable_leaves']:,} leaves, "
            f"generate {world['stages']['generate_s']:.2f}s"
        )
        sections.append(render_table(headers, rows, title=title))
        extensions = world.get("extensions")  # type: ignore[union-attr]
        if extensions:
            sections.append(_render_extensions(world["size"], extensions))
    return "\n\n".join(sections)


def _render_extensions(size: object, extensions: Dict[str, object]) -> str:
    headers = (
        "pipeline",
        "mode",
        "items",
        "wall s",
        "vs reference",
        "ok",
    )
    rows = []
    for pipeline in ("legacy", "rpki", "longitudinal"):
        section = extensions.get(pipeline)
        if not section:
            continue
        for mode in section["modes"]:  # type: ignore[index]
            rows.append(
                (
                    pipeline,
                    mode["mode"],
                    section["items"],  # type: ignore[index]
                    f"{mode['wall_s']:.4f}",
                    f"{mode['speedup_vs_reference']:.2f}x",
                    "yes" if mode["equivalent"] else "NO",
                )
            )
    return render_table(
        headers, rows, title=f"Extension pipelines — {size} world"
    )


def _percent(rate: object) -> str:
    if rate is None:
        return "-"
    return f"{float(rate) * 100:.0f}%"


def _bytes(value: object) -> str:
    if value is None:
        return "-"
    size = float(int(value))
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024 or unit == "GB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:,.1f} {unit}"
        size /= 1024
    return f"{size:,.1f} GB"  # pragma: no cover - unreachable


def render_serve_report(report: Dict[str, object]) -> str:
    """One serve-bench run as a summary line plus a per-kind table.

    Accepts a single run payload or a trajectory file
    (``{"runs": [...]}``), rendering the latest run.
    """
    document = cast(Dict[str, Any], report)
    runs = document.get("runs")
    if isinstance(runs, list) and runs:
        document = runs[-1]
    totals = document["totals"]
    latency = document["latency_ms"]
    server = document["server"]
    config = document["config"]
    cache = server["cache"]
    rows = []
    for kind, entry in document["kinds"].items():
        rows.append(
            (
                kind,
                entry["requests"],
                entry["errors"],
                f"{entry['p50_ms']:.2f}",
                f"{entry['p99_ms']:.2f}",
            )
        )
    title = (
        f"Serve bench — {config['world']}: "
        f"{totals['requests']:,} requests in {totals['wall_s']:.2f}s "
        f"({totals['req_per_s']:,.0f} req/s, "
        f"{totals['errors']} errors)"
    )
    table = render_table(
        ("kind", "requests", "errors", "p50 ms", "p99 ms"),
        rows,
        title=title,
    )
    probes = int(cache["hits"]) + int(cache["misses"])
    summary = (
        f"latency p50 {latency['p50']:.2f}ms  "
        f"p99 {latency['p99']:.2f}ms  max {latency['max']:.2f}ms  |  "
        f"cache hit rate {_percent(cache.get('hit_rate'))} "
        f"({cache['hits']}/{probes})  |  "
        f"generation {server['generation']}"
    )
    return table + "\n" + summary
