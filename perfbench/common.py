"""Shared helpers for the benchmark: paths, seeds, statistics, provenance.

Every benchmark process (the entry point ``run.py``, the timed batch pass,
the server process) imports this module first; it puts the checkout's
``src/`` on ``sys.path`` so the program under test is the source tree
next to this directory, never an installed copy.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of development and tuning; a claimed gain must also
#: hold on it.
HELD_OUT_SEED = 977

#: World tier of every workload (``bench_world`` size name).  ``medium``
#: (~6.9k classifiable leaves) keeps three set-ups, the measured phase
#: and the correctness gates of one run well under a minute on 2 CPUs.
WORLD_SIZE = "medium"

#: Where runs leave traces and scratch dumps (inside the checkout).
OUT_DIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Put ``src/`` on the path; fail unless the program is there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program source not found at {SRC}/repro; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def world_seed(seed: int) -> int:
    """The world-generation seed derived from the run seed."""
    return 20240401 + seed


def traffic_seed(seed: int) -> int:
    """The request-schedule and feed seed derived from the run seed."""
    return 7_000_003 * (seed + 1)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[min(len(ordered), int(rank)) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def max_rss_mb() -> float:
    """This process's own peak resident set size in MB.

    ``VmHWM``, not ``ru_maxrss``: Linux carries ``ru_maxrss`` across
    ``fork`` and ``exec``, so a child started by a larger parent reports
    the parent's size instead of its own.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def provenance(seed: int, **sizes: object) -> Dict[str, object]:
    """Per-run provenance: host, interpreter, seeds and tier sizes."""
    return {
        "cpus": cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "world_seed": world_seed(seed),
        "traffic_seed": traffic_seed(seed),
        **sizes,
    }


def digest_json(value: object) -> str:
    """sha256 of a canonical JSON encoding."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def directory_bytes(directory: Path) -> int:
    return sum(
        path.stat().st_size for path in Path(directory).rglob("*")
        if path.is_file()
    )


def index_image(index) -> Dict[str, object]:
    """Everything a ``LeaseIndex`` answers from, as JSON-ready parts.

    The exact payload of every prefix, the by-origin rows behind
    ``/v1/asn``, the per-category tallies and the leased count — the
    parts ``with_updates`` patches incrementally, so a gate comparing
    images catches a stale row or a miscounted category.
    """
    return {
        "exact": {str(prefix): index.exact(prefix)
                  for prefix in index.prefixes()},
        "origin_rows": {str(asn): [str(prefix) for prefix in row]
                        for asn, row in index.origin_rows().items()},
        "category_tallies": index.category_tallies(),
        "leased_count": index.leased_count,
    }


def image_digests(image: Dict[str, object]) -> Dict[str, str]:
    """One digest per part of an :func:`index_image`."""
    return {f"index.{part}": digest_json(value)
            for part, value in image.items()}


#: ``prctl`` option asking the kernel to signal us when our parent dies.
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Have the kernel kill this process when the process that started
    it ends, however it ends (a ``SIGKILL`` runs no cleanup)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def emit(record: Dict[str, object]) -> None:
    """Write one JSON line and flush (the inter-process protocol)."""
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
