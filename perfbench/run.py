"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``dumps-to-tables`` — world dumps on disk to Tables 1-3 and the
  §6.3-6.4 statistics (``batch.py``);
* ``lookup-skewed`` — open-loop lookups with skewed key popularity
  against the lease-lookup server (``lookup.py``);
* ``lookup-churn`` — open-loop lookups, including time-travel queries,
  while a live BGP feed publishes new generations (``lookup.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries the run's provenance and its wall-clock figures
(``tables_s`` or ``read_p50_ms``), and ``valid``: a lookup
run whose generator fell behind its schedule is repeated once, and if
the repeat lags too it is reported with ``valid`` false.  Exit status is
2 when the program is missing or the arguments are bad, and when the run
is stopped by its time limit or by ``SIGTERM`` (every child is stopped
first).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict, List

import common
from common import BenchError, metric

WORKLOADS = ("dumps-to-tables", "lookup-skewed", "lookup-churn")

#: End-to-end metrics, reported by every workload, with units.
#: ``op_cpu_ms`` is the processor time the program spends on the
#: workload's unit of work: the mean dumps-to-tables pass, or the server
#: process's busy time per lookup request.  The wall-clock figures a
#: user waits for (``tables_s``, ``read_p50_ms``) are printed beside the
#: provenance and traced as per-layer metrics: on the development VM
#: they moved with the host's load by more than any bound allows
#: (perfbench/README.md).
END_TO_END = {
    "setup_s": "s",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> Dict[str, object]:
    """One valid run if possible: an invalid one is repeated once."""
    if workload == "dumps-to-tables":
        import batch

        return batch.run(seed, seconds, traced)
    import lookup

    record = lookup.run(workload, seed, seconds, traced)
    if record["invalid"]:
        print(f"perfbench: invalid run ({record['invalid']}); repeating it",
              file=sys.stderr)
        record = lookup.run(workload, seed, seconds, traced)
    return record


def result_line(record: Dict[str, object], traced: bool) -> Dict[str, object]:
    """The contract's last line from a workload's record."""
    if traced:
        from layers import PER_LAYER

        values = record.get("layers", {})
        metrics = {name: metric(values.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        values = record["end_to_end"]
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


#: A run that is not done by then stops (its ``finally`` blocks stop
#: every child process) and exits non-zero.
TIME_LIMIT_S = 170


def _out_of_time(signum, frame) -> None:
    raise BenchError(f"run exceeded {TIME_LIMIT_S} s")


def _terminated(signum, frame) -> None:
    raise BenchError("terminated")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(TIME_LIMIT_S)
    try:
        common.require_program()
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (common.OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"provenance": record["provenance"],
                      "wall": record["wall"],
                      "failures": record.get("failures", [])},
                     sort_keys=True))
    print(json.dumps(result_line(record, bool(args.trace)), sort_keys=True))
    signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
