"""The benchmark's own tests: output shape, determinism, gates that fire.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Every run here uses the ``small`` world and a couple of seconds
of load, so the whole file takes about a minute on two CPUs.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import batch
import common
import lookup
import run
from layers import PER_LAYER
from loadgen import schedule_digest

SMALL = "small"
SECONDS = 2.0


def _declared():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert declared["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced small run of every workload."""
    out = {}
    for traced in (False, True):
        out[("dumps-to-tables", traced)] = batch.run(
            3, SECONDS, traced, size=SMALL
        )
        for workload in ("lookup-skewed", "lookup-churn"):
            out[(workload, traced)] = lookup.run(
                workload, 3, SECONDS, traced, size=SMALL
            )
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", (False, True))
def test_output_shape(records, workload, traced):
    record = records[(workload, traced)]
    line = run.result_line(record, traced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = PER_LAYER if traced else run.END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == wanted
    for name, entry in line["metrics"].items():
        assert isinstance(entry["value"], float), name
    if not traced:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    provenance = record["provenance"]
    for key in ("cpus", "python", "seed", "world_seed", "traffic_seed",
                "classifiable_leaves", "routed_prefixes",
                "reference_equivalent"):
        assert key in provenance, key


def test_traced_layers_are_populated(records):
    batch_layers = records[("dumps-to-tables", True)]["layers"]
    for name in ("whois.parse_s", "bgp.rib_load_s", "rpki.vrp_parse_s",
                 "core.context_build_s", "reporting.render_s", "tables_s"):
        assert batch_layers[name] > 0, name
    assert batch_layers["trace.span_coverage"] >= 0.95
    churn = records[("lookup-churn", True)]["layers"]
    for name in ("update_visible_p50_ms", "core.incremental_apply_p50_ms",
                 "temporal.index_build_s", "serve.generations",
                 "read_p50_ms"):
        assert churn[name] > 0, name
    assert 0 <= churn["core.incremental.noop_burst_share"] < 1
    skewed = records[("lookup-skewed", True)]["layers"]
    assert skewed["serve.cache_hit_rate"] > churn["serve.cache_hit_rate"]


@pytest.mark.parametrize("workload", ("lookup-skewed", "lookup-churn"))
def test_same_seed_same_schedule_and_feed(workload):
    def inputs(seed):
        phases = lookup.plan(workload, SECONDS)
        reference = lookup.Reference.build(workload, seed, SMALL, 40)
        requests = lookup.build_schedule(
            workload, reference, phases, common.traffic_seed(seed)
        )
        return schedule_digest(requests), lookup.feed_digest(reference.feed)

    first = inputs(5)
    assert inputs(5) == first
    assert inputs(6)[0] != first[0]


def test_batch_gate_fires_on_a_corrupted_digest():
    record = batch.run(4, 0.1, False, size=SMALL, expected_digest="0" * 64)
    assert record["failed"] == record["attempted"] >= 1
    assert run.result_line(record, False)["correct"] is False


@pytest.mark.parametrize("workload", ("lookup-skewed", "lookup-churn"))
def test_lookup_gates_fire_on_corrupted_expectations(workload):
    record = lookup.run(workload, 4, SECONDS, False, size=SMALL,
                        corrupt="all")
    assert record["failed"] > 0
    if workload == "lookup-churn":
        assert any("digest differs" in f for f in record["failures"])
    assert run.result_line(record, False)["correct"] is False
    assert record["provenance"]["reference_equivalent"] is False


def test_churn_gate_fires_on_a_stale_origin_row():
    """Only the by-origin rows behind /v1/asn differ: the gate still fires."""
    record = lookup.run("lookup-churn", 4, SECONDS, False, size=SMALL,
                        corrupt="origin_rows")
    assert record["failures"] == [
        "final live index.origin_rows digest differs"
    ]
    assert run.result_line(record, False)["correct"] is False


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_spinners_end_with_a_killed_parent():
    """A parent killed without cleanup leaves no busy loop behind."""
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(common.BENCH_DIR)!r})\n"
        "import lookup\n"
        "spinners = lookup.Spinners().__enter__()\n"
        "print(' '.join(str(p.pid) for p in spinners.processes),"
        " flush=True)\n"
        "time.sleep(60)\n"
    )
    parent = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True)
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    assert pids and all(_alive(pid) for pid in pids)
    parent.kill()
    parent.wait(timeout=30)
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(_alive(pid) for pid in pids)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero."""
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
    assert Path(tmp_path / "perfbench" / "run.py").is_file()
