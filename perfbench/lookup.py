"""Workloads ``lookup-skewed`` and ``lookup-churn``: the lease-lookup API.

The server runs in its own process (``serve_proc.py``); this process is
the open-loop generator (``loadgen.py``) and the correctness gate.

``lookup-skewed`` — static index, prefix lookups with Zipf-like key
popularity (the top 1,024 keys draw most lookups, so the 1,024-entry
response cache pays), plus misses, ``/v1/asn``, ``/v1/org`` and
16-prefix ``/v1/bulk``.  Phases: warm-up, then nominal-rate segments
(measured) interleaved with a high-rate segment and a fixed rate ladder
for the sustained rate.

``lookup-churn`` — the same server with a 12-epoch temporal history
mounted and a live BGP feed applied at a fixed burst rate, each burst
publishing a new generation (which invalidates every cached answer).
Reads draw keys uniformly (working set far larger than the cache) and
include ``?at=`` lookups, ``/history`` and ``/v1/churn``.

Gates, after timing and in no metric: every status is the expected one;
a seeded sample of bodies equals the answer computed directly from an
independently built index (``resolve_text``, ``by_asn``, ``by_org``,
``index_for_epoch``, timelines); for churn, the final live generation
equals a from-scratch pipeline over the replayed routing table.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import common
from common import median, quantile
from loadgen import (
    Outcome,
    Phase,
    Request,
    http_get,
    lags,
    latencies,
    run_open_loop,
    schedule_digest,
)

#: Open-loop capacity of each lookup workload on the 2-vCPU development
#: host: the highest rate of a 3-second-step ladder whose p99 stayed
#: within LATENCY_LIMIT with no backlog (two ladders per workload, seeds
#: 1-3; perfbench/README.md has the figures).  ``lookup-churn`` serves
#: every read from the index (each burst empties the response cache)
#: while a feed thread takes CPU, so its capacity is lower.
SKEWED_CAPACITY = 7000.0
CHURN_CAPACITY = 5000.0
#: Nominal and high arrival rates (requests/s): 35% and 70% of capacity.
NOMINAL_RATE = 0.35 * SKEWED_CAPACITY
HIGH_RATE = 0.70 * SKEWED_CAPACITY
CHURN_RATE = 0.35 * CHURN_CAPACITY
#: Fixed ladder for ``sustained_rps``, ascending, around the capacity.
LADDER = (5000.0, 6000.0, 7000.0, 8000.0, 9000.0)
#: p99 limit a ladder step must meet (seconds).
LATENCY_LIMIT = 0.025
#: The generator's own bound: a run whose nominal phase (or the /healthz
#: check at the top ladder rate) sent 1% of requests later than this
#: measured the generator, not the server, and is invalid; a ladder step
#: that lags this much is not sustained.
LAG_BOUND = 0.010
#: Live-feed bursts per second in ``lookup-churn``.
BURST_RATE = 25.0
#: Zipf exponent of prefix popularity in ``lookup-skewed``.
ZIPF_S = 1.1
#: Prefixes per ``/v1/bulk`` call.
BULK = 16
#: Share of requests whose body the gate checks.
VERIFY_SHARE = 0.03
#: Idle gap after each ``lookup-skewed`` phase, as a share of the run,
#: so one phase's queue does not leak into the next.
PHASE_GAP = 0.02

#: Request kinds and their weights.  ``lookup-skewed`` uses the weights
#: of the program's own closed-loop generator (``repro loadgen``: hot 40
#: + cold 20 prefix lookups, misses 10, ASN 10, org 10, bulk 5) without
#: its 5 of ``/v1/stats`` polls, which no lookup client sends; its hot
#: and cold prefix lookups are one kind here, keyed by Zipf popularity.
SKEWED_MIX = (("prefix", 60), ("miss", 10), ("asn", 10), ("org", 10),
              ("bulk", 5))
#: ``lookup-churn`` has no measured or published basis: no query log of
#: a time-travel lookup service exists to draw on.  The weights give
#: every historical endpoint at least 5% of the reads, so a run samples
#: each of them thousands of times.
CHURN_MIX = (("prefix", 40), ("at-prefix", 25), ("at-asn", 5),
             ("at-org", 5), ("org", 5), ("history", 15), ("churn", 5))

#: Kinds whose answer depends only on the schedule, never on when the
#: live feed reached the server — the gate can check their bodies.
STATIC_KINDS = {
    "lookup-skewed": {"prefix", "miss", "asn", "org", "bulk"},
    "lookup-churn": {"at-prefix", "at-asn", "at-org", "history", "churn"},
}


def plan(workload: str, seconds: float) -> List[Phase]:
    """The phases of one run, scaled to *seconds* of load.

    ``lookup-skewed`` interleaves short nominal-rate segments with the
    high-rate and ladder segments, so the measured nominal latency
    averages over the whole run rather than one stretch of it — the
    host's speed drifts over seconds.
    """
    if workload == "lookup-churn":
        return [Phase("warmup", CHURN_RATE, 0.06 * seconds),
                Phase("nominal", CHURN_RATE, 0.94 * seconds)]
    warmup = Phase("warmup", NOMINAL_RATE, 0.06 * seconds)
    stress = [("high", HIGH_RATE)] + [
        (f"ladder-{int(rate)}", rate) for rate in LADDER
    ]
    gap = PHASE_GAP * seconds
    usable = 0.94 * seconds - 2 * gap * len(stress)
    phases = [warmup]
    for name, rate in stress:
        phases.append(Phase("nominal", NOMINAL_RATE,
                            0.64 * usable / len(stress), gap))
        phases.append(Phase(name, rate, 0.36 * usable / len(stress), gap))
    return phases


def positions(phases: List[Phase], name: str) -> List[int]:
    """Schedule positions of every phase called *name*."""
    return [i for phase in phases if phase.name == name
            for i in phase.requests]


@dataclass
class Reference:
    """The client's own copy of the program's answers, for keys and gates."""

    world: object
    index: object
    #: The fast engine's result equals the frozen ``run_reference``'s.
    equivalent: bool
    temporal: object = None
    feed: List = field(default_factory=list)

    @classmethod
    def build(cls, workload: str, seed: int, size: str,
              bursts: int) -> "Reference":
        from repro.core import LeaseInferencePipeline, result_digest
        from repro.core.leaseindex import LeaseIndex
        from repro.simulation import (
            bench_world,
            build_world,
            simulate_update_bursts,
        )

        world = build_world(bench_world(size, common.world_seed(seed)))
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        result = pipeline.run()
        equivalent = (result_digest(result)
                      == result_digest(pipeline.run_reference()))
        reference = cls(world, LeaseIndex.build(pipeline.context, result),
                        equivalent)
        if workload == "lookup-churn":
            from repro.bench import build_temporal_product
            from serve_proc import BURST_SIZE, EPOCHS

            reference.temporal = build_temporal_product(
                world, pipeline.context, result, epochs=EPOCHS
            )[0]
            reference.feed = simulate_update_bursts(
                world, bursts, BURST_SIZE, common.traffic_seed(seed)
            )
        return reference


def feed_digest(feed: Sequence) -> str:
    return common.digest_json(
        [[str(item) for item in burst] for burst in feed]
    )


def _misses(index, count: int) -> List[str]:
    """/24s in reserved space that no classified leaf covers."""
    from repro.net import Prefix

    found = []
    for third in range(256):
        text = f"240.0.{third}.0/24"
        if index.resolve(Prefix.parse(text)) is None:
            found.append(text)
            if len(found) == count:
                break
    return found


def _pick(mix: Sequence[Tuple[str, float]], rng: random.Random) -> str:
    roll = rng.random() * sum(weight for _kind, weight in mix)
    for kind, weight in mix:
        if roll < weight:
            return kind
        roll -= weight
    return mix[-1][0]


def build_schedule(workload: str, reference: Reference, phases: List[Phase],
                   seed: int) -> List[Request]:
    """The seeded request schedule: Poisson arrivals per phase."""
    rng = random.Random(seed)
    index = reference.index
    prefixes = [str(prefix) for prefix in index.prefixes()]
    asns = [str(asn) for asn in index.asns()]
    orgs = index.orgs()
    popular = list(prefixes)
    rng.shuffle(popular)
    cumulative: List[float] = []
    total = 0.0
    for rank in range(len(popular)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    misses = _misses(index, 32)
    epochs: Sequence[int] = ()
    history: List[str] = []
    if reference.temporal is not None:
        epochs = reference.temporal.epoch_timestamps()
        history = [str(p) for p in reference.temporal.timelines.prefixes()]

    def zipf_key() -> str:
        return popular[bisect.bisect(cumulative, rng.random() * total)]

    def one(due: float, phase: str) -> Request:
        mix = SKEWED_MIX if workload == "lookup-skewed" else CHURN_MIX
        kind = _pick(mix, rng)
        verify = (kind in STATIC_KINDS[workload]
                  and rng.random() < VERIFY_SHARE)
        if kind == "prefix":
            key = zipf_key() if workload == "lookup-skewed" else rng.choice(
                prefixes
            )
            return Request(due, phase, kind, "GET", "/v1/prefix/" + key,
                           verify=verify)
        if kind == "miss":
            return Request(due, phase, kind, "GET",
                           "/v1/prefix/" + rng.choice(misses), status=404,
                           verify=verify)
        if kind == "asn":
            return Request(due, phase, kind, "GET",
                           "/v1/asn/" + rng.choice(asns), verify=verify)
        if kind == "org":
            return Request(due, phase, kind, "GET",
                           "/v1/org/" + rng.choice(orgs), verify=verify)
        if kind == "bulk":
            keys = [zipf_key() for _ in range(BULK)]
            body = json.dumps({"prefixes": keys}).encode("utf-8")
            return Request(due, phase, kind, "POST", "/v1/bulk", body=body,
                           verify=verify)
        if kind == "history":
            return Request(due, phase, kind, "GET",
                           f"/v1/prefix/{rng.choice(history)}/history",
                           verify=verify)
        if kind == "churn":
            return Request(due, phase, kind, "GET", "/v1/churn",
                           verify=verify)
        # ?at= lookups: a uniform instant over the recorded history.
        at = rng.randint(epochs[0], epochs[-1] + (epochs[-1] - epochs[0])
                         // max(1, len(epochs) - 1))
        epoch = reference.temporal.locate(at)
        view = reference.temporal.index.index_for_epoch(epoch)
        if kind == "at-prefix":
            key = rng.choice(prefixes)
            return Request(due, phase, kind, "GET",
                           f"/v1/prefix/{key}?at={at}", verify=verify,
                           note=(epoch, at))
        if kind == "at-asn":
            key = rng.choice(asns)
            status = 200 if view.by_asn(int(key)) is not None else 404
            return Request(due, phase, kind, "GET", f"/v1/asn/{key}?at={at}",
                           status=status, verify=verify, note=(epoch, at))
        key = rng.choice(orgs)
        return Request(due, phase, kind, "GET", f"/v1/org/{key}?at={at}",
                       verify=verify, note=(epoch, at))

    requests: List[Request] = []
    clock = 0.0
    for phase in phases:
        phase.start = clock
        end = clock + phase.seconds
        due = clock + rng.expovariate(phase.rate)
        while due < end:
            phase.requests.append(len(requests))
            requests.append(one(due, phase.name))
            due += rng.expovariate(phase.rate)
        clock = end + phase.gap
    return requests


def expected_body(request: Request, outcome: Outcome,
                  reference: Reference) -> bytes:
    """The exact body the program's public functions give for *request*."""
    from repro.core.leaseindex import parse_asn_text
    from repro.net import Prefix

    generation = outcome.generation
    index = reference.index
    path, _, _query = request.target.partition("?")
    kind = request.kind
    payload: Dict[str, object]
    if kind.startswith("at-"):
        epoch, at = request.note
        index = reference.temporal.index.index_for_epoch(epoch)
    if kind in ("prefix", "miss", "at-prefix"):
        _status, payload = index.resolve_text(path[len("/v1/prefix/"):])
    elif kind in ("asn", "at-asn"):
        asn = parse_asn_text(path[len("/v1/asn/"):])
        payload = index.by_asn(asn) or {
            "error": "AS originates no classified leaf", "asn": asn,
        }
    elif kind in ("org", "at-org"):
        payload = index.by_org(path[len("/v1/org/"):])
    elif kind == "bulk":
        results = []
        for text in json.loads(request.body)["prefixes"]:
            status, answer = index.resolve_text(text)
            answer["generation"] = generation
            results.append({"status": status, "result": answer})
        payload = {"results": results}
    elif kind == "history":
        text = path[len("/v1/prefix/"):-len("/history")]
        payload = reference.temporal.timelines.history_payload(
            Prefix.parse(text)
        )
    else:
        payload = reference.temporal.timelines.churn_payload(None)
    payload = dict(payload)
    payload["generation"] = generation
    if kind.startswith("at-") and "epoch" not in payload:
        payload["epoch"], payload["at"] = request.note
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def replayed_digests(reference: Reference, applied: int,
                     corrupt: str = ""):
    """From-scratch answers over the routing table after *applied* bursts.

    Returns ``(digests, index, equivalent)``: the digests of the index
    image and of the frozen ``run_reference`` engine's result, the
    from-scratch index, and whether the fast engine's result equals the
    reference's.  *corrupt* ``"origin_rows"`` drops one prefix from one
    by-origin row before hashing — the stale row a faulty
    ``with_updates`` would leave — and ``"all"`` zeroes every digest.
    """
    from repro.core import (
        LeaseInferencePipeline,
        clone_routing_table,
        replay_into_table,
        result_digest,
    )
    from repro.core.leaseindex import LeaseIndex

    world = reference.world
    table = clone_routing_table(world.routing_table)
    for burst in reference.feed[:applied]:
        replay_into_table(table, burst)
    pipeline = LeaseInferencePipeline(
        world.whois, table, world.relationships, world.as2org
    )
    result = pipeline.run()
    frozen = result_digest(pipeline.run_reference())
    index = LeaseIndex.build(pipeline.context, result)
    image = common.index_image(index)
    if corrupt == "origin_rows":
        rows = image["origin_rows"]
        asn = next(asn for asn in sorted(rows) if rows[asn])
        rows[asn] = rows[asn][:-1]
    digests = common.image_digests(image)
    digests["engine"] = frozen
    if corrupt == "all":
        digests = {key: "0" * 64 for key in digests}
    return digests, index, result_digest(result) == frozen


def pin(pid: int, which: int) -> None:
    """Pin *pid* to one CPU (first or last allowed) when there are two.

    The server and the generator then never share a CPU, and their
    placement is the same in every run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[which]})


class Spinners:
    """Idle-priority busy loops, one per CPU, while load runs.

    On a virtual machine an idle virtual CPU halts, and waking it for
    the next request costs the hypervisor's wake-up latency — measured
    at a p99 of 2-4 ms for a cross-CPU socket round trip on a 2-vCPU
    host, against 0.04 ms with these loops running.  ``SCHED_IDLE``
    loops run only when nothing else wants the CPU, so they keep the
    CPUs awake without taking time from the server or the generator.
    """

    #: Each loop ends with its parent: the kernel kills it when the
    #: parent dies (``PR_SET_PDEATHSIG``), and it stops by itself once
    #: it has been re-parented, should the signal not be available.
    CODE = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import common\n"
        "parent = int(sys.argv[1])\n"
        "common.die_with_parent()\n"
        "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
        "while os.getppid() == parent:\n    pass\n"
    )

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []

    def __enter__(self) -> "Spinners":
        for cpu in sorted(os.sched_getaffinity(0)):
            process = subprocess.Popen([
                sys.executable, "-c", self.CODE, str(os.getpid()),
                str(common.BENCH_DIR),
            ])
            os.sched_setaffinity(process.pid, {cpu})
            self.processes.append(process)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait(timeout=30)


class Server:
    """The ``serve_proc.py`` child and its JSON-lines channel."""

    def __init__(self, workload: str, seed: int, size: str, bursts: int,
                 trace: Optional[str]) -> None:
        command = [sys.executable, str(common.BENCH_DIR / "serve_proc.py"),
                   workload, str(seed), size, str(bursts), str(BURST_RATE)]
        if trace:
            command += ["--trace", trace]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            pin(self.process.pid, -1)
            self.ready = self.read("ready")
        except BaseException:
            self.close()
            raise

    def read(self, event: str) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before {event!r}")
        record = json.loads(line)
        if record.get("event") != event:
            raise RuntimeError(f"server sent {record!r}, wanted {event!r}")
        return record

    def send(self, command: str) -> None:
        self.process.stdin.write(json.dumps({"cmd": command}) + "\n")
        self.process.stdin.flush()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def generator_check(address: Tuple[str, int]) -> float:
    """Lag p99 (s) of /healthz at the top ladder rate for half a second."""
    rng = random.Random(0)
    requests, due = [], 0.0
    while due < 0.5:
        due += rng.expovariate(LADDER[-1])
        requests.append(Request(due, "check", "health", "GET", "/healthz"))
    outcomes, start = run_open_loop(address, requests)
    if not all(o.ok and o.status == 200 for o in outcomes):
        raise RuntimeError("generator check: /healthz did not answer")
    return quantile(lags(requests, outcomes, start, range(len(requests))),
                    0.99)


def ladder_result(phases: List[Phase], requests: List[Request],
                  outcomes: List[Outcome], start: float) -> float:
    """Highest ladder rate whose p99 meets the limit with no backlog."""
    sustained = 0.0
    for phase in phases:
        if not phase.name.startswith("ladder-"):
            continue
        positions = phase.requests
        values = latencies(requests, outcomes, start, positions)
        if not positions or len(values) < len(positions):
            break
        end = start + phase.start + phase.seconds
        backlog = sum(1 for i in positions if outcomes[i].done > end)
        lag = quantile(lags(requests, outcomes, start, positions), 0.99)
        if (quantile(values, 0.99) > LATENCY_LIMIT
                or backlog > phase.rate * LATENCY_LIMIT
                or lag > LAG_BOUND):
            break
        sustained = phase.rate
    return sustained


def run(workload: str, seed: int, seconds: float, traced: bool,
        size: str = common.WORLD_SIZE,
        corrupt: str = "") -> Dict[str, object]:
    """One run of a lookup workload; returns the record for ``run.py``.

    *corrupt* spoils the gates' expectations so the smoke test can prove
    they fire: ``"all"`` flips every expected body and final-state
    digest, ``"origin_rows"`` only the final index's by-origin rows
    (see :func:`replayed_digests`).
    """
    phases = plan(workload, seconds)
    bursts = (int(BURST_RATE * sum(p.seconds for p in phases))
              if workload == "lookup-churn" else 0)
    reference = Reference.build(workload, seed, size, bursts)
    requests = build_schedule(workload, reference, phases,
                              common.traffic_seed(seed))
    # The generator's own heap stays out of its collector's way.
    gc.collect()
    gc.freeze()
    trace = f"{workload}-{seed}-server.jsonl" if traced else None
    cpus = os.sched_getaffinity(0)
    server = Server(workload, seed, size, bursts, trace)
    try:
        pin(0, 0)
        address = ("127.0.0.1", int(server.ready["port"]))
        with Spinners():
            check_lag = generator_check(address)
            server.send("mark")
            outcomes, start = run_open_loop(address, requests)
        _status, _headers, stats_body = http_get(address, "/v1/stats")
        server.send("drain")
        drained = server.read("drained")
        final_sample = []
        if workload == "lookup-churn":
            rng = random.Random(seed)
            final_sample = [
                (text, http_get(address, "/v1/prefix/" + text))
                for text in rng.sample(
                    [str(p) for p in reference.index.prefixes()], 64
                )
            ]
        server.send("finish")
        report = server.read("report")
        server.process.wait(timeout=60)
    finally:
        server.close()
        os.sched_setaffinity(0, cpus)
        gc.unfreeze()

    checks, failures = gate(workload, reference, requests, outcomes,
                            drained, report, final_sample, corrupt)
    nominal = positions(phases, "nominal")
    read = latencies(requests, outcomes, start, nominal)
    lag_p99 = quantile(lags(requests, outcomes, start, nominal), 0.99)
    # Server processor time per scheduled request, from the start of the
    # schedule until the feed has drained: request handling, the churn
    # feed, and collection of the server's heap.
    cpu_ms = 1000.0 * float(drained["cpu_s"]) / len(requests)
    invalid = None
    if max(lag_p99, check_lag) > LAG_BOUND:
        invalid = (
            f"generator lag p99 {1000 * lag_p99:.2f} ms (check "
            f"{1000 * check_lag:.2f} ms) exceeds {1000 * LAG_BOUND:.0f} ms"
        )
    record: Dict[str, object] = {
        "invalid": invalid,
        "attempted": checks,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "setup_s": median(server.ready["setup_s"]),
            "op_cpu_ms": cpu_ms,
            "peak_rss_mb": float(report["peak_rss_mb"]),
        },
        "wall": {"read_p50_ms": 1000.0 * quantile(read, 0.5)},
        "provenance": common.provenance(
            seed,
            world_size=size,
            classifiable_leaves=server.ready["leaves"],
            routed_prefixes=server.ready["routed_prefixes"],
            feed_bursts=server.ready["feed_bursts"],
            requests=len(requests),
            nominal_requests=len(nominal),
            schedule_digest=schedule_digest(requests),
            feed_digest=feed_digest(reference.feed),
            reference_equivalent=reference.equivalent and not failures,
            valid=invalid is None,
        ),
    }
    if traced:
        record["layers"] = layer_metrics(
            phases, requests, outcomes, start, json.loads(stats_body),
            report, lag_p99,
        )
        record["layers"]["traced.setup_s"] = median(server.ready["setup_s"])
        record["layers"]["traced.op_cpu_ms"] = cpu_ms
    return record


def gate(workload: str, reference: Reference, requests: List[Request],
         outcomes: List[Outcome], drained: Dict[str, object],
         report: Dict[str, object], final_sample, corrupt: str
         ) -> Tuple[int, List[str]]:
    """``(checks made, failures)``: one check per request, the fast
    engine's equivalence to ``run_reference``, and the final-state checks
    of ``lookup-churn``."""
    failures: List[str] = []
    checks = len(requests) + 1
    if not reference.equivalent:
        failures.append("initial run() differs from run_reference()")
    if workload == "lookup-churn":
        want, index, equivalent = replayed_digests(
            reference, int(drained["applied"]), corrupt
        )
        checks += len(want) + 2 + len(final_sample)
        if not equivalent:
            failures.append("replayed run() differs from run_reference()")
        for key, value in want.items():
            if report["digests"].get(key) != value:
                failures.append(f"final live {key} digest differs")
        if int(drained["applied"]) != len(reference.feed):
            failures.append("feed not fully applied")
        for text, (status, headers, body) in final_sample:
            _want_status, payload = index.resolve_text(text)
            payload["generation"] = int(headers.get("x-generation", 0))
            if status != 200 or body != json.dumps(
                payload, sort_keys=True
            ).encode("utf-8"):
                failures.append(f"final live /v1/prefix/{text} differs")
    for request, outcome in zip(requests, outcomes):
        if not outcome.ok:
            failures.append(f"{request.target}: {outcome.error}")
        elif outcome.status != request.status:
            failures.append(
                f"{request.target}: status {outcome.status}, "
                f"want {request.status}"
            )
        elif request.verify:
            want = expected_body(request, outcome, reference)
            if corrupt == "all":
                want += b" "
            if outcome.body != want:
                failures.append(f"{request.target}: body differs")
    return checks, failures


def layer_metrics(phases: List[Phase], requests: List[Request],
                  outcomes: List[Outcome], start: float,
                  stats: Dict[str, object],
                  report: Dict[str, object], lag_p99: float
                  ) -> Dict[str, float]:
    """Per-layer metrics from the server report, ``/v1/stats`` and lags."""
    metrics: Dict[str, float] = dict(report.get("layers", {}))
    feed = report.get("feed") or {}
    for name in ("core.incremental_apply_p50_ms",
                 "core.incremental_apply_p90_ms",
                 "core.incremental.reclassified",
                 "core.incremental.noop_burst_share",
                 "core.leaseindex_with_updates_p50_ms",
                 "core.leaseindex_with_updates_p90_ms",
                 "serve.apply_updates_ms", "serve.swap_lock_wait_ms",
                 "update_visible_p50_ms", "update_visible_p90_ms"):
        metrics[name] = float(feed.get(name, 0.0))
    metrics["core.leaseindex.override_entries"] = float(
        report["override_entries"]
    )
    metrics["serve.generations"] = float(report["generation"])
    cache = stats["cache"]
    metrics["serve.cache_hit_rate"] = float(cache["hit_rate"])
    metrics["serve.cache_evictions"] = float(cache["evictions"])
    endpoints = stats["endpoints"]
    handler_ms = handled = 0.0
    for name in ("prefix", "asn", "org", "bulk", "history", "churn"):
        entry = endpoints.get(name, {})
        count = float(entry.get("requests", 0))
        total_ms = float(entry.get("total_ms", 0.0))
        metrics[f"serve.endpoint.{name}.mean_ms"] = (
            total_ms / count if count else 0.0
        )
        metrics[f"serve.endpoint.{name}.max_ms"] = float(
            entry.get("max_ms", 0.0)
        )
        handler_ms += total_ms
        handled += count
    every = latencies(requests, outcomes, start, range(len(requests)))
    metrics["serve.outside_handler_ms"] = (
        1000.0 * sum(every) / len(every) - handler_ms / handled
    )
    metrics["loadgen.lag_p99_ms"] = 1000.0 * lag_p99
    high = latencies(requests, outcomes, start, positions(phases, "high"))
    metrics["read_high_p99_ms"] = (
        1000.0 * quantile(high, 0.99) if high else 0.0
    )
    metrics["sustained_rps"] = ladder_result(phases, requests, outcomes,
                                             start)
    read = latencies(requests, outcomes, start, positions(phases, "nominal"))
    metrics["read_p50_ms"] = 1000.0 * quantile(read, 0.5)
    metrics["read_p99_ms"] = 1000.0 * quantile(read, 0.99)
    metrics["traced.peak_rss_mb"] = float(report["peak_rss_mb"])
    return metrics
