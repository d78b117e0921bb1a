"""Tests for the sharded inference pipeline and its substrate.

Covers the fast engine (AnalysisContext + ShardClassifier) against the
frozen reference engine, the parallel path against the serial path —
including forced spawn mode — the shared-context snapshots, the
memoization layers, shard planning, the routing-table exact index,
InferenceResult merge semantics, and the reserve address pools that
make worlds scalable.
"""

import dataclasses
import pickle

import pytest

from repro.asdata import AS2Org, ASRelationships
from repro.bgp import P2C, RoutingTable
from repro.core import (
    AllocationScan,
    AnalysisContext,
    CacheStats,
    Category,
    LeaseInferencePipeline,
    MemoizedClassifier,
    RelatednessOracle,
    RibSnapshot,
    effective_workers,
    infer_leases,
    plan_shards,
)
from repro.core.allocation_tree import AllocationTree
from repro.core.classify import classify_leaf
from repro.core.context import build_related_sets
from repro.core.results import InferenceResult
from repro.net import Prefix
from repro.rir import RIR
from repro.simulation import build_world, small_world
from repro.simulation.world import RESERVE_POOLS


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def pipeline(world):
    return LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )


def _rows(result):
    """Result as comparable rows, preserving iteration order."""
    return [
        (inf.rir, inf.prefix, inf.category, inf.leaf_origins,
         inf.root_origins, inf.root_assigned_asns)
        for inf in result
    ]


class TestStatsGate:
    """Satellite 4: stats() must fail loudly before any run."""

    def test_stats_raises_before_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships
        )
        with pytest.raises(RuntimeError, match="before run"):
            fresh.stats()

    def test_cache_stats_raises_before_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships
        )
        with pytest.raises(RuntimeError):
            fresh.cache_stats()

    def test_stats_populated_after_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run()
        stats = fresh.stats()
        assert set(stats) == set(RIR)
        assert all(stats[rir]["classifiable"] >= 0 for rir in stats)
        rates = fresh.cache_stats().hit_rates()
        assert set(rates) == {
            "relatedness", "category", "root_origin", "assigned"
        }

    def test_cache_stats_raises_after_reference_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run_reference()
        fresh.stats()  # populated by the reference engine too
        with pytest.raises(RuntimeError, match="reference"):
            fresh.cache_stats()

    def test_stats_returns_copies(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run()
        fresh.stats()[RIR.RIPE]["classifiable"] = -1
        assert fresh.stats()[RIR.RIPE]["classifiable"] >= 0


class TestEngineEquivalence:
    """The tentpole contract: every engine mode is bit-identical."""

    def test_fast_serial_matches_reference(self, pipeline):
        reference = pipeline.run_reference()
        ref_stats = pipeline.stats()
        serial = pipeline.run(workers=1)
        assert _rows(serial) == _rows(reference)
        assert pipeline.stats() == ref_stats

    def test_parallel_matches_serial(self, pipeline):
        serial = pipeline.run(workers=1)
        parallel = pipeline.run(workers=4, shard_size=16)
        assert _rows(parallel) == _rows(serial)
        assert parallel == serial

    def test_single_rir_subset(self, pipeline):
        serial = pipeline.run(rirs=[RIR.RIPE], workers=1)
        parallel = pipeline.run(rirs=[RIR.RIPE], workers=2, shard_size=8)
        assert _rows(parallel) == _rows(serial)
        assert set(pipeline.stats()) == {RIR.RIPE}

    def test_infer_leases_accepts_worker_options(self, world):
        serial = infer_leases(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        parallel = infer_leases(
            world.whois, world.routing_table, world.relationships,
            world.as2org, workers=2, shard_size=16,
        )
        assert parallel == serial

    def test_timings_recorded(self, pipeline):
        pipeline.run()
        assert set(pipeline.timings) == {"tree_build_s", "classify_s"}
        assert all(value >= 0 for value in pipeline.timings.values())

    def test_spawn_mode_matches_serial(self, world, monkeypatch):
        """Satellite: without fork, the sharded engine must still match.

        Forcing ``fork_available()`` false makes ``run_sharded`` build a
        real spawn pool, which exercises pickling the shared context to
        the workers.
        """
        import repro.core.sharding as sharding

        serial = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        ).run(workers=1)
        monkeypatch.setattr(
            sharding.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        monkeypatch.setattr(
            sharding.multiprocessing,
            "get_start_method",
            lambda allow_none=False: "spawn",
        )
        assert not sharding.fork_available()
        spawned = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        ).run(workers=2, shard_size=16)
        assert _rows(spawned) == _rows(serial)

    def test_run_reuses_supplied_context(self, world, pipeline):
        serial = pipeline.run(workers=1)
        context = pipeline.context
        assert context is not None
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        reused = fresh.run(workers=1, context=context)
        assert fresh.context is context
        assert _rows(reused) == _rows(serial)


class TestAnalysisContext:
    """The shared snapshot must mirror its live substrates exactly."""

    @pytest.fixture(scope="class")
    def context(self, world):
        return AnalysisContext.build(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )

    def test_rib_snapshot_matches_routing_table(self, world, context):
        table = world.routing_table
        probes = set()
        for prefix in table.prefixes():
            probes.add(prefix)
            if prefix.length < 28:
                probes.add(prefix.nth_subnet(prefix.length + 2, 1))
            if prefix.length > 2:
                probes.add(prefix.supernet(prefix.length - 2))
        for probe in probes:
            assert context.rib.exact_origins(probe) == frozenset(
                table.exact_origins(probe)
            )
            assert context.rib.covering_origins(probe) == frozenset(
                table.covering_origins(probe)
            )

    def test_related_sets_match_oracle(self, world, context):
        oracle = RelatednessOracle(world.relationships, world.as2org)
        sample = sorted(world.relationships.asns())[:40]
        for left in sample:
            family = context.related_to(left)
            for right in sample:
                assert oracle.related(left, right) == (right in family)

    def test_assigned_matches_database(self, world, context):
        for rir in context.rirs:
            database = world.whois[rir]
            for org_id, asns in context.assigned[rir].items():
                assert asns == frozenset(database.asns_of_org(org_id))

    def test_pickle_drops_leaf_records(self, context):
        clone = pickle.loads(pickle.dumps(context))
        assert clone.leaf_keys == context.leaf_keys
        assert clone.related_sets == context.related_sets
        assert clone.rib.covering_origins(
            Prefix.parse("0.0.0.0/0")
        ) == context.rib.covering_origins(Prefix.parse("0.0.0.0/0"))
        with pytest.raises(RuntimeError, match="stripped"):
            clone.leaves(context.rirs[0])

    def test_build_related_sets_contains_self(self, world):
        related = build_related_sets(world.relationships, world.as2org)
        assert related
        assert all(asn in family for asn, family in related.items())


class TestAllocationScan:
    """The sorted-scan tree must agree with the pointer tree everywhere."""

    @pytest.mark.parametrize("rir", list(RIR), ids=lambda r: r.name)
    def test_scan_matches_tree(self, world, rir):
        database = world.whois[rir]
        tree = AllocationTree(database)
        scan = AllocationScan(database)
        assert [
            (leaf.prefix, leaf.record, leaf.root_prefix)
            for leaf in scan.leaves()
        ] == [
            (leaf.prefix, leaf.record, leaf.root_prefix)
            for leaf in tree.leaves()
        ]
        assert [
            leaf.prefix for leaf in scan.classifiable_leaves()
        ] == [leaf.prefix for leaf in tree.classifiable_leaves()]
        assert scan.root_count == len(tree.roots())

    def test_scan_stats_keys(self, world):
        scan = AllocationScan(world.whois[RIR.RIPE])
        assert set(scan.stats()) == {
            "nodes", "roots", "leaves", "classifiable",
            "hyper_specific_dropped", "legacy_dropped",
        }
        assert len(scan) == scan.stats()["nodes"]


class TestRoutingTableIndex:
    def _table(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/16"), 65001)
        table.add_route(Prefix.parse("10.0.1.0/24"), 65002)
        table.add_route(Prefix.parse("10.0.1.0/24"), 65003)
        return table

    def test_items_mirror_lookups(self):
        table = self._table()
        index = dict(table.items())
        assert index[Prefix.parse("10.0.1.0/24")] == {65002, 65003}
        assert table.exact_origins(Prefix.parse("10.0.1.0/24")) == {
            65002, 65003,
        }
        assert Prefix.parse("10.0.2.0/24") not in index

    def test_withdraw_keeps_everything_consistent(self):
        table = self._table()
        leaf = Prefix.parse("10.0.1.0/24")
        count_before = len(table)
        assert table.withdraw(leaf) is True
        assert table.withdraw(leaf) is False  # already gone
        assert not table.is_advertised(leaf)
        assert leaf not in dict(table.items())
        # covering lookup now resolves to the /16
        assert table.covering_origins(leaf) == {65001}
        assert len(table) == count_before - 2
        assert 65002 not in table.origins()

    def test_interleaved_announce_withdraw_consistency(self):
        """Satellite: exact and covering lookups (and the exact index the
        snapshots are built from) must agree after any announce/withdraw
        interleaving."""
        p16 = Prefix.parse("10.0.0.0/16")
        p20 = Prefix.parse("10.0.16.0/20")
        p24 = Prefix.parse("10.0.1.0/24")
        p24b = Prefix.parse("10.0.16.0/24")
        probes = [p16, p20, p24, p24b, Prefix.parse("10.0.2.0/24")]
        operations = [
            ("announce", p16, 65001),
            ("announce", p24, 65002),
            ("announce", p24, 65003),
            ("withdraw", p24, None),
            ("announce", p20, 65004),
            ("announce", p24b, 65005),
            ("withdraw", p16, None),
            ("announce", p24, 65006),
            ("announce", p16, 65007),
            ("withdraw", p24b, None),
            ("withdraw", p20, None),
        ]
        table = RoutingTable()
        for action, prefix, origin in operations:
            if action == "announce":
                table.add_route(prefix, origin)
            else:
                assert table.withdraw(prefix) is True
            snapshot = RibSnapshot.from_routing_table(table)
            index = dict(table.items())
            for probe in probes:
                exact = frozenset(table.exact_origins(probe))
                covering = frozenset(table.covering_origins(probe))
                assert snapshot.exact_origins(probe) == exact
                assert snapshot.covering_origins(probe) == covering
                if exact:
                    assert covering == exact
                assert (probe in index) == bool(exact)


class TestMemoization:
    def _oracle(self):
        relationships = ASRelationships()
        relationships.add(100, 200, P2C)
        as2org = AS2Org()
        as2org.add_org("ORG-X")
        as2org.map_asn(300, "ORG-X")
        as2org.map_asn(400, "ORG-X")
        return RelatednessOracle(relationships, as2org)

    def test_relatedness_cache_hits_on_real_world(self, world):
        """Satellite: the re-keyed (leaf_origin, root_org) memo must
        actually hit — the old per-AS-pair memo recorded 0.0 forever."""
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run(workers=1)
        stats = fresh.cache_stats()
        assert stats.relatedness_hits > 0
        assert stats.hit_rates()["relatedness"] > 0.0

    def test_memoized_classifier_is_transparent(self):
        oracle = self._oracle()
        memo = MemoizedClassifier(oracle)
        cases = [
            (frozenset(), frozenset(), frozenset()),
            (frozenset({200}), frozenset({100}), frozenset()),
            (frozenset({999}), frozenset({100}), frozenset()),
            (frozenset({200}), frozenset({100}), frozenset()),  # repeat
        ]
        for leaf_origins, root_origins, assigned in cases:
            assert memo.classify(
                leaf_origins, root_origins, assigned
            ) == classify_leaf(leaf_origins, root_origins, assigned, oracle)
        assert memo.hits == 1
        assert memo.misses == 3

    def test_cache_stats_merge_and_rates(self):
        left = CacheStats(relatedness_hits=3, relatedness_misses=1)
        right = CacheStats(relatedness_hits=1, relatedness_misses=3,
                           category_hits=2)
        left.merge(right)
        assert left.relatedness_hits == 4
        assert left.relatedness_misses == 4
        assert left.hit_rates()["relatedness"] == 0.5
        assert left.hit_rates()["category"] == 1.0
        assert CacheStats().hit_rates()["assigned"] == 0.0
        payload = left.as_dict()
        assert payload["relatedness_hits"] == 4
        assert "hit_rates" in payload


class TestShardPlanning:
    def test_plan_shards_covers_every_leaf_once(self):
        shards = plan_shards([10, 0, 5], shard_size=4)
        seen = set()
        for shard in shards:
            for index in range(shard.start, shard.stop):
                key = (shard.work_index, index)
                assert key not in seen
                seen.add(key)
        assert seen == {(0, i) for i in range(10)} | {
            (2, i) for i in range(5)
        }
        assert all(len(shard) <= 4 for shard in shards)

    def test_plan_shards_empty(self):
        assert plan_shards([], shard_size=4) == []
        assert plan_shards([0, 0], shard_size=4) == []

    def test_effective_workers_serial_cases(self):
        assert effective_workers(1, total_items=10_000, shard_size=16) == 1
        assert effective_workers(0, total_items=10_000, shard_size=16) == 1
        # one shard's worth of work is not worth a pool
        assert effective_workers(4, total_items=10, shard_size=16) == 1

    def test_effective_workers_parallel_case(self):
        # No fork gate any more: the context is spawn-safe, so the pool
        # runs wherever a start method exists.
        assert effective_workers(4, total_items=10_000, shard_size=16) == 4


class TestInferenceResultOps:
    def test_merge_and_from_inferences(self, pipeline):
        full = pipeline.run()
        inferences = list(full)
        rebuilt = InferenceResult.from_inferences(inferences)
        assert rebuilt == full
        left = InferenceResult.from_inferences(inferences[: len(inferences) // 2])
        right = InferenceResult.from_inferences(inferences[len(inferences) // 2 :])
        left.merge(right)
        assert left == full

    def test_eq_is_order_independent(self, pipeline):
        full = pipeline.run()
        reversed_result = InferenceResult.from_inferences(
            list(reversed(list(full)))
        )
        assert reversed_result == full
        assert _rows(reversed_result) != _rows(full)  # order does differ

    def test_eq_detects_differences(self, pipeline):
        full = pipeline.run()
        inferences = list(full)
        assert InferenceResult.from_inferences(inferences[:-1]) != full
        assert full != object()


class TestReservePools:
    def test_exhausted_pool_draws_reserve_pools(self):
        # Shrink one region of the small world to a single /8 and demand
        # more than its 256 /16s: the builder must overflow into
        # RESERVE_POOLS instead of raising.
        base = small_world()
        regions = tuple(
            spec
            if spec.rir is not RIR.RIPE
            else dataclasses.replace(
                spec,
                # > 256 holders' worth of /16 roots at 6 leaves/holder
                leased_group4=260 * 6,
                address_pools=spec.address_pools[:1],
            )
            for spec in base.regions
        )
        scenario = dataclasses.replace(base, regions=regions)
        world = build_world(scenario)
        reserve_first_octets = {
            record.range.first >> 24
            for record in world.whois[RIR.RIPE].inetnums
            if (record.range.first >> 24) in RESERVE_POOLS
        }
        assert reserve_first_octets, "expected reserve /8s to be drawn"
        assert reserve_first_octets <= set(RESERVE_POOLS)

    def test_reserve_pools_untouched_at_small_scale(self):
        world = build_world(small_world())
        used = {
            record.range.first >> 24
            for rir in RIR
            for record in world.whois[rir].inetnums
        }
        assert not (used & set(RESERVE_POOLS))
