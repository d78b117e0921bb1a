"""Unit tests for AS paths, routing tables, and the table-dump format."""

import pytest

from repro.asdata import ASRelationships
from repro.bgp import (
    ASPath,
    P2C,
    RibEntry,
    RoutingTable,
    read_table_dump,
    write_table_dump,
)
from repro.bgp.history import AnnounceUpdate, WithdrawUpdate
from repro.bgp.table_dump import TableDumpError, parse_line
from repro.core import (
    IncrementalEngine,
    LeaseInferencePipeline,
    clone_routing_table,
    replay_into_table,
    result_digest,
)
from repro.net import AddressRange, Prefix
from repro.rir import RIR
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisDatabase,
)


class TestASPath:
    def test_parse_and_str(self):
        path = ASPath.parse("3356 8851 15169")
        assert str(path) == "3356 8851 15169"
        assert path.origin == 15169
        assert path.peer == 3356
        assert len(path) == 3

    def test_of(self):
        assert ASPath.of(1, 2).asns == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ASPath(())

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ASPath.parse("12 abc")

    def test_prepending_collapse(self):
        path = ASPath.parse("1 2 2 2 3")
        assert path.without_prepending().asns == (1, 2, 3)

    def test_loop_detection(self):
        assert ASPath.parse("1 2 1").contains_loop()
        assert not ASPath.parse("1 2 2 3").contains_loop()

    def test_prepend(self):
        assert ASPath.of(2, 3).prepend(1).asns == (1, 2, 3)
        assert ASPath.of(2).prepend(1, count=3).asns == (1, 1, 1, 2)
        with pytest.raises(ValueError):
            ASPath.of(2).prepend(1, count=0)


class TestRoutingTable:
    @pytest.fixture
    def table(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("213.210.0.0/18"), 8851)
        table.add_route(Prefix.parse("213.210.33.0/24"), 15169)
        table.add_route(Prefix.parse("198.51.100.0/24"), 64500)
        table.add_route(Prefix.parse("198.51.100.0/24"), 64501)  # MOAS
        return table

    def test_exact_origins(self, table):
        assert table.exact_origins(Prefix.parse("213.210.33.0/24")) == {15169}
        assert table.exact_origins(Prefix.parse("213.210.34.0/24")) == frozenset()

    def test_covering_origins_prefers_exact(self, table):
        assert table.covering_origins(Prefix.parse("213.210.0.0/18")) == {8851}

    def test_covering_origins_falls_back_to_least_specific(self, table):
        table.add_route(Prefix.parse("213.210.0.0/16"), 777)
        # /20 inside both /16 and /18: least-specific covering is the /16.
        assert table.covering_origins(Prefix.parse("213.210.16.0/20")) == {777}

    def test_covering_origins_miss(self, table):
        assert table.covering_origins(Prefix.parse("203.0.113.0/24")) == frozenset()

    def test_moas(self, table):
        moas = table.moas_prefixes()
        assert len(moas) == 1
        assert moas[0][1] == {64500, 64501}

    def test_origin_index(self, table):
        assert table.prefixes_of_origin(8851) == {Prefix.parse("213.210.0.0/18")}
        assert 15169 in table.origins()

    def test_num_prefixes_distinct(self, table):
        assert table.num_prefixes() == 3

    def test_total_address_space_deduplicates(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/16"), 1)
        table.add_route(Prefix.parse("10.0.1.0/24"), 2)  # nested
        table.add_route(Prefix.parse("192.0.2.0/24"), 3)
        assert table.total_address_space() == (1 << 16) + 256

    def test_merge(self, table):
        other = RoutingTable()
        other.add_route(Prefix.parse("192.0.2.0/24"), 99)
        table.merge(other)
        assert table.exact_origins(Prefix.parse("192.0.2.0/24")) == {99}

    def test_contains(self, table):
        assert Prefix.parse("213.210.0.0/18") in table
        assert Prefix.parse("8.8.8.0/24") not in table

    def test_withdraw_subtracts_the_prefix_rows(self):
        table = RoutingTable()
        moas = Prefix.parse("203.0.113.0/24")
        for _peer in range(3):
            table.add_route(moas, 64500)  # three peers, one origin
        table.add_route(Prefix.parse("198.51.100.0/24"), 64501)
        assert len(table) == 4
        assert table.withdraw(moas)
        assert len(table) == 1
        assert not table.withdraw(moas)
        assert len(table) == 1

    def test_items_are_a_snapshot(self):
        table = RoutingTable()
        prefix = Prefix.parse("203.0.113.0/24")
        table.add_route(prefix, 64500)
        index = dict(table.items())
        table.add_route(prefix, 64501)
        table.add_route(Prefix.parse("198.51.100.0/24"), 64502)
        assert index == {prefix: frozenset({64500})}
        assert table.exact_origins(prefix) == frozenset({64500, 64501})


class TestTableDump:
    def make_entry(self):
        return RibEntry(
            prefix=Prefix.parse("213.210.33.0/24"),
            path=ASPath.parse("3356 8851 15169"),
            peer_asn=3356,
            peer_address="198.32.160.1",
            timestamp=1712102400,
        )

    def test_format(self):
        line = write_table_dump([self.make_entry()]).strip()
        assert line == (
            "TABLE_DUMP2|1712102400|B|198.32.160.1|3356|"
            "213.210.33.0/24|3356 8851 15169|IGP"
        )

    def test_round_trip(self):
        entry = self.make_entry()
        parsed = list(read_table_dump(write_table_dump([entry])))
        assert parsed == [entry]

    def test_origin_property(self):
        assert self.make_entry().origin == 15169

    def test_malformed_skipped_by_default(self):
        text = "garbage\n" + write_table_dump([self.make_entry()])
        assert len(list(read_table_dump(text))) == 1

    def test_malformed_raises_in_strict_mode(self):
        with pytest.raises(TableDumpError):
            list(
                read_table_dump(
                    "TABLE_DUMP2|x|B|1.2.3.4|1|10.0.0.0/8|1|IGP", strict=True
                )
            )

    def test_wrong_marker_rejected(self):
        with pytest.raises(TableDumpError):
            parse_line("RIB|0|B|1.2.3.4|1|10.0.0.0/8|1|IGP")

    def test_too_few_fields(self):
        with pytest.raises(TableDumpError):
            parse_line("TABLE_DUMP2|0|B")

    def test_empty_dump(self):
        assert write_table_dump([]) == ""
        assert list(read_table_dump("")) == []


class TestWithdrawCoveringAnnounce:
    """Withdraw-then-covering-announce churn must stay surgical.

    A /24 withdraw that exposes a covering /16 with a *different*
    origin changes exactly the leaves whose lookups read the /24 —
    never the rest of the /16 subtree.  Exercised at both layers: the
    routing table's covering fallback, and the incremental engine's
    dirty-leaf computation against a from-scratch rebuild.
    """

    HOLDER_ASN = 1000
    COVER_ASN = 777
    FRESH_ASN = 2000
    TRANSIT_ASN = 3356

    def test_routing_table_withdraw_exposes_covering(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/16"), self.COVER_ASN)
        table.add_route(Prefix.parse("10.0.0.0/24"), self.HOLDER_ASN)
        leaf = Prefix.parse("10.0.0.0/24")
        assert table.covering_origins(leaf) == {self.HOLDER_ASN}
        assert table.withdraw(leaf) is True
        assert table.exact_origins(leaf) == frozenset()
        assert table.covering_origins(leaf) == {self.COVER_ASN}
        # Re-announce from a different origin: lease-turnover churn.
        table.add_route(leaf, self.FRESH_ASN)
        assert table.covering_origins(leaf) == {self.FRESH_ASN}

    def make_micro_world(self):
        """Two sibling /24 allocations with /26 assignments, plus a
        covering /16 route from an unrelated origin."""
        database = WhoisDatabase(RIR.RIPE)
        database.add(OrgRecord(rir=RIR.RIPE, org_id="ORG-H", name="Holder"))
        database.add(
            AutNumRecord(
                rir=RIR.RIPE, asn=self.HOLDER_ASN, org_id="ORG-H"
            )
        )
        leaves = {}
        for index, root_text in enumerate(["10.0.0.0/24", "10.0.1.0/24"]):
            root = Prefix.parse(root_text)
            database.add(
                InetnumRecord(
                    rir=RIR.RIPE,
                    range=AddressRange.from_prefix(root),
                    status="ALLOCATED PA",
                    org_id="ORG-H",
                    maintainers=("H-MNT",),
                )
            )
            leaves[root] = [root.nth_subnet(26, n) for n in range(2)]
            for leaf in leaves[root]:
                database.add(
                    InetnumRecord(
                        rir=RIR.RIPE,
                        range=AddressRange.from_prefix(leaf),
                        status="ASSIGNED PA",
                        maintainers=(f"M{index}-MNT",),
                    )
                )
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/24"), self.HOLDER_ASN)
        table.add_route(Prefix.parse("10.0.1.0/24"), self.HOLDER_ASN)
        table.add_route(Prefix.parse("10.0.0.0/16"), self.COVER_ASN)
        relationships = ASRelationships()
        relationships.add(self.TRANSIT_ASN, self.HOLDER_ASN, P2C)
        relationships.add(self.TRANSIT_ASN, self.COVER_ASN, P2C)
        relationships.add(self.TRANSIT_ASN, self.FRESH_ASN, P2C)
        return database, table, relationships, leaves

    def make_engine(self, database, table, relationships):
        pipeline = LeaseInferencePipeline(
            database, table, relationships, max_leaf_length=26
        )
        pipeline.run()
        return pipeline, IncrementalEngine(pipeline.context)

    def scratch_digest(self, database, table, relationships, updates):
        mutated = replay_into_table(clone_routing_table(table), updates)
        scratch = LeaseInferencePipeline(
            database, mutated, relationships, max_leaf_length=26
        ).run()
        return result_digest(scratch)

    def test_withdraw_dirties_only_the_exposed_root(self):
        database, table, relationships, _leaves = self.make_micro_world()
        _pipeline, engine = self.make_engine(database, table, relationships)
        withdrawn = Prefix.parse("10.0.0.0/24")
        updates = [WithdrawUpdate(timestamp=0, prefix=withdrawn)]
        report = engine.apply(updates)
        # The /24's root resolution moved to the covering /16 (origin
        # 777 != 1000), so exactly its two /26 leaves are dirty; the
        # sibling /24 and its leaves are untouched.
        assert report.dirty_roots == (withdrawn,)
        assert report.reclassified == 2
        assert {row.prefix for row in report.changed} <= {
            withdrawn.nth_subnet(26, 0),
            withdrawn.nth_subnet(26, 1),
        }
        assert engine.digest() == self.scratch_digest(
            database, table, relationships, updates
        )

    def test_covering_reannounce_dirties_only_its_root(self):
        database, table, relationships, _leaves = self.make_micro_world()
        _pipeline, engine = self.make_engine(database, table, relationships)
        withdrawn = Prefix.parse("10.0.0.0/24")
        updates = [
            WithdrawUpdate(timestamp=0, prefix=withdrawn),
            AnnounceUpdate(
                timestamp=0,
                prefix=withdrawn,
                path=ASPath.of(self.TRANSIT_ASN, self.FRESH_ASN),
            ),
        ]
        report = engine.apply(updates)
        # Root resolution moved {1000} -> {2000} in one burst; still
        # only the /24's own leaves reclassify.
        assert report.dirty_roots == (withdrawn,)
        assert report.reclassified == 2
        assert engine.digest() == self.scratch_digest(
            database, table, relationships, updates
        )

    def test_unchanged_resolution_dirties_nothing(self):
        database, table, relationships, _leaves = self.make_micro_world()
        _pipeline, engine = self.make_engine(database, table, relationships)
        withdrawn = Prefix.parse("10.0.0.0/24")
        before = engine.digest()
        # Withdraw and re-announce from the *same* origin: the net
        # root resolution is unchanged, so nothing may move.
        report = engine.apply(
            [
                WithdrawUpdate(timestamp=0, prefix=withdrawn),
                AnnounceUpdate(
                    timestamp=0,
                    prefix=withdrawn,
                    path=ASPath.of(self.TRANSIT_ASN, self.HOLDER_ASN),
                ),
            ]
        )
        assert report.dirty_roots == ()
        assert report.changed == ()
        assert engine.digest() == before

    def test_leaf_withdraw_never_dirties_the_subtree(self):
        """A withdrawn leaf route dirties that leaf alone, even though
        a covering /16 with a different origin is exposed under it."""
        database = WhoisDatabase(RIR.RIPE)
        database.add(OrgRecord(rir=RIR.RIPE, org_id="ORG-H", name="Holder"))
        database.add(
            AutNumRecord(rir=RIR.RIPE, asn=self.HOLDER_ASN, org_id="ORG-H")
        )
        root = Prefix.parse("10.0.0.0/16")
        database.add(
            InetnumRecord(
                rir=RIR.RIPE,
                range=AddressRange.from_prefix(root),
                status="ALLOCATED PA",
                org_id="ORG-H",
                maintainers=("H-MNT",),
            )
        )
        leaves = [root.nth_subnet(24, index) for index in range(8)]
        for index, leaf in enumerate(leaves):
            database.add(
                InetnumRecord(
                    rir=RIR.RIPE,
                    range=AddressRange.from_prefix(leaf),
                    status="ASSIGNED PA",
                    maintainers=(f"M{index}-MNT",),
                )
            )
        table = RoutingTable()
        table.add_route(root, self.COVER_ASN)
        for index, leaf in enumerate(leaves):
            table.add_route(leaf, self.FRESH_ASN + index)
        relationships = ASRelationships()
        relationships.add(self.TRANSIT_ASN, self.HOLDER_ASN, P2C)
        pipeline = LeaseInferencePipeline(database, table, relationships)
        pipeline.run()
        engine = IncrementalEngine(pipeline.context)
        updates = [WithdrawUpdate(timestamp=0, prefix=leaves[3])]
        report = engine.apply(updates)
        # No allocation root sits at or below the /24, so only the one
        # leaf keyed by it reclassifies — not the other seven.
        assert report.dirty_roots == ()
        assert report.reclassified == 1
        assert [row.prefix for row in report.changed] == [leaves[3]]
        mutated = replay_into_table(clone_routing_table(table), updates)
        scratch = LeaseInferencePipeline(
            database, mutated, relationships
        ).run()
        assert engine.digest() == result_digest(scratch)
