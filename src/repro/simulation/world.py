"""Synthetic-Internet construction.

:class:`WorldBuilder` turns a :class:`~repro.simulation.scenario.Scenario`
into a :class:`World`: five WHOIS databases, an AS topology with
relationships and AS2org, a merged routing table, RPKI data, the Spamhaus
archive, the broker registry, a serial-hijacker list, and per-block
ground truth.  Every dataset is derived from the same generated business
events, so the relationships between them (who holds, who facilitates,
who originates, who abuses) are mutually consistent — which is what the
paper's inference exploits.

Generation is deterministic for a given scenario seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..abuse.dropdb import AsnDropEntry, AsnDropList, DropArchive
from ..asdata.as2org import AS2Org
from ..asdata.hijackers import SerialHijackerList
from ..asdata.relationships import ASRelationships
from ..bgp.aspath import ASPath
from ..bgp.collector import (
    Announcement,
    Collector,
    build_routing_table as bgp_build_routing_table,
)
from ..bgp.rib import RibEntry, RoutingTable
from ..bgp.topology import ASTopology
from ..brokers.registry import BrokerRegistry, RegisteredBroker
from ..net import AddressRange, Prefix
from ..rir import RIR
from ..rpki.archive import RpkiArchive
from ..rpki.roa import AS0, ROA, RoaSet
from ..whois.database import WhoisCollection, WhoisDatabase
from ..whois.objects import AutNumRecord, InetnumRecord, OrgRecord
from .groundtruth import GroundTruth, TruthEntry, TruthKind
from .names import NameForge, maintainer_handle, org_handle
from .scenario import MegaHolder, RegionSpec, Scenario

__all__ = ["World", "WorldBuilder", "build_world", "FeaturedPrefix"]

#: Display names of the five negative-label ISPs (§5.3) and their regions.
NEGATIVE_ISPS: Dict[RIR, Tuple[str, ...]] = {
    RIR.RIPE: ("Orange", "Vodafone"),
    RIR.ARIN: ("AT&T", "Comcast"),
    RIR.APNIC: ("IIJ",),
}

#: The cross-region top facilitator (the IPXO analogue of §6.3) and the
#: regions it operates in.
GLOBAL_BROKER_NAME = "IPXO LTD"
GLOBAL_BROKER_REGIONS = (RIR.RIPE, RIR.ARIN, RIR.APNIC)

#: Named top hosting originators (§6.3: M247, Stark Industries, Datacamp).
TOP_HOSTING_NAMES = (
    "M247 Europe SRL",
    "Stark Industries Solutions LTD",
    "Datacamp Limited",
)

_PORTABLE_STATUS = {
    RIR.RIPE: "ALLOCATED PA",
    RIR.AFRINIC: "ALLOCATED PA",
    RIR.APNIC: "ALLOCATED PORTABLE",
    RIR.ARIN: "Direct Allocation",
    RIR.LACNIC: "allocated",
}
_NON_PORTABLE_STATUS = {
    RIR.RIPE: "ASSIGNED PA",
    RIR.AFRINIC: "SUB-ALLOCATED PA",
    RIR.APNIC: "ASSIGNED NON-PORTABLE",
    RIR.ARIN: "Reassignment",
    RIR.LACNIC: "reassigned",
}


@dataclass(frozen=True)
class FeaturedPrefix:
    """The Fig. 3 prefix: its long RPKI archive and BGP origin history."""

    prefix: Prefix
    rpki_archive: RpkiArchive
    #: (timestamp, origin set) observations for the BGP series.
    bgp_observations: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: The lessee schedule used to generate the data, for assertions.
    schedule: Tuple[Tuple[int, Optional[int], Optional[int]], ...]


@dataclass
class World:
    """Every dataset of §4, plus ground truth and curation hints."""

    scenario: Scenario
    whois: WhoisCollection
    topology: ASTopology
    relationships: ASRelationships
    as2org: AS2Org
    routing_table: RoutingTable
    announcements: List[Announcement]
    roas: RoaSet
    rpki_archive: RpkiArchive
    drop_archive: DropArchive
    hijackers: SerialHijackerList
    broker_registry: BrokerRegistry
    ground_truth: GroundTruth
    #: Broker-maintained blocks that are NOT leases (§5.3 manual filter).
    curation_exclusions: Set[Prefix]
    #: Per-region organisation handles of the negative-label ISPs.
    negative_isp_org_ids: Dict[RIR, List[str]]
    featured: FeaturedPrefix
    collector_peers: Tuple[int, ...]

    @property
    def drop(self) -> AsnDropList:
        """The Feb-May union DROP list (§6.4)."""
        return self.drop_archive.union()

    def to_table_dump_entries(self, timestamp: int = 0) -> List[RibEntry]:
        """Materialize the routing table as collector RIB rows.

        Paths are reconstructed by walking each origin's provider chain to
        the transit top, producing plausible valley-free paths for the
        table-dump files a real measurement pipeline would consume.
        """
        entries: List[RibEntry] = []
        path_cache: Dict[int, ASPath] = {}
        peer = self.collector_peers[0]
        for prefix, origins in self.routing_table.items():
            for origin in sorted(origins):
                path = path_cache.get(origin)
                if path is None:
                    chain = self._provider_chain(origin)
                    if chain and chain[0] != peer:
                        chain = (peer,) + chain
                    path = path_cache[origin] = ASPath(chain or (peer, origin))
                entries.append(
                    RibEntry(
                        prefix=prefix,
                        path=path,
                        peer_asn=peer,
                        timestamp=timestamp,
                    )
                )
        return entries

    def _provider_chain(self, origin: int) -> Tuple[int, ...]:
        chain = [origin]
        current = origin
        for _hop in range(12):
            providers = self.topology.providers(current)
            if not providers:
                break
            current = min(providers)
            chain.append(current)
        return tuple(reversed(chain))


# ---------------------------------------------------------------------------


#: Spare /8s handed out (in order) when a region outgrows its configured
#: ``address_pools`` — this is what lets one scenario knob scale a world
#: from test-sized to bench-sized without editing every region spec.
#: 130–176 collides with no configured pool and stays clear of the
#: featured 203/8 space and multicast.  Internet-scale worlds outgrow
#: this list too; the builder then derives further /8s from the
#: remaining unicast space (minus the exclusions below).
RESERVE_POOLS: Tuple[int, ...] = tuple(range(130, 177))

#: First octets never derived as reserve pools: "this" network (0),
#: RFC1918 10/8, CGNAT 100/8, loopback 127/8, link-local 169/8,
#: RFC1918 172/8, test/private 192/8 + 198/8, and the documentation
#: space holding the featured prefix (203/8).  224+ (multicast and
#: beyond) is excluded by construction.
_EXCLUDED_SLASH8S = frozenset({0, 10, 100, 127, 169, 172, 192, 198, 203})


class _AddressPool:
    """Sequential /16 allocator over a region's /8 pools.

    ``reserve`` is an optional callable yielding a fresh /8 when the
    configured pools run out; regions that fit their spec never call it,
    so existing worlds are byte-identical with or without it.
    """

    def __init__(
        self,
        pools: Sequence[int],
        reserve: Optional[Callable[[], int]] = None,
    ) -> None:
        self._pools = list(pools)
        self._reserve = reserve
        self._index = 0

    def next_sixteen(self) -> Prefix:
        """The next unallocated /16."""
        pool_index, offset = divmod(self._index, 256)
        if pool_index >= len(self._pools):
            if self._reserve is None:
                raise RuntimeError(
                    "address pool exhausted; add /8s to the spec"
                )
            self._pools.append(self._reserve())
        self._index += 1
        return Prefix((self._pools[pool_index] << 24) | (offset << 16), 16)


class _Holder:
    """A generated IP holder: org, maintainer, ASN, and one /16 root."""

    def __init__(
        self,
        org_id: str,
        name: str,
        mnt: str,
        asn: int,
        root: Prefix,
        announces: bool,
    ) -> None:
        self.org_id = org_id
        self.name = name
        self.mnt = mnt
        self.asn = asn
        self.root = root
        self.announces = announces
        self._cursor = 0

    def allocate_leaf(self, length: int = 24) -> Prefix:
        """The next aligned sub-block of *length* within the root.

        The cursor counts /24 slots; shorter leaves align the cursor and
        consume the matching number of slots, so mixed-size leaves never
        overlap.
        """
        slots = 1 << (24 - length)
        # Align to the block's natural boundary.
        if self._cursor % slots:
            self._cursor += slots - (self._cursor % slots)
        total = 1 << (24 - self.root.length)
        if self._cursor + slots > total:
            raise RuntimeError(f"holder {self.org_id} root exhausted")
        leaf = self.root.nth_subnet(length, self._cursor // slots)
        self._cursor += slots
        return leaf

    @property
    def remaining(self) -> int:
        """Leaves still allocatable (in /24 slots)."""
        return (1 << (24 - self.root.length)) - self._cursor


class WorldBuilder:
    """Builds a :class:`World` from a scenario, deterministically."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.forge = NameForge(self.rng)
        self._next_asn = 100
        self.topology = ASTopology()
        self.as2org = AS2Org()
        self.whois = WhoisCollection()
        self.announcements: List[Announcement] = []
        self.ground_truth = GroundTruth()
        self.broker_registry = BrokerRegistry()
        self.curation_exclusions: Set[Prefix] = set()
        self.negative_isp_org_ids: Dict[RIR, List[str]] = {}
        self._org_counter = 0
        self._mnt_counter = 0
        self._intermediates: Set[Prefix] = set()
        self._reserve_pools = self._iter_reserve_pools()
        if scenario.stream_routes and (
            scenario.bgp_visibility < 1.0 or scenario.full_propagation
        ):
            raise ValueError(
                "stream_routes requires bgp_visibility >= 1.0 and no "
                "full_propagation: visibility sampling and propagation "
                "both need the complete announcement list"
            )
        self._streamed_table: Optional[RoutingTable] = (
            RoutingTable() if scenario.stream_routes else None
        )
        # Filled by the build steps.
        self.tier1: List[int] = []
        self.tier2: Dict[RIR, List[int]] = {}
        self.ixp_route_servers: List[int] = []
        self.lessees: List[int] = []
        self.lessee_weights: List[int] = []
        self.drop_lessees: List[int] = []
        self.hijacker_lessees: List[int] = []
        self.hijacker_asns: Set[int] = set()
        self.drop_asns: Set[int] = set()
        self._global_broker_mnt: Optional[str] = None

    # -- public API -----------------------------------------------------
    def build(self) -> World:
        """Run all generation stages and assemble the world."""
        # Exact abuse quotas over all planned leases (see _pick_lessee).
        planned = self.scenario.total_leased + sum(
            spec.legacy_leased for spec in self.scenario.regions
        )
        self._lease_quota_remaining = planned
        self._dropped_quota = round(
            planned * self.scenario.leased_share_by_dropped
        )
        self._hijacker_quota = round(
            planned
            * (
                self.scenario.leased_share_by_hijackers
                - self.scenario.leased_share_by_dropped
            )
        )
        self._build_backbone()
        self._build_lessee_pool()
        for spec in self.scenario.regions:
            self._build_region(spec)
        routing_table = self._build_routing_table()
        roas, rpki_archive = self._build_rpki(routing_table)
        drop_archive = self._build_drop_archive()
        featured = self._build_featured_timeline()
        return World(
            scenario=self.scenario,
            whois=self.whois,
            topology=self.topology,
            relationships=ASRelationships.from_topology(self.topology),
            as2org=self.as2org,
            routing_table=routing_table,
            announcements=self.announcements,
            roas=roas,
            rpki_archive=rpki_archive,
            drop_archive=drop_archive,
            hijackers=SerialHijackerList(sorted(self.hijacker_asns)),
            broker_registry=self.broker_registry,
            ground_truth=self.ground_truth,
            curation_exclusions=self.curation_exclusions,
            negative_isp_org_ids=self.negative_isp_org_ids,
            featured=featured,
            collector_peers=tuple(self.tier1[:2]),
        )

    # -- identities -------------------------------------------------------
    def _asn(self) -> int:
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def _org_id(self, rir: RIR) -> str:
        self._org_counter += 1
        return org_handle(rir.name, self._org_counter)

    def _mnt(self, name: str) -> str:
        self._mnt_counter += 1
        return maintainer_handle(name, self._mnt_counter)

    def _announce(self, prefix: Prefix, origin: int) -> None:
        """Record one BGP announcement.

        In streaming mode the route is folded straight into the routing
        table (full visibility, so no sampling draw is skipped) and the
        announcement list stays empty; otherwise the announcement is
        accumulated for stage 4 exactly as before.
        """
        if self._streamed_table is not None:
            self._streamed_table.add_route(prefix, origin)
        else:
            self.announcements.append(Announcement(prefix, origin))

    def _register_org(
        self,
        rir: RIR,
        name: str,
        maintainers_visible: bool = True,
        asns: Sequence[int] = (),
    ) -> Tuple[str, str]:
        """Create org + maintainer + aut-nums in WHOIS and AS2org."""
        org_id = self._org_id(rir)
        mnt = self._mnt(name)
        database = self.whois[rir]
        database.add(
            OrgRecord(
                rir=rir,
                org_id=org_id,
                name=name,
                maintainers=(mnt,) if maintainers_visible else (),
            )
        )
        self.as2org.add_org(org_id, name)
        for asn in asns:
            database.add(
                AutNumRecord(rir=rir, asn=asn, org_id=org_id, as_name=name)
            )
            self.as2org.map_asn(asn, org_id)
        return org_id, mnt

    # -- stage 1: transit backbone ---------------------------------------
    def _build_backbone(self) -> None:
        scenario = self.scenario
        self.tier1 = [self._asn() for _ in range(scenario.tier1_count)]
        for index, left in enumerate(self.tier1):
            for right in self.tier1[index + 1 :]:
                self.topology.add_p2p(left, right)
        # Tier-1 carriers never originate classified space, but CAIDA's
        # AS2org still knows them; leaving them unmapped would be a
        # dataset-consistency defect (diagnostics A601).
        for index, asn in enumerate(self.tier1):
            self._register_org(
                RIR.ARIN, f"Tier-1 Transit Carrier {index + 1}", asns=(asn,)
            )
        for spec in self.scenario.regions:
            regional = [
                self._asn() for _ in range(scenario.tier2_per_region)
            ]
            self.tier2[spec.rir] = regional
            for asn in regional:
                for provider in self.rng.sample(self.tier1, 2):
                    self.topology.add_p2c(provider, asn)
            name = f"{spec.rir.name} Backbone Carrier"
            self._register_org(spec.rir, name, asns=regional)
        self._build_ixps()

    def _build_ixps(self) -> None:
        """Internet-exchange route servers (internet-tier worlds only).

        Each IXP is modelled as one route-server AS peering (p2p) with a
        sample of tier-2 carriers from every region — the route-server
        pattern of real exchanges, where members see each other's routes
        without a transit relationship.  Gated on ``ixps > 0`` so the
        historical worlds draw nothing extra from the RNG.
        """
        scenario = self.scenario
        if scenario.ixps <= 0:
            return
        for index in range(scenario.ixps):
            asn = self._asn()
            self.ixp_route_servers.append(asn)
            self._register_org(
                RIR.RIPE, f"IXP Route Server {index + 1}", asns=(asn,)
            )
            for spec in self.scenario.regions:
                regional = self.tier2[spec.rir]
                members = self.rng.sample(
                    regional,
                    min(scenario.ixp_tier2_members, len(regional)),
                )
                for member in members:
                    self.topology.add_p2p(asn, member)

    def _attach_edge_as(self, rir: RIR, asn: int) -> None:
        """Give an edge AS transit from a regional tier-2."""
        provider = self.rng.choice(self.tier2[rir])
        self.topology.add_p2c(provider, asn)

    # -- stage 2: lessee/hosting pool --------------------------------------
    def _build_lessee_pool(self) -> None:
        scenario = self.scenario
        pool_size = scenario.lessee_pool_size
        for index in range(pool_size):
            asn = self._asn()
            self.lessees.append(asn)
            if index < len(TOP_HOSTING_NAMES):
                name = TOP_HOSTING_NAMES[index]
                weight = 10
            else:
                name = self.forge.company()
                weight = 4 if index < pool_size // 4 else 1
            self.lessee_weights.append(weight)
            rir = self.rng.choice([RIR.RIPE, RIR.ARIN, RIR.APNIC])
            self._attach_edge_as(rir, asn)
            self._register_org(rir, name, asns=(asn,))
            # Heavyweight hosting ASes also peer at an exchange (only in
            # worlds that model IXPs — no extra draws otherwise).
            if self.ixp_route_servers and weight >= 4:
                server = self.rng.choice(self.ixp_route_servers)
                self.topology.add_p2p(server, asn)
        hijacker_count = max(
            2, round(pool_size * scenario.hijacker_fraction_of_lessees)
        )
        # Hijackers hide among the low-weight tail of the pool.
        tail = self.lessees[len(TOP_HOSTING_NAMES) :]
        self.hijacker_lessees = self.rng.sample(
            tail, min(hijacker_count, len(tail))
        )
        self.drop_lessees = self.hijacker_lessees[
            : max(1, hijacker_count // 2)
        ]
        self.hijacker_asns.update(self.hijacker_lessees)
        self.drop_asns.update(self.drop_lessees)
        # The "clean" draw excludes flagged lessees so the abuse shares
        # stay at their configured rates.
        flagged = set(self.hijacker_lessees)
        self._clean_lessees: List[int] = []
        self._clean_weights: List[int] = []
        for asn, weight in zip(self.lessees, self.lessee_weights):
            if asn not in flagged:
                self._clean_lessees.append(asn)
                self._clean_weights.append(weight)

    def _pick_lessee(self) -> int:
        """Choose the originating AS for one lease.

        Abusive originators are drawn with exact quotas (a sequential
        hypergeometric draw): across the whole build, precisely
        ``round(total * share)`` leases go to DROP-listed and hijacker
        ASes, randomly placed — which keeps the §6.3/§6.4 shares stable
        across seeds instead of binomially noisy.
        """
        remaining = max(1, self._lease_quota_remaining)
        self._lease_quota_remaining -= 1
        if self.rng.random() < self._dropped_quota / remaining:
            self._dropped_quota -= 1
            return self.rng.choice(self.drop_lessees)
        if self.rng.random() < self._hijacker_quota / max(
            1, remaining - self._dropped_quota
        ):
            self._hijacker_quota -= 1
            clean_hijackers = [
                asn
                for asn in self.hijacker_lessees
                if asn not in self.drop_asns
            ]
            return self.rng.choice(clean_hijackers or self.hijacker_lessees)
        return self.rng.choices(
            self._clean_lessees, weights=self._clean_weights
        )[0]

    # -- stage 3: one region ---------------------------------------------
    def _iter_reserve_pools(self):
        """All spare /8s: the static list, then derived unicast space.

        The static :data:`RESERVE_POOLS` come first so existing worlds
        stay byte-identical; once those run out, every unicast /8 not
        configured in a region spec and not on the exclusion list is
        handed out in ascending order.  Internet-scale worlds burn
        through hundreds of /16 roots per region, so exhaustion must
        never be a hard error.
        """
        yield from RESERVE_POOLS
        configured = {
            pool
            for spec in self.scenario.regions
            for pool in spec.address_pools
        }
        blocked = configured | set(RESERVE_POOLS) | _EXCLUDED_SLASH8S
        for octet in range(1, 224):
            if octet not in blocked:
                yield octet

    def _draw_reserve_pool(self) -> int:
        """The next shared spare /8 (regions draw in build order)."""
        try:
            return next(self._reserve_pools)
        except StopIteration:
            raise RuntimeError(
                "IPv4 unicast space exhausted: every configured, "
                "reserve, and derived /8 is in use"
            ) from None

    def _build_region(self, spec: RegionSpec) -> None:
        pool = _AddressPool(spec.address_pools, self._draw_reserve_pool)
        brokers = self._build_brokers(spec)
        self._build_negative_isps(spec, pool)
        self._build_unused_and_inactive(spec, pool, brokers)
        self._build_aggregated(spec, pool)
        self._build_isp_customers(spec, pool)
        self._build_group3_leases(spec, pool, brokers)
        self._build_delegated(spec, pool, brokers)
        self._build_group4_leases(spec, pool, brokers)
        self._build_legacy_leased(spec, pool, brokers)
        self._build_background(spec, pool)

    # -- brokers ----------------------------------------------------------
    def _build_brokers(self, spec: RegionSpec) -> List[str]:
        """Returns maintainer handles of registered brokers present in
        the WHOIS database (the handles whose blocks become positives)."""
        handles: List[str] = []
        rir = spec.rir
        if spec.brokers == 0:
            return handles
        # The cross-region facilitator first.
        if rir in GLOBAL_BROKER_REGIONS:
            if self._global_broker_mnt is None:
                self._global_broker_mnt = "IPXO-MNT"
            database = self.whois[rir]
            org_id = self._org_id(rir)
            database.add(
                OrgRecord(
                    rir=rir,
                    org_id=org_id,
                    name=GLOBAL_BROKER_NAME,
                    maintainers=(
                        (self._global_broker_mnt,)
                        if spec.org_maintainers_visible
                        else ()
                    ),
                )
            )
            self.broker_registry.add(
                RegisteredBroker(rir, GLOBAL_BROKER_NAME)
            )
            handles.append(self._global_broker_mnt)
        remaining = spec.brokers - (1 if rir in GLOBAL_BROKER_REGIONS else 0)
        missing = spec.brokers_missing_from_db
        for index in range(max(0, remaining)):
            name = self.forge.company()
            if index < missing:
                # Registered but absent from WHOIS (§6.2's 30 brokers).
                self.broker_registry.add(RegisteredBroker(rir, name))
                continue
            _org_id, mnt = self._register_org(
                rir, name, maintainers_visible=spec.org_maintainers_visible
            )
            listed = (
                self.forge.messy_variant(name)
                if self.rng.random() < 0.4
                else name
            )
            self.broker_registry.add(RegisteredBroker(rir, listed))
            handles.append(mnt)
        return handles

    def _facilitator_for_lease(
        self, spec: RegionSpec, holder: _Holder, brokers: List[str]
    ) -> str:
        """Pick the maintainer handle for a leased leaf (§2.3 roles)."""
        if not brokers or (
            self.rng.random() >= self.scenario.broker_facilitated_share
        ):
            return holder.mnt  # holder leases directly (self-facilitated)
        if (
            self._global_broker_mnt in brokers
            and self.rng.random() < 0.5
        ):
            return self._global_broker_mnt
        return self.rng.choice(brokers)

    def _draw_leaf_length(self, holder: _Holder) -> int:
        """Mostly /24 sub-allocations with some /23s and /22s.

        Falls back to /24 when the holder lacks the aligned room a
        shorter block would need.
        """
        roll = self.rng.random()
        if roll < 0.05:
            length = 22
        elif roll < 0.15:
            length = 23
        else:
            return 24
        if holder.remaining < (1 << (24 - length)) * 2:
            return 24
        return length

    def _maybe_add_intermediate(
        self, spec: RegionSpec, holder: _Holder, leaf: Prefix
    ) -> None:
        """Occasionally register an intermediate /22 over the leaf.

        Intermediate sub-allocations exist in real registries between the
        portable root and the classified leaves; §5.1 deliberately skips
        them, and generating them keeps that code path honest.
        """
        if leaf.length <= 22:
            return
        if self.rng.random() >= self.scenario.intermediate_suballocation_share:
            return
        intermediate = leaf.supernet(22)
        if intermediate in self._intermediates:
            return
        self._intermediates.add(intermediate)
        self.whois[spec.rir].add(
            InetnumRecord(
                rir=spec.rir,
                range=AddressRange.from_prefix(intermediate),
                status=_NON_PORTABLE_STATUS[spec.rir],
                org_id=holder.org_id,
                maintainers=(holder.mnt,),
            )
        )

    def _customer_mnt(self, holder: "_Holder") -> str:
        """The maintainer on an ordinary customer block.

        Usually the provider's, but a configurable share of customers
        register their own maintainer — the noise that breaks the
        maintainer-difference baseline (§6.1).
        """
        if self.rng.random() < self.scenario.customer_own_maintainer_share:
            return self._mnt("Customer")
        return holder.mnt

    # -- holders ------------------------------------------------------------
    def _new_holder(
        self,
        spec: RegionSpec,
        pool: _AddressPool,
        announces: bool,
        name: Optional[str] = None,
    ) -> _Holder:
        name = name or self.forge.company()
        asn = self._asn()
        org_id, mnt = self._register_org(spec.rir, name, asns=(asn,))
        root = pool.next_sixteen()
        holder = _Holder(org_id, name, mnt, asn, root, announces)
        self._attach_edge_as(spec.rir, asn)
        self.whois[spec.rir].add(
            InetnumRecord(
                rir=spec.rir,
                range=AddressRange.from_prefix(root),
                status=_PORTABLE_STATUS[spec.rir],
                org_id=org_id,
                maintainers=(mnt,),
                net_name=name.split()[0].upper() + "-NET",
            )
        )
        if announces:
            self._announce(root, asn)
        return holder

    def _holder_series(
        self, spec: RegionSpec, pool: _AddressPool, announces: bool
    ):
        """Generator of holders, each recycled for ``leaves_per_holder``."""
        holder = None
        used = 0
        while True:
            if holder is None or used >= self.scenario.leaves_per_holder:
                holder = self._new_holder(spec, pool, announces)
                used = 0
            used += 1
            yield holder

    def _lease_holder_series(
        self, spec: RegionSpec, pool: _AddressPool, announces: bool
    ):
        """Generator of small lease-out holders (1-N leases each).

        Generic holders monetizing spare space lease out only a handful
        of blocks, which keeps the Table 3 mega holders on top.
        """
        holder = None
        capacity = 0
        used = 0
        while True:
            if holder is None or used >= capacity:
                holder = self._new_holder(spec, pool, announces)
                capacity = self.rng.randint(
                    1, self.scenario.max_leases_per_generic_holder
                )
                used = 0
            used += 1
            yield holder

    def _add_leaf(
        self,
        spec: RegionSpec,
        holder: _Holder,
        mnt: str,
        kind: TruthKind,
        origin: Optional[int],
        org_id: Optional[str] = None,
        status: Optional[str] = None,
        lessee: Optional[int] = None,
    ) -> Prefix:
        """Create one leaf record (+ announcement + ground truth)."""
        leaf = holder.allocate_leaf(self._draw_leaf_length(holder))
        self._maybe_add_intermediate(spec, holder, leaf)
        self.whois[spec.rir].add(
            InetnumRecord(
                rir=spec.rir,
                range=AddressRange.from_prefix(leaf),
                status=status or _NON_PORTABLE_STATUS[spec.rir],
                org_id=org_id,
                maintainers=(mnt,),
            )
        )
        if origin is not None:
            self._announce(leaf, origin)
        self.ground_truth.add(
            TruthEntry(
                prefix=leaf,
                rir=spec.rir,
                kind=kind,
                holder_org_id=holder.org_id,
                facilitator_handle=mnt,
                lessee_asn=lessee,
            )
        )
        return leaf

    # -- negative-label ISPs ---------------------------------------------
    def _build_negative_isps(self, spec: RegionSpec, pool: _AddressPool) -> None:
        names = NEGATIVE_ISPS.get(spec.rir, ())
        if not names:
            return
        org_ids: List[str] = []
        budget = spec.aggregated
        per_isp = max(4, min(24, budget // (len(names) * 2) or 4))
        for name in names:
            holder = self._new_holder(spec, pool, announces=True, name=name)
            org_ids.append(holder.org_id)
            for _index in range(per_isp):
                self._add_leaf(
                    spec,
                    holder,
                    holder.mnt,
                    TruthKind.AGGREGATED_CUSTOMER,
                    origin=None,
                    org_id=holder.org_id,
                )
            spec = _consume(spec, aggregated=per_isp)
            if name == "Vodafone":
                spec = self._build_vodafone_subsidiaries(
                    spec, pool, holder, org_ids
                )
        self.negative_isp_org_ids[spec.rir] = org_ids
        # Persist the consumed budgets for the subsequent build steps.
        self._current_spec = spec

    def _build_vodafone_subsidiaries(
        self,
        spec: RegionSpec,
        pool: _AddressPool,
        parent: _Holder,
        org_ids: List[str],
    ) -> RegionSpec:
        """The §6.2 false-positive mode: subsidiaries with unlinked ASNs.

        The parent holds a second, *unannounced* root; leaves inside it are
        registered to subsidiary organisations and originated by the
        subsidiaries' own ASNs, which have no captured relationship to the
        parent.  The inference will call them group-3 leased; the curation
        labels them negative.
        """
        shadow_root = pool.next_sixteen()
        self.whois[spec.rir].add(
            InetnumRecord(
                rir=spec.rir,
                range=AddressRange.from_prefix(shadow_root),
                status=_PORTABLE_STATUS[spec.rir],
                org_id=parent.org_id,
                maintainers=(parent.mnt,),
                net_name="VODAFONE-INTL-NET",
            )
        )
        shadow = _Holder(
            parent.org_id, parent.name, parent.mnt, parent.asn,
            shadow_root, announces=False,
        )
        for index in range(self.scenario.subsidiary_fp_blocks):
            sub_asn = self._asn()
            sub_name = f"Vodafone Subsidiary {index + 1}"
            sub_org, _sub_mnt = self._register_org(
                spec.rir, sub_name, asns=(sub_asn,)
            )
            org_ids.append(sub_org)
            self._attach_edge_as(spec.rir, sub_asn)
            self._add_leaf(
                spec,
                shadow,
                parent.mnt,
                TruthKind.SUBSIDIARY_CUSTOMER,
                origin=sub_asn,
                org_id=sub_org,
            )
            spec = _consume(spec, isp_customer=1)
        return spec

    # -- category builders ---------------------------------------------------
    def _build_unused_and_inactive(
        self, spec: RegionSpec, pool: _AddressPool, brokers: List[str]
    ) -> None:
        spec = self._spec(spec)
        series = self._holder_series(spec, pool, announces=False)
        inactive = min(spec.inactive_leases, spec.unused)
        for index in range(spec.unused):
            holder = next(series)
            if index < inactive and brokers:
                mnt = self.rng.choice(brokers)
                self._add_leaf(
                    spec, holder, mnt, TruthKind.LEASED_INACTIVE, origin=None
                )
            else:
                self._add_leaf(
                    spec,
                    holder,
                    holder.mnt,
                    TruthKind.UNUSED,
                    origin=None,
                )

    def _build_aggregated(self, spec: RegionSpec, pool: _AddressPool) -> None:
        spec = self._spec(spec)
        series = self._holder_series(spec, pool, announces=True)
        for _index in range(spec.aggregated):
            holder = next(series)
            self._add_leaf(
                spec,
                holder,
                self._customer_mnt(holder),
                TruthKind.AGGREGATED_CUSTOMER,
                origin=None,
            )

    def _build_isp_customers(self, spec: RegionSpec, pool: _AddressPool) -> None:
        spec = self._spec(spec)
        series = self._holder_series(spec, pool, announces=False)
        customer_asn: Optional[int] = None
        customer_uses = 0
        for _index in range(spec.isp_customer):
            holder = next(series)
            if (
                customer_asn is None
                or customer_uses >= self.scenario.leaves_per_customer_as
            ):
                customer_asn = self._asn()
                customer_uses = 0
                self.topology.add_p2c(holder.asn, customer_asn)
                self._register_org(
                    spec.rir, self.forge.company(), asns=(customer_asn,)
                )
            else:
                # Reusing the AS under a new holder still needs the
                # relationship the classifier will look for.
                if customer_asn not in self.topology.customers(holder.asn):
                    self.topology.add_p2c(holder.asn, customer_asn)
            customer_uses += 1
            self._add_leaf(
                spec,
                holder,
                self._customer_mnt(holder),
                TruthKind.ISP_CUSTOMER,
                origin=customer_asn,
            )

    def _build_group3_leases(
        self, spec: RegionSpec, pool: _AddressPool, brokers: List[str]
    ) -> None:
        spec = self._spec(spec)
        remaining = spec.leased_group3
        for mega in spec.mega_holders:
            if mega.announces_root:
                continue
            count = min(mega.leased, remaining)
            remaining -= count
            self._build_mega_holder_leases(spec, pool, brokers, mega, count)
        series = self._lease_holder_series(spec, pool, announces=False)
        for _index in range(remaining):
            holder = next(series)
            lessee = self._pick_lessee()
            mnt = self._facilitator_for_lease(spec, holder, brokers)
            self._add_leaf(
                spec,
                holder,
                mnt,
                TruthKind.LEASED_ACTIVE,
                origin=lessee,
                lessee=lessee,
            )

    def _build_mega_holder_leases(
        self,
        spec: RegionSpec,
        pool: _AddressPool,
        brokers: List[str],
        mega: MegaHolder,
        count: int,
    ) -> None:
        holder = self._new_holder(
            spec, pool, announces=mega.announces_root, name=mega.name
        )
        for _index in range(count):
            if holder.remaining == 0:
                holder = self._extend_mega_holder(spec, pool, holder)
            lessee = self._pick_lessee()
            if mega.self_facilitated:
                mnt = holder.mnt
            else:
                mnt = self._facilitator_for_lease(spec, holder, brokers)
            self._add_leaf(
                spec,
                holder,
                mnt,
                TruthKind.LEASED_ACTIVE,
                origin=lessee,
                lessee=lessee,
            )

    def _extend_mega_holder(
        self, spec: RegionSpec, pool: _AddressPool, holder: _Holder
    ) -> _Holder:
        """A mega holder that outgrew one /16 gets another root."""
        root = pool.next_sixteen()
        self.whois[spec.rir].add(
            InetnumRecord(
                rir=spec.rir,
                range=AddressRange.from_prefix(root),
                status=_PORTABLE_STATUS[spec.rir],
                org_id=holder.org_id,
                maintainers=(holder.mnt,),
            )
        )
        extended = _Holder(
            holder.org_id, holder.name, holder.mnt, holder.asn, root,
            holder.announces,
        )
        if holder.announces:
            self._announce(root, holder.asn)
        return extended

    def _build_delegated(
        self, spec: RegionSpec, pool: _AddressPool, brokers: List[str]
    ) -> None:
        spec = self._spec(spec)
        connectivity = min(spec.broker_connectivity_blocks, spec.delegated)
        ordinary = spec.delegated - connectivity
        series = self._holder_series(spec, pool, announces=True)
        for _index in range(ordinary):
            holder = next(series)
            customer_asn = self._asn()
            self.topology.add_p2c(holder.asn, customer_asn)
            self._register_org(
                spec.rir, self.forge.company(), asns=(customer_asn,)
            )
            self._add_leaf(
                spec,
                holder,
                self._customer_mnt(holder),
                TruthKind.DELEGATED_CUSTOMER,
                origin=customer_asn,
            )
        # Broker-as-ISP blocks: broker maintainer, broker's own origin.
        if connectivity and brokers:
            broker_mnt = brokers[-1]
            holder = self._new_holder(spec, pool, announces=True)
            for _index in range(connectivity):
                if holder.remaining == 0:
                    holder = self._new_holder(spec, pool, announces=True)
                leaf = self._add_leaf(
                    spec,
                    holder,
                    broker_mnt,
                    TruthKind.BROKER_CONNECTIVITY,
                    origin=holder.asn,
                )
                self.curation_exclusions.add(leaf)

    def _build_group4_leases(
        self, spec: RegionSpec, pool: _AddressPool, brokers: List[str]
    ) -> None:
        spec = self._spec(spec)
        remaining = spec.leased_group4
        # §6.1 caveat: some "group-4 leased" blocks are really multi-homed
        # delegated customers whose link to the holder is unobserved.
        multihomed = min(spec.multihomed_group4_blocks, remaining)
        remaining -= multihomed
        if multihomed:
            series = self._holder_series(spec, pool, announces=True)
            for _index in range(multihomed):
                holder = next(series)
                customer_asn = self._asn()
                # The customer's *observed* transit is a second upstream;
                # its link to the holder exists in reality but not in the
                # BGP-derived relationship data.
                self._attach_edge_as(spec.rir, customer_asn)
                self._register_org(
                    spec.rir, self.forge.company(), asns=(customer_asn,)
                )
                self._add_leaf(
                    spec,
                    holder,
                    self._customer_mnt(holder),
                    TruthKind.MULTIHOMED_CUSTOMER,
                    origin=customer_asn,
                )
        for mega in spec.mega_holders:
            if not mega.announces_root:
                continue
            count = min(mega.leased, remaining)
            remaining -= count
            self._build_mega_holder_leases(spec, pool, brokers, mega, count)
        series = self._lease_holder_series(spec, pool, announces=True)
        for _index in range(remaining):
            holder = next(series)
            lessee = self._pick_lessee()
            mnt = self._facilitator_for_lease(spec, holder, brokers)
            self._add_leaf(
                spec,
                holder,
                mnt,
                TruthKind.LEASED_ACTIVE,
                origin=lessee,
                lessee=lessee,
            )

    def _build_legacy_leased(
        self, spec: RegionSpec, pool: _AddressPool, brokers: List[str]
    ) -> None:
        spec = self._spec(spec)
        if spec.legacy_leased == 0 or not brokers:
            return
        holder = self._new_holder(spec, pool, announces=False)
        for _index in range(spec.legacy_leased):
            lessee = self._pick_lessee()
            mnt = self.rng.choice(brokers)
            self._add_leaf(
                spec,
                holder,
                mnt,
                TruthKind.LEASED_LEGACY,
                origin=lessee,
                status="LEGACY",
                lessee=lessee,
            )

    def _build_background(self, spec: RegionSpec, pool: _AddressPool) -> None:
        spec = self._spec(spec)
        count = spec.background_prefixes
        if count == 0:
            return
        scenario = self.scenario
        background_asns: List[int] = []
        background_owners: Dict[int, Tuple[str, str]] = {}
        # Size the AS pool to the prefix count so tiny scenarios still get
        # several distinct origins (and never an all-hijacker pool).
        per_as = max(1, min(40, count // 8))
        for _index in range(max(1, count // per_as)):
            asn = self._asn()
            background_asns.append(asn)
            self._attach_edge_as(spec.rir, asn)
            background_owners[asn] = self._register_org(
                spec.rir, self.forge.company(), asns=(asn,)
            )
        flagged_count = len(background_asns) // 12
        bg_hijackers = background_asns[:flagged_count]
        self.hijacker_asns.update(bg_hijackers)
        bg_dropped = bg_hijackers[: max(1, len(bg_hijackers) // 3)] if (
            bg_hijackers
        ) else []
        self.drop_asns.update(bg_dropped)
        clean = background_asns[flagged_count:]
        clean_hijackers = [a for a in bg_hijackers if a not in bg_dropped]
        # Exact per-region abuse quotas (sequential hypergeometric draw),
        # mirroring _pick_lessee: shares hold precisely, placement random.
        dropped_quota = (
            round(count * scenario.background_share_by_dropped)
            if bg_dropped
            else 0
        )
        hijacker_quota = (
            round(
                count
                * (
                    scenario.background_share_by_hijackers
                    - scenario.background_share_by_dropped
                )
            )
            if bg_hijackers
            else 0
        )
        root: Optional[Prefix] = None
        cursor = 0
        for index in range(count):
            if root is None or cursor >= 256:
                root = pool.next_sixteen()
                cursor = 0
            prefix = root.nth_subnet(24, cursor)
            cursor += 1
            remaining = count - index
            if self.rng.random() < dropped_quota / remaining:
                dropped_quota -= 1
                origin = self.rng.choice(bg_dropped)
            elif self.rng.random() < hijacker_quota / max(
                1, remaining - dropped_quota
            ):
                hijacker_quota -= 1
                origin = self.rng.choice(clean_hijackers or bg_hijackers)
            else:
                origin = self.rng.choice(clean)
            self._announce(prefix, origin)
            # Background space is registered like any other direct
            # assignment; a routing table announcing WHOIS-less space
            # would be a cross-dataset inconsistency (diagnostics X501).
            org_id, mnt = background_owners[origin]
            self.whois[spec.rir].add(
                InetnumRecord(
                    rir=spec.rir,
                    range=AddressRange.from_prefix(prefix),
                    status=_PORTABLE_STATUS[spec.rir],
                    org_id=org_id,
                    maintainers=(mnt,),
                )
            )

    # -- stage 4: routing table --------------------------------------------
    def _build_routing_table(self) -> RoutingTable:
        if self._streamed_table is not None:
            # Routes were folded in as they were generated (stage 3);
            # the announcement list was never materialized.
            return self._streamed_table
        visibility = self.scenario.bgp_visibility
        visible = [
            announcement
            for announcement in self.announcements
            if visibility >= 1.0 or self.rng.random() < visibility
        ]
        if self.scenario.full_propagation:
            collectors = [
                Collector(name="rrc00", peer_asns=tuple(self.tier1[:3])),
                Collector(
                    name="route-views2",
                    peer_asns=tuple(self.tier1[3:])
                    + tuple(self.tier2[RIR.RIPE][:1]),
                ),
            ]
            return bgp_build_routing_table(
                collectors, self.topology, visible
            )
        table = RoutingTable()
        for announcement in visible:
            table.add_route(announcement.prefix, announcement.origin)
        return table

    # -- stage 5: RPKI ---------------------------------------------------
    def _build_rpki(
        self, routing_table: RoutingTable
    ) -> Tuple[RoaSet, RpkiArchive]:
        scenario = self.scenario
        roas = RoaSet()
        for entry in self.ground_truth:
            if entry.kind is not TruthKind.LEASED_ACTIVE:
                continue
            if entry.lessee_asn is None:
                continue
            coverage = (
                scenario.roa_coverage_abusive
                if entry.lessee_asn in self.drop_asns
                else scenario.roa_coverage_leased
            )
            if self.rng.random() < coverage:
                roas.add(ROA(prefix=entry.prefix, asn=entry.lessee_asn))
        for prefix, origins in routing_table.items():
            truth = self.ground_truth.lookup(prefix)
            if truth is not None:
                continue  # leaf blocks handled above
            if self.rng.random() < scenario.roa_coverage_background:
                roas.add(ROA(prefix=prefix, asn=min(origins)))
        archive = RpkiArchive()
        # Two snapshots spanning the measurement window (Apr 1 / Apr 15).
        archive.add_snapshot(1711929600, roas)
        archive.add_snapshot(1713139200, roas)
        return roas, archive

    # -- stage 6: DROP archive ----------------------------------------------
    def _build_drop_archive(self) -> DropArchive:
        archive = DropArchive()
        dropped = sorted(self.drop_asns)
        for index, month in enumerate(self.scenario.drop_months):
            # Mild churn: the first month misses the most recent listings.
            visible = (
                dropped[: max(1, len(dropped) * 3 // 4)]
                if index == 0
                else dropped
            )
            archive.add_month(
                month,
                AsnDropList(AsnDropEntry(asn=asn) for asn in visible),
            )
        return archive

    # -- stage 7: the Fig. 3 featured prefix ---------------------------------
    def _build_featured_timeline(self) -> FeaturedPrefix:
        """A two-year lease history with AS0 markers between leases."""
        candidates = [
            entry
            for entry in self.ground_truth.of_kind(TruthKind.LEASED_ACTIVE)
            if entry.rir is RIR.RIPE
            and entry.facilitator_handle == self._global_broker_mnt
        ]
        if candidates:
            prefix = candidates[0].prefix
        else:  # degenerate scenarios without an IPXO-facilitated lease
            prefix = Prefix.parse("203.0.113.0/24")
        day = 86_400
        start = 1_648_771_200  # 2022-04-01
        lessees = (self.lessees + [65_001, 65_002])[:4]
        # (offset days, duration days, lessee or None=idle, AS0 marker?)
        schedule: List[Tuple[int, Optional[int], Optional[int]]] = []
        cursor = 0
        plan = [
            (lessees[0], 260),
            (None, 45),  # AS0 between leases
            (lessees[1], 180),
            (None, 30),
            (lessees[2], 120),
            (None, 40),
            (lessees[3], 55),
        ]
        archive = RpkiArchive()
        observations: List[Tuple[int, Tuple[int, ...]]] = []
        for lessee, days in plan:
            begin = start + cursor * day
            end = start + (cursor + days) * day
            schedule.append((begin, end, lessee))
            if lessee is None:
                roaset = RoaSet([ROA(prefix=prefix, asn=AS0)])
                observations.append((begin, ()))
            else:
                roaset = RoaSet([ROA(prefix=prefix, asn=lessee)])
                observations.append((begin, (lessee,)))
            # Daily snapshots within the period keep the archive realistic
            # without 30-minute volume; change points are identical.
            for offset in range(0, days, 7):
                archive.add_snapshot(begin + offset * day, roaset)
            cursor += days
        return FeaturedPrefix(
            prefix=prefix,
            rpki_archive=archive,
            bgp_observations=tuple(observations),
            schedule=tuple(schedule),
        )

    # -- helpers -------------------------------------------------------------
    def _spec(self, spec: RegionSpec) -> RegionSpec:
        """The possibly-consumed spec after the negative-ISP stage."""
        current = getattr(self, "_current_spec", None)
        if current is not None and current.rir is spec.rir:
            return current
        return spec


def _consume(spec: RegionSpec, **deltas: int) -> RegionSpec:
    """A copy of *spec* with category budgets decremented."""
    from dataclasses import replace

    updates = {
        key: max(0, getattr(spec, key) - value)
        for key, value in deltas.items()
    }
    return replace(spec, **updates)


def build_world(scenario: Scenario) -> World:
    """Build the synthetic world for *scenario*."""
    return WorldBuilder(scenario).build()
