"""The shared, read-only analysis substrate every engine draws from.

One :class:`AnalysisContext` is built per run and handed to the lease
classifier, the legacy-space extension, the RPKI profiler, and the
longitudinal comparison.  It snapshots everything those engines query:

* the RIB's exact-match and covering-prefix indexes
  (:class:`RibSnapshot`, one prefix map),
* the per-registry allocation scan (classifiable leaves + tree stats),
* the AS-relationship closure (per-AS "business family" sets that fold
  AS relationships and AS2org membership into one frozenset), and
* the per-registry organisation → RIR-assigned-ASN maps.

Every lookup table is built from hashable immutables (``Prefix``,
``frozenset``, tuples) and never mutated after
:meth:`AnalysisContext.build`, so one snapshot can back many engines and
concurrent readers at once.

Covering lookups use :class:`~repro.net.PrefixTrie`'s length probes:
CIDR prefixes nest or are disjoint, so every covering prefix of ``p``
is its truncation to some stored length, and probing the packed-key
dict at each stored length, ascending, finds the least-specific cover
first — the §5.1 root-node lookup — with a handful of dict probes.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships
from ..bgp.rib import RoutingTable
from ..net import Prefix, PrefixTrie
from ..rir import ALL_RIRS, RIR
from ..rpki.roa import RoaSet
from ..whois.database import WhoisCollection
from .allocation_tree import (
    DEFAULT_MAX_LEAF_LENGTH,
    AllocationScan,
    TreeLeaf,
)

__all__ = ["AnalysisContext", "RibSnapshot", "RoaSnapshot"]

_EMPTY: FrozenSet[int] = frozenset()


class RibSnapshot:
    """Frozen exact/covering origin lookups over a routing table.

    Semantically identical to :meth:`RoutingTable.exact_origins` and
    :meth:`RoutingTable.covering_origins`, but over frozen origin sets
    instead of the live table.
    """

    __slots__ = ("_map",)

    def __init__(self, exact: Mapping[Prefix, FrozenSet[int]]) -> None:
        self._map: PrefixTrie[FrozenSet[int]] = PrefixTrie.from_items(
            exact.items()
        )

    @classmethod
    def from_routing_table(cls, routing_table: RoutingTable) -> "RibSnapshot":
        """Freeze the table's exact index (origins become frozensets)."""
        return cls(dict(routing_table.items()))

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        origins = self._map.exact(prefix)
        return _EMPTY if origins is None else origins

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins.

        A stored but empty exact set falls through to the covering probe,
        where the prefix answers for itself unless a shorter cover exists.
        """
        exact = self._map.exact(prefix)
        if exact:
            return exact
        hit = self._map.least_specific_match(prefix)
        return hit[1] if hit else _EMPTY

    def exact_items(self) -> Iterable[Tuple[Prefix, FrozenSet[int]]]:
        """The ``(prefix, origins)`` pairs of the exact index, in order."""
        return self._map.items()

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._map

    def __len__(self) -> int:
        return len(self._map)


class RoaSnapshot:
    """Frozen RFC 6811 validation over one ROA snapshot.

    The same covering probe as :class:`RibSnapshot`, over per-prefix
    ROA tuples.  Outcomes are identical to
    :func:`repro.rpki.validation.validate_origin` — VALID/INVALID/
    NOT_FOUND do not depend on the order covering ROAs are visited.
    """

    __slots__ = ("_map",)

    def __init__(self, roas: RoaSet) -> None:
        buckets: Dict[Prefix, List] = {}
        for roa in roas:
            buckets.setdefault(roa.prefix, []).append(roa)
        self._map: PrefixTrie[Tuple] = PrefixTrie.from_items(
            (prefix, tuple(bucket)) for prefix, bucket in buckets.items()
        )

    def validate(self, prefix: Prefix, origin: int) -> str:
        """The RFC 6811 outcome name: ``valid``/``invalid``/``not-found``."""
        chain = self._map.covering(prefix)
        for _roa_prefix, bucket in chain:
            for roa in bucket:
                if roa.authorizes(prefix, origin):
                    return "valid"
        return "invalid" if chain else "not-found"

    def __len__(self) -> int:
        return sum(len(bucket) for _prefix, bucket in self._map.items())


class AnalysisContext:
    """Everything the fast engines query, snapshotted once per run.

    Build with :meth:`build`; hand the instance to
    ``LeaseInferencePipeline.run``, ``LegacyLeasePipeline``, and friends
    so they share one substrate instead of recomputing per pass.
    """

    def __init__(
        self,
        rirs: Tuple[RIR, ...],
        max_leaf_length: int,
        rib: RibSnapshot,
        related_sets: Dict[int, FrozenSet[int]],
        assigned: Dict[RIR, Dict[str, FrozenSet[int]]],
        stats: Dict[RIR, Dict[str, int]],
        leaves: Dict[RIR, List[TreeLeaf]],
    ) -> None:
        self.rirs = rirs
        self.max_leaf_length = max_leaf_length
        self.rib = rib
        self.related_sets = related_sets
        self.assigned = assigned
        self.stats = stats
        self._leaves = leaves

    @classmethod
    def build(
        cls,
        whois: WhoisCollection,
        routing_table: RoutingTable,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        rirs: Optional[Iterable[RIR]] = None,
    ) -> "AnalysisContext":
        """Snapshot the substrates for the selected registries."""
        rib = RibSnapshot.from_routing_table(routing_table)
        related_sets = build_related_sets(relationships, as2org)

        assigned: Dict[RIR, Dict[str, FrozenSet[int]]] = {}
        for rir in ALL_RIRS:
            by_org: Dict[str, List[int]] = {}
            for autnum in whois[rir].autnums:
                if autnum.org_id:
                    by_org.setdefault(autnum.org_id, []).append(autnum.asn)
            assigned[rir] = {
                org: frozenset(asns) for org, asns in by_org.items()
            }

        work_rirs: List[RIR] = []
        stats: Dict[RIR, Dict[str, int]] = {}
        leaves: Dict[RIR, List[TreeLeaf]] = {}
        for rir in rirs if rirs is not None else list(RIR):
            database = whois[rir]
            if not database.inetnums:
                continue
            scan = AllocationScan(database, max_leaf_length)
            region_leaves = scan.classifiable_leaves()
            work_rirs.append(rir)
            stats[rir] = scan.stats()
            leaves[rir] = region_leaves
        return cls(
            rirs=tuple(work_rirs),
            max_leaf_length=max_leaf_length,
            rib=rib,
            related_sets=related_sets,
            assigned=assigned,
            stats=stats,
            leaves=leaves,
        )

    # -- relatedness ------------------------------------------------------
    def related_to(self, asn: int) -> FrozenSet[int]:
        """The business family of *asn* (always contains *asn*)."""
        family = self.related_sets.get(asn)
        if family is None:
            return frozenset((asn,))
        return family

    def any_related(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> bool:
        """True when any left AS's family intersects *rights*.

        Equivalent to ``RelatednessOracle.any_related``: ``related(l, r)``
        holds exactly when ``r`` is in ``l``'s family set.
        """
        return any(
            not self.related_to(left).isdisjoint(rights) for left in lefts
        )

    def related_pair(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> Optional[Tuple[int, int]]:
        """The lowest-numbered related ``(left, right)`` pair, or None.

        The serving layer surfaces this pair as the relatedness verdict
        behind a Delegated/ISP-customer answer: *which* leaf origin was
        related to *which* root-side AS.  Deterministic (ascending AS
        number) so identical snapshots explain answers identically.
        """
        for left in sorted(lefts):
            hits = self.related_to(left) & rights
            if hits:
                return left, min(hits)
        return None

    # -- registry lookups -------------------------------------------------
    def assigned_asns(self, rir: RIR, org_id: Optional[str]) -> FrozenSet[int]:
        """RIR-assigned ASNs of *org_id* in *rir* (§5.1 step 3)."""
        if not org_id:
            return _EMPTY
        return self.assigned.get(rir, {}).get(org_id, _EMPTY)

    def leaves(self, rir: RIR) -> List[TreeLeaf]:
        """The classifiable leaf records for *rir*, in scan order."""
        return self._leaves.get(rir, [])

    def total_leaves(self) -> int:
        """Classifiable leaves across all snapshotted registries."""
        return sum(len(leaves) for leaves in self._leaves.values())


def build_related_sets(
    relationships: ASRelationships, as2org: Optional[AS2Org] = None
) -> Dict[int, FrozenSet[int]]:
    """Per-AS family sets equal to the relatedness oracle's closure.

    ``oracle.related(a, b)`` is true exactly when ``b`` is in
    ``{a} | neighbors(a) | as2org members of a's organisation`` — the
    identity, direct-relationship, and same-organisation clauses of
    §5.2.  Precomputing the union turns every relatedness query into a
    set-membership test with no oracle (and no dataset objects) needed
    at classification time.
    """
    asns = set(relationships.asns())
    if as2org is not None:
        asns.update(as2org.asns())
    related: Dict[int, FrozenSet[int]] = {}
    for asn in asns:
        family = {asn}
        family.update(relationships.neighbors(asn))
        if as2org is not None:
            org = as2org.org_of(asn)
            if org is not None:
                family.update(as2org.members(org))
        related[asn] = frozenset(family)
    return related
