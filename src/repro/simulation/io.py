"""Materializing a world to disk and loading it back.

``write_world`` writes every dataset in its native on-disk flavour —
RPSL/ARIN/LACNIC WHOIS dumps, pipe-format table dumps, serial-1
relationships, AS2org JSONL, VRP CSV, DROP JSONL, broker CSV — exactly
the file formats a measurement pipeline would download (§4).
``load_datasets`` reads them back into the in-memory types, which both
round-trips the serializers and lets the CLI run the inference from
files alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..abuse.dropdb import AsnDropList, DropArchive
from ..asdata.as2org import AS2Org
from ..asdata.hijackers import SerialHijackerList
from ..asdata.relationships import ASRelationships
from ..bgp.mrt import read_mrt, write_mrt
from ..bgp.rib import RoutingTable
from ..bgp.table_dump import read_table_dump, write_table_dump
from ..brokers.registry import BrokerRegistry
from ..net import Prefix
from ..rir import RIR
from ..rpki.archive import RpkiArchive
from ..rpki.roa import RoaSet
from ..whois.database import WhoisCollection, WhoisDatabase
from .world import World

__all__ = ["DatasetBundle", "write_world", "load_datasets"]


@dataclass
class FeaturedBundle:
    """The Fig. 3 featured prefix as loaded from disk."""

    prefix: Prefix
    rpki_archive: RpkiArchive
    updates: "UpdateStream"


@dataclass
class DatasetBundle:
    """The §4 datasets as loaded from disk."""

    whois: WhoisCollection
    routing_table: RoutingTable
    relationships: ASRelationships
    as2org: AS2Org
    roas: RoaSet
    rpki_archive: RpkiArchive
    drop_archive: DropArchive
    hijackers: SerialHijackerList
    broker_registry: BrokerRegistry
    curation_exclusions: Set[Prefix]
    negative_isp_org_ids: Dict[RIR, List[str]]
    featured: Optional[FeaturedBundle] = None


def write_world(world: World, directory: Path) -> None:
    """Write every dataset of *world* under *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    whois_dir = directory / "whois"
    whois_dir.mkdir(exist_ok=True)
    for database in world.whois:
        path = whois_dir / f"{database.rir.value}.db"
        path.write_text(database.to_text())
    entries = world.to_table_dump_entries()
    (directory / "rib.txt").write_text(write_table_dump(entries))
    # The same RIB in the binary MRT form collectors actually publish.
    (directory / "rib.mrt").write_bytes(write_mrt(entries))
    (directory / "as-rel.txt").write_text(world.relationships.to_text())
    (directory / "as2org.jsonl").write_text(world.as2org.to_jsonl())
    # World.roas is also both RPKI snapshots: render each set once.
    vrp_texts = {world.roas: world.roas.to_csv()}
    (directory / "vrps.csv").write_text(vrp_texts[world.roas])
    drop_dir = directory / "drop"
    drop_dir.mkdir(exist_ok=True)
    for month in world.drop_archive.months():
        (drop_dir / f"asndrop-{month}.json").write_text(
            world.drop_archive.month(month).to_json()
        )
    world.rpki_archive.to_directory(directory / "rpki", vrp_texts)
    _write_featured(directory / "featured", world, vrp_texts)
    (directory / "hijackers.txt").write_text(world.hijackers.to_text())
    (directory / "brokers.csv").write_text(world.broker_registry.to_csv())
    _write_exclusions(directory / "exclusions.txt", world.curation_exclusions)
    _write_negative_isps(
        directory / "negative_isps.csv", world.negative_isp_org_ids
    )
    _write_ground_truth(directory / "ground_truth.csv", world)


def load_datasets(directory: Path) -> DatasetBundle:
    """Load a bundle previously produced by :func:`write_world`."""
    directory = Path(directory)
    whois = WhoisCollection()
    for rir in RIR:
        path = directory / "whois" / f"{rir.value}.db"
        if path.exists():
            whois.databases()[rir] = WhoisDatabase.from_text(
                rir, path.read_text()
            )
    rib_txt = directory / "rib.txt"
    if rib_txt.exists():
        routing_table = RoutingTable.from_entries(
            read_table_dump(rib_txt.read_text())
        )
    else:  # fall back to the binary MRT RIB
        routing_table = RoutingTable.from_entries(
            read_mrt((directory / "rib.mrt").read_bytes())
        )
    drop_archive = DropArchive()
    drop_dir = directory / "drop"
    if drop_dir.exists():
        for path in sorted(drop_dir.glob("asndrop-*.json")):
            month = path.stem.replace("asndrop-", "")
            drop_archive.add_month(month, AsnDropList.from_json(path.read_text()))
    # The RPKI snapshots usually repeat vrps.csv: parse each text once.
    vrps_text = (directory / "vrps.csv").read_text()
    vrp_sets = {vrps_text: RoaSet.from_csv(vrps_text)}
    rpki_dir = directory / "rpki"
    rpki_archive = (
        RpkiArchive.from_directory(rpki_dir, vrp_sets)
        if rpki_dir.exists()
        else RpkiArchive()
    )
    return DatasetBundle(
        whois=whois,
        routing_table=routing_table,
        relationships=ASRelationships.from_text(
            (directory / "as-rel.txt").read_text()
        ),
        as2org=AS2Org.from_jsonl((directory / "as2org.jsonl").read_text()),
        roas=vrp_sets[vrps_text],
        rpki_archive=rpki_archive,
        featured=_read_featured(directory / "featured"),
        drop_archive=drop_archive,
        hijackers=SerialHijackerList.from_text(
            (directory / "hijackers.txt").read_text()
        ),
        broker_registry=BrokerRegistry.from_csv(
            (directory / "brokers.csv").read_text()
        ),
        curation_exclusions=_read_exclusions(directory / "exclusions.txt"),
        negative_isp_org_ids=_read_negative_isps(
            directory / "negative_isps.csv"
        ),
    )


def _write_featured(
    directory: Path, world: World, vrp_texts: Dict[RoaSet, str]
) -> None:
    """Persist the Fig. 3 prefix: its RPKI archive + a BGP update stream.

    The (timestamp, origins) observations become announce/withdraw
    messages so the on-disk form matches real update archives.
    """
    from ..bgp.aspath import ASPath
    from ..bgp.history import AnnounceUpdate, UpdateStream, WithdrawUpdate

    directory.mkdir(parents=True, exist_ok=True)
    featured = world.featured
    (directory / "prefix.txt").write_text(f"{featured.prefix}\n")
    featured.rpki_archive.to_directory(directory / "rpki", vrp_texts)
    updates = []
    previous: frozenset = frozenset()
    peer = world.collector_peers[0]
    for timestamp, origins in featured.bgp_observations:
        current = frozenset(origins)
        for _origin in sorted(previous - current):
            updates.append(
                WithdrawUpdate(
                    timestamp=timestamp,
                    prefix=featured.prefix,
                    peer_asn=peer,
                    peer_address="198.18.0.1",
                )
            )
        for origin in sorted(current - previous):
            updates.append(
                AnnounceUpdate(
                    timestamp=timestamp,
                    prefix=featured.prefix,
                    path=ASPath.of(peer, origin),
                    peer_asn=peer,
                    peer_address="198.18.0.1",
                )
            )
        previous = current
    (directory / "updates.txt").write_text(UpdateStream(updates).to_text())


def _read_featured(directory: Path) -> Optional[FeaturedBundle]:
    from ..bgp.history import UpdateStream

    if not directory.exists():
        return None
    prefix = Prefix.parse((directory / "prefix.txt").read_text().strip())
    return FeaturedBundle(
        prefix=prefix,
        rpki_archive=RpkiArchive.from_directory(directory / "rpki"),
        updates=UpdateStream.from_text(
            (directory / "updates.txt").read_text()
        ),
    )


def _write_exclusions(path: Path, exclusions: Set[Prefix]) -> None:
    lines = ["# broker-maintained blocks that are not leases"]
    lines.extend(str(prefix) for prefix in sorted(exclusions))
    path.write_text("\n".join(lines) + "\n")


def _read_exclusions(path: Path) -> Set[Prefix]:
    if not path.exists():
        return set()
    result: Set[Prefix] = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            result.add(Prefix.parse(line))
    return result


def _write_negative_isps(
    path: Path, negative: Dict[RIR, List[str]]
) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rir", "org_id"])
        for rir in sorted(negative, key=lambda r: r.name):
            for org_id in negative[rir]:
                writer.writerow([rir.value, org_id])


def _read_negative_isps(path: Path) -> Dict[RIR, List[str]]:
    if not path.exists():
        return {}
    result: Dict[RIR, List[str]] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header
        for row in reader:
            if len(row) >= 2:
                result.setdefault(RIR.parse(row[0]), []).append(row[1])
    return result


def _write_ground_truth(path: Path, world: World) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["prefix", "rir", "kind", "holder_org", "facilitator", "lessee_asn"]
        )
        for entry in sorted(world.ground_truth, key=lambda e: e.prefix):
            writer.writerow(
                [
                    str(entry.prefix),
                    entry.rir.value,
                    entry.kind.value,
                    entry.holder_org_id or "",
                    entry.facilitator_handle or "",
                    entry.lessee_asn if entry.lessee_asn is not None else "",
                ]
            )
