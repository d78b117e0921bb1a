"""RPSL flat-file parsing and serialization (RIPE, APNIC, AFRINIC style).

Handles the split-file dump conventions of ``ftp.ripe.net/ripe/dbase``:
objects are paragraphs separated by blank lines, ``%`` and ``#`` lines are
comments, and attribute values may continue onto following lines that start
with whitespace or ``+``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, TextIO, Union

from ..net import AddressRange
from ..rir import RIR
from .objects import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
    RpslObject,
    dedupe_preserving_order,
    parse_asn,
    split_handles,
)

__all__ = [
    "parse_rpsl",
    "parse_rpsl_file",
    "serialize_object",
    "serialize_objects",
    "normalize_rpsl_object",
]

_COMMENT_PREFIXES = ("%", "#")


def parse_rpsl(text: Union[str, Iterable[str]]) -> Iterator[RpslObject]:
    """Yield :class:`RpslObject` paragraphs from dump text or lines."""
    lines = text.splitlines() if isinstance(text, str) else text
    current: Optional[RpslObject] = None
    for raw_line in lines:
        line = raw_line.rstrip("\n")
        if line.startswith(_COMMENT_PREFIXES):
            continue
        if not line.strip():
            if current is not None and current.attributes:
                yield current
            current = None
            continue
        if line[0] in (" ", "\t", "+"):
            # Continuation of the previous attribute value.
            if current is None or not current.attributes:
                continue  # stray continuation; drop it
            name, value = current.attributes[-1]
            extra = line[1:].strip() if line[0] == "+" else line.strip()
            joined = f"{value} {extra}".strip()
            current.attributes[-1] = (name, joined)
            continue
        name, sep, value = line.partition(":")
        if not sep:
            continue  # malformed line; RIR dumps contain a few — skip
        if current is None:
            current = RpslObject()
        current.add(name.strip(), value.strip())
    if current is not None and current.attributes:
        yield current


def parse_rpsl_file(handle: TextIO) -> Iterator[RpslObject]:
    """Stream objects from an open text file."""
    yield from parse_rpsl(handle)


def serialize_object(obj: RpslObject, column: int = 16) -> str:
    """Render one object in aligned RPSL form (no trailing blank line)."""
    return "\n".join(
        [(f"{name}:".ljust(column) + value).rstrip() for name, value in obj.attributes]
    )


def serialize_objects(objects: Iterable[RpslObject], column: int = 16) -> str:
    """Render many objects separated by blank lines, ending with newline."""
    parts = [serialize_object(obj, column=column) for obj in objects]
    return "\n\n".join(parts) + ("\n" if parts else "")


def normalize_rpsl_object(
    rir: RIR, obj: RpslObject
) -> Union[InetnumRecord, AutNumRecord, OrgRecord, MntnerRecord, None]:
    """Convert a parsed RPSL object to its normalized record, if relevant.

    Returns None for classes the pipeline does not use (route, person,
    domain, ...) and for IPv6 ``inet6num`` objects — the paper studies IPv4
    only.
    """
    cls = obj.object_class
    if cls == "inetnum":
        status = obj.first("status") or ""
        return InetnumRecord(
            rir=rir,
            range=AddressRange.parse(obj.primary_key),
            status=status,
            org_id=obj.first("org"),
            maintainers=dedupe_preserving_order(
                split_handles(obj.all("mnt-by"))
            ),
            net_name=obj.first("netname") or "",
            handle=obj.primary_key,
            country=obj.first("country"),
            source_class="inetnum",
        )
    if cls == "aut-num":
        return AutNumRecord(
            rir=rir,
            asn=parse_asn(obj.primary_key),
            org_id=obj.first("org"),
            maintainers=dedupe_preserving_order(
                split_handles(obj.all("mnt-by"))
            ),
            as_name=obj.first("as-name") or "",
            handle=obj.primary_key,
        )
    if cls == "organisation":
        maintainers = dedupe_preserving_order(
            split_handles(obj.all("mnt-by")) + split_handles(obj.all("mnt-ref"))
        )
        return OrgRecord(
            rir=rir,
            org_id=obj.primary_key,
            name=obj.first("org-name") or "",
            maintainers=maintainers,
            country=obj.first("country"),
        )
    if cls == "mntner":
        return MntnerRecord(
            rir=rir,
            handle=obj.primary_key,
            admin_contact=obj.first("admin-c"),
            org_id=obj.first("org"),
        )
    return None


def inetnum_to_rpsl(record: InetnumRecord) -> RpslObject:
    """Render a normalized inetnum back into an RPSL object."""
    obj = RpslObject()
    obj.add("inetnum", str(record.range))
    if record.net_name:
        obj.add("netname", record.net_name)
    if record.country:
        obj.add("country", record.country)
    if record.org_id:
        obj.add("org", record.org_id)
    obj.add("status", record.status)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj


def autnum_to_rpsl(record: AutNumRecord) -> RpslObject:
    """Render a normalized aut-num back into an RPSL object."""
    obj = RpslObject()
    obj.add("aut-num", f"AS{record.asn}")
    if record.as_name:
        obj.add("as-name", record.as_name)
    if record.org_id:
        obj.add("org", record.org_id)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj


def org_to_rpsl(record: OrgRecord) -> RpslObject:
    """Render a normalized organisation back into an RPSL object."""
    obj = RpslObject()
    obj.add("organisation", record.org_id)
    obj.add("org-name", record.name)
    if record.country:
        obj.add("country", record.country)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj
