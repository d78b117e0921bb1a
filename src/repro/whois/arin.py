"""ARIN bulk-WHOIS format parsing and serialization.

ARIN's bulk WHOIS (``arin_db.txt``) is block-structured like RPSL but uses
CamelCase attribute names and different object classes: ``NetHandle`` for
address blocks, ``ASHandle`` for AS numbers, and ``OrgID`` for
organisations.  The paper maps these onto the same normalized records as
the RPSL registries (§5.1 step 1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from ..net import AddressRange, int_to_address
from ..rir import RIR
from .objects import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    RpslObject,
    parse_asn,
)
from .rpsl import parse_rpsl, serialize_objects

__all__ = [
    "parse_arin",
    "normalize_arin_object",
    "net_to_arin",
    "asn_to_arin",
    "org_to_arin",
    "serialize_arin",
]


def parse_arin(text: Union[str, Iterable[str]]) -> Iterator[RpslObject]:
    """Yield blocks from ARIN bulk text.

    The low-level grammar (attribute-colon-value paragraphs) matches RPSL,
    so the RPSL tokenizer is reused; attribute names are lower-cased by the
    shared :class:`RpslObject` model (``nethandle``, ``orgid``, ...).
    """
    yield from parse_rpsl(text)


def normalize_arin_object(
    obj: RpslObject,
) -> Union[InetnumRecord, AutNumRecord, OrgRecord, None]:
    """Convert an ARIN block into a normalized record, if relevant.

    ARIN has no maintainer objects; the paper's broker matching instead
    keys on OrgIDs, so the org handle doubles as the record's maintainer.
    """
    cls = obj.object_class
    if cls == "nethandle":
        net_range = obj.first("netrange")
        if net_range is None:
            return None
        org_id = obj.first("orgid")
        return InetnumRecord(
            rir=RIR.ARIN,
            range=AddressRange.parse(net_range),
            status=obj.first("nettype") or "",
            org_id=org_id,
            maintainers=(org_id,) if org_id else (),
            net_name=obj.first("netname") or "",
            handle=obj.primary_key,
            parent_handle=obj.first("parent"),
            country=obj.first("country"),
            source_class="NetHandle",
        )
    if cls == "ashandle":
        as_number = obj.first("asnumber") or obj.primary_key
        org_id = obj.first("orgid")
        return AutNumRecord(
            rir=RIR.ARIN,
            asn=parse_asn(as_number),
            org_id=org_id,
            maintainers=(org_id,) if org_id else (),
            as_name=obj.first("asname") or "",
            handle=obj.primary_key,
        )
    if cls == "orgid":
        return OrgRecord(
            rir=RIR.ARIN,
            org_id=obj.primary_key,
            name=obj.first("orgname") or "",
            maintainers=(obj.primary_key,),
            country=obj.first("country"),
        )
    return None


def net_to_arin(record: InetnumRecord) -> RpslObject:
    """Render a normalized block as an ARIN NetHandle object."""
    obj = RpslObject()
    obj.add("NetHandle", record.handle or _net_handle_for(record))
    obj.add("NetRange", str(record.range))
    obj.add("NetType", record.status)
    if record.net_name:
        obj.add("NetName", record.net_name)
    if record.org_id:
        obj.add("OrgID", record.org_id)
    if record.parent_handle:
        obj.add("Parent", record.parent_handle)
    if record.country:
        obj.add("Country", record.country)
    return obj


def asn_to_arin(record: AutNumRecord) -> RpslObject:
    """Render a normalized AS registration as an ARIN ASHandle object."""
    obj = RpslObject()
    obj.add("ASHandle", record.handle or f"AS{record.asn}")
    obj.add("ASNumber", str(record.asn))
    if record.as_name:
        obj.add("ASName", record.as_name)
    if record.org_id:
        obj.add("OrgID", record.org_id)
    return obj


def org_to_arin(record: OrgRecord) -> RpslObject:
    """Render a normalized organisation as an ARIN OrgID object."""
    obj = RpslObject()
    obj.add("OrgID", record.org_id)
    obj.add("OrgName", record.name)
    if record.country:
        obj.add("Country", record.country)
    return obj


#: Canonical ARIN attribute spellings; the shared object model stores
#: lower-cased names, so serialization restores the CamelCase forms that
#: appear in real ``arin_db.txt`` dumps.
_CANONICAL_NAMES = {
    "nethandle": "NetHandle",
    "netrange": "NetRange",
    "nettype": "NetType",
    "netname": "NetName",
    "orgid": "OrgID",
    "orgname": "OrgName",
    "parent": "Parent",
    "country": "Country",
    "ashandle": "ASHandle",
    "asnumber": "ASNumber",
    "asname": "ASName",
    "regdate": "RegDate",
    "updated": "Updated",
}


def serialize_arin(objects: Iterable[RpslObject]) -> str:
    """Render ARIN blocks back to bulk text with CamelCase attributes."""
    restored = []
    for obj in objects:
        canonical = RpslObject()
        canonical.attributes = [
            (_CANONICAL_NAMES.get(name, name), value)
            for name, value in obj.attributes
        ]
        restored.append(canonical)
    return serialize_objects(restored)


def _net_handle_for(record: InetnumRecord) -> str:
    """ARIN-style synthetic handle, e.g. ``NET-192-0-2-0-1``."""
    dashed = int_to_address(record.range.first).replace(".", "-")
    return f"NET-{dashed}-1"
