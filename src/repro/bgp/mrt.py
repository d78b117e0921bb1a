"""MRT export format (RFC 6396): binary TABLE_DUMP_V2 RIBs.

Routeviews and RIPE RIS publish their RIB snapshots as MRT files; the
paper's pipeline downloads and decodes those before anything else (§4).
This module implements the subset real IPv4 RIB archives consist of:

* the common MRT header (timestamp, type, subtype, length),
* ``PEER_INDEX_TABLE`` (subtype 1): collector id, view name, peer table,
* ``RIB_IPV4_UNICAST`` (subtype 2): per-prefix RIB entries whose BGP
  path attributes carry ORIGIN, AS_PATH (AS4), and NEXT_HOP.

Both directions are provided — :func:`write_mrt` encodes RIB rows into
bytes and :func:`read_mrt` decodes them back — so synthetic worlds can
be materialized exactly the way a collector would publish them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..net import Prefix, address_to_int, int_to_address
from .aspath import ASPath
from .rib import RibEntry

__all__ = [
    "MrtError",
    "read_mrt",
    "write_mrt",
    "read_mrt_updates",
    "write_mrt_updates",
]

#: MRT type for TABLE_DUMP_V2 (RFC 6396 §4.3).
TABLE_DUMP_V2 = 13
PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2
#: MRT type for BGP4MP (RFC 6396 §4.4) and the AS4 message subtype.
BGP4MP = 16
BGP4MP_MESSAGE_AS4 = 4
_BGP_UPDATE = 2
_AFI_IPV4 = 1

# BGP path-attribute type codes.
_ATTR_ORIGIN = 1
_ATTR_AS_PATH = 2
_ATTR_NEXT_HOP = 3
_AS_SEQUENCE = 2

_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED = 0x10


class MrtError(ValueError):
    """Raised on malformed MRT data."""


@dataclass(frozen=True)
class PeerEntry:
    """One row of the PEER_INDEX_TABLE."""

    bgp_id: int
    address: str
    asn: int


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def write_mrt(
    entries: Sequence[RibEntry],
    collector_id: int = 0xC0A80001,
    view_name: str = "",
) -> bytes:
    """Encode RIB rows as a TABLE_DUMP_V2 MRT byte stream.

    Emits one PEER_INDEX_TABLE followed by one RIB_IPV4_UNICAST record
    per distinct prefix (entries for the same prefix share the record,
    exactly as collectors do).
    """
    peers: List[PeerEntry] = []
    peer_index: Dict[Tuple[str, int], int] = {}
    for entry in entries:
        key = (entry.peer_address, entry.peer_asn)
        if key not in peer_index:
            peer_index[key] = len(peers)
            peers.append(
                PeerEntry(
                    bgp_id=address_to_int(entry.peer_address),
                    address=entry.peer_address,
                    asn=entry.peer_asn,
                )
            )

    by_prefix: Dict[Prefix, List[RibEntry]] = {}
    for entry in entries:
        by_prefix.setdefault(entry.prefix, []).append(entry)

    chunks: List[bytes] = [
        _record(
            timestamp=entries[0].timestamp if entries else 0,
            subtype=PEER_INDEX_TABLE,
            body=_encode_peer_index(collector_id, view_name, peers),
        )
    ]
    # Paths repeat across prefixes: encode each distinct one once.
    path_attributes: Dict[ASPath, bytes] = {}
    for sequence, prefix in enumerate(sorted(by_prefix)):
        rows = by_prefix[prefix]
        chunks.append(
            _record(
                timestamp=rows[0].timestamp,
                subtype=RIB_IPV4_UNICAST,
                body=_encode_rib(
                    sequence, prefix, rows, peer_index, path_attributes
                ),
            )
        )
    return b"".join(chunks)


def _record(timestamp: int, subtype: int, body: bytes) -> bytes:
    header = struct.pack(
        ">IHHI", timestamp, TABLE_DUMP_V2, subtype, len(body)
    )
    return header + body


def _encode_peer_index(
    collector_id: int, view_name: str, peers: Sequence[PeerEntry]
) -> bytes:
    name_bytes = view_name.encode("ascii")
    parts = [
        struct.pack(">IH", collector_id, len(name_bytes)),
        name_bytes,
        struct.pack(">H", len(peers)),
    ]
    for peer in peers:
        # Peer type 0x02: IPv4 address, 4-byte AS number.
        parts.append(
            struct.pack(
                ">BII I".replace(" ", ""),
                0x02,
                peer.bgp_id,
                address_to_int(peer.address),
                peer.asn,
            )
        )
    return b"".join(parts)


def _encode_rib(
    sequence: int,
    prefix: Prefix,
    rows: Sequence[RibEntry],
    peer_index: Dict[Tuple[str, int], int],
    path_attributes: Dict[ASPath, bytes],
) -> bytes:
    prefix_bytes = _encode_prefix(prefix)
    parts = [
        struct.pack(">I", sequence),
        prefix_bytes,
        struct.pack(">H", len(rows)),
    ]
    for row in rows:
        attributes = path_attributes.get(row.path)
        if attributes is None:
            attributes = path_attributes[row.path] = _encode_attributes(row.path)
        parts.append(
            struct.pack(
                ">HIH",
                peer_index[(row.peer_address, row.peer_asn)],
                row.timestamp,
                len(attributes),
            )
        )
        parts.append(attributes)
    return b"".join(parts)


def _encode_prefix(prefix: Prefix) -> bytes:
    octets = (prefix.length + 7) // 8
    raw = prefix.network.to_bytes(4, "big")[:octets]
    return bytes([prefix.length]) + raw


def _encode_attributes(path: ASPath) -> bytes:
    origin = bytes([_FLAG_TRANSITIVE, _ATTR_ORIGIN, 1, 0])  # IGP
    segments = struct.pack(">BB", _AS_SEQUENCE, len(path.asns))
    segments += b"".join(struct.pack(">I", asn) for asn in path.asns)
    as_path = (
        bytes([_FLAG_TRANSITIVE | _FLAG_EXTENDED, _ATTR_AS_PATH])
        + struct.pack(">H", len(segments))
        + segments
    )
    next_hop = bytes([_FLAG_TRANSITIVE, _ATTR_NEXT_HOP, 4]) + (0).to_bytes(
        4, "big"
    )
    return origin + as_path + next_hop


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def read_mrt(data: bytes) -> Iterator[RibEntry]:
    """Decode a TABLE_DUMP_V2 byte stream back into RIB rows.

    Unknown MRT types/subtypes are skipped (real archives interleave
    state-change records); truncated data raises :class:`MrtError`.
    """
    peers: List[PeerEntry] = []
    offset = 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise MrtError("truncated MRT header")
        timestamp, mrt_type, subtype, length = struct.unpack_from(
            ">IHHI", data, offset
        )
        offset += 12
        if offset + length > len(data):
            raise MrtError("truncated MRT record body")
        body = data[offset : offset + length]
        offset += length
        if mrt_type != TABLE_DUMP_V2:
            continue
        if subtype == PEER_INDEX_TABLE:
            peers = _decode_peer_index(body)
        elif subtype == RIB_IPV4_UNICAST:
            yield from _decode_rib(body, peers, timestamp)
        # other subtypes (IPv6, generic) are skipped


def _decode_peer_index(body: bytes) -> List[PeerEntry]:
    if len(body) < 8:
        raise MrtError("truncated peer index table")
    _collector_id, name_length = struct.unpack_from(">IH", body, 0)
    offset = 6 + name_length
    (peer_count,) = struct.unpack_from(">H", body, offset)
    offset += 2
    peers: List[PeerEntry] = []
    for _index in range(peer_count):
        peer_type = body[offset]
        offset += 1
        (bgp_id,) = struct.unpack_from(">I", body, offset)
        offset += 4
        if peer_type & 0x01:  # IPv6 peer address
            offset += 16
            address = "0.0.0.0"
        else:
            (addr_int,) = struct.unpack_from(">I", body, offset)
            offset += 4
            address = int_to_address(addr_int)
        if peer_type & 0x02:  # 4-byte AS
            (asn,) = struct.unpack_from(">I", body, offset)
            offset += 4
        else:
            (asn,) = struct.unpack_from(">H", body, offset)
            offset += 2
        peers.append(PeerEntry(bgp_id=bgp_id, address=address, asn=asn))
    return peers


def _decode_rib(
    body: bytes, peers: List[PeerEntry], timestamp: int
) -> Iterator[RibEntry]:
    offset = 4  # skip sequence number
    prefix, offset = _decode_prefix(body, offset)
    (entry_count,) = struct.unpack_from(">H", body, offset)
    offset += 2
    for _index in range(entry_count):
        peer_idx, originated, attr_length = struct.unpack_from(
            ">HIH", body, offset
        )
        offset += 8
        attributes = body[offset : offset + attr_length]
        offset += attr_length
        if peer_idx >= len(peers):
            raise MrtError(f"peer index {peer_idx} out of range")
        path = _decode_as_path(attributes)
        if path is None:
            continue  # no AS_PATH: not a usable route
        peer = peers[peer_idx]
        yield RibEntry(
            prefix=prefix,
            path=path,
            peer_asn=peer.asn,
            peer_address=peer.address,
            timestamp=originated or timestamp,
        )


def _decode_prefix(body: bytes, offset: int) -> Tuple[Prefix, int]:
    length = body[offset]
    offset += 1
    octets = (length + 7) // 8
    raw = body[offset : offset + octets]
    offset += octets
    network = int.from_bytes(raw + b"\x00" * (4 - octets), "big")
    try:
        return Prefix(network, length), offset
    except ValueError as exc:
        raise MrtError(f"bad prefix in RIB entry: {exc}") from exc


def _decode_as_path(attributes: bytes) -> ASPath:
    offset = 0
    while offset < len(attributes):
        flags = attributes[offset]
        attr_type = attributes[offset + 1]
        if flags & _FLAG_EXTENDED:
            (length,) = struct.unpack_from(">H", attributes, offset + 2)
            offset += 4
        else:
            length = attributes[offset + 2]
            offset += 3
        value = attributes[offset : offset + length]
        offset += length
        if attr_type != _ATTR_AS_PATH:
            continue
        asns: List[int] = []
        seg_offset = 0
        while seg_offset < len(value):
            _seg_type = value[seg_offset]
            count = value[seg_offset + 1]
            seg_offset += 2
            for _n in range(count):
                (asn,) = struct.unpack_from(">I", value, seg_offset)
                seg_offset += 4
                asns.append(asn)
        return ASPath(tuple(asns)) if asns else None
    return None


# ---------------------------------------------------------------------------
# BGP4MP update archives (RFC 6396 §4.4)
# ---------------------------------------------------------------------------


def write_mrt_updates(stream) -> bytes:
    """Encode an :class:`~repro.bgp.history.UpdateStream` as BGP4MP bytes.

    Each update becomes one ``BGP4MP_MESSAGE_AS4`` record wrapping a BGP
    UPDATE message: withdrawals in the withdrawn-routes field, announces
    as ORIGIN + AS_PATH + NEXT_HOP attributes plus NLRI.
    """
    from .history import AnnounceUpdate

    chunks: List[bytes] = []
    for update in stream:
        if isinstance(update, AnnounceUpdate):
            message = _bgp_update_message(
                withdrawn=(),
                attributes=_encode_attributes(update.path),
                nlri=(update.prefix,),
            )
        else:
            message = _bgp_update_message(
                withdrawn=(update.prefix,), attributes=b"", nlri=()
            )
        body = (
            struct.pack(
                ">IIHH",
                update.peer_asn,
                0,  # local AS (collector side)
                0,  # interface index
                _AFI_IPV4,
            )
            + address_to_int(update.peer_address).to_bytes(4, "big")
            + (0).to_bytes(4, "big")  # local address
            + message
        )
        chunks.append(
            struct.pack(
                ">IHHI",
                update.timestamp,
                BGP4MP,
                BGP4MP_MESSAGE_AS4,
                len(body),
            )
            + body
        )
    return b"".join(chunks)


def read_mrt_updates(data: bytes):
    """Decode BGP4MP bytes back into an UpdateStream."""
    from .history import AnnounceUpdate, UpdateStream, WithdrawUpdate

    updates = []
    offset = 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise MrtError("truncated MRT header")
        timestamp, mrt_type, subtype, length = struct.unpack_from(
            ">IHHI", data, offset
        )
        offset += 12
        if offset + length > len(data):
            raise MrtError("truncated MRT record body")
        body = data[offset : offset + length]
        offset += length
        if mrt_type != BGP4MP or subtype != BGP4MP_MESSAGE_AS4:
            continue
        peer_asn, _local_asn, _ifindex, afi = struct.unpack_from(
            ">IIHH", body, 0
        )
        if afi != _AFI_IPV4:
            continue
        peer_address = int_to_address(
            int.from_bytes(body[12:16], "big")
        )
        message = body[20:]
        withdrawn, attributes, nlri = _decode_bgp_update(message)
        for prefix in withdrawn:
            updates.append(
                WithdrawUpdate(
                    timestamp=timestamp,
                    prefix=prefix,
                    peer_asn=peer_asn,
                    peer_address=peer_address,
                )
            )
        if nlri:
            path = _decode_as_path(attributes)
            if path is None:
                raise MrtError("announce without AS_PATH attribute")
            for prefix in nlri:
                updates.append(
                    AnnounceUpdate(
                        timestamp=timestamp,
                        prefix=prefix,
                        path=path,
                        peer_asn=peer_asn,
                        peer_address=peer_address,
                    )
                )
    return UpdateStream(updates)


def _bgp_update_message(withdrawn, attributes: bytes, nlri) -> bytes:
    withdrawn_bytes = b"".join(_encode_prefix(p) for p in withdrawn)
    nlri_bytes = b"".join(_encode_prefix(p) for p in nlri)
    payload = (
        struct.pack(">H", len(withdrawn_bytes))
        + withdrawn_bytes
        + struct.pack(">H", len(attributes))
        + attributes
        + nlri_bytes
    )
    header = b"\xff" * 16 + struct.pack(
        ">HB", 19 + len(payload), _BGP_UPDATE
    )
    return header + payload


def _decode_bgp_update(message: bytes):
    if len(message) < 19:
        raise MrtError("truncated BGP message header")
    (msg_length, msg_type) = struct.unpack_from(">HB", message, 16)
    if msg_type != _BGP_UPDATE:
        return [], b"", []
    payload = message[19:msg_length]
    (withdrawn_length,) = struct.unpack_from(">H", payload, 0)
    offset = 2
    withdrawn = []
    end = offset + withdrawn_length
    while offset < end:
        prefix, offset = _decode_prefix(payload, offset)
        withdrawn.append(prefix)
    (attr_length,) = struct.unpack_from(">H", payload, offset)
    offset += 2
    attributes = payload[offset : offset + attr_length]
    offset += attr_length
    nlri = []
    while offset < len(payload):
        prefix, offset = _decode_prefix(payload, offset)
        nlri.append(prefix)
    return withdrawn, attributes, nlri
