"""IPv4 network primitives: addresses, prefixes, ranges, and a prefix map."""

from .ipaddr import (
    MAX_IPV4,
    AddressError,
    Prefix,
    address_to_int,
    int_to_address,
    parse_address,
)
from .ipset import IPSet
from .radix import PrefixTrie, resolve_covering_chain
from .ranges import AddressRange, prefixes_to_ranges, range_to_prefixes

__all__ = [
    "MAX_IPV4",
    "AddressError",
    "AddressRange",
    "IPSet",
    "Prefix",
    "PrefixTrie",
    "address_to_int",
    "int_to_address",
    "parse_address",
    "prefixes_to_ranges",
    "range_to_prefixes",
    "resolve_covering_chain",
]
