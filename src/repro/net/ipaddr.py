"""IPv4 address and prefix primitives.

These are integer-backed, hashable, and deliberately lighter-weight than
:mod:`ipaddress` because the inference pipeline manipulates hundreds of
thousands of prefixes; all hot paths operate on ``(network_int, length)``
pairs.  Conversion helpers to and from the standard library types exist for
interoperability.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from typing import Iterator, Tuple

__all__ = [
    "AddressError",
    "MAX_IPV4",
    "Prefix",
    "address_to_int",
    "int_to_address",
    "parse_address",
]

#: Largest IPv4 address as an integer (255.255.255.255).
MAX_IPV4 = (1 << 32) - 1

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Raised for malformed IPv4 addresses, prefixes, or ranges."""


def address_to_int(text: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer.

    >>> address_to_int("10.0.0.1")
    167772161
    """
    match = _DOTTED_QUAD.match(text.strip())
    if match is None:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_address(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address.

    >>> int_to_address(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"address integer out of range: {value}")
    return f"{value >> 24}.{value >> 16 & 0xFF}.{value >> 8 & 0xFF}.{value & 0xFF}"


def parse_address(text: str) -> int:
    """Alias of :func:`address_to_int` kept for API symmetry."""
    return address_to_int(text)


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix, stored as ``(network, length)``.

    Ordering sorts by network address first, then by length, which places a
    covering prefix immediately before its more-specifics — convenient for
    building allocation trees with a single sorted pass.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & ~self.netmask():
            raise AddressError(
                f"host bits set: {int_to_address(self.network)}/{self.length}"
            )

    # -- construction ----------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` (a bare address is treated as a /32)."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError(f"bad prefix length in {text!r}") from None
        else:
            addr_text, length = text, 32
        return cls(address_to_int(addr_text), length)

    @classmethod
    def from_ipaddress(cls, network: ipaddress.IPv4Network) -> "Prefix":
        """Convert a standard-library :class:`ipaddress.IPv4Network`."""
        return cls(int(network.network_address), network.prefixlen)

    # -- formatting -------------------------------------------------------
    def __str__(self) -> str:
        return f"{int_to_address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def to_ipaddress(self) -> ipaddress.IPv4Network:
        """Convert to a standard-library :class:`ipaddress.IPv4Network`."""
        return ipaddress.IPv4Network((self.network, self.length))

    # -- geometry ---------------------------------------------------------
    def netmask(self) -> int:
        """The prefix netmask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (MAX_IPV4 << (32 - self.length)) & MAX_IPV4

    @property
    def first_address(self) -> int:
        """First address covered (the network address)."""
        return self.network

    @property
    def last_address(self) -> int:
        """Last address covered (the broadcast address)."""
        return self.network | (~self.netmask() & MAX_IPV4)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, other: "Prefix") -> bool:
        """True when *other* is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.netmask()) == self.network

    def contains_address(self, address: int) -> bool:
        """True when the 32-bit *address* falls inside this prefix."""
        return (address & self.netmask()) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    # -- navigation ---------------------------------------------------------
    def supernet(self, new_length: int | None = None) -> "Prefix":
        """The covering prefix of *new_length* (default: one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if not 0 <= new_length <= self.length:
            raise AddressError(
                f"cannot widen /{self.length} to /{new_length}"
            )
        mask = (MAX_IPV4 << (32 - new_length)) & MAX_IPV4 if new_length else 0
        return Prefix(self.network & mask, new_length)

    def subnets(self, new_length: int | None = None) -> Iterator["Prefix"]:
        """Iterate the subnets of *new_length* (default: one bit longer)."""
        if new_length is None:
            new_length = self.length + 1
        if not self.length <= new_length <= 32:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length}"
            )
        step = 1 << (32 - new_length)
        for network in range(self.network, self.last_address + 1, step):
            yield Prefix(network, new_length)

    def nth_subnet(self, new_length: int, index: int) -> "Prefix":
        """The *index*-th subnet of *new_length* without iterating them all."""
        if not self.length <= new_length <= 32:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length}"
            )
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise AddressError(
                f"subnet index {index} out of range for "
                f"/{self.length}->/{new_length}"
            )
        step = 1 << (32 - new_length)
        return Prefix(self.network + index * step, new_length)

    def range(self) -> Tuple[int, int]:
        """The inclusive ``(first, last)`` integer address range."""
        return self.first_address, self.last_address
