"""Route Origin Authorizations and VRP sets.

A ROA authorizes one AS to originate a prefix (up to ``max_length``);
``asn == 0`` (AS0) is the RFC 7607 "never originate" marker the paper
observes IPXO using between leases (§6.5, Fig. 3).  A :class:`RoaSet` is
one validated snapshot — the 30-minute archive granularity of §4 is
modelled by :mod:`repro.rpki.archive`.

On-disk format is the conventional VRP CSV: ``ASN,IP Prefix,Max Length``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..net import Prefix, PrefixTrie

__all__ = ["AS0", "ROA", "RoaSet"]

#: RFC 7607 AS0: a ROA that authorizes nobody.
AS0 = 0


@dataclass(frozen=True, order=True)
class ROA:
    """One validated ROA payload (VRP)."""

    prefix: Prefix
    asn: int
    max_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.asn < 0:
            raise ValueError(f"negative ASN: {self.asn}")
        if self.max_length is None:
            # Normalize the RFC 6482 default so ROA(p, a) == ROA(p, a, p.length).
            object.__setattr__(self, "max_length", self.prefix.length)
        if not self.prefix.length <= self.max_length <= 32:
            raise ValueError(
                f"maxLength {self.max_length} invalid for {self.prefix}"
            )

    @property
    def effective_max_length(self) -> int:
        """maxLength (normalized to the prefix length when omitted)."""
        return self.max_length  # type: ignore[return-value]

    @property
    def is_as0(self) -> bool:
        """True for AS0 ("do not originate") ROAs."""
        return self.asn == AS0

    def authorizes(self, prefix: Prefix, origin: int) -> bool:
        """True when this ROA makes (prefix, origin) RPKI-valid."""
        if self.asn != origin or self.is_as0:
            return False
        return (
            self.prefix.contains(prefix)
            and prefix.length <= self.effective_max_length
        )

    def covers(self, prefix: Prefix) -> bool:
        """True when this ROA covers *prefix* (regardless of origin)."""
        return self.prefix.contains(prefix)

    def to_csv_row(self) -> str:
        """Render as a VRP CSV row."""
        return f"AS{self.asn},{self.prefix},{self.effective_max_length}"

    @classmethod
    def from_csv_row(cls, row: str) -> "ROA":
        """Parse a VRP CSV row (``AS`` prefix optional on the ASN)."""
        fields = [field.strip() for field in row.split(",")]
        if len(fields) < 3:
            raise ValueError(f"malformed VRP row: {row!r}")
        asn_text = fields[0].upper()
        if asn_text.startswith("AS"):
            asn_text = asn_text[2:]
        return cls(
            prefix=Prefix.parse(fields[1]),
            asn=int(asn_text),
            max_length=int(fields[2]),
        )


def _roa_order(roa: ROA) -> Tuple[int, int, int, Optional[int]]:
    """The dataclass order of *roa* as a plain tuple (cheaper to compare)."""
    return (roa.prefix.network, roa.prefix.length, roa.asn, roa.max_length)


class RoaSet:
    """One RPKI snapshot with covering-prefix indexes."""

    def __init__(self, roas: Iterable[ROA] = ()) -> None:
        self._roas: Set[ROA] = set()
        self._trie: PrefixTrie[Set[ROA]] = PrefixTrie()
        for roa in roas:
            self.add(roa)

    def add(self, roa: ROA) -> None:
        """Insert one ROA (idempotent)."""
        if roa in self._roas:
            return
        self._roas.add(roa)
        bucket = self._trie.exact(roa.prefix)
        if bucket is None:
            bucket = set()
            self._trie.insert(roa.prefix, bucket)
        bucket.add(roa)

    def remove(self, roa: ROA) -> bool:
        """Delete one ROA; returns False if absent."""
        if roa not in self._roas:
            return False
        self._roas.discard(roa)
        bucket = self._trie.exact(roa.prefix)
        if bucket is not None:
            bucket.discard(roa)
            if not bucket:
                self._trie.remove(roa.prefix)
        return True

    def covering(self, prefix: Prefix) -> List[ROA]:
        """ROAs whose prefix covers *prefix* (least-specific first)."""
        found: List[ROA] = []
        for _roa_prefix, bucket in self._trie.covering(prefix):
            found.extend(sorted(bucket))
        return found

    def exact(self, prefix: Prefix) -> List[ROA]:
        """ROAs registered at exactly *prefix*."""
        bucket = self._trie.exact(prefix)
        return sorted(bucket) if bucket else []

    def authorized_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """ASNs some covering ROA names for *prefix* (AS0 included)."""
        return frozenset(roa.asn for roa in self.covering(prefix))

    def has_as0(self, prefix: Prefix) -> bool:
        """True when an AS0 ROA covers *prefix*."""
        return any(roa.is_as0 for roa in self.covering(prefix))

    def __len__(self) -> int:
        return len(self._roas)

    def __iter__(self) -> Iterator[ROA]:
        return iter(sorted(self._roas))

    def __contains__(self, roa: ROA) -> bool:
        return roa in self._roas

    # -- VRP CSV ---------------------------------------------------------
    @classmethod
    def from_csv(cls, text: str) -> "RoaSet":
        """Parse a VRP CSV file (header line optional)."""
        roas: List[ROA] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.lower().startswith(("uri,", "asn,")):
                continue
            roas.append(ROA.from_csv_row(line))
        return cls(roas)

    def to_csv(self) -> str:
        """Serialize to VRP CSV with a header."""
        lines = ["ASN,IP Prefix,Max Length"]
        lines.extend(roa.to_csv_row() for roa in sorted(self._roas, key=_roa_order))
        return "\n".join(lines) + "\n"
