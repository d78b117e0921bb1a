"""A hash-probed map over IPv4 prefixes.

Supports the lookups the paper's inference needs:

* exact match (leaf-node BGP origins, §5.1 step 4),
* least-specific covering prefix (root-node fallback, §5.1 step 4),
* longest-prefix match (general routing-table semantics),
* enumeration of stored roots / leaves (allocation tree, §5.1 step 2).

The map keys each stored :class:`~repro.net.ipaddr.Prefix` by its packed
integer ``network << 8 | length`` in one dict, so an exact lookup is one
hash probe.  CIDR prefixes nest or are disjoint, so every stored cover of
a query is its truncation to some stored length: covering lookups probe
the dict once per distinct stored length instead of walking bits.  The
packing also preserves ``Prefix`` order (network, then length), which is
pre-order trie order: a subtree is one contiguous run of the sorted keys,
so subtree and role queries bisect or scan a sorted key list that is
rebuilt lazily after a mutation.

Inserting the same prefix twice replaces the value.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from .ipaddr import MAX_IPV4, Prefix

__all__ = ["PrefixTrie", "resolve_covering_chain"]

V = TypeVar("V")

#: Keys are 40 bits: a 32-bit network above an 8-bit length.
_KEY_LENGTH_MASK = 0xFF


def _last_of(key: int) -> int:
    """The last address covered by the prefix a packed key encodes."""
    return (key >> 8) | (MAX_IPV4 >> (key & _KEY_LENGTH_MASK))


class PrefixTrie(Generic[V]):
    """Mutable mapping from IPv4 prefixes to values with covering lookups."""

    __slots__ = ("_entries", "_length_counts", "_probes", "_sorted")

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Prefix, V]] = {}
        self._length_counts: Dict[int, int] = {}
        # Lazily rebuilt views: ascending ``(length, mask << 8)`` probes
        # over the stored lengths, and the ascending packed keys.
        self._probes: Optional[Tuple[Tuple[int, int], ...]] = ()
        self._sorted: Optional[List[int]] = []

    # -- mutation ----------------------------------------------------------
    def insert(self, prefix: Prefix, value: V) -> None:
        """Store *value* under *prefix*, replacing any previous value."""
        length = prefix.length
        key = (prefix.network << 8) | length
        entries = self._entries
        if key not in entries:
            count = self._length_counts.get(length, 0)
            self._length_counts[length] = count + 1
            if not count:
                self._probes = None
            self._sorted = None
        entries[key] = (prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Delete *prefix*; returns False when it was not stored.

        Removal keeps every lookup exact: a removed interior entry no
        longer appears in ``covering``/``longest_match`` chains, and a
        length with no stored prefix left drops out of the probe table,
        so repeated insert/remove cycles — a hot-reload diffing
        snapshots — cannot grow the map without bound.
        """
        length = prefix.length
        if self._entries.pop((prefix.network << 8) | length, None) is None:
            return False
        remaining = self._length_counts[length] - 1
        if remaining:
            self._length_counts[length] = remaining
        else:
            del self._length_counts[length]
            self._probes = None
        self._sorted = None
        return True

    def _probe_table(self) -> Tuple[Tuple[int, int], ...]:
        probes = self._probes
        if probes is None:
            probes = self._probes = tuple(
                (length, ((MAX_IPV4 << (32 - length)) & MAX_IPV4) << 8)
                for length in sorted(self._length_counts)
            )
        return probes

    def _sorted_keys(self) -> List[int]:
        keys = self._sorted
        if keys is None:
            keys = self._sorted = sorted(self._entries)
        return keys

    # -- basic queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return ((prefix.network << 8) | prefix.length) in self._entries

    def exact(self, prefix: Prefix) -> Optional[V]:
        """The value stored at exactly *prefix*, or None."""
        entry = self._entries.get((prefix.network << 8) | prefix.length)
        return None if entry is None else entry[1]

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Dict-style exact lookup with a default."""
        entry = self._entries.get((prefix.network << 8) | prefix.length)
        return default if entry is None else entry[1]

    # -- covering lookups ------------------------------------------------------
    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """All stored prefixes covering *prefix*, least-specific first.

        A stored prefix equal to *prefix* is included.
        """
        entries = self._entries
        shifted = prefix.network << 8
        found: List[Tuple[Prefix, V]] = []
        for length, mask in self._probe_table():
            if length > prefix.length:
                break
            entry = entries.get((shifted & mask) | length)
            if entry is not None:
                found.append(entry)
        return found

    def longest_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored prefix covering *prefix*, or None."""
        return self._deepest_cover(prefix, prefix.length)

    def least_specific_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The least-specific stored prefix covering *prefix*, or None.

        This is the lookup the paper applies to root nodes whose exact
        prefix is absent from BGP: "search for its least-specific covering
        prefix and origin AS" (§5.1 step 4).
        """
        entries = self._entries
        shifted = prefix.network << 8
        for length, mask in self._probe_table():
            if length > prefix.length:
                return None
            entry = entries.get((shifted & mask) | length)
            if entry is not None:
                return entry
        return None

    def parent(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored *strict* ancestor of *prefix*, or None."""
        return self._deepest_cover(prefix, prefix.length - 1)

    def _deepest_cover(
        self, prefix: Prefix, max_length: int
    ) -> Optional[Tuple[Prefix, V]]:
        entries = self._entries
        shifted = prefix.network << 8
        for length, mask in reversed(self._probe_table()):
            if length <= max_length:
                entry = entries.get((shifted & mask) | length)
                if entry is not None:
                    return entry
        return None

    # -- subtree queries ----------------------------------------------------
    def _subtree_keys(self, prefix: Prefix) -> List[int]:
        """Sorted keys equal to or more specific than *prefix*.

        CIDR alignment makes the subtree contiguous in packed order:
        every prefix inside *prefix* has a network address in
        ``[prefix.network, prefix.last_address]`` and sorts at or after
        the packed *prefix* itself (shorter covering prefixes share the
        network address but sort strictly before it).
        """
        keys = self._sorted_keys()
        start = bisect_left(keys, (prefix.network << 8) | prefix.length)
        stop = bisect_left(keys, (prefix.last_address + 1) << 8)
        return keys[start:stop]

    def _tops(self, keys: Iterable[int]) -> List[Tuple[Prefix, V]]:
        """Entries of sorted *keys* not covered by an earlier one of them."""
        entries = self._entries
        result: List[Tuple[Prefix, V]] = []
        boundary = -1
        for key in keys:
            if key >> 8 > boundary:
                result.append(entries[key])
                boundary = _last_of(key)
        return result

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Iterate stored prefixes equal to or more specific than *prefix*."""
        entries = self._entries
        return iter([entries[key] for key in self._subtree_keys(prefix)])

    def children_of(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """Direct stored descendants of *prefix* (no stored prefix between)."""
        own = (prefix.network << 8) | prefix.length
        return self._tops(
            key for key in self._subtree_keys(prefix) if key != own
        )

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all stored ``(prefix, value)`` pairs in ``Prefix`` order."""
        entries = self._entries
        return iter([entries[key] for key in self._sorted_keys()])

    def keys(self) -> Iterator[Prefix]:
        """Iterate all stored prefixes in ``Prefix`` order."""
        entries = self._entries
        return iter([entries[key][0] for key in self._sorted_keys()])

    # -- structural roles (allocation tree) ----------------------------------
    def roots(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict ancestor."""
        return self._tops(self._sorted_keys())

    def leaves(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict descendant.

        A stored descendant sorts immediately after its ancestor, so an
        entry is a leaf exactly when the next key lies outside it.
        """
        keys = self._sorted_keys()
        entries = self._entries
        return [
            entries[key]
            for key, following in zip(keys, keys[1:] + [1 << 40])
            if following >> 8 > _last_of(key)
        ]

    # -- conversion ---------------------------------------------------------
    def to_dict(self) -> Dict[Prefix, V]:
        """Materialize the map as a plain dict."""
        return dict(self.items())

    @classmethod
    def from_items(cls, items: Iterable[Tuple[Prefix, V]]) -> "PrefixTrie[V]":
        """Build a map from ``(prefix, value)`` pairs; later pairs win."""
        trie: PrefixTrie[V] = cls()
        for prefix, value in items:
            trie.insert(prefix, value)
        return trie


def resolve_covering_chain(
    trie: PrefixTrie[V], prefix: Prefix
) -> Tuple[Optional[Tuple[Prefix, V]], List[Tuple[Prefix, V]]]:
    """Resolve *prefix* against *trie* as ``(best, chain)``.

    ``chain`` holds every stored entry covering *prefix*, least-specific
    first — the registry-style covering chain; ``best`` is its final,
    most-specific element (the longest-prefix match), or ``None`` when
    nothing covers the query.  The RFC 3912 WHOIS server and the lease
    lookup service share this helper so both resolve queries through
    identical semantics.
    """
    chain = trie.covering(prefix)
    best = chain[-1] if chain else None
    return best, chain
