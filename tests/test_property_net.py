"""Property-based tests (hypothesis) for the network primitives.

These pin the algebraic invariants the whole pipeline rests on:
range→CIDR decomposition is an exact minimal cover, the prefix map
agrees with a brute-force model, and prefix geometry is self-consistent.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    MAX_IPV4,
    AddressRange,
    Prefix,
    PrefixTrie,
    address_to_int,
    int_to_address,
    prefixes_to_ranges,
    range_to_prefixes,
)

addresses = st.integers(min_value=0, max_value=MAX_IPV4)
lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw, min_length=0, max_length=32):
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    address = draw(addresses)
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
    return Prefix(address & mask, length)


class TestAddressProperties:
    @given(addresses)
    def test_int_text_round_trip(self, value):
        assert address_to_int(int_to_address(value)) == value

    @given(addresses)
    def test_matches_stdlib(self, value):
        assert int_to_address(value) == str(ipaddress.IPv4Address(value))


class TestPrefixProperties:
    @given(prefixes())
    def test_parse_str_round_trip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes())
    def test_stdlib_round_trip(self, prefix):
        assert Prefix.from_ipaddress(prefix.to_ipaddress()) == prefix

    @given(prefixes(min_length=1))
    def test_supernet_contains(self, prefix):
        assert prefix.supernet().contains(prefix)

    @given(prefixes(max_length=31))
    def test_subnets_partition(self, prefix):
        halves = list(prefix.subnets())
        assert len(halves) == 2
        assert halves[0].last_address + 1 == halves[1].first_address
        assert halves[0].first_address == prefix.first_address
        assert halves[1].last_address == prefix.last_address

    @given(prefixes(), prefixes())
    def test_contains_iff_range_nesting(self, outer, inner):
        by_range = (
            outer.first_address <= inner.first_address
            and inner.last_address <= outer.last_address
        )
        assert outer.contains(inner) == by_range

    @given(prefixes(), prefixes())
    def test_overlap_symmetric(self, left, right):
        assert left.overlaps(right) == right.overlaps(left)


class TestRangeDecompositionProperties:
    @given(addresses, addresses)
    @settings(max_examples=200)
    def test_exact_contiguous_cover(self, a, b):
        first, last = min(a, b), max(a, b)
        cover = list(range_to_prefixes(first, last))
        assert cover[0].first_address == first
        assert cover[-1].last_address == last
        for left, right in zip(cover, cover[1:]):
            assert left.last_address + 1 == right.first_address
        assert sum(p.num_addresses for p in cover) == last - first + 1

    @given(addresses, addresses)
    def test_matches_stdlib_summarization(self, a, b):
        first, last = min(a, b), max(a, b)
        ours = [p.to_ipaddress() for p in range_to_prefixes(first, last)]
        stdlib = list(
            ipaddress.summarize_address_range(
                ipaddress.IPv4Address(first), ipaddress.IPv4Address(last)
            )
        )
        assert ours == stdlib

    @given(st.lists(prefixes(min_length=8), max_size=20))
    def test_ranges_cover_all_inputs(self, input_prefixes):
        ranges = prefixes_to_ranges(input_prefixes)
        for prefix in input_prefixes:
            assert any(
                r.contains(AddressRange.from_prefix(prefix)) for r in ranges
            )
        # Merged ranges are disjoint and non-adjacent.
        for left, right in zip(ranges, ranges[1:]):
            assert left.last + 1 < right.first


class TestTrieProperties:
    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=40))
    def test_exact_agrees_with_dict(self, items):
        trie = PrefixTrie()
        model = {}
        for prefix, value in items:
            trie.insert(prefix, value)
            model[prefix] = value
        assert len(trie) == len(model)
        for prefix, value in model.items():
            assert trie.exact(prefix) == value

    @given(
        st.lists(prefixes(), min_size=1, max_size=30, unique=True),
        prefixes(),
    )
    def test_covering_agrees_with_bruteforce(self, stored, probe):
        trie = PrefixTrie()
        for index, prefix in enumerate(stored):
            trie.insert(prefix, index)
        expected = sorted(
            (p for p in stored if p.contains(probe)),
            key=lambda p: p.length,
        )
        got = [p for p, _v in trie.covering(probe)]
        assert got == expected

    @given(st.lists(prefixes(), min_size=1, max_size=30, unique=True))
    def test_roots_and_leaves_bruteforce(self, stored):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, None)
        expected_roots = {
            p
            for p in stored
            if not any(q != p and q.contains(p) for q in stored)
        }
        expected_leaves = {
            p
            for p in stored
            if not any(q != p and p.contains(q) for q in stored)
        }
        assert {p for p, _v in trie.roots()} == expected_roots
        assert {p for p, _v in trie.leaves()} == expected_leaves

    @given(st.lists(prefixes(), max_size=30, unique=True), prefixes())
    def test_covered_agrees_with_bruteforce(self, stored, probe):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, None)
        expected = {p for p in stored if probe.contains(p)}
        assert {p for p, _v in trie.covered(probe)} == expected


#: Addresses whose truncations nest densely, so random prefixes built
#: from them overlap often (the default route and both address-space
#: edges included).
_NESTING_BASES = (0, 0x0A000000, 0x0A0102FF, 0x0A01FF00, 0xC0000280, MAX_IPV4)


@st.composite
def nesting_prefixes(draw):
    length = draw(lengths)
    address = draw(st.sampled_from(_NESTING_BASES))
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
    return Prefix(address & mask, length)


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), nesting_prefixes(), st.integers(0, 9)),
        st.tuples(st.just("remove"), nesting_prefixes(), st.just(None)),
        st.tuples(st.just("query"), nesting_prefixes(), st.just(None)),
    ),
    max_size=60,
)


def _strictly_inside(inner, outer):
    return inner != outer and outer.contains(inner)


class TestTrieDifferential:
    """Interleaved mutations and queries against a brute-force model.

    Every query runs after arbitrary earlier inserts and removes, so a
    lazily rebuilt view (probe lengths, sorted keys) that went stale
    after a mutation shows up as a disagreement.
    """

    @staticmethod
    def _check_query(trie, model, probe):
        assert trie.exact(probe) == model.get(probe)
        assert trie.get(probe, "absent") == model.get(probe, "absent")
        assert (probe in trie) == (probe in model)
        chain = sorted(
            ((p, v) for p, v in model.items() if p.contains(probe)),
            key=lambda item: item[0].length,
        )
        assert trie.covering(probe) == chain
        assert trie.longest_match(probe) == (chain[-1] if chain else None)
        assert trie.least_specific_match(probe) == (chain[0] if chain else None)
        strict = [item for item in chain if item[0] != probe]
        assert trie.parent(probe) == (strict[-1] if strict else None)
        below = sorted((p, v) for p, v in model.items() if probe.contains(p))
        assert list(trie.covered(probe)) == below
        children = [
            (p, v)
            for p, v in below
            if p != probe
            and not any(
                _strictly_inside(p, q) and _strictly_inside(q, probe)
                for q in model
            )
        ]
        assert trie.children_of(probe) == children

    @staticmethod
    def _check_whole(trie, model):
        ordered = sorted(model.items())
        assert list(trie.items()) == ordered
        assert list(trie.keys()) == [p for p, _v in ordered]
        assert len(trie) == len(model)
        assert trie.roots() == [
            (p, v)
            for p, v in ordered
            if not any(_strictly_inside(p, q) for q in model)
        ]
        assert trie.leaves() == [
            (p, v)
            for p, v in ordered
            if not any(_strictly_inside(q, p) for q in model)
        ]

    @given(_operations)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_operations_match_model(self, operations):
        trie = PrefixTrie()
        model = {}
        for action, prefix, value in operations:
            if action == "insert":
                trie.insert(prefix, value)
                model[prefix] = value
            elif action == "remove":
                assert trie.remove(prefix) == (model.pop(prefix, None) is not None)
            else:
                self._check_query(trie, model, prefix)
            self._check_whole(trie, model)
