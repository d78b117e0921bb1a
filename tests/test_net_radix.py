"""Unit tests for repro.net.radix.PrefixTrie."""

import pytest

from repro.net import Prefix, PrefixTrie


@pytest.fixture
def small_trie():
    trie = PrefixTrie()
    trie.insert(Prefix.parse("10.0.0.0/8"), "root8")
    trie.insert(Prefix.parse("10.1.0.0/16"), "mid16")
    trie.insert(Prefix.parse("10.1.2.0/24"), "leaf24")
    trie.insert(Prefix.parse("192.168.0.0/16"), "island")
    return trie


class TestInsertAndExact:
    def test_len(self, small_trie):
        assert len(small_trie) == 4

    def test_exact_hit(self, small_trie):
        assert small_trie.exact(Prefix.parse("10.1.0.0/16")) == "mid16"

    def test_exact_miss_more_specific(self, small_trie):
        assert small_trie.exact(Prefix.parse("10.1.0.0/17")) is None

    def test_exact_miss_less_specific(self, small_trie):
        assert small_trie.exact(Prefix.parse("10.0.0.0/7")) is None

    def test_contains(self, small_trie):
        assert Prefix.parse("10.1.2.0/24") in small_trie
        assert Prefix.parse("10.1.3.0/24") not in small_trie

    def test_get_default(self, small_trie):
        assert small_trie.get(Prefix.parse("10.9.9.0/24"), "dflt") == "dflt"

    def test_insert_replaces(self, small_trie):
        small_trie.insert(Prefix.parse("10.1.0.0/16"), "new")
        assert small_trie.exact(Prefix.parse("10.1.0.0/16")) == "new"
        assert len(small_trie) == 4

    def test_default_route_storable(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("0.0.0.0/0"), "default")
        assert trie.exact(Prefix.parse("0.0.0.0/0")) == "default"
        assert trie.longest_match(Prefix.parse("203.0.113.0/24")) is not None

    def test_remove(self, small_trie):
        assert small_trie.remove(Prefix.parse("10.1.0.0/16"))
        assert small_trie.exact(Prefix.parse("10.1.0.0/16")) is None
        assert len(small_trie) == 3
        assert not small_trie.remove(Prefix.parse("10.1.0.0/16"))


class TestCoveringLookups:
    def test_covering_chain_order(self, small_trie):
        chain = small_trie.covering(Prefix.parse("10.1.2.0/25"))
        assert [value for _prefix, value in chain] == [
            "root8",
            "mid16",
            "leaf24",
        ]

    def test_covering_includes_equal(self, small_trie):
        chain = small_trie.covering(Prefix.parse("10.1.2.0/24"))
        assert chain[-1][1] == "leaf24"

    def test_longest_match(self, small_trie):
        hit = small_trie.longest_match(Prefix.parse("10.1.2.128/25"))
        assert hit is not None and hit[1] == "leaf24"

    def test_longest_match_falls_back(self, small_trie):
        hit = small_trie.longest_match(Prefix.parse("10.200.0.0/24"))
        assert hit is not None and hit[1] == "root8"

    def test_longest_match_miss(self, small_trie):
        assert small_trie.longest_match(Prefix.parse("203.0.113.0/24")) is None

    def test_least_specific_match(self, small_trie):
        hit = small_trie.least_specific_match(Prefix.parse("10.1.2.0/26"))
        assert hit is not None and hit[1] == "root8"

    def test_parent_skips_self(self, small_trie):
        hit = small_trie.parent(Prefix.parse("10.1.2.0/24"))
        assert hit is not None and hit[1] == "mid16"

    def test_parent_of_root_is_none(self, small_trie):
        assert small_trie.parent(Prefix.parse("10.0.0.0/8")) is None


class TestSubtreeQueries:
    def test_covered(self, small_trie):
        values = {v for _p, v in small_trie.covered(Prefix.parse("10.0.0.0/8"))}
        assert values == {"root8", "mid16", "leaf24"}

    def test_covered_excludes_outside(self, small_trie):
        values = {v for _p, v in small_trie.covered(Prefix.parse("10.1.0.0/16"))}
        assert values == {"mid16", "leaf24"}

    def test_children_of_skips_grandchildren(self, small_trie):
        children = small_trie.children_of(Prefix.parse("10.0.0.0/8"))
        assert [v for _p, v in children] == ["mid16"]

    def test_children_of_multiple(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "r")
        trie.insert(Prefix.parse("10.0.0.0/16"), "a")
        trie.insert(Prefix.parse("10.1.0.0/16"), "b")
        names = [v for _p, v in trie.children_of(Prefix.parse("10.0.0.0/8"))]
        assert names == ["a", "b"]

    def test_items_count(self, small_trie):
        assert len(list(small_trie.items())) == 4


class TestStructuralRoles:
    def test_roots(self, small_trie):
        values = [v for _p, v in small_trie.roots()]
        assert values == ["root8", "island"]

    def test_leaves(self, small_trie):
        values = sorted(v for _p, v in small_trie.leaves())
        assert values == ["island", "leaf24"]

    def test_root_that_is_also_leaf(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("203.0.113.0/24"), "solo")
        assert [v for _p, v in trie.roots()] == ["solo"]
        assert [v for _p, v in trie.leaves()] == ["solo"]

    def test_intermediate_not_root_nor_leaf(self, small_trie):
        roots = {v for _p, v in small_trie.roots()}
        leaves = {v for _p, v in small_trie.leaves()}
        assert "mid16" not in roots and "mid16" not in leaves

    def test_from_items(self):
        trie = PrefixTrie.from_items(
            [(Prefix.parse("10.0.0.0/8"), 1), (Prefix.parse("11.0.0.0/8"), 2)]
        )
        assert len(trie) == 2
        assert trie.to_dict()[Prefix.parse("11.0.0.0/8")] == 2


class TestRemovalAndPruning:
    """LPM correctness after interior removal/replacement (satellite fix)."""

    def test_lpm_falls_back_after_interior_removal(self, small_trie):
        assert small_trie.remove(Prefix.parse("10.1.0.0/16"))
        hit = small_trie.longest_match(Prefix.parse("10.1.3.0/24"))
        assert hit == (Prefix.parse("10.0.0.0/8"), "root8")

    def test_children_survive_interior_removal(self, small_trie):
        small_trie.remove(Prefix.parse("10.1.0.0/16"))
        assert small_trie.exact(Prefix.parse("10.1.2.0/24")) == "leaf24"
        hit = small_trie.longest_match(Prefix.parse("10.1.2.0/25"))
        assert hit == (Prefix.parse("10.1.2.0/24"), "leaf24")

    def test_lpm_after_interior_replacement(self, small_trie):
        small_trie.insert(Prefix.parse("10.1.0.0/16"), "replacement")
        hit = small_trie.longest_match(Prefix.parse("10.1.3.0/24"))
        assert hit == (Prefix.parse("10.1.0.0/16"), "replacement")
        assert len(small_trie) == 4

    @staticmethod
    def _storage(trie):
        """Sizes of the internal entry map and per-length count table."""
        return len(trie._entries), len(trie._length_counts)

    def test_leaf_removal_prunes_dangling_branch(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "root")
        baseline = self._storage(trie)
        trie.insert(Prefix.parse("10.255.255.0/24"), "deep")
        assert self._storage(trie) == (baseline[0] + 1, baseline[1] + 1)
        assert len(trie.covering(Prefix.parse("10.255.255.0/24"))) == 2
        assert trie.remove(Prefix.parse("10.255.255.0/24"))
        assert self._storage(trie) == baseline
        # The vanished length no longer costs a covering probe.
        assert trie.covering(Prefix.parse("10.255.255.0/24")) == [
            (Prefix.parse("10.0.0.0/8"), "root")
        ]
        assert [length for length, _mask in trie._probe_table()] == [8]

    def test_repeated_cycles_do_not_grow_the_trie(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "root")
        baseline = self._storage(trie)
        for _ in range(5):
            trie.insert(Prefix.parse("10.255.255.0/24"), "deep")
            trie.remove(Prefix.parse("10.255.255.0/24"))
        assert self._storage(trie) == baseline
        assert [p for p, _v in trie.items()] == [Prefix.parse("10.0.0.0/8")]

    def test_removal_keeps_branch_with_valued_descendant(self, small_trie):
        small_trie.remove(Prefix.parse("10.1.0.0/16"))
        assert sorted(v for _p, v in small_trie.items()) == [
            "island",
            "leaf24",
            "root8",
        ]

    def test_insert_after_remove_round_trip(self):
        trie = PrefixTrie()
        prefix = Prefix.parse("192.0.2.0/24")
        for cycle in range(3):
            trie.insert(prefix, cycle)
            assert trie.exact(prefix) == cycle
            assert trie.remove(prefix)
            assert len(trie) == 0
            assert trie.longest_match(prefix) is None

    def test_remove_root_of_chain(self, small_trie):
        assert small_trie.remove(Prefix.parse("10.0.0.0/8"))
        hit = small_trie.longest_match(Prefix.parse("10.1.2.0/25"))
        assert hit == (Prefix.parse("10.1.2.0/24"), "leaf24")
        assert small_trie.longest_match(Prefix.parse("10.2.0.0/16")) is None


class TestResolveCoveringChain:
    def test_exact_match_is_best(self, small_trie):
        from repro.net import resolve_covering_chain

        best, chain = resolve_covering_chain(
            small_trie, Prefix.parse("10.1.2.0/24")
        )
        assert best == (Prefix.parse("10.1.2.0/24"), "leaf24")
        assert [v for _p, v in chain] == ["root8", "mid16", "leaf24"]

    def test_longest_prefix_is_best(self, small_trie):
        from repro.net import resolve_covering_chain

        best, chain = resolve_covering_chain(
            small_trie, Prefix.parse("10.1.2.0/26")
        )
        assert best == (Prefix.parse("10.1.2.0/24"), "leaf24")
        assert len(chain) == 3

    def test_miss(self, small_trie):
        from repro.net import resolve_covering_chain

        best, chain = resolve_covering_chain(
            small_trie, Prefix.parse("172.16.0.0/16")
        )
        assert best is None
        assert chain == []
