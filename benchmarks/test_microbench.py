"""Engineering micro-benches for the hot substrate paths.

These document the throughput of the primitives the pipeline leans on:
prefix-map construction and lookups (``PrefixTrie``: a packed-key dict
probed once per stored length), range→CIDR decomposition, RPSL parsing,
and Gao-Rexford propagation.
"""

import random

from repro.asdata import ASRelationships
from repro.bgp import ASTopology, propagate
from repro.net import Prefix, PrefixTrie, range_to_prefixes
from repro.whois import parse_rpsl


def make_prefixes(count=20_000, seed=5):
    rng = random.Random(seed)
    prefixes = []
    for _index in range(count):
        length = rng.choice((16, 20, 22, 24))
        network = rng.getrandbits(32)
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        prefixes.append(Prefix(network & mask, length))
    return prefixes


def test_trie_insert_throughput(benchmark):
    prefixes = make_prefixes()

    def build():
        trie = PrefixTrie()
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        return trie

    trie = benchmark(build)
    assert len(trie) > 10_000


def test_trie_covering_lookup_throughput(benchmark):
    prefixes = make_prefixes()
    trie = PrefixTrie()
    for index, prefix in enumerate(prefixes):
        trie.insert(prefix, index)
    probes = make_prefixes(count=5_000, seed=9)

    def lookups():
        hits = 0
        for probe in probes:
            if trie.covering(probe):
                hits += 1
        return hits

    hits = benchmark(lookups)
    assert 0 <= hits <= len(probes)


def test_range_decomposition_throughput(benchmark):
    rng = random.Random(3)
    ranges = []
    for _index in range(2_000):
        first = rng.getrandbits(32)
        last = min(0xFFFFFFFF, first + rng.getrandbits(16))
        ranges.append((first, last))

    def decompose():
        total = 0
        for first, last in ranges:
            total += len(list(range_to_prefixes(first, last)))
        return total

    total = benchmark(decompose)
    assert total >= len(ranges)


def test_rpsl_parse_throughput(benchmark):
    block = (
        "inetnum:        10.{a}.{b}.0 - 10.{a}.{b}.255\n"
        "netname:        NET-{a}-{b}\n"
        "country:        DE\n"
        "org:            ORG-{a}-RIPE\n"
        "status:         ASSIGNED PA\n"
        "mnt-by:         M{a}-MNT\n"
        "source:         RIPE\n\n"
    )
    text = "".join(
        block.format(a=a, b=b) for a in range(40) for b in range(50)
    )

    def parse():
        return sum(1 for _obj in parse_rpsl(text))

    count = benchmark(parse)
    assert count == 2_000


def test_propagation_throughput(benchmark):
    # A 3-tier topology with ~1.2k ASes.
    topology = ASTopology()
    rng = random.Random(4)
    tier1 = list(range(1, 6))
    for index, left in enumerate(tier1):
        for right in tier1[index + 1 :]:
            topology.add_p2p(left, right)
    tier2 = list(range(10, 70))
    for asn in tier2:
        for provider in rng.sample(tier1, 2):
            topology.add_p2c(provider, asn)
    edge = list(range(100, 1_300))
    for asn in edge:
        topology.add_p2c(rng.choice(tier2), asn)

    origins = rng.sample(edge, 50)

    def run():
        reached = 0
        for origin in origins:
            reached += len(propagate(topology, origin))
        return reached

    reached = benchmark(run)
    # Everyone reaches everyone on a connected topology.
    assert reached == len(origins) * len(topology)


def test_relationships_from_topology_throughput(benchmark):
    topology = ASTopology()
    rng = random.Random(6)
    for asn in range(2, 3_000):
        topology.add_p2c(rng.randrange(1, asn), asn)

    dataset = benchmark(ASRelationships.from_topology, topology)
    assert dataset.num_edges() == 2_998
