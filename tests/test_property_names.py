"""The indexed name-distinctness check against a brute-force difflib scan.

``NameForge._too_similar`` skips stems whose ``ratio()`` exact upper
bounds already fall below the threshold.  If a bound were wrong, the
check would accept a near-duplicate the brute-force scan rejects, the
RNG would draw differently from then on, and every written dump would
change.  The scan below is the oracle: the plain loop over the bucket.
"""

import difflib
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.names import (
    _LETTER_FIELD,
    _SYLLABLES,
    NameForge,
    _lcs_length,
    _letter_mask,
    _StemBucket,
)

LETTERS = sorted(_LETTER_FIELD)


def brute_force_too_similar(bucket, stem):
    """True when some stem in *bucket* has ratio() >= 0.8 against *stem*."""
    matcher = difflib.SequenceMatcher()
    matcher.set_seq2(stem)
    for used in bucket:
        matcher.set_seq1(used)
        if matcher.real_quick_ratio() < 0.8:
            continue
        if matcher.ratio() >= 0.8:
            return True
    return False


def lcs_table(left, right):
    """Textbook dynamic-programming longest common subsequence."""
    previous = [0] * (len(right) + 1)
    for char in left:
        current = [0]
        for column, other in enumerate(right):
            if char == other:
                current.append(previous[column] + 1)
            else:
                current.append(max(previous[column + 1], current[column]))
        previous = current
    return previous[-1]


def syllable_stem(first):
    """A stem as ``NameForge.company`` draws it: three syllables."""
    return st.tuples(st.sampled_from(_SYLLABLES), st.sampled_from(_SYLLABLES)).map(
        lambda rest: first + rest[0] + rest[1]
    )


@st.composite
def near_duplicate(draw, stem):
    """*stem* with one letter replaced, dropped, doubled, or two swapped."""
    index = draw(st.integers(min_value=0, max_value=len(stem) - 1))
    edit = draw(st.sampled_from(["replace", "drop", "double", "swap"]))
    if edit == "replace":
        letter = draw(st.sampled_from(LETTERS))
        return stem[:index] + letter + stem[index + 1 :]
    if edit == "drop" and len(stem) > 1:
        return stem[:index] + stem[index + 1 :]
    if edit == "swap" and index + 1 < len(stem):
        return stem[:index] + stem[index + 1] + stem[index] + stem[index + 2 :]
    return stem[:index] + stem[index] + stem[index:]


@st.composite
def bucket_and_queries(draw):
    first = draw(st.sampled_from(_SYLLABLES))
    bucket = draw(st.lists(syllable_stem(first), max_size=40))
    queries = draw(st.lists(syllable_stem(first), min_size=1, max_size=10))
    for used in bucket[:10]:
        queries.append(draw(near_duplicate(used)))
    return first, bucket, queries


class TestTooSimilarIndex:
    @settings(max_examples=80, deadline=None)
    @given(bucket_and_queries())
    def test_matches_brute_force_scan(self, drawn):
        first, bucket, queries = drawn
        forge = NameForge(random.Random(0))
        if bucket:
            forge._stem_buckets[first] = _StemBucket()
            for used in bucket:
                forge._stem_buckets[first].add(used)
        for query in queries:
            expected = brute_force_too_similar(bucket, query)
            assert forge._too_similar(first, query.capitalize()) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet=LETTERS, min_size=1, max_size=18),
        st.text(alphabet=LETTERS, min_size=1, max_size=18),
    )
    def test_bounds_order_on_difflib_matches(self, left, right):
        """matches <= LCS <= multiset intersection, each computed exactly."""
        matcher = difflib.SequenceMatcher(None, left, right)
        matched = sum(block.size for block in matcher.get_matching_blocks())
        length = _lcs_length(left, right)
        common = bin(_letter_mask(left) & _letter_mask(right)).count("1")
        assert length == lcs_table(left, right)
        assert common == sum((Counter(left) & Counter(right)).values())
        assert matched <= length <= common <= min(len(left), len(right))

    def test_generated_names_unchanged_by_index(self):
        """A forge run with the brute-force check draws the same names."""
        indexed = NameForge(random.Random(11))
        names = [indexed.company() for _ in range(400)]

        class BruteForge(NameForge):
            def _too_similar(self, first, stem):
                bucket = self._stem_buckets.get(first)
                groups = bucket.by_length.values() if bucket is not None else []
                stems = [used for _masks, group in groups for used in group]
                return brute_force_too_similar(stems, stem.lower())

        brute = BruteForge(random.Random(11))
        assert [brute.company() for _ in range(400)] == names
