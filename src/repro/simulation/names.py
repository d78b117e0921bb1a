"""Deterministic company-name generation and messy-spelling variants.

The broker-matching evaluation (§6.2) depends on realistic name noise:
legal-suffix variations (LTD vs L.T.D.), abbreviations, and fictitious
business names.  The generator produces stable names from a seeded RNG
and can derive the imperfect spellings a broker list would carry.
"""

from __future__ import annotations

import difflib
import random
import sys
from itertools import compress
from typing import Dict, List, Set, Tuple

__all__ = ["NameForge"]

_SYLLABLES = [
    "net", "tele", "data", "link", "wave", "core", "peer", "route", "host",
    "cloud", "fiber", "giga", "terra", "nova", "alto", "vertex", "prime",
    "apex", "omni", "sono", "luma", "zen", "arc", "volt", "hex", "mira",
    "bel", "cor", "dux", "ek", "fen", "gor", "hul", "iv", "jar", "kel",
    "lor", "mak", "nim", "oz", "pil", "quor", "rud", "sel", "tov", "ul",
    "vex", "wix", "yar", "zul", "bran", "crest", "dell", "ford", "glen",
    "hart", "isle", "knoll", "lake", "mead", "north", "oak",
]
_SECOND = [
    "com", "networks", "systems", "online", "connect", "digital",
    "telecom", "internet", "solutions", "group", "media", "labs",
]
_SUFFIXES = ["Ltd", "LLC", "Inc", "GmbH", "B.V.", "AB", "SA", "Pte. Ltd.",
             "S.R.L.", "Kft", "FZCO", "PLC"]

#: Bits per letter in a letter mask: a three-syllable stem cannot hold
#: more copies of one letter than it has letters.
_FIELD_BITS = 3 * max(len(syllable) for syllable in _SYLLABLES)

#: Lowest bit of each letter's field in a letter mask.
_LETTER_FIELD = {
    letter: _FIELD_BITS * index
    for index, letter in enumerate(sorted(set("".join(_SYLLABLES))))
}

#: difflib ratio at or above which two stems count as the same company.
_SIMILAR = 0.8

if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:

    def _popcount(value: int) -> int:
        return bin(value).count("1")


def _letter_mask(stem: str) -> int:
    """The letter multiset of the lower-case *stem*, in unary.

    Each letter owns a field of ``_FIELD_BITS`` bits and its k-th copy
    sets bit k of it, so the size of the multiset intersection of two
    stems is the number of bits set in the AND of their masks.
    """
    mask = 0
    for letter in stem:
        field = _LETTER_FIELD[letter]
        copies = (mask >> field) & ((1 << _FIELD_BITS) - 1)
        mask |= 1 << (field + copies.bit_length())
    return mask


def _matches_needed(total: int) -> int:
    """Fewest matching characters at which ``ratio()`` reaches ``_SIMILAR``.

    ``ratio()`` is ``2.0 * matches / total``, which never falls as
    ``matches`` grows: fewer matches than this is below the threshold.
    """
    needed = 0
    while 2.0 * needed / total < _SIMILAR:
        needed += 1
    return needed


def _lcs_length(text: str, other: str) -> int:
    """Length of the longest common subsequence of *text* and *other*.

    Bit-parallel (Allison–Dix): bit *i* of ``row`` tracks position *i*
    of *text*, and each character of *other* updates all of them in a
    few integer operations.
    """
    positions: Dict[str, int] = {}
    for index, letter in enumerate(text):
        positions[letter] = positions.get(letter, 0) | 1 << index
    full = (1 << len(text)) - 1
    row = full
    for letter in other:
        matched = row & positions.get(letter, 0)
        row = ((row + matched) | (row - matched)) & full
    return len(text) - _popcount(row)


class _StemBucket:
    """The stems sharing one first syllable, grouped by length.

    Each group keeps its stems' letter masks in a list beside the stems,
    so the multiset bound below runs over a whole group in C (``map``)
    rather than one Python-level step per stem.
    """

    __slots__ = ("by_length",)

    def __init__(self) -> None:
        self.by_length: Dict[int, Tuple[List[int], List[str]]] = {}

    def add(self, stem: str) -> None:
        masks, stems = self.by_length.setdefault(len(stem), ([], []))
        masks.append(_letter_mask(stem))
        stems.append(stem)

    def similar(self, stem: str) -> bool:
        """True when some stem here has ``ratio()`` ≥ ``_SIMILAR`` to *stem*.

        ``ratio()`` counts difflib's matching characters, and each bound
        below is a count no smaller, so a stem whose bound falls short
        of ``_matches_needed`` is below the threshold for certain:

        1. ``real_quick_ratio``: the shorter length, once per length;
        2. ``quick_ratio``: the letter-multiset intersection;
        3. the longest common subsequence: difflib's matching blocks
           are disjoint and in order in both strings, so they form one.

        Only stems that pass all three get the real ``ratio()``.
        """
        mask = _letter_mask(stem)
        for length, (masks, stems) in self.by_length.items():
            needed = _matches_needed(length + len(stem))
            if min(length, len(stem)) < needed:
                continue
            common = map(_popcount, map(mask.__and__, masks))
            for other in compress(stems, map(needed.__le__, common)):
                if _lcs_length(other, stem) < needed:
                    continue
                if difflib.SequenceMatcher(None, other, stem).ratio() >= _SIMILAR:
                    return True
        return False


class NameForge:
    """Seeded generator of unique company names and their noisy variants."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: Set[str] = set()
        #: Stems bucketed by first syllable: the fuzzy-distinctness check
        #: only compares within a bucket.  A check costs a few integer
        #: operations per stem in the bucket, and ``ratio()`` only for
        #: the few stems the exact bounds cannot rule out
        #: (``_StemBucket.similar``).  Generation is still quadratic in
        #: principle, but a bucket holds distinct stems only, so never
        #: more than the 62² syllable pairs.
        self._stem_buckets: Dict[str, _StemBucket] = {}

    def company(self, with_suffix: bool = True) -> str:
        """A fresh, unique company name like ``Novacom Networks Ltd``.

        Name *stems* are globally unique and kept fuzzily distinct so the
        §5.3 broker matching cannot accidentally join two unrelated
        companies — real company names collide far less than random
        syllables would.
        """
        for _attempt in range(5000):
            first = self._rng.choice(_SYLLABLES)
            stem = (
                first.capitalize()
                + self._rng.choice(_SYLLABLES)
                + self._rng.choice(_SYLLABLES)
            )
            core = f"{stem} {self._rng.choice(_SECOND).capitalize()}"
            if core in self._used or self._too_similar(first, stem):
                continue
            self._used.add(core)
            bucket = self._stem_buckets.get(first)
            if bucket is None:
                bucket = self._stem_buckets[first] = _StemBucket()
            bucket.add(stem.lower())
            if with_suffix:
                return f"{core} {self._rng.choice(_SUFFIXES)}"
            return core
        raise RuntimeError("name space exhausted")  # pragma: no cover

    def _too_similar(self, first: str, stem: str) -> bool:
        """True when another stem with the same leading syllable is close.

        Stems starting with different syllables already differ enough for
        the matcher's threshold, so only the shared-prefix bucket needs a
        real similarity check.  The bucket's bounds only skip stems whose
        ``ratio()`` is certainly below the threshold, so the answer is
        the one a ``ratio()`` against every stem in the bucket gives.
        """
        bucket = self._stem_buckets.get(first)
        return bucket is not None and bucket.similar(stem.lower())

    def messy_variant(self, name: str) -> str:
        """A plausible alternative spelling of *name*.

        Applies one of the §6.2 inconsistency classes: dotted or swapped
        legal suffix, upper-casing, or suffix removal.  The variant still
        normalizes to the same canonical form in most cases — matching the
        paper's 39-of-115 manual matches.
        """
        choice = self._rng.randrange(4)
        if choice == 0:
            return _dotted_suffix(name)
        if choice == 1:
            return name.upper()
        if choice == 2:
            return _swap_suffix(name, self._rng)
        return _strip_suffix(name)


def _strip_suffix(name: str) -> str:
    tokens = name.split()
    if len(tokens) > 1:
        return " ".join(tokens[:-1])
    return name


def _swap_suffix(name: str, rng: random.Random) -> str:
    return f"{_strip_suffix(name)} {rng.choice(_SUFFIXES)}"


def _dotted_suffix(name: str) -> str:
    tokens = name.split()
    last = tokens[-1].replace(".", "")
    if last.isalpha() and len(last) <= 4:
        tokens[-1] = ".".join(last) + "."
        return " ".join(tokens)
    return name


def org_handle(rir_tag: str, index: int) -> str:
    """A registry-style organisation handle, e.g. ``ORG-RIPE-0042``."""
    return f"ORG-{rir_tag}-{index:04d}"


def maintainer_handle(name: str, index: int) -> str:
    """A maintainer handle derived from a company name."""
    stem = "".join(ch for ch in name.upper() if ch.isalpha())[:8]
    return f"{stem or 'MNT'}{index:03d}-MNT"
