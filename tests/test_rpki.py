"""Unit tests for the RPKI substrate."""

import pytest

from repro.net import Prefix
from repro.rpki import (
    AS0,
    ROA,
    RoaSet,
    RpkiArchive,
    ValidationState,
    validate_origin,
)


class TestROA:
    def test_effective_max_length_defaults(self):
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500)
        assert roa.effective_max_length == 16

    def test_max_length_validation(self):
        with pytest.raises(ValueError):
            ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=1, max_length=8)
        with pytest.raises(ValueError):
            ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=1, max_length=33)

    def test_authorizes_exact(self):
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500)
        assert roa.authorizes(Prefix.parse("10.0.0.0/16"), 64500)
        assert not roa.authorizes(Prefix.parse("10.0.0.0/16"), 64501)

    def test_authorizes_up_to_max_length(self):
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500, max_length=24)
        assert roa.authorizes(Prefix.parse("10.0.5.0/24"), 64500)
        assert not roa.authorizes(Prefix.parse("10.0.5.0/25"), 64500)

    def test_as0_authorizes_nothing(self):
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=AS0)
        assert roa.is_as0
        assert not roa.authorizes(Prefix.parse("10.0.0.0/16"), 0)

    def test_csv_round_trip(self):
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500, max_length=24)
        assert ROA.from_csv_row(roa.to_csv_row()) == roa

    def test_csv_without_as_prefix(self):
        roa = ROA.from_csv_row("64500,10.0.0.0/16,16")
        assert roa.asn == 64500


class TestRoaSet:
    @pytest.fixture
    def roas(self):
        return RoaSet(
            [
                ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500, max_length=24),
                ROA(prefix=Prefix.parse("10.0.5.0/24"), asn=64501),
                ROA(prefix=Prefix.parse("192.0.2.0/24"), asn=AS0),
            ]
        )

    def test_covering_ordered(self, roas):
        covering = roas.covering(Prefix.parse("10.0.5.0/24"))
        assert [roa.asn for roa in covering] == [64500, 64501]

    def test_exact(self, roas):
        assert len(roas.exact(Prefix.parse("10.0.5.0/24"))) == 1
        assert roas.exact(Prefix.parse("10.0.6.0/24")) == []

    def test_authorized_origins(self, roas):
        assert roas.authorized_origins(Prefix.parse("10.0.5.0/24")) == {
            64500,
            64501,
        }

    def test_has_as0(self, roas):
        assert roas.has_as0(Prefix.parse("192.0.2.0/25"))
        assert not roas.has_as0(Prefix.parse("10.0.0.0/16"))

    def test_add_idempotent(self, roas):
        roa = ROA(prefix=Prefix.parse("10.0.5.0/24"), asn=64501)
        roas.add(roa)
        assert len(roas) == 3

    def test_remove(self, roas):
        roa = ROA(prefix=Prefix.parse("10.0.5.0/24"), asn=64501)
        assert roas.remove(roa)
        assert not roas.remove(roa)
        assert roas.authorized_origins(Prefix.parse("10.0.5.0/24")) == {64500}

    def test_remove_last_roa_drops_its_prefix(self, roas):
        lone = ROA(prefix=Prefix.parse("10.0.5.0/24"), asn=64501)
        assert len(roas._trie) == 3
        assert roas.remove(lone)
        assert len(roas._trie) == 2
        assert Prefix.parse("10.0.5.0/24") not in roas._trie
        assert roas.exact(Prefix.parse("10.0.5.0/24")) == []
        roas.add(lone)
        assert roas.exact(Prefix.parse("10.0.5.0/24")) == [lone]

    def test_csv_round_trip(self, roas):
        reloaded = RoaSet.from_csv(roas.to_csv())
        assert sorted(reloaded) == sorted(roas)


class TestValidation:
    @pytest.fixture
    def roas(self):
        return RoaSet(
            [
                ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=64500, max_length=20),
                ROA(prefix=Prefix.parse("192.0.2.0/24"), asn=AS0),
            ]
        )

    def test_valid(self, roas):
        assert (
            validate_origin(roas, Prefix.parse("10.0.0.0/16"), 64500)
            is ValidationState.VALID
        )

    def test_invalid_wrong_origin(self, roas):
        assert (
            validate_origin(roas, Prefix.parse("10.0.0.0/16"), 64999)
            is ValidationState.INVALID
        )

    def test_invalid_too_specific(self, roas):
        assert (
            validate_origin(roas, Prefix.parse("10.0.0.0/24"), 64500)
            is ValidationState.INVALID
        )

    def test_not_found(self, roas):
        assert (
            validate_origin(roas, Prefix.parse("203.0.113.0/24"), 1)
            is ValidationState.NOT_FOUND
        )

    def test_as0_makes_everything_invalid(self, roas):
        assert (
            validate_origin(roas, Prefix.parse("192.0.2.0/24"), 64500)
            is ValidationState.INVALID
        )
        assert (
            validate_origin(roas, Prefix.parse("192.0.2.0/24"), 0)
            is ValidationState.INVALID
        )


class TestRpkiArchive:
    @pytest.fixture
    def archive(self):
        archive = RpkiArchive()
        prefix = Prefix.parse("213.210.33.0/24")
        archive.add_snapshot(
            1000, RoaSet([ROA(prefix=prefix, asn=834)])
        )
        archive.add_snapshot(2000, RoaSet([ROA(prefix=prefix, asn=AS0)]))
        archive.add_snapshot(3000, RoaSet([ROA(prefix=prefix, asn=AS0)]))
        archive.add_snapshot(4000, RoaSet([ROA(prefix=prefix, asn=8100)]))
        return archive

    def test_snapshot_at(self, archive):
        assert archive.snapshot_at(999) is None
        snapshot = archive.snapshot_at(2500)
        assert snapshot.has_as0(Prefix.parse("213.210.33.0/24"))

    def test_latest(self, archive):
        origins = archive.latest().authorized_origins(
            Prefix.parse("213.210.33.0/24")
        )
        assert origins == {8100}

    def test_history_length(self, archive):
        history = archive.authorized_origin_history(
            Prefix.parse("213.210.33.0/24")
        )
        assert len(history) == 4

    def test_change_points_collapse_repeats(self, archive):
        changes = archive.change_points(Prefix.parse("213.210.33.0/24"))
        assert [ts for ts, _ in changes] == [1000, 2000, 4000]
        assert changes[1][1] == {AS0}

    def test_out_of_order_insertion(self):
        archive = RpkiArchive()
        archive.add_snapshot(2000, RoaSet())
        archive.add_snapshot(1000, RoaSet())
        assert archive.timestamps() == [1000, 2000]

    def test_replace_snapshot(self):
        archive = RpkiArchive()
        archive.add_snapshot(1000, RoaSet())
        roa = ROA(prefix=Prefix.parse("10.0.0.0/16"), asn=1)
        archive.add_snapshot(1000, RoaSet([roa]))
        assert len(archive) == 1
        assert roa in archive.snapshot_at(1000)
