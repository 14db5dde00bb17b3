"""The decode-and-classify read path: damage tolerance and memo caches.

The read-path overhaul (buffered MRT reader, attribute-bytes memo,
NLRI/address interning) must be a pure optimization: identical decoded
values, identical classification, damage handled exactly as before —
plus the new guarantees pinned here: tolerant-mode drops are counted
and surfaced, the BGP4MP_ET empty-body case is damage (not a decode
attempt), and every cache is bounded.
"""

import dataclasses
import io
import json
import struct

import pytest

from repro.analysis.classify import UpdateClassifier
from repro.bgp import wire
from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet
from repro.bgp.attributes import PathAttributes
from repro.bgp.message import UpdateMessage
from repro.mrt import records as mrt_records
from repro.mrt.reader import MRTReader
from repro.mrt.records import Bgp4mpMessage, MRTError
from repro.mrt.writer import dump_records
from repro.netbase import prefix as prefix_module
from repro.netbase.memo import set_memo_enabled
from repro.netbase.prefix import Prefix
from repro.pipeline import replay_mrt
from repro.scenarios import (
    get_scenario,
    result_from_json,
    result_to_json,
    run_scenario,
)


def update(path="20205 3356 174 12654", prefix="84.205.64.0/24",
           communities="3356:300"):
    return UpdateMessage.announce(
        Prefix(prefix),
        PathAttributes(
            as_path=ASPath.from_string(path),
            next_hop="10.0.0.1",
            communities=CommunitySet.parse(communities),
        ),
    )


def record(timestamp=1584230400.25, message=None, peer_asn=20205):
    return Bgp4mpMessage(
        timestamp=timestamp,
        peer_asn=peer_asn,
        local_asn=12456,
        peer_address="192.0.2.2",
        local_address="192.0.2.1",
        message=message or update(),
    )


@pytest.fixture
def all_memos_on():
    """Reset every decode memo before and after (tests mutate them)."""
    set_memo_enabled(True)
    yield
    set_memo_enabled(True)


def et_record_bytes(length: int, subtype: int = 4) -> bytes:
    """A raw BGP4MP_ET record with the given body *length* claim."""
    body = struct.pack("!I", 123456) + b"\x00" * (length - 4)
    return struct.pack("!IHHI", 1584230400, 17, subtype, length) + body


# ----------------------------------------------------------------------
# BGP4MP_ET empty-body guard
# ----------------------------------------------------------------------
class TestEtEmptyBodyGuard:
    def test_strict_mode_raises(self):
        with pytest.raises(MRTError, match="BGP4MP_ET record too short"):
            list(MRTReader(io.BytesIO(et_record_bytes(4))))

    def test_tolerant_mode_counts_one_error(self):
        reader = MRTReader(io.BytesIO(et_record_bytes(4)), tolerant=True)
        assert list(reader) == []
        assert reader.error_records == 1
        assert reader.skipped_records == 0

    def test_non_message_subtype_is_damage_not_skip(self):
        # length == 4 leaves no body at all, so even a STATE_CHANGE
        # subtype cannot be interpreted; it is damage, not a skip.
        reader = MRTReader(
            io.BytesIO(et_record_bytes(4, subtype=0)), tolerant=True
        )
        assert list(reader) == []
        assert reader.error_records == 1

    def test_damage_is_recoverable_midstream(self):
        # The length framing is intact, so the record after the
        # degenerate one must still decode.
        data = et_record_bytes(4) + dump_records([record()])
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1


# ----------------------------------------------------------------------
# tolerant-mode mid-stream damage
# ----------------------------------------------------------------------
class TestTolerantMidStream:
    def test_truncated_header_after_good_record(self):
        good = dump_records([record()])
        data = good + good[:7]  # 7 bytes of a second header
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_truncated_body_after_good_record(self):
        good = dump_records([record()])
        second = dump_records([record(timestamp=1584230401.5)])
        data = good + second[: len(second) - 9]
        reader = MRTReader(io.BytesIO(data), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_damaged_record_between_two_good_ones(self):
        first = dump_records([record(timestamp=1584230400.0)])
        middle = bytearray(dump_records([record(timestamp=1584230401.0)]))
        # Corrupt the BGP marker inside the middle record's message:
        # 16-byte ET header + 20-byte IPv4 AS4 envelope = offset 36.
        middle[36] = 0x00
        last = dump_records([record(timestamp=1584230402.0)])
        reader = MRTReader(
            io.BytesIO(first + bytes(middle) + last), tolerant=True
        )
        yielded = list(reader)
        assert [r.timestamp for r in yielded] == [
            1584230400.0, 1584230402.0,
        ]
        assert reader.error_records == 1
        assert reader.skipped_records == 0

    def test_strict_mode_still_raises_between_good_ones(self):
        first = dump_records([record(timestamp=1584230400.0)])
        middle = bytearray(dump_records([record(timestamp=1584230401.0)]))
        middle[36] = 0x00
        with pytest.raises(MRTError):
            list(MRTReader(io.BytesIO(first + bytes(middle))))

    def test_large_archive_spans_read_chunks(self):
        # > 64 KiB so the buffered reader refills and compacts; every
        # record must survive the chunk boundaries byte-exactly.
        originals = [
            record(timestamp=1584230400.0 + i, peer_asn=20205 + (i % 7))
            for i in range(1500)
        ]
        data = dump_records(originals)
        assert len(data) > 2 * 64 * 1024
        decoded = list(MRTReader(io.BytesIO(data)))
        assert len(decoded) == 1500
        assert [r.timestamp for r in decoded] == [
            o.timestamp for o in originals
        ]
        assert all(
            d.message == o.message for d, o in zip(decoded, originals)
        )

    def make_mp_attr_record_bytes(self, mp_type: int, mp_value: bytes):
        """A raw ET record whose UPDATE carries a short MP attribute."""
        from repro.bgp.constants import MARKER

        attrs = bytearray()
        attrs += bytes([0x40, 1, 1, 0])  # ORIGIN IGP
        attrs += bytes([0x40, 2, 6, 2, 1]) + struct.pack("!I", 20205)
        attrs += bytes([0x40, 3, 4, 10, 0, 0, 1])  # NEXT_HOP
        attrs += bytes([0x80, mp_type, len(mp_value)]) + mp_value
        nlri = Prefix("84.205.64.0/24").to_nlri()
        body = (
            struct.pack("!H", 0)
            + struct.pack("!H", len(attrs))
            + bytes(attrs)
            + nlri
        )
        message = MARKER + struct.pack("!HB", 19 + len(body), 2) + body
        envelope = (
            struct.pack("!IIHH", 20205, 12456, 0, 1)
            + bytes([192, 0, 2, 2])
            + bytes([192, 0, 2, 1])
        )
        return (
            struct.pack(
                "!IHHI", 1584230400, 17, 4,
                4 + len(envelope) + len(message),
            )
            + struct.pack("!I", 0)
            + envelope
            + message
        )

    @pytest.mark.parametrize(
        "mp_type,mp_value",
        [(14, b"\x00\x02"), (14, b""), (15, b"\x00")],
    )
    def test_short_mp_attribute_is_damage_not_a_crash(
        self, mp_type, mp_value
    ):
        # struct.error is not ValueError: without an explicit length
        # guard a short MP_(UN)REACH_NLRI would escape tolerant mode
        # and crash the whole replay.
        damaged = self.make_mp_attr_record_bytes(mp_type, mp_value)
        good = dump_records([record()])
        reader = MRTReader(io.BytesIO(damaged + good), tolerant=True)
        assert len(list(reader)) == 1
        assert reader.error_records == 1

    def test_skipped_types_spanning_chunks(self):
        # An unmodeled record with a body larger than the read chunk
        # is stepped over without being materialized or decoded.
        alien = struct.pack("!IHHI", 0, 13, 1, 100_000) + b"\x7f" * 100_000
        data = alien + dump_records([record()])
        reader = MRTReader(io.BytesIO(data))
        assert len(list(reader)) == 1
        assert reader.skipped_records == 1


# ----------------------------------------------------------------------
# decode memo caches
# ----------------------------------------------------------------------
class TestDecodeMemo:
    def archive(self, count=40):
        recs = []
        for index in range(count):
            recs.append(
                record(
                    timestamp=1584230400.0 + index,
                    message=update(
                        path="20205 3356 174 12654",
                        communities="3356:300 3356:2001",
                    ),
                )
            )
        return dump_records(recs)

    def test_cached_decode_is_identity_interned(self, all_memos_on):
        data = self.archive()
        decoded = list(MRTReader(io.BytesIO(data)))
        first = decoded[0].message.attributes
        for item in decoded[1:]:
            attrs = item.message.attributes
            assert attrs is first
            assert attrs.as_path is first.as_path
            assert attrs.communities is first.communities
        prefixes = {id(item.message.announced[0]) for item in decoded}
        assert len(prefixes) == 1

    def test_cached_equals_uncached(self, all_memos_on):
        data = self.archive()
        fast = list(MRTReader(io.BytesIO(data)))
        set_memo_enabled(False)
        naive = list(MRTReader(io.BytesIO(data)))
        assert len(fast) == len(naive)
        for cached, plain in zip(fast, naive):
            assert cached.message == plain.message
            assert cached.timestamp == plain.timestamp
            assert cached.peer_address == plain.peer_address
            assert int(cached.peer_asn) == int(plain.peer_asn)
        # The naive run interned nothing.
        attrs = [item.message.attributes for item in naive]
        assert attrs[0] is not attrs[1]
        assert attrs[0] == attrs[1]

    def test_classification_identical_with_and_without_memo(
        self, all_memos_on
    ):
        recs = []
        for index in range(30):
            recs.append(
                record(
                    timestamp=1584230400.0 + index,
                    message=update(
                        communities="3356:300"
                        if index % 3
                        else "3356:300 64500:1",
                    ),
                )
            )
        data = dump_records(recs)

        def classify():
            classifier = UpdateClassifier()
            replay_mrt(io.BytesIO(data), classifier, collector="rrc00")
            return classifier.counts.counts

        fast = dict(classify())
        set_memo_enabled(False)
        assert dict(classify()) == fast

    def test_disabled_switch_empties_and_keeps_every_memo_empty(
        self, all_memos_on
    ):
        data = self.archive()
        list(MRTReader(io.BytesIO(data)))
        assert any(wire.decode_memo_sizes().values())
        assert set_memo_enabled(False) is True
        assert not any(wire.decode_memo_sizes().values())
        reader = MRTReader(io.BytesIO(data))
        assert len(list(reader)) == 40
        assert not any(wire.decode_memo_sizes().values())
        assert prefix_module.nlri_memo_size() == 0
        assert mrt_records.address_memo_size() == 0
        assert reader._envelopes == {}
        assert set_memo_enabled(True) is False

    def test_attr_block_memo_is_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(wire, "_MEMO_LIMIT", 8)
        for index in range(50):
            data = dump_records(
                [record(message=update(path=f"20205 {3000 + index}"))]
            )
            list(MRTReader(io.BytesIO(data)))
        sizes = wire.decode_memo_sizes()
        assert sizes["attr_block"] <= 8
        assert sizes["as_path"] <= 8

    def test_nlri_memo_is_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(prefix_module, "_NLRI_MEMO_LIMIT", 8)
        for index in range(50):
            Prefix.from_nlri(bytes([24, 10, index, 0]), 4)
        assert prefix_module.nlri_memo_size() <= 8

    def test_address_memo_is_bounded(self, all_memos_on, monkeypatch):
        monkeypatch.setattr(mrt_records, "_ADDRESS_MEMO_LIMIT", 8)
        for index in range(50):
            mrt_records.unpack_address(1, bytes([192, 0, 2, index]))
        assert mrt_records.address_memo_size() <= 8

    def test_nlri_memo_round_trip_identity(self, all_memos_on):
        wire_bytes = Prefix("84.205.64.0/24").to_nlri()
        first, consumed_a = Prefix.from_nlri(wire_bytes, 4)
        second, consumed_b = Prefix.from_nlri(wire_bytes, 4)
        assert first is second
        assert consumed_a == consumed_b == 4
        assert str(first) == "84.205.64.0/24"


# ----------------------------------------------------------------------
# reader stats surfaced through replay and the scenario result
# ----------------------------------------------------------------------
class TestReaderStatsSurfacing:
    def damaged_archive(self, tmp_path):
        good = dump_records(
            [record(timestamp=1584230400.0 + i) for i in range(3)]
        )
        middle = bytearray(dump_records([record(timestamp=1584230410.0)]))
        middle[36] = 0x00  # corrupt the BGP marker
        alien = struct.pack("!IHHI", 0, 13, 1, 4) + b"\x00" * 4
        path = tmp_path / "damaged.mrt"
        path.write_bytes(alien + good + bytes(middle))
        return str(path)

    def test_replay_mrt_fills_stats(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        classifier = UpdateClassifier()
        stats: dict = {}
        delivered = replay_mrt(
            path, classifier, collector="rrc00", stats=stats
        )
        assert delivered == 3
        assert stats == {
            "records": 3,
            "skipped_records": 1,
            "error_records": 1,
            "messages": 3,
            "observations": 3,
        }

    def test_scenario_result_carries_reader_stats(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        spec = get_scenario("mrt-replay")
        spec = dataclasses.replace(
            spec, mrt=dataclasses.replace(spec.mrt, path=path)
        )
        result = run_scenario(spec)
        assert result.reader_stats["records"] == 3
        assert result.reader_stats["skipped_records"] == 1
        assert result.reader_stats["error_records"] == 1

    def test_reader_stats_round_trip_json(self, tmp_path):
        path = self.damaged_archive(tmp_path)
        spec = get_scenario("mrt-replay")
        spec = dataclasses.replace(
            spec, mrt=dataclasses.replace(spec.mrt, path=path)
        )
        result = run_scenario(spec)
        payload = json.loads(result_to_json(result))
        assert payload["reader_stats"]["error_records"] == 1
        assert payload["reader_stats"]["skipped_records"] == 1
        rebuilt = result_from_json(result_to_json(result))
        assert rebuilt.reader_stats == result.reader_stats

    def test_non_mrt_results_omit_reader_stats(self):
        result = run_scenario(get_scenario("lab-baseline"))
        assert result.reader_stats == {}
        assert "reader_stats" not in json.loads(result_to_json(result))

    def test_cli_json_includes_reader_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self.damaged_archive(tmp_path)
        code = main(
            ["scenario", "run", "mrt-replay", "--input", path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reader_stats"]["skipped_records"] == 1
        assert payload["reader_stats"]["error_records"] == 1

    def test_cli_table_mentions_reader_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = self.damaged_archive(tmp_path)
        code = main(["scenario", "run", "mrt-replay", "--input", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "mrt reader: 3 records decoded" in out
        assert "1 damaged-dropped" in out
