"""Parallel sharded MRT decode: index, plan, merge, fallback.

The contract under test is bit-identity: a sharded decode of one
archive — index pass, session-partitioned shards, parallel workers,
deterministic merge — must produce exactly the serial pass's
classifier state, reader stats and scenario metrics, and anything the
indexer cannot handle must fall back to serial (never fail, never
diverge).
"""

import json

import pytest

from repro.analysis.classify import UpdateClassifier
from repro.bgp.aspath import ASPath
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import CommunitySet
from repro.bgp.message import UpdateMessage
from repro.cli import main
from repro.mrt.reader import MRTReader
from repro.mrt.shard import (
    RangeStream,
    ShardIndexError,
    index_archive,
    plan_shards,
)
from repro.mrt.records import Bgp4mpMessage
from repro.mrt.writer import dump_records
from repro.netbase.prefix import Prefix
from repro.obs import metrics as obs_metrics
from repro.pipeline.parallel import FALLBACK_COUNTER
from repro.pipeline.stream import replay_mrt
from repro.scenarios import (
    ScenarioValidationError,
    get_scenario,
    make_collectors,
    run_scenario,
)
from repro.scenarios.spec import MrtSpec, ScenarioSpec
from repro.simulator.session import BGPSession
from dataclasses import replace


SESSIONS = (
    # (peer_asn, peer_address) — includes a 4-byte ASN (MESSAGE_AS4
    # on the wire) and an IPv6 peer (AFI 2, 16-byte address).
    (20205, "192.0.2.2"),
    (3356, "192.0.2.6"),
    (4_200_000_001, "192.0.2.10"),
    (12654, "2001:db8::2"),
)


def update(prefix, path="20205 3356 174 12654"):
    return UpdateMessage.announce(
        Prefix(prefix),
        PathAttributes(
            as_path=ASPath.from_string(path),
            next_hop="10.0.0.1",
            communities=CommunitySet.parse("3356:300"),
        ),
    )


def record(session, timestamp, prefix):
    peer_asn, peer_address = session
    local = "2001:db8::1" if ":" in peer_address else "192.0.2.1"
    return Bgp4mpMessage(
        timestamp=timestamp,
        peer_asn=peer_asn,
        local_asn=12456,
        peer_address=peer_address,
        local_address=local,
        message=update(prefix),
    )


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A 120-record, 4-session archive (interleaved, repeated paths)."""
    records = []
    for step in range(120):
        session = SESSIONS[step % len(SESSIONS)]
        prefix = f"10.{step % 7}.0.0/16"
        records.append(
            record(session, 1584230400.0 + step * 0.25, prefix)
        )
    path = tmp_path_factory.mktemp("shard") / "archive.mrt"
    path.write_bytes(dump_records(records))
    return str(path)


@pytest.fixture(scope="module")
def spill_archive(tmp_path_factory):
    """A real spilled archive from the internet-small-spill scenario."""
    BGPSession._counter = 0
    result = run_scenario(get_scenario("internet-small-spill"))
    source = result.spill_paths["rrc00"]
    target = tmp_path_factory.mktemp("spill") / "spill.mrt"
    target.write_bytes(open(source, "rb").read())
    import os

    for spilled in result.spill_paths.values():
        os.unlink(spilled)
    return str(target)


def classifier_outcome(path, workers=None, shard_stats=None):
    """(§5 counts, reader stats) for one replay.

    The serial reference is a bare classifier.  A sharded replay needs
    a collector proxy, the one sink the parallel decode shards: with
    only ``update_counts`` attached it carries the classifier's counts
    and nothing else.  *shard_stats* receives one row per shard.
    """
    if workers is not None and workers > 1:
        sink = make_collectors(["update_counts"])
        counts = sink.type_counts
    else:
        sink = UpdateClassifier()
        counts = sink.counts
    stats = {}
    replay_mrt(
        path,
        sink,
        collector="rrc00",
        stats=stats,
        workers=workers,
        shard_stats=shard_stats,
    )
    return counts.to_dict(), stats


# ----------------------------------------------------------------------
# index pass
# ----------------------------------------------------------------------
class TestIndexArchive:
    def test_offsets_cover_file_exactly(self, archive):
        import os

        index = index_archive(archive)
        assert index.size == os.path.getsize(archive)
        expected = 0
        for offset, length, _session in index.entries:
            assert offset == expected
            assert length > 0
            expected = offset + length
        assert expected == index.size

    def test_record_count_matches_reader(self, archive):
        index = index_archive(archive)
        with open(archive, "rb") as handle:
            decoded = sum(1 for _ in MRTReader(handle, tolerant=True))
        assert len(index.entries) == decoded == 120

    def test_one_session_id_per_wire_session(self, archive):
        index = index_archive(archive)
        assert index.session_count == len(SESSIONS)
        # Interleaved writes mean every session id shows up repeatedly
        # and in first-appearance order.
        first_four = [entry[2] for entry in index.entries[:4]]
        assert first_four == [0, 1, 2, 3]

    def test_truncated_tail_raises(self, archive, tmp_path):
        blob = open(archive, "rb").read()
        damaged = tmp_path / "truncated.mrt"
        damaged.write_bytes(blob[:-5])
        with pytest.raises(ShardIndexError, match="truncated"):
            index_archive(str(damaged))


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestPlanShards:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 7])
    def test_sessions_partition_exactly(self, archive, shard_count):
        plan = plan_shards(archive, shard_count)
        index = index_archive(archive)
        # Every session is assigned to exactly one shard...
        assert len(plan.session_assignment) == index.session_count
        assert all(
            0 <= shard < shard_count for shard in plan.session_assignment
        )
        # ...and every record's bytes land in exactly the shard that
        # owns its session (a true partition: disjoint and complete).
        covered = []
        for shard in plan.shards:
            for start, end in shard.ranges:
                covered.append((start, end, shard.index))
        covered.sort()
        position = 0
        for start, end, _shard in covered:
            assert start == position, "ranges overlap or leave a gap"
            position = end
        assert position == plan.size
        assert sum(shard.records for shard in plan.shards) == 120

    def test_plan_is_deterministic(self, archive):
        first = plan_shards(archive, 3)
        second = plan_shards(archive, 3)
        assert first == second

    def test_rejects_bad_shard_count(self, archive):
        with pytest.raises(ValueError, match="shard_count"):
            plan_shards(archive, 0)


# ----------------------------------------------------------------------
# RangeStream
# ----------------------------------------------------------------------
class TestRangeStream:
    def test_presents_ranges_as_one_stream(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(100)))
        with open(path, "rb") as handle:
            stream = RangeStream(handle, [(10, 20), (50, 55), (90, 100)])
            assert stream.read() == (
                bytes(range(10, 20))
                + bytes(range(50, 55))
                + bytes(range(90, 100))
            )

    def test_chunked_reads_cross_range_boundaries(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(100)))
        with open(path, "rb") as handle:
            stream = RangeStream(handle, [(0, 3), (7, 12)])
            parts = []
            while True:
                chunk = stream.read(2)
                if not chunk:
                    break
                parts.append(chunk)
            assert b"".join(parts) == bytes(range(3)) + bytes(range(7, 12))

    def test_shard_ranges_decode_as_mrt(self, archive):
        plan = plan_shards(archive, 3)
        total = 0
        for shard in plan.shards:
            with open(archive, "rb") as handle:
                stream = RangeStream(handle, shard.ranges)
                records = list(MRTReader(stream, tolerant=False))
            assert len(records) == shard.records
            total += len(records)
        assert total == 120


# ----------------------------------------------------------------------
# parallel replay == serial replay
# ----------------------------------------------------------------------
class TestShardedReplayIdentity:
    def test_workers_1_matches_serial(self, archive, monkeypatch):
        # One worker is the serial path itself: no index pass, no
        # shard, no state round trip.
        from repro.pipeline import parallel

        def no_plan(*args, **kwargs):
            raise AssertionError("workers=1 must not plan shards")

        serial_state, serial_stats = classifier_outcome(archive)
        monkeypatch.setattr(parallel, "plan_shards", no_plan)
        one_state, one_stats = classifier_outcome(archive, workers=1)
        assert one_state == serial_state
        assert one_stats == serial_stats

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_k_shard_merge_matches_serial(self, spill_archive, workers):
        serial_state, serial_stats = classifier_outcome(spill_archive)
        shard_stats = []
        sharded_state, sharded_stats = classifier_outcome(
            spill_archive, workers=workers, shard_stats=shard_stats
        )
        # One row per planned shard: the sharded path really ran.
        shards = len(plan_shards(spill_archive, workers).shards)
        assert shards > 1
        assert [row["shard"] for row in shard_stats] == list(range(shards))
        assert json.dumps(sharded_state, sort_keys=True) == json.dumps(
            serial_state, sort_keys=True
        )
        assert sharded_stats == serial_stats

    def test_bare_classifier_does_not_shard(self, archive, monkeypatch):
        # Only a collector proxy shards; any other sink is serial.
        from repro.pipeline import parallel

        def no_plan(*args, **kwargs):
            raise AssertionError("a bare classifier must not plan shards")

        monkeypatch.setattr(parallel, "plan_shards", no_plan)
        shard_stats = []
        replay_mrt(
            archive, UpdateClassifier(), workers=2, shard_stats=shard_stats
        )
        assert shard_stats == []

    def test_shard_stats_rows_sum_to_totals(self, archive):
        stats = {}
        shard_stats = []
        replay_mrt(
            archive,
            make_collectors(["update_counts"]),
            collector="rrc00",
            stats=stats,
            workers=2,
            shard_stats=shard_stats,
        )
        assert [row["shard"] for row in shard_stats] == [0, 1]
        assert (
            sum(row["records"] for row in shard_stats) == stats["records"]
        )
        assert (
            sum(row["observations"] for row in shard_stats)
            == stats["observations"]
        )

    def test_decode_shard_phase_recorded(self, archive):
        shard_stats = []
        with obs_metrics.enabled_scope():
            obs_metrics.reset_metrics()
            classifier_outcome(archive, workers=2, shard_stats=shard_stats)
            phases = obs_metrics.registry().phase_seconds()
            fallbacks = obs_metrics.registry().counter_value(
                FALLBACK_COUNTER
            )
        assert "mrt.decode.shard" in phases
        assert fallbacks == 0
        assert len(shard_stats) == 2


# ----------------------------------------------------------------------
# damaged archives: serial fallback, never divergence
# ----------------------------------------------------------------------
class TestDamagedArchiveFallback:
    def test_truncated_archive_falls_back_identically(
        self, archive, tmp_path
    ):
        blob = open(archive, "rb").read()
        damaged = tmp_path / "damaged.mrt"
        damaged.write_bytes(blob[:-5])
        serial_state, serial_stats = classifier_outcome(str(damaged))
        shard_stats = []
        with obs_metrics.enabled_scope():
            obs_metrics.reset_metrics()
            sharded_state, sharded_stats = classifier_outcome(
                str(damaged), workers=2, shard_stats=shard_stats
            )
            fallbacks = obs_metrics.registry().counter_value(
                FALLBACK_COUNTER
            )
        assert fallbacks == 1
        assert shard_stats == []
        assert sharded_state == serial_state
        assert sharded_stats == serial_stats

    def test_missing_file_still_raises_like_serial(self, tmp_path):
        # The fallback covers *sharding* failures; a nonexistent path
        # must surface the same error the serial path raises.
        missing = str(tmp_path / "nope.mrt")
        with pytest.raises(OSError):
            replay_mrt(
                missing, make_collectors(["update_counts"]), workers=2
            )


# ----------------------------------------------------------------------
# scenario engine integration
# ----------------------------------------------------------------------
class TestScenarioDecodeWorkers:
    def test_metrics_byte_identical_to_serial(self, spill_archive):
        base = get_scenario("mrt-replay")
        serial = run_scenario(
            replace(base, mrt=replace(base.mrt, path=spill_archive))
        )
        sharded = run_scenario(
            replace(
                base,
                mrt=replace(
                    base.mrt, path=spill_archive, decode_workers=2
                ),
            )
        )
        assert json.dumps(sharded.metrics, sort_keys=True) == json.dumps(
            serial.metrics, sort_keys=True
        )
        assert sharded.reader_stats == serial.reader_stats
        assert serial.shard_stats == []
        assert [row["shard"] for row in sharded.shard_stats] == [0, 1]

    def test_shard_stats_round_trip_serialization(self, spill_archive):
        from repro.scenarios import result_from_json, result_to_json

        base = get_scenario("mrt-replay")
        result = run_scenario(
            replace(
                base,
                mrt=replace(
                    base.mrt, path=spill_archive, decode_workers=2
                ),
            )
        )
        rebuilt = result_from_json(result_to_json(result))
        assert rebuilt.shard_stats == result.shard_stats


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
class TestDecodeWorkersValidation:
    def spec(self, decode_workers):
        return ScenarioSpec(
            name="t",
            kind="mrt",
            description="d",
            mrt=MrtSpec(path="x.mrt", decode_workers=decode_workers),
        )

    @pytest.mark.parametrize("bad", [0, -1, True, "2", 1.5])
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(
            ScenarioValidationError, match="decode_workers"
        ):
            self.spec(bad).validate()

    @pytest.mark.parametrize("good", [None, 1, 2, 8])
    def test_accepts_valid_counts(self, good):
        assert self.spec(good).validate() is not None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCliWorkers:
    def test_workers_on_non_mrt_scenario_rejected(self, capsys):
        assert (
            main(["scenario", "run", "lab-junos", "--workers", "2"]) == 2
        )
        err = capsys.readouterr().err
        assert "--workers only applies to mrt scenarios" in err

    def test_mrt_replay_workers_json_carries_shard_stats(
        self, spill_archive, capsys
    ):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "mrt-replay",
                    "--input",
                    spill_archive,
                    "--workers",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [row["shard"] for row in payload["shard_stats"]] == [0, 1]
        assert payload["spec"]["mrt"]["decode_workers"] == 2

    def test_mrt_replay_workers_human_table(self, spill_archive, capsys):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "mrt-replay",
                    "--input",
                    spill_archive,
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert "Parallel decode shards" in capsys.readouterr().out
