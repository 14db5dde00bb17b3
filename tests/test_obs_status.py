"""Sweep status: rebuilding live state from manifest + journals."""

import json

import pytest

from repro.cli import main
from repro.obs.journal import RunJournal, cell_journal_path
from repro.obs.status import (
    collect_sweep_status,
    render_sweep_status,
)

NOW = 1_700_000_000.0


def write_manifest(cache_dir, cells) -> None:
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / "sweep.json").write_text(
        json.dumps({"version": "v1", "cells": cells})
    )


def cell(name, state, **extra):
    payload = {"name": name, "spec": {"name": name, "kind": "lab"}}
    payload["state"] = state
    payload.update(extra)
    return payload


def midflight_cache(tmp_path):
    """A sweep caught mid-flight: done, failed, running and pending."""
    cache = tmp_path / "cache"
    write_manifest(
        cache,
        {
            "d1": cell(
                "sweep@seed1",
                "done",
                attempts=1,
                started_at=NOW - 100.0,
                finished_at=NOW - 90.0,
            ),
            "d2": cell(
                "sweep@seed2",
                "done",
                attempts=2,
                started_at=NOW - 90.0,
                finished_at=NOW - 76.0,
            ),
            "d3": cell("sweep@seed3", "failed", attempts=3),
            "d4": cell("sweep@seed4", "pending"),
            "d5": cell("sweep@seed5", "pending"),
            # A third finished cell: straggler math needs >= 3 samples.
            "d6": cell(
                "sweep@seed6",
                "done",
                attempts=1,
                started_at=NOW - 80.0,
                finished_at=NOW - 68.0,
            ),
        },
    )
    # d4 is running: started, heartbeating recently, not finished.  At
    # 60s elapsed against a 12s median it is also a straggler.
    # Timestamps are pinned, so the lines are written directly.
    journal_path = cell_journal_path(str(cache), "d4")
    (cache / "journals").mkdir(parents=True, exist_ok=True)
    with open(journal_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"event": "start", "ts": NOW - 60.0}) + "\n")
        handle.write(
            json.dumps(
                {
                    "event": "heartbeat",
                    "ts": NOW - 1.0,
                    "observations": 5000,
                    "rate_per_second": 84.7,
                    "peak_rss_kb": 120_000,
                }
            )
            + "\n"
        )
    return cache


class TestCollect:
    def test_states_from_midflight_manifest(self, tmp_path):
        status = collect_sweep_status(str(midflight_cache(tmp_path)), now=NOW)
        by_name = {cell.name: cell for cell in status.cells}
        assert by_name["sweep@seed1"].state == "done"
        assert by_name["sweep@seed2"].state == "done"
        assert by_name["sweep@seed3"].state == "failed"
        assert by_name["sweep@seed4"].state == "running"
        assert by_name["sweep@seed5"].state == "pending"
        assert by_name["sweep@seed6"].state == "done"
        counts = status.counts()
        assert counts == {
            "done": 3,
            "failed": 1,
            "running": 1,
            "lost": 0,
            "pending": 1,
            "retried": 2,  # seed2 (attempts=2) and seed3 (attempts=3)
            "total": 6,
        }

    def test_wall_time_and_heartbeat_progress(self, tmp_path):
        status = collect_sweep_status(str(midflight_cache(tmp_path)), now=NOW)
        by_name = {cell.name: cell for cell in status.cells}
        assert by_name["sweep@seed1"].wall_seconds == pytest.approx(10.0)
        running = by_name["sweep@seed4"]
        assert running.elapsed_seconds == pytest.approx(60.0)
        assert running.observations == 5000
        assert running.rate_per_second == pytest.approx(84.7)
        assert running.peak_rss_kb == 120_000

    def test_straggler_detection(self, tmp_path):
        # Median done wall time is median(10, 14, 12) = 12s; the
        # running cell is 60s in -> past the 2x threshold.
        status = collect_sweep_status(str(midflight_cache(tmp_path)), now=NOW)
        stragglers = status.stragglers()
        assert [cell.name for cell in stragglers] == ["sweep@seed4"]

    def test_straggler_needs_three_finished_samples(self, tmp_path):
        # One fast finished cell as the "median" used to flag every
        # normal running cell; below 3 samples nothing is a straggler.
        cache = tmp_path / "cache"
        write_manifest(
            cache,
            {
                "d1": cell(
                    "sweep@seed1",
                    "done",
                    attempts=1,
                    started_at=NOW - 100.0,
                    finished_at=NOW - 99.5,  # 0.5s outlier
                ),
                "d2": cell("sweep@seed2", "pending"),
            },
        )
        journal_path = cell_journal_path(str(cache), "d2")
        (cache / "journals").mkdir(parents=True, exist_ok=True)
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"event": "start", "ts": NOW - 10.0}) + "\n"
            )
            handle.write(
                json.dumps({"event": "heartbeat", "ts": NOW - 1.0}) + "\n"
            )
        status = collect_sweep_status(str(cache), now=NOW)
        by_name = {cell.name: cell for cell in status.cells}
        assert by_name["sweep@seed2"].state == "running"
        assert status.stragglers() == []

    def test_finished_journal_is_not_running(self, tmp_path):
        cache = tmp_path / "cache"
        write_manifest(cache, {"d1": cell("sweep@seed1", "pending")})
        with RunJournal(cell_journal_path(str(cache), "d1")) as journal:
            journal.write("start")
            journal.write("fail", error="boom")
        status = collect_sweep_status(str(cache), now=NOW)
        assert status.cells[0].state == "pending"
        assert status.cells[0].attempts == 1  # start lines still count

    def test_old_manifest_without_timing_keys(self, tmp_path):
        # Pre-instrumentation manifests carry only name/spec/state.
        cache = tmp_path / "cache"
        write_manifest(cache, {"d1": cell("sweep@seed1", "done")})
        status = collect_sweep_status(str(cache), now=NOW)
        only = status.cells[0]
        assert only.state == "done"
        assert only.attempts == 0
        assert only.wall_seconds is None

    def test_as_dict_is_json_ready(self, tmp_path):
        status = collect_sweep_status(str(midflight_cache(tmp_path)), now=NOW)
        payload = json.loads(json.dumps(status.as_dict()))
        assert payload["counts"]["total"] == 6
        assert len(payload["cells"]) == 6


class TestLost:
    def journal_lines(self, cache, digest, lines):
        journal_path = cell_journal_path(str(cache), digest)
        (cache / "journals").mkdir(parents=True, exist_ok=True)
        with open(journal_path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")

    def stale_cache(self, tmp_path, *, heartbeat_gap):
        """One running cell whose journal went quiet 100s ago."""
        cache = tmp_path / "cache"
        write_manifest(cache, {"d1": cell("sweep@seed1", "pending")})
        self.journal_lines(
            cache,
            "d1",
            [
                {"event": "start", "ts": NOW - 100.0 - heartbeat_gap},
                {"event": "heartbeat", "ts": NOW - 100.0},
            ],
        )
        return cache

    def test_stale_journal_is_lost(self, tmp_path):
        # Heartbeats came every 5s, then silence for 100s: well past
        # the derived 2x-interval threshold.
        cache = self.stale_cache(tmp_path, heartbeat_gap=5.0)
        status = collect_sweep_status(str(cache), now=NOW)
        only = status.cells[0]
        assert only.state == "lost"
        assert only.elapsed_seconds == pytest.approx(105.0)
        assert status.counts()["lost"] == 1
        assert status.counts()["running"] == 0

    def test_slow_heartbeats_raise_the_threshold(self, tmp_path):
        # Heartbeats every 90s: 100s of silence is within 2x cadence.
        cache = self.stale_cache(tmp_path, heartbeat_gap=90.0)
        status = collect_sweep_status(str(cache), now=NOW)
        assert status.cells[0].state == "running"

    def test_lost_after_override(self, tmp_path):
        cache = self.stale_cache(tmp_path, heartbeat_gap=90.0)
        status = collect_sweep_status(
            str(cache), now=NOW, lost_after=50.0
        )
        assert status.cells[0].state == "lost"
        # And a generous override keeps a tight-cadence cell running.
        cache2 = self.stale_cache(tmp_path / "b", heartbeat_gap=5.0)
        status2 = collect_sweep_status(
            str(cache2), now=NOW, lost_after=500.0
        )
        assert status2.cells[0].state == "running"

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_lost_after_is_rejected(self, tmp_path, bad):
        # A threshold of zero or less would call every running cell
        # lost, however fresh its journal.
        cache = self.stale_cache(tmp_path, heartbeat_gap=5.0)
        with pytest.raises(ValueError, match="lost_after"):
            collect_sweep_status(str(cache), now=NOW, lost_after=bad)

    def test_cli_rejects_negative_lost_after(self, tmp_path, capsys):
        cache = self.stale_cache(tmp_path, heartbeat_gap=5.0)
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "--status",
                    "--cache-dir",
                    str(cache),
                    "--lost-after",
                    "-1",
                ]
            )
            == 2
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "lost_after" in captured.err

    def test_start_only_journal_uses_default_window(self, tmp_path):
        # No heartbeat interval to calibrate from: the 300s default
        # applies, so a 100s-quiet cell is still running...
        cache = tmp_path / "cache"
        write_manifest(cache, {"d1": cell("sweep@seed1", "pending")})
        self.journal_lines(
            cache, "d1", [{"event": "start", "ts": NOW - 100.0}]
        )
        status = collect_sweep_status(str(cache), now=NOW)
        assert status.cells[0].state == "running"
        # ...and a 400s-quiet one is lost.
        status = collect_sweep_status(str(cache), now=NOW + 300.0)
        assert status.cells[0].state == "lost"

    def test_lost_cells_are_not_stragglers(self, tmp_path):
        # Same fixture as the straggler test, but the running cell's
        # journal is stale: it must show as lost, not straggling.
        cache = midflight_cache(tmp_path)
        self.journal_lines(
            cache,
            "d4",
            [
                {"event": "start", "ts": NOW - 60.0},
                {"event": "heartbeat", "ts": NOW - 59.0},
                {"event": "heartbeat", "ts": NOW - 58.0},
            ],
        )
        status = collect_sweep_status(str(cache), now=NOW)
        by_name = {cell.name: cell for cell in status.cells}
        assert by_name["sweep@seed4"].state == "lost"
        assert status.stragglers() == []
        text = render_sweep_status(status)
        assert "1 lost" in text


class TestRender:
    def test_render_mentions_counts_and_stragglers(self, tmp_path):
        status = collect_sweep_status(str(midflight_cache(tmp_path)), now=NOW)
        text = render_sweep_status(status)
        assert "3/6 done" in text
        assert "1 running" in text
        assert "1 failed" in text
        assert "0 lost" in text
        assert "2 retried" in text
        assert "running (straggler)" in text
        assert "5000 obs @ 85/s" in text


class TestStatusCli:
    def test_status_requires_cache_dir(self, capsys):
        assert main(["scenario", "sweep", "--status"]) == 2
        assert "--status requires --cache-dir" in capsys.readouterr().err

    def test_status_missing_manifest(self, tmp_path, capsys):
        code = main(
            ["scenario", "sweep", "--status", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "no sweep manifest" in capsys.readouterr().err

    def test_status_table_goes_to_stderr(self, tmp_path, capsys):
        cache = midflight_cache(tmp_path)
        code = main(
            ["scenario", "sweep", "--status", "--cache-dir", str(cache)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "done" in captured.err
        assert "sweep@seed4" in captured.err

    def test_status_json_goes_to_stdout(self, tmp_path, capsys):
        cache = midflight_cache(tmp_path)
        code = main(
            [
                "scenario",
                "sweep",
                "--status",
                "--cache-dir",
                str(cache),
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["counts"]["total"] == 6
