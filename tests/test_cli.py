"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main

#: Table 1's printed labels -> the ``table1`` collector's metric keys.
TABLE1_KEYS = {
    "IPv4 prefixes": "ipv4_prefixes",
    "IPv6 prefixes": "ipv6_prefixes",
    "ASes": "ases",
    "Sessions": "sessions",
    "Peers": "peers",
    "Announcements": "announcements",
    "w/ communities": "with_communities",
    "uniq. 16 bits": "unique_16bit_communities",
    "uniq. AS paths": "unique_as_paths",
    "Withdrawals": "withdrawals",
}


def table_rows(text, title):
    """The body rows of the rendered table titled *title*, as cells."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(title) + 3 :]:  # title, header, rule
        if not line.strip():
            break
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows


def share(value):
    return "-" if value is None else f"{value * 100:.1f}%"


def assert_day_tables_match(out, metrics):
    """Printed Tables 1/2 carry exactly the collectors' metrics."""
    assert table_rows(out, "Table 1: overview") == [
        [label, f"{metrics['table1'][key]:,}"]
        for label, key in TABLE1_KEYS.items()
    ]
    full = metrics["table2"]["full_shares"]
    beacon = metrics["table2"]["beacon_shares"] or {}
    printed = table_rows(out, "Table 2: announcement types")
    assert sorted(row[0] for row in printed) == sorted(full)
    for code, _description, full_share, beacon_share in printed:
        assert full_share == share(full[code])
        assert beacon_share == share(beacon.get(code))


def scenario_json(capsys, *argv):
    assert main(["scenario", "run", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def small_archive(tmp_path):
    """A two-update MRT archive from a three-node simulated network."""
    from repro.netbase import Prefix
    from repro.simulator import Network

    network = Network()
    origin = network.add_router("origin", 65001)
    middle = network.add_router("middle", 65002)
    collector = network.add_collector("rrc0")
    network.connect(origin, middle)
    network.connect(middle, collector)
    origin.originate(Prefix("203.0.113.0/24"))
    network.converge()
    origin.withdraw_origination(Prefix("203.0.113.0/24"))
    network.converge()
    archive = tmp_path / "updates.mrt"
    archive.write_bytes(collector.dump_mrt())
    return str(archive)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lab_defaults(self):
        arguments = build_parser().parse_args(["lab"])
        assert arguments.command == "lab"
        assert arguments.vendor is None

    def test_classify_requires_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify"])

    def test_simulate_scale_choices(self):
        arguments = build_parser().parse_args(
            ["simulate", "--scale", "mar20", "--seed", "7"]
        )
        assert arguments.scale == "mar20"
        assert arguments.seed == 7
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scale", "huge"])


class TestLabCommand:
    def test_single_vendor_matrix(self, capsys):
        assert main(["lab", "--vendor", "junos"]) == 0
        out = capsys.readouterr().out
        assert "Junos" in out
        assert "exp4" in out

    def test_unknown_vendor_fails_cleanly(self, capsys):
        assert main(["lab", "--vendor", "nokia"]) == 2
        assert "unknown vendor" in capsys.readouterr().err


class TestClassifyCommand:
    def test_classifies_archive(self, small_archive, capsys):
        assert main(["classify", small_archive]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Announcements" in out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["classify", "/nonexistent/file.mrt"]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_empty_archive_reports_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.mrt"
        empty.write_bytes(b"")
        assert main(["classify", str(empty)]) == 1
        assert "no update messages" in capsys.readouterr().err


class TestPresetsMatchScenarioRun:
    """``lab``/``simulate``/``classify`` print what ``scenario run``
    computes for the scenario each one presets."""

    def test_lab_junos_rows_are_the_lab_junos_matrix(self, capsys):
        assert main(["lab", "--vendor", "junos"]) == 0
        out = capsys.readouterr().out
        matrix = scenario_json(capsys, "lab-junos")["metrics"]["lab_matrix"]
        rows = table_rows(out, "Lab behavior matrix (paper §3)")
        assert rows == [
            [cell.strip() for cell in row] for row in matrix["rows"]
        ]
        assert not out.startswith("scenario ")

    def test_simulate_small_tables_are_internet_small_metrics(self, capsys):
        assert main(["simulate", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        metrics = scenario_json(capsys, "internet-small")["metrics"]
        assert_day_tables_match(out, metrics)
        assert metrics["table2"]["beacon_shares"] is not None

    def test_classify_tables_are_mrt_replay_metrics(
        self, small_archive, capsys
    ):
        assert main(["classify", small_archive]) == 0
        out = capsys.readouterr().out
        metrics = scenario_json(
            capsys, "mrt-replay", "--input", small_archive
        )["metrics"]
        assert_day_tables_match(out, metrics)
        assert metrics["table1"]["announcements"] == 1
        assert metrics["table1"]["withdrawals"] == 1


class TestJournalLifecycle:
    """A CLI ``--journal`` run and a sweep worker journal alike."""

    @staticmethod
    def events(path):
        from repro.obs.journal import read_journal

        return [event["event"] for event in read_journal(str(path))]

    def test_success_is_start_then_finish_in_both(self, tmp_path, capsys):
        from repro.scenarios import get_scenario, spec_to_json
        from repro.scenarios.engine import run_scenario_json

        cli = tmp_path / "cli.jsonl"
        worker = tmp_path / "worker.jsonl"
        argv = ["scenario", "run", "lab-junos", "--journal", str(cli)]
        assert main(argv) == 0
        spec_json = spec_to_json(get_scenario("lab-junos"))
        run_scenario_json(spec_json, str(worker))
        assert self.events(cli) == self.events(worker) == ["start", "finish"]

    def test_failure_is_start_then_fail_in_both(self, tmp_path, capsys):
        from dataclasses import replace

        from repro.scenarios import (
            MrtSpec,
            ScenarioValidationError,
            get_scenario,
            spec_to_json,
        )
        from repro.scenarios.engine import run_scenario_json

        missing = str(tmp_path / "missing.mrt")
        cli = tmp_path / "cli.jsonl"
        worker = tmp_path / "worker.jsonl"
        argv = ["scenario", "run", "mrt-replay", "--input", missing]
        assert main([*argv, "--journal", str(cli)]) == 2
        spec = replace(get_scenario("mrt-replay"), mrt=MrtSpec(path=missing))
        with pytest.raises(ScenarioValidationError):
            run_scenario_json(spec_to_json(spec), str(worker))
        assert self.events(cli) == self.events(worker) == ["start", "fail"]

    def test_any_run_failure_is_journaled(self, tmp_path, small_archive):
        # Not just validation errors: a strict replay of a damaged
        # archive fails mid-run, and the journal still says so.
        from repro.mrt.records import MRTError

        damaged = tmp_path / "damaged.mrt"
        damaged.write_bytes(open(small_archive, "rb").read()[:-3])
        cli = tmp_path / "cli.jsonl"
        argv = ["scenario", "run", "mrt-replay-strict", "--input"]
        with pytest.raises(MRTError):
            main([*argv, str(damaged), "--journal", str(cli)])
        assert self.events(cli) == ["start", "fail"]


class TestScenarioParser:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_sweep_arguments(self):
        arguments = build_parser().parse_args(
            [
                "scenario",
                "sweep",
                "internet-small",
                "--seeds",
                "1,2,3",
                "--workers",
                "2",
                "--cache-dir",
                "/tmp/c",
            ]
        )
        assert arguments.scenario_command == "sweep"
        assert arguments.name == "internet-small"
        assert arguments.seeds == "1,2,3"
        assert arguments.workers == 2

    def test_sweep_backend_arguments(self):
        arguments = build_parser().parse_args(
            [
                "scenario",
                "sweep",
                "internet-small",
                "--backend",
                "serial",
                "--max-retries",
                "2",
            ]
        )
        assert arguments.backend == "serial"
        assert arguments.max_retries == 2
        assert not arguments.resume

    def test_sweep_name_optional_for_resume(self):
        arguments = build_parser().parse_args(
            ["scenario", "sweep", "--resume", "--cache-dir", "/tmp/c"]
        )
        assert arguments.name is None
        assert arguments.resume


class TestScenarioCommand:
    def test_list_shows_catalog(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "internet-small" in out
        assert "lab-baseline" in out
        assert "scrub-heavy" in out

    def test_list_filters_by_kind(self, capsys):
        assert main(["scenario", "list", "--kind", "lab"]) == 0
        out = capsys.readouterr().out
        assert "lab-baseline" in out
        assert "internet-small" not in out

    def test_run_lab_scenario(self, capsys):
        assert main(["scenario", "run", "lab-junos"]) == 0
        out = capsys.readouterr().out
        assert "Lab behavior matrix" in out
        assert "Junos" in out
        assert "hash=" in out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.scenarios import get_scenario, spec_to_json

        path = tmp_path / "lab.json"
        path.write_text(spec_to_json(get_scenario("lab-junos")))
        assert main(["scenario", "run", "--spec-file", str(path)]) == 0
        assert "Lab behavior matrix" in capsys.readouterr().out

    def test_run_invalid_spec_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "x", "kind": "lab", "collectors": ["bogus"]}'
        )
        assert main(["scenario", "run", "--spec-file", str(path)]) == 2
        assert "unknown collector" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["0", "-5"])
    def test_run_rejects_heartbeat_cadence_below_one(self, every, capsys):
        argv = ["scenario", "run", "topology-tiny", "--progress"]
        assert main([*argv, "--heartbeat-every", every]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "heartbeat_every must be at least 1" in captured.err

    def test_run_json_output(self, capsys):
        assert main(["scenario", "run", "lab-junos", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "lab-junos"
        assert "lab_matrix" in payload["metrics"]

    def test_sweep_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        arguments = [
            "scenario",
            "sweep",
            "lab-junos",
            "--seeds",
            "1,2",
            "--workers",
            "1",
            "--cache-dir",
            cache,
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert "2 miss(es)" in first
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert "2 hit(s)" in second

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        first = [
            "scenario",
            "sweep",
            "lab-junos",
            "--seeds",
            "1,2",
            "--workers",
            "1",
            "--backend",
            "serial",
            "--cache-dir",
            cache,
        ]
        assert main(first) == 0
        capsys.readouterr()
        resumed = [
            "scenario",
            "sweep",
            "--resume",
            "--cache-dir",
            cache,
            "--workers",
            "1",
        ]
        assert main(resumed) == 0
        out = capsys.readouterr().out
        assert "Resumed sweep" in out
        assert "2 hit(s), 0 miss(es)" in out

    def test_sweep_resume_requires_cache_dir(self, capsys):
        assert main(["scenario", "sweep", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_sweep_resume_rejects_scenario_name(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "lab-junos",
                    "--resume",
                    "--cache-dir",
                    "/tmp/does-not-matter",
                ]
            )
            == 2
        )
        assert "drop the scenario name" in capsys.readouterr().err

    def test_sweep_without_name_or_resume(self, capsys):
        assert main(["scenario", "sweep"]) == 2
        assert "scenario name" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "removed, complaint",
        [
            (["--shard", "0/2"], "unrecognized arguments: --shard"),
            (["--speculate"], "unrecognized arguments: --speculate"),
            (["--backend", "threads"], "invalid choice: 'threads'"),
        ],
        ids=["shard", "speculate", "threads"],
    )
    def test_removed_sweep_options_fail_loudly(
        self, removed, complaint, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main(["scenario", "sweep", "lab-junos", *removed])
        assert info.value.code == 2
        assert complaint in capsys.readouterr().err

    def test_sweep_failure_reported_with_spec_context(self, capsys):
        # mrt-replay cells have no --input in a sweep, so every cell
        # fails at run time; the CLI must name the spec, not dump an
        # anonymous pool traceback, and exit nonzero.
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    "mrt-replay",
                    "--seeds",
                    "1",
                    "--workers",
                    "1",
                    "--backend",
                    "serial",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "mrt-replay@seed1" in captured.err
        assert "failed after 1 attempt(s)" in captured.err
        # No --cache-dir was given, so there is nothing to resume;
        # the advice must say how to make the next run resumable.
        assert "--cache-dir" in captured.out
        assert "--resume" not in captured.out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import os
        import subprocess
        import sys

        environment = dict(os.environ)
        source_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        environment["PYTHONPATH"] = source_root + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "list"],
            capture_output=True,
            text=True,
            env=environment,
        )
        assert completed.returncode == 0
        assert "internet-small" in completed.stdout
