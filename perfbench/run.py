"""The repository benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mar20-replay --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Workloads (each repetition is one fresh process, so peak RSS and the
program's memo caches are per repetition):

* ``mar20-day`` — ``repro scenario run internet-mar20``: the paper's
  headline artifact, ~90% simulator work, live collectors, no MRT.
  Not listed in ``BENCHMARK.json``: one ~50 s repetition per run varies
  ~10% across seeds (input size and host noise), more than a third of
  the largest bound (0.25) a metric may have, and the ~22 runs a full
  measurement makes would take ~20 minutes on their own.  Its simulator layers
  are still traced on ``sweep-tiny``.
* ``mar20-replay`` — ``repro scenario run mrt-replay --input ARCHIVE``
  on the serial path.  The archive is what the mar20 day's two
  collectors spill under ``archive_policy=mrt-spill`` (~78k records,
  ~10 MB), generated once per workload seed and cached by spec hash.
  It is never amplified by concatenating copies: repeated copies turn
  the wire-decode memos nearly all hits, far above what the day's own
  archive gives, and would overstate every memo.
* ``sweep-tiny`` — ``repro scenario sweep topology-tiny`` over a
  16-seed matrix, default ``processes`` backend, workers = cpu count,
  a fresh cache dir per repetition.

``--seed N`` selects the workload seed: the registered spec's seed
plus N (plus 16*N for the sweep matrix), so ``--seed 0`` is the
registered default where the pinned fingerprints apply.  The
cross-checks (replay equals live, sweep equals serial) apply at every
seed.

``--trace 0`` repeats the workload while ``--seconds`` allows (at
least once) and prints the medians of the end-to-end metrics.
``--trace 1`` makes one traced repetition with layer wrappers from
``layers.py``, checks it against an untraced one, writes the layer
ledger to ``.bench_work/ledger/`` and prints the per-layer metrics.
The last stdout line is always the JSON result; the exit status is 1
when any output check failed.

All scratch state lives under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mar20-day", "mar20-replay", "sweep-tiny")
SWEEP_CELLS = 16
#: Extra set-up-only repetitions per run (mar20-day runs once per run,
#: so its set-up time comes from these plus the full repetition).
SETUP_REPS = {"mar20-day": 4, "mar20-replay": 0, "sweep-tiny": 0}
MAX_REPS = 40
REP_TIMEOUT_S = 170.0
#: PYTHONHASHSEED of timed repetitions and of the traced one.
TIMED_HASHSEED = "0"
TRACED_HASHSEED = "1"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "obs_per_s": "1/s",
    "cells_per_s": "1/s",
}


class CheckFailed(Exception):
    """An output check failed; the message says which."""


class Bench:
    """One invocation: a workload at a seed inside one checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work")
        self.tmp = os.path.join(self.work, "tmp")
        for sub in ("tmp", "replay", "ref", "results", "ledger"):
            os.makedirs(os.path.join(self.work, sub), exist_ok=True)
        self.cpu_count = os.cpu_count() or 1
        self.source_rev = _source_rev(root)
        self.git_rev = _git_rev(root) or f"src-sha256:{self.source_rev}"
        self._rep_index = 0
        self.failures: "List[str]" = []
        sys.path.insert(0, os.path.join(root, "src"))
        from repro.scenarios import get_scenario

        if workload == "sweep-tiny":
            base = get_scenario("topology-tiny").seed + SWEEP_CELLS * seed
            self.sweep_seeds = list(range(base, base + SWEEP_CELLS))
            self.workload_seed = base
        else:
            self.workload_seed = get_scenario("internet-mar20").seed + seed
        with open(os.path.join(HERE, "fingerprints.json"), "r") as handle:
            self.pinned = json.load(handle)

    # ------------------------------------------------------------------
    # repetitions
    # ------------------------------------------------------------------
    def spawn(self, config: dict, hashseed: str = TIMED_HASHSEED) -> dict:
        """Run ``rep.py`` once; returns its report plus wall/spawn times."""
        self._rep_index += 1
        stem = os.path.join(self.tmp, f"rep{os.getpid()}-{self._rep_index}")
        config = dict(
            config,
            root=self.root,
            workload=self.workload,
            workload_seed=self.workload_seed,
            report=f"{stem}.report.json",
            stdout=f"{stem}.stdout",
        )
        config_path = f"{stem}.config.json"
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(self.root, "src"),
            PYTHONHASHSEED=hashseed,
            TMPDIR=self.tmp,
        )
        spawned = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), config_path],
            env=env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            # Pool workers share the repetition's process group: make
            # sure none outlives it, then reap the leader.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
        wall = time.perf_counter() - spawned
        if code != 0 or not os.path.exists(config["report"]):
            raise CheckFailed(
                f"{self.workload} repetition exited with status {code}"
            )
        with open(config["report"], "r", encoding="utf-8") as handle:
            report = json.load(handle)
        report["stdout"] = b""
        if os.path.exists(config["stdout"]):
            with open(config["stdout"], "rb") as handle:
                report["stdout"] = handle.read()
        for path in (config_path, config["report"], config["stdout"]):
            if os.path.exists(path):
                os.unlink(path)
        report["wall_s"] = wall
        report["spawned"] = spawned
        if report.get("setup_at") is not None:
            report["setup_s"] = report["setup_at"] - spawned
        return report

    def run_config(self, **extra) -> dict:
        """Config of one ordinary repetition of this workload."""
        if self.workload == "mar20-day":
            argv = [
                "scenario", "run", "internet-mar20",
                "--seed", str(self.workload_seed), "--json",
            ]
            return {"mode": "run", "argv": argv, **extra}
        if self.workload == "mar20-replay":
            argv = [
                "scenario", "run", "mrt-replay",
                "--input", self.archive_path(), "--json",
            ]
            return {"mode": "run", "argv": argv, **extra}
        return self.sweep_config(**extra)

    def sweep_config(self, backend: "Optional[str]" = None, **extra) -> dict:
        cache_dir = os.path.join(
            self.tmp, f"sweep{os.getpid()}-{self._rep_index + 1}"
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        argv = [
            "scenario", "sweep", "topology-tiny",
            "--seeds", ",".join(str(seed) for seed in self.sweep_seeds),
            "--workers", str(self.cpu_count),
            "--cache-dir", cache_dir, "--json",
        ]
        if backend is not None:
            argv += ["--backend", backend]
        return {"mode": "run", "argv": argv, "cache_dir": cache_dir, **extra}

    def run_rep(self, config: dict, hashseed: str = TIMED_HASHSEED) -> dict:
        """Spawn one repetition and always clean its sweep cache dir."""
        try:
            return self.spawn(config, hashseed)
        finally:
            if config.get("cache_dir"):
                shutil.rmtree(config["cache_dir"], ignore_errors=True)

    # ------------------------------------------------------------------
    # inputs (untimed)
    # ------------------------------------------------------------------
    def archive_path(self) -> str:
        return os.path.join(self.work, "replay", f"{self.archive_key()}.mrt")

    def archive_key(self) -> str:
        import dataclasses

        from repro.scenarios import get_scenario, spec_hash

        spec = get_scenario("internet-mar20")
        spec = dataclasses.replace(
            spec,
            seed=self.workload_seed,
            internet=dataclasses.replace(
                spec.internet, archive_policy="mrt-spill"
            ),
        )
        return f"mar20-{spec_hash(spec)[:16]}-{self.source_rev[:12]}"

    def prepare(self) -> None:
        """Generate or validate this workload's inputs, untimed."""
        if self.workload == "mar20-replay":
            self.sidecar = self.replay_input()
        elif self.workload == "sweep-tiny":
            self.reference = self.sweep_reference()

    def replay_input(self) -> dict:
        """The cached archive's sidecar, validated by size and sha256."""
        archive = self.archive_path()
        sidecar_path = f"{archive}.json"
        sidecar = _load_json(sidecar_path)
        if sidecar is None or not _archive_valid(archive, sidecar):
            report = self.spawn(dict(mode="generate", archive=archive))
            sidecar = report["sidecar"]
            with open(sidecar_path, "w", encoding="utf-8") as handle:
                json.dump(sidecar, handle, sort_keys=True)
            if not _archive_valid(archive, sidecar):
                raise CheckFailed("generated replay archive fails validation")
        return sidecar

    def sweep_reference(self) -> bytes:
        """Serial-backend output of the same matrix, computed once."""
        key = checks.fingerprint([self.sweep_seeds, self.source_rev])[:24]
        path = os.path.join(self.work, "ref", f"sweep-{key}.json")
        if not os.path.exists(path):
            report = self.run_rep(self.sweep_config(backend="serial"))
            if report.get("exit_code") != 0:
                raise CheckFailed("serial reference sweep failed")
            with open(f"{path}.tmp", "wb") as handle:
                handle.write(report["stdout"])
            os.replace(f"{path}.tmp", path)
        with open(path, "rb") as handle:
            return handle.read()

    # ------------------------------------------------------------------
    # per-repetition checks and numbers
    # ------------------------------------------------------------------
    def examine(self, report: dict) -> dict:
        """Check one repetition; returns its observations, counts, etc."""
        raw = report["stdout"]
        outcome = {"problems": [], "attempted": 1, "failed": 0, "cells": 1}
        problems = outcome["problems"]
        if report.get("exit_code") != 0:
            problems.append(f"CLI exit status {report.get('exit_code')}")
        if self.workload == "sweep-tiny":
            results = json.loads(raw)
            sweep = report["sweep"]
            outcome["cells"] = SWEEP_CELLS
            outcome["attempted"] = SWEEP_CELLS
            outcome["failed"] = sweep["failed_cells"]
            outcome["observations"] = sum(
                result["metrics"]["update_counts"]["observations"]
                for result in results
            )
            counts = {"attempts": sweep["attempts"], "cells": len(results)}
            for result in results:
                for key, value in checks.type_counts(result["metrics"]).items():
                    counts[key] = counts.get(key, 0) + value
            counts["observations"] = outcome["observations"]
            outcome["fingerprint"] = hashlib.sha256(raw).hexdigest()
            if raw != self.reference:
                problems.append("sweep --json differs from the serial reference")
            if len(results) != SWEEP_CELLS:
                problems.append(f"sweep returned {len(results)} results")
        else:
            result = json.loads(raw)
            metrics = result["metrics"]
            outcome["observations"] = metrics["update_counts"]["observations"]
            counts = checks.type_counts(metrics)
            counts["observations"] = outcome["observations"]
            outcome["fingerprint"] = checks.fingerprint(metrics)
            if self.workload == "mar20-day":
                counts.update(report.get("counts", {}))
                outcome["tables_fingerprint"] = checks.day_tables_fingerprint(
                    metrics, counts.get("collector_messages", -1)
                )
            else:
                stats = result.get("reader_stats", {})
                outcome["attempted"] = stats.get("records", 0)
                outcome["failed"] = stats.get("error_records", 0)
                for key in ("records", "messages", "error_records"):
                    counts[f"mrt.{key}"] = stats.get(key, 0)
                if stats.get("error_records", 0):
                    problems.append(
                        f"{stats['error_records']} damaged records dropped"
                    )
                mismatched = checks.replay_mismatches(
                    metrics, self.sidecar["live_metrics"]
                )
                if mismatched:
                    problems.append(
                        "replay differs from the live day in "
                        + ", ".join(mismatched)
                    )
        outcome["counts"] = counts
        if self.seed == 0:
            kind, value = self.pinned_value(outcome)
            problem = checks.pinned_mismatch(
                self.pinned, self.workload, kind, value
            )
            if problem:
                problems.append(problem)
        if problems:
            outcome["failed"] = outcome["attempted"]
        return outcome

    def pinned_value(self, outcome: dict) -> "tuple[str, str]":
        if self.workload == "mar20-day":
            return "tables", outcome["tables_fingerprint"]
        if self.workload == "mar20-replay":
            return "metrics", outcome["fingerprint"]
        return "sweep_json", outcome["fingerprint"]

    def record_path(self) -> str:
        return os.path.join(
            self.work, "results", f"{self.workload}-seed{self.seed}.json"
        )

    def check_repeatable(self, outcomes: "List[dict]") -> None:
        """Counts and fingerprints repeat across repetitions and runs."""
        previous = _load_json(self.record_path())
        if previous is not None and previous.get("source_rev") != self.source_rev:
            previous = None
        baseline = previous or outcomes[0]
        for outcome in outcomes:
            if outcome["fingerprint"] != baseline["fingerprint"]:
                self.failures.append("output fingerprint changed between runs")
            differing = checks.count_mismatches(
                baseline["counts"], outcome["counts"]
            )
            if differing:
                self.failures.append(
                    "exact counts changed between runs: " + ", ".join(differing)
                )

    # ------------------------------------------------------------------
    # untraced run
    # ------------------------------------------------------------------
    def timed(self, seconds: float) -> dict:
        self.prepare()
        reps: "List[dict]" = []
        outcomes: "List[dict]" = []
        started = time.perf_counter()
        while len(reps) < MAX_REPS:
            report = self.run_rep(self.run_config())
            reps.append(report)
            outcomes.append(self.examine(report))
            elapsed = time.perf_counter() - started
            if elapsed + report["wall_s"] > seconds:
                break
        setups = [rep["setup_s"] for rep in reps]
        for _ in range(SETUP_REPS[self.workload]):
            report = self.run_rep(self.run_config(mode="setup-only"))
            setups.append(report["setup_s"])
        for outcome in outcomes:
            self.failures.extend(outcome["problems"])
        self.check_repeatable(outcomes)
        values = {
            "wall_s": [rep["wall_s"] for rep in reps],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
            "obs_per_s": [
                outcome["observations"] / (rep["wall_s"] - rep["setup_s"])
                for rep, outcome in zip(reps, outcomes)
            ],
            "cells_per_s": [
                outcome["cells"] / rep["wall_s"]
                for rep, outcome in zip(reps, outcomes)
            ],
            "setup_s": setups,
        }
        metrics = {
            name: {
                "value": statistics.median(values[name]),
                "unit": END_TO_END_UNITS[name],
            }
            for name in END_TO_END_UNITS
        }
        attempted = sum(outcome["attempted"] for outcome in outcomes)
        failed = sum(outcome["failed"] for outcome in outcomes)
        if not self.failures:
            _write_json(
                self.record_path(),
                {
                    "envelope": self.envelope(None),
                    "source_rev": self.source_rev,
                    "fingerprint": outcomes[0]["fingerprint"],
                    "counts": outcomes[0]["counts"],
                    "wall_s": metrics["wall_s"]["value"],
                },
            )
        return {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "samples": {name: len(vals) for name, vals in values.items()},
            "error_rate": failed / attempted if attempted else 1.0,
        }

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def traced(self) -> dict:
        self.prepare()
        previous = _load_json(self.record_path())
        if previous is None or previous.get("source_rev") != self.source_rev:
            report = self.run_rep(self.run_config())
            outcome = self.examine(report)
            self.failures.extend(outcome["problems"])
            previous = {
                "fingerprint": outcome["fingerprint"],
                "counts": outcome["counts"],
                "wall_s": report["wall_s"],
            }
        worker_dir = None
        if self.workload == "sweep-tiny":
            worker_dir = os.path.join(self.tmp, f"workers{os.getpid()}")
            shutil.rmtree(worker_dir, ignore_errors=True)
            os.makedirs(worker_dir)
        report = self.run_rep(
            self.run_config(traced=True, worker_dir=worker_dir),
            TRACED_HASHSEED,
        )
        outcome = self.examine(report)
        self.failures.extend(outcome["problems"])
        if outcome["fingerprint"] != previous["fingerprint"]:
            self.failures.append(
                "traced run (other PYTHONHASHSEED) changed the output"
            )
        differing = checks.count_mismatches(previous["counts"], outcome["counts"])
        if differing:
            self.failures.append(
                "traced run changed exact counts: " + ", ".join(differing)
            )
        # Interpreter start-up before the first traced instant and exit
        # after the last one, as the parent's clock sees them.
        rows = report["ledger"] + [
            _process_row(
                "bench.interpreter_start", report["started"] - report["spawned"]
            ),
            _process_row(
                "bench.interpreter_exit",
                report["spawned"] + report["wall_s"] - report["finished"],
            ),
        ]
        gap, allowed = checks.ledger_gap(rows, report["wall_s"])
        if abs(gap) > allowed:
            self.failures.append(
                f"ledger rows miss the traced wall by {gap:.3f}s"
                f" (allowed {allowed:.3f}s)"
            )
        worker_rows, worker_counts = _worker_ledgers(worker_dir)
        if worker_dir is not None:
            shutil.rmtree(worker_dir, ignore_errors=True)
        sharded = None
        if self.workload == "mar20-replay":
            sharded = self.sharded_pass(outcome)
        layer = layer_metrics(
            report,
            outcome,
            rows + worker_rows,
            worker_counts,
            sharded,
            workers=min(self.cpu_count, SWEEP_CELLS),
        )
        overhead = report["wall_s"] / previous["wall_s"]
        layer["trace.overhead_ratio"] = (overhead, "ratio")
        ledger = {
            "envelope": self.envelope(overhead),
            "traced_wall_s": report["wall_s"],
            "untraced_wall_s": previous["wall_s"],
            "ledger_sum_s": report["wall_s"] + gap,
            "ledger_tolerance_s": allowed,
            "rows": rows,
            "worker_rows": worker_rows,
            "sharded": sharded,
            "counts": outcome["counts"],
            "trace_counts": report.get("trace_counts", {}),
            "memo": report.get("memo", {}),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in layer.items()
            },
        }
        _write_json(
            os.path.join(
                self.work, "ledger", f"{self.workload}-seed{self.seed}.json"
            ),
            ledger,
        )
        return {
            "metrics": ledger["metrics"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "ledger": ledger,
        }

    def sharded_pass(self, serial: dict) -> dict:
        """The replay on ``--workers cpu_count``: plan/wait/merge spans."""
        metrics_out = os.path.join(self.tmp, f"sharded{os.getpid()}.json")
        config = self.run_config(traced=True)
        config["mode"] = "sharded"
        config["argv"] = config["argv"] + [
            "--workers", str(self.cpu_count), "--metrics-out", metrics_out,
        ]
        report = self.run_rep(config)
        outcome = self.examine(report)
        registry = _load_json(metrics_out) or {}
        if os.path.exists(metrics_out):
            os.unlink(metrics_out)
        fallbacks = registry.get("counters", {}).get("mrt.shard.fallback", 0)
        problems = list(outcome["problems"])
        if outcome["fingerprint"] != serial["fingerprint"]:
            problems.append("sharded replay differs from the serial replay")
        if fallbacks:
            problems.append(f"sharded replay fell back {fallbacks} time(s)")
        self.failures.extend(problems)
        spans = {
            row["name"]: row["total_s"]
            for row in report["ledger"]
            if row["name"].startswith("pipeline.parallel.")
        }
        busy = sum(spans.values())
        return {
            "workers": self.cpu_count,
            "wall_s": report["wall_s"],
            "fingerprint_equal": outcome["fingerprint"] == serial["fingerprint"],
            "fallbacks": fallbacks,
            "observations": outcome["observations"],
            "spans": spans,
            "obs_per_s": outcome["observations"] / busy if busy else 0.0,
        }

    def envelope(self, overhead: "Optional[float]") -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "workload_seed": self.workload_seed,
            "cpu_count": self.cpu_count,
            "python": platform.python_version(),
            "git_rev": self.git_rev,
            "source_sha256": self.source_rev,
            "trace.overhead_ratio": overhead,
        }


# ----------------------------------------------------------------------
# per-layer metrics from a ledger
# ----------------------------------------------------------------------
def layer_metrics(
    report: dict,
    outcome: dict,
    rows: "List[dict]",
    worker_counts: dict,
    sharded: "Optional[dict]",
    *,
    workers: int,
) -> "Dict[str, tuple]":
    """name -> (value, unit) for every per-layer metric."""

    def total(name: str, field: str = "self_s") -> float:
        return sum(row[field] for row in rows if row["name"] == name)

    def calls(name: str) -> int:
        return int(total(name, "calls"))

    trace_counts = dict(report.get("trace_counts", {}))
    for key, value in worker_counts.items():
        trace_counts[key] = trace_counts.get(key, 0) + value
    # Simulator counts come from the day's own network, or summed over
    # the sweep's cells by the worker ledgers.
    counts = dict(trace_counts)
    counts.update(outcome["counts"])
    memo = report.get("memo", {})
    events = counts.get("events_processed", 0)
    converge_events = report.get("converge_events") or counts.get(
        "converge_events", 0
    )
    converge_s = total("simulator.converge", "total_s")
    day_s = total("workloads.run_day", "total_s")
    policy_calls = trace_counts.get("policy.import.calls", 0) + trace_counts.get(
        "policy.export.calls", 0
    )
    policy_rejects = trace_counts.get(
        "policy.import.rejects", 0
    ) + trace_counts.get("policy.export.rejects", 0)
    loc_rib_calls = calls("rib.loc_rib.update")
    sweep = report.get("sweep", {})
    cell_seconds = sweep.get("cell_seconds", [])
    dispatch_s = total("scenarios.runner.dispatch", "total_s")
    parallel = (sharded or {}).get("spans", {})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def hit_ratio(name: str) -> float:
        return float(memo.get(name, {}).get("hit_rate", 0.0))

    metrics = {
        "workloads.build_s": (total("workloads.build"), "s"),
        "simulator.converge_s": (converge_s, "s"),
        "simulator.day_s": (day_s, "s"),
        "simulator.events.self_s": (total("simulator.events"), "s"),
        "simulator.events.processed": (events, "count"),
        "simulator.events.peak_pending": (
            counts.get("peak_pending_events", 0), "count"
        ),
        "simulator.events.messages_per_event": (
            ratio(counts.get("collector_messages", 0), events), "ratio"
        ),
        "simulator.converge_events_per_s": (
            ratio(converge_events, converge_s), "1/s"
        ),
        "simulator.day_events_per_s": (
            ratio(events - converge_events, day_s), "1/s"
        ),
        "simulator.session.send_s": (total("simulator.session.send"), "s"),
        "simulator.session.send_calls": (
            calls("simulator.session.send"), "count"
        ),
        "simulator.router.self_s": (total("simulator.router"), "s"),
        "simulator.router.batches": (calls("simulator.router"), "count"),
        "simulator.router.updates_received": (
            counts.get("updates_received", 0), "count"
        ),
        "simulator.router.updates_sent": (
            counts.get("updates_sent", 0), "count"
        ),
        "policy.import_s": (total("policy.import", "total_s"), "s"),
        "policy.export_s": (total("policy.export", "total_s"), "s"),
        "policy.calls": (policy_calls, "count"),
        "policy.reject_ratio": (ratio(policy_rejects, policy_calls), "ratio"),
        "rib.decision_s": (total("rib.decision"), "s"),
        "rib.decision_calls": (calls("rib.decision"), "count"),
        "rib.best_change_ratio": (
            ratio(trace_counts.get("rib.loc_rib.changed", 0), loc_rib_calls),
            "ratio",
        ),
        "rib.adj_rib_out.records": (
            calls("rib.adj_rib_out.record"), "count"
        ),
        "bgp.attributes.replace_s": (total("bgp.attributes.replace"), "s"),
        "bgp.attributes.replace_calls": (
            calls("bgp.attributes.replace"), "count"
        ),
        "bgp.aspath.prepend_calls": (calls("bgp.aspath.prepend"), "count"),
        "simulator.collector.self_s": (total("simulator.collector"), "s"),
        "simulator.collector.messages": (
            counts.get("collector_messages", 0), "count"
        ),
        "pipeline.stream.explode_s": (total("pipeline.stream.explode"), "s"),
        "scenarios.analyze_s": (total("scenarios.analyze", "total_s"), "s"),
        "mrt.reader.self_s": (total("mrt.reader"), "s"),
        "mrt.records": (counts.get("mrt.records", 0), "count"),
        "mrt.error_records": (counts.get("mrt.error_records", 0), "count"),
        "bgp.wire.decode_s": (total("bgp.wire.decode"), "s"),
        "pipeline.parallel.obs_per_s": (
            (sharded or {}).get("obs_per_s", 0.0), "1/s"
        ),
        "pipeline.parallel.plan_s": (
            parallel.get("pipeline.parallel.plan", 0.0), "s"
        ),
        "pipeline.parallel.wait_s": (
            parallel.get("pipeline.parallel.wait", 0.0), "s"
        ),
        "pipeline.parallel.merge_s": (
            parallel.get("pipeline.parallel.merge", 0.0), "s"
        ),
        "mrt.shard.fallback": ((sharded or {}).get("fallbacks", 0), "count"),
        "sweep.cell_s.p50": (
            statistics.median(cell_seconds) if cell_seconds else 0.0, "s"
        ),
        "sweep.cell_s.sum": (sum(cell_seconds), "s"),
        "sweep.lane_idle_s": (
            workers * dispatch_s - sum(cell_seconds) if cell_seconds else 0.0,
            "s",
        ),
        "sweep.attempts": (sweep.get("attempts", 0), "count"),
        "durable.atomic_write_s": (
            total("durable.atomic_write", "total_s"), "s"
        ),
        "durable.atomic_write_calls": (calls("durable.atomic_write"), "count"),
        "scenarios.serialize_s": (total("scenarios.serialize"), "s"),
        "counts.observations": (counts.get("observations", 0), "count"),
    }
    for collector in (
        "table1", "table2", "duplicates", "update_counts",
        "community_prevalence",
    ):
        metrics[f"scenarios.collectors.{collector}_s"] = (
            total(f"scenarios.collectors.{collector}"), "s"
        )
    for memo_name in (
        "wire.attr_block", "wire.as_path", "wire.community_set",
        "prefix.nlri", "mrt.envelope",
    ):
        metrics[f"memo.{memo_name}.hit_ratio"] = (hit_ratio(memo_name), "ratio")
    return metrics


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _worker_ledgers(directory: "Optional[str]") -> "tuple[list, dict]":
    rows: "List[dict]" = []
    counts: "Dict[str, int]" = {}
    if directory is None or not os.path.isdir(directory):
        return rows, counts
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        payload = _load_json(os.path.join(directory, name)) or {}
        rows.extend(payload.get("rows", []))
        for key, value in payload.get("counts", {}).items():
            if key.startswith("peak_"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return rows, counts


def _process_row(name: str, seconds: float) -> dict:
    return {
        "phase": "process",
        "name": name,
        "calls": 1,
        "total_s": seconds,
        "self_s": seconds,
    }


def _archive_valid(archive: str, sidecar: dict) -> bool:
    if not os.path.exists(archive):
        return False
    if os.path.getsize(archive) != sidecar.get("bytes"):
        return False
    digest = hashlib.sha256()
    with open(archive, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest() == sidecar.get("sha256")


def _git_rev(root: str) -> "Optional[str]":
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_rev(root: str) -> str:
    """sha256 over ``src/`` — the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _write_json(path: str, payload) -> None:
    with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(f"{path}.tmp", path)


def run_workload(root: str, workload: str, arguments) -> "tuple[dict, Bench]":
    """One workload's outcome; prints its envelope, metrics and failures."""
    bench = Bench(root, workload, arguments.seed)
    try:
        if arguments.trace:
            outcome = bench.traced()
        else:
            outcome = bench.timed(arguments.seconds)
    except CheckFailed as exc:
        bench.failures.append(str(exc))
        outcome = {"metrics": {}, "attempted": 1, "failed": 1}
    overhead = outcome.get("ledger", {}).get("envelope", {}).get(
        "trace.overhead_ratio"
    )
    if overhead is None:
        last_ledger = _load_json(
            os.path.join(bench.work, "ledger", f"{workload}-seed{bench.seed}.json")
        )
        if last_ledger is not None:
            overhead = last_ledger["envelope"]["trace.overhead_ratio"]
    print(json.dumps({"envelope": bench.envelope(overhead)}, sort_keys=True))
    for name, metric in outcome["metrics"].items():
        samples = outcome.get("samples", {}).get(name)
        suffix = f" (median of {samples})" if samples else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    if "error_rate" in outcome:
        print(
            f"error_rate = {outcome['error_rate']:.6g}"
            f" ({outcome['failed']}/{outcome['attempted']})"
        )
    for problem in bench.failures:
        print(f"CHECK FAILED: {problem}")
    return outcome, bench


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        required=True,
        help="one workload, or all of them in turn (metrics get a"
        " workload prefix)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(
            "perfbench: run from the root of a checkout (src/repro missing)",
            file=sys.stderr,
        )
        return 2
    names = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        outcome, bench = run_workload(root, workload, arguments)
        result["correct"] = result["correct"] and not bench.failures
        result["attempted"] += int(outcome["attempted"])
        result["failed"] += int(outcome["failed"])
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, metric in outcome["metrics"].items():
            result["metrics"][prefix + name] = metric
    result["attempted"] = max(1, result["attempted"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
