"""Command-line tools.

Six subcommands mirror the ways people use the library:

* ``repro scenario list|run|sweep`` — the declarative scenario engine:
  browse the registry, run one named scenario (or a JSON spec file),
  or run a multi-seed sweep in parallel with result caching;
* ``repro lab [--vendor VENDOR]`` — the §3 lab experiment matrix
  (the ``lab-baseline`` scenario);
* ``repro simulate [--scale small|mar20] [--seed N]`` — one
  measurement day's Table 1 + Table 2 (``internet-small`` or
  ``internet-mar20``);
* ``repro classify FILE [--collector NAME]`` — Table 1 + Table 2 of
  an MRT update archive, real RouteViews/RIS files included
  (``mrt-replay``);
* ``repro doctor DIR [--repair]`` — scan a cache or queue directory
  for crash debris and repair it;
* ``repro check`` — the contract linter (``src/repro/devtools/``):
  static analysis enforcing the determinism, hot-path and
  output-discipline invariants.

``lab``, ``simulate`` and ``classify`` are presets: each builds the
named scenario's spec with the command's flags applied and runs it
through the same engine and the same table renderer as
``scenario run``.

Output discipline (enforced by ``repro check``'s IO001): stdout
belongs to the designated emitters — :func:`_emit` for human tables,
:func:`_emit_json` for machine JSON — so a ``--json`` run's stdout is
always one parseable document; everything diagnostic says
``file=sys.stderr``.

Runs as ``repro`` (console script), ``python -m repro`` or
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.reports import format_share, render_kv_table, render_table


def _emit(*values, sep: str = " ", end: str = "\n") -> None:
    """The designated human-output stdout emitter.

    Every non-JSON stdout write in this module routes through here,
    so "what can write to stdout" is two grep-able functions instead
    of every call site (IO001 in :mod:`repro.devtools`).
    """
    print(*values, sep=sep, end=end)


def _emit_json(document) -> None:
    """The designated machine-JSON stdout emitter.

    Accepts a pre-serialized JSON string or a JSON-able payload; a
    ``--json`` run's stdout is exactly one document emitted here.
    """
    import json

    if not isinstance(document, str):
        document = json.dumps(document, indent=2, sort_keys=True)
    print(document)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    from repro.scenarios.backends import BACKEND_NAMES
    from repro.scenarios.spec import INTERNET_SCALES, VALID_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Keep your Communities Clean'"
            " (CoNEXT 2020)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lab = subparsers.add_parser(
        "lab", help="run the lab experiment matrix (paper §3)"
    )
    lab.add_argument(
        "--vendor",
        help="restrict to one vendor (e.g. junos, cisco, bird)",
        default=None,
    )

    classify = subparsers.add_parser(
        "classify", help="classify announcement types in an MRT file"
    )
    classify.add_argument("file", help="MRT update archive path")
    classify.add_argument(
        "--collector", default="unknown", help="collector label"
    )

    simulate = subparsers.add_parser(
        "simulate", help="simulate one measurement day"
    )
    simulate.add_argument(
        "--scale",
        choices=INTERNET_SCALES,
        default="small",
        help="topology scale (default: small)",
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the RNG seed"
    )

    scenario = subparsers.add_parser(
        "scenario", help="declarative scenario engine"
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_sub.add_parser(
        "list", help="list the registered scenarios"
    )
    scenario_list.add_argument(
        "--kind",
        choices=VALID_KINDS,
        default=None,
        help="restrict to one scenario kind",
    )

    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario and print its metrics"
    )
    scenario_run.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered scenario name (or use --spec-file)",
    )
    scenario_run.add_argument(
        "--spec-file",
        default=None,
        help="run a JSON scenario spec instead of a registry entry",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the spec seed"
    )
    scenario_run.add_argument(
        "--input",
        default=None,
        help="MRT archive path for mrt-replay scenarios",
    )
    scenario_run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "decode the MRT archive on N worker processes (sharded"
            " by session, merged bit-identically; mrt scenarios only)"
        ),
    )
    scenario_run.add_argument(
        "--json",
        action="store_true",
        help="emit the full result as JSON instead of tables",
    )
    scenario_run.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "enable the instrumentation registry for this run and"
            " report phase times, counters and memo hit rates"
        ),
    )
    scenario_run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics report as JSON to FILE (implies --metrics)",
    )
    scenario_run.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append a JSONL run journal (start/heartbeat/finish) to FILE",
    )
    scenario_run.add_argument(
        "--heartbeat-every",
        type=int,
        default=None,
        metavar="N",
        help="journal/progress heartbeat cadence in observations",
    )
    scenario_run.add_argument(
        "--progress",
        action="store_true",
        help="print heartbeat progress lines to stderr while running",
    )
    scenario_run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print a hot-spot summary to stderr",
    )

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="run a multi-seed sweep in parallel"
    )
    scenario_sweep.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered scenario name (omit with --resume)",
    )
    scenario_sweep.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seed list (e.g. 1,2,3)",
    )
    scenario_sweep.add_argument(
        "--seed-count",
        type=int,
        default=4,
        help="number of consecutive seeds when --seeds is absent",
    )
    scenario_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores)",
    )
    scenario_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (re-runs are served from cache)",
    )
    scenario_sweep.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="processes",
        help="execution backend for cache misses (default: processes)",
    )
    scenario_sweep.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help=(
            "shared work directory for --backend queue (default:"
            " <cache-dir>/queue); N invocations pointed at the same"
            " directory drain the sweep cooperatively, each cell"
            " claimed exactly once by atomic rename"
        ),
    )
    scenario_sweep.add_argument(
        "--stale-claim",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --backend queue: requeue a claim whose lease"
            " heartbeat has been silent this long (default 300;"
            " 0 or negative disables requeue entirely)"
        ),
    )
    scenario_sweep.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="per-spec retries before a cell is reported failed",
    )
    scenario_sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per cell, honoured by --backend"
            " processes only; a cell running longer is reaped, charged"
            " one attempt, and retried while --max-retries allows"
        ),
    )
    scenario_sweep.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "base of the deterministic exponential backoff between"
            " retries of a failing cell (default 0.1s: 0.1, 0.2,"
            " 0.4, ...)"
        ),
    )
    scenario_sweep.add_argument(
        "--pool-rebuilds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "times a pool broken by a dying worker is rebuilt wholesale"
            " (unreplied cells resubmitted, nobody charged) before"
            " remaining cells run isolated one-per-pool (default 1)"
        ),
    )
    scenario_sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "finish the sweep recorded in --cache-dir's sweep.json"
            " manifest (recomputes only missing/failed cells)"
        ),
    )
    scenario_sweep.add_argument(
        "--json",
        action="store_true",
        help="emit all results as JSON instead of tables",
    )
    scenario_sweep.add_argument(
        "--status",
        action="store_true",
        help=(
            "render the live status of the sweep recorded in"
            " --cache-dir (done/running/failed/lost/retried cells,"
            " rates, stragglers) and exit without running anything"
        ),
    )
    scenario_sweep.add_argument(
        "--lost-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --status: journal silence past which a running cell"
            " is shown as lost (default: 2x the cell's own heartbeat"
            " interval)"
        ),
    )
    scenario_sweep.add_argument(
        "--progress",
        action="store_true",
        help="print one line to stderr as each cell completes",
    )

    doctor = subparsers.add_parser(
        "doctor",
        help="scan a cache/queue dir for crash debris (and repair it)",
    )
    doctor.add_argument(
        "dir",
        help="cache dir, queue work dir, or a tree holding both",
    )
    doctor.add_argument(
        "--repair",
        action="store_true",
        help=(
            "fix what was found: remove orphan temporaries and"
            " dangling seen markers, requeue zombie claims,"
            " quarantine corrupt files (and rebuild the manifest"
            " from intact cache entries)"
        ),
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit the findings as JSON instead of a table",
    )
    doctor.add_argument(
        "--grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "age past which a live-pid .tmp file counts as an orphan"
            " (default 300; dead-pid temporaries are always orphans)"
        ),
    )
    doctor.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "heartbeat silence past which a queue claim is a zombie"
            " (default 300, matching the sweep's --stale-claim)"
        ),
    )

    from repro.devtools.cli import add_check_parser

    add_check_parser(subparsers)
    return parser


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command in ("lab", "classify", "simulate"):
            return _run_preset(arguments)
        if arguments.command == "scenario":
            return _run_scenario_command(arguments)
        if arguments.command == "doctor":
            return _run_doctor(arguments)
        from repro.devtools.cli import run_check_command

        return run_check_command(arguments)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly instead
        # of tracebacking (and keep the interpreter's shutdown flush
        # from re-raising).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _preset_spec(arguments):
    """The registered scenario behind ``lab``/``simulate``/``classify``,
    with the command's flags applied."""
    from dataclasses import replace

    from repro.scenarios import LabSpec, MrtSpec, get_scenario

    if arguments.command == "lab":
        spec = get_scenario("lab-baseline")
        if arguments.vendor is not None:
            spec = replace(spec, lab=LabSpec(vendors=(arguments.vendor,)))
        return spec
    if arguments.command == "classify":
        spec = replace(
            get_scenario("mrt-replay"),
            mrt=MrtSpec(path=arguments.file, collector=arguments.collector),
        )
    else:
        spec = get_scenario(f"internet-{arguments.scale}")
        if arguments.seed is not None:
            spec = replace(spec, seed=arguments.seed)
    return replace(spec, collectors=("table1", "table2"))


def _run_preset(arguments) -> int:
    """Run a preset's scenario and print its tables (no header line)."""
    from repro.scenarios import ScenarioValidationError, run_scenario

    try:
        result = run_scenario(_preset_spec(arguments))
    except ScenarioValidationError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if result.spec.kind == "mrt" and not result.reader_stats.get(
        "observations"
    ):
        print("no update messages found", file=sys.stderr)
        return 1
    _emit("\n\n".join(_metric_tables(result)))
    return 0


def _run_scenario_command(arguments) -> int:
    if arguments.scenario_command == "list":
        return _scenario_list(arguments)
    if arguments.scenario_command == "run":
        return _scenario_run(arguments)
    return _scenario_sweep(arguments)


def _scenario_list(arguments) -> int:
    from repro.scenarios import all_scenarios

    rows = [
        (spec.name, spec.kind, str(spec.seed), spec.description)
        for spec in all_scenarios()
        if arguments.kind is None or spec.kind == arguments.kind
    ]
    _emit(
        render_table(
            ("name", "kind", "seed", "description"),
            rows,
            title=f"Registered scenarios ({len(rows)})",
        )
    )
    return 0


def _load_run_spec(arguments) -> "tuple[object, Optional[str]]":
    """Resolve the spec for ``scenario run``; returns (spec, error)."""
    from dataclasses import replace

    from repro.scenarios import get_scenario, spec_from_json

    if (arguments.name is None) == (arguments.spec_file is None):
        return None, "provide exactly one of NAME or --spec-file"
    if arguments.spec_file is not None:
        try:
            with open(arguments.spec_file, "r", encoding="utf-8") as handle:
                spec = spec_from_json(handle.read())
        except OSError as exc:
            return None, f"cannot open {arguments.spec_file}: {exc}"
        except ValueError as exc:
            return None, str(exc)
    else:
        spec = get_scenario(arguments.name)
    if arguments.seed is not None:
        spec = replace(spec, seed=arguments.seed)
    overrides = {
        field: value
        for field, value in (
            ("path", arguments.input),
            ("decode_workers", arguments.workers),
        )
        if value is not None
    }
    if overrides:
        from repro.scenarios import MrtSpec

        if spec.kind != "mrt":
            flag = "--input" if "path" in overrides else "--workers"
            return None, (
                f"{flag} only applies to mrt scenarios;"
                f" {spec.name!r} is kind {spec.kind!r}"
            )
        section = spec.mrt if spec.mrt is not None else MrtSpec()
        spec = replace(spec, mrt=replace(section, **overrides))
    return spec, None


def _scenario_run(arguments) -> int:
    import json

    from repro import obs
    from repro.scenarios import (
        CadenceError,
        ScenarioValidationError,
        UnknownScenarioError,
        result_to_json,
        run_journaled,
    )

    want_metrics = arguments.metrics or arguments.metrics_out is not None
    try:
        spec, error = _load_run_spec(arguments)
        if error is not None:
            print(error, file=sys.stderr)
            return 2

        on_heartbeat = None
        if arguments.progress:
            def on_heartbeat(payload) -> None:
                # Progress is human chatter: stderr only, so a --json
                # run's stdout stays one parseable document.
                print(
                    f"[{spec.name}] {payload['observations']:,}"
                    f" observations @"
                    f" {payload['rate_per_second']:,.0f}/s,"
                    f" peak rss {payload['peak_rss_kb']:,} KiB",
                    file=sys.stderr,
                )

        def execute():
            return run_journaled(
                spec,
                arguments.journal,
                heartbeat_every=arguments.heartbeat_every,
                on_heartbeat=on_heartbeat,
            )

        previous = obs.set_metrics_enabled(True) if want_metrics else None
        try:
            if arguments.profile:
                result, profile_text = obs.profile_call(execute)
                print(profile_text, file=sys.stderr)
            else:
                result = execute()
        finally:
            if want_metrics:
                obs.set_metrics_enabled(previous)
    except (
        UnknownScenarioError, ScenarioValidationError, CadenceError
    ) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(message, file=sys.stderr)
        return 2
    if arguments.metrics_out is not None:
        with open(arguments.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(result.metrics_report, indent=2, sort_keys=True)
            )
            handle.write("\n")
    if arguments.json:
        _emit_json(result_to_json(result, indent=2))
        return 0
    _emit(
        f"scenario {result.name} [{spec.kind}]"
        f" seed={spec.seed} hash={result.spec_hash}"
    )
    for table in _metric_tables(result):
        _emit()
        _emit(table)
    stats = result.reader_stats
    if stats:
        _emit(
            f"\nmrt reader: {stats.get('records', 0)} records decoded,"
            f" {stats.get('skipped_records', 0)} skipped (unmodeled"
            f" type), {stats.get('error_records', 0)} damaged-dropped"
        )
    if result.shard_stats:
        rows = [
            (
                str(row.get("shard", index)),
                f"{row.get('records', 0):,}",
                f"{row.get('observations', 0):,}",
                f"{row.get('skipped_records', 0):,}",
                f"{row.get('error_records', 0):,}",
            )
            for index, row in enumerate(result.shard_stats)
        ]
        _emit()
        _emit(
            render_table(
                ("shard", "records", "observations", "skipped", "errors"),
                rows,
                title="Parallel decode shards",
            )
        )
    for name, path in sorted(result.spill_paths.items()):
        _emit(f"\nspilled archive [{name}]: {path}")
    if result.metrics_report:
        _print_metrics_report(result.metrics_report)
    return 0


def _print_metrics_report(report: dict) -> None:
    """Human rendering of a run's instrumentation report."""
    phases = report.get("phases", {})
    if phases:
        rows = [(name, f"{seconds:.3f}s") for name, seconds in phases.items()]
        _emit()
        _emit(render_table(("phase", "wall"), rows, title="Phase timing"))
    counters = report.get("counters", {})
    gauges = report.get("gauges", {})
    if counters or gauges:
        rows = [
            (name, _format_metric_value(value))
            for name, value in list(counters.items()) + list(gauges.items())
        ]
        _emit()
        _emit(render_kv_table(rows, title="Instrumentation"))
    memo = report.get("memo", {})
    busy = {
        name: stats
        for name, stats in memo.items()
        if stats.get("hits") or stats.get("misses")
    }
    if busy:
        rows = [
            (
                name,
                f"{stats['hits']:,}",
                f"{stats['misses']:,}",
                f"{stats['evictions']:,}",
                format_share(stats.get("hit_rate")),
            )
            for name, stats in sorted(busy.items())
        ]
        _emit()
        _emit(
            render_table(
                ("memo", "hits", "misses", "evictions", "hit rate"),
                rows,
                title="Memo effectiveness",
            )
        )


def _run_doctor(arguments) -> int:
    # Imported directly (not via the faults package __init__) so the
    # fault-injection fast path stays free of doctor/runner imports.
    from repro.faults import doctor as doctor_module

    kwargs = {}
    if arguments.grace is not None:
        kwargs["grace_seconds"] = arguments.grace
    if arguments.lease is not None:
        kwargs["lease_seconds"] = arguments.lease
    try:
        report = doctor_module.run_doctor(
            arguments.dir, repair=arguments.repair, **kwargs
        )
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if arguments.json:
        _emit_json(report.to_dict())
    elif report.clean:
        _emit(f"doctor: {report.root}: clean")
    else:
        verb = "repaired" if arguments.repair else "found"
        _emit(
            f"doctor: {report.root}: {verb}"
            f" {len(report.findings)} finding(s)"
        )
        for finding in report.findings:
            status = (
                "repaired"
                if finding.repaired
                else ("unrepaired" if arguments.repair else "found")
            )
            _emit(
                f"  [{finding.kind}] {finding.path}"
                f"\n    {finding.detail}"
                f"\n    repair: {finding.repair} ({status})"
            )
    if report.clean:
        return 0
    if arguments.repair and all(
        finding.repaired for finding in report.findings
    ):
        return 0
    return 1


def _scenario_sweep(arguments) -> int:
    import json

    from repro.scenarios import (
        ScenarioValidationError,
        UnknownScenarioError,
        expand_seeds,
        get_scenario,
        make_backend,
        result_to_json,
        resume_sweep,
        run_sweep,
    )

    if arguments.status:
        return _scenario_sweep_status(arguments)

    on_outcome = None
    if arguments.progress:
        def on_outcome(outcome) -> None:
            state = "done" if outcome.ok else "failed"
            wall = (
                f" in {outcome.wall_seconds:.1f}s"
                if outcome.wall_seconds is not None
                else ""
            )
            retry = (
                f" ({outcome.attempts} attempts)"
                if outcome.attempts > 1
                else ""
            )
            print(
                f"[sweep] {outcome.job.name}: {state}{wall}{retry}",
                file=sys.stderr,
            )

    try:
        queue_dir = arguments.queue_dir
        if arguments.backend == "queue" and queue_dir is None:
            if arguments.cache_dir is None:
                print(
                    "--backend queue needs --queue-dir (or --cache-dir"
                    " to default it to <cache-dir>/queue)",
                    file=sys.stderr,
                )
                return 2
            queue_dir = os.path.join(arguments.cache_dir, "queue")
        backend_kwargs = {}
        if arguments.stale_claim is not None:
            # 0 or negative = explicitly disable stale-claim requeue;
            # unspecified keeps the backend's armed default.
            backend_kwargs["stale_claim_seconds"] = (
                arguments.stale_claim
                if arguments.stale_claim > 0
                else None
            )
        backend = make_backend(
            arguments.backend,
            queue_dir=queue_dir,
            **backend_kwargs,
        )
        if arguments.resume:
            if arguments.name is not None:
                print(
                    "--resume re-derives the sweep from the manifest;"
                    " drop the scenario name",
                    file=sys.stderr,
                )
                return 2
            if arguments.cache_dir is None:
                print("--resume requires --cache-dir", file=sys.stderr)
                return 2
            title = f"Resumed sweep from {arguments.cache_dir}"
            report = resume_sweep(
                arguments.cache_dir,
                workers=arguments.workers,
                backend=backend,
                max_retries=arguments.max_retries,
                on_outcome=on_outcome,
                cell_timeout=arguments.cell_timeout,
                retry_backoff=arguments.retry_backoff,
                pool_rebuilds=arguments.pool_rebuilds,
            )
        else:
            if arguments.name is None:
                print(
                    "provide a scenario name (or --resume with"
                    " --cache-dir)",
                    file=sys.stderr,
                )
                return 2
            base = get_scenario(arguments.name)
            if arguments.seeds is not None:
                seeds = [
                    int(part)
                    for part in arguments.seeds.split(",")
                    if part.strip()
                ]
            else:
                seeds = list(
                    range(base.seed, base.seed + arguments.seed_count)
                )
            if not seeds:
                print("no seeds to sweep", file=sys.stderr)
                return 2
            specs = expand_seeds(base, seeds)
            title = f"Sweep of {arguments.name}: {len(seeds)} seeds"
            report = run_sweep(
                specs,
                workers=arguments.workers,
                cache_dir=arguments.cache_dir,
                backend=backend,
                max_retries=arguments.max_retries,
                on_outcome=on_outcome,
                cell_timeout=arguments.cell_timeout,
                retry_backoff=arguments.retry_backoff,
                pool_rebuilds=arguments.pool_rebuilds,
            )
    except (UnknownScenarioError, ScenarioValidationError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(message, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad sweep arguments: {exc}", file=sys.stderr)
        return 2
    for failure in report.failures:
        print(failure.describe(), file=sys.stderr)
    if arguments.json:
        # Stable schema: always the list of completed results.
        # Failures go to stderr/exit code here and, with --cache-dir,
        # into the sweep.json manifest for machine consumption.
        payload = [
            json.loads(result_to_json(result)) for result in report.results
        ]
        _emit_json(payload)
        return 1 if report.failures else 0
    rows = [
        (result.name, result.spec_hash, _sweep_summary(result))
        for result in report.results
    ]
    _emit(
        render_table(
            ("scenario", "spec hash", "summary"),
            rows,
            title=f"{title}, {report.workers} worker(s)",
        )
    )
    _emit(
        f"cache: {report.cache_hits} hit(s), {report.cache_misses}"
        f" miss(es); backend {report.backend};"
        f" wall-clock {report.elapsed_seconds:.2f}s"
    )
    if report.cell_wall_seconds:
        median = report.cell_seconds_percentile(0.5)
        slowest = report.cell_seconds_percentile(1.0)
        _emit(
            f"cells: {report.total_cell_seconds():.2f}s compute total;"
            f" median {median:.2f}s, slowest {slowest:.2f}s;"
            f" {report.retried_cells()} retried"
        )
    if report.skipped:
        _emit(
            f"cooperating: {report.skipped} cell(s) left to other"
            f" invocations (shared cache converges once every queue"
            f" claimant has run)"
        )
    if report.failures:
        if report.cache_dir is not None:
            advice = (
                f"rerun with --resume --cache-dir {report.cache_dir}"
                " to retry only those"
            )
        else:
            advice = (
                "rerun with --cache-dir to make the sweep resumable"
            )
        _emit(f"{len(report.failures)} cell(s) failed; {advice}")
        return 1
    return 0


def _scenario_sweep_status(arguments) -> int:
    """``repro scenario sweep --status``: the live-status view.

    Reads only the manifest and journals under ``--cache-dir`` — it
    never touches a running sweep, so it is safe to point at one
    mid-flight (or at a dead one, post-mortem).
    """
    import json

    from repro.obs import collect_sweep_status, render_sweep_status

    if arguments.cache_dir is None:
        print("--status requires --cache-dir", file=sys.stderr)
        return 2
    try:
        status = collect_sweep_status(
            arguments.cache_dir, lost_after=arguments.lost_after
        )
    except ValueError as exc:
        print(f"bad status arguments: {exc}", file=sys.stderr)
        return 2
    if not status.cells:
        print(
            f"no sweep manifest found in {arguments.cache_dir}",
            file=sys.stderr,
        )
        return 2
    if arguments.json:
        # Machine payload on stdout, like every other --json mode.
        _emit_json(status.as_dict())
    else:
        # Status is a monitoring view: keep it on stderr so watching a
        # sweep never contaminates stdout captures/pipes.
        print(render_sweep_status(status), file=sys.stderr)
    return 0


def _sweep_summary(result) -> str:
    """One-line headline metric for a sweep row."""
    counts = result.metrics.get("update_counts")
    if counts is not None:
        return (
            f"{counts['announcements']} ann /"
            f" {counts['withdrawals']} wd"
        )
    matrix = result.metrics.get("lab_matrix")
    if matrix is not None:
        return (
            f"{len(matrix['rows'])} cells,"
            f" {matrix['duplicates_at_collector']} duplicate(s)"
        )
    return ", ".join(sorted(result.metrics)) or "-"


def _metric_tables(result) -> "list[str]":
    """Each collector's metrics as one rendered table, in spec order.

    The one renderer behind ``scenario run`` and the preset commands:
    the lab matrix and Tables 1/2 in the paper's layout, any other
    collector as a flat metric/value dump.
    """
    from dataclasses import fields

    from repro.analysis.tables import TYPE_DESCRIPTIONS, Table1

    tables = []
    for name in result.spec.collectors:
        metrics = result.metrics.get(name, {})
        if name == "lab_matrix":
            tables.append(
                render_table(
                    metrics["headers"],
                    metrics["rows"],
                    title="Lab behavior matrix (paper §3)",
                )
            )
        elif name == "table1":
            table1 = Table1(
                **{field.name: metrics[field.name] for field in fields(Table1)}
            )
            tables.append(
                render_kv_table(table1.as_rows(), title="Table 1: overview")
            )
        elif name == "table2":
            full = metrics["full_shares"]
            beacon = metrics["beacon_shares"] or {}
            rows = [
                (
                    kind.value,
                    description,
                    format_share(full[kind.value]),
                    format_share(beacon.get(kind.value)),
                )
                for kind, description in TYPE_DESCRIPTIONS.items()
            ]
            tables.append(
                render_table(
                    ("type", "observed changes", "share", "beacons"),
                    rows,
                    title="Table 2: announcement types",
                )
            )
        else:
            rows = [
                (key, _format_metric_value(value))
                for key, value in metrics.items()
                if not isinstance(value, (dict, list))
            ]
            for key, value in metrics.items():
                if isinstance(value, dict):
                    rows.extend(
                        (f"{key}.{sub}", _format_metric_value(item))
                        for sub, item in value.items()
                        if not isinstance(item, (dict, list))
                    )
            tables.append(render_kv_table(rows, title=f"Collector: {name}"))
    return tables


def _format_metric_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
