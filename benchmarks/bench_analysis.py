#!/usr/bin/env python
"""Read-path benchmark: MRT decode -> wire parse -> classification.

The write side (simulator core) is guarded by ``bench_core.py``; this
harness guards the *read* side — the path a month of RouteViews /
RIPE RIS archives takes through :class:`~repro.mrt.reader.MRTReader`,
:func:`~repro.bgp.wire.decode_message_from` and
:class:`~repro.analysis.classify.UpdateClassifier`.

A spilled MRT archive is generated with the existing ``mrt-spill``
collector policy, amplified by concatenation (MRT records are
self-framing, so N copies of an archive are one N-times-longer
archive), and then measured three ways:

* ``decode_only_records_per_sec`` — raw ``MRTReader`` iteration;
* ``decode_classify_obs_per_sec`` — ``replay_mrt`` into a live
  ``UpdateClassifier`` (the paper's §5 pipeline);
* ``scenario_obs_per_sec`` — the full ``mrt-replay`` scenario with its
  metric collectors, through ``run_scenario``.

Every run also *verifies* the fast path in the style of
``bench_core.py --verify``: the archive is decoded twice — decode
memo caches on and off — and the classification counts, record counts
and a fingerprint over every re-encoded record must be bit-identical,
proving the interning caches are a pure optimization.

Since the parallel sharded decode landed, every run additionally
verifies the sharded path: classifier state + reader stats must
fingerprint identically to the serial pass at every requested worker
count with zero ``mrt.shard.fallback`` ticks, and a worker-count
scaling curve (``parallel_decode_classify_obs_per_sec``) is recorded
next to the serial rates, together with the box's ``cpu_count`` so a
flat curve on a small machine reads as hardware, not regression.

Usage::

    python benchmarks/bench_analysis.py            # both rungs, repeat 3
    python benchmarks/bench_analysis.py --quick    # smallest rung, 1 repeat
    python benchmarks/bench_analysis.py --verify   # correctness only
    python benchmarks/bench_analysis.py --min-throughput-ratio 1.0

``--min-throughput-ratio R`` fails the run unless the measured
decode+classify and full-scenario rates each reach ``R x`` the
recorded pre-overhaul baseline in ``BENCH_analysis.json`` (CI runs
the quick rung this way, with ``--workers 2`` pinning the
sharded-vs-serial verify).
``--verify`` runs only the equivalence checks — fast-vs-naive and
sharded-vs-serial at every ``--workers`` count — and writes nothing.

The amplified archives are cached under ``--archive-cache`` (default:
a ``repro-bench-archives`` dir in the system temp dir), keyed by
(spill scenario spec hash, amplification factor) and validated by
size+sha256 on every hit, so repeated quick runs stop paying the
spill cost; ``--refresh-archives`` forces regeneration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
import tempfile
import time
from dataclasses import replace

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.analysis.classify import TYPE_ORDER, UpdateClassifier  # noqa: E402
from repro.bgp.wire import encode_message  # noqa: E402
from repro.mrt.reader import MRTReader  # noqa: E402
from repro.netbase.memo import set_memo_enabled  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.pipeline.parallel import FALLBACK_COUNTER  # noqa: E402
from repro.pipeline.stream import replay_mrt  # noqa: E402
from repro.scenarios import get_scenario, run_scenario, spec_hash  # noqa: E402
from repro.simulator.session import BGPSession  # noqa: E402

#: config name -> (spill scenario, amplification factor).
CONFIGS = {
    "small-x8": ("internet-small-spill", 8),
    "small-x32": ("internet-small-spill", 32),
}
DEFAULT_SCENARIOS = ("small-x8", "small-x32")
QUICK_SCENARIOS = ("small-x8",)
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)
QUICK_WORKER_COUNTS = (2,)


def default_archive_cache() -> str:
    """Shared cache dir for amplified bench archives."""
    return os.path.join(tempfile.gettempdir(), "repro-bench-archives")


def set_fast_decode(enabled: bool) -> None:
    """Toggle every read-path memo cache as one unit."""
    set_memo_enabled(enabled)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cached_archive(cache_dir: str, config: str) -> "tuple[str, str]":
    """(archive path, sidecar path) for *config* in the cache dir.

    The key covers the spill scenario's spec hash and the amplification
    factor — the two inputs that determine the archive bytes — so a
    scenario-spec change naturally misses the cache.
    """
    scenario, amplify = CONFIGS[config]
    key = f"{scenario}-{spec_hash(get_scenario(scenario))}-x{amplify}"
    base = os.path.join(cache_dir, key + ".mrt")
    return base, base + ".json"


def build_archive(
    config: str,
    keep_dir: "str | None",
    cache_dir: "str | None" = None,
    refresh: bool = False,
) -> "tuple[str, bool]":
    """Produce the spilled+amplified archive for *config*.

    Returns ``(path, cleanup)`` where *cleanup* tells the caller the
    path is a throwaway tempfile it owns.  Cached archives (keyed by
    spill-spec hash + amplification, validated by size and sha256) and
    ``keep_dir`` archives are never cleanup targets.
    """
    scenario, amplify = CONFIGS[config]
    cached = sidecar = None
    if keep_dir is None and cache_dir is not None:
        cached, sidecar = _cached_archive(cache_dir, config)
        if not refresh and os.path.exists(cached) and os.path.exists(sidecar):
            try:
                with open(sidecar, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                entry = None
            if (
                entry
                and os.path.getsize(cached) == entry.get("bytes")
                and _sha256_file(cached) == entry.get("sha256")
            ):
                print(f"{config}: reusing cached archive {cached}")
                return cached, False
    BGPSession._counter = 0
    result = run_scenario(get_scenario(scenario))
    spill_paths = list(result.spill_paths.values())
    if not spill_paths:
        raise SystemExit(
            f"scenario {scenario!r} spilled no archive; it must use"
            f" archive_policy=mrt-spill"
        )
    with open(spill_paths[0], "rb") as handle:
        blob = handle.read()
    for path in spill_paths:
        os.unlink(path)
    out_dir = keep_dir
    if cached is not None:
        os.makedirs(cache_dir, exist_ok=True)
        out_dir = cache_dir
    handle, out_path = tempfile.mkstemp(
        prefix=f"bench-analysis-{config}-", suffix=".mrt", dir=out_dir
    )
    with os.fdopen(handle, "wb") as out:
        for _ in range(amplify):
            out.write(blob)
    if cached is not None:
        os.replace(out_path, cached)
        with open(sidecar, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "scenario": scenario,
                    "amplify": amplify,
                    "bytes": os.path.getsize(cached),
                    "sha256": _sha256_file(cached),
                },
                out,
                indent=2,
                sort_keys=True,
            )
            out.write("\n")
        return cached, False
    return out_path, keep_dir is None


def archive_fingerprint(path: str) -> "tuple[str, int, dict]":
    """(sha256-16 over every re-encoded record, count, type counts).

    The fingerprint covers the decoded *values* — envelope fields and
    the re-encoded BGP wire bytes — so two decode paths that produce
    it identically decoded every record bit-identically.
    """
    digest = hashlib.sha256()
    count = 0
    with open(path, "rb") as handle:
        reader = MRTReader(handle, tolerant=True)
        for record in reader:
            digest.update(
                struct.pack(
                    "!dII", record.timestamp, int(record.peer_asn),
                    int(record.local_asn),
                )
            )
            digest.update(record.peer_address.encode())
            digest.update(record.local_address.encode())
            digest.update(encode_message(record.message))
            count += 1
        digest.update(
            struct.pack("!II", reader.skipped_records, reader.error_records)
        )
    classifier = UpdateClassifier()
    replay_mrt(path, classifier, collector="bench")
    types = {
        kind.value: classifier.counts.counts[kind] for kind in TYPE_ORDER
    }
    return digest.hexdigest()[:16], count, types


def verify_fast_vs_naive(config: str, path: str) -> dict:
    """Decode the archive with memos on and off; require identity."""
    set_fast_decode(True)
    fast_print, fast_count, fast_types = archive_fingerprint(path)
    set_fast_decode(False)
    try:
        naive_print, naive_count, naive_types = archive_fingerprint(path)
    finally:
        set_fast_decode(True)
    match = (
        fast_print == naive_print
        and fast_count == naive_count
        and fast_types == naive_types
    )
    print(
        f"{config}: fast={fast_print} naive={naive_print}"
        f" ({fast_count} records) ->"
        f" {'IDENTICAL' if match else 'MISMATCH'}"
    )
    if not match:
        raise SystemExit(
            f"verification failure on {config}: the decode memo caches"
            f" changed output (fast {fast_print}/{fast_types} vs naive"
            f" {naive_print}/{naive_types})"
        )
    return {
        "archive_fingerprint": fast_print,
        "records": fast_count,
        "classified_types": fast_types,
    }


def classify_fingerprint(
    path: str, workers: "int | None" = None
) -> "tuple[str, int]":
    """(sha256-16 over classifier state + reader stats, fallback ticks).

    The fingerprint covers the full exported classifier state — every
    §5 type count, unclassified-first and withdrawal tallies — plus the
    reader's record/skip/error/observation totals, so a sharded run
    that matches the serial fingerprint decoded, classified and merged
    bit-identically.  Fallback ticks are read from the gated
    ``mrt.shard.fallback`` counter; a verified run must show zero.
    """
    classifier = UpdateClassifier()
    stats: dict = {}
    with obs_metrics.enabled_scope():
        obs_metrics.reset_metrics()
        replay_mrt(
            path, classifier, collector="bench", stats=stats, workers=workers
        )
        fallbacks = obs_metrics.registry().counter_value(FALLBACK_COUNTER)
    payload = json.dumps(
        {"state": classifier.export_state(), "stats": stats},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16], fallbacks


def verify_sharded_vs_serial(
    config: str, path: str, worker_counts: "tuple[int, ...]"
) -> dict:
    """Require the sharded decode to match serial at every worker count."""
    serial_print, _ = classify_fingerprint(path)
    for workers in worker_counts:
        sharded_print, fallbacks = classify_fingerprint(path, workers=workers)
        match = sharded_print == serial_print and fallbacks == 0
        print(
            f"{config}: sharded workers={workers} {sharded_print}"
            f" vs serial {serial_print} ({fallbacks} fallback(s)) ->"
            f" {'IDENTICAL' if match else 'MISMATCH'}"
        )
        if not match:
            raise SystemExit(
                f"verification failure on {config}: sharded decode at"
                f" workers={workers} diverged from serial (sharded"
                f" {sharded_print} vs serial {serial_print},"
                f" {fallbacks} fallback(s))"
            )
    return {
        "sharded_fingerprint": serial_print,
        "sharded_verified_workers": [int(count) for count in worker_counts],
    }


def measure_parallel_classify(path: str, workers: int) -> "tuple[float, int]":
    classifier = UpdateClassifier()
    stats: dict = {}
    started = time.perf_counter()
    observations = replay_mrt(
        path, classifier, collector="bench", stats=stats, workers=workers
    )
    elapsed = time.perf_counter() - started
    return (observations / elapsed if elapsed else 0.0, observations)


def measure_decode_only(path: str) -> "tuple[float, int]":
    count = 0
    with open(path, "rb") as handle:
        started = time.perf_counter()
        for _record in MRTReader(handle, tolerant=True):
            count += 1
        elapsed = time.perf_counter() - started
    return (count / elapsed if elapsed else 0.0, count)


def measure_decode_classify(path: str) -> "tuple[float, int]":
    classifier = UpdateClassifier()
    started = time.perf_counter()
    observations = replay_mrt(path, classifier, collector="bench")
    elapsed = time.perf_counter() - started
    return (observations / elapsed if elapsed else 0.0, observations)


def measure_scenario(path: str) -> "tuple[float, int]":
    spec = get_scenario("mrt-replay")
    spec = replace(spec, mrt=replace(spec.mrt, path=path))
    started = time.perf_counter()
    result = run_scenario(spec)
    elapsed = time.perf_counter() - started
    observations = result.reader_stats.get("observations", 0)
    return (observations / elapsed if elapsed else 0.0, observations)


def best_rate(measure, path: str, repeat: int) -> "tuple[float, int]":
    best = (0.0, 0)
    for _ in range(max(1, repeat)):
        rate, count = measure(path)
        if rate > best[0]:
            best = (rate, count)
    return best


def run_config(
    config: str,
    repeat: int,
    keep_dir: "str | None",
    worker_counts: "tuple[int, ...]",
    cache_dir: "str | None",
    refresh: bool,
) -> dict:
    path, cleanup = build_archive(config, keep_dir, cache_dir, refresh)
    archive_bytes = os.path.getsize(path)
    try:
        checks = verify_fast_vs_naive(config, path)
        checks.update(verify_sharded_vs_serial(config, path, worker_counts))
        decode_rate, records = best_rate(measure_decode_only, path, repeat)
        classify_rate, observations = best_rate(
            measure_decode_classify, path, repeat
        )
        scenario_rate, _ = best_rate(measure_scenario, path, repeat)
        curve = {}
        for workers in worker_counts:
            rate, _ = best_rate(
                lambda p, w=workers: measure_parallel_classify(p, w),
                path,
                repeat,
            )
            curve[str(workers)] = round(rate, 1)
    finally:
        if cleanup:
            try:
                os.unlink(path)
            except OSError:
                pass
    result = {
        "scenario": config,
        "archive_bytes": archive_bytes,
        "records": records,
        "observations": observations,
        "decode_only_records_per_sec": round(decode_rate, 1),
        "decode_classify_obs_per_sec": round(classify_rate, 1),
        "scenario_obs_per_sec": round(scenario_rate, 1),
        "parallel_decode_classify_obs_per_sec": curve,
        "cpu_count": os.cpu_count(),
    }
    result.update(checks)
    curve_text = ", ".join(
        f"{workers}w {rate:,.0f}" for workers, rate in curve.items()
    )
    print(
        f"{config}: decode {decode_rate:,.0f} rec/s,"
        f" decode+classify {classify_rate:,.0f} obs/s,"
        f" scenario {scenario_rate:,.0f} obs/s,"
        f" parallel [{curve_text}] obs/s"
        f" ({records} records)"
    )
    return result


#: Throughputs floored against the recorded baseline block: the bare
#: decode+classify read path, and the full collector scenario on top.
FLOORED_METRICS = ("decode_classify_obs_per_sec", "scenario_obs_per_sec")


def check_throughput_floor(runs, baseline: dict, min_ratio: float) -> None:
    """Fail unless every floored rate clears min_ratio x the baseline."""
    problems = []
    for metric in FLOORED_METRICS:
        recorded = baseline.get(metric, {})
        for run in runs:
            before = recorded.get(run["scenario"])
            if not before:
                continue
            ratio = run[metric] / before
            print(
                f"{run['scenario']} {metric}: {ratio:.2f}x the recorded"
                f" pre-overhaul baseline ({before:,.0f} obs/s)"
            )
            if ratio < min_ratio:
                problems.append(
                    f"{run['scenario']} {metric}:"
                    f" {run[metric]:,.0f} obs/s is {ratio:.2f}x baseline"
                    f" {before:,.0f} (floor {min_ratio})"
                )
    if problems:
        raise SystemExit(
            "read-path throughput floor violated:\n  "
            + "\n  ".join(problems)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the MRT decode -> classify read path."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: smallest archive only, one repeat",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="equivalence checks only (fast-vs-naive and"
        " sharded-vs-serial); no timing, no report written",
    )
    parser.add_argument(
        "--workers",
        default=None,
        metavar="CSV",
        help=f"comma-separated worker counts for the sharded verify and"
        f" scaling curve (default:"
        f" {','.join(str(count) for count in DEFAULT_WORKER_COUNTS)};"
        f" quick default:"
        f" {','.join(str(count) for count in QUICK_WORKER_COUNTS)})",
    )
    parser.add_argument(
        "--archive-cache",
        default=default_archive_cache(),
        metavar="DIR",
        help="cache amplified archives in DIR, keyed by spill-spec hash"
        " and amplification (default: repro-bench-archives under the"
        " system temp dir)",
    )
    parser.add_argument(
        "--no-archive-cache",
        action="store_true",
        help="always rebuild archives in throwaway tempfiles",
    )
    parser.add_argument(
        "--refresh-archives",
        action="store_true",
        help="rebuild cached archives even on a cache hit",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help=f"comma-separated config names (default:"
        f" {','.join(DEFAULT_SCENARIOS)}; known: {','.join(CONFIGS)})",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="measured runs per stage; the best is recorded (default 3)",
    )
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=None,
        help="fail unless decode+classify and the full scenario reach"
        " this fraction of the recorded baseline (CI uses 1.0;"
        " default: report only)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="read the recorded baseline block from FILE instead of"
        " --output (CI points this at the tracked"
        " BENCH_analysis.json while writing to a scratch output)",
    )
    parser.add_argument(
        "--keep-archive",
        default=None,
        metavar="DIR",
        help="write the amplified archives into DIR and keep them",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_analysis.json",
        ),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.scenarios:
        scenarios = tuple(
            name.strip() for name in args.scenarios.split(",") if name.strip()
        )
        unknown = [name for name in scenarios if name not in CONFIGS]
        if unknown:
            parser.error(f"unknown config(s): {', '.join(unknown)}")
    elif args.quick:
        scenarios = QUICK_SCENARIOS
    else:
        scenarios = DEFAULT_SCENARIOS
    repeat = 1 if args.quick else args.repeat

    if args.workers:
        try:
            worker_counts = tuple(
                int(part.strip())
                for part in args.workers.split(",")
                if part.strip()
            )
        except ValueError:
            parser.error(f"--workers must be a CSV of integers, got"
                         f" {args.workers!r}")
        if not worker_counts or any(count < 1 for count in worker_counts):
            parser.error("--workers counts must be integers >= 1")
    elif args.quick:
        worker_counts = QUICK_WORKER_COUNTS
    else:
        worker_counts = DEFAULT_WORKER_COUNTS
    cache_dir = None if args.no_archive_cache else args.archive_cache

    if args.verify:
        for config in scenarios:
            path, cleanup = build_archive(
                config, args.keep_archive, cache_dir, args.refresh_archives
            )
            try:
                verify_fast_vs_naive(config, path)
                verify_sharded_vs_serial(config, path, worker_counts)
            finally:
                if cleanup:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
        print("verification passed; no report written")
        return 0

    runs = [
        run_config(
            config, repeat, args.keep_archive, worker_counts, cache_dir,
            args.refresh_archives,
        )
        for config in scenarios
    ]

    report = {
        "version": 1,
        "quick": bool(args.quick),
        "repeat": repeat,
        "runs": runs,
    }

    # Merge with any existing report: keep the recorded baseline block
    # and entries for configs not re-run this time, so a --quick smoke
    # run never erases the full numbers.
    baseline = {}
    if os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                previous_report = json.load(handle)
        except (OSError, ValueError):
            previous_report = {}
        baseline = previous_report.get("baseline", {})
        fresh = {run["scenario"] for run in runs}
        kept = [
            run
            for run in previous_report.get("runs", [])
            if run.get("scenario") not in fresh
        ]
        report["runs"] = sorted(
            kept + runs, key=lambda run: run.get("scenario", "")
        )

    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle).get("baseline", {})
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"cannot read baseline from {args.baseline!r}: {exc}"
            )
    if baseline:
        report["baseline"] = baseline
        speedups = {}
        recorded = baseline.get("decode_classify_obs_per_sec", {})
        for run in runs:
            before = recorded.get(run["scenario"])
            if before:
                speedups[run["scenario"]] = round(
                    run["decode_classify_obs_per_sec"] / before, 2
                )
        if speedups:
            report["speedup_vs_baseline"] = speedups

    if args.min_throughput_ratio is not None:
        check_throughput_floor(runs, baseline, args.min_throughput_ratio)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(args.output)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
