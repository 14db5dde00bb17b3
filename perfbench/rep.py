"""One repetition of one workload, in a fresh process.

Usage (from the root of a checkout; ``run.py`` writes the config)::

    python3 perfbench/rep.py CONFIG.json

Modes:

* ``run`` — drive the workload through ``repro.cli.main`` with the
  given argv, stdout captured to ``config["stdout"]``;
* ``setup-only`` — the same, but exit as soon as set-up ends;
* ``generate`` — build the ``mar20-replay`` archive: the
  ``internet-mar20`` spec under ``archive_policy=mrt-spill``, both
  collectors' spill files concatenated in collector-name order, plus
  the live metrics that the replay must reproduce.

The report (JSON, ``config["report"]``) carries the set-up boundary
time on this machine's monotonic clock, which ``perf_counter`` reads
in every process on Linux, so the parent can subtract its own spawn
time.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _write_json(path: str, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def _peak_rss_mb() -> float:
    """Highest RSS of this process and every reaped descendant (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _sweep_manifest(cache_dir: str) -> dict:
    from repro import durable

    text = durable.read_durable(os.path.join(cache_dir, "sweep.json"))
    cells = json.loads(text)["cells"]
    return {
        "attempts": sum(int(cell.get("attempts", 0)) for cell in cells.values()),
        "cell_seconds": sorted(
            cell["finished_at"] - cell["started_at"]
            for cell in cells.values()
            if cell.get("started_at") is not None
            and cell.get("finished_at") is not None
        ),
        "failed_cells": sum(
            1 for cell in cells.values() if cell.get("state") != "done"
        ),
    }


def _generate(config: dict, report: dict) -> None:
    """Spill the mar20 day to disk and keep the archive + live metrics."""
    import dataclasses

    from repro.scenarios import get_scenario, run_scenario, spec_hash

    spec = get_scenario("internet-mar20")
    spec = dataclasses.replace(
        spec,
        seed=config["workload_seed"],
        internet=dataclasses.replace(
            spec.internet, archive_policy="mrt-spill"
        ),
    )
    result = run_scenario(spec)
    archive = config["archive"]
    digest = hashlib.sha256()
    with open(f"{archive}.tmp", "wb") as out:
        for name in sorted(result.spill_paths):
            with open(result.spill_paths[name], "rb") as handle:
                while True:
                    block = handle.read(1 << 20)
                    if not block:
                        break
                    digest.update(block)
                    out.write(block)
    os.replace(f"{archive}.tmp", archive)
    for path in result.spill_paths.values():
        os.unlink(path)
    report["sidecar"] = {
        "spec_hash": spec_hash(spec),
        "workload_seed": config["workload_seed"],
        "collectors": sorted(result.spill_paths),
        "bytes": os.path.getsize(archive),
        "sha256": digest.hexdigest(),
        "live_metrics": result.metrics,
    }


def main(config_path: str) -> int:
    with open(config_path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    sys.path.insert(0, os.path.join(config["root"], "src"))
    import layers

    workload = config["workload"]
    mode = config["mode"]
    report: dict = {"started": STARTED}
    tracer = layers.Tracer(STARTED) if config.get("traced") else None

    def stop_after_setup() -> None:
        report["setup_at"] = boundary.at
        report["peak_rss_mb"] = _peak_rss_mb()
        _write_json(config["report"], report)
        os._exit(0)

    boundary = layers.Boundary(
        stop_after_setup if mode == "setup-only" else None
    )
    import repro.cli

    if mode == "generate":
        _generate(config, report)
        report["peak_rss_mb"] = _peak_rss_mb()
        _write_json(config["report"], report)
        return 0

    layers.install_boundary(workload, boundary)
    if tracer is not None:
        if mode == "sharded":
            layers.install_parallel_spans(tracer)
        else:
            layers.install_tracing(tracer, workload, config.get("worker_dir"))
    with open(config["stdout"], "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            report["exit_code"] = repro.cli.main(config["argv"])
    report["setup_at"] = boundary.at

    from repro.netbase.memo import memo_stats

    report["memo"] = memo_stats()
    if workload == "mar20-day" and boundary.subject is not None:
        network = boundary.subject
        report["counts"] = layers.day_counts(network)
        report["counts"]["peak_pending_events"] = network.queue.peak_pending
    if workload == "sweep-tiny":
        report["sweep"] = _sweep_manifest(config["cache_dir"])
    if tracer is not None:
        tracer.finish()
        report["finished"] = time.perf_counter()
        report["ledger"] = tracer.ledger_rows()
        report["trace_counts"] = tracer.counts
        if "events" in tracer.converge_state:
            report["converge_events"] = tracer.converge_state["events"]
    report["peak_rss_mb"] = _peak_rss_mb()
    _write_json(config["report"], report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
