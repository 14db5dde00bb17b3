"""Parallel sharded MRT replay: index, fan out, decode, merge.

The serial :func:`~repro.pipeline.stream.replay_mrt` decodes one
archive on one core.  This module is the fan-out half of the story:

1. :func:`~repro.mrt.shard.plan_shards` partitions the archive by
   session so every per-(session, prefix) classification stream lands
   wholly in one shard (§5 semantics preserved by construction);
2. each shard is decoded and classified by a worker process via the
   same JSON-strings-only protocol the sweep backends speak — archive
   path plus byte ranges in, exported collector-proxy state plus
   reader stats out;
3. the coordinator folds the shard states back into the caller's proxy
   in shard-index order, so the merged result is byte-identical to
   the serial pass (``bench_analysis.py --verify`` pins this at every
   worker count).

Failure policy is strictly all-or-nothing: if planning, dispatch or
any single worker fails, nothing has touched the caller's sink yet,
the ``mrt.shard.fallback`` counter ticks, and the caller reruns the
plain serial path — same results, same error behavior, one core.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.mrt.shard import RangeStream, ShardIndexError, plan_shards
from repro.obs import metrics as obs_metrics

#: Gated counter ticked once per sharded replay that degraded to
#: serial (damaged archive, dead worker pool, failing shard).
FALLBACK_COUNTER = "mrt.shard.fallback"

#: Gated phase span recording each worker's decode wall time; shows up
#: as ``mrt.decode.shard`` next to the engine's other phase timers.
SHARD_PHASE = "mrt.decode.shard"

#: Reader-stat keys that sum across shards into the serial totals.
STAT_KEYS = (
    "records",
    "skipped_records",
    "error_records",
    "messages",
    "observations",
)


def shard_collectors(sink) -> "Optional[List[str]]":
    """The collector names a worker rebuilds *sink* from, or None.

    Only a :class:`~repro.scenarios.collectors.CollectorProxy` whose
    collectors all merge shard state can shard; any other sink takes
    the serial path.
    """
    # Late import: the scenario layer sits above the pipeline.
    from repro.scenarios.collectors import CollectorProxy

    if not isinstance(sink, CollectorProxy) or not sink.supports_merge:
        return None
    return [collector.name for collector in sink.collectors]


def decode_shard_json(job_json: str) -> str:
    """Worker entry point: decode one shard, return its state as JSON.

    Module-level and strings-in/strings-out so it runs identically
    inline (workers=1) and in a process pool.  Exceptions never
    propagate across the pool: they come back as an ``error`` reply,
    and the coordinator turns any error into a whole-archive serial
    fallback.
    """
    job = json.loads(job_json)
    try:
        started = time.perf_counter()
        from repro.pipeline.stream import replay_mrt
        from repro.scenarios.collectors import make_collectors

        sink = make_collectors(job["collectors"])
        stats: "Dict[str, int]" = {}
        with open(job["path"], "rb") as handle:
            stream = RangeStream(
                handle, [tuple(item) for item in job["ranges"]]
            )
            replay_mrt(
                stream,
                sink,
                collector=job["collector"],
                tolerant=job["tolerant"],
                stats=stats,
            )
        reply = {
            "shard_index": job["shard_index"],
            "reader_stats": stats,
            "state": sink.export_state(),
            "elapsed_seconds": time.perf_counter() - started,
        }
    except Exception as exc:  # noqa: BLE001 — becomes a serial fallback
        reply = {
            "shard_index": job.get("shard_index"),
            "error": f"{type(exc).__name__}: {exc}",
        }
    return json.dumps(reply, sort_keys=True)


def try_sharded_replay(
    path: str,
    *,
    workers: int,
    collectors: "List[str]",
    collector: str = "mrt",
    tolerant: bool = True,
) -> "Optional[List[dict]]":
    """Plan, dispatch and collect a sharded decode of one archive.

    Returns the worker replies in shard-index order, or ``None`` when
    anything at all went wrong — in which case the caller's sink is
    guaranteed untouched and the serial path must run instead.
    """
    try:
        plan = plan_shards(path, workers)
    except (ShardIndexError, OSError):
        obs_metrics.count(FALLBACK_COUNTER)
        return None
    jobs = [
        json.dumps(
            {
                "path": plan.path,
                "ranges": [list(item) for item in shard.ranges],
                "collector": collector,
                "tolerant": tolerant,
                "collectors": collectors,
                "shard_index": shard.index,
            },
            sort_keys=True,
        )
        for shard in plan.shards
    ]
    # Late import: backends sits above the pipeline layer (it imports
    # the scenario engine, which imports this package).
    from repro.scenarios.backends import ProcessBackend

    try:
        replies_json = ProcessBackend().map_json(
            decode_shard_json, jobs, workers=workers
        )
        replies = [json.loads(reply) for reply in replies_json]
    except Exception:  # noqa: BLE001 — pool death degrades to serial
        obs_metrics.count(FALLBACK_COUNTER)
        return None
    if any("error" in reply for reply in replies):
        obs_metrics.count(FALLBACK_COUNTER)
        return None
    for reply in replies:
        # Coordinator-side so the spans survive the process boundary;
        # gated like every phase timer.
        obs_metrics.record_timing(
            f"phase.{SHARD_PHASE}", reply["elapsed_seconds"]
        )
    return replies


def merge_replies(
    sink,
    replies: "List[dict]",
    *,
    stats: "Optional[Dict[str, int]]" = None,
    shard_stats: "Optional[List[dict]]" = None,
) -> "Dict[str, int]":
    """Fold worker replies into *sink*, in shard-index order.

    Returns the summed reader stats; optionally fills the caller's
    *stats* dict (serial ``replay_mrt`` shape) and appends one
    per-shard stats row to *shard_stats*.
    """
    totals = {key: 0 for key in STAT_KEYS}
    for reply in replies:
        sink.merge_state(reply["state"])
        reader_stats = reply["reader_stats"]
        for key in STAT_KEYS:
            totals[key] += int(reader_stats.get(key, 0))
        if shard_stats is not None:
            shard_stats.append(
                {
                    "shard": int(reply["shard_index"]),
                    **{
                        key: int(reader_stats.get(key, 0))
                        for key in STAT_KEYS
                    },
                }
            )
    if stats is not None:
        stats.update(totals)
    return totals
