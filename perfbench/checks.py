"""Output checks, fingerprints and the ledger-sum rule.

Pure functions over JSON-shaped data, shared by ``run.py`` and
``selftest.py``; nothing here imports the program.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Iterable, List, Optional

#: Every metric, workload and ledger row name must match this.
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: The ledger rows of a traced repetition — in-process spans, one
#: unattributed row per phase, and the interpreter's start-up and exit
#: as the parent measured them — must sum to the wall time the parent
#: measured within this share of it (or this many seconds, whichever
#: is larger).  A larger gap means the tracer lost or double-counted
#: time.
LEDGER_TOLERANCE_SHARE = 0.01
LEDGER_TOLERANCE_FLOOR_S = 0.05

#: The one replay metric a replay cannot know: which prefixes were
#: beacons is simulator-side knowledge, absent from the archive.
REPLAY_UNKNOWABLE = ("table2", "beacon_shares")


def fingerprint(payload) -> str:
    """sha256 of canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def day_tables_fingerprint(metrics: dict, collector_messages: int) -> str:
    """Pinned mar20-day oracle: Tables 1/2 plus the message count."""
    return fingerprint(
        {
            "table1": metrics["table1"],
            "table2": metrics["table2"],
            "collector_messages": collector_messages,
        }
    )


def replay_mismatches(replay: dict, live: dict) -> "List[str]":
    """Metric keys where a replay differs from its live run.

    Every collector must agree except ``table2.beacon_shares``.
    """
    problems = []
    for collector in sorted(set(replay) | set(live)):
        ours = dict(replay.get(collector, {}))
        theirs = dict(live.get(collector, {}))
        if collector == REPLAY_UNKNOWABLE[0]:
            ours.pop(REPLAY_UNKNOWABLE[1], None)
            theirs.pop(REPLAY_UNKNOWABLE[1], None)
        for key in sorted(set(ours) | set(theirs)):
            if ours.get(key) != theirs.get(key):
                problems.append(f"{collector}.{key}")
    return problems


def pinned_mismatch(
    pinned: dict, workload: str, kind: str, value: str
) -> "Optional[str]":
    """None when *value* equals the pinned fingerprint, else a message."""
    expected = pinned.get(workload, {}).get(kind)
    if expected == value:
        return None
    return (
        f"{workload} {kind} fingerprint {value} differs from pinned"
        f" {expected}"
    )


def count_mismatches(first: dict, second: dict) -> "List[str]":
    """Keys whose exact counts differ between two runs."""
    return [
        key
        for key in sorted(set(first) | set(second))
        if first.get(key) != second.get(key)
    ]


def ledger_gap(rows: "Iterable[dict]", wall_s: float) -> "tuple[float, float]":
    """(sum of self seconds - wall, allowed absolute gap)."""
    total = sum(row["self_s"] for row in rows)
    allowed = max(LEDGER_TOLERANCE_SHARE * wall_s, LEDGER_TOLERANCE_FLOOR_S)
    return total - wall_s, allowed


def bad_names(names: "Iterable[str]") -> "List[str]":
    """Names that do not match :data:`NAME_PATTERN`."""
    return [name for name in names if not NAME_PATTERN.fullmatch(name)]


def type_counts(metrics: dict) -> "Dict[str, int]":
    """Per-type §5 classification counts, prefixed for a counts dict."""
    types = metrics.get("update_counts", {}).get("types", {})
    return {f"type.{name}": int(count) for name, count in types.items()}
