"""Shared bounded-memo primitive for the decode hot path.

Every read-path cache — attribute blocks, AS paths, community sets,
NLRI encodings, packed addresses, MRT envelopes, cleaning-pipeline
scans — uses one eviction policy: when the memo reaches its bound it
is cleared wholesale and refills from the live working set.  Real
archives have small working sets, so a full clear costs one cold
decode per distinct value and keeps the policy O(1) with no
bookkeeping on the hit path (an LRU would charge every hit).  Keeping
the policy here, in one place, means a future change (say, to a real
LRU) cannot silently diverge between caches.

Every bounded store also carries a *named* :class:`MemoStats` record
(hits / misses / evictions), so cache effectiveness is a measured
number instead of something inferred from throughput deltas.
Counting is a single integer increment per event — the hit path pays
one ``stats.hits += 1`` next to the dict lookup it already does — and
the counters never influence decoded output, so the fast-vs-naive
determinism verifies are unaffected.  :func:`memo_stats` snapshots
every store; :func:`reset_memo_stats` zeroes them (determinism
harnesses and per-run metric reports both want a clean slate).

One process-wide switch, :func:`set_memo_enabled`, turns every memo
off at once: :func:`bounded_store` stops storing and the module-level
caches are emptied, so every lookup misses and each value is decoded
from scratch — the naive reference the fast-vs-naive verifies compare
against.
"""

from __future__ import annotations

from typing import Dict


class MemoStats:
    """Hit/miss/eviction counters for one named bounded memo."""

    __slots__ = ("name", "hits", "misses", "evictions")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def as_dict(self) -> "Dict[str, float]":
        """JSON-friendly snapshot, with the derived hit rate."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"MemoStats({self.name!r}, hits={self.hits},"
            f" misses={self.misses}, evictions={self.evictions})"
        )


#: Every named memo's stats, in registration order.
_STATS_REGISTRY: "Dict[str, MemoStats]" = {}

#: Module-level caches by memo name, emptied whenever the switch flips.
_MODULE_CACHES: "Dict[str, dict]" = {}

_enabled = True


def memo_counters(name: str, cache: "dict | None" = None) -> MemoStats:
    """The (registered) stats record for the memo called *name*.

    Idempotent: modules create their record at import time with
    ``_STATS = memo_counters("wire.attr_block", _ATTR_BLOCK_MEMO)`` and
    the same object is returned on any later call, so reporting code
    can look memos up by name without holding module references.  A
    module-level *cache* given here is emptied by
    :func:`set_memo_enabled`; per-instance memos (one per reader or
    pipeline) pass none and simply stay empty while the switch is off.
    """
    stats = _STATS_REGISTRY.get(name)
    if stats is None:
        stats = MemoStats(name)
        _STATS_REGISTRY[name] = stats
    if cache is not None:
        _MODULE_CACHES[name] = cache
    return stats


def set_memo_enabled(enabled: bool) -> bool:
    """Turn every bounded memo on or off; returns the previous setting.

    Either way the module-level caches are emptied.  While off,
    :func:`bounded_store` stores nothing, so every memo stays empty and
    every lookup misses: the benchmark's verify mode and the read-path
    tests decode once each way and require identical results, proving
    the memos are a pure optimization.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    for cache in _MODULE_CACHES.values():
        cache.clear()
    return previous


def memo_stats() -> "Dict[str, Dict[str, float]]":
    """Snapshot of every registered memo: name -> counters dict."""
    return {
        name: stats.as_dict()
        for name, stats in sorted(_STATS_REGISTRY.items())
    }


def reset_memo_stats() -> None:
    """Zero every registered memo's counters (not the caches)."""
    for stats in _STATS_REGISTRY.values():
        stats.reset()


def bounded_store(
    cache: dict, key, value, limit: int, stats: "MemoStats | None" = None
):
    """Store ``key -> value``, clearing the whole memo at *limit*.

    Returns *value* so call sites can store-and-use in one expression.
    When *stats* is given, the store counts as one miss (a store only
    happens after a failed lookup) and a wholesale clear as one
    eviction — both on the cold path, where a counter increment is
    noise next to the decode the miss just paid for.  While the memos
    are switched off (:func:`set_memo_enabled`) nothing is stored.
    """
    if stats is not None:
        stats.misses += 1
    if not _enabled:
        return value
    if len(cache) >= limit:
        cache.clear()
        if stats is not None:
            stats.evictions += 1
    cache[key] = value
    return value
