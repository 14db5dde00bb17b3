"""Pluggable metric collectors for the scenario engine.

Mirrors the ``CollectorProxy`` shape of simulation frameworks like
Icarus: the engine owns one :class:`CollectorProxy` that fans every
event out to the collectors the spec named, and each collector distils
its own slice of the run into a plain JSON-friendly ``dict``.  Keeping
results as plain data is what makes the parallel runner's caching and
cross-process determinism checks trivial.

Two event streams exist:

* internet scenarios feed per-prefix :class:`Observation` objects (the
  same stream the analysis layer consumes);
* lab scenarios feed one :class:`ExperimentResult` per
  experiment × vendor cell.

A collector implements whichever hooks it cares about; unused hooks
are no-ops, so a `"table2"` collector silently collects nothing on a
lab run instead of crashing it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.classify import (
    TYPE_ORDER,
    AnnouncementType,
    TypeCounts,
    UpdateClassifier,
)
from repro.analysis.observations import Observation
from repro.netbase.prefix import Prefix


class ScenarioContext:
    """Run-scoped facts collectors read: spec, beacons, day, §5 tally.

    With live-sink streaming the context is created *before* the
    simulation is built, so fields that only exist later (beacon
    prefixes, the finished day) start empty and are filled in by the
    engine as the run progresses.  Collectors that need them should
    keep the context reference and read at finish time.
    """

    def __init__(self, spec, *, beacon_prefixes=None, day=None):
        self.spec = spec
        self.beacon_prefixes = set(beacon_prefixes or ())
        #: The :class:`SimulatedDay` for internet runs, else ``None``.
        self.day = day
        #: The run's one §5 tally: the proxy's classifier counts, set
        #: by :meth:`CollectorProxy.start` and merged across decode
        #: shards.  Collectors derive every type, announcement and
        #: withdrawal count from it instead of keeping their own.
        self.type_counts: "Optional[TypeCounts]" = None


class MetricCollector:
    """Base collector: subclass and override the hooks you need.

    The §5 counts are not a collector's to keep: the proxy types every
    observation once and its tally reaches each collector as
    ``self.context.type_counts`` (see :class:`ScenarioContext`).  A
    collector whose metrics derive from that tally alone needs no
    :meth:`observe` at all.
    """

    #: Registry key; subclasses must set it.
    name: str = ""

    #: Collectors that can export their state as JSON data and fold in
    #: other instances' exports set this True; the parallel MRT decode
    #: path only engages when every requested collector supports it.
    #: A mergeable collector must guarantee shard-merge == serial given
    #: that every (session, prefix) stream lives wholly in one shard.
    supports_merge = False

    #: The run's context, set by :meth:`start`.
    context: "Optional[ScenarioContext]" = None

    def start(self, context: ScenarioContext) -> None:
        """Called once before any event is delivered.

        Keeps the reference, not a copy: under live streaming the
        engine fills in beacon prefixes only after this fires, and the
        shared counts grow (or merge) until finish.
        """
        self.context = context

    def observe(self, observation: Observation, announcement_type) -> None:
        """One per-prefix collector observation (internet runs).

        *announcement_type* is the proxy's §5 type for it: ``None`` for
        withdrawals and first-on-stream announcements.
        """

    def observe_lab(self, result) -> None:
        """One lab :class:`ExperimentResult` (lab runs)."""

    def finish(self) -> dict:
        """Return this collector's metrics as a JSON-friendly dict."""
        return {}

    def snapshot(self) -> dict:
        """Metrics so far, without implying the run has ended.

        Defaults to :meth:`finish` — every built-in collector's finish
        is a pure aggregation over accumulated state, safe to call
        repeatedly.  Override when finish has one-shot side effects.
        """
        return self.finish()

    def export_state(self) -> dict:
        """This collector's own mergeable state as JSON data.

        Only consulted when ``supports_merge`` is set.  The default
        suits a collector that reads nothing but the shared counts,
        which the proxy ships itself.
        """
        return {}

    def merge_state(self, state: dict) -> None:
        """Fold one shard's :meth:`export_state` in."""


class CollectorProxy:
    """Fans events out to every attached collector.

    The proxy owns the run's one §5 :class:`UpdateClassifier`: each
    observation is typed and counted once here, the type handed to
    every collector and the counts shared through the context, so no
    collector classifies or tallies types on its own.

    Usable directly as a pipeline sink: :meth:`push` is
    :meth:`observe`, so the engine can terminate a live observation
    stream with the proxy itself.  It is also the one sink the
    parallel MRT decode can shard (:mod:`repro.pipeline.parallel`).
    """

    def __init__(self, collectors: "Iterable[MetricCollector]"):
        self.collectors: "List[MetricCollector]" = list(collectors)
        #: Observations delivered so far (mid-run progress indicator).
        self.observed = 0
        self._classifier = UpdateClassifier()
        # Collectors that read only the shared counts skip the
        # per-observation call entirely.
        self._observers = [
            collector.observe
            for collector in self.collectors
            if type(collector).observe is not MetricCollector.observe
        ]

    @property
    def type_counts(self) -> TypeCounts:
        """The run's one §5 tally (every collector reads this)."""
        return self._classifier.counts

    def start(self, context: ScenarioContext) -> None:
        context.type_counts = self._classifier.counts
        for collector in self.collectors:
            collector.start(context)

    def observe(self, observation: Observation) -> None:
        self.observed += 1
        announcement_type = self._classifier.observe(observation)
        for observe in self._observers:
            observe(observation, announcement_type)

    def observe_lab(self, result) -> None:
        for collector in self.collectors:
            collector.observe_lab(result)

    def finish(self) -> "Dict[str, dict]":
        return {
            collector.name: collector.finish()
            for collector in self.collectors
        }

    def snapshot(self) -> "Dict[str, dict]":
        """Every collector's mid-run metrics, keyed like finish()."""
        return {
            collector.name: collector.snapshot()
            for collector in self.collectors
        }

    # pipeline sink protocol -------------------------------------------
    def push(self, observation: Observation) -> None:
        self.observe(observation)

    def close(self) -> None:
        """Sink hook; the engine calls finish() explicitly."""

    # sharded-decode merge protocol ------------------------------------
    @property
    def supports_merge(self) -> bool:
        """True when every attached collector can merge shard state."""
        return all(
            collector.supports_merge for collector in self.collectors
        )

    def export_state(self) -> dict:
        return {
            "types": self._classifier.counts.to_dict(),
            "collectors": {
                collector.name: collector.export_state()
                for collector in self.collectors
            },
        }

    def merge_state(self, state: dict) -> None:
        self._classifier.counts.merge(TypeCounts.from_dict(state["types"]))
        for collector in self.collectors:
            collector.merge_state(state["collectors"][collector.name])


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_COLLECTORS: "Dict[str, Type[MetricCollector]]" = {}


def collector(cls: "Type[MetricCollector]") -> "Type[MetricCollector]":
    """Class decorator registering a collector under its ``name``."""
    if not cls.name:
        raise ValueError(f"collector {cls.__name__} must set a name")
    if cls.name in _COLLECTORS:
        raise ValueError(f"duplicate collector name: {cls.name!r}")
    _COLLECTORS[cls.name] = cls
    return cls


def known_collector_names() -> "List[str]":
    """All registered collector names, sorted."""
    return sorted(_COLLECTORS)


def make_collectors(names: "Iterable[str]") -> CollectorProxy:
    """Instantiate a proxy for the named collectors (spec order)."""
    instances = []
    for name in names:
        try:
            instances.append(_COLLECTORS[name]())
        except KeyError:
            raise KeyError(
                f"unknown collector {name!r}; known:"
                f" {', '.join(known_collector_names())}"
            ) from None
    return CollectorProxy(instances)


# ----------------------------------------------------------------------
# built-in collectors
# ----------------------------------------------------------------------
@collector
class UpdateCountsCollector(MetricCollector):
    """Announcement/withdrawal volume plus the §5 type break-down."""

    name = "update_counts"
    supports_merge = True

    def finish(self) -> dict:
        counts = self.context.type_counts
        return {
            "observations": counts.withdrawals + counts.announcements_total,
            "announcements": counts.announcements_total,
            "withdrawals": counts.withdrawals,
            "types": {
                kind.value: counts.counts[kind] for kind in TYPE_ORDER
            },
        }


class _CommunityTally:
    """Community-bearing announcements and their distinct 16-bit values.

    The community half of Table 1, which ``community_prevalence``
    reports on its own.  Decode interning repeats the same
    :class:`CommunitySet` objects, so each distinct set is unpacked
    once.
    """

    def __init__(self):
        self.with_communities = 0
        self.unique_16bit: set = set()
        self._seen_sets: set = set()

    def add(self, communities) -> None:
        """Count one announcement's community attribute."""
        if communities.is_empty():
            return
        self.with_communities += 1
        if communities not in self._seen_sets:
            self._seen_sets.add(communities)
            self.unique_16bit.update(
                community.value for community in communities.classic
            )

    def metrics(self, announcements: int) -> dict:
        share = self.with_communities / announcements if announcements else 0.0
        return {
            "announcements": announcements,
            "with_communities": self.with_communities,
            "community_share": share,
            "unique_16bit_communities": len(self.unique_16bit),
        }

    def export_state(self) -> dict:
        return {
            "with_communities": self.with_communities,
            "unique_16bit": sorted(self.unique_16bit),
        }

    def merge_state(self, state: dict) -> None:
        self.with_communities += int(state["with_communities"])
        self.unique_16bit.update(state["unique_16bit"])


@collector
class CommunityPrevalenceCollector(MetricCollector):
    """How widespread communities are in the collected feed."""

    name = "community_prevalence"
    supports_merge = True

    def __init__(self):
        self._communities = _CommunityTally()

    def observe(self, observation, announcement_type) -> None:
        if observation.is_announcement:
            self._communities.add(observation.communities)

    def finish(self) -> dict:
        return self._communities.metrics(
            self.context.type_counts.announcements_total
        )

    def export_state(self) -> dict:
        return self._communities.export_state()

    def merge_state(self, state: dict) -> None:
        self._communities.merge_state(state)


@collector
class DuplicatesCollector(MetricCollector):
    """Duplicate (`nn`) and community-only (`nc`) announcement rates —
    the paper's headline spurious-update metric."""

    name = "duplicates"
    supports_merge = True

    def finish(self) -> dict:
        counts = self.context.type_counts
        total = counts.classified_total
        nn = counts.counts[AnnouncementType.NN]
        nc = counts.counts[AnnouncementType.NC]
        return {
            "classified": total,
            "nn": nn,
            "nc": nc,
            "nn_share": nn / total if total else 0.0,
            "nc_share": nc / total if total else 0.0,
            "spurious_share": (nn + nc) / total if total else 0.0,
        }


def _canonical_path(path) -> tuple:
    """A hashable, JSON-friendly form with ASPath's equality semantics.

    One tuple per segment: ``(segment kind, member ASNs...)`` — members
    sorted and deduplicated for set segments (whose equality is by
    frozenset), kept in wire order for sequences.  Equal paths map to
    equal tuples and distinct paths to distinct tuples, so counting
    unique canonical forms counts unique paths — including across
    decode shards, where the objects themselves cannot travel.
    """
    return tuple(
        (int(segment.kind),)
        + tuple(
            sorted({int(asn) for asn in segment.asns})
            if segment.is_set
            else (int(asn) for asn in segment.asns)
        )
        for segment in path.segments
    )


@collector
class Table1Collector(MetricCollector):
    """The paper's Table 1 dataset overview.

    Accumulates incrementally instead of buffering every observation,
    so memory tracks the number of *distinct* entities rather than
    feed length.  Announcement and withdrawal totals come from the
    shared counts.  Prefixes stay the interned :class:`Prefix` objects,
    stringified only by :meth:`export_state`; sessions and paths are
    kept as canonical tuples.  A shard's whole state thus serializes
    for the parallel-decode merge.
    """

    name = "table1"
    supports_merge = True

    def __init__(self):
        self._v4: set = set()
        self._v6: set = set()
        self._ases: set = set()
        self._sessions: set = set()
        self._paths: set = set()
        self._communities = _CommunityTally()
        # Decode interning repeats the same ASPath objects for the
        # overwhelming majority of announcements; memoizing their
        # canonical form keeps this collector O(1) per observation.
        self._canonical_memo: dict = {}

    def observe(self, observation, announcement_type) -> None:
        session = observation.session
        self._sessions.add(
            (session.collector, int(session.peer_asn), session.peer_address)
        )
        prefix = observation.prefix
        if prefix.version == 4:
            self._v4.add(prefix)
        else:
            self._v6.add(prefix)
        if observation.is_withdrawal:
            return
        path = observation.as_path
        if path is not None:
            canonical = self._canonical_memo.get(path)
            if canonical is None:
                canonical = _canonical_path(path)
                self._canonical_memo[path] = canonical
            if canonical not in self._paths:
                self._paths.add(canonical)
                self._ases.update(int(asn) for asn in path.asns())
        self._communities.add(observation.communities)

    def finish(self) -> dict:
        counts = self.context.type_counts
        return {
            "ipv4_prefixes": len(self._v4),
            "ipv6_prefixes": len(self._v6),
            "ases": len(self._ases),
            "sessions": len(self._sessions),
            "peers": len({session[1] for session in self._sessions}),
            **self._communities.metrics(counts.announcements_total),
            "unique_as_paths": len(self._paths),
            "withdrawals": counts.withdrawals,
        }

    def export_state(self) -> dict:
        return {
            "v4": sorted(str(prefix) for prefix in self._v4),
            "v6": sorted(str(prefix) for prefix in self._v6),
            "ases": sorted(self._ases),
            "sessions": sorted(list(item) for item in self._sessions),
            "paths": sorted(
                [list(segment) for segment in path] for path in self._paths
            ),
            "communities": self._communities.export_state(),
        }

    def merge_state(self, state: dict) -> None:
        self._v4.update(Prefix(text) for text in state["v4"])
        self._v6.update(Prefix(text) for text in state["v6"])
        self._ases.update(state["ases"])
        self._sessions.update(tuple(item) for item in state["sessions"])
        self._paths.update(
            tuple(tuple(segment) for segment in path)
            for path in state["paths"]
        )
        self._communities.merge_state(state["communities"])


def _shares(counts: TypeCounts) -> dict:
    return {kind.value: counts.share(kind) for kind in TYPE_ORDER}


@collector
class Table2Collector(MetricCollector):
    """The paper's Table 2 announcement-type shares (full + beacons).

    The full column is the shared counts.  Types are per
    (session, prefix) stream, so the beacon column is exactly the sum
    over beacon prefixes, which are learnt only at finish: that column
    alone needs a per-prefix tally.
    """

    name = "table2"
    #: Mergeable for MRT replays: no simulation means no beacon
    #: schedule, so the beacon column is vacuously empty and nothing
    #: beyond the shared counts needs to travel.
    supports_merge = True

    def __init__(self):
        self._by_prefix: "Dict[Prefix, TypeCounts]" = {}

    def observe(self, observation, announcement_type) -> None:
        counts = self._by_prefix.get(observation.prefix)
        if counts is None:
            counts = self._by_prefix[observation.prefix] = TypeCounts()
        counts.tally(observation, announcement_type)

    def finish(self) -> dict:
        full = self.context.type_counts
        beacons = self.context.beacon_prefixes
        beacon = TypeCounts()
        for prefix, counts in self._by_prefix.items():
            if prefix in beacons:
                beacon.merge(counts)
        return {
            "full_shares": _shares(full),
            "beacon_shares": _shares(beacon) if beacons else None,
            "classified": full.classified_total,
        }


@collector
class DampingReplayCollector(MetricCollector):
    """What an RFC 2439 damper at the collector edge would withhold.

    Replays the feed through a per-session :class:`RouteDamper` exactly
    like the A5 ablation: type changes accrue penalty, and every
    announcement landing inside a suppression window counts as damped.
    """

    name = "damping"

    def __init__(self):
        from repro.simulator.damping import RouteDamper

        self._damper = RouteDamper()
        self._damped = dict.fromkeys(TYPE_ORDER, 0)

    def observe(self, observation, announcement_type) -> None:
        key = str(observation.session)
        if observation.is_withdrawal:
            self._damper.penalize(
                key,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=True,
            )
            return
        if announcement_type is None:
            return
        if announcement_type != AnnouncementType.NN:
            self._damper.penalize(
                key,
                observation.prefix,
                observation.timestamp,
                is_withdrawal=False,
            )
        if self._damper.is_suppressed(
            key, observation.prefix, observation.timestamp
        ):
            self._damped[announcement_type] += 1

    def finish(self) -> dict:
        damped = sum(self._damped.values())
        total = self.context.type_counts.classified_total
        return {
            "announcements": total,
            "damped": damped,
            "damped_share": damped / total if total else 0.0,
            "damped_by_type": {
                kind.value: count for kind, count in self._damped.items()
            },
            "suppress_events": self._damper.suppressions,
            "releases": self._damper.releases,
        }


@collector
class LabMatrixCollector(MetricCollector):
    """The §3 behavior matrix: one row per experiment × vendor."""

    name = "lab_matrix"

    def __init__(self):
        self._rows: "List[List[str]]" = []
        self._cells: "List[dict]" = []

    def observe_lab(self, result) -> None:
        self._rows.append(list(result.summary_row()))
        self._cells.append(
            {
                "experiment": result.experiment,
                "vendor": result.vendor,
                "update_sent_y1_to_x1": result.update_sent_y1_to_x1,
                "update_reached_collector": result.update_reached_collector,
                "collector_saw_community_change": (
                    result.collector_saw_community_change
                ),
                "collector_saw_duplicate": result.collector_saw_duplicate,
                "collector_messages": len(result.collector_messages),
            }
        )

    def finish(self) -> dict:
        return {
            "headers": ["exp", "vendor", "Y1->X1", "collector", "behavior"],
            "rows": self._rows,
            "cells": self._cells,
            "duplicates_at_collector": sum(
                1 for cell in self._cells if cell["collector_saw_duplicate"]
            ),
        }
