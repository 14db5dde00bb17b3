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
    """Run-scoped facts collectors may need (beacons, spec, day).

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


class MetricCollector:
    """Base collector: subclass and override the hooks you need."""

    #: Registry key; subclasses must set it.
    name: str = ""

    #: Collectors that can export their state as JSON data and fold in
    #: other instances' exports set this True; the parallel MRT decode
    #: path only engages when every requested collector supports it.
    #: A mergeable collector must guarantee shard-merge == serial given
    #: that every (session, prefix) stream lives wholly in one shard.
    supports_merge = False

    def start(self, context: ScenarioContext) -> None:
        """Called once before any event is delivered."""

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
        """Mergeable state as JSON data (``supports_merge`` only)."""
        raise NotImplementedError(
            f"collector {self.name!r} does not support sharded merge"
        )

    def merge_state(self, state: dict) -> None:
        """Fold one shard's exported state in (``supports_merge`` only)."""
        raise NotImplementedError(
            f"collector {self.name!r} does not support sharded merge"
        )


class CollectorProxy:
    """Fans events out to every attached collector.

    The proxy owns the run's one §5 :class:`UpdateClassifier`: each
    observation is typed once here and the type handed to every
    collector, so no collector classifies on its own.

    Usable directly as a pipeline sink: :meth:`push` is
    :meth:`observe`, so the engine can terminate a live observation
    stream with the proxy itself.
    """

    #: Sharded-decode job protocol tag: workers rebuild the proxy from
    #: the collector names (see :mod:`repro.pipeline.parallel`).
    shard_sink_kind = "collectors"

    def __init__(self, collectors: "Iterable[MetricCollector]"):
        self.collectors: "List[MetricCollector]" = list(collectors)
        #: Observations delivered so far (mid-run progress indicator).
        self.observed = 0
        self._classifier = UpdateClassifier()

    def start(self, context: ScenarioContext) -> None:
        for collector in self.collectors:
            collector.start(context)

    def observe(self, observation: Observation) -> None:
        self.observed += 1
        announcement_type = self._classifier.observe(observation)
        for collector in self.collectors:
            collector.observe(observation, announcement_type)

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
            collector.name: collector.export_state()
            for collector in self.collectors
        }

    def merge_state(self, state: dict) -> None:
        for collector in self.collectors:
            collector.merge_state(state[collector.name])


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

    def __init__(self):
        self._counts = TypeCounts()
        self._observations = 0

    def observe(self, observation, announcement_type) -> None:
        self._observations += 1
        self._counts.tally(observation, announcement_type)

    def finish(self) -> dict:
        counts = self._counts
        return {
            "observations": self._observations,
            "announcements": counts.announcements_total,
            "withdrawals": counts.withdrawals,
            "types": {
                kind.value: counts.counts[kind] for kind in TYPE_ORDER
            },
        }

    def export_state(self) -> dict:
        return {
            "observations": self._observations,
            "classifier": {"counts": self._counts.to_dict()},
        }

    def merge_state(self, state: dict) -> None:
        self._observations += int(state["observations"])
        self._counts.merge(TypeCounts.from_dict(state["classifier"]["counts"]))


@collector
class CommunityPrevalenceCollector(MetricCollector):
    """How widespread communities are in the collected feed."""

    name = "community_prevalence"
    supports_merge = True

    def __init__(self):
        self._announcements = 0
        self._with_communities = 0
        self._unique_16bit = set()
        self._seen_sets: set = set()

    def observe(self, observation, announcement_type) -> None:
        if not observation.is_announcement:
            return
        self._announcements += 1
        communities = observation.communities
        if communities.is_empty():
            return
        self._with_communities += 1
        if communities not in self._seen_sets:
            self._seen_sets.add(communities)
            self._unique_16bit.update(
                community.value for community in communities.classic
            )

    def finish(self) -> dict:
        share = (
            self._with_communities / self._announcements
            if self._announcements
            else 0.0
        )
        return {
            "announcements": self._announcements,
            "with_communities": self._with_communities,
            "community_share": share,
            "unique_16bit_communities": len(self._unique_16bit),
        }

    def export_state(self) -> dict:
        return {
            "announcements": self._announcements,
            "with_communities": self._with_communities,
            "unique_16bit": sorted(self._unique_16bit),
        }

    def merge_state(self, state: dict) -> None:
        self._announcements += int(state["announcements"])
        self._with_communities += int(state["with_communities"])
        self._unique_16bit.update(state["unique_16bit"])


@collector
class DuplicatesCollector(MetricCollector):
    """Duplicate (`nn`) and community-only (`nc`) announcement rates —
    the paper's headline spurious-update metric."""

    name = "duplicates"
    supports_merge = True

    def __init__(self):
        self._counts = TypeCounts()

    def observe(self, observation, announcement_type) -> None:
        self._counts.tally(observation, announcement_type)

    def finish(self) -> dict:
        counts = self._counts
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

    def export_state(self) -> dict:
        return {"classifier": {"counts": self._counts.to_dict()}}

    def merge_state(self, state: dict) -> None:
        self._counts.merge(TypeCounts.from_dict(state["classifier"]["counts"]))


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
    feed length.  Prefixes stay the interned :class:`Prefix` objects,
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
        self._communities_16bit: set = set()
        self._seen_sets: set = set()
        self._announcements = 0
        self._with_communities = 0
        self._withdrawals = 0
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
            self._withdrawals += 1
            return
        self._announcements += 1
        path = observation.as_path
        if path is not None:
            canonical = self._canonical_memo.get(path)
            if canonical is None:
                canonical = _canonical_path(path)
                self._canonical_memo[path] = canonical
            if canonical not in self._paths:
                self._paths.add(canonical)
                self._ases.update(int(asn) for asn in path.asns())
        communities = observation.communities
        if not communities.is_empty():
            self._with_communities += 1
            if communities not in self._seen_sets:
                self._seen_sets.add(communities)
                self._communities_16bit.update(
                    community.value for community in communities.classic
                )

    def finish(self) -> dict:
        announcements = self._announcements
        share = (
            self._with_communities / announcements if announcements else 0.0
        )
        return {
            "ipv4_prefixes": len(self._v4),
            "ipv6_prefixes": len(self._v6),
            "ases": len(self._ases),
            "sessions": len(self._sessions),
            "peers": len({session[1] for session in self._sessions}),
            "announcements": announcements,
            "with_communities": self._with_communities,
            "unique_16bit_communities": len(self._communities_16bit),
            "unique_as_paths": len(self._paths),
            "withdrawals": self._withdrawals,
            "community_share": share,
        }

    def export_state(self) -> dict:
        return {
            "v4": sorted(str(prefix) for prefix in self._v4),
            "v6": sorted(str(prefix) for prefix in self._v6),
            "ases": sorted(self._ases),
            "sessions": sorted(list(item) for item in self._sessions),
            "peers": sorted({session[1] for session in self._sessions}),
            "paths": sorted(
                [list(segment) for segment in path] for path in self._paths
            ),
            "communities_16bit": sorted(self._communities_16bit),
            "announcements": self._announcements,
            "with_communities": self._with_communities,
            "withdrawals": self._withdrawals,
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
        self._communities_16bit.update(state["communities_16bit"])
        self._announcements += int(state["announcements"])
        self._with_communities += int(state["with_communities"])
        self._withdrawals += int(state["withdrawals"])


def _total(parts: "Iterable[TypeCounts]") -> TypeCounts:
    total = TypeCounts()
    for part in parts:
        total.merge(part)
    return total


def _shares(counts: TypeCounts) -> dict:
    return {kind.value: counts.share(kind) for kind in TYPE_ORDER}


@collector
class Table2Collector(MetricCollector):
    """The paper's Table 2 announcement-type shares (full + beacons)."""

    name = "table2"
    #: Mergeable for MRT replays: no simulation means no beacon
    #: schedule, so the beacon subset is vacuously empty and only the
    #: full-feed counts need to travel.
    supports_merge = True

    def __init__(self):
        # Types are per (session, prefix) stream, so the beacon column
        # is exactly the sum over beacon prefixes, learnt at finish.
        self._by_prefix: "Dict[Prefix, TypeCounts]" = {}
        self._merged = TypeCounts()
        self._context: "Optional[ScenarioContext]" = None

    def start(self, context: ScenarioContext) -> None:
        # Keep the reference, not a copy: under live streaming the
        # engine fills in beacon prefixes only once the simulation has
        # scheduled them, which is after start() fires.
        self._context = context

    def observe(self, observation, announcement_type) -> None:
        counts = self._by_prefix.get(observation.prefix)
        if counts is None:
            counts = self._by_prefix[observation.prefix] = TypeCounts()
        counts.tally(observation, announcement_type)

    def _full(self) -> TypeCounts:
        return _total([self._merged, *self._by_prefix.values()])

    def finish(self) -> dict:
        full = self._full()
        beacons = self._context.beacon_prefixes if self._context else ()
        beacon = _total(
            counts
            for prefix, counts in self._by_prefix.items()
            if prefix in beacons
        )
        return {
            "full_shares": _shares(full),
            "beacon_shares": _shares(beacon) if beacons else None,
            "classified": full.classified_total,
        }

    def export_state(self) -> dict:
        return {"full": self._full().to_dict()}

    def merge_state(self, state: dict) -> None:
        self._merged.merge(TypeCounts.from_dict(state["full"]))


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
        self._passed = TypeCounts()
        self._suppressed = TypeCounts()

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
            self._suppressed.add(announcement_type)
        else:
            self._passed.add(announcement_type)

    def finish(self) -> dict:
        damped = self._suppressed.classified_total
        total = self._passed.classified_total + damped
        return {
            "announcements": total,
            "damped": damped,
            "damped_share": damped / total if total else 0.0,
            "damped_by_type": {
                kind.value: self._suppressed.counts[kind]
                for kind in TYPE_ORDER
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
