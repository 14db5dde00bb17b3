"""Incremental exploder/grouper: messages in, observations out.

:class:`ObservationStream` is the pipeline's workhorse stage.  It is a
sink of archived collector messages (simulated
:class:`~repro.simulator.collector.CollectedMessage` items or MRT
:class:`~repro.mrt.records.Bgp4mpMessage` records) and a source of
per-prefix :class:`~repro.analysis.observations.Observation` events —
the same flattening :func:`~repro.analysis.observations.explode_update`
performs in batch, done one message at a time so memory stays bounded
no matter how long the run is.

:func:`replay_mrt` is the disk-side source: it pumps an on-disk MRT
archive — including one the simulator itself spilled — through the
identical observation path a live simulation uses.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Iterator, Optional, Union

from repro.analysis.observations import SessionKey, explode_update
from repro.bgp.message import UpdateMessage
from repro.mrt.records import Bgp4mpMessage
from repro.pipeline.sinks import Sink, SinkBase


class ObservationStream(SinkBase):
    """Explode archived messages into observations, incrementally.

    Push :class:`CollectedMessage` items (live simulation) via
    :meth:`push`, or MRT records via :meth:`push_bgp4mp`; every
    resulting observation is forwarded to *downstream* in arrival
    order.  Non-UPDATE messages are counted and dropped, exactly as
    the batch helpers do.
    """

    def __init__(self, downstream: "Sink"):
        self.downstream = downstream
        self.messages_seen = 0
        self.observations_emitted = 0
        self.skipped_non_updates = 0
        # SessionKey is immutable; reuse one instance per session so a
        # million-message stream does not allocate a million keys.
        self._session_cache: "Dict[tuple, SessionKey]" = {}

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def push(self, record) -> None:
        """One simulated :class:`CollectedMessage`."""
        self._emit(
            record.timestamp,
            record.collector,
            int(record.peer_asn),
            record.peer_address,
            record.message,
        )

    def push_bgp4mp(self, record: "Bgp4mpMessage", collector: str) -> None:
        """One MRT record, labeled with its collector of origin."""
        self._emit(
            record.timestamp,
            collector,
            int(record.peer_asn),
            record.peer_address,
            record.message,
        )

    def _emit(
        self,
        timestamp: float,
        collector: str,
        peer_asn: int,
        peer_address: str,
        message,
    ) -> None:
        self.messages_seen += 1
        if not isinstance(message, UpdateMessage):
            self.skipped_non_updates += 1
            return
        cache_key = (collector, peer_asn, peer_address)
        session = self._session_cache.get(cache_key)
        if session is None:
            session = SessionKey(collector, peer_asn, peer_address)
            self._session_cache[cache_key] = session
        for observation in explode_update(timestamp, session, message):
            self.observations_emitted += 1
            self.downstream.push(observation)

    def close(self) -> None:
        self.downstream.close()


def replay_mrt(
    source: "Union[str, BinaryIO]",
    sink: "Sink",
    *,
    collector: str = "mrt",
    tolerant: bool = True,
    close_sink: bool = False,
    stats: "Optional[Dict[str, int]]" = None,
    workers: "Optional[int]" = None,
    shard_stats: "Optional[list]" = None,
) -> int:
    """Pump an MRT archive through *sink* as observations.

    *source* is a path or an open binary stream.  Returns the number
    of observations delivered.  A :class:`PipelineStop` raised by the
    sink propagates to the caller after the reader is released.

    When *stats* is a dict it is filled with the replay's bookkeeping —
    ``records``, ``skipped_records``, ``error_records`` (tolerant-mode
    drops), ``messages`` and ``observations`` — so callers can surface
    what the reader silently stepped over.  The dict is populated even
    when the sink stops the pipeline early.

    *workers* above one requests the sharded parallel decode (one
    worker takes this serial path: a single shard would only add the
    index pass and a JSON round trip of its state): the archive is
    partitioned by session, shards decode+classify on a process pool,
    and per-shard sink state merges back in shard order — proven
    byte-identical to the serial pass.  It engages only when *source*
    is a path and *sink* speaks the merge protocol (see
    :mod:`repro.pipeline.parallel`); anything else — including damage
    the index pass cannot attribute, or a dying worker — degrades to
    this very serial path with the ``mrt.shard.fallback`` counter
    ticked.  *shard_stats*, when a list, receives one per-shard
    reader-stats row on a successful parallel run.
    """
    if workers is not None and workers > 1 and isinstance(
        source, (str, bytes)
    ):
        from repro.pipeline import parallel

        sink_spec = parallel.sink_spec_for(sink)
        if sink_spec is not None:
            replies = parallel.try_sharded_replay(
                source,
                workers=workers,
                sink_spec=sink_spec,
                collector=collector,
                tolerant=tolerant,
            )
            if replies is not None:
                totals = parallel.merge_replies(
                    sink, replies, stats=stats, shard_stats=shard_stats
                )
                if close_sink:
                    sink.close()
                return totals["observations"]

    from repro.mrt.reader import MRTReader

    stream = ObservationStream(sink)
    if isinstance(source, (str, bytes)):
        handle: "Optional[BinaryIO]" = open(source, "rb")
    else:
        handle = None
    reader_stream = handle if handle is not None else source
    reader = MRTReader(reader_stream, tolerant=tolerant)
    records = 0
    try:
        push_bgp4mp = stream.push_bgp4mp
        for record in reader:
            records += 1
            push_bgp4mp(record, collector)
    finally:
        if handle is not None:
            handle.close()
        if stats is not None:
            stats["records"] = records
            stats["skipped_records"] = reader.skipped_records
            stats["error_records"] = reader.error_records
            stats["messages"] = stream.messages_seen
            stats["observations"] = stream.observations_emitted
    if close_sink:
        sink.close()
    return stream.observations_emitted


def observations_from_mrt_file(
    path: str, *, collector: str = "mrt", tolerant: bool = True
) -> Iterator:
    """Lazily yield observations from an on-disk MRT archive."""
    from repro.analysis.observations import observations_from_mrt
    from repro.mrt.reader import MRTReader

    with open(path, "rb") as handle:
        yield from observations_from_mrt(
            MRTReader(handle, tolerant=tolerant), collector
        )
