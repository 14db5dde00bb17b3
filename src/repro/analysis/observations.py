"""Per-prefix observations and per-session streams.

The paper's unit of analysis is not the UPDATE message (which may carry
several prefixes) but the *(session, prefix)* observation: "we first
group them by the prefix and the BGP session of a peer AS / next-hop,
in arriving order" (§5).  :func:`explode_update` flattens messages,
:func:`group_into_streams` builds the ordered per-key streams every
later stage consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional

from repro.bgp.aspath import ASPath
from repro.bgp.community import CommunitySet
from repro.bgp.message import UpdateMessage
from repro.mrt.records import Bgp4mpMessage
from repro.netbase.prefix import Prefix


class ObservationKind(enum.Enum):
    """Announcement or withdrawal."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


@dataclass(frozen=True)
class SessionKey:
    """Identity of one BGP session at one collector."""

    collector: str
    peer_asn: int
    peer_address: str

    def __str__(self) -> str:
        return f"{self.collector}:{self.peer_asn}@{self.peer_address}"


@dataclass(frozen=True)
class Observation:
    """One per-prefix event as seen by a collector session."""

    timestamp: float
    session: SessionKey
    prefix: Prefix
    kind: ObservationKind
    as_path: Optional[ASPath] = None
    communities: CommunitySet = CommunitySet.empty()
    med: Optional[int] = None

    @property
    def is_announcement(self) -> bool:
        """True for announcements."""
        return self.kind == ObservationKind.ANNOUNCE

    @property
    def is_withdrawal(self) -> bool:
        """True for withdrawals."""
        return self.kind == ObservationKind.WITHDRAW

    def stream_key(self) -> "tuple[SessionKey, Prefix]":
        """The (session, prefix) grouping key of §5."""
        return (self.session, self.prefix)

    def shifted(self, new_timestamp: float) -> "Observation":
        """Copy with a different timestamp (cleaning pipeline)."""
        return replace(self, timestamp=new_timestamp)

    def with_as_path(self, as_path: ASPath) -> "Observation":
        """Copy with a repaired AS path (route-server fix-up)."""
        return replace(self, as_path=as_path)


def explode_update(
    timestamp: float,
    session: SessionKey,
    message: UpdateMessage,
) -> Iterator[Observation]:
    """Flatten one UPDATE into per-prefix observations.

    Withdrawals come first, matching wire order within a message.
    """
    for prefix in message.withdrawn:
        yield Observation(
            timestamp=timestamp,
            session=session,
            prefix=prefix,
            kind=ObservationKind.WITHDRAW,
        )
    if message.announced:
        attributes = message.attributes
        assert attributes is not None
        for prefix in message.announced:
            yield Observation(
                timestamp=timestamp,
                session=session,
                prefix=prefix,
                kind=ObservationKind.ANNOUNCE,
                as_path=attributes.as_path,
                communities=attributes.communities,
                med=attributes.med,
            )


def observations_from_collector(collector) -> Iterator[Observation]:
    """Observations from a simulated collector archive (arrival order)."""
    for record in collector.records:
        if not isinstance(record.message, UpdateMessage):
            continue
        session = SessionKey(
            collector=record.collector,
            peer_asn=int(record.peer_asn),
            peer_address=record.peer_address,
        )
        yield from explode_update(record.timestamp, session, record.message)


def observations_from_mrt(
    records: Iterable[Bgp4mpMessage], collector: str
) -> Iterator[Observation]:
    """Observations from MRT records (e.g. a parsed archive file)."""
    for record in records:
        if not isinstance(record.message, UpdateMessage):
            continue
        session = SessionKey(
            collector=collector,
            peer_asn=int(record.peer_asn),
            peer_address=record.peer_address,
        )
        yield from explode_update(record.timestamp, session, record.message)


def group_into_streams(
    observations: Iterable[Observation],
) -> "Dict[tuple, List[Observation]]":
    """Group observations by (session, prefix), preserving order.

    The input must already be in arrival order (collector archives and
    MRT files are); each output list is then automatically ordered.
    """
    streams: "Dict[tuple, List[Observation]]" = {}
    for observation in observations:
        streams.setdefault(observation.stream_key(), []).append(observation)
    return streams
