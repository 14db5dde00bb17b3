"""Builders for the paper's Table 1 and Table 2.

Table 1 is the dataset overview (*d_mar20*): prefix/AS/session/peer
counts on the left, announcement/community/path counts on the right.
Table 2 is the announcement-type share break-down for the full feed and
the beacon subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.classify import (
    AnnouncementType,
    TYPE_ORDER,
    TypeCounts,
    classify_observations,
)
from repro.analysis.observations import Observation


#: Table 2's "observed changes" column, one entry per announcement type.
TYPE_DESCRIPTIONS = {
    AnnouncementType.PC: "path + community",
    AnnouncementType.PN: "path only",
    AnnouncementType.NC: "community only",
    AnnouncementType.NN: "no change",
    AnnouncementType.XC: "path prepending + comm.",
    AnnouncementType.XN: "path prepending only",
}


@dataclass
class Table1:
    """Dataset overview, mirroring the paper's Table 1 layout."""

    ipv4_prefixes: int = 0
    ipv6_prefixes: int = 0
    ases: int = 0
    sessions: int = 0
    peers: int = 0
    announcements: int = 0
    with_communities: int = 0
    unique_16bit_communities: int = 0
    unique_as_paths: int = 0
    withdrawals: int = 0

    def as_rows(self) -> "List[Tuple[str, str]]":
        """Label/value rows in the paper's reading order."""
        return [
            ("IPv4 prefixes", f"{self.ipv4_prefixes:,}"),
            ("IPv6 prefixes", f"{self.ipv6_prefixes:,}"),
            ("ASes", f"{self.ases:,}"),
            ("Sessions", f"{self.sessions:,}"),
            ("Peers", f"{self.peers:,}"),
            ("Announcements", f"{self.announcements:,}"),
            ("w/ communities", f"{self.with_communities:,}"),
            ("uniq. 16 bits", f"{self.unique_16bit_communities:,}"),
            ("uniq. AS paths", f"{self.unique_as_paths:,}"),
            ("Withdrawals", f"{self.withdrawals:,}"),
        ]

    @property
    def community_share(self) -> float:
        """Fraction of announcements carrying communities."""
        if self.announcements == 0:
            return 0.0
        return self.with_communities / self.announcements


def build_table1(observations: Iterable[Observation]) -> Table1:
    """Compute Table 1 statistics from an observation feed."""
    table = Table1()
    v4: Set = set()
    v6: Set = set()
    ases: Set[int] = set()
    sessions: Set = set()
    peers: Set[int] = set()
    paths: Set = set()
    communities_16bit: Set = set()
    for observation in observations:
        sessions.add(observation.session)
        peers.add(observation.session.peer_asn)
        if observation.prefix.version == 4:
            v4.add(observation.prefix)
        else:
            v6.add(observation.prefix)
        if observation.is_withdrawal:
            table.withdrawals += 1
            continue
        table.announcements += 1
        if observation.as_path is not None:
            paths.add(observation.as_path)
            ases.update(int(asn) for asn in observation.as_path.asns())
        if not observation.communities.is_empty():
            table.with_communities += 1
            for community in observation.communities.classic:
                communities_16bit.add(community.value)
    table.ipv4_prefixes = len(v4)
    table.ipv6_prefixes = len(v6)
    table.ases = len(ases)
    table.sessions = len(sessions)
    table.peers = len(peers)
    table.unique_as_paths = len(paths)
    table.unique_16bit_communities = len(communities_16bit)
    return table


@dataclass
class Table2:
    """Announcement-type shares for the full feed and beacon subset."""

    full: TypeCounts
    beacon: Optional[TypeCounts] = None

    def as_rows(self) -> "List[Tuple[str, str, float, Optional[float]]]":
        """(code, description, full share, beacon share) rows."""
        rows = []
        for kind in TYPE_ORDER:
            beacon_share = (
                self.beacon.share(kind) if self.beacon is not None else None
            )
            rows.append(
                (
                    kind.value,
                    TYPE_DESCRIPTIONS[kind],
                    self.full.share(kind),
                    beacon_share,
                )
            )
        return rows

    def sanity_check(self) -> bool:
        """Shares sum to 1 (within float noise) for non-empty feeds."""
        total = sum(self.full.share(kind) for kind in TYPE_ORDER)
        return self.full.classified_total == 0 or abs(total - 1.0) < 1e-9


def build_table2(
    observations: Iterable[Observation],
    beacon_prefixes: "Optional[Set]" = None,
) -> Table2:
    """Compute Table 2, optionally with the beacon-prefix subset.

    The feed is consumed once; beacon membership is tested per
    observation so overlapping iterators are unnecessary.
    """
    from repro.analysis.classify import UpdateClassifier

    full = UpdateClassifier()
    beacon = UpdateClassifier() if beacon_prefixes is not None else None
    for observation in observations:
        full.observe(observation)
        if beacon is not None and observation.prefix in beacon_prefixes:
            beacon.observe(observation)
    return Table2(
        full=full.counts,
        beacon=beacon.counts if beacon is not None else None,
    )
