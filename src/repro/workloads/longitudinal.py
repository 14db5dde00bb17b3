"""The 10-year longitudinal model behind Figures 2 and 6 (*d_hist*).

The paper samples one full day every three months from 2010 to 2020 and
observes (a) growing absolute update counts with stable type shares and
(b) a stable ≈60% withdrawal-phase revelation ratio while unique
community counts grow multifold.

:class:`GrowthModel` produces an :class:`~repro.workloads.internet.
InternetConfig` per sampled day whose parameters grow with time:
topology size, interconnection density, collector peering breadth and
community (geo-tagging) adoption all increase 2010 → 2020, following
the growth trends the paper cites (Streibelt et al.'s 250% community
growth, doubling of collector sessions).

Running all 41 quarterly days at full size is slow, so the runner
defaults to one day per year with small per-day topologies; the bench
harness scales up when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.classify import UpdateClassifier
from repro.analysis.longitudinal import DailySnapshot, LongitudinalSeries
from repro.analysis.observations import observations_from_collector
from repro.analysis.revealed import RevealedInfoAnalysis
from repro.netbase.timebase import parse_utc
from repro.workloads.internet import InternetConfig, InternetModel
from repro.workloads.topology_gen import TopologyParams

#: The paper's sampled quarters: March/June/September/December 15.
QUARTER_DAYS = ("03-15", "06-15", "09-15", "12-15")


def sampled_days(
    first_year: int = 2010,
    last_year: int = 2020,
    *,
    per_year: int = 1,
) -> "List[float]":
    """UTC midnights of the sampled measurement days.

    ``per_year=4`` reproduces the paper's full quarterly cadence;
    ``per_year=1`` (default) keeps laptop runtimes sane.
    """
    if not 1 <= per_year <= 4:
        raise ValueError("per_year must be between 1 and 4")
    days: List[float] = []
    for year in range(first_year, last_year + 1):
        for quarter in QUARTER_DAYS[:per_year]:
            days.append(parse_utc(f"{year}-{quarter}"))
    return sorted(days)


@dataclass
class GrowthModel:
    """Interpolates internet parameters across the decade."""

    #: Topology size at the 2010 and 2020 endpoints.
    tier1_2010: int = 2
    tier1_2020: int = 3
    transit_2010: int = 4
    transit_2020: int = 9
    stub_2010: int = 8
    stub_2020: int = 24
    #: Geo-tagging adoption (fraction of transit-like ASes).
    tagger_2010: float = 0.2
    tagger_2020: float = 0.55
    #: Collector peering breadth.
    peer_fraction_2010: float = 0.25
    peer_fraction_2020: float = 0.45
    #: Background event volume.
    flaps_2010: int = 6
    flaps_2020: int = 14
    base_seed: int = 20100101

    def _lerp(self, start: float, end: float, fraction: float) -> float:
        return start + (end - start) * fraction

    def config_for(self, day_start: float) -> InternetConfig:
        """Build the day's :class:`InternetConfig` from the growth curve."""
        year_fraction = min(
            max((day_start - parse_utc("2010-01-01"))
                / (parse_utc("2020-12-31") - parse_utc("2010-01-01")), 0.0),
            1.0,
        )
        params = TopologyParams(
            tier1_count=round(
                self._lerp(self.tier1_2010, self.tier1_2020, year_fraction)
            ),
            transit_count=round(
                self._lerp(
                    self.transit_2010, self.transit_2020, year_fraction
                )
            ),
            stub_count=round(
                self._lerp(self.stub_2010, self.stub_2020, year_fraction)
            ),
            seed=self.base_seed + int(day_start // 86400),
        )
        flaps = round(
            self._lerp(self.flaps_2010, self.flaps_2020, year_fraction)
        )
        # Event volumes scale with the growth curve so that the type
        # mix stays comparable across the decade (the paper: "despite
        # increased community usage, the share of all types is
        # relatively stable") while absolute counts grow.
        return InternetConfig(
            topology=params,
            day_start=day_start,
            tagger_fraction=self._lerp(
                self.tagger_2010, self.tagger_2020, year_fraction
            ),
            collector_peer_fraction=self._lerp(
                self.peer_fraction_2010,
                self.peer_fraction_2020,
                year_fraction,
            ),
            beacon_count=3,
            link_flaps=flaps,
            prefix_flaps=max(3, flaps // 2),
            med_churn_events=round(self._lerp(6, 30, year_fraction)),
            community_churn_events=round(
                self._lerp(15, 70, year_fraction)
            ),
            collector_session_resets=round(
                self._lerp(3, 14, year_fraction)
            ),
            prepend_change_events=round(self._lerp(1, 4, year_fraction)),
            collector_names=("rrc00",),
            seed=self.base_seed + int(day_start // 86400),
        )


class LongitudinalRunner:
    """Runs the sampled days and aggregates Figure 2 / Figure 6 series."""

    def __init__(
        self,
        *,
        growth: "GrowthModel | None" = None,
        days: "Optional[List[float]]" = None,
    ):
        self.growth = growth or GrowthModel()
        self.days = days if days is not None else sampled_days()

    def run_day(self, day_start: float) -> DailySnapshot:
        """Simulate one sampled day and summarize it."""
        config = self.growth.config_for(day_start)
        simulated = InternetModel(config).run()
        classifier = UpdateClassifier()
        revealed = RevealedInfoAnalysis()
        beacon_prefixes = set(simulated.beacon_prefixes)
        for collector in simulated.collectors():
            for observation in observations_from_collector(collector):
                classifier.observe(observation)
                if observation.prefix in beacon_prefixes:
                    revealed.observe(observation)
        return DailySnapshot(
            day=day_start,
            type_counts=classifier.counts,
            revealed=revealed.result(),
        )

    def run(self) -> LongitudinalSeries:
        """Simulate all sampled days."""
        series = LongitudinalSeries()
        for day_start in self.days:
            series.add(self.run_day(day_start))
        return series
