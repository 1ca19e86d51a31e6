"""Analysis: region classification, register lifecycle, event timing."""

from .lifetime import LifetimeShares, lifetime_shares
from .regions import RegionChain, RegionReport, atomic_ratio, classify_regions
from .timing import EventTiming, TimelineProbe, atomic_event_timing, timeline_table

__all__ = [
    "RegionChain", "RegionReport", "classify_regions", "atomic_ratio",
    "LifetimeShares", "lifetime_shares",
    "EventTiming", "TimelineProbe", "atomic_event_timing", "timeline_table",
]
