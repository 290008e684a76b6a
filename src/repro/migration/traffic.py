"""Network-traffic accounting (Figure 10).

Every byte a migration moves is attributed to a category.  The SAS
memory-upload path is tracked too, but flagged local: the paper notes the
shared drive keeps upload traffic off the datacenter network (§4.3), so
Figure 10's breakdown excludes it.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.errors import ConfigError


class TrafficCategory(enum.Enum):
    """Where migration bytes travel and why."""

    #: Live migration of a full VM image (network).
    FULL_MIGRATION = "full_migration"
    #: Partial-VM descriptor push to the consolidation host (network).
    PARTIAL_DESCRIPTOR = "partial_descriptor"
    #: Pages demand-faulted by partial VMs (network).
    ON_DEMAND_PAGES = "on_demand_pages"
    #: Dirty state pushed home at reintegration (network).
    REINTEGRATION = "reintegration"
    #: Remaining image pulled when a partial VM converts to full in place
    #: (network).
    CONVERSION_PULL = "conversion_pull"
    #: Compressed memory image written to the memory server (local SAS).
    MEMORY_UPLOAD_SAS = "memory_upload_sas"

    @property
    def is_network(self) -> bool:
        """True when the bytes cross the datacenter network."""
        return self is not TrafficCategory.MEMORY_UPLOAD_SAS

    @property
    def is_partial_path(self) -> bool:
        """True for categories caused by the partial-migration mechanism."""
        return self in (
            TrafficCategory.PARTIAL_DESCRIPTOR,
            TrafficCategory.ON_DEMAND_PAGES,
            TrafficCategory.REINTEGRATION,
            TrafficCategory.MEMORY_UPLOAD_SAS,
        )


# Dense position of each member in definition order.  The ledger's hot
# ``add`` path indexes flat lists with it, replacing two enum hashes per
# recorded transfer with plain list indexing.
for _index, _category in enumerate(TrafficCategory):
    _category.ledger_index = _index
del _index, _category

_CATEGORIES = tuple(TrafficCategory)


class TrafficLedger:
    """Accumulates transfer volume (MiB) and event counts per category.

    Storage is a pair of flat lists indexed by ``ledger_index``; all
    iteration (totals, ``as_dict``, ``merge``) walks the categories in
    definition order, matching the dict-backed layout this replaces.
    """

    __slots__ = ("_mib", "_events")

    def __init__(self) -> None:
        self._mib: List[float] = [0.0] * len(_CATEGORIES)
        self._events: List[int] = [0] * len(_CATEGORIES)

    def add(self, category: TrafficCategory, mib: float) -> None:
        """Record one transfer of ``mib`` MiB."""
        if mib < 0.0:
            raise ConfigError(f"traffic must be non-negative, got {mib}")
        index = category.ledger_index
        self._mib[index] += mib
        self._events[index] += 1

    def mib(self, category: TrafficCategory) -> float:
        return self._mib[category.ledger_index]

    def events(self, category: TrafficCategory) -> int:
        return self._events[category.ledger_index]

    def network_total_mib(self) -> float:
        """All bytes that crossed the datacenter network."""
        return sum(
            self._mib[category.ledger_index]
            for category in _CATEGORIES
            if category.is_network
        )

    def full_path_mib(self) -> float:
        """Traffic attributable to full migrations (incl. conversions)."""
        return (
            self._mib[TrafficCategory.FULL_MIGRATION.ledger_index]
            + self._mib[TrafficCategory.CONVERSION_PULL.ledger_index]
        )

    def partial_path_mib(self) -> float:
        """Network traffic attributable to the partial-migration path."""
        return sum(
            self._mib[category.ledger_index]
            for category in _CATEGORIES
            if category.is_partial_path and category.is_network
        )

    def as_dict(self) -> Dict[str, float]:
        """Volumes per category, keyed by category value (for reports)."""
        return {
            category.value: self._mib[category.ledger_index]
            for category in _CATEGORIES
        }

    def merge(self, other: "TrafficLedger") -> None:
        """Fold another ledger's volumes and counts into this one."""
        for index in range(len(_CATEGORIES)):
            self._mib[index] += other._mib[index]
            self._events[index] += other._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficLedger):
            return NotImplemented
        return self._mib == other._mib and self._events == other._events

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{category.value}={self._mib[category.ledger_index]:.0f}"
            for category in _CATEGORIES
            if self._mib[category.ledger_index] > 0.0
        )
        return f"<TrafficLedger MiB: {parts or 'empty'}>"
