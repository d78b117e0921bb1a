"""Time-series archive of RPKI snapshots.

Models the 30-minute-granularity RPKI archive of §4: an ordered sequence
of ``(timestamp, RoaSet)`` snapshots with point-in-time lookup and
per-prefix history extraction — the ingredients of the Fig. 3 lease
timeline.  On disk an archive is a directory of ``vrps-<timestamp>.csv``
files, one VRP CSV per snapshot, mirroring how public RPKI archives are
published.
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..net import Prefix
from .roa import RoaSet

__all__ = ["RpkiArchive"]


class RpkiArchive:
    """An append-only, timestamp-ordered series of ROA snapshots."""

    def __init__(self) -> None:
        self._timestamps: List[int] = []
        self._snapshots: Dict[int, RoaSet] = {}

    def add_snapshot(self, timestamp: int, roas: RoaSet) -> None:
        """Record the snapshot taken at *timestamp* (seconds)."""
        if timestamp in self._snapshots:
            self._snapshots[timestamp] = roas
            return
        bisect.insort(self._timestamps, timestamp)
        self._snapshots[timestamp] = roas

    def timestamps(self) -> List[int]:
        """All snapshot timestamps, ascending."""
        return list(self._timestamps)

    def snapshot_at(self, timestamp: int) -> Optional[RoaSet]:
        """The most recent snapshot at or before *timestamp*, or None."""
        index = bisect.bisect_right(self._timestamps, timestamp)
        if index == 0:
            return None
        return self._snapshots[self._timestamps[index - 1]]

    def latest(self) -> Optional[RoaSet]:
        """The newest snapshot, or None when empty."""
        if not self._timestamps:
            return None
        return self._snapshots[self._timestamps[-1]]

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Tuple[int, RoaSet]]:
        for timestamp in self._timestamps:
            yield timestamp, self._snapshots[timestamp]

    # -- per-prefix history -----------------------------------------------
    def authorized_origin_history(
        self, prefix: Prefix
    ) -> List[Tuple[int, FrozenSet[int]]]:
        """For each snapshot, the ASNs some covering ROA names for *prefix*.

        This is the RPKI series plotted in Fig. 3: the set of authorized
        origins over time, including AS0 markers between leases.
        """
        return [
            (timestamp, roas.authorized_origins(prefix))
            for timestamp, roas in self
        ]

    # -- directory format ---------------------------------------------------
    def to_directory(
        self, directory: Path, rendered: Optional[Dict[RoaSet, str]] = None
    ) -> None:
        """Write one ``vrps-<timestamp>.csv`` per snapshot.

        Snapshots that are one :class:`RoaSet` object are rendered once.
        *rendered* (set → VRP CSV) extends that across the caller's other
        writes of the same, unchanged sets.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rendered = {} if rendered is None else rendered
        for timestamp, snapshot in self:
            text = rendered.get(snapshot)
            if text is None:
                text = rendered[snapshot] = snapshot.to_csv()
            (directory / f"vrps-{timestamp:012d}.csv").write_text(text)

    @classmethod
    def from_directory(
        cls, directory: Path, parsed: Optional[Dict[str, RoaSet]] = None
    ) -> "RpkiArchive":
        """Load an archive written by :meth:`to_directory`.

        Snapshot files with the same text are parsed once and share one
        :class:`RoaSet`, as the snapshots of an in-memory archive may.
        *parsed* (VRP CSV text → set) extends that to sets the caller
        already parsed.
        """
        archive = cls()
        parsed = {} if parsed is None else parsed
        for path in sorted(Path(directory).glob("vrps-*.csv")):
            timestamp = int(path.stem.replace("vrps-", ""))
            text = path.read_text()
            roas = parsed.get(text)
            if roas is None:
                roas = parsed[text] = RoaSet.from_csv(text)
            archive.add_snapshot(timestamp, roas)
        return archive

    def change_points(self, prefix: Prefix) -> List[Tuple[int, FrozenSet[int]]]:
        """Snapshots where the authorized-origin set changed.

        The first snapshot always appears.  Collapses the 30-minute series
        into the lease-boundary events of §6.5.
        """
        changes: List[Tuple[int, FrozenSet[int]]] = []
        previous: Optional[FrozenSet[int]] = None
        for timestamp, origins in self.authorized_origin_history(prefix):
            if previous is None or origins != previous:
                changes.append((timestamp, origins))
                previous = origins
        return changes
