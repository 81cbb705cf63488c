"""Core data model: boxes, detections, trajectories and track sets.

All types are plain immutable values. Functions elsewhere in the package
never mutate them, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel rectangle stored as (left, top, width, height)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"non-finite bounding box field {name}={value!r}")
        if self.w <= 0:
            raise ValueError(f"non-positive box width {self.w}")
        if self.h <= 0:
            raise ValueError(f"non-positive box height {self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True, slots=True)
class Detection:
    """One box of one identity at one frame.

    ``source`` tags the tracker the detection originally came from, so a
    merged trajectory can remember where each of its boxes originated.
    """

    frame: int
    box: BoundingBox
    confidence: float = 1.0
    source: int = 0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """All detections of a single identity, indexed by frame.

    Frames between ``start`` and ``stop`` may be missing (gaps); ``length``
    is the inclusive frame span ``stop - start + 1`` regardless of gaps.
    The detection mapping is normalized to ascending frame order.
    """

    id: int
    detections: Dict[int, Detection]

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"trajectory id must be >= 1, got {self.id}")
        if not self.detections:
            raise ValueError("trajectory must contain at least one detection")
        items = sorted(self.detections.items())
        for frame, det in items:
            if det.frame != frame:
                raise ValueError(
                    f"detection frame {det.frame} stored under key {frame}"
                )
        object.__setattr__(self, "detections", dict(items))

    @classmethod
    def from_detections(cls, track_id: int, detections: Iterable[Detection]) -> "Trajectory":
        """Build a trajectory, rejecting duplicate frames."""
        dets: Dict[int, Detection] = {}
        for det in detections:
            if det.frame in dets:
                raise ValueError(
                    f"duplicate frame {det.frame} in trajectory {track_id}"
                )
            dets[det.frame] = det
        return cls(track_id, dets)

    @property
    def start(self) -> int:
        return next(iter(self.detections))

    @property
    def stop(self) -> int:
        return next(reversed(self.detections))

    @property
    def length(self) -> int:
        return self.stop - self.start + 1

    def frames(self) -> List[int]:
        return list(self.detections)

    def with_id(self, new_id: int) -> "Trajectory":
        return Trajectory(new_id, self.detections)

    def with_source(self, source: int) -> "Trajectory":
        dets = {f: replace(d, source=source) for f, d in self.detections.items()}
        return Trajectory(self.id, dets)


@dataclass(frozen=True, slots=True)
class TrackSet:
    """Every trajectory one tracker (or the fused result) produced for one sequence."""

    sequence: str = ""
    trajectories: List[Trajectory] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [t.id for t in self.trajectories]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate trajectory ids within a track set")

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def num_detections(self) -> int:
        return sum(len(t.detections) for t in self.trajectories)
