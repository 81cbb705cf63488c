"""Core data model: boxes, detections, trajectories and track sets.

A trajectory stores its boxes as columns: ascending frames, an ``(n, 4)``
array of ``(x, y, w, h)`` boxes and the confidences, all read-only. A track
set stores all its tracks' boxes as one such column set, ``Columns``, with
each track's id and first row; its ``Trajectory`` objects are views of it.
``BoundingBox`` and ``Detection`` are a per-box view of the columns, reached
only through ``Trajectory.detections``; no stage of the package builds them.

All types are immutable values. Functions elsewhere in the package never
mutate them, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# Decimal places of every written coordinate and confidence.
DECIMALS = 2
# The smallest positive size the output can write. The parser rejects boxes
# below it, so every box it accepts is written back as a positive size, even
# after averaging or interpolation moves it by float rounding error.
MIN_BOX_SIZE = 10.0**-DECIMALS
# Frames and ids must stay below it: every token is read as a float, and
# floats stop representing every integer there.
MAX_INDEX = 2**53
# Box values (x, y, w, h) must stay within it in magnitude. 2**44 * 10**DECIMALS
# < 2**53, so every value in range has an exact count of hundredths and the
# writer needs one path. Half an ulp at 2**44 is 2**-9, below the smallest
# size (MIN_BOX_SIZE / 2), so every right edge lies past its left, every
# bottom past its top, and every pair the overlap join finds intersects. As
# a power of two, it keeps rounded sums of n values in range within n * 2**44,
# so averaged and interpolated boxes stay in range and fused files read back.
MAX_COORD = 2.0**44


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


@dataclass(frozen=True, slots=True)
class Detection:
    """One box of one identity at one frame."""

    frame: int
    box: BoundingBox
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")


def _checked_id(track_id: int) -> int:
    if not isinstance(track_id, (int, np.integer)) or not 1 <= track_id < MAX_INDEX:
        raise ValueError(f"trajectory id must be an integer in [1, 2**53), got {track_id!r}")
    return track_id


def _read_only(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:  # a view of a read-only array is read-only already
        array.setflags(write=False)
    return array


class _Detections(Mapping):
    """Read-only ``frame -> Detection`` view of a trajectory's columns.

    Its length and its frames come from the columns. The ``Detection``
    objects are built on the first item read, then kept.
    """

    __slots__ = ("_frame", "_xywh", "_conf", "_items")

    def __init__(self, frame: np.ndarray, xywh: np.ndarray, conf: np.ndarray):
        self._frame, self._xywh, self._conf = frame, xywh, conf
        self._items: Optional[Dict[int, Detection]] = None

    def __len__(self) -> int:
        return len(self._frame)

    def __iter__(self) -> Iterator[int]:
        return iter(self._frame.tolist())

    def __getitem__(self, frame: int) -> Detection:
        return self._built()[frame]

    def _built(self) -> Dict[int, Detection]:
        if self._items is None:
            self._items = {
                f: Detection(f, BoundingBox(*box), c)
                for f, box, c in zip(self._frame.tolist(), self._xywh.tolist(), self._conf.tolist())
            }
        return self._items


@dataclass(frozen=True, slots=True, eq=False)
class Trajectory:
    """All boxes of a single identity, as columns.

    ``frame`` is an ascending ``int64[n]`` without repeats, ``xywh`` the
    ``float64[n, 4]`` boxes and ``conf`` the ``float64[n]`` confidences.
    The constructor copies and validates them once and makes the copies
    read-only. Frames between ``start`` and ``stop`` may be missing (gaps);
    ``length`` is the inclusive frame span ``stop - start + 1`` regardless
    of gaps. The constructor accepts only what the writer can write and the
    parser read back: integer frames and ids below ``MAX_INDEX``, sizes of
    at least ``MIN_BOX_SIZE / 2``, the smallest that ``DECIMALS`` places
    round up to ``MIN_BOX_SIZE``, and box values of at most ``MAX_COORD``
    in magnitude.
    """

    id: int
    frame: np.ndarray
    xywh: np.ndarray
    conf: np.ndarray
    _detections: Optional[_Detections] = field(default=None, init=False, repr=False)

    __hash__ = None  # compared by value, like the arrays it holds

    def __post_init__(self) -> None:
        _checked_id(self.id)
        frame = np.asarray(self.frame).reshape(-1)
        if len(frame) == 0 or frame.dtype.kind not in "iu":  # a cast would truncate float frames
            raise ValueError(f"frames must be a non-empty integer array, got {frame.dtype}[{len(frame)}]")
        # every frame, before the cast and the differences, which could wrap
        if frame.min() < 1 or frame.max() >= MAX_INDEX:
            raise ValueError(f"frames must be in [1, 2**53), got {frame.min()} to {frame.max()}")
        frame = _read_only(frame.astype(np.int64))
        # reshape raises ValueError when the column lengths differ
        xywh = _read_only(np.array(self.xywh, dtype=np.float64).reshape(len(frame), 4))
        conf = _read_only(np.array(self.conf, dtype=np.float64).reshape(len(frame)))
        if (np.diff(frame) <= 0).any():
            raise ValueError(f"frames of trajectory {self.id} are not ascending and unique")
        if not np.isfinite(xywh).all():
            raise ValueError("non-finite bounding box field")
        if (np.abs(xywh) > MAX_COORD).any():
            raise ValueError("bounding box field beyond 2**44 in magnitude")
        if (xywh[:, 2:] < MIN_BOX_SIZE / 2).any():
            raise ValueError(f"box width or height below {MIN_BOX_SIZE / 2}")
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise ValueError("confidence outside [0, 1]")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "xywh", xywh)
        object.__setattr__(self, "conf", conf)

    @classmethod
    def _of(cls, track_id: int, frame: np.ndarray, xywh: np.ndarray, conf: np.ndarray) -> "Trajectory":
        """Wrap columns that are valid by construction, without copying or checking them."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "id", track_id)
        object.__setattr__(traj, "frame", _read_only(frame))
        object.__setattr__(traj, "xywh", _read_only(xywh))
        object.__setattr__(traj, "conf", _read_only(conf))
        object.__setattr__(traj, "_detections", None)
        return traj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.frame, other.frame)
            and np.array_equal(self.xywh, other.xywh)
            and np.array_equal(self.conf, other.conf)
        )

    def __reduce__(self):
        return Trajectory, (self.id, self.frame, self.xywh, self.conf)

    @property
    def detections(self) -> Mapping[int, Detection]:
        """The boxes as a read-only ``frame -> Detection`` mapping, in ascending frame order."""
        if self._detections is None:
            object.__setattr__(self, "_detections", _Detections(self.frame, self.xywh, self.conf))
        return self._detections

    @property
    def start(self) -> int:
        return int(self.frame[0])

    @property
    def stop(self) -> int:
        return int(self.frame[-1])

    @property
    def length(self) -> int:
        return self.stop - self.start + 1

    def with_id(self, new_id: int) -> "Trajectory":
        """The same boxes under another id; the columns are shared."""
        return Trajectory._of(_checked_id(new_id), self.frame, self.xywh, self.conf)


class Columns(NamedTuple):
    """Tracks as one column set: the rows of every track, one track after another.

    Track ``k`` has id ``ids[k]`` and the rows from ``starts[k]`` up to the
    next track's first row, or the end, in ascending frame order: ``frame``,
    ``xywh`` and ``conf`` of those rows are the columns of its
    ``Trajectory``. The stages of the pipeline read and build column sets;
    only a ``TrackSet``'s keeps its tracks in id order.
    """

    ids: np.ndarray  # int64[k]
    starts: np.ndarray  # int64[k], ascending from 0
    frame: np.ndarray  # int64[n]
    xywh: np.ndarray  # float64[n, 4]
    conf: np.ndarray  # float64[n]

    @classmethod
    def of(cls, tracks: Sequence[Trajectory]) -> "Columns":
        """The rows of ``tracks``, in their order, copied into one column set."""
        ids = np.array([t.id for t in tracks], dtype=np.int64)
        starts = np.cumsum([0, *(len(t.frame) for t in tracks)])[:-1]
        frame = np.concatenate([np.empty(0, np.int64), *(t.frame for t in tracks)])
        xywh = np.concatenate([np.empty((0, 4)), *(t.xywh for t in tracks)])
        conf = np.concatenate([np.empty(0), *(t.conf for t in tracks)])
        return cls(ids, starts, frame, xywh, conf)

    def stops(self) -> np.ndarray:
        """Past each track's last row."""
        return np.append(self.starts, len(self.frame))[1:]

    def counts(self) -> np.ndarray:
        """Each track's number of rows."""
        return self.stops() - self.starts

    def spans(self) -> np.ndarray:
        """Each track's inclusive frame span, its ``Trajectory.length``."""
        return self.frame[self.stops() - 1] - self.frame[self.starts] + 1

    def trajectories(self) -> List[Trajectory]:
        """Each track as a ``Trajectory`` whose columns are views of these."""
        bounds = [*self.starts.tolist(), len(self.frame)]
        return [
            Trajectory._of(track_id, self.frame[lo:hi], self.xywh[lo:hi], self.conf[lo:hi])
            for track_id, lo, hi in zip(self.ids.tolist(), bounds, bounds[1:])
        ]


@dataclass(frozen=True, slots=True, init=False, eq=False)
class TrackSet:
    """Every trajectory one tracker (or the fused result) produced for one sequence.

    ``columns`` holds the boxes of all tracks, ascending by id whatever the
    order they were given in, so two track sets of the same tracks are
    equal. The constructor copies the given trajectories into it once.
    ``trajectories`` is a tuple of read-only views of it, built on first
    read and then kept; ``len`` and ``num_detections`` read the columns.
    """

    sequence: str
    columns: Columns
    _trajectories: Optional[Tuple[Trajectory, ...]] = field(default=None, repr=False)

    __hash__ = None  # compared by value, like the arrays it holds

    def __init__(self, sequence: str = "", trajectories: Iterable[Trajectory] = ()) -> None:
        # sorted into a list of its own: the caller's list may change, and an iterator is read once
        tracks = sorted(trajectories, key=lambda t: t.id)
        if any(a.id == b.id for a, b in zip(tracks, tracks[1:])):
            raise ValueError("duplicate trajectory ids within a track set")
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "columns", Columns(*map(_read_only, Columns.of(tracks))))
        object.__setattr__(self, "_trajectories", None)

    @classmethod
    def _of(cls, sequence: str, columns: Columns) -> "TrackSet":
        """Wrap a column set in id order that is valid by construction, without copying or checking it."""
        ts = object.__new__(cls)
        object.__setattr__(ts, "sequence", sequence)
        object.__setattr__(ts, "columns", Columns(*map(_read_only, columns)))
        object.__setattr__(ts, "_trajectories", None)
        return ts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackSet):
            return NotImplemented
        return self.sequence == other.sequence and all(map(np.array_equal, self.columns, other.columns))

    def __reduce__(self):
        return TrackSet, (self.sequence, self.trajectories)

    @property
    def trajectories(self) -> Tuple[Trajectory, ...]:
        """The tracks as ``Trajectory`` views of the columns, in id order."""
        if self._trajectories is None:
            object.__setattr__(self, "_trajectories", tuple(self.columns.trajectories()))
        return self._trajectories

    def __len__(self) -> int:
        return len(self.columns.ids)

    @property
    def num_detections(self) -> int:
        return len(self.columns.frame)
