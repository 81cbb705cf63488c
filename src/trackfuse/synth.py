"""Synthetic tracking scenarios: ground truth plus degraded tracker outputs.

Ground-truth objects move on bounded-velocity paths, random waypoints that
``linear_interpolate`` (as in ``merge --interpolate``) fills in, one object
per horizontal band of the arena (bands keep distinct objects from
colliding, which keeps fused results easy to reason about). Tracker outputs
are the ground truth pushed through a per-tracker degradation: Gaussian
position jitter, independent per-frame drops, one contiguous dropped
segment, and identity relabeling at random switch events. ``_cut`` makes
every tracker's tracks, ``complementary_pair``'s too, of ground-truth rows.

Everything is a pure function of the spec. Randomness comes from the
SplitMix64 streams in :mod:`trackfuse.rng`; the draw order is fixed (see
``_degrade``, which draws each object's per-frame numbers in one block) so
a seed pins the scenario byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .interpolate import _interpolated
from .model import Columns, TrackSet, _check_count
from .rng import _TO_UNIT, SplitMix64, stream

WAYPOINT_SPACING = 50  # frames between direction changes
MAX_SPEED = 2.5  # pixels per frame, per axis
BOX_MIN = 24.0  # box side range, pixels
BOX_MAX = 48.0


@dataclass(frozen=True)
class TrackerDegradation:
    """Error model applied to ground truth to fake one tracker's output."""

    idswitch_rate: float = 0.0  # per-frame probability of starting a new id
    drop_rate: float = 0.0  # per-frame probability of losing the box
    jitter: float = 0.0  # std-dev of Gaussian position noise, pixels
    segment_drop: int = 0  # expected length of one dropped segment, frames

    def __post_init__(self) -> None:
        for name in ("idswitch_rate", "drop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")
        _check_count("segment_drop", self.segment_drop, 0)


DEFAULT_DEGRADATION = TrackerDegradation(
    idswitch_rate=0.01, drop_rate=0.05, jitter=1.5, segment_drop=10
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Size, arena, seed and per-tracker degradations of one scenario."""

    num_objects: int = 4
    num_frames: int = 200
    arena_w: int = 800
    arena_h: int = 600
    seed: int = 0
    trackers: Tuple[TrackerDegradation, ...] = ()

    def __post_init__(self) -> None:
        _check_count("num_objects", self.num_objects, 1)
        _check_count("num_frames", self.num_frames, 1)
        for name in ("arena_w", "arena_h"):
            _check_count(name, getattr(self, name), -math.inf)  # any integer: the checks below bound them
        if self.arena_w < 96:
            raise ValueError(f"arena width must be >= 96, got {self.arena_w}")
        if self.arena_h < 16 * self.num_objects:
            raise ValueError(
                f"arena height {self.arena_h} too small for {self.num_objects} objects"
            )


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _generate_gt(spec: ScenarioSpec) -> TrackSet:
    """Ground truth: one trajectory per object, ids 1..num_objects.

    Draw order per object: box width, box height, start x, start y, then an
    x and a y step per waypoint, at most ``WAYPOINT_SPACING`` frames apart.
    """
    rng = stream(spec.seed, 0)
    band_h = spec.arena_h / spec.num_objects
    waypoint_frames = list(range(1, spec.num_frames + 1, WAYPOINT_SPACING))
    if waypoint_frames[-1] != spec.num_frames:
        waypoint_frames.append(spec.num_frames)
    points = []  # every object's waypoint boxes, object after object
    for i in range(spec.num_objects):
        w = rng.uniform(BOX_MIN, BOX_MAX)
        h = min(rng.uniform(BOX_MIN, BOX_MAX), 0.75 * band_h)
        band_lo = i * band_h
        x_hi = spec.arena_w - w
        y_lo, y_hi = band_lo, band_lo + band_h - h

        x = rng.uniform(0.0, x_hi)
        y = rng.uniform(y_lo, y_hi)
        points.append((x, y, w, h))
        for prev_f, next_f in zip(waypoint_frames, waypoint_frames[1:]):
            step = MAX_SPEED * (next_f - prev_f)
            x = _clamp(x + rng.uniform(-step, step), 0.0, x_hi)
            y = _clamp(y + rng.uniform(-step, step), y_lo, y_hi)
            points.append((x, y, w, h))

    k, n = spec.num_objects, len(waypoint_frames)
    waypoints = Columns(
        np.arange(1, k + 1), np.arange(k) * n, np.tile(waypoint_frames, k), np.array(points), np.ones(k * n)
    )
    return TrackSet._of("synthetic", _interpolated(waypoints, WAYPOINT_SPACING))


def _outside(frame: np.ndarray, start: int, length: int) -> np.ndarray:
    """Mask of the frames outside the window ``[start, start + length)``."""
    return (frame < start) | (frame >= start + length)


def _normals(sigma: float, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """``rng.normal(0.0, sigma)`` of each pair of uniforms ``u1``, ``u2`` in [0, 1).

    ``u1 + 2**-53`` is ``normal``'s shift of ``u1`` into (0, 1], exactly:
    both terms are multiples of 2**-53. ``math.log`` and ``math.cos`` run
    per value, as in ``normal``; numpy's may differ in the last bit.
    """
    shape, n = u1.shape, u1.size
    log_u1 = np.fromiter(map(math.log, memoryview((u1 + _TO_UNIT).ravel())), float, n)
    cos_u2 = np.fromiter(map(math.cos, memoryview(((2.0 * math.pi) * u2).ravel())), float, n)
    return (sigma * np.sqrt(-2.0 * log_u1) * cos_u2).reshape(shape)


def _cut(gt: Columns, rows: np.ndarray, starts: np.ndarray) -> Columns:
    """Copies of the gt ``rows`` as tracks with ids 1..K, track k from position ``starts[k]`` of ``rows``."""
    return Columns(np.arange(1, len(starts) + 1), starts, gt.frame[rows], gt.xywh[rows], gt.conf[rows])


def _degrade(gt: TrackSet, deg: TrackerDegradation, rng: SplitMix64, sequence: str) -> TrackSet:
    """Apply one tracker's error model to the ground truth.

    Objects are processed in ascending gt id. Per object the draws are:
    the dropped-segment length (uniform in [1, 2*segment_drop - 1]) and its
    start frame, when segment_drop > 0 and the window fits the interior of
    the track; then, for each detected frame outside that window, exactly
    six ``next_u64`` outputs in order: drop decision, x jitter (u1, u2 of
    Box-Muller), y jitter (u1, u2), switch decision. They come in one block
    per object, in the order that ``bernoulli``, ``normal``, ``normal``,
    ``bernoulli`` per frame would draw them. The switch decision is ignored
    on an object's first surviving frame. Output ids are 1..K in (object,
    id segment) order.
    """
    columns = gt.columns
    rows, firsts, shifts = [], [], []  # per kept object: its gt rows, which start an id segment, their jitter
    for lo, hi in zip(columns.starts.tolist(), columns.stops().tolist()):
        kept = np.arange(lo, hi)
        if deg.segment_drop > 0:
            frame = columns.frame[lo:hi]
            length = rng.randint(1, max(1, 2 * deg.segment_drop - 1))
            first, last = int(frame[0]) + 1, int(frame[-1]) - length
            if first <= last:
                kept = kept[_outside(frame, rng.randint(first, last), length)]

        u = ((rng.block(6 * len(kept)) >> np.uint64(11)) * _TO_UNIT).reshape(-1, 6)
        detected = u[:, 0] >= deg.drop_rate
        kept, u = kept[detected], u[detected]
        if not len(kept):
            continue
        rows.append(kept)
        # a switch starts a new id segment, except on the first surviving frame
        firsts.append(np.append(True, u[1:, 5] < deg.idswitch_rate))
        shifts.append(_normals(deg.jitter, u[:, [1, 3]], u[:, [2, 4]]))
    if not rows:
        return TrackSet(sequence)
    cut = _cut(columns, np.concatenate(rows), np.flatnonzero(np.concatenate(firsts)))
    cut.xywh[:, :2] += np.concatenate(shifts)
    return TrackSet._of(sequence, cut)


def generate_scenario(spec: ScenarioSpec) -> Tuple[TrackSet, List[TrackSet]]:
    """Ground truth plus one degraded output per entry in ``spec.trackers``.

    The ground truth uses the substream (seed, 0) and tracker k the
    substream (seed, k + 1), so adding a tracker never changes the others.
    """
    gt = _generate_gt(spec)
    trackers = [
        _degrade(gt, deg, stream(spec.seed, k + 1), f"tracker_{k + 1}")
        for k, deg in enumerate(spec.trackers)
    ]
    return gt, trackers


def _half_degraded(gt: TrackSet, degrade_parity: int, rng: SplitMix64, sequence: str) -> TrackSet:
    """Copy the gt, degrading only objects whose 0-based index has the parity.

    A degraded object gets one identity switch at its midpoint frame plus
    one dropped window (length drawn from [8, 16]) in each half; the other
    objects are copied verbatim. Ids are 1..K in (object, fragment) order.
    """
    columns = gt.columns
    tracks = []  # the gt rows of each output track
    for idx, (lo, hi) in enumerate(zip(columns.starts.tolist(), columns.stops().tolist())):
        if idx % 2 != degrade_parity:
            tracks.append(np.arange(lo, hi))
            continue
        frame = columns.frame[lo:hi]
        start, stop = int(frame[0]), int(frame[-1])
        mid = (start + stop + 1) // 2
        for first, last in ((start, mid - 1), (mid, stop)):
            keep = (frame >= first) & (frame <= last)
            length = rng.randint(8, 16)
            if first + 1 <= last - length:
                keep &= _outside(frame, rng.randint(first + 1, last - length), length)
            if keep.any():
                tracks.append(lo + np.flatnonzero(keep))
    starts = np.cumsum([0, *map(len, tracks[:-1])])
    return TrackSet._of(sequence, _cut(columns, np.concatenate(tracks), starts))


def complementary_pair(spec: ScenarioSpec) -> Tuple[TrackSet, TrackSet, TrackSet]:
    """Two trackers with complementary failures on the same ground truth.

    Tracker A is perfect on even-indexed objects (0-based) and fragments the
    odd ones; tracker B is the mirror image. Fusing the two can recover the
    complete, switch-free tracking of every object.
    """
    if spec.num_objects < 2:
        raise ValueError("complementary_pair needs at least 2 objects")
    gt = _generate_gt(spec)
    tracker_a = _half_degraded(gt, 1, stream(spec.seed, 101), "tracker_1")
    tracker_b = _half_degraded(gt, 0, stream(spec.seed, 102), "tracker_2")
    return gt, tracker_a, tracker_b


_SPEC_KEYS = {"objects": "num_objects", "frames": "num_frames", "seed": "seed"}
_DEGRADATION_KEYS = {
    "idswitch": "idswitch_rate",
    "drop": "drop_rate",
    "jitter": "jitter",
    "segment": "segment_drop",
}


def parse_arena(text: str) -> Tuple[int, int]:
    """Width and height of an arena written ``WxH``, such as ``800x600``."""
    w, sep, h = text.lower().partition("x")
    if not sep:
        raise ValueError("expected WxH")
    return int(w), int(h)


def _degradation_entries(text: str) -> Dict[str, float | int]:
    """The ``TrackerDegradation`` fields of one ``tracker`` value, not yet range-checked."""
    kwargs: Dict[str, float | int] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep or key not in _DEGRADATION_KEYS:
            raise ValueError(
                "expected tracker entries like "
                f"idswitch=0.01 drop=0.05 jitter=1.5 segment=10, got {token!r}"
            )
        field = _DEGRADATION_KEYS[key]
        try:
            kwargs[field] = int(value) if field == "segment_drop" else float(value)
        except ValueError:
            raise ValueError(f"malformed number {value!r}") from None
    return kwargs


def _config_fields(text: str, with_trackers: bool = True) -> Dict[str, object]:
    """The ``ScenarioSpec`` fields a config sets; each line is checked alone, the spec not.

    Without ``with_trackers``, for a caller that replaces the trackers, the
    ``tracker`` lines are read but their values not range-checked, and no
    trackers are returned.
    """
    fields: Dict[str, object] = {}
    trackers: List[TrackerDegradation] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        try:
            if not sep:
                raise ValueError("expected key=value")
            if key in _SPEC_KEYS:
                fields[_SPEC_KEYS[key]] = int(value)
            elif key == "arena":
                fields["arena_w"], fields["arena_h"] = parse_arena(value)
            elif key == "tracker":
                entries = _degradation_entries(value)
                if with_trackers:
                    trackers.append(TrackerDegradation(**entries))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {exc}") from None
    if with_trackers:
        fields["trackers"] = tuple(trackers)
    return fields


def parse_scenario_config(text: str) -> ScenarioSpec:
    """Parse a plain-text key=value scenario description.

    Recognized keys: ``objects``, ``frames``, ``seed``, ``arena`` (``WxH``)
    and one ``tracker`` line per tracker, whose value holds space-separated
    ``idswitch= drop= jitter= segment=`` entries (missing entries are 0).
    ``#`` starts a comment; blank lines are ignored.
    """
    return ScenarioSpec(**_config_fields(text))
