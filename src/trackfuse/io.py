"""Reading and writing MOTChallenge-format text files.

Result files carry one detection per line:

    <frame>,<id>,<bb_left>,<bb_top>,<bb_width>,<bb_height>,<conf>,<x>,<y>,<z>

``frame`` and ``id`` are 1-based integers; ``-1`` is accepted in unused
trailing columns, and everything after the height column is optional.
Ground-truth files reuse the same layout with column 7 as the active flag
(rows with flag 0 are skipped), column 8 the class id and column 9 the
visibility; class and visibility are ignored here (single-class data).
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from .model import BoundingBox, Detection, TrackSet, Trajectory

# Decimal places of every written coordinate and confidence.
DECIMALS = 2
# The smallest positive size the output can write. The parser rejects boxes
# below it, so every box it accepts is written back as a positive size, even
# after averaging or interpolation moves it by float rounding error.
MIN_BOX_SIZE = 10.0**-DECIMALS
_NUM = f"{{:.{DECIMALS}f}}"
# frame, id, x, y, w, h, confidence, then the three unused columns
_LINE = ",".join(["{}", "{}", *[_NUM] * 5, "-1", "-1", "-1"])


class ParseError(ValueError):
    """Malformed input line, with the 1-based line number it came from."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _positive_index(value: float, name: str, line_no: int) -> int:
    if not value.is_integer() or value < 1:
        raise ParseError(line_no, f"{name} must be a positive integer, got {value}")
    return int(value)


def parse_trackset(text: str, is_ground_truth: bool = False, sequence: str = "") -> TrackSet:
    """Parse MOTChallenge result (or ground-truth) text into a TrackSet.

    Args:
        text: full file content.
        is_ground_truth: interpret column 7 as the active flag and skip
            rows whose flag is 0. Ground-truth detections get confidence 1.
        sequence: label stored on the returned TrackSet.

    Returns:
        One Trajectory per distinct id, detections sorted by frame.

    Raises:
        ParseError: malformed number, non-positive frame/id, box width or
            height below ``MIN_BOX_SIZE``, or a duplicate (frame, id) pair,
            each reported with its line number.
    """
    per_id: dict[int, List[Detection]] = {}
    seen: set[tuple[int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        while parts and parts[-1] == "":
            parts.pop()
        if len(parts) < 6:
            raise ParseError(line_no, f"expected at least 6 columns, got {len(parts)}")
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError:
                raise ParseError(line_no, f"malformed number {part!r}") from None

        frame = _positive_index(values[0], "frame", line_no)
        track_id = _positive_index(values[1], "id", line_no)
        x, y, w, h = values[2:6]
        if w < MIN_BOX_SIZE:
            raise ParseError(line_no, f"box width {w} below {MIN_BOX_SIZE}")
        if h < MIN_BOX_SIZE:
            raise ParseError(line_no, f"box height {h} below {MIN_BOX_SIZE}")

        if is_ground_truth:
            if len(values) >= 7 and values[6] == 0:
                continue
            conf = 1.0
        else:
            conf = values[6] if len(values) >= 7 else 1.0
            if conf < 0:  # -1 marks an unset confidence column
                conf = 1.0
            conf = min(conf, 1.0)

        if (frame, track_id) in seen:
            raise ParseError(line_no, f"duplicate (frame, id) pair ({frame}, {track_id})")
        seen.add((frame, track_id))

        try:
            det = Detection(frame, BoundingBox(x, y, w, h), conf)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        per_id.setdefault(track_id, []).append(det)

    trajectories = [
        Trajectory.from_detections(track_id, dets)
        for track_id, dets in sorted(per_id.items())
    ]
    return TrackSet(sequence, trajectories)


def serialize_trackset(ts: TrackSet) -> str:
    """Render a TrackSet in MOTChallenge result format.

    Lines are sorted by (frame, id); coordinates and confidence are written
    with ``DECIMALS`` decimal places, so a parse/serialize round trip
    preserves values to within half a unit of the last place.
    """
    rows = []
    for traj in ts.trajectories:
        for frame, det in traj.detections.items():
            rows.append((frame, traj.id, det))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [
        _LINE.format(frame, tid, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
        for frame, tid, d in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_trackset(path: str | Path, is_ground_truth: bool = False) -> TrackSet:
    path = Path(path)
    return parse_trackset(
        path.read_text(encoding="utf-8"), is_ground_truth, sequence=path.stem
    )


def save_trackset(path: str | Path, ts: TrackSet) -> None:
    Path(path).write_text(serialize_trackset(ts), encoding="utf-8")
