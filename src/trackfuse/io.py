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

from io import StringIO
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .geometry import box_columns
from .model import TrackSet, Trajectory

# Decimal places of every written coordinate and confidence.
DECIMALS = 2
# The smallest positive size the output can write. The parser rejects boxes
# below it, so every box it accepts is written back as a positive size, even
# after averaging or interpolation moves it by float rounding error.
MIN_BOX_SIZE = 10.0**-DECIMALS
# Frames and ids must stay below it: every token is read as a float, and
# floats stop representing every integer there.
MAX_INDEX = 2**53
# Characters of text the parser splits into lines and converts at once. A
# block ends at a line break. It bounds the parser's temporary memory and
# does not change results.
TEXT_BLOCK = 1 << 14
# Rows the writer formats at once. It bounds the writer's temporary memory
# and does not change results.
ROW_BLOCK = 1 << 10
# Besides ASCII digits, the bytes a block may hold to go to numpy's text reader.
_PLAIN_NON_DIGITS = b".,-+eE \n"
_NUM = f"{{:.{DECIMALS}f}}"
# frame, id, x, y, w, h, confidence, then the three unused columns
_LINE = ",".join(["{}", "{}", *[_NUM] * 5, "-1", "-1", "-1"])


class ParseError(ValueError):
    """Malformed input line, with the 1-based line number it came from."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _blocks(text: str) -> Iterator[str]:
    """``text`` in pieces of about ``TEXT_BLOCK`` characters, each ending at a line break."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + TEXT_BLOCK)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _plain_table(block: str) -> Optional[np.ndarray]:
    """The values of ``block`` as a float64[lines, columns] table, or None.

    Only blocks of plain numbers go to numpy's text reader, and a result is
    kept only with one row per line: a blank line, a ragged block, a
    malformed number or any other character returns None. The reader
    converts tokens with the routine behind ``float``, so every value it
    returns is bit-identical to ``float``'s.
    """
    # what is left is all ASCII digits, and at least one, only for a plain
    # block; numpy warns on a block without data
    if not (block.isascii() and block.encode("ascii").translate(None, _PLAIN_NON_DIGITS).isdigit()):
        return None
    try:
        table = np.loadtxt(StringIO(block), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    num_lines = block.count("\n") + (not block.endswith("\n"))
    return table if len(table) == num_lines else None


def _tokenize(lines: List[str], first_line: int) -> Tuple[List[float], List[int], List[int], Optional[ParseError]]:
    """Line by line: values, column counts and line numbers of the non-blank lines.

    Stops at the first line with fewer than 6 columns or a malformed number
    and returns its error. Empty trailing columns are dropped.
    """
    values: List[float] = []
    counts: List[int] = []
    line_nos: List[int] = []
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        while parts and parts[-1] == "":
            parts.pop()
        if len(parts) < 6:
            return values, counts, line_nos, ParseError(
                line_no, f"expected at least 6 columns, got {len(parts)}"
            )
        row = []
        for part in parts:
            try:
                row.append(float(part))
            except ValueError:
                return values, counts, line_nos, ParseError(line_no, f"malformed number {part!r}")
        values += row
        counts.append(len(parts))
        line_nos.append(line_no)
    return values, counts, line_nos, None


def _rows(text: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[ParseError]]:
    """The first 7 columns, the column counts and the line numbers of the non-blank lines.

    Reading stops at the first line with too few columns or a malformed
    number, whose error is returned with the rows before it. Missing
    columns hold an arbitrary value of the row.
    """
    # room for a row per "\n"; splitlines also breaks at "\r" and a few other
    # characters, and text that uses them grows the arrays
    size = text.count("\n") + 1
    rows, counts, line_nos = np.empty((size, 7)), np.empty(size, np.int64), np.empty(size, np.int64)
    n = 0
    error = None
    next_line = 1
    for block in _blocks(text):
        table = _plain_table(block)
        if table is not None:
            num_lines = len(table)
            block_counts = np.full(num_lines, table.shape[1])
            values = table.ravel()
            block_lines = np.arange(next_line, next_line + num_lines)
        else:
            lines = block.splitlines()
            num_lines = len(lines)
            flat, count_list, no_list, error = _tokenize(lines, next_line)
            values = np.array(flat, dtype=np.float64)
            block_counts = np.array(count_list, dtype=np.int64)
            block_lines = np.array(no_list, dtype=np.int64)
        m = len(block_counts)
        if n + m > size:
            size = 2 * (n + m)
            rows, counts, line_nos = (np.resize(a, (size, *a.shape[1:])) for a in (rows, counts, line_nos))
        firsts = np.cumsum(block_counts) - block_counts
        rows[n : n + m] = values[firsts[:, None] + np.minimum(np.arange(7), block_counts[:, None] - 1)]
        counts[n : n + m] = block_counts
        line_nos[n : n + m] = block_lines
        n += m
        if error is not None:
            break
        next_line += num_lines
    return rows[:n], counts[:n], line_nos[:n], error


def _index_checks(values: np.ndarray, name: str) -> List[Tuple[np.ndarray, Callable[[int], str]]]:
    """(offending rows, message) checks that ``values`` are whole numbers in [1, 2**53)."""

    def whole_positive(r: int) -> str:
        return f"{name} must be a positive integer, got {values[r].item()}"

    def too_large(r: int) -> str:
        return f"{name} must be below 2**53, got {values[r].item()}"

    integral = np.isfinite(values) & (np.floor(values) == values) & (values >= 1)
    return [(~integral, whole_positive), (values >= MAX_INDEX, too_large)]


def parse_trackset(text: str, is_ground_truth: bool = False, sequence: str = "") -> TrackSet:
    """Parse MOTChallenge result (or ground-truth) text into a TrackSet.

    Args:
        text: full file content.
        is_ground_truth: interpret column 7 as the active flag and skip
            rows whose flag is 0. Ground-truth detections get confidence 1.
        sequence: label stored on the returned TrackSet.

    Returns:
        One Trajectory per distinct id, in ascending id order, frames
        ascending.

    Raises:
        ParseError: malformed number, frame or id that is not an integer in
            [1, 2**53), box width or height below ``MIN_BOX_SIZE``,
            non-finite coordinate or confidence, or a duplicate (frame, id)
            pair. It names the first offending line.
    """
    rows, counts, line_nos, read_error = _rows(text)
    frame, track_id, x, y, w, h, seventh = rows.T
    has_seventh = counts >= 7
    # each check is (offending rows, message for one of them), in the order
    # one line's checks run; the first line with any offence fails
    checks = [
        (counts < 6, lambda r: f"expected at least 6 columns, got {counts[r]}"),
        *_index_checks(frame, "frame"),
        *_index_checks(track_id, "id"),
        (w < MIN_BOX_SIZE, lambda r: f"box width {w[r].item()} below {MIN_BOX_SIZE}"),
        (h < MIN_BOX_SIZE, lambda r: f"box height {h[r].item()} below {MIN_BOX_SIZE}"),
    ]
    early = np.logical_or.reduce([offending for offending, _ in checks])
    if is_ground_truth:
        skipped = has_seventh & (seventh == 0)
        conf = np.ones(len(rows))
    else:
        skipped = np.zeros(len(rows), bool)
        # -1 marks an unset confidence column, and values above 1 are clamped
        conf = np.where(has_seventh, seventh, 1.0)
        conf = np.where(conf < 0, 1.0, np.minimum(conf, 1.0))

    kept = np.flatnonzero(~early & ~skipped)
    frames, ids = frame[kept].astype(np.int64), track_id[kept].astype(np.int64)
    order = np.lexsort((kept, frames, ids))  # by id, then frame, then line
    kept, frames, ids = kept[order], frames[order], ids[order]
    repeat = (frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])
    duplicate = np.zeros(len(rows), bool)
    duplicate[kept[1:][repeat]] = True
    checks.append((duplicate, lambda r: f"duplicate (frame, id) pair ({int(frame[r])}, {int(track_id[r])})"))
    for name, value in zip("xywh", (x, y, w, h)):
        checks.append((~np.isfinite(value) & ~skipped, lambda r, name=name, value=value:
                       f"non-finite bounding box field {name}={value[r].item()!r}"))
    checks.append((np.isnan(conf) & ~skipped, lambda r: f"confidence outside [0, 1]: {conf[r].item()}"))

    bad = np.logical_or.reduce([offending for offending, _ in checks])
    if bad.any():
        r = int(np.argmax(bad))
        raise ParseError(int(line_nos[r]), next(message(r) for offending, message in checks if offending[r]))
    if read_error is not None:
        raise read_error

    xywh = rows[kept, 2:6]
    conf = conf[kept]
    bounds = np.append(np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1)), len(ids))
    trajectories = [
        Trajectory._of(int(ids[lo]), frames[lo:hi], xywh[lo:hi], conf[lo:hi])
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    return TrackSet(sequence, trajectories)


def _serialized(ts: TrackSet) -> Iterator[str]:
    """The result lines of ``ts``, ``ROW_BLOCK`` rows at a time."""
    tracks = ts.trajectories
    if not tracks:
        return
    frames, owners, xywh = box_columns(tracks)
    ids = np.array([t.id for t in tracks], dtype=np.int64)[owners]
    conf = np.concatenate([t.conf for t in tracks])
    order = np.lexsort((ids, frames))
    for start in range(0, len(order), ROW_BLOCK):
        rows = order[start : start + ROW_BLOCK]
        columns = [frames[rows].tolist(), ids[rows].tolist(), *xywh[rows].T.tolist(), conf[rows].tolist()]
        yield "\n".join(map(_LINE.format, *columns)) + "\n"


def serialize_trackset(ts: TrackSet) -> str:
    """Render a TrackSet in MOTChallenge result format.

    Lines are sorted by (frame, id); coordinates and confidence are written
    with ``DECIMALS`` decimal places, so a parse/serialize round trip
    preserves values to within half a unit of the last place.
    """
    return "".join(_serialized(ts))


def load_trackset(path: str | Path, is_ground_truth: bool = False) -> TrackSet:
    path = Path(path)
    return parse_trackset(
        path.read_text(encoding="utf-8"), is_ground_truth, sequence=path.stem
    )


def save_trackset(path: str | Path, ts: TrackSet) -> None:
    """Write ``serialize_trackset(ts)`` to ``path``, one block of rows at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_serialized(ts))
