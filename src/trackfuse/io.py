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
from .model import DECIMALS, MAX_COORD, MAX_INDEX, MIN_BOX_SIZE, TrackSet, Trajectory

# Characters of text the parser splits into lines and converts at once. A
# block ends at a line break. It bounds the parser's temporary memory and
# does not change results.
TEXT_BLOCK = 1 << 14
# Rows the writer formats at once. It bounds the writer's temporary memory
# and does not change results.
ROW_BLOCK = 1 << 10
# Besides ASCII digits, the bytes a block may hold to go to numpy's text reader.
_PLAIN_NON_DIGITS = b".,-+eE \n"
# What follows the confidence on every line.
_TAIL = b",-1,-1,-1\n"
# Dekker's splitter: x * _SPLIT cuts a float64 into two halves of 26 bits.
_SPLIT = float(2**27 + 1)


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
            non-finite coordinate or confidence, box value beyond
            ``MAX_COORD`` in magnitude, or a duplicate (frame, id) pair.
            It names the first offending line.
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
    for name, value in zip("xywh", (x, y, w, h)):
        checks.append(((np.abs(value) > MAX_COORD) & ~skipped, lambda r, name=name, value=value:
                       f"bounding box field {name}={value[r].item()!r} beyond 2**44 in magnitude"))
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


def _units(values: np.ndarray) -> np.ndarray:
    """``|values|`` in units of ``10**-DECIMALS`` as int64, rounded as ``%`` rounds.

    ``%`` rounds the exact binary value half to even. ``hi + lo`` is the
    exact product ``|v| * 10**DECIMALS`` (Dekker's error-free product: ``v``
    is split into two 26-bit halves, and the scale is short enough to need
    no split). ``rint(hi)`` also rounds half to even, and it can differ only
    when ``hi`` lies exactly half-way between two integers and ``lo`` is not
    zero: the exact product then lies on ``lo``'s side of the tie.
    Anywhere else ``lo``, at most half a unit in ``hi``'s last place, cannot
    carry the product across a half. Counts of values up to ``MAX_COORD`` are exact.
    """
    scale = float(10**DECIMALS)
    v = np.abs(values)
    hi = v * scale
    high = v * _SPLIT
    high -= high - v  # the top 26 bits of v; v - high is the rest
    lo = high * scale - hi
    lo += (v - high) * scale
    units = np.rint(hi)
    hi -= units  # exact: what rint dropped
    units += (hi == 0.5) & (lo > 0)
    units -= (hi == -0.5) & (lo < 0)
    return units.astype(np.int64)


def _write_digits(fields: np.ndarray, counts: np.ndarray, places: int) -> None:
    """Write ``counts`` in decimal, right-aligned, into the 0 bytes of ``fields``.

    ``fields`` is ``uint8[n, k, width]`` and ``counts`` ``int64[n, k]``,
    non-negative; ``places`` digits go after a point, which ``fields``
    already holds, and at least one before it. Leading zeros before that
    stay 0 bytes. ``counts`` is used up.
    """
    width = fields.shape[2]
    point = places > 0
    quotient, digit = np.empty_like(counts), np.empty_like(counts)
    for j in range(width - point):
        np.floor_divide(counts, 10, out=quotient)
        np.multiply(quotient, 10, out=digit)
        np.subtract(counts, digit, out=digit)
        if j <= places:
            digit += ord("0")
        else:  # a count used up has no digit left here: its byte stays 0
            np.minimum(counts, 1, out=counts)
            counts *= ord("0")
            digit += counts
        fields[:, :, width - 1 - j - (point and j >= places)] = digit
        counts, quotient = quotient, counts


def _block_text(frames: np.ndarray, ids: np.ndarray, values: np.ndarray) -> str:
    """The lines of one block: frames and ids, and ``float64[n, 5]`` x, y, w, h, confidence.

    Each line is laid out in fixed columns wide enough for the block's
    longest field, padded with 0 bytes that are then dropped, so the text
    is built from one ``uint8`` array.
    """
    n = len(frames)
    indices = np.stack([frames, ids], axis=1)
    units = _units(values)
    index_width = len(str(int(indices.max())))
    digits = max(DECIMALS + 1, len(str(int(units.max()))))
    number = b"\0" * (digits - DECIMALS + 1) + b"." + b"\0" * DECIMALS  # sign, digits and point
    template = (b"\0" * index_width + b",") * 2 + b",".join([number] * 5) + _TAIL
    lines = np.tile(np.frombuffer(template, np.uint8), (n, 1))
    split = 2 * (index_width + 1)
    index_fields = lines[:, :split].reshape(n, 2, index_width + 1)
    # each value with the comma after it; the last one's comma opens the tail
    value_fields = lines[:, split : split + 5 * (len(number) + 1)].reshape(n, 5, len(number) + 1)
    _write_digits(index_fields[:, :, :-1], indices, 0)
    _write_digits(value_fields[:, :, 1:-1], units, DECIMALS)
    np.multiply(np.signbit(values), ord("-"), out=value_fields[:, :, 0], casting="unsafe")
    return lines[lines != 0].tobytes().decode("ascii")


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
        yield _block_text(frames[rows], ids[rows], np.column_stack([xywh[rows], conf[rows]]))


def serialize_trackset(ts: TrackSet) -> str:
    """Render a TrackSet in MOTChallenge result format.

    Lines are sorted by (frame, id); coordinates and confidence are written
    with ``DECIMALS`` decimal places, so a parse/serialize round trip
    preserves values to within half a unit of the last place.
    """
    return "".join(_serialized(ts))


def load_trackset(path: str | Path, is_ground_truth: bool = False) -> TrackSet:
    """``parse_trackset`` of the file's UTF-8 text; a leading byte-order mark is skipped.

    A byte that is not UTF-8 reads as a lone surrogate and fails as its line's ``ParseError``.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig", errors="surrogateescape")
    return parse_trackset(text, is_ground_truth, sequence=path.stem)


def save_trackset(path: str | Path, ts: TrackSet) -> None:
    """Write ``serialize_trackset(ts)`` to ``path``, one block of rows at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_serialized(ts))
