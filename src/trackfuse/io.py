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

import re
from io import StringIO
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .model import DECIMALS, MAX_COORD, MAX_INDEX, MIN_BOX_SIZE, Columns, TrackSet

# Characters of text the parser splits into lines and converts at once. A
# block ends at a line break. It bounds the parser's temporary memory and
# does not change results.
TEXT_BLOCK = 1 << 14
# Rows the writer formats at once. It bounds the writer's temporary memory
# and does not change results.
ROW_BLOCK = 1 << 10
# The bytes besides "\n" that a block may hold to go to numpy's text
# reader. It reads "\r\n" as a line end and refuses a lone "\r", which
# splitlines also breaks at.
_PLAIN = b"0123456789.,-+eE \r"
# A token of the first non-empty line that makes its column of the
# ``_record`` int64, if it is a frame, an id or a column past the
# seventh: an integer literal.
_INTEGER = re.compile(r"-?[0-9]+")
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
    """The pieces of ``text`` that are read at once.

    Each piece holds about ``TEXT_BLOCK`` characters and ends at a line
    break or at the end of ``text``.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + TEXT_BLOCK)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _record(text: str, integer: bool = True) -> np.dtype:
    """The numpy record that ``text``'s plain blocks are read with, from the first non-empty line of its first block.

    It has a field per column of that line, and at least 6. A frame, id or
    past-the-seventh column whose token there is an integer literal is
    int64 if ``integer``; every other field is float64. Only those columns
    are read as int64: a frame or id of 0, which may be written ``-0``, is
    refused and its message made from its line's text, and the columns
    past the seventh are thrown away, so no value read differs from
    ``float``'s. A block ends at a line break, so the line is never cut.
    """
    tokens = next(_blocks(text), "").lstrip("\r\n").partition("\n")[0].split(",")
    tokens += [""] * (6 - len(tokens))
    int64 = [integer and (j < 2 or j >= 7) and _INTEGER.fullmatch(token.strip()) for j, token in enumerate(tokens)]
    return np.dtype([(f"f{j}", np.int64 if is_int64 else np.float64) for j, is_int64 in enumerate(int64)])


def _is_plain(block: str) -> bool:
    """Whether ``block`` may go to numpy's text reader.

    It may if it holds only ``_PLAIN`` bytes and ``"\\n"``, and not spaces
    and line breaks alone.
    """
    # numpy warns on a block without data
    if not block or block.isspace() or not block.isascii():
        return False
    return not block.encode("ascii").translate(None, _PLAIN).strip(b"\n")


def _plain_table(block: str, record: np.dtype) -> Optional[np.ndarray]:
    """The values of the plain ``block`` read with ``record``, one per non-blank line, or None.

    ``record`` is the text's ``_record``. numpy's reader skips empty lines;
    a line of spaces, a lone ``"\\r"``, a line whose column count is not
    ``record``'s, a malformed number or a token that its int64 field
    refuses, a float token among them, returns None. The reader converts
    float tokens with the routine behind ``float``, so every value it
    returns is bit-identical to ``float``'s, and an accepted integer token
    converts to that value too, unless it is written ``-0``.
    """
    try:
        return np.loadtxt(StringIO(block), delimiter=",", comments=None, dtype=record, ndmin=1)
    except ValueError:
        return None


def _whole(values: np.ndarray) -> np.ndarray:
    """Frames or ids read as floats, as int64; 0, which no check passes, where one is not whole and in [1, 2**53)."""
    whole = (np.floor(values) == values) & (values >= 1) & (values < MAX_INDEX)
    return np.where(whole, values, 0).astype(np.int64)


def _tokenize(lines: List[str]) -> Tuple[List[List[float]], Optional[str]]:
    """Line by line: the first 7 values of the non-blank lines.

    Stops at the first line with fewer than 6 columns or a malformed number
    and returns its message. Empty trailing columns are dropped, and a line
    of 6 columns gets 1.0, an unset column 7.
    """
    rows: List[List[float]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        while parts and parts[-1] == "":
            parts.pop()
        if len(parts) < 6:
            return rows, f"expected at least 6 columns, got {len(parts)}"
        row = []
        for part in parts:
            try:
                row.append(float(part))
            except ValueError:
                return rows, f"malformed number {part!r}"
        rows.append((row + [1.0])[:7])
    return rows, None


def _columns(text: str) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
    """The first 7 columns of the non-blank lines, and the message of the line that stopped reading.

    The columns are frames and ids as ``int64[2, rows]`` and x, y, w, h and
    column 7 as ``float64[5, rows]``, filled one block at a time, so each
    check runs on whole columns. Row ``r`` holds the ``r``-th non-blank
    line of ``text``: numpy's reader skips empty lines as ``_tokenize``
    skips blank ones, and as blocks end after a ``"\\n"``, a block's lines
    are lines of ``text``. A frame or id that is not a whole number in
    [1, 2**53) holds 0. A row without column 7 holds 1.0 there, which
    reads as an unset confidence and an active ground-truth flag. Reading
    stops at the first line with too few columns or a malformed number,
    whose message is returned with the rows before it: that line is the
    non-blank line after them.

    Plain blocks are read with the text's ``_record``. A block that this
    fails is read again with its float64 twin, as is the rest of the text;
    a block that the twin fails too, such as one whose column count is not
    the record's, goes to ``_tokenize``.
    """
    record, twin = _record(text), _record(text, integer=False)
    # a row per line, so that the rows of a text without blank lines fill
    # them and they stay contiguous, which numpy's take needs to copy
    # nothing but the rows taken; splitlines also breaks at a lone "\r" and
    # a few other characters, and text that uses them grows the arrays
    rows = text.count("\n") + (not text.endswith("\n"))
    indices, values = np.empty((2, rows), np.int64), np.empty((5, rows))
    n = 0
    error = None
    for block in _blocks(text):
        table = None
        if _is_plain(block):
            table = _plain_table(block, record)
            if table is None and record != twin:
                record = twin
                table = _plain_table(block, record)
        if table is not None:
            fields = [table[name] for name in table.dtype.names[:7]]
        else:
            listed, error = _tokenize(block.splitlines())
            fields = list(np.array(listed).reshape(-1, 7).T)
        m = len(fields[0])
        if n + m > indices.shape[1]:
            indices = np.hstack((indices[:, :n], np.empty((2, n + m), np.int64)))
            values = np.hstack((values[:, :n], np.empty((5, n + m))))
        for j, field in enumerate(fields[:2]):
            indices[j, n : n + m] = field if field.dtype == np.int64 else _whole(field)
        for j, field in enumerate(fields[2:]):
            values[j, n : n + m] = field
        values[len(fields) - 2 :, n : n + m] = 1.0  # no column 7: unset
        n += m
        if error is not None:
            break
    return indices[:, :n], values[:, :n], error


def _line(text: str, r: int) -> Tuple[int, str]:
    """The line number and text of the ``r``-th non-blank line of ``text``, counted from 0."""
    return [(k, line) for k, line in enumerate(text.splitlines(), start=1) if line.strip()][r]


def _offence(row: List[float], duplicate: bool) -> str:
    """The message of the first check that one offending row fails, in the order a line's checks run."""
    frame, track_id, x, y, w, h, seventh = row
    for name, value in (("frame", frame), ("id", track_id)):
        if not (value.is_integer() and value >= 1):
            return f"{name} must be a positive integer, got {value}"
        if value >= MAX_INDEX:
            return f"{name} must be below 2**53, got {value}"
    if w < MIN_BOX_SIZE:
        return f"box width {w} below {MIN_BOX_SIZE}"
    if h < MIN_BOX_SIZE:
        return f"box height {h} below {MIN_BOX_SIZE}"
    if duplicate:
        return f"duplicate (frame, id) pair ({int(frame)}, {int(track_id)})"
    for name, value in zip("xywh", (x, y, w, h)):
        if not np.isfinite(value):
            return f"non-finite bounding box field {name}={value!r}"
    for name, value in zip("xywh", (x, y, w, h)):
        if abs(value) > MAX_COORD:
            return f"bounding box field {name}={value!r} beyond 2**44 in magnitude"
    return f"confidence outside [0, 1]: {seventh}"


def parse_trackset(text: str, is_ground_truth: bool = False, sequence: str = "") -> TrackSet:
    """Parse MOTChallenge result (or ground-truth) text into a TrackSet.

    Args:
        text: full file content.
        is_ground_truth: interpret column 7 as the active flag and skip
            rows whose flag is 0. Ground-truth detections get confidence 1.
        sequence: label stored on the returned TrackSet.

    Returns:
        A track per distinct id, in ascending id order, frames ascending,
        read into the TrackSet's columns without a ``Trajectory`` per id.

    Raises:
        ParseError: malformed number, frame or id that is not an integer in
            [1, 2**53), box width or height below ``MIN_BOX_SIZE``,
            non-finite coordinate or confidence, box value beyond
            ``MAX_COORD`` in magnitude, or a duplicate (frame, id) pair.
            It names the first offending line, found by splitting the
            text into lines again.
    """
    indices, values, read_error = _columns(text)
    xywh, seventh = values[:4], values[4]
    # a row that fails a check before the flag is read is neither kept nor a duplicate
    early = ~((indices >= 1) & (indices < MAX_INDEX)).all(axis=0)
    early |= (xywh[2:] < MIN_BOX_SIZE).any(axis=0)
    bad = ~((xywh >= -MAX_COORD) & (xywh <= MAX_COORD)).all(axis=0)  # non-finite or beyond the bound
    if is_ground_truth:
        skipped = seventh == 0
        bad &= ~skipped
        kept = np.flatnonzero(~(early | skipped))
    else:
        bad |= np.isnan(seventh)
        kept = np.flatnonzero(~early)
    bad |= early
    frames, ids = indices.take(kept, axis=1)
    order = np.lexsort((frames, ids))  # by id, then frame; stable, so then by line
    kept, frames, ids = kept[order], frames[order], ids[order]
    duplicates = kept[1:][(frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])]
    bad[duplicates] = True
    if bad.any():
        r = int(np.argmax(bad))
        line_no, line = _line(text, r)
        raise ParseError(line_no, _offence(_tokenize([line])[0][0], bool((duplicates == r).any())))
    if read_error is not None:
        raise ParseError(_line(text, indices.shape[1])[0], read_error)

    if is_ground_truth:
        conf = np.ones(len(kept))
    else:
        conf = seventh.take(kept)
        conf[conf < 0] = 1.0  # -1 marks an unset confidence column
        np.minimum(conf, 1.0, out=conf)  # and values above 1 are clamped
    xywh = xywh.T.take(kept, axis=0)
    first = np.ones(len(ids), bool)  # the first row of each id
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return TrackSet._of(sequence, Columns(ids[starts], starts, frames, xywh, conf))


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


def _block_text(frames: np.ndarray, ids: np.ndarray, values: np.ndarray) -> bytes:
    """The ASCII lines of one block: frames and ids, and ``float64[n, 5]`` x, y, w, h, confidence.

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
    return lines.tobytes().translate(None, b"\0")


def _serialized(ts: TrackSet) -> Iterator[bytes]:
    """The result lines of ``ts`` in ASCII, ``ROW_BLOCK`` rows at a time."""
    c = ts.columns
    ids = np.repeat(c.ids, c.counts())
    order = np.argsort(c.frame, kind="stable")  # the rows come by id
    for start in range(0, len(order), ROW_BLOCK):
        rows = order[start : start + ROW_BLOCK]
        values = np.empty((len(rows), 5))
        c.xywh.take(rows, axis=0, out=values[:, :4])
        c.conf.take(rows, out=values[:, 4])
        yield _block_text(c.frame.take(rows), ids.take(rows), values)


def serialize_trackset(ts: TrackSet) -> str:
    """Render a TrackSet in MOTChallenge result format.

    Lines are sorted by (frame, id) and end in ``"\\n"``; coordinates and
    confidence are written with ``DECIMALS`` decimal places, so a
    parse/serialize round trip preserves values to within half a unit of
    the last place.
    """
    return b"".join(_serialized(ts)).decode("ascii")


def load_trackset(path: str | Path, is_ground_truth: bool = False) -> TrackSet:
    """``parse_trackset`` of the file's UTF-8 text; a leading byte-order mark is skipped.

    A byte that is not UTF-8 reads as a lone surrogate and fails as its line's ``ParseError``.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig", errors="surrogateescape")
    return parse_trackset(text, is_ground_truth, sequence=path.stem)


def save_trackset(path: str | Path, ts: TrackSet) -> None:
    """Write ``serialize_trackset(ts)`` to ``path``, one block of rows at a time.

    The file is written in binary, so its lines end in ``"\\n"`` on every platform.
    """
    with open(path, "wb") as out:
        out.writelines(_serialized(ts))
