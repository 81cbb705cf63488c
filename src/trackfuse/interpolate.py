"""Gap filling inside trajectories by linear interpolation."""

from __future__ import annotations

import numpy as np

from .model import Columns, Trajectory


def _interpolated(columns: Columns, max_gap: int) -> Columns:
    """``linear_interpolate`` of every track of a column set.

    The filled rows of each gap are placed after the row before it; every
    other row keeps its order, shifted past the rows filled before it.
    """
    frame = columns.frame
    gaps = np.diff(frame) - 1
    gaps[columns.starts[1:] - 1] = 0  # from one track's last row to the next track's first
    filled = np.flatnonzero((gaps >= 1) & (gaps <= max_gap))  # row before each gap that is filled
    if len(filled) == 0:
        return columns
    sizes = gaps[filled]
    before = np.repeat(filled, sizes)
    step = np.arange(1, len(before) + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # 1..g within each gap
    f0, f1 = frame[before], frame[before + 1]
    a = step / (f1 - f0)
    new_xywh = columns.xywh.take(before, axis=0)
    new_xywh += a[:, None] * (columns.xywh.take(before + 1, axis=0) - new_xywh)
    new_conf = columns.conf.take(before)
    new_conf += a * (columns.conf.take(before + 1) - new_conf)

    shift = np.zeros(len(frame), np.int64)
    shift[filled + 1] = sizes
    at = np.arange(len(frame)) + np.cumsum(shift)  # each row's place in the output
    source = np.empty(len(frame) + len(before), np.int64)  # each output row's row, the filled ones after the rest
    source[at] = np.arange(len(frame))
    source[at[before] + step] = np.arange(len(frame), len(source))
    return Columns(
        columns.ids,
        at[columns.starts],
        np.concatenate([frame, f0 + step]).take(source),
        np.concatenate([columns.xywh, new_xywh]).take(source, axis=0),
        np.concatenate([columns.conf, new_conf]).take(source),
    )


def linear_interpolate(track: Trajectory, max_gap: int) -> Trajectory:
    """Fill internal gaps of up to ``max_gap`` missing frames.

    For consecutive detected frames f0 < f1 with g = f1 - f0 - 1 missing
    frames in between, 1 <= g <= max_gap, boxes at f0+1..f1-1 are produced
    by coordinate-wise linear interpolation of the endpoint boxes (the
    confidence is interpolated the same way): ``v0 + a * (v1 - v0)`` with
    ``a = (f - f0) / (f1 - f0)``. Larger gaps are left alone and nothing is
    extrapolated beyond the first or last detection. Original detections
    are never changed, so applying this twice equals applying it once.
    """
    if max_gap < 1:
        raise ValueError(f"max_gap must be >= 1, got {max_gap}")
    (filled,) = _interpolated(Columns.of([track]), max_gap).trajectories()
    return filled
