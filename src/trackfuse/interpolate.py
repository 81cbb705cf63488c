"""Gap filling inside trajectories by linear interpolation."""

from __future__ import annotations

import numpy as np

from .model import Trajectory


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
    gaps = np.diff(track.frame) - 1
    filled = np.flatnonzero((gaps >= 1) & (gaps <= max_gap))  # row before each gap that is filled
    if len(filled) == 0:
        return track
    sizes = gaps[filled]
    before = np.repeat(filled, sizes)
    f0, f1 = track.frame[before], track.frame[before + 1]
    new_frames = f0 + np.arange(1, len(before) + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    a = ((new_frames - f0) / (f1 - f0))[:, None]
    values = np.column_stack([track.xywh, track.conf])
    v0, v1 = values[before], values[before + 1]
    new_values = v0 + a * (v1 - v0)

    frames = np.concatenate([track.frame, new_frames])
    order = np.argsort(frames, kind="stable")
    xywh = np.concatenate([track.xywh, new_values[:, :4]])[order]
    conf = np.concatenate([track.conf, new_values[:, 4]])[order]
    return Trajectory._of(track.id, frames[order], xywh, conf)
