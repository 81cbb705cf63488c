"""Training-free fusion of results from several multi-object trackers.

The pipeline pools every trajectory from every input tracker, merges
trajectories that agree spatio-temporally (longer tracks act as anchors),
then prunes redundant per-frame boxes with length-ranked NMS, discards
trajectories that end up too short and, when a ``max_gap`` is set, fills
short gaps inside the kept trajectories by linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence

import numpy as np

from .geometry import box_columns, same_frame_pairs
from .interpolate import linear_interpolate
from .model import MIN_BOX_SIZE, TrackSet, Trajectory


class MergeMode(Enum):
    """How to integrate boxes when several group members cover one frame."""

    DROP = "drop"  # keep the box from the longest member present
    AVERAGE = "average"  # coordinate-wise mean of all boxes present


@dataclass(frozen=True)
class EnsembleConfig:
    """Thresholds, merge mode and gap filling governing the fusion pipeline.

    ``max_gap``, when set, makes gap filling the pipeline's last stage:
    ``linear_interpolate`` fills gaps of up to ``max_gap`` missing frames
    in every kept trajectory (``merge --interpolate``).
    """

    thr_s: float = 0.5
    thr_t: float = 0.5
    thr_nms: float = 0.7
    thr_len: int = 20
    merge_mode: MergeMode = MergeMode.DROP
    max_gap: int | None = None

    def __post_init__(self) -> None:
        for name in ("thr_s", "thr_t", "thr_nms"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.thr_len < 0:
            raise ValueError(f"thr_len must be >= 0, got {self.thr_len}")
        if self.max_gap is not None and self.max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {self.max_gap}")
        # accept the mode's value ("drop"), and reject unknown ones
        object.__setattr__(self, "merge_mode", MergeMode(self.merge_mode))


def mix(tracksets: Sequence[TrackSet]) -> List[Trajectory]:
    """Pool trajectories from all trackers into one list.

    Ids are reassigned 1..N in (tracker index, original id) order, so the
    pooled id tells which tracker a trajectory came from. The boxes are
    shared, not copied.
    """
    pooled: List[Trajectory] = []
    for ts in tracksets:
        for traj in sorted(ts.trajectories, key=lambda t: t.id):
            pooled.append(traj.with_id(len(pooled) + 1))
    return pooled


def merge_group(group: Sequence[Trajectory], mode: MergeMode) -> Trajectory:
    """Collapse a group of trajectories into one.

    The group must be ordered longest first; the head supplies the output
    id. The output covers the union of all member frames. Where several
    members cover one frame, DROP keeps the box of the longest member
    present (ties resolved by group order) and AVERAGE takes the
    coordinate-wise mean of all boxes present: their sum, started from 0
    and taken in group order, divided by their number, with a width or
    height that rounding took below ``MIN_BOX_SIZE / 2`` raised to it.
    """
    anchor = group[0]
    if len(group) == 1:
        return anchor
    frames = np.unique(np.concatenate([t.frame for t in group]))
    at = [np.searchsorted(frames, t.frame) for t in group]  # each member's rows in the output
    values = np.empty((len(frames), 5))  # x, y, w, h, confidence: the first member present's
    for rows, t in zip(reversed(at), reversed(group)):
        values[rows, :4] = t.xywh
        values[rows, 4] = t.conf
    if mode is MergeMode.AVERAGE:
        total = np.zeros_like(values)
        present = np.zeros(len(frames), np.int64)
        for rows, t in zip(at, group):
            total[rows, :4] += t.xywh
            total[rows, 4] += t.conf
            present[rows] += 1
        shared = present > 1
        values[shared] = total[shared] / present[shared, None]
        # the exact mean of sizes of at least MIN_BOX_SIZE / 2 is too; keep its rounding there
        np.maximum(values[:, 2:4], MIN_BOX_SIZE / 2, out=values[:, 2:4])
    return Trajectory._of(anchor.id, frames, values[:, :4].copy(), values[:, 4].copy())


def merge_groups(pool: Sequence[Trajectory], thr_s: float, thr_t: float) -> List[List[Trajectory]]:
    """Partition the pool into merge groups.

    Trajectories are sorted by descending length (ties by id, which after
    ``mix`` encodes tracker index then original id). Each not-yet-consumed
    trajectory becomes an anchor and collects every later unconsumed
    trajectory whose st-IoU with the anchor strictly exceeds ``thr_t``.
    Matches are checked against the anchor only, never transitively through
    other members, and every input trajectory lands in exactly one group.

    The st-IoU of every pair comes from one same-frame overlap join: the
    frames where the pair's boxes have IoU above ``thr_s``, counted and
    divided by the shorter length (inclusive frame span).
    """
    ordered = sorted(pool, key=lambda t: (-t.length, t.id))
    n = len(ordered)
    keys = [np.empty(0, np.int64)]  # higher rank * n + lower rank, once per matching frame
    for frames, higher, lower, iou in same_frame_pairs(box_columns(ordered)):
        hit = iou > thr_s
        keys.append(higher[hit] * n + lower[hit])
        del frames, higher, lower, iou, hit  # freed before the join builds its next block
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    first, second = pairs // n, pairs % n
    lengths = np.array([t.length for t in ordered], dtype=np.int64)
    matched = counts / np.minimum(lengths[first], lengths[second]) > thr_t
    partners: Dict[int, List[int]] = {}  # anchor rank -> later ranks it would absorb
    for i, j in zip(first[matched].tolist(), second[matched].tolist()):
        partners.setdefault(i, []).append(j)

    consumed = [False] * n
    groups: List[List[Trajectory]] = []
    for i, anchor in enumerate(ordered):
        if consumed[i]:
            continue
        group = [anchor]
        for j in partners.get(i, ()):
            if not consumed[j]:
                group.append(ordered[j])
                consumed[j] = True
        groups.append(group)
    return groups


def length_nms(tracks: Sequence[Trajectory], thr_nms: float) -> List[Trajectory]:
    """Per-frame non-maximum suppression ranked by trajectory length.

    Within each frame, boxes are visited in order of decreasing owning
    trajectory length (ties: lower id first). A box whose IoU with any
    already-kept box of that frame strictly exceeds ``thr_nms`` is removed
    from its trajectory; only that frame's box is affected. Lengths are
    computed once on the input and are not re-ranked as boxes disappear.
    Trajectories left without any boxes are dropped.
    """
    ranked = sorted(range(len(tracks)), key=lambda k: (-tracks[k].length, tracks[k].id))
    suppressed: set[tuple[int, int]] = set()  # (rank, frame)
    for frames, higher, lower, iou in same_frame_pairs(box_columns([tracks[k] for k in ranked])):
        hit = iou > thr_nms
        # pairs come in (frame, higher rank, lower rank) order, so every
        # pair that could suppress a box is visited before the box's own
        for f, a, b in zip(frames[hit].tolist(), higher[hit].tolist(), lower[hit].tolist()):
            if (a, f) not in suppressed:
                suppressed.add((b, f))
        del frames, higher, lower, iou, hit  # freed before the join builds its next block

    dropped: Dict[int, List[int]] = {}  # track index -> suppressed frames
    for rank, f in suppressed:
        dropped.setdefault(ranked[rank], []).append(f)
    out: List[Trajectory] = []
    for k, t in enumerate(tracks):
        gone = dropped.get(k)
        if gone is None:
            out.append(t)
            continue
        keep = ~np.isin(t.frame, gone)
        if keep.any():
            out.append(Trajectory._of(t.id, t.frame[keep], t.xywh[keep], t.conf[keep]))
    return out


def length_filter(tracks: Sequence[Trajectory], thr_len: int) -> List[Trajectory]:
    """Keep trajectories whose inclusive frame span is at least ``thr_len``."""
    return [t for t in tracks if t.length >= thr_len]


def ensemble_pipeline(tracksets: Sequence[TrackSet], cfg: EnsembleConfig | None = None) -> TrackSet:
    """Run the full fusion pipeline on one sequence.

    mix -> merge -> length NMS -> length filter, then relabel ids 1..M, and
    fill gaps of up to ``cfg.max_gap`` frames when it is set.
    Deterministic: identical inputs and config produce identical output.
    """
    if not tracksets:
        raise ValueError("need at least one input track set")
    if cfg is None:
        cfg = EnsembleConfig()
    pool = mix(tracksets)
    groups = merge_groups(pool, cfg.thr_s, cfg.thr_t)
    merged = [merge_group(group, cfg.merge_mode) for group in groups]
    pruned = length_nms(merged, cfg.thr_nms)
    kept = length_filter(pruned, cfg.thr_len)
    fused = [t.with_id(i) for i, t in enumerate(kept, start=1)]
    if cfg.max_gap is not None:
        fused = [linear_interpolate(t, cfg.max_gap) for t in fused]
    return TrackSet(tracksets[0].sequence, fused)
