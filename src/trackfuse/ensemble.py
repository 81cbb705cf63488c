"""Training-free fusion of results from several multi-object trackers.

The pipeline pools every trajectory from every input tracker, merges
trajectories that agree spatio-temporally (longer tracks act as anchors),
then prunes redundant per-frame boxes with length-ranked NMS and finally
discards trajectories that end up too short.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence

from .geometry import box_iou, st_iou
from .model import BoundingBox, Detection, TrackSet, Trajectory


class MergeMode(Enum):
    """How to integrate boxes when several group members cover one frame."""

    DROP = "drop"  # keep the box from the longest member present
    AVERAGE = "average"  # coordinate-wise mean of all boxes present


@dataclass(frozen=True)
class EnsembleConfig:
    """Thresholds and merge mode governing the fusion pipeline."""

    thr_s: float = 0.5
    thr_t: float = 0.5
    thr_nms: float = 0.7
    thr_len: int = 20
    merge_mode: MergeMode = MergeMode.DROP

    def __post_init__(self) -> None:
        for name in ("thr_s", "thr_t", "thr_nms"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.thr_len < 0:
            raise ValueError(f"thr_len must be >= 0, got {self.thr_len}")


def mix(tracksets: Sequence[TrackSet]) -> List[Trajectory]:
    """Pool trajectories from all trackers into one list.

    Ids are reassigned 1..N in (tracker index, original id) order, and every
    detection is tagged with the index of the tracker it came from.
    """
    pooled: List[Trajectory] = []
    next_id = 1
    for source, ts in enumerate(tracksets):
        for traj in sorted(ts.trajectories, key=lambda t: t.id):
            pooled.append(traj.with_source(source).with_id(next_id))
            next_id += 1
    return pooled


def merge_group(group: Sequence[Trajectory], mode: MergeMode) -> Trajectory:
    """Collapse a group of trajectories into one.

    The group must be ordered longest first; the head supplies the output
    id. The output covers the union of all member frames. Where several
    members cover one frame, DROP keeps the box of the longest member
    present (ties resolved by group order) and AVERAGE takes the
    coordinate-wise mean of all boxes present.
    """
    anchor = group[0]
    if len(group) == 1:
        return anchor
    frames: set[int] = set()
    for t in group:
        frames.update(t.detections.keys())
    merged: Dict[int, Detection] = {}
    for f in sorted(frames):
        present = [t.detections[f] for t in group if f in t.detections]
        if mode is MergeMode.DROP or len(present) == 1:
            merged[f] = present[0]
        else:
            n = len(present)
            box = BoundingBox(
                sum(d.box.x for d in present) / n,
                sum(d.box.y for d in present) / n,
                sum(d.box.w for d in present) / n,
                sum(d.box.h for d in present) / n,
            )
            conf = sum(d.confidence for d in present) / n
            merged[f] = Detection(f, box, conf, present[0].source)
    return Trajectory(anchor.id, merged)


def merge_groups(pool: Sequence[Trajectory], thr_s: float, thr_t: float) -> List[List[Trajectory]]:
    """Partition the pool into merge groups.

    Trajectories are sorted by descending length (ties by id, which after
    ``mix`` encodes tracker index then original id). Each not-yet-consumed
    trajectory becomes an anchor and collects every later unconsumed
    trajectory whose st-IoU with the anchor strictly exceeds ``thr_t``.
    Matches are checked against the anchor only, never transitively through
    other members, and every input trajectory lands in exactly one group.
    """
    ordered = sorted(pool, key=lambda t: (-t.length, t.id))
    consumed: set[int] = set()
    groups: List[List[Trajectory]] = []
    for i, anchor in enumerate(ordered):
        if anchor.id in consumed:
            continue
        group = [anchor]
        for cand in ordered[i + 1 :]:
            if cand.id in consumed:
                continue
            if st_iou(anchor, cand, thr_s) > thr_t:
                group.append(cand)
                consumed.add(cand.id)
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
    length = {t.id: t.length for t in tracks}
    by_frame: Dict[int, List[Trajectory]] = {}
    for t in tracks:
        for f in t.detections:
            by_frame.setdefault(f, []).append(t)

    suppressed: set[tuple[int, int]] = set()  # (trajectory id, frame)
    for f, owners in by_frame.items():
        owners.sort(key=lambda t: (-length[t.id], t.id))
        kept: List[BoundingBox] = []
        for t in owners:
            box = t.detections[f].box
            if any(box_iou(box, other) > thr_nms for other in kept):
                suppressed.add((t.id, f))
            else:
                kept.append(box)

    out: List[Trajectory] = []
    for t in tracks:
        dets = {f: d for f, d in t.detections.items() if (t.id, f) not in suppressed}
        if dets:
            out.append(Trajectory(t.id, dets))
    return out


def length_filter(tracks: Sequence[Trajectory], thr_len: int) -> List[Trajectory]:
    """Keep trajectories whose inclusive frame span is at least ``thr_len``."""
    return [t for t in tracks if t.length >= thr_len]


def ensemble_pipeline(tracksets: Sequence[TrackSet], cfg: EnsembleConfig | None = None) -> TrackSet:
    """Run the full fusion pipeline on one sequence.

    mix -> merge -> length NMS -> length filter, then relabel ids 1..M.
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
    relabeled = [t.with_id(i) for i, t in enumerate(kept, start=1)]
    return TrackSet(tracksets[0].sequence, relabeled)
