"""Training-free fusion of results from several multi-object trackers.

The pipeline pools every trajectory from every input tracker, merges
trajectories that agree spatio-temporally (longer tracks act as anchors),
then prunes redundant per-frame boxes with length-ranked NMS, discards
trajectories that end up too short and, when a ``max_gap`` is set, fills
short gaps inside the kept trajectories by linear interpolation.

``ensemble_pipeline`` runs every stage on one column set (``Columns``) and
builds no ``Trajectory``. Each public stage function is a wrapper that
copies its trajectories into a column set, runs the stage's kernel on it
and returns the result as trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .geometry import same_frame_pairs
from .interpolate import _interpolated
from .model import MIN_BOX_SIZE, Columns, TrackSet, Trajectory


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


def _ranked(columns: Columns) -> np.ndarray:
    """The tracks by descending length (inclusive frame span), ties by id."""
    return np.lexsort((columns.ids, -columns.spans()))


def _kept(columns: Columns, keep: np.ndarray) -> Columns:
    """The rows where ``keep`` is set; tracks left without rows are dropped."""
    if keep.all():
        return columns
    before = np.concatenate(([0], np.cumsum(keep)))  # kept rows before each row
    starts, stops = before[columns.starts], before[columns.stops()]
    alive = stops > starts
    rows = np.flatnonzero(keep)
    return Columns(columns.ids[alive], starts[alive], *(column.take(rows, axis=0) for column in columns[2:]))


def _mixed(tracksets: Sequence[TrackSet]) -> Columns:
    """Every track of ``tracksets`` in one column set, in order, under ids 1..N."""
    if not tracksets:
        return Columns.of([])
    parts = [ts.columns for ts in tracksets]
    offsets = np.cumsum([0] + [len(c.frame) for c in parts[:-1]])
    starts = np.concatenate([c.starts + offset for c, offset in zip(parts, offsets)])
    frame, xywh, conf = (np.concatenate(column) for column in zip(*(c[2:] for c in parts)))
    return Columns(np.arange(1, len(starts) + 1), starts, frame, xywh, conf)


def mix(tracksets: Sequence[TrackSet]) -> List[Trajectory]:
    """Pool trajectories from all trackers into one list.

    Ids are reassigned 1..N in (tracker index, original id) order, the
    order of each track set's trajectories, so the pooled id tells which
    tracker a trajectory came from.
    """
    return _mixed(tracksets).trajectories()


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Which rows start a run of rows equal in every one of ``keys``."""
    first = np.zeros(len(keys[0]), bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def _group_frame_order(pool: Columns, members: np.ndarray, group_starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``pool``'s rows by (group, frame, place in the group), and which of them start a new (group, frame).

    ``members`` lists all of ``pool``'s tracks group by group, and
    ``group_starts`` where each group starts in it. Each row's int64 key is
    its group's key range plus its frame, times the largest group size,
    plus its track's place in the group, so one sort orders the rows.
    """
    sizes = np.diff(group_starts, append=len(members))
    track_group, track_place = np.empty((2, len(members)), np.int64)  # each pool track's group and place in it
    track_group[members] = np.repeat(np.arange(len(sizes)), sizes)
    track_place[members] = np.arange(len(members)) - np.repeat(group_starts, sizes)
    low = np.minimum.reduceat(pool.frame[pool.starts[members]], group_starts)
    spans = np.maximum.reduceat(pool.frame[pool.stops()[members] - 1], group_starts) - low + 1
    width, counts = int(sizes.max()), pool.counts()
    if spans.sum(dtype=np.float64) * width >= 2**62:  # the keys would not fit in int64
        group = np.repeat(track_group, counts)
        order = np.lexsort((np.repeat(track_place, counts), pool.frame, group))
        return order, _run_starts(pool.frame.take(order), group.take(order))
    key = pool.frame * width
    key += np.repeat(((np.cumsum(spans) - spans - low) * width)[track_group] + track_place, counts)
    order = np.argsort(key, kind="stable")  # the keys are unique, and each track's a rising run
    key = key.take(order)
    key //= width
    return order, _run_starts(key)


def _merged(pool: Columns, members: np.ndarray, group_starts: np.ndarray, mode: MergeMode) -> Columns:
    """Each merge group of ``pool``'s tracks collapsed into one track, in group order.

    ``members`` lists all of ``pool``'s tracks group by group, each group
    longest first, and ``group_starts`` where each group starts in it. The
    first row of each (group, frame) run is the output row's, and AVERAGE
    adds up a run's rows in group order with ``np.bincount``.
    """
    if not len(members):
        return pool
    order, first = _group_frame_order(pool, members, group_starts)
    out = order[first]
    xywh, conf = pool.xywh.take(out, axis=0), pool.conf.take(out)
    at = np.cumsum(first)  # each sorted row's output row, plus 1
    at -= 1
    if mode is MergeMode.AVERAGE:
        present = np.bincount(at)
        shared = np.flatnonzero(present > 1)
        for column, values in [*((pool.xywh[:, j], xywh[:, j]) for j in range(4)), (pool.conf, conf)]:
            values[shared] = np.bincount(at, weights=column.take(order))[shared] / present[shared]
        # the exact mean of sizes of at least MIN_BOX_SIZE / 2 is too; keep its rounding there
        np.maximum(xywh[:, 2:], MIN_BOX_SIZE / 2, out=xywh[:, 2:])
    group_rows = np.add.reduceat(pool.counts()[members], group_starts)
    starts = at[np.cumsum(group_rows) - group_rows]  # each group's rows start a run
    return Columns(pool.ids[members[group_starts]], starts, pool.frame.take(out), xywh, conf)


def merge_group(group: Sequence[Trajectory], mode: MergeMode) -> Trajectory:
    """Collapse a group of trajectories into one.

    The group must be ordered longest first; the head supplies the output
    id, and a group of one is returned as it is. The output covers the
    union of all member frames. Where several members cover one frame,
    DROP keeps the box of the longest member present (ties resolved by
    group order) and AVERAGE takes the coordinate-wise mean of all boxes
    present: their sum, started from 0 and taken in group order, divided
    by their number, with a width or height that rounding took below
    ``MIN_BOX_SIZE / 2`` raised to it.
    """
    if len(group) == 1:
        return group[0]
    (merged,) = _merged(Columns.of(group), np.arange(len(group)), np.zeros(1, np.int64), mode).trajectories()
    return merged


def _grouped(pool: Columns, thr_s: float, thr_t: float) -> Tuple[np.ndarray, np.ndarray]:
    """``pool``'s tracks in merge groups: the tracks group by group, and where each group starts.

    The groups come by their anchor's rank, the tracks of a group by rank.
    The join runs on ``pool``'s rows as they are; IoU is symmetric, so
    their order changes no pair it finds.
    """
    ranked = _ranked(pool)
    n = len(ranked)
    rank = np.empty(n, np.int64)
    rank[ranked] = np.arange(n)
    row_rank = np.repeat(rank, pool.counts())
    keys = [np.empty(0, np.int64)]  # higher rank * n + lower rank, once per matching frame
    for a, b, _ in same_frame_pairs(pool.frame, pool.xywh, thr_s):
        a, b = row_rank[a], row_rank[b]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    first, second = pairs // n, pairs % n
    lengths = pool.spans()[ranked]
    matched = counts / np.minimum(lengths[first], lengths[second]) > thr_t
    # pairs come by anchor rank, then partner rank: whether an anchor is absorbed is settled first
    anchor = list(range(n))  # the rank whose group each rank joins
    for i, j in zip(first[matched].tolist(), second[matched].tolist()):
        if anchor[i] == i and anchor[j] == j:
            anchor[j] = i
    by_group = np.argsort(anchor, kind="stable")  # by anchor rank, then rank
    heads = np.asarray(anchor, np.int64)[by_group]
    return ranked[by_group], np.flatnonzero(np.diff(heads, prepend=-1))


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
    members, group_starts = _grouped(Columns.of(pool), thr_s, thr_t)
    bounds = [*group_starts.tolist(), len(members)]
    members = members.tolist()
    return [[pool[k] for k in members[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]


def _pruned(columns: Columns, thr_nms: float) -> Columns:
    """``length_nms`` of a column set."""
    ranked = _ranked(columns)
    counts = columns.counts()[ranked]
    # the rows of the tracks by rank, each track's in frame order
    rows = np.repeat(columns.starts[ranked] - np.cumsum(counts) + counts, counts) + np.arange(len(columns.frame))
    gone = bytearray(len(rows))  # suppressed rows, by rank
    for a, b, _ in same_frame_pairs(columns.frame.take(rows), columns.xywh.take(rows, axis=0), thr_nms):
        # pairs come in (frame, row_a, row_b) order and rows by rank, so every
        # pair that could suppress a box is visited before the box's own
        for p, q in zip(a.tolist(), b.tolist()):
            if not gone[p]:
                gone[q] = 1
    keep = np.empty(len(rows), bool)
    keep[rows] = ~np.frombuffer(gone, bool)
    return _kept(columns, keep)


def length_nms(tracks: Sequence[Trajectory], thr_nms: float) -> List[Trajectory]:
    """Per-frame non-maximum suppression ranked by trajectory length.

    Within each frame, boxes are visited in order of decreasing owning
    trajectory length (ties: lower id first). A box whose IoU with any
    already-kept box of that frame strictly exceeds ``thr_nms`` is removed
    from its trajectory; only that frame's box is affected. Lengths are
    computed once on the input and are not re-ranked as boxes disappear.
    Trajectories left without any boxes are dropped.
    """
    return _pruned(Columns.of(tracks), thr_nms).trajectories()


def _length_filtered(columns: Columns, thr_len: int) -> Columns:
    """``length_filter`` of a column set."""
    return _kept(columns, np.repeat(columns.spans() >= thr_len, columns.counts()))


def length_filter(tracks: Sequence[Trajectory], thr_len: int) -> List[Trajectory]:
    """Keep trajectories whose inclusive frame span is at least ``thr_len``."""
    return _length_filtered(Columns.of(tracks), thr_len).trajectories()


def ensemble_pipeline(tracksets: Iterable[TrackSet], cfg: EnsembleConfig | None = None) -> TrackSet:
    """Run the full fusion pipeline on one sequence.

    mix -> merge -> length NMS -> length filter, then relabel ids 1..M, and
    fill gaps of up to ``cfg.max_gap`` frames when it is set. ``tracksets``
    is read once; the output takes the first one's sequence name.
    Deterministic: identical inputs and config produce identical output.
    """
    tracksets = list(tracksets)
    if not tracksets:
        raise ValueError("need at least one input track set")
    if cfg is None:
        cfg = EnsembleConfig()
    sequence = tracksets[0].sequence
    # each stage's columns replace the last's, so only the stage running holds two sets
    columns = _mixed(tracksets)
    del tracksets  # the track sets of an iterator are released once pooled
    columns = _merged(columns, *_grouped(columns, cfg.thr_s, cfg.thr_t), cfg.merge_mode)
    columns = _length_filtered(_pruned(columns, cfg.thr_nms), cfg.thr_len)
    columns = columns._replace(ids=np.arange(1, len(columns.ids) + 1))
    if cfg.max_gap is not None:
        columns = _interpolated(columns, cfg.max_gap)
    return TrackSet._of(sequence, columns)
