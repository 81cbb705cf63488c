"""CLEAR (MOTA, FP, FN, IDSW) and identity (IDF1) scoring against ground truth.

Both metrics treat a ground-truth box and a predicted box as co-located at
a frame when their IoU is at least the matching threshold (0.5 by default,
the usual pedestrian-tracking convention). MOTA follows the frame-by-frame
correspondence scheme with match persistence; IDF1 solves one global
assignment between ground-truth and predicted identities.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_columns, same_frame_pairs
from .model import TrackSet


@dataclass(frozen=True)
class ClearScores:
    """Detection-leaning scores: counts of errors and the MOTA they imply.

    ``mota`` is None when there is no ground truth to normalize by.
    """

    num_gt: int
    fp: int
    fn: int
    idsw: int
    mota: Optional[float]


@dataclass(frozen=True)
class IdentityScores:
    """Identity-consistency scores under one global id correspondence.

    ``idf1`` is None when both sides are empty.
    """

    idtp: int
    idfp: int
    idfn: int
    idf1: Optional[float]


@dataclass(frozen=True)
class EvalReport:
    """Combined CLEAR and identity scores for one prediction/ground-truth pair."""

    clear: ClearScores
    identity: IdentityScores


# Finite stand-in for a forbidden assignment; real costs here never exceed 1.
_FORBIDDEN = 1e9


# Frames and owners of one side's boxes. An owner indexes the side's tracks
# in id order, so owner order is id order.
_Side = Tuple[np.ndarray, np.ndarray]
# Hits: (frame, gt owner, predicted owner, IoU) of every same-frame pair with
# IoU >= iou_match, in (frame, gt owner, predicted owner) order.
_Hits = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _hits(gt: TrackSet, pred: TrackSet, iou_match: float) -> Tuple[_Side, _Side, _Hits]:
    """The frames and owners of both sides' boxes, and their hits, from one same-frame join.

    Both sides are joined as one set of boxes: the ground-truth tracks
    by id, owners 0..G-1 and their rows first, then the predicted tracks
    by id. The join's pairs of a ground-truth owner and a predicted one
    at or above ``iou_match`` are the hits, with the ground-truth box as
    the IoU's first operand. CLEAR and IDF1 read only hits, so
    ``evaluate`` scores both from one call. A bad ``iou_match`` raises
    before the join runs.
    """
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    num_gt = len(gt.trajectories)
    by_id = [t for ts in (gt, pred) for t in sorted(ts.trajectories, key=lambda t: t.id)]
    cols = frames, owners, _ = box_columns(by_id)
    hits = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for frame, owner_a, owner_b, iou in same_frame_pairs(cols):
        hit = (owner_a < num_gt) & (owner_b >= num_gt) & (iou >= iou_match)
        hits.append((frame[hit], owner_a[hit], owner_b[hit] - num_gt, iou[hit]))
        del frame, owner_a, owner_b, iou, hit  # freed before the join builds its next block
    split = gt.num_detections
    gt_side, pred_side = (frames[:split], owners[:split]), (frames[split:], owners[split:] - num_gt)
    return gt_side, pred_side, tuple(np.concatenate(column) for column in zip(*hits))


def _by_frame(side: _Side) -> _Side:
    """Frames and owners of the boxes, sorted by (frame, owner)."""
    order = np.lexsort((side[1], side[0]))
    return side[0][order], side[1][order]


def _owners_at(by_frame: _Side, frames: np.ndarray) -> Iterator[List[int]]:
    """For each of ``frames`` in turn, the owners of its boxes in ascending order."""
    at, owners = by_frame
    lo = np.searchsorted(at, frames, "left").tolist()
    hi = np.searchsorted(at, frames, "right").tolist()
    return (owners[a:b].tolist() for a, b in zip(lo, hi))


def _frame_matches(
    gts: List[int], preds: List[int], iou_of: Dict[Tuple[int, int], float], last_match: Dict[int, int]
) -> Dict[int, int]:
    """One frame's correspondences, gt owner -> predicted owner.

    ``gts`` and ``preds`` are the owners present, ascending; ``iou_of``
    holds the IoU of every pair at or above the matching threshold.
    """
    matches: Dict[int, int] = {}
    used_preds: set[int] = set()

    # 1. carry over still-valid correspondences
    for gid in gts:
        pid = last_match.get(gid)
        if pid is not None and pid not in used_preds and (gid, pid) in iou_of:
            matches[gid] = pid
            used_preds.add(pid)

    # 2. assign the rest, forbidding pairs under the IoU threshold
    if any(g not in matches and p not in used_preds for g, p in iou_of):
        rem_gts = [gid for gid in gts if gid not in matches]
        rem_preds = [pid for pid in preds if pid not in used_preds]
        row = {gid: r for r, gid in enumerate(rem_gts)}
        col = {pid: c for c, pid in enumerate(rem_preds)}
        cost = np.full((len(rem_gts), len(rem_preds)), _FORBIDDEN)
        for (gid, pid), iou in iou_of.items():
            if gid in row and pid in col:
                cost[row[gid], col[pid]] = 1.0 - iou
        for r, c in zip(*linear_sum_assignment(cost)):
            if cost[r, c] < _FORBIDDEN:
                matches[rem_gts[r]] = rem_preds[c]
    return matches


def _conflict_frames(frame: np.ndarray, gts: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """The frames, ascending, where one owner of either side is in two of the pairs.

    The pairs come in (frame, gt owner, predicted owner) order.
    """
    by_pred = np.lexsort((preds, frame))
    pred_frame, preds = frame[by_pred], preds[by_pred]
    same_gt = (frame[1:] == frame[:-1]) & (gts[1:] == gts[:-1])
    same_pred = (pred_frame[1:] == pred_frame[:-1]) & (preds[1:] == preds[:-1])
    return np.union1d(frame[1:][same_gt], pred_frame[1:][same_pred])


def clear_mot(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> ClearScores:
    """Frame-by-frame CLEAR scoring.

    At each frame, a ground-truth object first keeps its previous
    correspondence if that predicted id is present and still overlaps with
    IoU >= ``iou_match``. Remaining boxes are matched by minimum-cost
    assignment on 1 - IoU with pairs below the threshold forbidden.
    Unmatched predictions count as FP and unmatched ground truth as FN; a
    ground-truth identity re-matched to a different predicted id than its
    last known match counts one IDSW (re-finding the same id after an
    absence does not).

    The IoUs come from the same-frame overlap join. Only pairs at or above
    ``iou_match`` (hits) can match. Where no owner is in two hits of a
    frame, the hits are disjoint, and both the carry-over and the
    assignment match exactly them, so those frames are settled in bulk.
    Only the other frames, the conflict frames, run the sequential
    carry-over and assignment, in frame order.
    """
    return _clear(*_hits(gt, pred, iou_match))


def _clear(gt: _Side, pred: _Side, hits: _Hits) -> ClearScores:
    """``clear_mot`` of the two sides' boxes and their hits."""
    frame, hit_gt, hit_pred, hit_iou = hits
    conflict_frames = _conflict_frames(frame, hit_gt, hit_pred)
    conflict = np.isin(frame, conflict_frames)
    # the matches of the other frames, in (frame, gt owner) order
    match_frame, match_gt, match_pred = frame[~conflict], hit_gt[~conflict], hit_pred[~conflict]
    bulk_before = np.searchsorted(match_frame, conflict_frames).tolist()
    bounds = np.append(np.searchsorted(frame[conflict], conflict_frames), np.count_nonzero(conflict)).tolist()
    conflict_gt, conflict_pred, conflict_iou = hit_gt[conflict], hit_pred[conflict], hit_iou[conflict]

    last_match: Dict[int, int] = {}  # gt owner -> last predicted owner it matched
    done = 0  # bulk matches already in last_match
    # the matches of the conflict frames, kept as machine integers
    extra_frame, extra_gt, extra_pred = array("q"), array("q"), array("q")
    owners_at = zip(_owners_at(_by_frame(gt), conflict_frames), _owners_at(_by_frame(pred), conflict_frames))
    for k, (f, (gts, preds)) in enumerate(zip(conflict_frames.tolist(), owners_at)):
        last_match.update(zip(match_gt[done : bulk_before[k]].tolist(), match_pred[done : bulk_before[k]].tolist()))
        done = bulk_before[k]
        lo, hi = bounds[k], bounds[k + 1]
        keys = zip(conflict_gt[lo:hi].tolist(), conflict_pred[lo:hi].tolist())
        matches = _frame_matches(gts, preds, dict(zip(keys, conflict_iou[lo:hi].tolist())), last_match)
        last_match.update(matches)
        extra_frame.extend([f] * len(matches))
        extra_gt.extend(matches.keys())
        extra_pred.extend(matches.values())

    match_frame, match_gt, match_pred = (
        np.append(a, np.frombuffer(b, np.int64))
        for a, b in zip((match_frame, match_gt, match_pred), (extra_frame, extra_gt, extra_pred))
    )
    matched = len(match_frame)
    # a switch is a change of predicted owner in one gt owner's matches, in frame order
    order = np.lexsort((match_frame, match_gt))
    match_gt, match_pred = match_gt[order], match_pred[order]
    idsw = int(np.count_nonzero((match_gt[1:] == match_gt[:-1]) & (match_pred[1:] != match_pred[:-1])))

    num_gt = len(gt[0])
    fn = num_gt - matched
    fp = len(pred[0]) - matched
    mota = 1.0 - (fn + fp + idsw) / num_gt if num_gt > 0 else None
    return ClearScores(num_gt, fp, fn, idsw, mota)


def idf1(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> IdentityScores:
    """Identity scoring through one global gt-id / pred-id correspondence.

    The correspondence pairs ground-truth and predicted identities one to
    one so that the total of co-located frames, IDTP, is largest: a
    maximum-weight assignment on the G x P co-located frame counts. The
    usual minimum-cost form, which prices the boxes a pairing leaves
    uncovered and pads with dummy rows and columns for unmatched
    identities, gives the same IDTP, since there an assignment costs the
    total box count minus twice its co-located frames. IDFP and IDFN are
    the predicted and ground-truth boxes not covered by the correspondence.
    """
    return _identity(gt, pred, _hits(gt, pred, iou_match)[2])


def _identity(gt: TrackSet, pred: TrackSet, hits: _Hits) -> IdentityScores:
    """``idf1`` of the two track sets, given their hits."""
    _, hit_gt, hit_pred, _ = hits
    num_gt_tracks, num_pred_tracks = len(gt.trajectories), len(pred.trajectories)
    # co-located frame counts of every gt x predicted track pair
    overlap = np.bincount(hit_gt * num_pred_tracks + hit_pred, minlength=num_gt_tracks * num_pred_tracks)
    overlap = overlap.reshape(num_gt_tracks, num_pred_tracks)
    idtp = int(overlap[linear_sum_assignment(overlap, maximize=True)].sum())

    idfn = gt.num_detections - idtp
    idfp = pred.num_detections - idtp
    denom = 2 * idtp + idfp + idfn
    score = 2.0 * idtp / denom if denom > 0 else None
    return IdentityScores(idtp, idfp, idfn, score)


def evaluate(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> EvalReport:
    """Full report: CLEAR scores plus identity scores, both from one same-frame join."""
    gt_side, pred_side, hits = _hits(gt, pred, iou_match)
    return EvalReport(_clear(gt_side, pred_side, hits), _identity(gt, pred, hits))
