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

from .geometry import BoxColumns, box_columns, same_frame_pairs
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


def _by_frame(cols: BoxColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Frames and owners of the boxes, sorted by (frame, owner)."""
    order = np.lexsort((cols[1], cols[0]))
    return cols[0][order], cols[1][order]


def _owners_at(by_frame: Tuple[np.ndarray, np.ndarray], frames: np.ndarray) -> Iterator[List[int]]:
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
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    # owners index the id-sorted tracks, so owner order is id order
    gt_cols = box_columns(sorted(gt.trajectories, key=lambda t: t.id))
    pred_cols = box_columns(sorted(pred.trajectories, key=lambda t: t.id))
    gt_by_frame, pred_by_frame = _by_frame(gt_cols), _by_frame(pred_cols)
    num_gt, num_pred = len(gt_cols[0]), len(pred_cols[0])
    blocks = same_frame_pairs(gt_cols, pred_cols)
    del gt_cols, pred_cols  # the join sorts its own copies; free these while it runs
    hits = [tuple(column[pairs[3] >= iou_match] for column in pairs) for pairs in blocks]
    no_hits = (np.empty(0, np.int64),) * 3 + (np.empty(0),)
    frame, hit_gt, hit_pred, hit_iou = (np.concatenate(column) for column in zip(no_hits, *hits))
    del hits

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
    owners_at = zip(_owners_at(gt_by_frame, conflict_frames), _owners_at(pred_by_frame, conflict_frames))
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

    fn = num_gt - matched
    fp = num_pred - matched
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
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    gt_tracks = sorted(gt.trajectories, key=lambda t: t.id)
    pred_tracks = sorted(pred.trajectories, key=lambda t: t.id)
    n_gt_boxes = sum(len(t.frame) for t in gt_tracks)
    n_pred_boxes = sum(len(t.frame) for t in pred_tracks)

    overlap = np.zeros((len(gt_tracks), len(pred_tracks)))  # co-located frame counts
    for _, gi, pj, iou in same_frame_pairs(box_columns(gt_tracks), box_columns(pred_tracks)):
        hit = iou >= iou_match
        np.add.at(overlap, (gi[hit], pj[hit]), 1)

    idtp = int(overlap[linear_sum_assignment(overlap, maximize=True)].sum())

    idfn = n_gt_boxes - idtp
    idfp = n_pred_boxes - idtp
    denom = 2 * idtp + idfp + idfn
    score = 2.0 * idtp / denom if denom > 0 else None
    return IdentityScores(idtp, idfp, idfn, score)


def evaluate(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> EvalReport:
    """Full report: CLEAR scores plus identity scores."""
    return EvalReport(clear_mot(gt, pred, iou_match), idf1(gt, pred, iou_match))
