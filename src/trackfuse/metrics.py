"""CLEAR (MOTA, FP, FN, IDSW) and identity (IDF1) scoring against ground truth.

Both metrics treat a ground-truth box and a predicted box as co-located at
a frame when their IoU is at least the matching threshold (0.5 by default,
the usual pedestrian-tracking convention). MOTA follows the frame-by-frame
correspondence scheme with match persistence; IDF1 solves one global
assignment between ground-truth and predicted identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


def _owners_at(by_frame: Tuple[np.ndarray, np.ndarray], frames: np.ndarray) -> List[List[int]]:
    """For each of ``frames``, the owners of its boxes in ascending order."""
    at, owners = by_frame
    lo = np.searchsorted(at, frames, "left")
    hi = np.searchsorted(at, frames, "right")
    return [owners[a:b].tolist() for a, b in zip(lo.tolist(), hi.tolist())]


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

    The IoUs come from the same-frame overlap join, one block of whole
    frames at a time. Only frames with a pair at or above ``iou_match`` can
    match anything, so only those are visited.
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

    matched = idsw = 0
    last_match: Dict[int, int] = {}  # gt owner -> last predicted owner it matched
    for pairs in blocks:
        hit = pairs[3] >= iou_match
        frame, hit_gt, hit_pred, hit_iou = (column[hit] for column in pairs)
        frames, starts = np.unique(frame, return_index=True)
        bounds = np.append(starts, len(frame)).tolist()
        keys = list(zip(hit_gt.tolist(), hit_pred.tolist()))
        hit_iou = hit_iou.tolist()
        gts_at, preds_at = _owners_at(gt_by_frame, frames), _owners_at(pred_by_frame, frames)
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            iou_of = dict(zip(keys[lo:hi], hit_iou[lo:hi]))
            matches = _frame_matches(gts_at[k], preds_at[k], iou_of, last_match)
            matched += len(matches)
            for gid, pid in matches.items():
                prev = last_match.get(gid)
                if prev is not None and prev != pid:
                    idsw += 1
                last_match[gid] = pid

    fn = num_gt - matched
    fp = num_pred - matched
    mota = 1.0 - (fn + fp + idsw) / num_gt if num_gt > 0 else None
    return ClearScores(num_gt, fp, fn, idsw, mota)


def idf1(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> IdentityScores:
    """Identity scoring through one global gt-id / pred-id correspondence.

    The bipartite cost of pairing a ground-truth identity with a predicted
    identity is the number of boxes left uncovered by the pairing (its
    frame-wise false negatives plus false positives); dummy rows and columns
    price leaving an identity unmatched at its full box count. The
    minimum-cost assignment therefore maximizes the total of co-located
    frames, which is IDTP. IDFP and IDFN are the predicted and ground-truth
    boxes not covered by the correspondence.
    """
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    gt_tracks = sorted(gt.trajectories, key=lambda t: t.id)
    pred_tracks = sorted(pred.trajectories, key=lambda t: t.id)
    gt_len = np.fromiter((len(t.frame) for t in gt_tracks), np.int64, len(gt_tracks))
    pred_len = np.fromiter((len(t.frame) for t in pred_tracks), np.int64, len(pred_tracks))
    n_gt_boxes, n_pred_boxes = int(gt_len.sum()), int(pred_len.sum())

    G, P = len(gt_tracks), len(pred_tracks)
    overlap = np.zeros((G, P), dtype=float)  # co-located frame counts
    for _, gi, pj, iou in same_frame_pairs(box_columns(gt_tracks), box_columns(pred_tracks)):
        hit = iou >= iou_match
        np.add.at(overlap, (gi[hit], pj[hit]), 1)

    forbidden = float(n_gt_boxes + n_pred_boxes + 1)
    size = G + P
    cost = np.full((size, size), forbidden)
    cost[:G, :P] = (gt_len[:, None] + pred_len[None, :]) - 2.0 * overlap
    cost[np.arange(G), P + np.arange(G)] = gt_len  # gt identity left unmatched
    cost[G + np.arange(P), np.arange(P)] = pred_len  # predicted identity unmatched
    cost[G:, P:] = 0.0

    idtp = 0
    for r, c in zip(*linear_sum_assignment(cost)):
        if r < G and c < P:
            idtp += int(overlap[r, c])

    idfn = n_gt_boxes - idtp
    idfp = n_pred_boxes - idtp
    denom = 2 * idtp + idfp + idfn
    score = 2.0 * idtp / denom if denom > 0 else None
    return IdentityScores(idtp, idfp, idfn, score)


def evaluate(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> EvalReport:
    """Full report: CLEAR scores plus identity scores."""
    return EvalReport(clear_mot(gt, pred, iou_match), idf1(gt, pred, iou_match))
