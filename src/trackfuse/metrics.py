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

from .geometry import box_columns, box_iou, same_frame_pairs
from .model import BoundingBox, TrackSet


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


def _boxes_by_frame(ts: TrackSet) -> Dict[int, List[Tuple[int, BoundingBox]]]:
    """frame -> [(trajectory id, box)], ids ascending within each frame."""
    index: Dict[int, List[Tuple[int, BoundingBox]]] = {}
    for traj in sorted(ts.trajectories, key=lambda t: t.id):
        for frame, det in traj.detections.items():
            index.setdefault(frame, []).append((traj.id, det.box))
    return index


# Finite stand-in for a forbidden assignment; real costs here never exceed 1.
_FORBIDDEN = 1e9


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
    """
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    gt_frames = _boxes_by_frame(gt)
    pred_frames = _boxes_by_frame(pred)
    num_gt = sum(len(v) for v in gt_frames.values())

    fp = fn = idsw = 0
    last_match: Dict[int, int] = {}  # gt id -> last predicted id it matched

    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        pred_by_id = dict(preds)

        matches: Dict[int, int] = {}
        used_preds: set[int] = set()

        # 1. carry over still-valid correspondences
        for gid, gbox in gts:
            pid = last_match.get(gid)
            if (
                pid is not None
                and pid in pred_by_id
                and pid not in used_preds
                and box_iou(gbox, pred_by_id[pid]) >= iou_match
            ):
                matches[gid] = pid
                used_preds.add(pid)

        # 2. assign the rest, forbidding pairs under the IoU threshold
        rem_gts = [(gid, box) for gid, box in gts if gid not in matches]
        rem_preds = [(pid, box) for pid, box in preds if pid not in used_preds]
        if rem_gts and rem_preds:
            ious = [
                [box_iou(gbox, pbox) for _, pbox in rem_preds] for _, gbox in rem_gts
            ]
            cost = [
                [1.0 - iou if iou >= iou_match else _FORBIDDEN for iou in row]
                for row in ious
            ]
            for r, c in zip(*linear_sum_assignment(cost)):
                if ious[r][c] >= iou_match:
                    gid = rem_gts[r][0]
                    pid = rem_preds[c][0]
                    matches[gid] = pid
                    used_preds.add(pid)

        fn += len(gts) - len(matches)
        fp += len(preds) - len(matches)
        for gid, pid in matches.items():
            prev = last_match.get(gid)
            if prev is not None and prev != pid:
                idsw += 1
            last_match[gid] = pid

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
    gt_len = np.fromiter((len(t.detections) for t in gt_tracks), np.int64, len(gt_tracks))
    pred_len = np.fromiter((len(t.detections) for t in pred_tracks), np.int64, len(pred_tracks))
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
