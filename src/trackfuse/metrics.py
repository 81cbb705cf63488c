"""CLEAR (MOTA, FP, FN, IDSW) and identity (IDF1) scoring against ground truth.

Both metrics treat a ground-truth box and a predicted box as co-located at
a frame when their IoU is at least the matching threshold (0.5 by default,
the usual pedestrian-tracking convention). MOTA follows the frame-by-frame
correspondence scheme with match persistence; IDF1 solves one global
assignment between ground-truth and predicted identities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import same_frame_pairs
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
# in id order, so owner order is id order. The boxes come by owner, one a
# frame, so the owners at one frame ascend.
_Side = Tuple[np.ndarray, np.ndarray]
# Hits: (frame, gt owner, predicted owner, IoU) of every same-frame pair with
# IoU >= iou_match, in (frame, gt owner, predicted owner) order.
_Hits = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _hits(gt: TrackSet, pred: TrackSet, iou_match: float) -> Tuple[_Side, _Side, _Hits]:
    """The frames and owners of both sides' boxes, and their hits, from one same-frame join.

    Both sides are joined as one set of box rows: the ground-truth tracks,
    owners 0..G-1 and their rows first, then the predicted tracks, each
    side in its track set's order, by id, so the rows come by owner. The
    join keeps the pairs above the float just below ``iou_match``, exactly
    those at or above it; of these, the pairs of a ground-truth row and a
    predicted one are the hits, with the ground-truth box as the IoU's
    first operand. CLEAR and IDF1 read only hits, so ``evaluate`` scores
    both from one call. A bad ``iou_match`` raises before the join runs.
    """
    if not 0.0 < iou_match <= 1.0:
        raise ValueError(f"iou_match must be in (0, 1], got {iou_match}")
    g, p = gt.columns, pred.columns
    split = len(g.frame)
    frames = np.concatenate([g.frame, p.frame])
    owners = np.repeat(np.arange(len(g.ids) + len(p.ids)), np.concatenate([g.counts(), p.counts()]))
    owners[split:] -= len(g.ids)
    boxes = np.concatenate([g.xywh, p.xywh])
    hits = [(np.empty(0, np.int64),) * 2 + (np.empty(0),)]
    for a, b, iou in same_frame_pairs(frames, boxes, np.nextafter(iou_match, 0.0)):
        cross = (a < split) & (b >= split)
        hits.append((a[cross], b[cross], iou[cross]))
    a, b, iou = (np.concatenate(column) for column in zip(*hits))
    gt_side, pred_side = (frames[:split], owners[:split]), (frames[split:], owners[split:])
    return gt_side, pred_side, (frames[a], owners[a], owners[b], iou)


# A frame's owners present, ground truth then predicted, each ascending, and
# the IoU of each of its hits, in (gt owner, predicted owner) order
_WholeFrame = Callable[[], Tuple[List[int], List[int], Dict[Tuple[int, int], float]]]


def _carry_over(hits: Iterable[Tuple[int, int]], last_match: Dict[int, int]) -> Dict[int, int]:
    """The hits that keep their gt owner's last correspondence, gt owner -> predicted owner.

    ``hits`` come in gt owner order, so a predicted owner that several gt
    owners last matched stays with the lowest of them.
    """
    matches: Dict[int, int] = {}
    used_preds: set[int] = set()
    for gid, pid in hits:
        if last_match.get(gid) == pid and pid not in used_preds:
            matches[gid] = pid
            used_preds.add(pid)
    return matches


def _frame_matches(
    hits: List[Tuple[int, int]], last_match: Dict[int, int], whole_frame: _WholeFrame
) -> Dict[int, int]:
    """One conflict frame's matches among the owners of its shared hits, gt owner -> predicted owner.

    ``hits`` are the frame's shared hits in (gt owner, predicted owner)
    order. After the carry-over, if no open hit shares an owner with
    another, the open hits are the matches. Otherwise the frame is solved
    whole: ``whole_frame()`` gives every owner present and every hit, and
    one assignment runs over every owner the carry-over left free, those
    of the settled hits and those with no hit included, since the solver's
    pick among tied hits depends on every row and column.
    """
    # 1. carry over still-valid correspondences
    matches = _carry_over(hits, last_match)
    used_preds = set(matches.values())
    open_hits = [(gid, pid) for gid, pid in hits if gid not in matches and pid not in used_preds]
    if len({gid for gid, _ in open_hits}) == len({pid for _, pid in open_hits}) == len(open_hits):
        matches.update(open_hits)
        return matches

    # 2. assign the rest, forbidding pairs under the IoU threshold
    gts, preds, iou_of = whole_frame()
    matches = _carry_over(iou_of, last_match)
    used_preds = set(matches.values())
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
    # the settled hits' matches are in the bulk already
    shared = set(hits)
    return {gid: pid for gid, pid in matches.items() if (gid, pid) in shared}


def _repeated(key: np.ndarray) -> np.ndarray:
    """Which entries of the sorted ``key`` equal a neighbour."""
    repeated = np.zeros(len(key), bool)
    same = key[1:] == key[:-1]
    repeated[1:] |= same
    repeated[:-1] |= same
    return repeated


def _shared(frame: np.ndarray, gts: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Which hits share their gt owner or their predicted owner with another hit of their frame.

    The hits come in (frame, gt owner, predicted owner) order.
    """
    # keys ordered as (frame, owner), with the frame's rank in place of its value
    rank = np.cumsum(np.diff(frame, prepend=frame[:1]) != 0)
    shared = _repeated(rank * (gts.max(initial=0) + 1) + gts)
    pred_key = rank * (preds.max(initial=0) + 1) + preds
    by_pred = np.argsort(pred_key)
    shared[by_pred] |= _repeated(pred_key[by_pred])
    return shared


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
    ``iou_match`` (hits) can match. A hit whose two owners are in no other
    open hit of its frame is a match: its cost, below 1, is alone in its
    row and column, and an assignment without it would cost about
    ``_FORBIDDEN`` more. So the settled hits, those whose owners are in no
    other hit of their frame, are matched in bulk. Only the shared hits,
    those of the conflict frames, run the carry-over in frame order, and
    a conflict frame runs the assignment only when an owner is still in
    two open hits after it. Only then are the owners present looked up,
    by scanning each side's boxes for that frame.
    """
    return _clear(*_hits(gt, pred, iou_match))


def _clear(gt: _Side, pred: _Side, hits: _Hits) -> ClearScores:
    """``clear_mot`` of the two sides' boxes and their hits."""
    frame, hit_gt, hit_pred, hit_iou = hits
    shared = _shared(frame, hit_gt, hit_pred)
    # the settled hits are matches, in (frame, gt owner) order
    match_frame, match_gt, match_pred = frame[~shared], hit_gt[~shared], hit_pred[~shared]
    # the conflict frames, and where each one's shared hits start
    shared_frame = frame[shared]
    first = np.flatnonzero(np.diff(shared_frame, prepend=0))  # frames start at 1
    conflict_frames = shared_frame[first]
    bounds = np.append(first, len(shared_frame)).tolist()
    bulk_before = np.searchsorted(match_frame, conflict_frames).tolist()
    shared_hits = list(zip(hit_gt[shared].tolist(), hit_pred[shared].tolist()))

    def whole_frame(f: int) -> Tuple[List[int], List[int], Dict[Tuple[int, int], float]]:
        """Frame ``f``'s owners present, found by scanning each side's boxes, and its hits."""
        lo, hi = np.searchsorted(frame, [f, f + 1]).tolist()
        keys = zip(hit_gt[lo:hi].tolist(), hit_pred[lo:hi].tolist())
        gt_owners, pred_owners = (owners[frames == f].tolist() for frames, owners in (gt, pred))
        return gt_owners, pred_owners, dict(zip(keys, hit_iou[lo:hi].tolist()))

    last_match: Dict[int, int] = {}  # gt owner -> last predicted owner it matched
    conflict_matches: List[int] = []  # the shared hits' matches, flat: frame, gt owner, predicted owner
    # the bulk matches between the last conflict frame and this one are [lo, hi)
    for k, (f, lo, hi) in enumerate(zip(conflict_frames.tolist(), [0, *bulk_before], bulk_before)):
        last_match.update(zip(match_gt[lo:hi].tolist(), match_pred[lo:hi].tolist()))
        matches = _frame_matches(shared_hits[bounds[k] : bounds[k + 1]], last_match, functools.partial(whole_frame, f))
        last_match.update(matches)
        for gid, pid in matches.items():
            conflict_matches += (f, gid, pid)

    # every match as (frame, gt owner, predicted owner), the bulk ones first
    every = np.hstack(((match_frame, match_gt, match_pred), np.array(conflict_matches, np.int64).reshape(-1, 3).T))
    # a switch is a change of predicted owner in one gt owner's matches, in frame order: by gt owner, then frame
    _, match_gt, match_pred = every[:, np.lexsort(every[:2])]
    matched = len(match_gt)
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
    num_gt_tracks, num_pred_tracks = len(gt), len(pred)
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
