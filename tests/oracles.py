"""Independent brute-force oracles, scalar references and fixture builders used by the tests.

The brute-force oracles recompute results from first principles (exhaustive
frame scans, permutation enumeration, Monte-Carlo sampling), so the library
is checked against code that shares none of its logic.

The scalar references are the exception. ``box_iou`` and ``st_iou`` are the
one-pair definitions of box and spatio-temporal IoU; the library's
same-frame overlap join must give bit-identical IoUs. The scalar pipeline
stages are the per-pair ``box_iou`` loops that merge grouping, NMS, CLEAR
and IDF1 ran before the overlap join, a per-frame ``merge_group``, a
per-frame, per-value ``linear_interpolate``, the per-line parser that ran
before the columnar one, the per-box formatter that ran before the block
writer, and synth's per-frame degradation loop that ran before the block
draws, kept as differential references.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from trackfuse import BoundingBox, Detection, ParseError, TrackSet, Trajectory
from trackfuse.ensemble import EnsembleConfig, MergeMode, length_filter, mix
from trackfuse.interpolate import linear_interpolate
from trackfuse.io import DECIMALS, MAX_COORD, MAX_INDEX, MIN_BOX_SIZE
from trackfuse.metrics import ClearScores, IdentityScores
from trackfuse.rng import SplitMix64
from trackfuse.synth import TrackerDegradation


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when they do not overlap."""
    if a == b:
        return 1.0
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    # rounding in the right/bottom edges can push the ratio a hair past 1
    return min(inter / (a.w * a.h + b.w * b.h - inter), 1.0)


def st_iou(ti: Trajectory, tj: Trajectory, thr_s: float) -> float:
    """Spatio-temporal IoU of two trajectories.

    Counts the common frames whose box IoU strictly exceeds ``thr_s`` and
    divides by the length of the shorter trajectory (inclusive frame span),
    so a short track fully covered by a long one still scores 1. Returns 0
    when the trajectories never share a frame.
    """
    if ti.stop < tj.start or tj.stop < ti.start:
        return 0.0
    di, dj = ti.detections, tj.detections
    inter = sum(1 for f in di.keys() & dj.keys() if box_iou(di[f].box, dj[f].box) > thr_s)
    return inter / min(ti.length, tj.length)


def iou_naive(a: BoundingBox, b: BoundingBox) -> float:
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    ix = max(0.0, min(ax2, bx2) - max(a.x, b.x))
    iy = max(0.0, min(ay2, by2) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.h + b.w * b.h - inter)


def st_iou_naive(ti: Trajectory, tj: Trajectory, thr_s: float) -> float:
    """Walk every frame of the combined span, recomputing from scratch."""
    frames_i, frames_j = ti.frame.tolist(), tj.frame.tolist()
    lo = min(frames_i + frames_j)
    hi = max(frames_i + frames_j)
    inter = 0
    shared = 0
    for f in range(lo, hi + 1):
        di, dj = ti.detections.get(f), tj.detections.get(f)
        if di is None or dj is None:
            continue
        shared += 1
        if iou_naive(di.box, dj.box) > thr_s:
            inter += 1
    if shared == 0:
        return 0.0
    len_i = max(frames_i) - min(frames_i) + 1
    len_j = max(frames_j) - min(frames_j) + 1
    return inter / min(len_i, len_j)


def iou_monte_carlo(a: BoundingBox, b: BoundingBox, samples: int = 200_000, seed: int = 1) -> float:
    """Estimate IoU by sampling points over the joint bounding region."""
    rng = random.Random(seed)
    x0, x1 = min(a.x, b.x), max(a.x + a.w, b.x + b.w)
    y0, y1 = min(a.y, b.y), max(a.y + a.h, b.y + b.h)
    both = either = 0
    for _ in range(samples):
        px, py = rng.uniform(x0, x1), rng.uniform(y0, y1)
        in_a = a.x <= px <= a.x + a.w and a.y <= py <= a.y + a.h
        in_b = b.x <= px <= b.x + b.w and b.y <= py <= b.y + b.h
        if in_a and in_b:
            both += 1
        if in_a or in_b:
            either += 1
    return both / either


def brute_force_min_cost(cost: Sequence[Sequence[float]]) -> float:
    """Exhaustive minimum total cost over all one-to-one assignments."""
    rows = len(cost)
    cols = len(cost[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0.0
    best = float("inf")
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            best = min(best, sum(cost[r][perm[r]] for r in range(rows)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            best = min(best, sum(cost[perm[c]][c] for c in range(cols)))
    return best


def make_track(
    track_id: int,
    boxes: Dict[int, Tuple[float, float, float, float]],
    confidence: float = 1.0,
) -> Trajectory:
    frames = sorted(boxes)
    return Trajectory(track_id, frames, [boxes[f] for f in frames], [confidence] * len(frames))


def const_track(
    track_id: int,
    start: int,
    stop: int,
    box: Tuple[float, float, float, float] = (0.0, 0.0, 10.0, 10.0),
    skip: Iterable[int] = (),
) -> Trajectory:
    skipped = set(skip)
    return make_track(track_id, {f: box for f in range(start, stop + 1) if f not in skipped})


def box_columns(tracks: Sequence[Trajectory]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every box of ``tracks`` as frames ``int64[n]``, its track's index in ``tracks`` and ``float64[n, 4]`` boxes."""
    if not tracks:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4))
    owners = np.repeat(np.arange(len(tracks)), [len(t.frame) for t in tracks])
    return np.concatenate([t.frame for t in tracks]), owners, np.concatenate([t.xywh for t in tracks])


def random_trajectory(
    rng: random.Random,
    track_id: int,
    max_start: int = 30,
    max_span: int = 50,
    arena: float = 200.0,
) -> Trajectory:
    """A random walk starting anywhere in an ``arena`` x ``arena`` square."""
    start = rng.randint(1, max_start)
    span = rng.randint(1, max_span)
    stop = start + span - 1
    x, y = rng.uniform(0.0, arena), rng.uniform(0.0, arena)
    w, h = rng.uniform(8.0, 40.0), rng.uniform(8.0, 40.0)
    frames, boxes = [], []
    for f in range(start, stop + 1):
        x += rng.uniform(-4.0, 4.0)
        y += rng.uniform(-4.0, 4.0)
        if f not in (start, stop) and rng.random() < 0.15:
            continue  # internal gap
        frames.append(f)
        boxes.append((x, y, w, h))
    return Trajectory(track_id, frames, boxes, [1.0] * len(frames))


def random_trackset(
    rng: random.Random,
    sequence: str = "seq",
    max_tracks: int = 6,
    max_start: int = 30,
    max_span: int = 50,
    arena: float = 200.0,
) -> TrackSet:
    trajectories = [
        random_trajectory(rng, tid, max_start, max_span, arena)
        for tid in range(1, rng.randint(1, max_tracks) + 1)
    ]
    return TrackSet(sequence, trajectories)


def transformed(ts: TrackSet, shift: int = 0, scale: float = 1.0) -> TrackSet:
    """``ts`` with every frame moved by ``shift`` and every coordinate multiplied by ``scale``."""
    return TrackSet(ts.sequence, [Trajectory(t.id, t.frame + shift, t.xywh * scale, t.conf) for t in ts.trajectories])


def canonical(ts_or_tracks) -> tuple:
    """Id-free content signature, for equality up to id relabeling."""
    tracks = (
        ts_or_tracks.trajectories if isinstance(ts_or_tracks, TrackSet) else ts_or_tracks
    )
    sig = []
    for t in tracks:
        sig.append(
            tuple(
                (f, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence)
                for f, d in t.detections.items()
            )
        )
    return tuple(sorted(sig))


# ---------------------------------------------------------------------------
# Scalar pipeline stages: merge grouping, length NMS, IDF1 and CLEAR as they
# were written before the same-frame overlap join, one box_iou call per box
# pair. The library's versions must give identical results.


def merge_groups_scalar(pool: Sequence[Trajectory], thr_s: float, thr_t: float) -> List[List[Trajectory]]:
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


def length_nms_scalar(tracks: Sequence[Trajectory], thr_nms: float) -> List[Trajectory]:
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
        keep = [(t.id, f) not in suppressed for f in t.frame.tolist()]
        if any(keep):
            out.append(Trajectory(t.id, t.frame[keep], t.xywh[keep], t.conf[keep]))
    return out


def idf1_scalar(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> IdentityScores:
    gt_tracks = sorted(gt.trajectories, key=lambda t: t.id)
    pred_tracks = sorted(pred.trajectories, key=lambda t: t.id)
    n_gt_boxes = sum(len(t.detections) for t in gt_tracks)
    n_pred_boxes = sum(len(t.detections) for t in pred_tracks)

    G, P = len(gt_tracks), len(pred_tracks)
    overlap = np.zeros((G, P), dtype=float)  # co-located frame counts
    for i, gtrack in enumerate(gt_tracks):
        for j, ptrack in enumerate(pred_tracks):
            if gtrack.stop < ptrack.start or ptrack.stop < gtrack.start:
                continue
            common = gtrack.detections.keys() & ptrack.detections.keys()
            overlap[i, j] = sum(
                1
                for f in common
                if box_iou(gtrack.detections[f].box, ptrack.detections[f].box)
                >= iou_match
            )

    forbidden = float(n_gt_boxes + n_pred_boxes + 1)
    size = G + P
    cost = np.full((size, size), forbidden)
    for i, gtrack in enumerate(gt_tracks):
        gi = len(gtrack.detections)
        for j, ptrack in enumerate(pred_tracks):
            cost[i, j] = gi + len(ptrack.detections) - 2.0 * overlap[i, j]
        cost[i, P + i] = gi  # gt identity left unmatched
    for j, ptrack in enumerate(pred_tracks):
        cost[G + j, j] = len(ptrack.detections)  # predicted identity unmatched
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


def clear_mot_scalar(gt: TrackSet, pred: TrackSet, iou_match: float = 0.5) -> ClearScores:
    """``clear_mot`` with one ``box_iou`` call per same-frame box pair, over every frame."""

    def boxes_by_frame(ts: TrackSet) -> Dict[int, List[Tuple[int, BoundingBox]]]:
        index: Dict[int, List[Tuple[int, BoundingBox]]] = {}
        for traj in sorted(ts.trajectories, key=lambda t: t.id):
            for frame, det in traj.detections.items():
                index.setdefault(frame, []).append((traj.id, det.box))
        return index

    gt_frames = boxes_by_frame(gt)
    pred_frames = boxes_by_frame(pred)
    num_gt = sum(len(v) for v in gt_frames.values())

    fp = fn = idsw = 0
    last_match: Dict[int, int] = {}  # gt id -> last predicted id it matched

    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        pred_by_id = dict(preds)

        matches: Dict[int, int] = {}
        used_preds: set[int] = set()

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

        rem_gts = [(gid, box) for gid, box in gts if gid not in matches]
        rem_preds = [(pid, box) for pid, box in preds if pid not in used_preds]
        if rem_gts and rem_preds:
            ious = [[box_iou(gbox, pbox) for _, pbox in rem_preds] for _, gbox in rem_gts]
            cost = [[1.0 - iou if iou >= iou_match else 1e9 for iou in row] for row in ious]
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


def merge_group_scalar(group: Sequence[Trajectory], mode: MergeMode) -> Trajectory:
    """``merge_group`` one frame at a time, from each frame's boxes in group order.

    DROP keeps the box of the first member present. AVERAGE copies a lone
    box; otherwise it sums the boxes from 0 in group order, divides by
    their number and floors width and height at ``MIN_BOX_SIZE / 2``.
    """
    present: Dict[int, List[List[float]]] = {}  # frame -> x, y, w, h, confidence of each member present
    for t in group:
        for f, box, conf in zip(t.frame.tolist(), t.xywh.tolist(), t.conf.tolist()):
            present.setdefault(f, []).append(box + [conf])
    frames = sorted(present)
    rows = []
    for f in frames:
        boxes = present[f]
        if mode is MergeMode.DROP or len(boxes) == 1:
            rows.append(boxes[0])
            continue
        totals = [0.0] * 5
        for box in boxes:
            for k, value in enumerate(box):
                totals[k] += value
        mean = [total / len(boxes) for total in totals]
        mean[2], mean[3] = max(mean[2], MIN_BOX_SIZE / 2), max(mean[3], MIN_BOX_SIZE / 2)
        rows.append(mean)
    return Trajectory(group[0].id, frames, [row[:4] for row in rows], [row[4] for row in rows])


def ensemble_pipeline_scalar(tracksets: Sequence[TrackSet], cfg: EnsembleConfig) -> TrackSet:
    """``ensemble_pipeline`` with the scalar grouping, merging and NMS; gaps are filled before the relabel."""
    pool = mix(tracksets)
    merged = [merge_group_scalar(g, cfg.merge_mode) for g in merge_groups_scalar(pool, cfg.thr_s, cfg.thr_t)]
    kept = length_filter(length_nms_scalar(merged, cfg.thr_nms), cfg.thr_len)
    if cfg.max_gap is not None:
        kept = [linear_interpolate(t, cfg.max_gap) for t in kept]
    return TrackSet(tracksets[0].sequence, [t.with_id(i) for i, t in enumerate(kept, start=1)])


def linear_interpolate_scalar(track: Trajectory, max_gap: int) -> Trajectory:
    """``linear_interpolate`` one missing frame and one value at a time, in Python floats.

    Each frame f of a gap of at most ``max_gap`` frames between f0 and f1
    gets ``v0 + a * (v1 - v0)`` with ``a = (f - f0) / (f1 - f0)`` for x, y,
    w, h and confidence alike.
    """
    frames = track.frame.tolist()
    rows = [box + [conf] for box, conf in zip(track.xywh.tolist(), track.conf.tolist())]
    out_frames, out_rows = frames[:1], rows[:1]
    for f0, f1, r0, r1 in zip(frames, frames[1:], rows, rows[1:]):
        if f1 - f0 - 1 <= max_gap:
            for f in range(f0 + 1, f1):
                a = (f - f0) / (f1 - f0)
                out_frames.append(f)
                out_rows.append([v0 + a * (v1 - v0) for v0, v1 in zip(r0, r1)])
        out_frames.append(f1)
        out_rows.append(r1)
    return Trajectory(track.id, out_frames, [r[:4] for r in out_rows], [r[4] for r in out_rows])


def _positive_index(value: float, name: str, line_no: int) -> int:
    if not value.is_integer() or value < 1:
        raise ParseError(line_no, f"{name} must be a positive integer, got {value}")
    if value >= MAX_INDEX:
        raise ParseError(line_no, f"{name} must be below 2**53, got {value}")
    return int(value)


def parse_trackset_scalar(text: str, is_ground_truth: bool = False, sequence: str = "") -> TrackSet:
    """``parse_trackset`` one line at a time, one validated ``Detection`` per box."""
    per_id: dict[int, List[Detection]] = {}
    seen: set[tuple[int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        while parts and parts[-1] == "":
            parts.pop()
        if len(parts) < 6:
            raise ParseError(line_no, f"expected at least 6 columns, got {len(parts)}")
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError:
                raise ParseError(line_no, f"malformed number {part!r}") from None

        frame = _positive_index(values[0], "frame", line_no)
        track_id = _positive_index(values[1], "id", line_no)
        x, y, w, h = values[2:6]
        if w < MIN_BOX_SIZE:
            raise ParseError(line_no, f"box width {w} below {MIN_BOX_SIZE}")
        if h < MIN_BOX_SIZE:
            raise ParseError(line_no, f"box height {h} below {MIN_BOX_SIZE}")

        if is_ground_truth:
            if len(values) >= 7 and values[6] == 0:
                continue
            conf = 1.0
        else:
            conf = values[6] if len(values) >= 7 else 1.0
            if conf < 0:  # -1 marks an unset confidence column
                conf = 1.0
            conf = min(conf, 1.0)

        if (frame, track_id) in seen:
            raise ParseError(line_no, f"duplicate (frame, id) pair ({frame}, {track_id})")
        seen.add((frame, track_id))

        try:
            box = BoundingBox(x, y, w, h)
            for name, value in zip("xywh", (x, y, w, h)):
                if abs(value) > MAX_COORD:
                    raise ValueError(f"bounding box field {name}={value!r} beyond 2**44 in magnitude")
            det = Detection(frame, box, conf)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        per_id.setdefault(track_id, []).append(det)

    trajectories = []
    for track_id, dets in sorted(per_id.items()):
        dets.sort(key=lambda d: d.frame)
        boxes = [(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets]
        trajectories.append(Trajectory(track_id, [d.frame for d in dets], boxes, [d.confidence for d in dets]))
    return TrackSet(sequence, trajectories)


def serialize_trackset_scalar(ts: TrackSet) -> str:
    """``serialize_trackset`` with one ``str.format`` call per box."""
    num = f"{{:.{DECIMALS}f}}"
    line = ",".join(["{}", "{}", *[num] * 5, "-1", "-1", "-1"]) + "\n"
    rows = sorted((f, t.id, det) for t in ts.trajectories for f, det in t.detections.items())
    return "".join(
        line.format(f, track_id, det.box.x, det.box.y, det.box.w, det.box.h, det.confidence)
        for f, track_id, det in rows
    )


def degrade_scalar(gt: TrackSet, deg: TrackerDegradation, rng: SplitMix64, sequence: str) -> TrackSet:
    """``synth._degrade`` with one ``bernoulli``/``normal`` call per draw, frame by frame."""
    trajectories: List[Trajectory] = []
    next_id = 1
    for traj in sorted(gt.trajectories, key=lambda t: t.id):
        window: set[int] = set()
        if deg.segment_drop > 0:
            length = rng.randint(1, max(1, 2 * deg.segment_drop - 1))
            lo, hi = traj.start + 1, traj.stop - length
            if lo <= hi:
                s = rng.randint(lo, hi)
                window = set(range(s, s + length))

        rows: List[int] = []  # surviving rows of the object's track
        shifts: List[Tuple[float, float]] = []
        starts = [0]  # where in ``rows`` each id segment starts
        for row, f in enumerate(traj.frame.tolist()):
            if f in window:
                continue
            dropped = rng.bernoulli(deg.drop_rate)
            dx = rng.normal(0.0, deg.jitter)
            dy = rng.normal(0.0, deg.jitter)
            switched = rng.bernoulli(deg.idswitch_rate)
            if dropped:
                continue
            if switched and len(rows) > starts[-1]:
                starts.append(len(rows))
            rows.append(row)
            shifts.append((dx, dy))
        if not rows:
            continue

        frame, xywh, conf = traj.frame[rows], traj.xywh[rows], traj.conf[rows]
        xywh[:, :2] += shifts
        for lo, hi in zip(starts, starts[1:] + [len(rows)]):
            trajectories.append(Trajectory(next_id, frame[lo:hi], xywh[lo:hi], conf[lo:hi]))
            next_id += 1
    return TrackSet(sequence, trajectories)
