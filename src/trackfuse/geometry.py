"""Overlap geometry: box IoU and spatio-temporal IoU."""

from __future__ import annotations

from .model import BoundingBox, Trajectory


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when they do not overlap."""
    if a == b:
        return 1.0
    ix = min(a.right, b.right) - max(a.x, b.x)
    if ix <= 0:
        return 0.0
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    # rounding in right/bottom can push the ratio a hair past 1
    return min(inter / (a.area + b.area - inter), 1.0)


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
