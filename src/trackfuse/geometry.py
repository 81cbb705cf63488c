"""Overlap geometry: the same-frame overlap join over box columns.

``same_frame_pairs`` computes the box IoU of every pair of boxes that share
a frame and intersect, and feeds merge grouping, NMS, CLEAR and IDF1. It is
the package's one definition of box overlap.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .model import Trajectory

# Box columns: frames int64[n], owner index int64[n], boxes float64[n, 4]
# as (x, y, w, h). An owner is the index of the box's trajectory in a list.
BoxColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]

# The most candidate box pairs the join builds at once, unless one frame
# alone holds more. It bounds the join's memory and does not change results.
PAIR_BLOCK = 1 << 14


def box_columns(tracks: Sequence[Trajectory]) -> BoxColumns:
    """Every box of ``tracks`` as columns, owned by its track's index in ``tracks``."""
    if not tracks:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4))
    lengths = [len(t.frame) for t in tracks]
    frames = np.concatenate([t.frame for t in tracks])
    owners = np.repeat(np.arange(len(tracks)), lengths)
    return frames, owners, np.concatenate([t.xywh for t in tracks])


def _sorted(cols: BoxColumns) -> BoxColumns:
    """Frames, owners and float64[6, n] (x, y, right, bottom, w, h) rows, sorted by (frame, owner).

    Right is ``x + w`` and bottom is ``y + h``, each rounded once.
    """
    frames, owners, boxes = cols
    order = np.lexsort((owners, frames))
    edges = np.empty((6, len(order)))
    for row, col in ((0, 0), (1, 1), (4, 2), (5, 3)):
        np.take(boxes[:, col], order, out=edges[row])
    np.add(edges[0], edges[4], out=edges[2])
    np.add(edges[1], edges[5], out=edges[3])
    return frames[order], owners[order], edges


def _intersecting(
    ea: np.ndarray, eb: np.ndarray, ia: np.ndarray, ib: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions in (ia, ib) of the box pairs that intersect, and their IoU.

    Pairs left out, such as boxes that only share an edge, have IoU 0. Every
    IoU is bit-identical to the scalar ``box_iou`` in ``tests/oracles.py``.
    """
    ix = np.minimum(ea[2, ia], eb[2, ib])
    ix -= np.maximum(ea[0, ia], eb[0, ib])
    keep = np.flatnonzero(ix > 0)
    ia, ib, ix = ia[keep], ib[keep], ix[keep]
    iy = np.minimum(ea[3, ia], eb[3, ib])
    iy -= np.maximum(ea[1, ia], eb[1, ib])
    hit = iy > 0
    keep, ia, ib = keep[hit], ia[hit], ib[hit]
    inter = ix[hit] * iy[hit]
    a, b = ea[:, ia], eb[:, ib]
    iou = np.minimum(inter / (a[4] * a[5] + b[4] * b[5] - inter), 1.0)
    iou[(a[[0, 1, 4, 5]] == b[[0, 1, 4, 5]]).all(axis=0)] = 1.0  # equal (x, y, w, h)
    return keep, iou


def same_frame_pairs(
    a: BoxColumns, b: Optional[BoxColumns] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Join two sets of box columns on frame, yielding the overlapping pairs.

    Yields ``(frame, owner_a, owner_b, iou)`` arrays, one entry for every
    same-frame pair of a box of ``a`` and a box of ``b`` that intersect,
    with their IoU. Pairs that do not intersect have IoU 0 and are left
    out. Without ``b`` the join pairs ``a`` with itself and yields each
    pair of distinct owners once, lower owner first. Pairs come in (frame,
    owner_a, owner_b) order. They are built one block of whole frames at a
    time, and a block holds at most ``PAIR_BLOCK`` candidate pairs unless
    one frame alone holds more.
    """
    self_join = b is None
    fa, oa, ea = a = _sorted(a)
    fb, ob, eb = b = a if self_join else _sorted(b)
    bounds = np.append(np.flatnonzero(np.diff(fa, prepend=fa[:1] - 1)), len(fa))  # frame start rows, then n
    sizes = np.diff(bounds)
    if self_join:
        # a row pairs with the later rows of its frame
        per_frame = sizes * (sizes - 1) // 2
    else:
        frames = fa[bounds[:-1]]
        b_starts = np.searchsorted(fb, frames, side="left")
        b_sizes = np.searchsorted(fb, frames, side="right") - b_starts
        per_frame = sizes * b_sizes
    for lo, hi, total in _frame_blocks(per_frame):
        if total == 0:
            continue
        rows = np.arange(bounds[lo], bounds[hi])
        if self_join:
            first = rows + 1
            count = np.repeat(bounds[lo + 1 : hi + 1], sizes[lo:hi]) - first
        else:
            first = np.repeat(b_starts[lo:hi], sizes[lo:hi])
            count = np.repeat(b_sizes[lo:hi], sizes[lo:hi])
        ia = np.repeat(rows, count)
        ib = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(total)
        keep, iou = _intersecting(ea, eb, ia, ib)
        ia, ib = ia[keep], ib[keep]
        yield fa[ia], oa[ia], ob[ib], iou


def _frame_blocks(per_frame: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """Split frames into runs ``[lo, hi)`` of at most ``PAIR_BLOCK`` pairs, unless one frame alone holds more.

    Yields ``(lo, hi, pairs in the run)``.
    """
    before = np.append(0, np.cumsum(per_frame))  # pairs in earlier frames
    lo = 0
    while lo < len(per_frame):
        hi = max(int(np.searchsorted(before, before[lo] + PAIR_BLOCK, side="right")) - 1, lo + 1)
        yield lo, hi, int(before[hi] - before[lo])
        lo = hi
