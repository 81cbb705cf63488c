"""Overlap geometry: the same-frame overlap join over box columns.

``same_frame_pairs`` computes the box IoU of every pair of boxes of
distinct owners that share a frame and intersect, and feeds merge grouping,
NMS, CLEAR and IDF1. It is the package's one definition of box overlap. It
joins one set of box columns with itself; two sets, such as ground truth
and predictions, are joined as one set with the second set's owners after
the first's, keeping the pairs of a first owner and a second.

The join never lists candidate pairs. It sorts the rows by (frame, owner)
once and joins contiguous blocks of whole frames of that order: each row is
compared with the row ``d`` after it, for every ``d`` below the block's
largest frame, and only the pairs found get their IoU computed. Every pair
found intersects, as box values are within ``MAX_COORD``, where no edge
rounds onto its opposite.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from .model import Trajectory

# Box columns: frames int64[n], owner index int64[n], boxes float64[n, 4]
# as (x, y, w, h). An owner is the index of the box's trajectory in a list.
BoxColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]
# The join's output: (frame, owner_a, owner_b, iou) arrays.
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# The most box rows a block holds, one-box frames included, unless one frame
# alone holds more. It bounds the join's memory and does not change results.
BLOCK_ROWS = 1 << 12


def box_columns(tracks: Sequence[Trajectory]) -> BoxColumns:
    """Every box of ``tracks`` as columns, owned by its track's index in ``tracks``."""
    if not tracks:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4))
    lengths = [len(t.frame) for t in tracks]
    frames = np.concatenate([t.frame for t in tracks])
    owners = np.repeat(np.arange(len(tracks)), lengths)
    return frames, owners, np.concatenate([t.xywh for t in tracks])


def same_frame_pairs(cols: BoxColumns) -> Iterator[Pairs]:
    """Join a set of box columns with itself on frame, yielding the overlapping pairs.

    Yields ``(frame, owner_a, owner_b, iou)`` arrays, one entry for every
    same-frame pair of boxes of distinct owners that intersect, with their
    IoU and the lower owner first. Pairs that do not intersect have IoU 0
    and are left out. Pairs come in (frame, owner_a, owner_b) order, one
    block at a time: a run of whole frames of the (frame, owner) order, of
    at most ``BLOCK_ROWS`` rows unless one frame alone holds more. Blocks
    with no frame of two or more boxes are skipped.
    """
    order = np.lexsort((cols[1], cols[0]))
    if len(order) < 2**31:  # kept while the join runs, so in 32 bits where they fit
        order = order.astype(np.int32)
    ordered = cols[0][order]
    bounds = np.append(np.flatnonzero(np.concatenate(([len(order) > 0], ordered[1:] != ordered[:-1]))), len(order))
    del ordered  # only the row order and the frame bounds outlive the blocks
    sizes = np.diff(bounds)  # rows in each frame
    lo = 0
    while lo < len(sizes):
        hi = max(int(np.searchsorted(bounds, bounds[lo] + BLOCK_ROWS, side="right")) - 1, lo + 1)
        if sizes[lo:hi].max() > 1:
            yield _block_pairs(cols, order[bounds[lo] : bounds[hi]], sizes[lo:hi])
        lo = hi


def _block_pairs(cols: BoxColumns, rows: np.ndarray, sizes: np.ndarray) -> Pairs:
    """The intersecting pairs of one block, in (frame, owner_a, owner_b) order.

    ``rows`` are the block's rows of ``cols``, a run of whole frames of the
    (frame, owner) order, and ``sizes`` their number in each frame. Every
    IoU is bit-identical to the scalar ``box_iou`` in ``tests/oracles.py``,
    with the lower owner's box, always the earlier row, as its first operand.
    """
    n, largest = len(rows), int(sizes.max())
    # Row p pairs with row q = p + d when low[:, q] < high[:, p] in every
    # row and low[:2, p] < high[:2, q]: both x intervals and both y
    # intervals overlap, and q lies in p's frame.
    low = np.empty((3, n))  # x, y, row
    high = np.empty_like(low)  # right, bottom, frame end
    size = np.empty((2, n))  # w, h
    for row, col in ((low[0], 0), (low[1], 1), (size[0], 2), (size[1], 3)):
        row[:] = cols[2][:, col][rows]
    x, y, right, bottom, (w, h) = low[0], low[1], high[0], high[1], size
    np.add(low[:2], size, out=high[:2])  # right and bottom, rounded once
    low[2] = np.arange(n)
    high[2] = np.repeat(np.cumsum(sizes), sizes)

    checks = np.empty((len(low) + 2, n), bool)
    paired = np.empty(n, bool)
    found = []
    for d in range(1, largest):
        check = checks[:, : n - d]
        np.less(low[:, d:], high[:, : n - d], out=check[:-2])
        np.less(low[:2, : n - d], high[:2, d:], out=check[-2:])
        found.append(np.logical_and.reduce(check, out=paired[: n - d]).nonzero()[0])
    del checks, paired

    # One integer sort puts the pairs in (frame, owner_a, owner_b) order:
    # p, then the offset, which rises with owner_b.
    key = np.concatenate(found) * largest
    key += np.repeat(np.arange(1, largest), [len(f) for f in found])
    del found
    key.sort()
    p, q = np.divmod(key, largest)
    del key
    q += p

    # the IoU with the scalar box_iou's float operations, in its order
    ix = np.minimum(right[p], right[q])
    ix -= np.maximum(x[p], x[q])
    inter = np.minimum(bottom[p], bottom[q])
    inter -= np.maximum(y[p], y[q])
    inter *= ix
    del ix
    union = w[p] * h[p]
    union += w[q] * h[q]
    union -= inter
    iou = np.minimum(inter / union, 1.0)
    iou[(x[p] == x[q]) & (y[p] == y[q]) & (w[p] == w[q]) & (h[p] == h[q])] = 1.0  # equal boxes
    p, q = rows[p], rows[q]
    return cols[0][p], cols[1][p], cols[1][q], iou
