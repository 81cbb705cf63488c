"""Overlap geometry: the same-frame overlap join over box rows.

``same_frame_pairs`` yields every pair of box rows that share a frame and
whose IoU exceeds its caller's threshold, for merge grouping, NMS, CLEAR
and IDF1. It is the package's one definition of box overlap. It names the
pairs by row, and each caller reads what it needs from its own columns.
Two sets, such as ground truth and predictions, are joined as one set, the
second set's rows after the first's, keeping the pairs of a first and a second.

The join never lists candidate pairs. It sorts the rows by frame once,
stably, and joins contiguous blocks of whole frames of that order: each
row is compared with the row ``d`` after it, for every ``d`` below the
block's largest frame; only the pairs found get their IoU, and only those
above the threshold leave the block. Every pair found intersects, as box
values are within ``MAX_COORD``, where no edge rounds onto its opposite."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

# The join's output: (row_a, row_b, iou) arrays, rows of the caller's columns.
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray]

# The most box rows a block holds, one-box frames included, unless one frame
# alone holds more. It bounds the join's memory and does not change results.
BLOCK_ROWS = 1 << 13


def same_frame_pairs(frames: np.ndarray, boxes: np.ndarray, above: float) -> Iterator[Pairs]:
    """Join box rows with themselves on frame, yielding the pairs with IoU above ``above``.

    Yields ``(row_a, row_b, iou)`` arrays of rows of ``frames``, an
    ``int64[n]``, and ``boxes``, a ``float64[n, 4]`` of ``(x, y, w, h)``,
    one entry for every pair of rows
    ``row_a < row_b`` of one frame whose IoU strictly exceeds ``above``.
    Pairs that do not intersect have IoU 0 and are always left out; at
    ``above=0`` every intersecting pair comes out. Pairs come in (frame,
    row_a, row_b) order, one block at a time: a run of whole frames of the
    stable frame order, of at most ``BLOCK_ROWS`` rows unless one frame
    alone holds more. Blocks with no frame of two or more boxes are skipped.
    """
    order = np.argsort(frames, kind="stable")
    if len(order) < 2**31:  # kept while the join runs, so in 32 bits where they fit
        order = order.astype(np.int32)
    ordered = frames[order]
    bounds = np.append(np.flatnonzero(np.concatenate(([len(order) > 0], ordered[1:] != ordered[:-1]))), len(order))
    del ordered  # only the row order and the frame bounds outlive the blocks
    sizes = np.diff(bounds)  # rows in each frame
    lo = 0
    while lo < len(sizes):
        hi = max(int(np.searchsorted(bounds, bounds[lo] + BLOCK_ROWS, side="right")) - 1, lo + 1)
        if sizes[lo:hi].max() > 1:
            yield _block_pairs(boxes, order[bounds[lo] : bounds[hi]], sizes[lo:hi], above)
        lo = hi


def _block_pairs(boxes: np.ndarray, rows: np.ndarray, sizes: np.ndarray, above: float) -> Pairs:
    """The pairs of one block with IoU above ``above``, in (frame, row_a, row_b) order.

    ``rows`` are the block's rows of ``boxes``, a run of whole frames of
    the stable frame order, and ``sizes`` their number in each frame. Every
    IoU is bit-identical to the scalar ``box_iou`` in ``tests/oracles.py``,
    with the earlier row's box as its first operand.
    """
    n, largest = len(rows), int(sizes.max())
    # Row p pairs with row q = p + d when low[:, q] < high[:, p] in every
    # row and low[:2, p] < high[:2, q]: both x intervals and both y
    # intervals overlap, and q lies in p's frame.
    low = np.empty((3, n))  # x, y, row
    high = np.empty_like(low)  # right, bottom, frame end
    size = np.empty((2, n))  # w, h
    for row, col in ((low[0], 0), (low[1], 1), (size[0], 2), (size[1], 3)):
        row[:] = boxes[:, col][rows]
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

    # One integer sort puts the pairs in (frame, row_a, row_b) order:
    # p, then the offset, which rises with row_b.
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
    keep = iou > above
    return rows[p[keep]], rows[q[keep]], iou[keep]
