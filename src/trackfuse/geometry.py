"""Overlap geometry: the same-frame overlap join over box columns.

``same_frame_pairs`` computes the box IoU of every pair of boxes of
distinct owners that share a frame and intersect, and feeds merge grouping,
NMS, CLEAR and IDF1. It is the package's one definition of box overlap. It
joins one set of box columns with itself; two sets, such as ground truth
and predictions, are joined as one set with the second set's owners after
the first's, keeping the pairs of a first owner and a second.

The join never lists candidate pairs. It lays out a block of whole frames
with the largest frame first, each frame's rows in owner order. For an
offset ``d``, the rows of the frames holding more than ``d`` boxes then
form a prefix of the block, and every row is compared with the row ``d``
after it by a few comparisons of two contiguous slices of that prefix. Only
the pairs found get their IoU computed. Every pair found intersects, as
box values are within ``MAX_COORD``, where no edge rounds onto its opposite.
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

# The most box rows the join lays out at once, unless one frame alone holds
# more. It bounds the join's memory and does not change results.
BLOCK_ROWS = 1 << 12


def box_columns(tracks: Sequence[Trajectory]) -> BoxColumns:
    """Every box of ``tracks`` as columns, owned by its track's index in ``tracks``."""
    if not tracks:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 4))
    lengths = [len(t.frame) for t in tracks]
    frames = np.concatenate([t.frame for t in tracks])
    owners = np.repeat(np.arange(len(tracks)), lengths)
    return frames, owners, np.concatenate([t.xywh for t in tracks])


def _frame_runs(cols: BoxColumns) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows in (frame, owner) order, and each frame's first position and row count in it."""
    frames, owners, _ = cols
    order = np.lexsort((owners, frames))
    if len(order) < 2**31:  # kept while the join runs, so in 32 bits where they fit
        order = order.astype(np.int32)
    ordered = frames[order]
    first = np.flatnonzero(np.concatenate(([len(order) > 0], ordered[1:] != ordered[:-1])))
    return order, first, np.diff(np.append(first, len(order)))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[start, start + count)``, concatenated."""
    before = np.cumsum(counts) - counts
    return np.repeat(starts - before, counts) + np.arange(counts.sum())


def same_frame_pairs(cols: BoxColumns) -> Iterator[Pairs]:
    """Join a set of box columns with itself on frame, yielding the overlapping pairs.

    Yields ``(frame, owner_a, owner_b, iou)`` arrays, one entry for every
    same-frame pair of boxes of distinct owners that intersect, with their
    IoU and the lower owner first. Pairs that do not intersect have IoU 0
    and are left out. Pairs come in (frame, owner_a, owner_b) order.
    Frames that cannot hold a pair are skipped; the others are joined one
    block of whole frames at a time, and a block holds at most
    ``BLOCK_ROWS`` box rows, unless one frame alone holds more.
    """
    order, start, count = _frame_runs(cols)
    pairing = count > 1
    start, sizes = start[pairing], count[pairing]
    ends = np.cumsum(sizes)  # rows up to each frame's end
    lo = 0
    while lo < len(ends):
        hi = max(int(np.searchsorted(ends, ends[lo] - sizes[lo] + BLOCK_ROWS, side="right")), lo + 1)
        yield _block_pairs(cols, order[_ranges(start[lo:hi], sizes[lo:hi])], sizes[lo:hi])
        lo = hi


def _block_pairs(cols: BoxColumns, rows: np.ndarray, sizes: np.ndarray) -> Pairs:
    """The intersecting pairs of one block of frames, in (frame, owner_a, owner_b) order.

    ``rows`` are the block's rows of ``cols`` in (frame, owner) order, and
    ``sizes`` their number in each frame. Every IoU is bit-identical to
    the scalar ``box_iou`` in ``tests/oracles.py``, with the lower owner's
    box as its first operand.
    """
    laid = np.argsort(-sizes, kind="stable")  # frames, largest first
    laid_sizes = sizes[laid]
    ends = np.cumsum(laid_sizes)  # end row of each laid-out frame
    offset = np.empty_like(sizes)  # first row of each frame in the layout
    offset[laid] = ends - laid_sizes
    n, largest = int(ends[-1]), int(laid_sizes[0])
    at = _ranges(offset, sizes)  # layout row of each row, in output order

    # Row p pairs with row q = p + d when low[:, q] < high[:, p] in every
    # row and low[:2, p] < high[:2, q]: both x intervals and both y
    # intervals overlap, and q lies in p's frame.
    low = np.empty((3, n))  # x, y, layout row
    high = np.empty_like(low)  # right, bottom, frame end
    size = np.empty((2, n))  # w, h
    source = np.empty(n, np.int64)  # layout row -> row of the columns
    source[at] = rows
    for row, col in ((low[0], 0), (low[1], 1), (size[0], 2), (size[1], 3)):
        row[at] = cols[2][:, col][rows]
    x, y, right, bottom, (w, h) = low[0], low[1], high[0], high[1], size
    np.add(low[:2], size, out=high[:2])  # right and bottom, rounded once
    low[2] = np.arange(n)
    high[2] = np.repeat(ends, laid_sizes)

    # for each offset d, the rows of the frames holding more than d boxes
    prefix = ends[np.searchsorted(-laid_sizes, -np.arange(1, largest), side="left") - 1]
    checks = np.empty((len(low) + 2, n), bool)
    paired = np.empty(n, bool)
    found = []
    for d, m in enumerate(prefix.tolist(), 1):
        check = checks[:, : m - d]
        np.less(low[:, d:m], high[:, : m - d], out=check[:-2])
        np.less(low[:2, : m - d], high[:2, d:m], out=check[-2:])
        found.append(np.logical_and.reduce(check, out=paired[: m - d]).nonzero()[0])
    del checks, paired

    # One integer sort puts the pairs in (frame, owner_a, owner_b) order:
    # p's rank in that order, then the offset, which rises with owner_b.
    rank = np.empty(n, np.int64)
    rank[at] = np.arange(n)
    key = rank[np.concatenate(found)] * largest
    key += np.repeat(np.arange(1, largest), [len(f) for f in found])
    del found, rank
    key.sort()
    p, q = np.divmod(key, largest)
    del key
    p = at[p]
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
    p, q = source[p], source[q]  # layout rows -> rows of the columns
    return cols[0][p], cols[1][p], cols[1][q], iou
