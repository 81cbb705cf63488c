"""The same-frame overlap join and the stages built on it.

Merge grouping, length NMS and IDF1 must give exactly what the scalar
``box_iou`` loops in ``oracles`` give, on seeded sweeps and edge inputs.
"""

import collections
import gc
import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trackfuse import BoundingBox, EnsembleConfig, MergeMode, TrackSet, Trajectory, ensemble_pipeline
from trackfuse import geometry, metrics
from trackfuse.ensemble import length_nms, merge_group, merge_groups, mix
from trackfuse.geometry import same_frame_pairs
from trackfuse.metrics import ClearScores, EvalReport, IdentityScores, clear_mot, evaluate, idf1
from trackfuse.model import MAX_COORD
from trackfuse.synth import DEFAULT_DEGRADATION, ScenarioSpec, TrackerDegradation, generate_scenario

from oracles import (
    box_columns,
    box_iou,
    clear_mot_scalar,
    const_track,
    ensemble_pipeline_scalar,
    idf1_scalar,
    length_nms_scalar,
    make_track,
    merge_groups_scalar,
    random_trackset,
    transformed,
)

THRESHOLDS = [0.0, 0.3, 0.5, 0.7, 1.0]
MATCH_THRESHOLDS = [1e-9, 0.3, 0.5, 0.7, 1.0]  # IDF1 needs a threshold above 0
MAX_GAPS = [None, 1, 5]  # no gap filling, then the smallest and a wider gap


# --- vectorised IoU -------------------------------------------------------

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
size = st.floats(0.01, 1e3, allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, coord, coord, size, size)


def _shift_one_ulp(box: BoundingBox, field: int, up: bool) -> BoundingBox:
    values = [box.x, box.y, box.w, box.h]
    values[field] = math.nextafter(values[field], math.inf if up else -math.inf)
    return BoundingBox(*values)


@st.composite
def box_pairs(draw):
    a = draw(boxes)
    kind = draw(st.sampled_from(["random", "identical", "shared_x", "shared_y", "nested", "ulp"]))
    if kind == "random":
        b = draw(boxes)
    elif kind == "identical":
        b = BoundingBox(a.x, a.y, a.w, a.h)
    elif kind == "shared_x":  # b starts where a ends
        b = BoundingBox(a.x + a.w, draw(coord), draw(size), draw(size))
    elif kind == "shared_y":
        b = BoundingBox(draw(coord), a.y + a.h, draw(size), draw(size))
    elif kind == "nested":
        fx, fy, fw, fh = (draw(unit) for _ in range(4))
        b = BoundingBox(a.x + fx * a.w / 2, a.y + fy * a.h / 2, max(a.w * fw / 2, 0.01), max(a.h * fh / 2, 0.01))
    else:
        b = _shift_one_ulp(a, draw(st.integers(0, 3)), draw(st.booleans()))
    return (a, b) if draw(st.booleans()) else (b, a)


def join_iou(pairs):
    """The join's IoU of each pair, the two boxes put alone in a frame of their own.

    The first box of a pair is the earlier row, so the join takes it as
    ``box_iou``'s first operand.
    """
    frames = np.repeat(np.arange(1, len(pairs) + 1), 2)
    boxes = np.array([(x.x, x.y, x.w, x.h) for pair in pairs for x in pair])
    got = [0.0] * len(pairs)  # pairs the join leaves out do not intersect
    for a, _, iou in same_frame_pairs(frames, boxes, 0.0):
        for f, v in zip(frames[a].tolist(), iou.tolist()):
            got[f - 1] = v
    return got


@settings(max_examples=300, deadline=None)
@given(st.lists(box_pairs(), min_size=1, max_size=20))
def test_join_iou_equals_box_iou_exactly(pairs):
    assert join_iou(pairs) == [box_iou(p, q) for p, q in pairs]


def test_join_iou_edge_cases():
    a = BoundingBox(10.0, 10.0, 5.0, 5.0)
    cases = [
        (a, BoundingBox(10.0, 10.0, 5.0, 5.0)),  # identical: exactly 1
        (a, BoundingBox(15.0, 10.0, 5.0, 5.0)),  # shared vertical edge: 0
        (a, BoundingBox(10.0, 15.0, 5.0, 5.0)),  # shared horizontal edge: 0
        (a, BoundingBox(11.0, 11.0, 2.0, 2.0)),  # nested
        (a, _shift_one_ulp(a, 0, True)),
        (a, _shift_one_ulp(a, 3, False)),
        (BoundingBox(0.1, 0.2, 0.3, 0.7), BoundingBox(0.1, 0.2, 0.3, 0.7000000000000001)),
    ]
    got = join_iou(cases)
    assert got == [box_iou(p, q) for p, q in cases]
    assert got[:3] == [1.0, 0.0, 0.0]


# --- the join --------------------------------------------------------------


def _brute_pairs(a, b=None):
    """Every intersecting same-frame pair with its box_iou, in join order."""
    fa, oa, ba = a
    fb, ob, bb = a if b is None else b
    out = []
    for i, j in itertools.product(range(len(fa)), range(len(fb))):
        if fa[i] != fb[j] or (b is None and oa[i] >= ob[j]):
            continue
        iou = box_iou(BoundingBox(*ba[i]), BoundingBox(*bb[j]))
        if iou > 0:
            out.append((int(fa[i]), int(oa[i]), int(ob[j]), iou))
    return sorted(out)


def _pairs(cols, above):
    """The join's blocks of the rows of ``cols`` put in owner order (stably), as (frame, owner_a, owner_b, iou).

    The owners at one frame are distinct, so the join's (frame, row_a,
    row_b) order over those rows is (frame, owner_a, owner_b) order.
    """
    by_owner = np.argsort(cols[1], kind="stable")
    frames, owners, boxes = (col[by_owner] for col in cols)
    for a, b, iou in same_frame_pairs(frames, boxes, above):
        yield frames[a], owners[a], owners[b], iou


def _rows(blocks):
    return [row for block in blocks for row in zip(*(col.tolist() for col in block))]


def _joined(cols):
    return _rows(_pairs(cols, 0.0))


def _both(a, b):
    """The columns of ``a`` and ``b`` as one set, b's owners shifted past a's, and the shift."""
    shift = int(a[1].max()) + 1 if len(a[1]) else 0
    return tuple(np.concatenate(pair) for pair in zip(a, (b[0], b[1] + shift, b[2]))), shift


def _cross_blocks(a, b):
    """The blocks of the self-join of ``_both(a, b)``, kept to its a -> b pairs, b's owners shifted back."""
    both, shift = _both(a, b)
    for frame, owner_a, owner_b, iou in _pairs(both, 0.0):
        cross = (owner_a < shift) & (owner_b >= shift)
        yield frame[cross], owner_a[cross], owner_b[cross] - shift, iou[cross]


def _cross_joined(a, b):
    return _rows(_cross_blocks(a, b))


@pytest.mark.parametrize("seed", range(6))
def test_join_yields_exactly_the_intersecting_pairs(seed):
    rng = random.Random(seed)
    a = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
    b = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
    assert _joined(a) == _brute_pairs(a)
    assert _cross_joined(a, b) == _brute_pairs(a, b)


@pytest.mark.parametrize("bound", [3, None])
@pytest.mark.parametrize("above", THRESHOLDS)
def test_join_yields_exactly_the_pairs_above_its_threshold(monkeypatch, above, bound):
    if bound is not None:
        monkeypatch.setattr(geometry, "BLOCK_ROWS", bound)
    rng = random.Random(11)
    for _ in range(3):
        a = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
        b = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
        # b's boxes and exact copies of them as one set: pairs at IoU 1 too
        for cols in (a, _both(a, b)[0], _both(b, b)[0]):
            assert _rows(_pairs(cols, above)) == [row for row in _brute_pairs(cols) if row[3] > above]


def test_iou_exactly_at_a_threshold_is_a_hit_but_no_match():
    # IoU 50 / (100 + 50 - 50) = 0.5 exactly, in each of 10 frames
    big, half = const_track(1, 1, 10), const_track(2, 1, 10, box=(0.0, 0.0, 10.0, 5.0))
    cols = box_columns([big, half])
    assert _rows(_pairs(cols, 0.0))[0] == (1, 0, 1, 0.5)
    assert _rows(_pairs(cols, 0.5)) == []
    below = float(np.nextafter(0.5, 0.0))
    assert len(_rows(_pairs(cols, below))) == 10
    # a hit at iou_match 0.5: scoring takes IoU >= iou_match
    report = evaluate(TrackSet("s", [big]), TrackSet("s", [half]), 0.5)
    assert report == EvalReport(ClearScores(10, 0, 0, 0, 1.0), IdentityScores(10, 0, 0, 1.0))
    # no merge match or suppression at thr_s or thr_nms 0.5: fusion takes IoU > thr
    assert _ids(merge_groups([big, half], 0.5, 0.5)) == [[1], [2]]
    assert _ids(merge_groups([big, half], below, 0.5)) == [[1, 2]]
    assert length_nms([big, half], 0.5) == [big, half]
    assert length_nms([big, half], below) == [big]


def _columns(rows):
    arr = np.array(rows, dtype=float).reshape(-1, 6)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2:].copy()


def _stacked_columns(rng, frame_sizes):
    """Nearly identical boxes, so every same-frame pair intersects; rows shuffled."""
    rows = [
        (f, k, 10.0 + rng.random(), 10.0 + rng.random(), 5.0, 5.0)
        for f, n in frame_sizes.items()
        for k in range(n)
    ]
    rng.shuffle(rows)
    return _columns(rows)


def _random_columns(rng, frame_sizes, arena=40.0):
    """Boxes 2-12 px a side scattered over an ``arena``-wide square; rows shuffled.

    A frame's owners are distinct, drawn from twice the frame's size, so
    they are neither contiguous nor from 0.
    """
    rows = []
    for f, n in frame_sizes.items():
        for k in rng.sample(range(2 * n), n):
            rows.append((f, k, rng.uniform(0, arena), rng.uniform(0, arena), rng.uniform(2, 12), rng.uniform(2, 12)))
    rng.shuffle(rows)
    return _columns(rows)


def _check_blocks(cols, bound):
    """Pairs per frame, checking the rows of every block the join passes to ``_block_pairs``.

    Blocks hold whole frames, one-box frames included, ascending across
    blocks, and at most ``bound`` rows unless one frame alone holds more.
    Every frame of two or more boxes is in a block, and every block holds
    one.
    """
    blocks = []
    block_pairs = geometry._block_pairs

    def recorded(boxes, rows, sizes, above):
        blocks.append(cols[0][rows].tolist())
        return block_pairs(boxes, rows, sizes, above)

    pairs_per_frame = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_block_pairs", recorded)
        for a, _, _ in same_frame_pairs(cols[0], cols[2], 0.0):
            for f in cols[0][a].tolist():
                pairs_per_frame[f] = pairs_per_frame.get(f, 0) + 1
    rows = collections.Counter(cols[0].tolist())
    blocked = [f for frames in blocks for f in frames]
    assert blocked == sorted(blocked), "frames out of order"
    for frames in blocks:
        held = collections.Counter(frames)
        assert held == {f: rows[f] for f in held}, "a frame split across blocks"
        assert len(frames) <= bound or len(held) == 1
        assert max(held.values()) > 1, "a block that cannot hold a pair"
    assert {f for f, n in rows.items() if n > 1} <= set(blocked)
    return pairs_per_frame


@pytest.mark.parametrize("bound", [1, 5, 37])
def test_join_blocks_hold_at_most_the_bound(monkeypatch, bound):
    monkeypatch.setattr(geometry, "BLOCK_ROWS", bound)
    rng = random.Random(bound)
    sizes_a = {f: rng.randint(1, 9) for f in rng.sample(range(1, 60), 30)}
    sizes_b = {f: rng.randint(1, 9) for f in rng.sample(range(1, 60), 30)}
    a, b = _stacked_columns(rng, sizes_a), _stacked_columns(rng, sizes_b)
    self_pairs = _check_blocks(a, bound)
    assert self_pairs == {f: n * (n - 1) // 2 for f, n in sizes_a.items() if n > 1}
    # a and b as one set: a block counts the rows of both
    sizes = collections.Counter(sizes_a) + collections.Counter(sizes_b)
    both_pairs = _check_blocks(_both(a, b)[0], bound)
    assert both_pairs == {f: n * (n - 1) // 2 for f, n in sizes.items() if n > 1}
    cross_pairs = collections.Counter(f for f, _, _, _ in _cross_joined(a, b))
    assert cross_pairs == {f: n * sizes_b[f] for f, n in sizes_a.items() if f in sizes_b}


def test_join_block_bound_at_its_real_value():
    rng = random.Random(0)
    crowded = geometry.BLOCK_ROWS + 2  # one frame alone exceeds the bound
    sizes = {1: 3, 3: 4, 4: 90, 5: 90, 6: 2}
    # frame 2 is a chain of boxes, each overlapping only its neighbours, so
    # that its pairs grow with its rows, not with their square
    chain = [(2, k, 8.0 * k, 0.0, 10.0, 10.0) for k in range(crowded)]
    stacked = _stacked_columns(rng, sizes)
    rows = chain + np.column_stack([stacked[0], stacked[1], stacked[2]]).tolist()
    rng.shuffle(rows)
    a = _columns(rows)
    counts = _check_blocks(a, geometry.BLOCK_ROWS)
    assert counts == {2: crowded - 1, **{f: n * (n - 1) // 2 for f, n in sizes.items()}}
    linked = [(f, i, j, iou) for f, i, j, iou in _joined(a) if f == 2]
    boxes = [BoundingBox(8.0 * k, 0.0, 10.0, 10.0) for k in range(crowded)]
    assert linked == [(2, k, k + 1, box_iou(boxes[k], boxes[k + 1])) for k in range(crowded - 1)]


def _skewed_frames(rng):
    # one frame of 240 boxes among frames of 1-3 boxes
    return {f: rng.randint(1, 3) for f in range(1, 30)} | {17: 240}


def _layout_cases():
    """(name, a, b) inputs whose frames stress the join's layout."""
    rng = random.Random(5)
    yield "skewed", _random_columns(rng, _skewed_frames(rng)), _random_columns(rng, _skewed_frames(rng))
    one_box = {f: 1 for f in range(1, 40)}
    yield "one box a frame", _random_columns(rng, one_box, 10.0), _random_columns(rng, one_box, 10.0)
    # frames 1-12 hold only boxes of a, 30-40 only boxes of b, 13-29 both
    only_a = {f: rng.randint(1, 6) for f in range(1, 30)}
    only_b = {f: rng.randint(1, 6) for f in range(13, 41)}
    yield "one side only", _random_columns(rng, only_a, 20.0), _random_columns(rng, only_b, 20.0)
    # the same frames and owners on both sides; b repeats a third of a's boxes exactly
    a = _random_columns(rng, {f: 6 for f in range(1, 15)}, 25.0)
    b = _random_columns(rng, {f: 6 for f in range(1, 15)}, 25.0)
    b = (a[0], a[1], np.where(np.arange(len(a[0]))[:, None] % 3 == 0, a[2], b[2]))
    yield "same owners on both sides", a, b
    # one-box frames between frames of 5 or more boxes, all in one block
    sizes = {1: 6, 2: 1, 3: 1, 4: 5, 5: 1, 6: 7, 7: 1, 8: 1, 9: 1, 10: 5, 11: 1}
    yield "one-box frames between large ones", _random_columns(rng, sizes, 15.0), _random_columns(rng, sizes, 15.0)


@pytest.mark.parametrize("bound", [1, 3, None])
@pytest.mark.parametrize("case", list(_layout_cases()), ids=lambda case: case[0])
def test_join_layouts_equal_brute_force(monkeypatch, case, bound):
    if bound is not None:
        monkeypatch.setattr(geometry, "BLOCK_ROWS", bound)
    _, a, b = case
    assert _joined(a) == _brute_pairs(a)
    assert _joined(b) == _brute_pairs(b)
    assert _cross_joined(a, b) == _brute_pairs(a, b)
    assert _cross_joined(b, a) == _brute_pairs(b, a)


frame_sizes = st.dictionaries(
    st.integers(1, 40), st.one_of(st.integers(1, 6), st.integers(7, 40)), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(frame_sizes, frame_sizes, st.sampled_from([1, 2, 3, 7, None]), st.integers(0, 2**32 - 1))
def test_join_equals_brute_force_on_drawn_frame_sizes(sizes_a, sizes_b, bound, seed):
    rng = random.Random(seed)
    a, b = _random_columns(rng, sizes_a, 30.0), _random_columns(rng, sizes_b, 30.0)
    with pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            patch.setattr(geometry, "BLOCK_ROWS", bound)
        assert _joined(a) == _brute_pairs(a)
        assert _cross_joined(a, b) == _brute_pairs(a, b)


def _digest(blocks):
    """SHA-256 of the yielded columns, each concatenated over the blocks."""
    columns = list(zip(*blocks))
    digest = hashlib.sha256()
    for column, dtype in zip(columns, ("<i8", "<i8", "<i8", "<f8")):
        digest.update(np.concatenate(column).astype(dtype).tobytes())
    return digest.hexdigest()


def test_join_output_is_pinned_at_benchmark_scale():
    # the benchmark's bands input at seed 7; recorded with the join that
    # built every candidate pair before this one replaced it, and the
    # ground truth x tracker pairs with the join's a x b mode before
    # ground truth and predictions were joined as one set
    gt, trackers = generate_scenario(ScenarioSpec(20, 600, 800, 600, 7, (DEFAULT_DEGRADATION,) * 3))
    pool = box_columns(mix(trackers))
    assert _digest(_pairs(pool, 0.0)) == "bc9a3d739f65d1ed27c8121de434eb5c18890707bb1d3eb9a8cbedb66a08d990"
    cross = _cross_blocks(box_columns(gt.trajectories), box_columns(trackers[0].trajectories))
    assert _digest(cross) == "97f51d09aec8cf4c026ca7cd7dffb3729adb1ab6b9a3d7a56cdc822043c7954b"


def _crowded_columns(frames, seed):
    """60 boxes 30-60 px a side in each frame of a 400 x 300 arena."""
    rng = np.random.default_rng(seed)
    n = frames * 60
    boxes = np.column_stack([rng.uniform(0, 400, n), rng.uniform(0, 300, n), rng.uniform(30, 60, (n, 2))])
    return np.repeat(np.arange(1, frames + 1), 60), np.tile(np.arange(60), frames), boxes


def _join_peak(cols):
    """The most memory the join holds at once while it is drained."""
    gc.collect()
    tracemalloc.start()
    try:
        collections.deque(same_frame_pairs(cols[0], cols[2], 0.0), maxlen=0)  # keeps no block
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_join_memory_is_bounded_by_the_block():
    # Ten times the frames must not cost ten times the memory: what grows
    # with the input is the row order (4 bytes a row) and a few numbers a
    # frame; the rest is one block's layout and pairs. The smaller input
    # fills one block on each side.
    frames = math.ceil(geometry.BLOCK_ROWS / 60)
    few = _join_peak(_crowded_columns(frames, 1))
    many = _join_peak(_crowded_columns(10 * frames, 1))
    assert many <= 1.5 * few
    # two sides joined as one set, built before the memory is traced
    few = _join_peak(_both(_crowded_columns(frames, 1), _crowded_columns(frames, 2))[0])
    many = _join_peak(_both(_crowded_columns(10 * frames, 1), _crowded_columns(10 * frames, 2))[0])
    assert many <= 1.5 * few


def test_join_leaves_out_boxes_that_only_touch():
    touching = box_columns([const_track(1, 1, 2), const_track(2, 1, 2, box=(10.0, 0.0, 5.0, 5.0))])
    nested = box_columns([const_track(1, 1, 1), const_track(2, 1, 1, box=(2.0, 2.0, 5.0, 5.0))])
    assert _joined(touching) == []
    assert _cross_joined(touching, touching) == [(1, 0, 0, 1.0), (1, 1, 1, 1.0), (2, 0, 0, 1.0), (2, 1, 1, 1.0)]
    assert _joined(nested) == [(1, 0, 1, 0.25)]


def test_join_pairs_the_smallest_boxes_at_the_bound():
    # at 2**44 half a float64 step is below 0.005, so x + 0.005 lies past x
    # (and y + 0.005 past y): each box below intersects its copy and the
    # same box one step toward 0
    below = float(np.nextafter(MAX_COORD, 0))
    boxes = {
        1: [(MAX_COORD, 0.0, 0.005, 10.0), (below, 0.0, 0.005, 10.0)],
        2: [(-MAX_COORD, 0.0, 0.005, 10.0), (-below, 0.0, 0.005, 10.0)],
        3: [(0.0, MAX_COORD, 10.0, 0.005), (0.0, below, 10.0, 0.005)],
        4: [(0.0, -MAX_COORD, 10.0, 0.005), (0.0, -below, 10.0, 0.005)],
    }
    a = _columns([(f, k, *box) for f, (edge, step) in boxes.items() for k, box in enumerate([edge, edge, step])])
    joined = _joined(a)
    assert joined == _brute_pairs(a)
    assert [row for row in joined if row[1:3] == (0, 1)] == [(f, 0, 1, 1.0) for f in boxes]
    assert len(joined) == 3 * len(boxes) and all(iou > 0 for *_, iou in joined)


def _brute_row_pairs(frames, boxes):
    """Every intersecting pair of rows of one frame, ``row_a < row_b``, with its box_iou, in join order."""
    out = []
    for i, j in itertools.combinations(range(len(frames)), 2):
        if frames[i] == frames[j]:
            iou = box_iou(BoundingBox(*boxes[i]), BoundingBox(*boxes[j]))
            if iou > 0:
                out.append((int(frames[i]), i, j, iou))
    return sorted(out)


@pytest.mark.parametrize("bound", [1, 3, None])
def test_join_names_pairs_by_row_in_the_callers_order(monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(geometry, "BLOCK_ROWS", bound)
    rng = random.Random(17)
    frames, owners, boxes = _random_columns(rng, {f: rng.randint(1, 8) for f in range(1, 25)}, 20.0)
    assert (np.diff(owners) < 0).any()  # shuffled rows: owners are not in row order, and the join reads none
    joined = [(int(frames[a]), a, b, iou) for a, b, iou in _rows(same_frame_pairs(frames, boxes, 0.0))]
    assert joined and joined == _brute_row_pairs(frames, boxes)
    assert all(a < b for _, a, b, _ in joined)


def test_join_of_empty_columns():
    empty = box_columns([])
    one = box_columns([const_track(1, 1, 3)])
    assert _joined(empty) == []
    assert _cross_joined(empty, one) == []
    assert _cross_joined(one, empty) == []
    assert _joined(one) == []


# --- differential sweeps against the scalar stages ------------------------


def _jittered_copy(rng: random.Random, ts: TrackSet, jitter: float) -> TrackSet:
    """A second tracker that follows ``ts``; some boxes are exact copies."""
    tracks = []
    for t in ts.trajectories:
        frames, boxes = [], []
        for f, (x, y, w, h) in zip(t.frame.tolist(), t.xywh.tolist()):
            if rng.random() < 0.1:
                continue
            if rng.random() >= 0.3:
                x, y = x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter)
            frames.append(f)
            boxes.append((x, y, w, h))
        if frames:
            tracks.append(Trajectory(t.id, frames, boxes, [1.0] * len(frames)))
    return TrackSet(ts.sequence, tracks)


def _scenario(seed: int):
    """Tracker outputs for one seed: sparse or crowded, with near-duplicates."""
    rng = random.Random(seed)
    arena = 200.0 if seed % 3 == 0 else 30.0
    first = random_trackset(rng, max_tracks=8, max_start=10, max_span=30, arena=arena)
    others = [_jittered_copy(rng, first, rng.choice([0.5, 3.0])) for _ in range(rng.randint(0, 2))]
    others.append(random_trackset(rng, max_tracks=5, max_start=10, max_span=30, arena=arena))
    return [first] + [ts for ts in others if ts.trajectories]


def _ids(groups):
    return [[t.id for t in g] for g in groups]


@pytest.mark.parametrize("seed", range(12))
def test_merge_groups_equals_scalar(seed):
    pool = mix(_scenario(seed))
    for thr_s, thr_t in itertools.product(THRESHOLDS, THRESHOLDS):
        assert _ids(merge_groups(pool, thr_s, thr_t)) == _ids(merge_groups_scalar(pool, thr_s, thr_t))


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
@pytest.mark.parametrize("seed", range(12))
def test_length_nms_equals_scalar(seed, mode):
    pool = mix(_scenario(seed))
    for thr_s in (0.0, 0.5):
        merged = [merge_group(g, mode) for g in merge_groups(pool, thr_s, 0.3)]
        for thr in THRESHOLDS:
            assert length_nms(merged, thr) == length_nms_scalar(merged, thr)
    # unmerged pools hold more overlapping boxes per frame
    for thr in THRESHOLDS:
        assert length_nms(pool, thr) == length_nms_scalar(pool, thr)


@pytest.mark.parametrize("seed", range(12))
def test_idf1_equals_scalar(seed):
    gt, *preds = _scenario(seed)
    for pred in preds + [gt]:
        for thr in MATCH_THRESHOLDS:
            assert idf1(gt, pred, thr) == idf1_scalar(gt, pred, thr)


@pytest.mark.parametrize("seed", range(12))
def test_clear_mot_equals_scalar(seed):
    gt, *preds = _scenario(seed)
    # listing the tracks out of id order must not change the result
    shuffled = TrackSet(gt.sequence, list(reversed(gt.trajectories)))
    for pred in preds + [gt]:
        for thr in MATCH_THRESHOLDS:
            expected = clear_mot_scalar(gt, pred, thr)
            assert clear_mot(gt, pred, thr) == expected
            assert clear_mot(shuffled, pred, thr) == expected
            assert clear_mot(pred, gt, thr) == clear_mot_scalar(pred, gt, thr)


def _moving(start, stop, x0, dx):
    """The boxes by frame of a 10-pixel box moving ``dx`` per frame along x, from ``x0`` at ``start``."""
    return {f: (x0 + dx * (f - start), 0.0, 10.0, 10.0) for f in range(start, stop + 1)}


def _exact_duplicates():
    # two predictions on each of two objects: every hit has IoU 1, so the solver breaks ties
    gt = TrackSet("s", [const_track(1, 1, 12), const_track(2, 1, 12, box=(4.0, 0.0, 10.0, 10.0))])
    copies = [const_track(i, 1, 12) for i in (1, 2)] + [const_track(i, 1, 12, box=(4.0, 0.0, 10.0, 10.0)) for i in (3, 4)]
    return gt, TrackSet("s", copies)


def _one_prediction_over_two_objects():
    gt = TrackSet("s", [const_track(1, 1, 10), const_track(2, 3, 10, box=(1.0, 0.0, 10.0, 10.0))])
    return gt, TrackSet("s", [const_track(7, 1, 10, box=(0.5, 0.0, 10.0, 10.0))])


def _crossing_objects_swap_ids():
    gt = TrackSet("s", [make_track(1, _moving(1, 20, 0.0, 2.0)), make_track(2, _moving(1, 20, 38.0, -2.0))])
    # each prediction follows one object up to the crossing and the other after it
    first = make_track(5, {**_moving(1, 10, 0.5, 2.0), **_moving(11, 20, 18.5, -2.0)})
    second = make_track(6, {**_moving(1, 10, 37.5, -2.0), **_moving(11, 20, 19.5, 2.0)})
    return gt, TrackSet("s", [first, second])


def _gap_then_new_id():
    gt = TrackSet("s", [const_track(1, 1, 20)])
    # id 3 leaves a gap and two ids come back on the object; id 4 lies exactly on it
    pred = [const_track(3, 1, 6, box=(0.5, 0.0, 10.0, 10.0)), const_track(4, 10, 20),
            const_track(5, 10, 20, box=(1.0, 0.5, 10.0, 10.0))]
    return gt, TrackSet("s", pred)


def _carry_over_from_settled_frames():
    gt = TrackSet("s", [const_track(1, 1, 20)])
    # id 8 matches alone for ten frames, then a better box appears: carry-over keeps id 8
    return gt, TrackSet("s", [const_track(8, 1, 20, box=(1.0, 0.0, 10.0, 10.0)), const_track(9, 11, 20)])


def _no_conflict():
    gt = TrackSet("s", [const_track(1, 1, 10), const_track(2, 1, 10, box=(50.0, 0.0, 10.0, 10.0))])
    pred = [const_track(1, 1, 4, box=(1.0, 0.0, 10.0, 10.0)), const_track(2, 5, 10),
            const_track(3, 2, 10, box=(50.0, 1.0, 10.0, 10.0)), const_track(4, 3, 8, box=(90.0, 0.0, 10.0, 10.0))]
    return gt, TrackSet("s", pred)


def _frames_on_one_side_only():
    # frames 1-4 hold only ground truth, 16-25 only predictions
    gt = TrackSet("s", [const_track(1, 1, 10), const_track(2, 5, 15, box=(30.0, 0.0, 10.0, 10.0))])
    pred = [const_track(1, 12, 25), const_track(2, 8, 22, box=(31.0, 0.0, 10.0, 10.0), skip=range(9, 15))]
    return gt, TrackSet("s", pred)


@pytest.mark.parametrize(
    "case,conflicts",
    [
        (_exact_duplicates, True),
        (_one_prediction_over_two_objects, True),
        (_crossing_objects_swap_ids, True),
        (_gap_then_new_id, True),
        (_carry_over_from_settled_frames, True),
        (_no_conflict, False),
        (_frames_on_one_side_only, False),
    ],
)
def test_clear_mot_conflict_frames_equal_scalar(monkeypatch, case, conflicts):
    """Frames where an owner is in two hits take the sequential path, and it agrees with the oracle."""
    calls = []
    sequential = metrics._frame_matches

    def counted(*args):
        calls.append(args)
        return sequential(*args)

    monkeypatch.setattr(metrics, "_frame_matches", counted)
    gt, pred = case()
    assert clear_mot(gt, pred) == clear_mot_scalar(gt, pred)
    assert bool(calls) == conflicts
    for thr in MATCH_THRESHOLDS:
        assert clear_mot(gt, pred, thr) == clear_mot_scalar(gt, pred, thr)
        assert clear_mot(pred, gt, thr) == clear_mot_scalar(pred, gt, thr)


def test_clear_mot_conflict_fixtures_by_hand():
    # the swap at the crossing is one switch per object
    assert clear_mot(*_crossing_objects_swap_ids()).idsw == 2
    # id 3 -> id 4 after the gap is one switch; id 5 is a false positive on frames 10-20
    assert clear_mot(*_gap_then_new_id()) == ClearScores(20, 11, 3, 1, 1.0 - (11 + 3 + 1) / 20)
    # the better box of id 9 does not break the kept match of id 8
    assert clear_mot(*_carry_over_from_settled_frames()) == ClearScores(20, 10, 0, 0, 0.5)


def _tied_duplicates(with_far_object: bool):
    # four exact copies of gt 2 (ids 1-4) and one at IoU 0.6 (id 5) in frame 1;
    # only id 1 is left in frame 2
    far = [const_track(1, 1, 1, box=(90.0, 0.0, 10.0, 10.0))] if with_far_object else []
    gt = TrackSet("s", far + [const_track(2, 1, 2)])
    copies = [const_track(1, 1, 2)] + [const_track(i, 1, 1) for i in (2, 3, 4)]
    return gt, TrackSet("s", copies + [const_track(5, 1, 1, box=(0.0, 0.0, 10.0, 6.0))])


def test_clear_mot_solves_conflict_frames_whole():
    # gt 1 has no hit, yet its row must stay in frame 1's cost matrix: the
    # solver's pick among the four tied copies depends on every row, and the
    # pick decides the switch in frame 2. Solving only the owners with hits
    # picks id 1 and scores no switch.
    gt, pred = _tied_duplicates(with_far_object=True)
    assert clear_mot(gt, pred) == clear_mot_scalar(gt, pred) == ClearScores(3, 4, 1, 1, -1.0)
    gt, pred = _tied_duplicates(with_far_object=False)
    assert clear_mot(gt, pred).idsw == clear_mot_scalar(gt, pred).idsw == 0


def _tied_copies_beside_a_settled_hit():
    # frame 1: three exact copies of gt 2 (ids 2-4) and gt 3's only hit
    # (id 1, IoU 0.6) beside gt 1, which has no hit; frame 2: gt 2 and id 3
    gt = TrackSet("s", [const_track(1, 1, 1, box=(90.0, 0.0, 10.0, 10.0)), const_track(2, 1, 2),
                        const_track(3, 1, 1, box=(40.0, 0.0, 10.0, 10.0))])
    pred = [const_track(1, 1, 1, box=(40.0, 0.0, 10.0, 6.0)), const_track(2, 1, 1), const_track(3, 1, 2),
            const_track(4, 1, 1)]
    return gt, TrackSet("s", pred)


def test_clear_mot_keeps_settled_hits_in_the_conflict_frame_assignment():
    # gt 3 and id 1 are in no other hit, so they match whatever the solver
    # does, yet their row and column must stay in frame 1's cost matrix:
    # with them the solver gives gt 2 id 2, without them id 3. Frame 2
    # matches gt 2 to id 3, so the pick decides the switch.
    gt, pred = _tied_copies_beside_a_settled_hit()
    # 4 gt boxes, 3 matched; 5 predicted boxes; gt 2 goes from id 2 to id 3
    assert clear_mot(gt, pred) == clear_mot_scalar(gt, pred) == ClearScores(4, 2, 1, 1, 0.0)
    for thr in MATCH_THRESHOLDS:
        assert clear_mot(gt, pred, thr) == clear_mot_scalar(gt, pred, thr)
        assert clear_mot(pred, gt, thr) == clear_mot_scalar(pred, gt, thr)


def test_clear_mot_whole_frame_solve_lists_every_owner_present(monkeypatch):
    # frame 1 of the fixture above, with id 9 present in it but in no hit,
    # and both sets listing their tracks out of id order
    gt, pred = _tied_copies_beside_a_settled_hit()
    silent = const_track(9, 1, 2, box=(200.0, 0.0, 10.0, 10.0))
    gt = TrackSet("s", list(reversed(gt.trajectories)))
    pred = TrackSet("s", [pred.trajectories[2], silent, *pred.trajectories[:2], pred.trajectories[3]])
    solved = []
    frame_matches = metrics._frame_matches

    def listed(hits, last_match, whole_frame):
        def recorded():
            solved.append(whole_frame())
            return solved[-1]

        return frame_matches(hits, last_match, recorded)

    monkeypatch.setattr(metrics, "_frame_matches", listed)
    assert clear_mot(gt, pred) == clear_mot_scalar(gt, pred)
    # owners in id order: gt 1-3 are 0-2, ids 1-4 and 9 are 0-4
    assert [owners for *owners, _ in solved] == [[[0, 1, 2], [0, 1, 2, 3, 4]]]
    for thr in MATCH_THRESHOLDS:
        assert clear_mot(gt, pred, thr) == clear_mot_scalar(gt, pred, thr)
        assert clear_mot(pred, gt, thr) == clear_mot_scalar(pred, gt, thr)


# --- evaluate: both metrics from one join -----------------------------------


def test_evaluate_runs_one_join(monkeypatch):
    calls = []
    join = metrics.same_frame_pairs

    def counted(*args):
        calls.append(args)
        return join(*args)

    monkeypatch.setattr(metrics, "same_frame_pairs", counted)
    gt, pred = _scenario(1)[:2]
    evaluate(gt, pred)
    assert len(calls) == 1


def _assert_evaluate_equals_both_metrics(gt, pred, thr):
    report = evaluate(gt, pred, thr)
    assert report == EvalReport(clear_mot(gt, pred, thr), idf1(gt, pred, thr))
    assert report == EvalReport(clear_mot_scalar(gt, pred, thr), idf1_scalar(gt, pred, thr))


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_equals_clear_mot_and_idf1(seed):
    gt, *preds = _scenario(seed)
    empty = TrackSet(gt.sequence, [])
    for pred in preds + [gt, empty]:
        for thr in MATCH_THRESHOLDS:
            _assert_evaluate_equals_both_metrics(gt, pred, thr)
            _assert_evaluate_equals_both_metrics(pred, gt, thr)


@pytest.mark.parametrize("score", [evaluate, clear_mot, idf1])
@pytest.mark.parametrize("thr", [0.0, -0.5, 1.5, math.nan])
def test_bad_iou_match_raises_before_any_join(monkeypatch, score, thr):
    calls = []
    monkeypatch.setattr(metrics, "same_frame_pairs", lambda *args: calls.append(args))
    gt, pred = _scenario(2)[:2]
    with pytest.raises(ValueError, match=rf"^iou_match must be in \(0, 1\], got {thr}$"):
        score(gt, pred, thr)
    assert calls == []


@pytest.mark.parametrize("max_gap", MAX_GAPS)
@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
@pytest.mark.parametrize("seed", range(8))
def test_pipeline_equals_scalar(seed, mode, max_gap):
    tracksets = _scenario(seed)
    for thr in THRESHOLDS:
        cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=thr, thr_len=5, merge_mode=mode, max_gap=max_gap)
        assert ensemble_pipeline(tracksets, cfg) == ensemble_pipeline_scalar(tracksets, cfg)


@pytest.mark.parametrize("bound", [1, 3])
def test_stages_do_not_depend_on_the_block_bound(monkeypatch, bound):
    tracksets = _scenario(1)
    pool = mix(tracksets)
    cfg = EnsembleConfig(thr_s=0.3, thr_t=0.3, thr_nms=0.5, thr_len=0)
    monkeypatch.setattr(geometry, "BLOCK_ROWS", bound)
    assert _ids(merge_groups(pool, 0.3, 0.3)) == _ids(merge_groups_scalar(pool, 0.3, 0.3))
    assert length_nms(pool, 0.5) == length_nms_scalar(pool, 0.5)
    assert idf1(tracksets[0], tracksets[-1]) == idf1_scalar(tracksets[0], tracksets[-1])
    assert clear_mot(tracksets[0], tracksets[-1]) == clear_mot_scalar(tracksets[0], tracksets[-1])
    assert ensemble_pipeline(tracksets, cfg) == ensemble_pipeline_scalar(tracksets, cfg)


def _sides_overlap_only_themselves():
    # ground-truth boxes overlap each other at IoU 0.905 and, in frames 4-8,
    # 1; the predictions do the same 50 px away, where no ground truth is
    gt = [const_track(1, 1, 10), const_track(2, 1, 10, box=(0.5, 0.0, 10.0, 10.0)), const_track(3, 4, 8)]
    pred = [const_track(i, start, stop, box=(x, 0.0, 10.0, 10.0))
            for i, start, stop, x in ((1, 1, 10, 50.0), (2, 3, 12, 50.5), (3, 4, 8, 50.0))]
    return TrackSet("s", gt), TrackSet("s", pred)


@pytest.mark.parametrize("thr", MATCH_THRESHOLDS)
def test_scoring_keeps_only_ground_truth_to_prediction_pairs(thr):
    # one join pairs both sides' boxes; its pairs within one side are no hits
    gt, pred = _sides_overlap_only_themselves()
    for a, b in ((gt, pred), (pred, gt)):
        report = evaluate(a, b, thr)
        assert report == EvalReport(clear_mot(a, b, thr), idf1(a, b, thr))
        assert report == EvalReport(clear_mot_scalar(a, b, thr), idf1_scalar(a, b, thr))
        num_a, num_b = a.num_detections, b.num_detections
        assert report.identity == IdentityScores(0, num_b, num_a, 0.0)
        assert report.clear == ClearScores(num_a, num_b, num_a, 0, 1.0 - (num_a + num_b) / num_a)


# --- metamorphic relations of the whole pipeline ----------------------------


@pytest.mark.parametrize("max_gap", [None, 5])
@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
@pytest.mark.parametrize("seed", range(12))
def test_pipeline_output_shifts_and_scales_with_its_input(seed, mode, max_gap):
    # The scenarios' sizes are at least 8 and their values far within
    # MAX_COORD / 2, so scaling by 2 or by 0.5 crosses neither MAX_COORD nor
    # the MIN_BOX_SIZE / 2 clamp. A power of two scales every IoU operand,
    # mean and interpolated value exactly.
    tracksets = _scenario(seed)
    for thr in (0.3, 0.5):
        cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=thr, thr_len=5, merge_mode=mode, max_gap=max_gap)
        fused = ensemble_pipeline(tracksets, cfg)
        for shift, scale in ((2**40, 1.0), (0, 2.0), (0, 0.5)):
            moved = [transformed(ts, shift, scale) for ts in tracksets]
            assert ensemble_pipeline(moved, cfg) == transformed(fused, shift, scale)


@st.composite
def distinct_length_inputs(draw) -> list:
    """2 or 3 inputs of up to 3 drifting tracks each in a 40-pixel arena; no two tracks share a length."""
    counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    lengths = iter(draw(st.lists(st.integers(1, 30), min_size=sum(counts), max_size=sum(counts), unique=True)))
    tracksets = []
    for count in counts:
        tracks = []
        for track_id in range(1, count + 1):
            length, start = next(lengths), draw(st.integers(1, 10))
            inner = draw(st.sets(st.integers(start, start + length - 1), max_size=length))
            frames = np.array(sorted(inner | {start, start + length - 1}))
            base = [draw(st.floats(0, 30)), draw(st.floats(0, 30)), draw(st.floats(5, 20)), draw(st.floats(5, 20))]
            drift = [draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), 0.0, 0.0]
            xywh = np.array(base) + np.outer(frames - start, drift)
            tracks.append(Trajectory(track_id, frames, xywh, np.full(len(frames), draw(st.floats(0, 1)))))
        tracksets.append(TrackSet("s", tracks))
    return tracksets


def _boxes(ts: TrackSet) -> list:
    """The exact frames, boxes and confidences of every track, ids aside."""
    return sorted((t.frame.tobytes(), t.xywh.tobytes(), t.conf.tobytes()) for t in ts.trajectories)


@settings(max_examples=150)
@given(
    distinct_length_inputs(),
    st.sampled_from(list(MergeMode)),
    st.sampled_from([0.3, 0.5]),
    st.sampled_from([0, 5]),
    st.sampled_from([None, 3]),
)
def test_pipeline_output_does_not_depend_on_input_order(tracksets, mode, thr, thr_len, max_gap):
    # Length ranks the pooled tracks for grouping and the merged ones for
    # NMS. When no two of either share a length, the input order, which
    # breaks ties of length, changes nothing.
    merged = [merge_group(group, mode) for group in merge_groups(mix(tracksets), thr, thr)]
    assume(len({t.length for t in merged}) == len(merged))
    cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=thr, thr_len=thr_len, merge_mode=mode, max_gap=max_gap)
    fused = _boxes(ensemble_pipeline(tracksets, cfg))
    for order in itertools.permutations(tracksets):
        assert _boxes(ensemble_pipeline(order, cfg)) == fused


def test_input_order_breaks_a_tie_of_merged_lengths():
    # Pooled lengths 10, 9 and 14 differ, but a's group spans 1-14, as long
    # as b, which crosses it in frame 14 only: NMS keeps the box of the
    # earlier input's track there.
    a = const_track(1, 5, 14)
    m = const_track(1, 1, 9)
    b = Trajectory(2, np.arange(14, 28), [(0.0, 0.0, 10.0, 10.0)] + [(100.0, 0.0, 10.0, 10.0)] * 13, np.ones(14))
    first, second = TrackSet("s", [a]), TrackSet("s", [m, b])
    cfg = EnsembleConfig(thr_len=0)
    spans = [[(t.start, t.stop) for t in ensemble_pipeline(inputs, cfg).trajectories]
             for inputs in ([first, second], [second, first])]
    assert spans == [[(15, 27), (1, 14)], [(14, 27), (1, 13)]]


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
def test_input_order_is_pinned_at_benchmark_scale(mode):
    # the benchmark's gappy inputs at seed 7, merged with its flags in
    # AVERAGE mode; two of their 20 tracks share a length, and both orders
    # still give the same boxes
    gappy = TrackerDegradation(idswitch_rate=0.0005, drop_rate=0.1, jitter=1.0, segment_drop=15)
    _, trackers = generate_scenario(ScenarioSpec(4, 6000, 800, 600, 7, (gappy,) * 2))
    cfg = EnsembleConfig(merge_mode=mode, max_gap=20)
    assert _boxes(ensemble_pipeline(trackers, cfg)) == _boxes(ensemble_pipeline(trackers[::-1], cfg))


# --- edge inputs ------------------------------------------------------------


def test_empty_inputs():
    assert merge_groups([], 0.5, 0.5) == merge_groups_scalar([], 0.5, 0.5) == []
    assert length_nms([], 0.7) == length_nms_scalar([], 0.7) == []
    ts = TrackSet("s", [const_track(1, 1, 5), const_track(2, 3, 9, box=(4.0, 4.0, 10.0, 10.0))])
    empty = TrackSet("s", [])
    for gt, pred in [(ts, empty), (empty, ts), (empty, empty)]:
        assert idf1(gt, pred) == idf1_scalar(gt, pred)
        assert clear_mot(gt, pred) == clear_mot_scalar(gt, pred)
    assert idf1(ts, empty).idtp == 0
    assert idf1(empty, empty).idf1 is None


def test_one_box_pool():
    t = const_track(1, 4, 4)
    assert _ids(merge_groups([t], 0.5, 0.5)) == _ids(merge_groups_scalar([t], 0.5, 0.5)) == [[1]]
    assert length_nms([t], 0.0) == length_nms_scalar([t], 0.0) == [t]


def test_frames_present_on_one_side_only():
    gt = TrackSet("s", [const_track(1, 1, 10), const_track(2, 5, 15, box=(3.0, 0.0, 10.0, 10.0))])
    pred = TrackSet("s", [const_track(1, 20, 30), const_track(2, 8, 22, skip=range(9, 15))])
    for thr in MATCH_THRESHOLDS:
        assert idf1(gt, pred, thr) == idf1_scalar(gt, pred, thr)
        assert clear_mot(gt, pred, thr) == clear_mot_scalar(gt, pred, thr)
    pool = [*gt.trajectories, const_track(3, 40, 50)]
    for thr in THRESHOLDS:
        assert _ids(merge_groups(pool, thr, thr)) == _ids(merge_groups_scalar(pool, thr, thr))
        assert length_nms(pool, thr) == length_nms_scalar(pool, thr)


@pytest.mark.parametrize(
    "overrides",
    [
        {"thr_t": 1.0},
        {"thr_s": 0.0},
        {"thr_nms": 0.0},
        {"thr_len": 0},
        {"thr_t": 1.0, "thr_s": 0.0, "thr_nms": 0.0, "thr_len": 0},
    ],
)
@pytest.mark.parametrize("max_gap", MAX_GAPS)
@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
def test_pipeline_edge_configs(overrides, mode, max_gap):
    cfg = EnsembleConfig(merge_mode=mode, max_gap=max_gap, **overrides)
    for seed in range(4):
        tracksets = _scenario(seed)
        assert ensemble_pipeline(tracksets, cfg) == ensemble_pipeline_scalar(tracksets, cfg)
        single = tracksets[:1]
        assert ensemble_pipeline(single, cfg) == ensemble_pipeline_scalar(single, cfg)
    empty = [TrackSet("s", [])]
    assert ensemble_pipeline(empty, cfg) == ensemble_pipeline_scalar(empty, cfg) == TrackSet("s", [])
    one_box = [TrackSet("s", [make_track(7, {3: (1.0, 2.0, 3.0, 4.0)})])]
    assert ensemble_pipeline(one_box, cfg) == ensemble_pipeline_scalar(one_box, cfg)
