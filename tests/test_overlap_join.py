"""The same-frame overlap join and the stages built on it.

Merge grouping, length NMS and IDF1 must give exactly what the scalar
``box_iou`` loops in ``oracles`` give, on seeded sweeps and edge inputs.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackfuse import BoundingBox, EnsembleConfig, MergeMode, TrackSet, Trajectory, ensemble_pipeline
from trackfuse import geometry, metrics
from trackfuse.ensemble import length_nms, merge_group, merge_groups, mix
from trackfuse.geometry import box_columns, same_frame_pairs
from trackfuse.metrics import ClearScores, EvalReport, clear_mot, evaluate, idf1

from oracles import (
    box_iou,
    clear_mot_scalar,
    const_track,
    ensemble_pipeline_scalar,
    idf1_scalar,
    length_nms_scalar,
    make_track,
    merge_groups_scalar,
    random_trackset,
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
    """The join's IoU of each pair, the two boxes put alone in a frame of their own."""
    frames = np.arange(1, len(pairs) + 1)
    owners = np.zeros(len(pairs), dtype=np.int64)
    a, b = ((frames, owners, np.array([(x.x, x.y, x.w, x.h) for x in side])) for side in zip(*pairs))
    got = [0.0] * len(pairs)  # pairs the join leaves out do not intersect
    for frame, _, _, iou in same_frame_pairs(a, b):
        for f, v in zip(frame.tolist(), iou.tolist()):
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


def _joined(a, b=None):
    return [row for block in same_frame_pairs(a, b) for row in zip(*(col.tolist() for col in block))]


@pytest.mark.parametrize("seed", range(6))
def test_join_yields_exactly_the_intersecting_pairs(seed):
    rng = random.Random(seed)
    a = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
    b = box_columns(random_trackset(rng, max_tracks=6, max_start=5, max_span=12, arena=40.0).trajectories)
    assert _joined(a) == _brute_pairs(a)
    assert _joined(a, b) == _brute_pairs(a, b)


def _stacked_columns(rng, frame_sizes):
    """Nearly identical boxes, so every same-frame pair intersects; rows shuffled."""
    rows = [
        (f, k, 10.0 + rng.random(), 10.0 + rng.random(), 5.0, 5.0)
        for f, n in frame_sizes.items()
        for k in range(n)
    ]
    rng.shuffle(rows)
    arr = np.array(rows)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2:].copy()


def _check_blocks(a, b, bound):
    """Pairs per frame, checking that blocks hold whole frames and respect the bound."""
    pairs_per_frame = {}
    for frame, _, _, _ in same_frame_pairs(a, b):
        frames = set(frame.tolist())
        assert not frames & set(pairs_per_frame), "a frame split across blocks"
        assert len(frame) <= bound or len(frames) == 1
        for f in frame.tolist():
            pairs_per_frame[f] = pairs_per_frame.get(f, 0) + 1
    return pairs_per_frame


@pytest.mark.parametrize("bound", [1, 5, 37])
def test_join_blocks_hold_at_most_the_bound(monkeypatch, bound):
    monkeypatch.setattr(geometry, "PAIR_BLOCK", bound)
    rng = random.Random(bound)
    sizes_a = {f: rng.randint(1, 9) for f in rng.sample(range(1, 60), 30)}
    sizes_b = {f: rng.randint(1, 9) for f in rng.sample(range(1, 60), 30)}
    a, b = _stacked_columns(rng, sizes_a), _stacked_columns(rng, sizes_b)
    self_pairs = _check_blocks(a, None, bound)
    assert self_pairs == {f: n * (n - 1) // 2 for f, n in sizes_a.items() if n > 1}
    cross_pairs = _check_blocks(a, b, bound)
    assert cross_pairs == {f: n * sizes_b[f] for f, n in sizes_a.items() if f in sizes_b}


def test_join_block_bound_at_its_real_value():
    rng = random.Random(0)
    crowded = int(math.isqrt(2 * geometry.PAIR_BLOCK)) + 2  # one frame alone exceeds the bound
    sizes = {1: 3, 2: crowded, 3: 4, 4: 90, 5: 90, 6: 2}
    a = _stacked_columns(rng, sizes)
    counts = _check_blocks(a, None, geometry.PAIR_BLOCK)
    assert counts == {f: n * (n - 1) // 2 for f, n in sizes.items()}
    assert counts[2] > geometry.PAIR_BLOCK


def test_join_leaves_out_boxes_that_only_touch():
    touching = box_columns([const_track(1, 1, 2), const_track(2, 1, 2, box=(10.0, 0.0, 5.0, 5.0))])
    nested = box_columns([const_track(1, 1, 1), const_track(2, 1, 1, box=(2.0, 2.0, 5.0, 5.0))])
    assert _joined(touching) == []
    assert _joined(touching, touching) == [(1, 0, 0, 1.0), (1, 1, 1, 1.0), (2, 0, 0, 1.0), (2, 1, 1, 1.0)]
    assert _joined(nested) == [(1, 0, 1, 0.25)]


def test_join_of_empty_columns():
    empty = box_columns([])
    one = box_columns([const_track(1, 1, 3)])
    assert _joined(empty) == []
    assert _joined(empty, one) == []
    assert _joined(one, empty) == []
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


def test_stages_do_not_depend_on_the_block_bound(monkeypatch):
    tracksets = _scenario(1)
    pool = mix(tracksets)
    cfg = EnsembleConfig(thr_s=0.3, thr_t=0.3, thr_nms=0.5, thr_len=0)
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 3)
    assert _ids(merge_groups(pool, 0.3, 0.3)) == _ids(merge_groups_scalar(pool, 0.3, 0.3))
    assert length_nms(pool, 0.5) == length_nms_scalar(pool, 0.5)
    assert idf1(tracksets[0], tracksets[-1]) == idf1_scalar(tracksets[0], tracksets[-1])
    assert clear_mot(tracksets[0], tracksets[-1]) == clear_mot_scalar(tracksets[0], tracksets[-1])
    assert ensemble_pipeline(tracksets, cfg) == ensemble_pipeline_scalar(tracksets, cfg)


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
    pool = gt.trajectories + [const_track(3, 40, 50)]
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
