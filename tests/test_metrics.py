import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from trackfuse import TrackSet, evaluate
from trackfuse.metrics import EvalReport, clear_mot, idf1
from trackfuse.model import MAX_COORD, MIN_BOX_SIZE

from oracles import (
    brute_force_min_cost,
    clear_mot_scalar,
    const_track,
    idf1_scalar,
    make_track,
    random_trackset,
    transformed,
)


def solve(cost):
    """(row, column) pairs, as the metrics read the solver's result."""
    return list(zip(*linear_sum_assignment(cost)))


def total_cost(cost, pairs):
    return sum(cost[r][c] for r, c in pairs)


def test_solver_identity_matrix():
    pairs = solve([[0.0, 1.0], [1.0, 0.0]])
    assert sorted(pairs) == [(0, 0), (1, 1)]


def test_solver_single_cell():
    assert solve([[5.0]]) == [(0, 0)]


def test_solver_empty_matrix():
    # idf1 hands the solver a 0x0 matrix when both sides are empty
    assert solve(np.zeros((0, 0))) == []


def test_solver_rectangular_covers_min_dim():
    cost = [[1.0, 0.0, 2.0, 3.0, 0.5]]
    pairs = solve(cost)
    assert pairs == [(0, 1)]


def test_solver_matches_brute_force():
    rng = random.Random(101)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        cost = [[rng.uniform(0, 10) for _ in range(cols)] for _ in range(rows)]
        pairs = solve(cost)
        assert len(pairs) == min(rows, cols)
        assert total_cost(cost, pairs) == pytest.approx(brute_force_min_cost(cost))


def one_object_gt(frames=10):
    return TrackSet("gt", [const_track(1, 1, frames)])


def test_clear_perfect_tracking():
    gt = one_object_gt()
    scores = clear_mot(gt, gt)
    assert (scores.fp, scores.fn, scores.idsw) == (0, 0, 0)
    assert scores.mota == 1.0
    assert scores.num_gt == 10


def test_clear_half_coverage():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 5)])
    scores = clear_mot(gt, pred)
    assert (scores.fn, scores.fp, scores.idsw) == (5, 0, 0)
    assert scores.mota == 0.5


def test_clear_single_id_switch():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 5), const_track(2, 6, 10)])
    scores = clear_mot(gt, pred)
    assert (scores.fn, scores.fp, scores.idsw) == (0, 0, 1)
    assert scores.mota == pytest.approx(0.9)


def test_clear_empty_prediction():
    gt = one_object_gt(10)
    scores = clear_mot(gt, TrackSet("p", []))
    assert scores.fn == 10
    assert scores.fp == 0
    assert scores.mota == 0.0


def test_clear_empty_ground_truth_undefined():
    scores = clear_mot(TrackSet("gt", []), TrackSet("p", [const_track(1, 1, 5)]))
    assert scores.num_gt == 0
    assert scores.mota is None
    assert scores.fp == 5


def test_clear_boundary_iou_counts_as_match():
    gt = TrackSet("gt", [make_track(1, {1: (0.0, 0.0, 10.0, 10.0)})])
    pred = TrackSet("p", [make_track(1, {1: (0.0, 0.0, 10.0, 5.0)})])  # IoU exactly 0.5
    scores = clear_mot(gt, pred, iou_match=0.5)
    assert (scores.fn, scores.fp) == (0, 0)


def test_clear_spurious_prediction_counts_fp():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 10), const_track(2, 1, 4, box=(500, 500, 8, 8))])
    scores = clear_mot(gt, pred)
    assert (scores.fn, scores.fp, scores.idsw) == (0, 4, 0)
    assert scores.mota == pytest.approx(0.6)


def test_clear_reacquiring_same_id_is_not_a_switch():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 10, skip=(5, 6))])
    scores = clear_mot(gt, pred)
    assert scores.idsw == 0
    assert scores.fn == 2


def test_clear_switch_after_absence():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 4), const_track(2, 7, 10)])
    scores = clear_mot(gt, pred)
    assert scores.idsw == 1
    assert scores.fn == 2


def test_clear_persistence_beats_greedy_swap():
    # two objects crossing paths: standing matches keep their ids while valid
    gt = TrackSet("gt", [
        make_track(1, {f: (float(10 * f), 0.0, 20.0, 20.0) for f in range(1, 6)}),
        make_track(2, {f: (float(60 - 10 * f), 0.0, 20.0, 20.0) for f in range(1, 6)}),
    ])
    scores = clear_mot(gt, gt)
    assert scores.idsw == 0
    assert scores.mota == 1.0


def test_clear_invalid_threshold():
    gt = one_object_gt()
    with pytest.raises(ValueError):
        clear_mot(gt, gt, iou_match=0.0)
    with pytest.raises(ValueError):
        clear_mot(gt, gt, iou_match=1.5)


def relabel(ts: TrackSet, offset: int) -> TrackSet:
    return TrackSet(ts.sequence, [t.with_id(t.id + offset) for t in ts.trajectories])


def test_clear_invariant_under_prediction_relabeling():
    rng = random.Random(3)
    for _ in range(10):
        gt = random_trackset(rng, "gt")
        pred = random_trackset(rng, "p")
        a = clear_mot(gt, pred)
        b = clear_mot(gt, relabel(pred, 100))
        assert (a.fp, a.fn, a.idsw, a.mota) == (b.fp, b.fn, b.idsw, b.mota)


def test_idf1_perfect():
    gt = one_object_gt()
    scores = idf1(gt, gt)
    assert scores.idf1 == 1.0
    assert (scores.idfp, scores.idfn) == (0, 0)


def test_idf1_split_track():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 5), const_track(2, 6, 10)])
    scores = idf1(gt, pred)
    assert (scores.idtp, scores.idfp, scores.idfn) == (5, 5, 5)
    assert scores.idf1 == 0.5


def test_idf1_equal_overlaps_and_a_gt_id_that_overlaps_nothing():
    far = (50.0, 0.0, 10.0, 10.0)
    gt = TrackSet("gt", [const_track(1, 1, 10), const_track(2, 1, 10, box=far),
                         const_track(3, 1, 5, box=(100.0, 0.0, 10.0, 10.0))])
    # each prediction covers half of objects 1 and 2: every pairing shares 5 frames
    pred = TrackSet("p", [
        make_track(10, {f: (0.0, 0.0, 10.0, 10.0) if f <= 5 else far for f in range(1, 11)}),
        make_track(20, {f: far if f <= 5 else (0.0, 0.0, 10.0, 10.0) for f in range(1, 11)}),
    ])
    scores = idf1(gt, pred)
    # 25 gt boxes and 20 predicted boxes; any one-to-one pairing covers 10
    assert (scores.idtp, scores.idfp, scores.idfn) == (10, 10, 15)
    assert scores.idf1 == 20 / 45
    assert scores == idf1_scalar(gt, pred)


def test_idf1_empty_prediction():
    gt = one_object_gt(10)
    scores = idf1(gt, TrackSet("p", []))
    assert (scores.idtp, scores.idfn, scores.idfp) == (0, 10, 0)
    assert scores.idf1 == 0.0


def test_idf1_both_empty_undefined():
    scores = idf1(TrackSet("gt", []), TrackSet("p", []))
    assert scores.idf1 is None


def test_idf1_invariant_under_prediction_relabeling():
    rng = random.Random(8)
    for _ in range(10):
        gt = random_trackset(rng, "gt")
        pred = random_trackset(rng, "p")
        assert idf1(gt, pred) == idf1(gt, relabel(pred, 500))


def test_repairing_a_switch_improves_identity_and_idsw():
    gt = one_object_gt(10)
    switched = TrackSet("p", [const_track(1, 1, 5), const_track(2, 6, 10)])
    repaired = TrackSet("p", [const_track(1, 1, 10)])
    before, after = evaluate(gt, switched), evaluate(gt, repaired)
    assert after.identity.idf1 > before.identity.idf1
    assert after.clear.idsw < before.clear.idsw


def test_evaluate_combines_both_score_sets():
    gt = one_object_gt(10)
    pred = TrackSet("p", [const_track(1, 1, 5), const_track(2, 6, 10)])
    report = evaluate(gt, pred)
    assert report.clear.num_gt == 10
    assert report.clear.mota == pytest.approx(0.9)
    assert report.identity.idf1 == 0.5
    assert report.clear.idsw == 1
    assert (report.identity.idtp, report.identity.idfp, report.identity.idfn) == (5, 5, 5)


def test_mota_at_most_one_on_random_pairs():
    rng = random.Random(12)
    for _ in range(10):
        gt = random_trackset(rng, "gt")
        pred = random_trackset(rng, "p")
        report = evaluate(gt, pred)
        if report.clear.mota is not None:
            assert report.clear.mota <= 1.0
        if report.identity.idf1 is not None:
            assert 0.0 <= report.identity.idf1 <= 1.0


# --- drawn scenes: the scalar oracles, and transforms that keep the report ---

MATCH_THRESHOLDS = [1e-9, 0.3, 0.5, 0.7, 1.0]
# Boxes on a coarse grid, so exact copies, tied IoUs and one box over two
# are common. Every box lies within 80 grid units of the origin and is at
# least 10 wide and high.
GRID_BOXES = [(x, y, w, 10.0) for x in (0.0, 5.0, 10.0, 60.0) for y in (0.0, 5.0) for w in (10.0, 20.0)]
# Grid units that keep every box within MAX_COORD / 2 and its sizes at
# least MIN_BOX_SIZE, so scaling by 2 or by 0.5 leaves the range of neither.
UNITS = [MIN_BOX_SIZE / 8, 0.75, 2.0**36]
assert 80 * UNITS[-1] <= MAX_COORD / 2 and 10 * UNITS[0] >= MIN_BOX_SIZE


@st.composite
def grid_scenes(draw, units=st.just(1.0)):
    """Two track sets over up to 5 frames, with ids 1-4 placed on ``GRID_BOXES`` anew in each frame."""
    unit = draw(units)
    frames = range(1, draw(st.integers(1, 5)) + 1)
    sides = []
    for _ in range(2):
        tracks = {}  # id -> frame -> box
        for f in frames:
            placed = draw(st.dictionaries(st.integers(1, 4), st.sampled_from(GRID_BOXES), max_size=4))
            for track_id, box in placed.items():
                tracks.setdefault(track_id, {})[f] = tuple(v * unit for v in box)
        sides.append(TrackSet("s", [make_track(track_id, boxes) for track_id, boxes in tracks.items()]))
    return sides


@settings(max_examples=200, deadline=None)
@given(grid_scenes())
def test_clear_mot_and_evaluate_equal_scalar_on_grid_scenes(scene):
    for a, b in (scene, scene[::-1]):
        for thr in MATCH_THRESHOLDS:
            expected = clear_mot_scalar(a, b, thr)
            assert clear_mot(a, b, thr) == expected
            assert evaluate(a, b, thr) == EvalReport(expected, idf1_scalar(a, b, thr))


@settings(max_examples=150, deadline=None)
@given(grid_scenes(st.sampled_from(UNITS)), st.integers(1, 2**40), st.sampled_from(MATCH_THRESHOLDS))
def test_evaluate_keeps_its_report_when_every_frame_shifts(scene, shift, iou_match):
    gt, pred = scene
    shifted = evaluate(transformed(gt, shift=shift), transformed(pred, shift=shift), iou_match)
    assert shifted == evaluate(gt, pred, iou_match)


@settings(max_examples=150, deadline=None)
@given(grid_scenes(st.sampled_from(UNITS)), st.sampled_from([2.0, 0.5]), st.sampled_from(MATCH_THRESHOLDS))
def test_evaluate_keeps_its_report_when_every_coordinate_scales(scene, scale, iou_match):
    # scaling by a power of two scales every IoU operand exactly, so every IoU is unchanged
    gt, pred = scene
    scaled = evaluate(transformed(gt, scale=scale), transformed(pred, scale=scale), iou_match)
    assert scaled == evaluate(gt, pred, iou_match)


def permuted(ts: TrackSet, ids) -> TrackSet:
    """``ts`` with id ``k`` renamed ``ids[k - 1]``."""
    return TrackSet(ts.sequence, [t.with_id(ids[t.id - 1]) for t in ts.trajectories])


@settings(max_examples=150, deadline=None)
@given(grid_scenes(), st.permutations(range(1, 5)), st.permutations(range(1, 5)), st.sampled_from(MATCH_THRESHOLDS))
def test_identity_scores_keep_when_the_ids_are_permuted(scene, gt_ids, pred_ids, iou_match):
    # A permutation, unlike an offset, changes the id order, and with it the
    # rows and columns of the assignment; the largest IDTP cannot depend on
    # them. CLEAR is left out: its carry-over and the solver's pick among
    # tied hits follow the id order.
    gt, pred = scene
    expected = evaluate(gt, pred, iou_match).identity
    assert evaluate(permuted(gt, gt_ids), pred, iou_match).identity == expected
    assert evaluate(gt, permuted(pred, pred_ids), iou_match).identity == expected
    assert evaluate(permuted(gt, gt_ids), permuted(pred, pred_ids), iou_match).identity == expected
