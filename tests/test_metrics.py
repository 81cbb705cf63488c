import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from trackfuse import TrackSet, evaluate
from trackfuse.metrics import clear_mot, idf1

from oracles import brute_force_min_cost, const_track, make_track, random_trackset


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
