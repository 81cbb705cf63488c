import random

from trackfuse import BoundingBox

from oracles import (
    box_iou,
    const_track,
    iou_monte_carlo,
    iou_naive,
    make_track,
    random_trajectory,
    st_iou,
    st_iou_naive,
)


def test_box_iou_identical_is_exactly_one():
    box = BoundingBox(3.7, 11.1, 20.3, 14.9)
    assert box_iou(box, box) == 1.0


def test_box_iou_disjoint_is_zero():
    assert box_iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0


def test_box_iou_touching_edges_is_zero():
    assert box_iou(BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 10, 10)) == 0.0
    assert box_iou(BoundingBox(0, 0, 10, 10), BoundingBox(0, 10, 10, 10)) == 0.0


def test_box_iou_half_overlap():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 0, 10, 10)
    expected = 50.0 / 150.0
    assert abs(box_iou(a, b) - expected) < 1e-12
    # cross-check via point sampling
    assert abs(iou_monte_carlo(a, b) - expected) < 0.01


def test_box_iou_matches_monte_carlo_on_random_pairs():
    rng = random.Random(77)
    for trial in range(5):
        a = BoundingBox(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 30), rng.uniform(5, 30))
        b = BoundingBox(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 30), rng.uniform(5, 30))
        assert abs(box_iou(a, b) - iou_monte_carlo(a, b, samples=100_000, seed=trial)) < 0.02


def test_box_iou_symmetric_and_bounded():
    rng = random.Random(11)
    for _ in range(200):
        a = BoundingBox(rng.uniform(-20, 60), rng.uniform(-20, 60), rng.uniform(1, 40), rng.uniform(1, 40))
        b = BoundingBox(rng.uniform(-20, 60), rng.uniform(-20, 60), rng.uniform(1, 40), rng.uniform(1, 40))
        iou = box_iou(a, b)
        assert iou == box_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert abs(iou - iou_naive(a, b)) < 1e-12


def test_st_iou_identical_boxes_on_shared_frames():
    # identical boxes on frames 4-5 only; the shorter span is 5 frames
    ti = const_track(1, 1, 5)
    tj = const_track(2, 4, 8)
    assert st_iou(ti, tj, 0.5) == 2 / 5


def test_st_iou_disjoint_frame_ranges():
    assert st_iou(const_track(1, 1, 5), const_track(2, 10, 12), 0.5) == 0.0


def test_st_iou_counts_only_frames_both_have():
    ti = const_track(1, 1, 6, skip=(4,))
    tj = const_track(2, 1, 6)
    assert st_iou(ti, tj, 0.5) == 5 / 6
    # brute-force scan over every frame agrees
    assert st_iou(ti, tj, 0.5) == st_iou_naive(ti, tj, 0.5)


def test_st_iou_gapless_self_is_one():
    traj = const_track(1, 3, 12)
    assert st_iou(traj, traj, 0.5) == 1.0


def test_st_iou_self_with_gaps_counts_detected_frames():
    traj = const_track(1, 1, 10, skip=(4, 5))
    assert st_iou(traj, traj, 0.5) == 8 / 10


def test_st_iou_partial_overlap_fixture():
    # ti frames 1-10, tj frames 6-15; boxes agree only at frames 6, 7, 8
    shared = (50.0, 50.0, 10.0, 10.0)
    ti_boxes = {f: (0.0, 0.0, 10.0, 10.0) for f in range(1, 6)}
    ti_boxes.update({f: shared for f in (6, 7, 8)})
    ti_boxes.update({f: (0.0, 0.0, 10.0, 10.0) for f in (9, 10)})
    tj_boxes = {f: shared for f in (6, 7, 8)}
    tj_boxes.update({f: (200.0, 200.0, 10.0, 10.0) for f in range(9, 16)})
    ti, tj = make_track(1, ti_boxes), make_track(2, tj_boxes)
    assert st_iou(ti, tj, 0.5) == 3 / 10


def test_st_iou_temporally_disjoint_is_zero():
    assert st_iou(const_track(1, 1, 10), const_track(2, 20, 30), 0.5) == 0.0


def test_st_iou_boundary_iou_does_not_count():
    # contained box with IoU exactly 0.5: strictly-greater comparison excludes it
    ti = make_track(1, {1: (0.0, 0.0, 10.0, 10.0)})
    tj = make_track(2, {1: (0.0, 0.0, 10.0, 5.0)})
    assert box_iou(ti.detections[1].box, tj.detections[1].box) == 0.5
    assert st_iou(ti, tj, 0.5) == 0.0
    assert st_iou(ti, tj, 0.49) == 1.0


def test_st_iou_symmetric_and_monotone_in_threshold():
    rng = random.Random(42)
    thresholds = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(50):
        ti = random_trajectory(rng, 1)
        tj = random_trajectory(rng, 2)
        values = [st_iou(ti, tj, thr) for thr in thresholds]
        assert values == [st_iou(tj, ti, thr) for thr in thresholds]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_st_iou_matches_naive_oracle():
    rng = random.Random(9)
    for _ in range(200):
        ti = random_trajectory(rng, 1)
        tj = random_trajectory(rng, 2)
        assert abs(st_iou(ti, tj, 0.5) - st_iou_naive(ti, tj, 0.5)) <= 1e-12
