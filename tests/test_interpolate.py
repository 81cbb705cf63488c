import random

import pytest

from trackfuse import Trajectory
from trackfuse.interpolate import linear_interpolate

from oracles import canonical, const_track, linear_interpolate_scalar, make_track, random_trajectory


def test_no_gaps_unchanged():
    t = const_track(1, 1, 10)
    assert canonical([linear_interpolate(t, 20)]) == canonical([t])


def test_midpoint_insertion():
    t = make_track(1, {1: (0.0, 0.0, 10.0, 10.0), 3: (10.0, 0.0, 10.0, 10.0)})
    out = linear_interpolate(t, 2)
    box = out.detections[2].box
    assert (box.x, box.y, box.w, box.h) == (5.0, 0.0, 10.0, 10.0)
    assert out.frame.tolist() == [1, 2, 3]


def test_gap_larger_than_max_gap_untouched():
    t = make_track(1, {1: (0.0, 0.0, 10.0, 10.0), 32: (10.0, 0.0, 10.0, 10.0)})
    assert canonical([linear_interpolate(t, 20)]) == canonical([t])


def test_gap_boundary_exactly_max_gap_filled():
    # 20 missing frames between 1 and 22
    t = make_track(1, {1: (0.0, 0.0, 10.0, 10.0), 22: (21.0, 0.0, 10.0, 10.0)})
    out = linear_interpolate(t, 20)
    assert out.frame.tolist() == list(range(1, 23))
    assert linear_interpolate(t, 19).frame.tolist() == [1, 22]


def test_confidence_interpolated():
    from trackfuse import Trajectory

    t = Trajectory(1, [1, 3], [(0.0, 0.0, 10.0, 10.0)] * 2, [1.0, 0.5])
    out = linear_interpolate(t, 5)
    assert out.detections[2].confidence == pytest.approx(0.75)


def test_no_extrapolation_beyond_ends():
    t = make_track(1, {5: (0.0, 0.0, 10.0, 10.0), 7: (2.0, 0.0, 10.0, 10.0)})
    out = linear_interpolate(t, 20)
    assert out.start == 5 and out.stop == 7


def test_originals_unchanged_and_envelope():
    rng = random.Random(13)
    for _ in range(30):
        t = random_trajectory(rng, 1)
        out = linear_interpolate(t, 20)
        assert set(out.frame.tolist()) >= set(t.frame.tolist())
        for f, det in t.detections.items():
            assert out.detections[f] == det
        frames = t.frame.tolist()
        for f0, f1 in zip(frames, frames[1:]):
            b0, b1 = t.detections[f0].box, t.detections[f1].box
            for f in range(f0 + 1, f1):
                if f not in out.detections:
                    continue
                box = out.detections[f].box
                assert min(b0.x, b1.x) <= box.x <= max(b0.x, b1.x)
                assert min(b0.y, b1.y) <= box.y <= max(b0.y, b1.y)
                assert min(b0.w, b1.w) <= box.w <= max(b0.w, b1.w)
                assert min(b0.h, b1.h) <= box.h <= max(b0.h, b1.h)


def test_idempotent():
    rng = random.Random(19)
    for _ in range(30):
        t = random_trajectory(rng, 1)
        once = linear_interpolate(t, 10)
        twice = linear_interpolate(once, 10)
        assert canonical([once]) == canonical([twice])


def test_rejects_non_positive_max_gap():
    t = const_track(1, 1, 5)
    with pytest.raises(ValueError):
        linear_interpolate(t, 0)
    for gap in (float("nan"), True, 3.5, float("inf")):  # no integer, or a bool
        with pytest.raises(ValueError, match=rf"^max_gap must be an integer, got {gap!r}$"):
            linear_interpolate(t, gap)


@pytest.mark.parametrize("max_gap", [1, 3, 10, 50])
def test_matches_scalar_formula_bit_for_bit(max_gap):
    rng = random.Random(max_gap)
    for track_id in range(1, 301):
        t = random_trajectory(rng, track_id, max_span=150)
        # thin the track to open long gaps, and give it varied confidences
        keep = rng.choice([1.0, 0.5, 0.1])
        last = len(t.frame) - 1
        rows = [r for r in range(last + 1) if r in (0, last) or rng.random() < keep]
        t = Trajectory(track_id, t.frame[rows], t.xywh[rows], [rng.uniform(0.05, 1.0) for _ in rows])
        got, want = linear_interpolate(t, max_gap), linear_interpolate_scalar(t, max_gap)
        assert got.frame.tolist() == want.frame.tolist()
        assert got.xywh.tobytes() == want.xywh.tobytes()
        assert got.conf.tobytes() == want.conf.tobytes()
