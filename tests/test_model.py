import copy
import dataclasses
import math
import pickle

import pytest

from trackfuse import BoundingBox, Detection, TrackSet, Trajectory


def test_bounding_box_fields_and_derived():
    box = BoundingBox(10.0, 20.0, 30.0, 40.0)
    assert box.right == 40.0
    assert box.bottom == 60.0
    assert box.area == 1200.0


@pytest.mark.parametrize("bad", [(0, 0, 0, 10), (0, 0, 10, 0), (0, 0, -5, 10), (0, 0, 10, -1)])
def test_bounding_box_rejects_non_positive_size(bad):
    with pytest.raises(ValueError):
        BoundingBox(*bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bounding_box_rejects_non_finite(value):
    with pytest.raises(ValueError):
        BoundingBox(value, 0, 10, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, value, 10)


def test_detection_rejects_bad_frame_and_confidence():
    box = BoundingBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        Detection(0, box)
    with pytest.raises(ValueError):
        Detection(1, box, confidence=1.5)
    with pytest.raises(ValueError):
        Detection(1, box, confidence=-0.1)


def test_trajectory_span_and_gaps():
    box = BoundingBox(0, 0, 10, 10)
    traj = Trajectory.from_detections(1, [Detection(f, box) for f in (2, 5, 9)])
    assert traj.start == 2
    assert traj.stop == 9
    assert traj.length == 8  # span counts the gap frames too
    assert traj.frames() == [2, 5, 9]


def test_trajectory_normalizes_frame_order():
    box = BoundingBox(0, 0, 10, 10)
    traj = Trajectory(1, {9: Detection(9, box), 2: Detection(2, box)})
    assert traj.frames() == [2, 9]


def test_trajectory_rejects_empty_and_duplicates():
    box = BoundingBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        Trajectory(1, {})
    with pytest.raises(ValueError):
        Trajectory.from_detections(1, [Detection(3, box), Detection(3, box)])
    with pytest.raises(ValueError):
        Trajectory(0, {1: Detection(1, box)})
    with pytest.raises(ValueError):  # key does not match the detection's frame
        Trajectory(1, {4: Detection(5, box)})


def test_trajectory_with_id_and_source():
    box = BoundingBox(0, 0, 10, 10)
    traj = Trajectory.from_detections(1, [Detection(1, box)])
    assert traj.with_id(7).id == 7
    retagged = traj.with_source(3)
    assert all(d.source == 3 for d in retagged.detections.values())
    assert retagged.id == traj.id


def test_trackset_rejects_duplicate_ids():
    box = BoundingBox(0, 0, 10, 10)
    t1 = Trajectory.from_detections(1, [Detection(1, box)])
    t2 = Trajectory.from_detections(1, [Detection(2, box)])
    with pytest.raises(ValueError):
        TrackSet("s", [t1, t2])


def test_trackset_counts():
    box = BoundingBox(0, 0, 10, 10)
    t1 = Trajectory.from_detections(1, [Detection(f, box) for f in (1, 2)])
    t2 = Trajectory.from_detections(2, [Detection(5, box)])
    ts = TrackSet("s", [t1, t2])
    assert len(ts) == 2
    assert ts.num_detections == 3


def test_value_types_pickle_copy_and_stay_frozen():
    box = BoundingBox(1.5, 2.5, 3.0, 4.0)
    det = Detection(3, box, 0.25, 2)
    traj = Trajectory.from_detections(4, [det, Detection(5, box)])
    ts = TrackSet("seq", [traj])
    for value, field in [(box, "x"), (det, "frame"), (traj, "id"), (ts, "sequence")]:
        assert not hasattr(value, "__dict__")  # slotted
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert clone == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
