import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

import trackfuse.model
from trackfuse import (
    BoundingBox,
    Detection,
    MergeMode,
    TrackSet,
    Trajectory,
    parse_trackset,
    serialize_trackset,
)
from trackfuse.ensemble import length_nms, merge_group, mix
from trackfuse.interpolate import linear_interpolate
from trackfuse.model import MAX_COORD

# the float64 just past the bound on box values
PAST = float(np.nextafter(MAX_COORD, np.inf))


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


BOX = (0.0, 0.0, 10.0, 10.0)


def test_trajectory_span_and_gaps():
    traj = Trajectory(1, np.array([2, 5, 9], np.uint16), [BOX] * 3, [1.0] * 3)  # any integer dtype
    assert traj.frame.dtype == np.int64
    assert traj.start == 2
    assert traj.stop == 9
    assert traj.length == 8  # span counts the gap frames too
    assert traj.frame.tolist() == [2, 5, 9]


def test_trajectory_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Trajectory(1, [], [], [])
    with pytest.raises(ValueError):
        Trajectory(1, [3, 3], [BOX] * 2, [1.0] * 2)
    with pytest.raises(ValueError):
        Trajectory(0, [1], [BOX], [1.0])


def test_trajectory_with_id():
    traj = Trajectory(1, [1], [BOX], [1.0])
    for new_id in (7, np.int64(7), np.uint32(7)):  # Python and numpy integers
        assert traj.with_id(new_id).id == 7
        assert Trajectory(new_id, [1], [BOX], [1.0]).id == 7


def test_trackset_rejects_duplicate_ids():
    t1 = Trajectory(1, [1], [BOX], [1.0])
    t2 = Trajectory(1, [2], [BOX], [1.0])
    with pytest.raises(ValueError):
        TrackSet("s", [t1, t2])


def test_trackset_keeps_a_tuple_of_its_own():
    t1 = Trajectory(1, [1], [BOX], [1.0])
    tracks = [t1]
    ts = TrackSet("s", tracks)
    tracks.append(t1)  # would repeat id 1 in a shared list
    assert [t.id for t in ts.trajectories] == [1]
    assert type(ts.trajectories) is tuple


def test_trackset_tracks_cannot_be_appended_to():
    t2, t5 = Trajectory(2, [1], [BOX], [1.0]), Trajectory(5, [1], [BOX], [1.0])
    ts = TrackSet("s", [t5])
    with pytest.raises(AttributeError):
        ts.trajectories.append(t2)  # would break the id order
    assert [t.id for t in ts.trajectories] == [5]


def test_trackset_reads_an_iterator_once():
    t1 = Trajectory(1, [1], [BOX], [1.0])
    t2 = Trajectory(2, [5], [BOX], [1.0])
    ts = TrackSet("s", (t for t in [t1, t2]))
    assert ts.trajectories == (t1, t2)
    assert len(ts) == 2 and ts.num_detections == 2
    with pytest.raises(ValueError):
        TrackSet("s", (t for t in [t1, t1]))


def test_trackset_holds_its_tracks_by_id():
    tracks = [Trajectory(k, [k], [BOX], [1.0]) for k in (1, 2, 5, 9, 30, 31)]
    ordered = TrackSet("s", tracks)
    for seed in range(5):
        shuffled = tracks.copy()
        random.Random(seed).shuffle(shuffled)
        ts = TrackSet("s", shuffled)
        assert [t.id for t in ts.trajectories] == [1, 2, 5, 9, 30, 31]
        assert ts == ordered
    with pytest.raises(ValueError):
        TrackSet("s", [tracks[1], tracks[0], tracks[1]])  # repeats that the order does not make neighbours


def test_trackset_counts():
    t1 = Trajectory(1, [1, 2], [BOX] * 2, [1.0] * 2)
    t2 = Trajectory(2, [5], [BOX], [1.0])
    ts = TrackSet("s", [t1, t2])
    assert len(ts) == 2
    assert ts.num_detections == 3


def test_value_types_pickle_copy_and_stay_frozen():
    box = BoundingBox(1.5, 2.5, 3.0, 4.0)
    det = Detection(3, box, 0.25)
    traj = Trajectory(4, [3, 5], [(1.5, 2.5, 3.0, 4.0)] * 2, [0.25, 1.0])
    ts = TrackSet("seq", [traj])
    for value, field in [(box, "x"), (det, "frame"), (traj, "id"), (ts, "sequence")]:
        assert not hasattr(value, "__dict__")  # slotted
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert clone == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))


def _track(track_id=1, frame=(1, 2, 4), x=0.0, conf=0.5):
    xywh = [(x + f, 2.0, 10.0, 5.0) for f in frame]
    return Trajectory(track_id, list(frame), xywh, [conf] * len(frame))


def test_trajectory_columns_are_read_only_and_survive_pickle_and_copy():
    traj = _track()
    assert traj.frame.dtype == np.int64 and traj.xywh.shape == (3, 4) and traj.conf.shape == (3,)
    clones = [pickle.loads(pickle.dumps(traj)), copy.copy(traj), copy.deepcopy(traj), traj.with_id(1)]
    for value in [traj, *clones]:
        assert value == traj
        for column in (value.frame, value.xywh, value.conf):
            with pytest.raises(ValueError):
                column[0] = 9
    assert traj.frame.tolist() == [1, 2, 4]


def test_trajectory_copies_the_columns_it_is_given():
    frame, xywh, conf = np.array([1, 2]), np.ones((2, 4)), np.ones(2)
    traj = Trajectory(1, frame, xywh, conf)
    frame[0], xywh[0, 0], conf[0] = 5, 7.0, 0.0
    assert traj.frame.tolist() == [1, 2] and traj.xywh[0, 0] == 1.0 and traj.conf[0] == 1.0


def test_trajectory_equality_compares_id_and_columns_exactly():
    traj = _track()
    assert traj == _track()
    assert traj != _track(track_id=2)
    assert traj != _track(frame=(1, 2, 5))
    assert traj != _track(conf=0.25)
    nudged = traj.xywh.copy()
    nudged[2, 1] = np.nextafter(nudged[2, 1], np.inf)  # one ulp
    assert traj != Trajectory(1, traj.frame, nudged, traj.conf)
    assert traj != "not a trajectory"


@pytest.mark.parametrize(
    "frame,xywh,conf",
    [
        ([2, 1], [(0, 0, 1, 1)] * 2, [1, 1]),  # not ascending
        ([1, 1], [(0, 0, 1, 1)] * 2, [1, 1]),  # repeated frame
        ([0], [(0, 0, 1, 1)], [1]),  # frame below 1
        ([1], [(0, 0, 0, 1)], [1]),  # zero width
        ([1], [(math.nan, 0, 1, 1)], [1]),  # non-finite
        ([1], [(0, 0, 1, 1)], [1.5]),  # confidence above 1
        ([1, 2], [(0, 0, 1, 1)], [1, 1]),  # column lengths differ
        ([1, 2**53], [(0, 0, 1, 1)] * 2, [1, 1]),  # frame the parser cannot read back
        # frames out of range between the first and the last, or wrapped by the int64 cast;
        # their int64 differences wrap to positive values
        (np.array([1, 2**62, -(2**63)]), np.ones((3, 4)), np.ones(3)),
        (np.array([1, 2**63], dtype=np.uint64), [(0, 0, 1, 1)] * 2, [1, 1]),
        (np.array([5, 2**63 + 3], dtype=np.uint64), [(0, 0, 1, 1)] * 2, [1, 1]),
        ([1], [(0, 0, np.nextafter(0.005, 0), 1)], [1]),  # width written as 0.00
        ([1], [(0, 0, 1, np.nextafter(0.005, 0))], [1]),  # height written as 0.00
        ([1], [(PAST, 0, 1, 1)], [1]),  # box values past 2**44
        ([1], [(-PAST, 0, 1, 1)], [1]),
        ([1], [(0, PAST, 1, 1)], [1]),
        ([1], [(0, -PAST, 1, 1)], [1]),
        ([1], [(0, 0, PAST, 1)], [1]),
        ([1], [(0, 0, 1, PAST)], [1]),
        ([1.5, 2.7], [(0, 0, 1, 1)] * 2, [1, 1]),  # a cast would truncate them to 1, 2
        (np.array([1.0, 2.0]), [(0, 0, 1, 1)] * 2, [1, 1]),  # float frames, even whole ones
        ([1, 2.0], [(0, 0, 1, 1)] * 2, [1, 1]),
    ],
)
def test_trajectory_rejects_invalid_columns(frame, xywh, conf):
    with pytest.raises(ValueError):
        Trajectory(1, frame, xywh, conf)


def test_trajectory_frame_error_shows_the_frames_as_given():
    with pytest.raises(ValueError, match=r"^frames must be in \[1, 2\*\*53\), got 1 to 9223372036854775808$"):
        Trajectory(1, np.array([1, 2**63], dtype=np.uint64), [(0, 0, 1, 1)] * 2, [1, 1])


def test_trajectory_ids_stay_below_2_to_the_53():
    traj = _track()
    # the writer would write 1.5 as id 1, next to a real id 1 that the reader then rejects
    for bad_id in (2**53, 0, 1.5, 2.5, 2.0, np.float64(3.0), "4"):
        with pytest.raises(ValueError):
            traj.with_id(bad_id)
        with pytest.raises(ValueError):
            Trajectory(bad_id, traj.frame, traj.xywh, traj.conf)


def test_smallest_accepted_trajectory_reads_back():
    # 0.005 is the smallest double that two decimals write as 0.01
    last = 2**53 - 1
    traj = Trajectory(last, [1, last], [(0, 0, 0.005, 0.005)] * 2, [1, 1])
    (again,) = parse_trackset(serialize_trackset(TrackSet("s", [traj]))).trajectories
    assert again.id == last and again.frame.tolist() == [1, last]
    assert (again.xywh[:, 2:] == 0.01).all()


def test_trajectory_accepts_box_values_at_the_bound():
    xywh = [[MAX_COORD, -MAX_COORD, MAX_COORD, 0.005], [-MAX_COORD, MAX_COORD, 0.005, MAX_COORD]]
    traj = Trajectory(1, [1, 2], xywh, [1, 1])
    assert traj.xywh.tolist() == xywh
    assert serialize_trackset(TrackSet("s", [traj])).splitlines() == [
        "1,1,17592186044416.00,-17592186044416.00,17592186044416.00,0.01,1.00,-1,-1,-1",
        "2,1,-17592186044416.00,17592186044416.00,0.01,17592186044416.00,1.00,-1,-1,-1",
    ]


def test_detections_mapping_is_built_from_the_columns(monkeypatch):
    traj = _track()

    def no_detection(*args, **kwargs):
        raise AssertionError("a per-box Detection was built")

    # counting boxes and listing frames read the columns only
    monkeypatch.setattr(trackfuse.model, "Detection", no_detection)
    assert len(traj.detections) == 3 and list(traj.detections) == [1, 2, 4]
    monkeypatch.undo()
    assert traj.detections[4] == Detection(4, BoundingBox(4.0, 2.0, 10.0, 5.0), 0.5)
    assert 3 not in traj.detections
    assert traj.detections is traj.detections
    dets = list(traj.detections.values())
    assert [d.frame for d in dets] == traj.frame.tolist()
    assert [[d.box.x, d.box.y, d.box.w, d.box.h] for d in dets] == traj.xywh.tolist()
    assert [d.confidence for d in dets] == traj.conf.tolist()


def test_stage_outputs_have_read_only_columns():
    a, b = parse_trackset("1,1,0,0,10,10,1\n3,1,2,0,10,10,1\n1,2,1,0,10,10,1\n").trajectories
    outputs = [a, b, *mix([TrackSet("s", [a, b])]), merge_group([a, b], MergeMode.AVERAGE),
               linear_interpolate(a, 5), *length_nms([a, b], 0.1)]
    for traj in outputs:
        for column in (traj.frame, traj.xywh, traj.conf):
            assert not column.flags.writeable
