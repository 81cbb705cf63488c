import random

import pytest

from trackfuse import ParseError, load_trackset, parse_trackset, save_trackset, serialize_trackset

from oracles import random_trackset


def test_parse_two_line_result():
    text = "1,1,10,20,30,40,0.9,-1,-1,-1\n2,1,11,21,30,40,0.8,-1,-1,-1"
    ts = parse_trackset(text)
    assert len(ts) == 1
    traj = ts.trajectories[0]
    assert traj.id == 1
    assert traj.start == 1 and traj.stop == 2
    assert traj.detections[1].box.x == 10
    assert traj.detections[2].confidence == 0.8


def test_parse_empty_input():
    assert len(parse_trackset("")) == 0
    assert len(parse_trackset("\n  \n")) == 0


def test_parse_groups_by_id_and_sorts_frames():
    text = "5,2,0,0,10,10,1\n1,2,0,0,10,10,1\n3,1,0,0,10,10,1"
    ts = parse_trackset(text)
    assert [t.id for t in ts.trajectories] == [1, 2]
    assert ts.trajectories[1].frames() == [1, 5]


def test_parse_short_line_defaults_confidence():
    ts = parse_trackset("1,1,10,20,30,40")
    assert ts.trajectories[0].detections[1].confidence == 1.0


def test_parse_negative_confidence_means_unset():
    ts = parse_trackset("1,1,10,20,30,40,-1,-1,-1,-1")
    assert ts.trajectories[0].detections[1].confidence == 1.0


def test_parse_clamps_confidence_above_one():
    ts = parse_trackset("1,1,10,20,30,40,3.7")
    assert ts.trajectories[0].detections[1].confidence == 1.0


def test_parse_tolerates_spaces_and_trailing_commas():
    ts = parse_trackset(" 1 , 1 , 10, 20, 30, 40, 0.5 ,\n")
    assert ts.trajectories[0].detections[1].confidence == 0.5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1,1,10,20,-5,40,1,-1,-1,-1", "width"),
        ("1,1,10,20,30,0,1", "height"),
        # two decimals cannot write a positive size below 0.01
        ("1,1,10,20,0.004,40,1", "width"),
        ("1,1,10,20,0.009,40,1", "width"),
        ("1,1,10,20,30,0.009,1", "height"),
        ("0,1,10,20,30,40,1", "frame"),
        ("1,0,10,20,30,40,1", "id"),
        ("1.5,1,10,20,30,40,1", "frame"),
        ("1,1,ten,20,30,40,1", "malformed"),
        ("1,1,10,20,30", "columns"),
        ("1,1,nan,20,30,40,1", "finite"),
    ],
)
def test_parse_errors_carry_line_number(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_trackset(text)
    assert exc_info.value.line_no == 1
    assert "line 1" in str(exc_info.value)
    assert fragment in str(exc_info.value)


def test_parse_duplicate_frame_id_pair_rejected():
    text = "1,1,10,20,30,40,1\n2,1,10,20,30,40,1\n1,1,99,99,30,40,1"
    with pytest.raises(ParseError) as exc_info:
        parse_trackset(text)
    assert exc_info.value.line_no == 3
    assert "duplicate" in str(exc_info.value)


def test_parse_ground_truth_skips_inactive_rows():
    text = "1,1,10,20,30,40,0,1,1\n2,1,10,20,30,40,1,1,1\n3,2,10,20,30,40,1,7,0.4"
    ts = parse_trackset(text, is_ground_truth=True)
    assert [t.id for t in ts.trajectories] == [1, 2]
    assert ts.trajectories[0].frames() == [2]  # the flag-0 row is gone
    # class and visibility columns are ignored, confidence forced to 1
    assert ts.trajectories[1].detections[3].confidence == 1.0


def test_serialize_sorts_by_frame_then_id():
    ts = parse_trackset("3,1,0,0,10,10,1\n1,1,0,0,10,10,1\n1,2,5,5,10,10,1")
    lines = serialize_trackset(ts).splitlines()
    assert [line.split(",")[:2] for line in lines] == [["1", "1"], ["1", "2"], ["3", "1"]]


def test_serialize_empty_trackset():
    assert serialize_trackset(parse_trackset("")) == ""


def test_serialize_format():
    ts = parse_trackset("1,1,10,20,30,40,0.9,-1,-1,-1")
    assert serialize_trackset(ts) == "1,1,10.00,20.00,30.00,40.00,0.90,-1,-1,-1\n"


def test_round_trip_is_stable_after_one_pass():
    rng = random.Random(123)
    for _ in range(20):
        ts = random_trackset(rng)
        once = serialize_trackset(ts)
        again = serialize_trackset(parse_trackset(once))
        assert once == again


def test_round_trip_preserves_values_within_precision():
    rng = random.Random(5)
    for _ in range(10):
        ts = random_trackset(rng)
        parsed = parse_trackset(serialize_trackset(ts))
        assert len(parsed) == len(ts)
        by_id = {t.id: t for t in parsed.trajectories}
        for traj in ts.trajectories:
            other = by_id[traj.id]
            assert other.frames() == traj.frames()
            for f, det in traj.detections.items():
                box, other_box = det.box, other.detections[f].box
                for a, b in zip(
                    (box.x, box.y, box.w, box.h), (other_box.x, other_box.y, other_box.w, other_box.h)
                ):
                    assert abs(a - b) <= 0.005


def test_load_and_save(tmp_path):
    path = tmp_path / "seq01.txt"
    path.write_text("1,1,10,20,30,40,0.9,-1,-1,-1\n")
    ts = load_trackset(path)
    assert ts.sequence == "seq01"
    out = tmp_path / "out.txt"
    save_trackset(out, ts)
    assert out.read_text() == "1,1,10.00,20.00,30.00,40.00,0.90,-1,-1,-1\n"
