import itertools
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse.io
from trackfuse.model import MAX_COORD
from trackfuse import (
    EnsembleConfig,
    MergeMode,
    ParseError,
    TrackSet,
    Trajectory,
    ensemble_pipeline,
    load_trackset,
    parse_trackset,
    save_trackset,
    serialize_trackset,
)

from trackfuse.synth import DEFAULT_DEGRADATION, ScenarioSpec, generate_scenario

from oracles import parse_trackset_scalar, random_trackset, serialize_trackset_scalar

# the float64 just past the bound on box values, and the one just below it
PAST = float(np.nextafter(MAX_COORD, np.inf))
BELOW = float(np.nextafter(MAX_COORD, 0))


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
    assert ts.trajectories[1].frame.tolist() == [1, 5]


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
        # floats stop representing every integer at 2**53
        ("10000000000000000000000,1,10,10,5,5,1", "frame"),
        ("9007199254740992,1,10,20,30,40,1", "frame"),
        ("1,9007199254740992,10,20,30,40,1", "id"),
        ("1,1e300,10,20,30,40,1", "id"),
        # box values past 2**44 in magnitude
        (f"1,1,{PAST},20,30,40,1", f"x={PAST} beyond 2**44"),
        (f"1,1,{-PAST},20,30,40,1", f"x={-PAST} beyond 2**44"),
        (f"1,1,10,{PAST},30,40,1", f"y={PAST} beyond 2**44"),
        (f"1,1,10,{-PAST},30,40,1", f"y={-PAST} beyond 2**44"),
        (f"1,1,10,20,{PAST},40,1", f"w={PAST} beyond 2**44"),
        (f"1,1,10,20,30,{PAST},1", f"h={PAST} beyond 2**44"),
        ("1,1,1e16,inf,30,40,1", "non-finite bounding box field y=inf"),  # before the range
    ],
)
def test_parse_errors_carry_line_number(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_trackset(text)
    assert exc_info.value.line_no == 1
    assert "line 1" in str(exc_info.value)
    assert fragment in str(exc_info.value)


def test_parse_accepts_frames_and_ids_just_below_2_to_the_53():
    ts = parse_trackset("9007199254740991,9007199254740991,10,20,30,40,1")
    assert ts.trajectories[0].id == 2**53 - 1
    assert ts.trajectories[0].frame.tolist() == [2**53 - 1]
    assert serialize_trackset(ts).startswith("9007199254740991,9007199254740991,")


def test_parse_accepts_box_values_at_2_to_the_44():
    m = "17592186044416.00"
    text = f"1,1,{m},-{m},{m},{m},1.00,-1,-1,-1\n2,1,-{m},{m},0.01,0.01,1.00,-1,-1,-1\n"
    ts = parse_trackset(text)
    assert ts.trajectories[0].xywh.tolist() == [
        [MAX_COORD, -MAX_COORD, MAX_COORD, MAX_COORD], [-MAX_COORD, MAX_COORD, 0.01, 0.01]
    ]
    assert serialize_trackset(ts) == text


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
    assert ts.trajectories[0].frame.tolist() == [2]  # the flag-0 row is gone
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


# Signed zero, binary values half a unit of the last written place away from
# two neighbours, and box values at and just below the bound.
WRITER_VALUES = [-0.0, 0.0, 0.125, 2.675, 1.005, 0.005, MAX_COORD, -MAX_COORD, BELOW, 123.456]


def _writer_edge_trackset() -> TrackSet:
    """Every writer value as x, y, w and h, and frames and ids up to 2**53 - 1."""
    big = 2**53 - 1
    confidences = [-0.0, 0.0, 0.125, 0.005, 0.675, 1.0]
    tracks = []
    for k, value in enumerate(WRITER_VALUES):
        size = abs(value) or 0.125  # sizes must be positive
        xywh = np.array([[value, -value, size, 1.005], [2.675, value, 0.125, size]])
        conf = np.array([confidences[k % 6], confidences[(k + 1) % 6]])
        tracks.append(Trajectory(big - k, np.array([k + 1, big]), xywh, conf))
    return TrackSet("s", tracks)


@pytest.mark.parametrize("block", [1, 3, trackfuse.io.ROW_BLOCK])
def test_writer_matches_per_box_format_oracle(monkeypatch, block):
    monkeypatch.setattr(trackfuse.io, "ROW_BLOCK", block)
    edge = _writer_edge_trackset()
    text = serialize_trackset(edge)
    assert text == serialize_trackset_scalar(edge)
    lines = text.splitlines()
    big = 2**53 - 1
    assert lines[0] == f"1,{big},-0.00,0.00,0.12,1.00,-0.00,-1,-1,-1"
    assert lines[3] == f"4,{big - 3},2.67,-2.67,2.67,1.00,0.01,-1,-1,-1"
    assert lines[6].startswith(f"7,{big - 6},17592186044416.00,-17592186044416.00,")
    assert lines[8].startswith(f"9,{big - 8},17592186044416.00,-17592186044416.00,")  # carried up
    assert lines[-1] == f"{big},{big},2.67,-0.00,0.12,0.12,0.00,-1,-1,-1"
    rng = random.Random(17)
    for _ in range(10):
        ts = random_trackset(rng)
        assert serialize_trackset(ts) == serialize_trackset_scalar(ts)


# -- the writer rounds as `%` does ---------------------------------------------

# Every value half a cent from two written neighbours, up to 200.00, with the
# float64 on either side of it. `%` rounds their exact binary values, which
# lie just above, just below or, for multiples of 1/8, exactly at the half.
_HALF_CENTS = (np.arange(2 * 10**4) + 0.5) / 100
HALF_CENT_SWEEP = np.concatenate(
    [_HALF_CENTS, np.nextafter(_HALF_CENTS, np.inf), np.nextafter(_HALF_CENTS, -np.inf)]
)


def _one_row_per_value(values) -> TrackSet:
    """Frame k holds value k as x and negated as y, |value| (at least 0.005) as w and h."""
    values = np.asarray(values, dtype=np.float64)
    sizes = np.maximum(np.abs(values), 0.005)
    unit = np.abs(values[np.abs(values) <= 1])
    conf = np.resize(unit, len(values)) if len(unit) else np.full(len(values), 0.5)
    xywh = np.column_stack([values, -values, sizes, sizes])
    return TrackSet("s", [Trajectory(1, np.arange(1, len(values) + 1), xywh, conf)])


def _assert_writes_as_percent(ts: TrackSet) -> None:
    """The written text equals the per-box writer's, and each value equals its ``'%.2f'``."""
    text = serialize_trackset(ts)
    assert text == serialize_trackset_scalar(ts)
    (traj,) = ts.trajectories
    written = [line.split(",")[2:7] for line in text.splitlines()]
    values = np.column_stack([traj.xywh, traj.conf]).tolist()
    assert written == [["%.2f" % v for v in row] for row in values]


@pytest.mark.parametrize("block", [1, 3, trackfuse.io.ROW_BLOCK])
def test_writer_rounds_half_cent_neighbours_as_percent(monkeypatch, block):
    # ROW_BLOCK only changes how many lines share one layout, so the small
    # blocks, at about 0.1 ms a line, take every 41st value
    monkeypatch.setattr(trackfuse.io, "ROW_BLOCK", block)
    _assert_writes_as_percent(_one_row_per_value(HALF_CENT_SWEEP[:: 1 if block > 3 else 41]))


@pytest.mark.parametrize("block", [1, 3, trackfuse.io.ROW_BLOCK])
def test_writer_signs_and_range_bound(monkeypatch, block):
    monkeypatch.setattr(trackfuse.io, "ROW_BLOCK", block)
    zeros = _one_row_per_value([-0.0, 0.0, -0.004, 0.004, -0.005, 0.005])
    assert serialize_trackset(zeros).splitlines()[:3] == [
        "1,1,-0.00,0.00,0.01,0.01,0.00,-1,-1,-1",
        "2,1,0.00,-0.00,0.01,0.01,0.00,-1,-1,-1",
        "3,1,-0.00,0.00,0.01,0.01,0.00,-1,-1,-1",
    ]
    _assert_writes_as_percent(zeros)
    ordinary = [12.345, 0.125, 2.675, 199.995, 7.0]
    for edge in (BELOW, MAX_COORD):
        # alone, then in one block with ordinary rows, first and last
        for values in ([edge], [edge, *ordinary], [*ordinary, edge, 3.5]):
            _assert_writes_as_percent(_one_row_per_value(values))


def _digit_count_trackset() -> TrackSet:
    """Frames and ids of every digit count from 1 to 16: the first and last of each, up to 2**53 - 1."""
    edges = sorted({v for d in range(1, 17) for v in (10 ** (d - 1), min(10**d - 1, 2**53 - 1))})
    xywh = np.tile([1.005, -2.675, 0.125, 10.0], (len(edges), 1))
    return TrackSet("s", [Trajectory(i, edges, xywh, np.full(len(edges), 0.5)) for i in edges])


@pytest.mark.parametrize("block", [1, 3, trackfuse.io.ROW_BLOCK])
def test_writer_frames_and_ids_of_every_digit_count(monkeypatch, block):
    monkeypatch.setattr(trackfuse.io, "ROW_BLOCK", block)
    ts = _digit_count_trackset()
    text = serialize_trackset(ts)
    assert text == serialize_trackset_scalar(ts)
    assert len(text.splitlines()) == 32 * 32
    assert text.splitlines()[-1].startswith(f"{2**53 - 1},{2**53 - 1},1.00,-2.67,0.12,10.00,0.50,")


_coordinate = st.floats(-MAX_COORD, MAX_COORD)
_index = st.one_of(st.integers(1, 12), st.integers(1, 2**53 - 1))


@st.composite
def finite_trackset(draw) -> TrackSet:
    """Boxes at any coordinates up to 2**44 in magnitude, sizes in [0.005, 2**44] and any confidence."""
    boxes = draw(st.dictionaries(
        st.tuples(_index, _index),
        st.tuples(_coordinate, _coordinate, st.floats(0.005, MAX_COORD), st.floats(0.005, MAX_COORD),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=30,
    ))
    by_id: dict = {}
    for (frame, track_id), box in sorted(boxes.items()):
        by_id.setdefault(track_id, []).append((frame, box))
    return TrackSet("s", [
        Trajectory(track_id, [f for f, _ in rows], [b[:4] for _, b in rows], [b[4] for _, b in rows])
        for track_id, rows in by_id.items()
    ])


@settings(max_examples=300)
@given(finite_trackset(), st.sampled_from([1, 3, trackfuse.io.ROW_BLOCK]))
def test_writer_matches_per_box_writer_on_finite_coordinates(ts, block):
    with mock.patch.object(trackfuse.io, "ROW_BLOCK", block):
        assert serialize_trackset(ts) == serialize_trackset_scalar(ts)


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
            assert other.frame.tolist() == traj.frame.tolist()
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


@pytest.mark.parametrize("is_ground_truth", [False, True])
def test_byte_order_mark_is_skipped(tmp_path, is_ground_truth):
    text = "1,1,10,20,30,40,1,-1,-1,-1\n2,1,11,20,30,40,0,-1,-1,-1\n1,2,50,20,30,40,1,-1,-1,-1\n"
    plain, marked = tmp_path / "plain" / "seq.txt", tmp_path / "marked" / "seq.txt"
    plain.parent.mkdir()
    marked.parent.mkdir()
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    loaded = load_trackset(marked, is_ground_truth)
    assert loaded == load_trackset(plain, is_ground_truth)
    assert loaded.num_detections == (2 if is_ground_truth else 3)  # the flag-0 row is skipped
    out = tmp_path / "out.txt"
    save_trackset(out, loaded)
    assert not out.read_bytes().startswith(b"\xef\xbb\xbf")  # the writer adds none


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize(
    "second,message",
    [(b"\xff,2", "expected at least 6 columns, got 2"), (b"2,1,10,10,5,5\xff", r"malformed number '5\udcff'")],
)
def test_bytes_that_are_not_utf8_fail_as_their_line(tmp_path, mark, second, message):
    path = tmp_path / "seq.txt"
    path.write_bytes(mark + b"1,1,10,10,5,5,1\n" + second + b"\n")
    with pytest.raises(ParseError) as exc_info:
        load_trackset(path)
    assert exc_info.value.line_no == 2
    assert str(exc_info.value) == f"line 2: {message}"


# -- the columnar parser against the per-line oracle --------------------------

INDEX = st.integers(1, 6).map(str)
ODD_INDEX = st.sampled_from(
    ["0", "-1", "1.5", "2.0", "1e1", "1_0", "+3", " 2 ", "nan", "inf", "1e22",
     "9007199254740991", "9007199254740992"]
)
COORD = st.floats(-50.0, 900.0).map(lambda v: f"{v:.3f}")
SIZE = st.floats(0.01, 80.0).map(lambda v: f"{v:.3f}")
ODD_NUMBER = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-0.0", "0", "1e1", "1_0", "0.01", "0.0099", "0.004",
     "17592186044416", "-17592186044416.004"]
)
SEVENTH = st.sampled_from(["-1", "0", "0.5", "1", "1.7", "-0.0", "nan", "inf", "-inf"])
MALFORMED = st.sampled_from(["", "x", "1..2", "0x10", "1 2", "--1", "_1", "1_", "nan1"])
# Integer literals, which numpy's reader reads into an int64 frame, id or
# past-the-seventh column when the first line holds one there, and into a
# float64 column elsewhere: a zero of either sign, a leading zero, a float
# that rounds the integer, and one past int64. Per column, those a valid
# line may hold: frames, ids and sizes are positive, box values within 2**44.
INTEGER = ["0", "-0", "007", "12", "-12", "9007199254740993", "9223372036854775808"]
VALID_INTEGER = [["007", "12"]] * 2 + [INTEGER[:5]] * 2 + [["007", "12"]] * 2 + [INTEGER] * 4


INT_COORD = st.one_of(st.integers(-50, 900).map(str), st.sampled_from(["0", "-0"]))
INT_SIZE = st.integers(1, 80).map(str)


@st.composite
def mot_line(draw, odd: bool, integral: bool = False) -> str:
    """One result or ground-truth line of 6 to 10 columns; an ``integral`` one of integer literals."""
    if integral:
        tokens = [draw(INDEX), draw(INDEX), draw(INT_COORD), draw(INT_COORD), draw(INT_SIZE), draw(INT_SIZE),
                  draw(st.sampled_from(["-1", "0", "-0", "1"]))]
    else:
        tokens = [draw(INDEX), draw(INDEX), draw(COORD), draw(COORD), draw(SIZE), draw(SIZE), draw(SEVENTH)]
    tokens = (tokens + ["-1"] * 3)[: draw(st.integers(6, 10))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(INTEGER if odd else VALID_INTEGER[at]))
    if odd and draw(st.booleans()):
        at = draw(st.sampled_from([0, 1, *range(len(tokens))]))
        tokens[at] = draw(st.one_of(ODD_INDEX if at < 2 else ODD_NUMBER, MALFORMED))
    if odd and draw(st.integers(0, 9)) == 0:
        tokens = tokens[: draw(st.integers(1, 5))]  # too few columns
    spaces = st.sampled_from(["", "", " ", "  "])
    line = ",".join(draw(spaces) + t + draw(spaces) for t in tokens)
    return line + "," * draw(st.sampled_from([0, 0, 1, 2]))


@st.composite
def mot_text(draw) -> str:
    """Lines with blank ones between them; ``odd`` texts also hold bad tokens.

    An ``integral`` text opens with a line of integer literals and holds
    more of them, with lines of floats in the same columns among them.
    Each line but the last ends in a break of its own, drawn from those
    numpy's reader takes and others that splitlines breaks at.
    """
    odd, integral = draw(st.booleans()), draw(st.booleans())
    line = st.one_of(mot_line(odd, True), mot_line(odd, True), mot_line(odd)) if integral else mot_line(odd)
    lines = draw(st.lists(st.one_of(line, st.sampled_from(["", "  "])), max_size=40))
    if integral:
        lines = [draw(mot_line(False, True)), *lines]
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85"])
    return "".join(line + draw(breaks) for line in lines[:-1]) + "".join(lines[-1:])


def _outcome(parse, text, is_ground_truth):
    try:
        return parse(text, is_ground_truth)
    except ParseError as exc:
        return exc.line_no, str(exc)


def _columns(ts: TrackSet) -> list:
    """Ids and the exact bytes of every column."""
    return [(t.id, t.frame.tobytes(), t.xywh.tobytes(), t.conf.tobytes()) for t in ts.trajectories]


def _assert_parses_like_oracle(text, is_ground_truth):
    """The same track set bit for bit as the per-line parser, or its ParseError line and message."""
    expected = _outcome(parse_trackset_scalar, text, is_ground_truth)
    got = _outcome(parse_trackset, text, is_ground_truth)
    assert got == expected
    if isinstance(expected, TrackSet):
        assert _columns(got) == _columns(expected)


@settings(max_examples=400)
@given(mot_text(), st.booleans(), st.sampled_from([1, 7, 64, trackfuse.io.TEXT_BLOCK]))
def test_parser_matches_per_line_oracle(text, is_ground_truth, block):
    with mock.patch.object(trackfuse.io, "TEXT_BLOCK", block):
        _assert_parses_like_oracle(text, is_ground_truth)


@st.composite
def integer_text(draw) -> str:
    """Valid lines of integer literals, one a frame, zeros of either sign among them, and now and then a float."""
    lines = []
    for frame in range(1, draw(st.integers(1, 30)) + 1):
        tokens = [str(frame), "1", draw(INT_COORD), draw(INT_COORD), draw(INT_SIZE), draw(INT_SIZE),
                  draw(st.sampled_from(["-1", "0", "-0", "1"])), "-1", "-1", "-1"]
        if draw(st.integers(0, 7)) == 0:
            at = draw(st.integers(2, 9))
            tokens[at] = draw(SIZE if 4 <= at < 6 else COORD)
        lines.append(",".join(tokens))
    return "\n".join(lines)


@settings(max_examples=200)
@given(integer_text(), st.booleans(), st.sampled_from([1, 7, 64, trackfuse.io.TEXT_BLOCK]))
def test_integer_columns_match_per_line_oracle(text, is_ground_truth, block):
    with mock.patch.object(trackfuse.io, "TEXT_BLOCK", block):
        _assert_parses_like_oracle(text, is_ground_truth)


def test_parser_oracle_sees_flag_zero_duplicates_and_errors():
    """Fixed cases the generator may not draw: a flag-0 row never counts as a duplicate."""
    gt = "1,1,0,0,10,10,0\n1,1,0,0,10,10,1\n1,1,5,5,10,10,0\n"
    assert parse_trackset(gt, is_ground_truth=True) == parse_trackset_scalar(gt, is_ground_truth=True)
    assert len(parse_trackset(gt, is_ground_truth=True).trajectories[0].frame) == 1
    for text, is_gt in [
        (gt + "1,1,0,0,10,10,1\n", True),  # duplicate of line 2
        ("1,1,0,0,10,10,nan\n1,1,0,0,10,10,1\n", False),  # bad confidence first
        ("1,1,0,0,10,10,1\n1,1,inf,0,10,10,1\n", False),  # duplicate before non-finite x
        ("1,1,0,0,10,10,1\n2,1,0,0,10,10,1,\n\n2,1,0,0,10,10,1,x\n", False),
    ]:
        expected = _outcome(parse_trackset_scalar, text, is_gt)
        assert isinstance(expected, tuple)
        assert _outcome(parse_trackset, text, is_gt) == expected


def _mot17_ground_truth() -> str:
    """MOT17-style ground truth by id, then frame: integer boxes, flags 0 and 1, class ids, a float visibility.

    The first line's visibility is a float, and later ones are written ``1``
    when the box is fully visible. About 70 KiB, so several plain blocks.
    """
    rng = random.Random(17)
    lines = []
    for track_id in range(1, 9):
        flag, cls = (1, 1) if track_id % 4 else (0, rng.choice([2, 7, 8, 12]))
        for frame in range(1, 301):
            x, y, w, h = rng.randint(-30, 1900), rng.randint(-30, 1050), rng.randint(1, 200), rng.randint(1, 400)
            visibility = "1" if lines and rng.random() < 0.3 else f"{rng.random():.5f}"
            lines.append(f"{frame},{track_id},{x},{y},{w},{h},{flag},{cls},{visibility}\n")
    return "".join(lines)


@pytest.mark.parametrize("is_ground_truth", [False, True])
def test_mot17_ground_truth_reads_integer_columns_once_per_block(is_ground_truth):
    for lead in ["", "\n", "\r\n"]:  # the integer columns come from the first line with data
        text = lead + _mot17_ground_truth()
        blocks = list(trackfuse.io._blocks(text))
        assert len(blocks) > 3
        record = trackfuse.io._record(text)
        assert _int64_columns(record) == [0, 1, 7]  # frame, id and class
        with mock.patch.object(trackfuse.io.np, "loadtxt", wraps=np.loadtxt) as reader:
            parse_trackset(text, is_ground_truth)
        # integer boxes and flags go to float64 columns: no block is read again
        assert reader.call_count == len(blocks)
        assert all(call.kwargs["dtype"] == record for call in reader.call_args_list)
        _assert_parses_like_oracle(text, is_ground_truth)


def _int64_columns(record: np.dtype) -> list:
    """The columns that ``record`` reads as int64, counted from 0."""
    return [j for j, name in enumerate(record.names) if record[name] == np.int64]


def _seed_tracker_text() -> str:
    """The benchmark's bands tracker 1 at seed 7: about 520 KiB of result lines."""
    _, trackers = generate_scenario(ScenarioSpec(20, 600, 800, 600, 7, (DEFAULT_DEGRADATION,) * 3))
    return serialize_trackset(trackers[0])


def test_windows_line_ends_read_as_plain_blocks():
    text = _seed_tracker_text()
    crlf = text.replace("\n", "\r\n")
    with mock.patch.object(trackfuse.io, "_tokenize", wraps=trackfuse.io._tokenize) as tokenize:
        parsed = parse_trackset(crlf)
    assert tokenize.call_count == 0  # every block went to numpy's reader
    assert _columns(parsed) == _columns(parse_trackset(text))
    lines = text.splitlines(keepends=True)
    for at, bad in [(1, "2,1,10,20,0.001,40,1"), (len(lines) // 2, "7,1,10,20,30,40,x"), (len(lines) - 1, "1.5,1,10,20,30,40")]:
        broken = "".join([*lines[:at], bad + "\n", *lines[at + 1 :]])
        expected = _outcome(parse_trackset, broken, False)
        assert expected[0] == at + 1
        assert _outcome(parse_trackset, broken.replace("\n", "\r\n"), False) == expected


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_empty_lines_in_a_plain_block_are_read_once(end, is_ground_truth):
    text = (end * 2).join(_lines(range(1, 4))) + end
    with mock.patch.object(trackfuse.io, "_tokenize", wraps=trackfuse.io._tokenize) as tokenize:
        parsed = parse_trackset(text, is_ground_truth)
    assert tokenize.call_count == 0  # numpy's reader skipped the empty lines
    assert _columns(parsed) == _columns(parse_trackset_scalar(text, is_ground_truth))
    broken = text + end + "4,1,10,20,0.001,40,0.5,-1,-1,-1" + end
    expected = (7, "line 7: box width 0.001 below 0.01")
    assert _outcome(parse_trackset, broken, is_ground_truth) == expected
    assert _outcome(parse_trackset_scalar, broken, is_ground_truth) == expected


@pytest.mark.parametrize("is_ground_truth", [False, True])
def test_a_block_opening_with_an_empty_line_is_read_once(monkeypatch, is_ground_truth):
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", 64)
    text = "\n\n".join(_lines(range(1, 41))) + "\n"
    blocks = list(trackfuse.io._blocks(text))
    assert sum(block.startswith("\n") for block in blocks) > len(blocks) // 2
    with mock.patch.object(trackfuse.io.np, "loadtxt", wraps=np.loadtxt) as reader:
        parsed = parse_trackset(text, is_ground_truth)
    # the record's width comes from the first line with data: no block is read again
    assert reader.call_count == len(blocks)
    assert _columns(parsed) == _columns(parse_trackset_scalar(text, is_ground_truth))


# -- whatever the pipeline writes reads back -----------------------------------


@st.composite
def valid_text(draw) -> str:
    """Valid result text: up to 5 tracks of boxes in a 60-pixel arena, 3 decimals."""
    lines = []
    for track_id in range(1, draw(st.integers(1, 5)) + 1):
        frames = draw(st.sets(st.integers(1, 40), min_size=1, max_size=25))
        for f in sorted(frames):
            x, y = draw(st.floats(0, 60)), draw(st.floats(0, 60))
            w, h = draw(st.floats(0.01, 30)), draw(st.floats(0.01, 30))
            conf = draw(st.floats(0, 1))
            lines.append(f"{f},{track_id},{x:.3f},{y:.3f},{w:.3f},{h:.3f},{conf:.3f},-1,-1,-1")
    return "\n".join(lines)


@settings(max_examples=150)
@given(
    st.lists(valid_text(), min_size=1, max_size=3),
    st.sampled_from(list(MergeMode)),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.sampled_from([None, 1, 5]),
)
def test_fused_output_reads_back_within_half_a_unit(texts, mode, thr, max_gap):
    inputs = [parse_trackset(text) for text in texts]
    cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=max(thr, 0.3), thr_len=0, merge_mode=mode,
                         max_gap=max_gap)
    fused = ensemble_pipeline(inputs, cfg)
    back = parse_trackset(serialize_trackset(fused))
    assert [t.id for t in back.trajectories] == sorted(t.id for t in fused.trajectories)
    by_id = {t.id: t for t in fused.trajectories}
    for t in back.trajectories:
        before = by_id[t.id]
        assert np.array_equal(t.frame, before.frame)
        # half a unit of the second decimal, plus the binary representation error
        assert np.abs(t.xywh - before.xywh).max() <= 0.005 + 1e-9
        assert np.abs(t.conf - before.conf).max() <= 0.005 + 1e-9


# Box values at the bound and their lower neighbours, and the smallest size.
BOUND_VALUES = st.sampled_from([MAX_COORD, -MAX_COORD, BELOW, -BELOW])
BOUND_SIZES = st.sampled_from([0.005, MAX_COORD, BELOW])


@st.composite
def bound_trackset(draw) -> TrackSet:
    """Up to 4 tracks over 8 frames with box values at the bound and sizes down to 0.005."""
    tracks = []
    for track_id in range(1, draw(st.integers(1, 4)) + 1):
        frames = sorted(draw(st.sets(st.integers(1, 8), min_size=1)))
        xywh = [[draw(BOUND_VALUES), draw(BOUND_VALUES), draw(BOUND_SIZES), draw(BOUND_SIZES)] for _ in frames]
        tracks.append(Trajectory(track_id, frames, xywh, [draw(st.floats(0, 1)) for _ in frames]))
    return TrackSet("s", tracks)


@settings(max_examples=300)
@given(st.lists(bound_trackset(), min_size=1, max_size=3), st.sampled_from([None, 1, 5]))
def test_fused_boxes_at_the_bound_stay_in_range_and_read_back(inputs, max_gap):
    cfg = EnsembleConfig(thr_s=0.0, thr_t=0.0, thr_nms=1.0, thr_len=0, merge_mode=MergeMode.AVERAGE,
                         max_gap=max_gap)
    fused = ensemble_pipeline(inputs, cfg)
    back = {t.id: t for t in parse_trackset(serialize_trackset(fused)).trajectories}
    for t in fused.trajectories:
        assert np.abs(t.xywh).max() <= MAX_COORD
        # half a unit of the second decimal, plus half a float64 step at the value
        assert (np.abs(back[t.id].xywh - t.xywh) <= 0.005 + np.spacing(np.abs(t.xywh)) / 2).all()


# -- numpy's reader and the per-line path meet at block boundaries --------------


def _lines(frames, columns: int = 10) -> list:
    """Valid lines of id 1 at ``frames``, of 6 or 10 columns."""
    return [",".join([str(f), "1", "10", "20", "30", "40", "0.5", "-1", "-1", "-1"][:columns]) for f in frames]


def _in_block(lines: list, k: int) -> int:
    """The index of a line in the middle of block ``k`` (from 1) of the joined ``lines``, at the real block size."""
    middle = (k - 0.5) * trackfuse.io.TEXT_BLOCK
    return next(i for i, end in enumerate(itertools.accumulate(len(line) + 1 for line in lines)) if end > middle)


def _six_between_ten() -> str:
    """Full-size plain blocks of 10-column lines, then of 6-column lines, then of 10-column lines again."""
    return "\n".join(_lines(range(1, 801)) + _lines(range(801, 3001), 6) + _lines(range(3001, 3801))) + "\n"


def _past_the_first_block() -> list:
    """Texts of several full-size plain blocks, each with its first offence in a later block."""
    lines = _lines(range(1, 2501))
    duplicate, thin, flag_zero = lines.copy(), lines.copy(), lines.copy()
    duplicate[_in_block(lines, 4)] = lines[2]  # the first copy is line 3
    thin[_in_block(lines, 3)] = thin[_in_block(lines, 3)].replace(",30,40,", ",0.001,40,")
    flag_zero[_in_block(lines, 2)] = f"{_in_block(lines, 2) + 1},1,inf,20,30,40,0,-1,-1,-1"
    texts = ["\n".join(text) + "\n" for text in (duplicate, thin, flag_zero)] + [_six_between_ten()]
    names = ["duplicate-of-block-1-in-block-4", "width-below-minimum-in-block-3", "flag-0-row-with-inf-x-in-block-2",
             "6-column-blocks-between-10-column-blocks"]
    return [pytest.param(text, id=name) for text, name in zip(texts, names)]


READER_CASES = [
    "",
    "   ",
    "\n\n",
    " \n  \n",
    "1,1,10,20,30,40\n2,1,10,20,30,40\n",  # 6 columns, no column 7
    "1,1,10,20,30,40\n2,1,10,20,30,40,0.5,-1,-1,-1\n3,1,10,20,30,40,0.5\n",  # ragged
    "1,1,10,20,30,40,0.5\n\n2,1,10,20,30,40,0.5\n",  # a blank line
    "1,1,10,20,30,40,0.5\r\n2,1,10,20,30,40,0.5\r\n",
    "1,1,10,20,30,40,0.5\r2,1,10,20,30,40,0.5\r",
    "1,1,.5,5.,30,40,+1\n+2,1,-0,.5e1,30,40,-0\n",
    "1,1,1e400,20,30,40,1\n",
    "1,1,-1e400,20,30,40,1\n",
    "1,1,17592186044416,-17592186044416,30,40,1\n",  # at 2**44: accepted
    "1,1,10,20,30,17592186044416.004,1\n",
    "1,1,1e16,inf,30,40,1\n",
    "1,1,1e16,20,30,40,0\n",  # a flag-0 ground-truth row is not checked
    "1,1,10,20,30,40,nan\n",
    "1,1,nan,20,30,40,1\n",
    "1_0,1,10,20,30,40,1\n",  # float reads 10, numpy's reader refuses it
    "1,1,1_0.5,20,30,40,1\n2,1,10,20,30,40,1\n",
    "١,1,10,20,30,40,1\n",  # an Arabic-Indic digit one, which float reads
    "\ud800,1,10,20,30,40\n",  # a lone surrogate, as surrogateescape decoding leaves
    "  1,1,10,20,30,40,0.5\n2, 1 ,10 ,20,30,40,0.5  \n 3,1,10,20,30,40,0.5 \n",
    "1,1,10,20,30,40,0.5,\n",
    "1,1,10,20,30,40, ,\n",
    "1,1,10,20,30\n2,1,10,20,30,40\n",
    "1,1,10,20,30,40,0.5\n1,1,11,20,30,40,0.5\n",
    "1,1,10,20,30,40,0.5\n2,1,10,20,30,40,0.5",  # no final line break
    # int64 columns from the first line, a zero of either sign, and what makes a block read them again as floats
    "1,1,10,20,30,40,1\n2,1,-0,20,30,40,-0\n",
    "1,1,10,20,30,40,0\n2,1,0,20,30,40,0\n3,1,-00,20,30,40,-5\n",
    "1,1,10,20,30,40\n2,1,10.5,20,30,40\n",
    "1,1,10,20,30,40,1,-1,-1,-1\n2,1,10,20,30,40,1,-1,-1,9223372036854775808\n",
    "1,1,10,20,30,40\n9007199254740993,1,10,20,30,40\n",  # the float of the int64 is 2**53
    "1,1,10,20,30,40\n2,-0,10,20,30,40\n",
    "1,1,10,20,30,40\n2,1,10,20,-0,40\n",
    "1,1,10,20,30,40,0.5\n2,1,10,20,30,40,0.5\n3,1,10,20,30,40,0.5\n" * 40 + "1e,1,10,20,30,40\n",
    *_past_the_first_block(),
]


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [1, trackfuse.io.TEXT_BLOCK])
@pytest.mark.parametrize("text", READER_CASES)
def test_parser_matches_oracle_at_reader_boundaries(monkeypatch, text, block, is_ground_truth):
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", block)
    _assert_parses_like_oracle(text, is_ground_truth)


def _mot17_visible_first() -> str:
    """``_mot17_ground_truth`` with visibility ``1`` on its first line, so that column 9 opens as an integer."""
    first, rest = _mot17_ground_truth().split("\n", 1)
    return first.rpartition(",")[0] + ",1\n" + rest


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [64, trackfuse.io.TEXT_BLOCK])
@pytest.mark.parametrize("make_text,int64", [(_six_between_ten, [0, 1, 7, 8, 9]), (_mot17_visible_first, [0, 1, 7, 8])])
def test_one_record_per_parse_then_its_float64_twin(monkeypatch, make_text, int64, block, is_ground_truth):
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", block)
    text = make_text()
    with mock.patch.object(trackfuse.io.np, "loadtxt", wraps=np.loadtxt) as reader:
        parse_trackset(text, is_ground_truth)
    _assert_parses_like_oracle(text, is_ground_truth)
    calls = reader.call_args_list
    records = [call.kwargs["dtype"] for call in calls]
    record = records[0]
    twin = np.dtype([(name, np.float64) for name in record.names])
    k = records.index(twin)  # a block is refused in both texts
    assert 0 < k and records == [record] * k + [twin] * (len(records) - k)
    # the block that the record refused is read again with the twin
    assert calls[k].args[0].getvalue() == calls[k - 1].args[0].getvalue()
    assert record == trackfuse.io._record(text) and twin == trackfuse.io._record(text, integer=False)
    assert _int64_columns(record) == int64


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [64, trackfuse.io.TEXT_BLOCK])
def test_short_line_opening_a_later_plain_block_is_named(monkeypatch, block, is_ground_truth):
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", block)
    # the valid lines up to the first block end past line 400, then a line of 5 columns
    lines = _lines(range(1, 2001))
    ends = itertools.accumulate(piece.count("\n") for piece in trackfuse.io._blocks("\n".join(lines) + "\n"))
    kept = next(end for end in ends if end >= 400)
    short = f"{kept + 1},1,10,20,30\n"
    text = "\n".join(lines[:kept]) + "\n" + short
    *_, last = trackfuse.io._blocks(text)
    assert last == short and trackfuse.io._is_plain(last)
    expected = (kept + 1, f"line {kept + 1}: expected at least 6 columns, got 5")
    assert _outcome(parse_trackset, text, is_ground_truth) == expected
    assert _outcome(parse_trackset_scalar, text, is_ground_truth) == expected


@pytest.mark.parametrize(
    "block,shape",
    [
        ("1,1,10,20,30,40\n2,1,10,20,30,40\n", (2, 6)),
        (" 1 ,1,.5,5.,30,40,+1,-0,1e400\n", (1, 9)),
        ("1,1,10,20,30,40", (1, 6)),
        ("", None),
        (" \n \n", None),
        ("1,1,10,20,30,40\n\n", (1, 6)),
        ("1,1,10,20,30,40\n2,1,10,20,30\n", None),
        ("1,1,10,20,30,40\r\n", (1, 6)),
        ("1,1,10,20,30,40\r2,1,10,20,30,40\r\n", None),
        ("1_0,1,10,20,30,40\n", None),
        ("١,1,10,20,30,40\n", None),
        ("\ud800,1,10,20,30,40\n", None),
        ("1,1,10,20,30,40,\n", None),
        ("1,1,10,20,30,40,nan\n", None),
        ("1,1,1e,20,30,40\n", None),
    ],
)
def test_only_plain_blocks_go_to_numpys_reader(block, shape):
    table = trackfuse.io._plain_table(block, trackfuse.io._record(block)) if trackfuse.io._is_plain(block) else None
    assert (None if table is None else (len(table), len(table.dtype))) == shape


def test_integer_columns_come_from_the_first_line():
    def columns(text, integer=True):
        record = trackfuse.io._record(text, integer)
        return len(record), _int64_columns(record)

    text = " 1 ,2,10.5,-3,007,-0,+1,12,-0,1e3\r\n2.5,x\n"
    assert columns(text) == (10, [0, 1, 7, 8])
    assert columns(text, integer=False) == (10, [])
    assert columns("") == (6, [])
    assert columns("\r\n\n1,2.5\n") == (6, [0])  # the first non-empty line, and at least 6 fields
    # the first line is looked for in the first block only, which never cuts it
    with mock.patch.object(trackfuse.io, "TEXT_BLOCK", 5):
        assert columns("1,2,3,4,5,6,7,8,9\n") == (9, [0, 1, 7, 8])
        assert columns("\n" * 8 + "1,2,3,4,5,6,7,8,9\n") == (6, [])


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("later", ["10.5,1,10,20,30,40", "2,10.5,10,20,30,40", "2,1,10,20,30,40,1,10.5"])
def test_float_in_an_integer_column_is_not_truncated(later, is_ground_truth):
    # an int64 field refuses a float token, whatever warnings filter the
    # caller has set: it is neither truncated nor read with a warning
    text = "1,1,10,20,30,40,1,-1,-1,-1\n" + later + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        _assert_parses_like_oracle(text, is_ground_truth)


def _assert_float64_reads_like_oracle(monkeypatch, text, block, is_ground_truth):
    """Read with every column float64, ``text`` parses like the per-line parser.

    That read serves any text whose first non-empty line holds no integer
    literal, and every block after one that an int64 column refuses.
    """
    record = trackfuse.io._record
    monkeypatch.setattr(trackfuse.io, "_record", lambda text, integer=True: record(text, integer=False))
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", block)
    with mock.patch.object(trackfuse.io.np, "loadtxt", wraps=np.loadtxt) as reader:
        _assert_parses_like_oracle(text, is_ground_truth)
    for call in reader.call_args_list:
        assert {dtype for dtype, _ in call.kwargs["dtype"].fields.values()} == {np.dtype(np.float64)}


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [1, trackfuse.io.TEXT_BLOCK])
@pytest.mark.parametrize("text", READER_CASES)
def test_float64_read_of_reader_cases_matches_oracle(monkeypatch, text, block, is_ground_truth):
    _assert_float64_reads_like_oracle(monkeypatch, text, block, is_ground_truth)


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [1, trackfuse.io.TEXT_BLOCK])
@pytest.mark.parametrize("make_text", [_mot17_ground_truth, _seed_tracker_text])
def test_float64_read_of_integer_and_benchmark_files_matches_oracle(monkeypatch, make_text, block, is_ground_truth):
    _assert_float64_reads_like_oracle(monkeypatch, make_text(), block, is_ground_truth)


@pytest.mark.parametrize(
    "block,values",
    [
        ("1,1,10,20,30,40\n", [(1, 1, 10.0, 20.0, 30, 40.0)]),
        ("+1, 007 ,10,20,30,40\r\n", [(1, 7, 10.0, 20.0, 30, 40.0)]),
        ("-0,1,10,20,30,40\n", [(0, 1, 10.0, 20.0, 30, 40.0)]),  # read as 0, which no frame check passes
        ("9223372036854775807,1,10,20,30,40\n", [(2**63 - 1, 1, 10.0, 20.0, 30, 40.0)]),
        ("9223372036854775808,1,10,20,30,40\n", None),  # past int64
        ("1.0,1,10,20,30,40\n", None),
        ("1,1,10,20,1e1,40\n", None),
    ],
)
def test_int64_fields_refuse_what_they_cannot_hold(block, values):
    # int64 in columns 1, 2 and 5, float64 in the rest
    record = np.dtype([(f"f{j}", np.int64 if j in (0, 1, 4) else np.float64) for j in range(6)])
    table = trackfuse.io._plain_table(block, record)
    assert (None if table is None else table.tolist()) == values
