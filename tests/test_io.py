import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse.io
from trackfuse import (
    EnsembleConfig,
    MergeMode,
    ParseError,
    TrackSet,
    ensemble_pipeline,
    linear_interpolate,
    load_trackset,
    parse_trackset,
    save_trackset,
    serialize_trackset,
)

from oracles import parse_trackset_scalar, random_trackset


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
        # floats stop representing every integer at 2**53
        ("10000000000000000000000,1,10,10,5,5,1", "frame"),
        ("9007199254740992,1,10,20,30,40,1", "frame"),
        ("1,9007199254740992,10,20,30,40,1", "id"),
        ("1,1e300,10,20,30,40,1", "id"),
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
    assert ts.trajectories[0].frames() == [2**53 - 1]
    assert serialize_trackset(ts).startswith("9007199254740991,9007199254740991,")


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


# -- the columnar parser against the per-line oracle --------------------------

INDEX = st.integers(1, 6).map(str)
ODD_INDEX = st.sampled_from(
    ["0", "-1", "1.5", "2.0", "1e1", "1_0", "+3", " 2 ", "nan", "inf", "1e22",
     "9007199254740991", "9007199254740992"]
)
COORD = st.floats(-50.0, 900.0).map(lambda v: f"{v:.3f}")
SIZE = st.floats(0.01, 80.0).map(lambda v: f"{v:.3f}")
ODD_NUMBER = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-0.0", "0", "1e1", "1_0", "0.01", "0.0099", "0.004"]
)
SEVENTH = st.sampled_from(["-1", "0", "0.5", "1", "1.7", "-0.0", "nan", "inf", "-inf"])
MALFORMED = st.sampled_from(["", "x", "1..2", "0x10", "1 2", "--1", "_1", "1_", "nan1"])


@st.composite
def mot_line(draw, odd: bool) -> str:
    """One result or ground-truth line of 6 to 10 columns."""
    tokens = [draw(INDEX), draw(INDEX), draw(COORD), draw(COORD), draw(SIZE), draw(SIZE)]
    tokens += [draw(SEVENTH)] + ["-1"] * 3
    tokens = tokens[: draw(st.integers(6, 10))]
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
    """Lines with blank ones between them; ``odd`` texts also hold bad tokens."""
    odd = draw(st.booleans())
    lines = draw(st.lists(st.one_of(mot_line(odd), st.sampled_from(["", "  "])), max_size=40))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


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
    cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=max(thr, 0.3), thr_len=0, merge_mode=mode)
    fused = ensemble_pipeline(inputs, cfg)
    if max_gap is not None:
        fused = TrackSet(fused.sequence, [linear_interpolate(t, max_gap) for t in fused.trajectories])
    back = parse_trackset(serialize_trackset(fused))
    assert [t.id for t in back.trajectories] == sorted(t.id for t in fused.trajectories)
    by_id = {t.id: t for t in fused.trajectories}
    for t in back.trajectories:
        before = by_id[t.id]
        assert np.array_equal(t.frame, before.frame)
        # half a unit of the second decimal, plus the binary representation error
        assert np.abs(t.xywh - before.xywh).max() <= 0.005 + 1e-9
        assert np.abs(t.conf - before.conf).max() <= 0.005 + 1e-9


# -- numpy's reader and the per-line path meet at block boundaries --------------

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
    "1,1,10,20,30,40,0.5\n2,1,10,20,30,40,0.5\n3,1,10,20,30,40,0.5\n" * 40 + "1e,1,10,20,30,40\n",
]


@pytest.mark.parametrize("is_ground_truth", [False, True])
@pytest.mark.parametrize("block", [1, trackfuse.io.TEXT_BLOCK])
@pytest.mark.parametrize("text", READER_CASES)
def test_parser_matches_oracle_at_reader_boundaries(monkeypatch, text, block, is_ground_truth):
    monkeypatch.setattr(trackfuse.io, "TEXT_BLOCK", block)
    _assert_parses_like_oracle(text, is_ground_truth)


@pytest.mark.parametrize(
    "block,shape",
    [
        ("1,1,10,20,30,40\n2,1,10,20,30,40\n", (2, 6)),
        (" 1 ,1,.5,5.,30,40,+1,-0,1e400\n", (1, 9)),
        ("1,1,10,20,30,40", (1, 6)),
        ("", None),
        (" \n \n", None),
        ("1,1,10,20,30,40\n\n", None),
        ("1,1,10,20,30,40\n2,1,10,20,30\n", None),
        ("1,1,10,20,30,40\r\n", None),
        ("1_0,1,10,20,30,40\n", None),
        ("١,1,10,20,30,40\n", None),
        ("\ud800,1,10,20,30,40\n", None),
        ("1,1,10,20,30,40,\n", None),
        ("1,1,10,20,30,40,nan\n", None),
        ("1,1,1e,20,30,40\n", None),
    ],
)
def test_only_plain_blocks_go_to_numpys_reader(block, shape):
    table = trackfuse.io._plain_table(block)
    assert (None if table is None else table.shape) == shape
