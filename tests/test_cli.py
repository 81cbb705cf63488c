import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from trackfuse import (
    EnsembleConfig,
    TrackSet,
    ensemble_pipeline,
    load_trackset,
    save_trackset,
    serialize_trackset,
)
from trackfuse import Trajectory, cli, metrics
from trackfuse.cli import main
from trackfuse.synth import parse_scenario_config

from oracles import canonical, const_track


GT_TEXT = "".join(f"{f},1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1\n" for f in range(1, 11))
SPLIT_PRED_TEXT = "".join(
    f"{f},{1 if f <= 5 else 2},0.00,0.00,10.00,10.00,1.00,-1,-1,-1\n" for f in range(1, 11)
)
# eval's stdout for SPLIT_PRED_TEXT against GT_TEXT: one identity switch at frame 6
SWITCH_REPORT = (
    "num_gt  10\n"
    "FP      0\n"
    "FN      0\n"
    "IDSW    1\n"
    "MOTA    0.9000\n"
    "IDTP    5\n"
    "IDFP    5\n"
    "IDFN    5\n"
    "IDF1    0.5000\n"
    "\n"
    "#metric num_gt=10\n"
    "#metric fp=0\n"
    "#metric fn=0\n"
    "#metric idsw=1\n"
    "#metric mota=0.9000\n"
    "#metric idtp=5\n"
    "#metric idfp=5\n"
    "#metric idfn=5\n"
    "#metric idf1=0.5000\n"
)


@pytest.fixture
def scenario_dir(tmp_path):
    out = tmp_path / "scene"
    code = main(["synth", "--seed", "42", "--objects", "4", "--frames", "200",
                 "--trackers", "2", "-o", str(out)])
    assert code == 0
    return out


def test_synth_writes_expected_files(scenario_dir):
    names = sorted(p.name for p in scenario_dir.iterdir())
    assert names == ["gt.txt", "tracker_1.txt", "tracker_2.txt"]
    for p in scenario_dir.iterdir():
        load_trackset(p)  # parses cleanly


def test_synth_is_reproducible(tmp_path, scenario_dir):
    other = tmp_path / "again"
    assert main(["synth", "--seed", "42", "--objects", "4", "--frames", "200",
                 "--trackers", "2", "-o", str(other)]) == 0
    for name in ("gt.txt", "tracker_1.txt", "tracker_2.txt"):
        assert (other / name).read_bytes() == (scenario_dir / name).read_bytes()


def test_synth_rejects_zero_objects(tmp_path, capsys):
    code = main(["synth", "--objects", "0", "-o", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_synth_complementary(tmp_path):
    out = tmp_path / "comp"
    assert main(["synth", "--seed", "3", "--objects", "4", "--complementary", "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["gt.txt", "tracker_1.txt", "tracker_2.txt"]


def test_synth_config_file_with_flag_override(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("objects = 2\nframes = 60\nseed = 5\ntracker = drop=0.1\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--frames", "80", "-o", str(out)]) == 0
    gt = load_trackset(out / "gt.txt", is_ground_truth=True)
    assert len(gt) == 2
    assert gt.trajectories[0].stop == 80  # flag wins over config
    assert not (out / "tracker_2.txt").exists()


def test_synth_bad_config_file(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("objects = banana\n")
    assert main(["synth", "--config", str(config), "-o", str(tmp_path / "o")]) == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize("jitter", ["nan", "inf"])
def test_synth_config_rejects_non_finite_jitter(tmp_path, capsys, jitter):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"objects = 2\nframes = 20\ntracker = drop=0.1 jitter={jitter}\n")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config line 3" in err and "jitter" in err
    assert not out.exists()


def test_merge_happy_path(tmp_path, scenario_dir):
    out = tmp_path / "fused.txt"
    code = main(["merge", "-i", str(scenario_dir / "tracker_1.txt"),
                 "-i", str(scenario_dir / "tracker_2.txt"), "-o", str(out)])
    assert code == 0
    fused = load_trackset(out)
    assert len(fused) > 0


def test_merge_matches_library_call(tmp_path, scenario_dir):
    out = tmp_path / "fused.txt"
    assert main(["merge", "-i", str(scenario_dir / "tracker_1.txt"),
                 "-i", str(scenario_dir / "tracker_2.txt"), "-o", str(out),
                 "--thr-t", "0.4", "--thr-len", "10"]) == 0
    tracksets = [load_trackset(scenario_dir / f"tracker_{k}.txt") for k in (1, 2)]
    expected = ensemble_pipeline(tracksets, EnsembleConfig(thr_t=0.4, thr_len=10))
    assert out.read_text() == serialize_trackset(expected)


def test_merge_thr_len_zero_matches_library(tmp_path):
    src = tmp_path / "a.txt"
    src.write_text(GT_TEXT)
    out = tmp_path / "out.txt"
    assert main(["merge", "-i", str(src), "-o", str(out), "--thr-len", "0"]) == 0
    expected = ensemble_pipeline([load_trackset(src)], EnsembleConfig(thr_len=0))
    assert out.read_text() == serialize_trackset(expected)


@pytest.mark.parametrize("other", ["", GT_TEXT])
def test_merge_with_an_empty_input_file(tmp_path, other):
    empty, src = tmp_path / "empty.txt", tmp_path / "a.txt"
    empty.write_text("")
    src.write_text(other)
    out = tmp_path / "out.txt"
    assert main(["merge", "-i", str(empty), "-o", str(out)]) == 0
    assert out.read_text() == ""
    assert main(["merge", "-i", str(empty), "-i", str(src), "-o", str(out), "--thr-len", "0"]) == 0
    expected = ensemble_pipeline([load_trackset(src)], EnsembleConfig(thr_len=0))
    assert out.read_text() == serialize_trackset(expected)


def test_merge_pass_through_settings_reproduce_input(tmp_path):
    ts = TrackSet("s", [const_track(1, 1, 30), const_track(2, 10, 45, box=(300.0, 20.0, 15.0, 25.0))])
    src = tmp_path / "in.txt"
    src.write_text(serialize_trackset(ts))
    out = tmp_path / "out.txt"
    assert main(["merge", "-i", str(src), "-o", str(out),
                 "--thr-t", "1.0", "--thr-nms", "1.0", "--thr-len", "0"]) == 0
    assert canonical(load_trackset(out)) == canonical(ts)


def test_merge_interpolate_fills_gap(tmp_path):
    lines = [f"{f},1,{float(f)},0.00,10.00,10.00,1.00,-1,-1,-1" for f in (*range(1, 25), *range(30, 55))]
    src = tmp_path / "a.txt"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.txt"
    assert main(["merge", "-i", str(src), "-o", str(out), "--interpolate", "10"]) == 0
    fused = load_trackset(out)
    assert fused.trajectories[0].frame.tolist() == list(range(1, 55))
    expected = ensemble_pipeline([load_trackset(src)], EnsembleConfig(max_gap=10))
    assert out.read_text() == serialize_trackset(expected)


def test_merge_output_of_smallest_writable_box_reparses(tmp_path):
    # 0.01 is the smallest size two decimals can write
    boxes = {f: "10,10,0.01,0.01" for f in range(1, 6)}
    boxes[9] = "10,10,0.02,0.02"
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("".join(f"{f},1,{box},1\n" for f, box in boxes.items()))
    b.write_text("".join(f"{f},1,{box},0.5\n" for f, box in boxes.items()))
    out = tmp_path / "out.txt"
    assert main(["merge", "-i", str(a), "-i", str(b), "-o", str(out),
                 "--thr-len", "0", "--mode", "average", "--interpolate", "5"]) == 0
    (fused,) = load_trackset(out).trajectories
    assert fused.frame.tolist() == list(range(1, 10))
    assert fused.detections[1].box.w == 0.01
    assert fused.detections[1].confidence == 0.75  # the two inputs were averaged


# Fused-file SHA-256 for a seeded 6-object, 300-frame, 3-tracker scenario.
MERGE_SHA256 = {
    "drop": "8092fdebb6f0f6bb910f2159d5d96ae34e859dd23f6d02d0ebe23913ad161283",
    "average --interpolate 5": "133f0d72596eca348874ea90e155846a1cde512c00eb1cd84dcdc13c6c5e334f",
}


@pytest.mark.parametrize("flags", list(MERGE_SHA256))
def test_merge_output_bytes_pinned(tmp_path, flags):
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "11", "--objects", "6", "--frames", "300",
                 "--trackers", "3", "-o", str(scene)]) == 0
    paths = [scene / f"tracker_{k}.txt" for k in (1, 2, 3)]
    out = tmp_path / "fused.txt"
    mode, *rest = flags.split()
    assert main(["merge", *(arg for p in paths for arg in ("-i", str(p))),
                 "-o", str(out), "--mode", mode, *rest]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MERGE_SHA256[flags]
    # the library reaches the same bytes: merge runs ensemble_pipeline alone
    cfg = EnsembleConfig(merge_mode=mode, max_gap=int(rest[1]) if rest else None)
    library = tmp_path / "library.txt"
    save_trackset(library, ensemble_pipeline([load_trackset(p) for p in paths], cfg))
    assert hashlib.sha256(library.read_bytes()).hexdigest() == MERGE_SHA256[flags]


# Two inputs whose tracks all span 3 frames. Both tracks 1 cover one
# object at IoU 0.82, so they merge. Both tracks 2 sit on one place but
# share only frame 3, so they stay apart and NMS keeps one box there.
TIE_INPUTS = {
    "a.txt": "".join(f"{f},{i},{x},0,10,10,1\n" for i, x, frames in ((1, 0, (1, 2, 3)), (2, 100, (1, 2, 3)))
                     for f in frames),
    "b.txt": "".join(f"{f},{i},{x},0,10,10,0.5\n" for i, x, frames in ((1, 1, (1, 2, 3)), (2, 100, (3, 4, 5)))
                     for f in frames),
}
# Among tracks of equal length the earlier -i input wins: it anchors the
# merge, so its box is the DROP box and its id comes first, and it ranks
# first in NMS, so the other input's box goes in frame 3.
TIE_FUSED = {
    ("a.txt", "b.txt"): """\
1,1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1
1,2,100.00,0.00,10.00,10.00,1.00,-1,-1,-1
2,1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1
2,2,100.00,0.00,10.00,10.00,1.00,-1,-1,-1
3,1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1
3,2,100.00,0.00,10.00,10.00,1.00,-1,-1,-1
4,3,100.00,0.00,10.00,10.00,0.50,-1,-1,-1
5,3,100.00,0.00,10.00,10.00,0.50,-1,-1,-1
""",
    ("b.txt", "a.txt"): """\
1,1,1.00,0.00,10.00,10.00,0.50,-1,-1,-1
1,3,100.00,0.00,10.00,10.00,1.00,-1,-1,-1
2,1,1.00,0.00,10.00,10.00,0.50,-1,-1,-1
2,3,100.00,0.00,10.00,10.00,1.00,-1,-1,-1
3,1,1.00,0.00,10.00,10.00,0.50,-1,-1,-1
3,2,100.00,0.00,10.00,10.00,0.50,-1,-1,-1
4,2,100.00,0.00,10.00,10.00,0.50,-1,-1,-1
5,2,100.00,0.00,10.00,10.00,0.50,-1,-1,-1
""",
}


@pytest.mark.parametrize("order", list(TIE_FUSED))
def test_merge_ties_go_to_the_earlier_input(tmp_path, order):
    for name, text in TIE_INPUTS.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "fused.txt"
    assert main(["merge", *(arg for name in order for arg in ("-i", str(tmp_path / name))),
                 "-o", str(out), "--thr-len", "0"]) == 0
    assert out.read_text() == TIE_FUSED[order]


def test_merge_missing_input_file(tmp_path, capsys):
    code = main(["merge", "-i", str(tmp_path / "missing.txt"), "-o", str(tmp_path / "out.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing.txt" in err


def test_merge_parse_error_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1,1,10,20,-5,40,1,-1,-1,-1\n")
    assert main(["merge", "-i", str(src), "-o", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "width" in err


@pytest.mark.parametrize("line", ["10000000000000000000000,1,10,10,5,5,1", "1,9007199254740992,10,10,5,5,1"])
def test_frame_or_id_of_2_to_the_53_is_an_input_error(tmp_path, capsys, line):
    src = tmp_path / "huge.txt"
    src.write_text(GT_TEXT + line + "\n")
    assert main(["merge", "-i", str(src), "-o", str(tmp_path / "out.txt")]) == 2
    assert "line 11" in capsys.readouterr().err
    assert main(["eval", "--gt", str(src), "--pred", str(src)]) == 2
    assert "line 11" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--thr-s", "1.5"], ["--thr-t", "-0.2"], ["--mode", "weird"], ["--interpolate", "0"]],
)
def test_merge_bad_flags_are_usage_errors(tmp_path, flags):
    src = tmp_path / "a.txt"
    src.write_text(GT_TEXT)
    code = main(["merge", "-i", str(src), "-o", str(tmp_path / "out.txt"), *flags])
    assert code == 1


def test_bare_merge_parses_to_the_config_defaults():
    args = cli.build_parser().parse_args(["merge", "-i", "a", "-o", "b"])
    parsed = {"thr_s": args.thr_s, "thr_t": args.thr_t, "thr_nms": args.thr_nms, "thr_len": args.thr_len,
              "merge_mode": args.mode, "max_gap": args.interpolate}
    default = EnsembleConfig()
    assert set(parsed) == {f.name for f in dataclasses.fields(default)}
    for name, value in parsed.items():
        expected = getattr(default, name)
        expected = expected.value if name == "merge_mode" else expected
        assert (value, type(value)) == (expected, type(expected)), name
    assert (args.thr_s, args.thr_t, args.thr_nms, args.thr_len, args.mode) == (0.5, 0.5, 0.7, 20, "drop")


def test_eval_perfect(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "#metric mota=1.0000" in out
    assert "#metric idf1=1.0000" in out
    assert "#metric idsw=0" in out


def test_eval_empty_prediction(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TEXT)
    pred = tmp_path / "empty.txt"
    pred.write_text("")
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "#metric mota=0.0000" in out
    assert "#metric fn=10" in out
    assert "#metric num_gt=10" in out


def test_eval_switch_fixture(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TEXT)
    pred = tmp_path / "pred.txt"
    pred.write_text(SPLIT_PRED_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
    assert capsys.readouterr().out == SWITCH_REPORT


def write_crowd_scene(out):
    """Eight 12-pixel objects that cross in a 190 x 30 strip over 60 frames.

    ``tracker_1`` jitters every box, drops some and swaps the ids of two
    objects from frame 31; ``tracker_2`` reports every box exactly, and the
    even objects' boxes a second time under another id.
    """
    rng = random.Random(5)
    line = "{},{},{:.2f},{:.2f},12.00,12.00,{},-1,-1,-1\n"
    gt, jittered, doubled = [], [], []
    for f in range(1, 61):
        for k in range(1, 9):
            # odd objects move right, even ones left, on rows 2 px apart
            x = 3.0 * f if k % 2 else 180.0 - 3.0 * f + 2.0 * k
            y = 2.0 * k
            gt.append(line.format(f, k, x, y, 1))
            if rng.random() > 0.1:
                swapped = {1: 2, 2: 1}.get(k, k) if f > 30 else k
                jittered.append(line.format(f, swapped, x + rng.uniform(-1.5, 1.5), y + rng.uniform(-1.5, 1.5), 0.9))
            doubled.append(line.format(f, k, x, y, 0.8))
            if k % 2 == 0:
                doubled.append(line.format(f, 100 + k, x, y, 0.7))
    for name, lines in (("gt", gt), ("tracker_1", jittered), ("tracker_2", doubled)):
        (out / f"{name}.txt").write_text("".join(lines))


# `trackfuse eval` stdout on the crowd scene, recorded before `evaluate`
# shared one join between CLEAR and IDF1. In at least 57 of the 60 frames
# of each file an owner is in two hits, so those frames go through the
# sequential path.
CROWD_EVAL = {
    "tracker_1": """\
num_gt  480
FP      1
FN      48
IDSW    2
MOTA    0.8938
IDTP    382
IDFP    51
IDFN    98
IDF1    0.8368

#metric num_gt=480
#metric fp=1
#metric fn=48
#metric idsw=2
#metric mota=0.8938
#metric idtp=382
#metric idfp=51
#metric idfn=98
#metric idf1=0.8368
""",
    "tracker_2": """\
num_gt  480
FP      240
FN      0
IDSW    0
MOTA    0.5000
IDTP    480
IDFP    240
IDFN    0
IDF1    0.8000

#metric num_gt=480
#metric fp=240
#metric fn=0
#metric idsw=0
#metric mota=0.5000
#metric idtp=480
#metric idfp=240
#metric idfn=0
#metric idf1=0.8000
""",
    "fused": """\
num_gt  480
FP      16
FN      1
IDSW    28
MOTA    0.9062
IDTP    415
IDFP    80
IDFN    65
IDF1    0.8513

#metric num_gt=480
#metric fp=16
#metric fn=1
#metric idsw=28
#metric mota=0.9062
#metric idtp=415
#metric idfp=80
#metric idfn=65
#metric idf1=0.8513
""",
}


def test_eval_stdout_pinned_on_crossing_objects_and_duplicates(tmp_path, capsys, monkeypatch):
    write_crowd_scene(tmp_path)
    assert main(["merge", "-i", str(tmp_path / "tracker_1.txt"), "-i", str(tmp_path / "tracker_2.txt"),
                 "-o", str(tmp_path / "fused.txt")]) == 0
    capsys.readouterr()
    conflict_frames = []
    sequential = metrics._frame_matches

    def counted(*args):
        conflict_frames.append(args)
        return sequential(*args)

    monkeypatch.setattr(metrics, "_frame_matches", counted)
    for name, expected in CROWD_EVAL.items():
        conflict_frames.clear()
        assert main(["eval", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / f"{name}.txt")]) == 0
        assert capsys.readouterr().out == expected
        assert len(conflict_frames) >= 57


def test_eval_human_readable_table(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "MOTA" in out and "IDF1" in out and "num_gt" in out


def test_eval_empty_ground_truth_is_input_error(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("")
    pred = tmp_path / "pred.txt"
    pred.write_text(GT_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 2
    assert "no boxes" in capsys.readouterr().err


def test_eval_missing_file(tmp_path):
    pred = tmp_path / "pred.txt"
    pred.write_text(GT_TEXT)
    assert main(["eval", "--gt", str(tmp_path / "nope.txt"), "--pred", str(pred)]) == 2


def test_eval_bad_iou_is_usage_error(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--iou", "0"]) == 1


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["merge"]) == 1  # missing required flags
    capsys.readouterr()


def test_main_runs_a_command_after_a_usage_error(tmp_path, capsys):
    # every call of main parses with the one parser build_parser made
    assert cli.build_parser() is cli.build_parser()
    assert main(["merge", "-i", "a.txt"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: trackfuse merge ")
    assert err.endswith("\ntrackfuse merge: error: the following arguments are required: -o/--output\n")
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt.write_text(GT_TEXT)
    pred.write_text(SPLIT_PRED_TEXT)
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
    assert capsys.readouterr() == (SWITCH_REPORT, "")


# Scenario config files the failure matrix below reads, by name.
FAILING_CONFIGS = {
    "no_eq": "objects 4\n",
    "bad_key": "colour = red\n",
    "bad_number": "objects = banana\n",
    "bad_arena": "arena = 800\n",
    "bad_arena_number": "arena = 800xabc\n",
    "bad_tracker": "objects = 2\ntracker = drop=0.1 speed=3\n",
    "bad_tracker_number": "tracker = drop=lots\n",
    "bad_segment_number": "tracker = segment=1.5\n",
    "out_of_range": "# comment\n\ntracker = drop=1.5\n",
    "negative_segment": "tracker = segment=-1\n",
    "zero_objects": "objects = 0\n",
    "small_arena": "arena = 50x600\n",
    "two_objects": "objects = 2\n",  # valid alone: a flag that breaks it is a usage error
}

# Every failure path of the commands: the arguments (TMP stands for the
# test's directory), the exit code and the one stderr line. They were
# recorded before `main` became the only place that prints them; since then
# only the two write errors changed, which repeated the path inside the
# OSError's text. `--interpolate` is checked before the thresholds, and a
# config's values are checked with the flags applied: the config is named
# only when it is invalid on its own. `--trackers` replaces the config's
# trackers and `--complementary` ignores them, so their lines are then read
# but their values not checked. A result file's bytes that are not UTF-8
# fail as their line's parse error; a config's cannot be read, like a
# missing one. Box values beyond 2**44 in magnitude are rejected. An empty
# ground truth is reported before the prediction is read.
FAILURES = [
    ('merge -i TMP/gt.txt -o TMP/o.txt --thr-s 1.5', 1, 'trackfuse merge: error: thr_s must be in [0, 1], got 1.5'),
    ('merge -i TMP/gt.txt -o TMP/o.txt --thr-t -0.2', 1, 'trackfuse merge: error: thr_t must be in [0, 1], got -0.2'),
    ('merge -i TMP/gt.txt -o TMP/o.txt --thr-nms 2', 1, 'trackfuse merge: error: thr_nms must be in [0, 1], got 2.0'),
    ('merge -i TMP/gt.txt -o TMP/o.txt --thr-len -1', 1, 'trackfuse merge: error: thr_len must be >= 0, got -1'),
    ('merge -i TMP/gt.txt -o TMP/o.txt --interpolate 0', 1, 'trackfuse merge: error: --interpolate must be >= 1, got 0'),
    ('merge -i TMP/missing.txt -o TMP/o.txt --interpolate 0', 1, 'trackfuse merge: error: --interpolate must be >= 1, got 0'),
    ('merge -i TMP/missing.txt -o TMP/o.txt --thr-s 1.5', 1, 'trackfuse merge: error: thr_s must be in [0, 1], got 1.5'),
    ('merge -i TMP/gt.txt -o TMP/o.txt --thr-s 1.5 --interpolate 0', 1, 'trackfuse merge: error: --interpolate must be >= 1, got 0'),
    ('merge -i TMP/missing.txt -o TMP/o.txt', 2, 'trackfuse merge: error: cannot read TMP/missing.txt: No such file or directory'),
    ('merge -i TMP/gt.txt -i TMP/dir -o TMP/o.txt', 2, 'trackfuse merge: error: cannot read TMP/dir: Is a directory'),
    ('merge -i TMP/gt.txt -i TMP/bad.txt -o TMP/o.txt', 2, 'trackfuse merge: error: TMP/bad.txt: line 1: box width -5.0 below 0.01'),
    ('merge -i TMP/gt.txt -i TMP/not_utf8.txt -o TMP/o.txt', 2, 'trackfuse merge: error: TMP/not_utf8.txt: line 2: expected at least 6 columns, got 2'),
    ('merge -i TMP/gt.txt -i TMP/beyond.txt -o TMP/o.txt', 2, 'trackfuse merge: error: TMP/beyond.txt: line 1: bounding box field x=1e+16 beyond 2**44 in magnitude'),
    ('merge -i TMP/gt.txt -o TMP/missing_dir/o.txt', 2, 'trackfuse merge: error: cannot write TMP/missing_dir/o.txt: No such file or directory'),
    ('eval --gt TMP/missing.txt --pred TMP/gt.txt --iou 0', 1, 'trackfuse eval: error: --iou must be in (0, 1], got 0.0'),
    ('eval --gt TMP/gt.txt --pred TMP/gt.txt --iou 1.5', 1, 'trackfuse eval: error: --iou must be in (0, 1], got 1.5'),
    ('eval --gt TMP/missing.txt --pred TMP/gt.txt', 2, 'trackfuse eval: error: cannot read TMP/missing.txt: No such file or directory'),
    ('eval --gt TMP/gt.txt --pred TMP/missing.txt', 2, 'trackfuse eval: error: cannot read TMP/missing.txt: No such file or directory'),
    ('eval --gt TMP/dir --pred TMP/gt.txt', 2, 'trackfuse eval: error: cannot read TMP/dir: Is a directory'),
    ('eval --gt TMP/gt.txt --pred TMP/bad.txt', 2, 'trackfuse eval: error: TMP/bad.txt: line 1: box width -5.0 below 0.01'),
    ('eval --gt TMP/bad.txt --pred TMP/gt.txt', 2, 'trackfuse eval: error: TMP/bad.txt: line 1: box width -5.0 below 0.01'),
    ('eval --gt TMP/not_utf8.txt --pred TMP/gt.txt', 2, 'trackfuse eval: error: TMP/not_utf8.txt: line 2: expected at least 6 columns, got 2'),
    ('eval --gt TMP/gt.txt --pred TMP/not_utf8.txt', 2, 'trackfuse eval: error: TMP/not_utf8.txt: line 2: expected at least 6 columns, got 2'),
    ('eval --gt TMP/empty.txt --pred TMP/gt.txt', 2, 'trackfuse eval: error: ground truth TMP/empty.txt contains no boxes'),
    ('eval --gt TMP/empty.txt --pred TMP/bad.txt', 2, 'trackfuse eval: error: ground truth TMP/empty.txt contains no boxes'),
    ('eval --gt TMP/empty.txt --pred TMP/missing.txt', 2, 'trackfuse eval: error: ground truth TMP/empty.txt contains no boxes'),
    ('synth -o TMP/s --objects 0', 1, 'trackfuse synth: error: num_objects must be >= 1, got 0'),
    ('synth -o TMP/s --frames 0', 1, 'trackfuse synth: error: num_frames must be >= 1, got 0'),
    ('synth -o TMP/s --trackers -1', 1, 'trackfuse synth: error: --trackers must be >= 0, got -1'),
    ('synth -o TMP/s --arena 800', 1, "trackfuse synth: error: --arena expects WxH, got '800'"),
    ('synth -o TMP/s --arena 800xabc', 1, "trackfuse synth: error: --arena expects WxH, got '800xabc'"),
    ('synth -o TMP/s --arena 50x600', 1, 'trackfuse synth: error: arena width must be >= 96, got 50'),
    ('synth -o TMP/s --objects 100 --arena 800x600', 1, 'trackfuse synth: error: arena height 600 too small for 100 objects'),
    ('synth -o TMP/s --complementary --objects 1', 1, 'trackfuse synth: error: complementary_pair needs at least 2 objects'),
    ('synth -o TMP/s --config TMP/missing.cfg', 2, 'trackfuse synth: error: cannot read TMP/missing.cfg: No such file or directory'),
    ('synth -o TMP/s --config TMP/dir', 2, 'trackfuse synth: error: cannot read TMP/dir: Is a directory'),
    ('synth -o TMP/s --config TMP/not_utf8.cfg', 2, "trackfuse synth: error: cannot read TMP/not_utf8.cfg: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    ('synth -o TMP/s --config TMP/no_eq.cfg', 2, 'trackfuse synth: error: TMP/no_eq.cfg: config line 1: expected key=value'),
    ('synth -o TMP/s --config TMP/bad_key.cfg', 2, "trackfuse synth: error: TMP/bad_key.cfg: config line 1: unknown key 'colour'"),
    ('synth -o TMP/s --config TMP/bad_number.cfg', 2, "trackfuse synth: error: TMP/bad_number.cfg: config line 1: invalid literal for int() with base 10: 'banana'"),
    ('synth -o TMP/s --config TMP/bad_arena.cfg', 2, 'trackfuse synth: error: TMP/bad_arena.cfg: config line 1: expected WxH'),
    ('synth -o TMP/s --config TMP/bad_arena_number.cfg', 2, "trackfuse synth: error: TMP/bad_arena_number.cfg: config line 1: invalid literal for int() with base 10: 'abc'"),
    ('synth -o TMP/s --config TMP/bad_tracker.cfg', 2, "trackfuse synth: error: TMP/bad_tracker.cfg: config line 2: expected tracker entries like idswitch=0.01 drop=0.05 jitter=1.5 segment=10, got 'speed=3'"),
    ('synth -o TMP/s --config TMP/bad_tracker_number.cfg', 2, "trackfuse synth: error: TMP/bad_tracker_number.cfg: config line 1: malformed number 'lots'"),
    ('synth -o TMP/s --config TMP/bad_segment_number.cfg', 2, "trackfuse synth: error: TMP/bad_segment_number.cfg: config line 1: malformed number '1.5'"),
    ('synth -o TMP/s --config TMP/out_of_range.cfg', 2, 'trackfuse synth: error: TMP/out_of_range.cfg: config line 3: drop_rate must be in [0, 1], got 1.5'),
    ('synth -o TMP/s --config TMP/negative_segment.cfg', 2, 'trackfuse synth: error: TMP/negative_segment.cfg: config line 1: segment_drop must be >= 0, got -1'),
    ('synth -o TMP/s --config TMP/zero_objects.cfg', 2, 'trackfuse synth: error: TMP/zero_objects.cfg: num_objects must be >= 1, got 0'),
    ('synth -o TMP/s --config TMP/small_arena.cfg', 2, 'trackfuse synth: error: TMP/small_arena.cfg: arena width must be >= 96, got 50'),
    ('synth -o TMP/s --config TMP/zero_objects.cfg --objects 0', 2, 'trackfuse synth: error: TMP/zero_objects.cfg: num_objects must be >= 1, got 0'),
    ('synth -o TMP/s --config TMP/two_objects.cfg --arena 96x16', 1, 'trackfuse synth: error: arena height 16 too small for 2 objects'),
    ('synth -o TMP/s --config TMP/bad_key.cfg --trackers -1', 2, "trackfuse synth: error: TMP/bad_key.cfg: config line 1: unknown key 'colour'"),
    ('synth -o TMP/s --config TMP/out_of_range.cfg --trackers -1', 1, 'trackfuse synth: error: --trackers must be >= 0, got -1'),
    ('synth -o TMP/s --config TMP/out_of_range.cfg --objects 2', 2, 'trackfuse synth: error: TMP/out_of_range.cfg: config line 3: drop_rate must be in [0, 1], got 1.5'),
    ('synth -o TMP/s --config TMP/bad_tracker_number.cfg --complementary', 2, "trackfuse synth: error: TMP/bad_tracker_number.cfg: config line 1: malformed number 'lots'"),
    ('synth -o TMP/s --config TMP/bad_tracker_number.cfg --trackers 2', 2, "trackfuse synth: error: TMP/bad_tracker_number.cfg: config line 1: malformed number 'lots'"),
    ('synth -o TMP/gt.txt/sub --frames 5', 2, 'trackfuse synth: error: cannot write to TMP/gt.txt/sub: Not a directory'),
]


@pytest.mark.parametrize("argv,code,err", FAILURES)
def test_failures_are_pinned(tmp_path, capsys, argv, code, err):
    (tmp_path / "gt.txt").write_text(GT_TEXT)
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "bad.txt").write_text("1,1,10,20,-5,40,1,-1,-1,-1\n")
    (tmp_path / "not_utf8.txt").write_bytes(b"1,1,10,10,5,5,1\n\xff,2\n")
    (tmp_path / "beyond.txt").write_text("1,1,1e16,0,10,10,1\n")
    (tmp_path / "not_utf8.cfg").write_bytes(b"objects = 4\n\xff\n")
    (tmp_path / "dir").mkdir()
    for name, text in FAILING_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.replace("TMP", str(tmp_path)) for arg in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.replace(str(tmp_path), "TMP") == err + "\n"
    assert sorted(tmp_path.rglob("*")) == before  # a failed command writes nothing


def test_synth_flags_override_an_invalid_config_value(tmp_path):
    config = tmp_path / "zero_objects.cfg"
    config.write_text(FAILING_CONFIGS["zero_objects"])
    out = tmp_path / "s"
    assert main(["synth", "-o", str(out), "--config", str(config), "--objects", "2"]) == 0
    assert len(load_trackset(out / "gt.txt", is_ground_truth=True)) == 2


def test_trackers_flag_replaces_an_out_of_range_config_tracker(tmp_path):
    config = tmp_path / "out_of_range.cfg"
    config.write_text(FAILING_CONFIGS["out_of_range"])
    with pytest.raises(ValueError, match=r"config line 3: drop_rate must be in \[0, 1\], got 1.5"):
        parse_scenario_config(FAILING_CONFIGS["out_of_range"])
    assert main(["synth", "-o", str(tmp_path / "flag"), "--config", str(config), "--trackers", "2"]) == 0
    assert main(["synth", "-o", str(tmp_path / "plain"), "--trackers", "2"]) == 0
    for name in ("gt.txt", "tracker_1.txt", "tracker_2.txt"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert not (tmp_path / "flag" / "tracker_3.txt").exists()


def test_complementary_ignores_an_out_of_range_config_tracker(tmp_path):
    # the config of a pinned failure row, alone and after lines that size and seed the scenario
    configs = {
        "alone": (FAILING_CONFIGS["out_of_range"], []),
        "sized": ("objects = 3\nframes = 50\nseed = 9\n" + FAILING_CONFIGS["out_of_range"], ["--objects", "3", "--frames", "50", "--seed", "9"]),
    }
    files = ["gt.txt", "tracker_1.txt", "tracker_2.txt"]
    for name, (text, flags) in configs.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        assert main(["synth", "-o", str(tmp_path / name), "--config", str(config), "--complementary"]) == 0
        assert main(["synth", "-o", str(tmp_path / f"{name}_flags"), *flags, "--complementary"]) == 0
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == files
        for file in files:
            assert (tmp_path / name / file).read_bytes() == (tmp_path / f"{name}_flags" / file).read_bytes()


def test_config_with_byte_order_mark_reads_as_without(tmp_path):
    text = "objects = 3\nframes = 40\nseed = 5\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    for config in (plain, marked):
        assert main(["synth", "-o", str(tmp_path / config.stem), "--config", str(config)]) == 0
    for name in ("gt.txt", "tracker_1.txt", "tracker_2.txt"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert len(load_trackset(tmp_path / "marked" / "gt.txt", is_ground_truth=True)) == 3


def test_eval_of_byte_order_marked_files_prints_the_same(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(GT_TEXT, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + GT_TEXT.encode())
    assert main(["eval", "--gt", str(plain), "--pred", str(plain)]) == 0
    expected = capsys.readouterr()
    assert main(["eval", "--gt", str(marked), "--pred", str(marked)]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_unexpected_errors_propagate(tmp_path, monkeypatch, error):
    src = tmp_path / "a.txt"
    src.write_text(GT_TEXT)

    def broken(*args):
        raise error("bug")

    monkeypatch.setattr(cli, "ensemble_pipeline", broken)
    with pytest.raises(error, match="bug"):
        main(["merge", "-i", str(src), "-o", str(tmp_path / "out.txt")])


def test_module_entry_point_exits_with_the_code(tmp_path):
    missing = tmp_path / "missing.txt"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "trackfuse.cli", "eval", "--gt", str(missing), "--pred", str(missing)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"trackfuse eval: error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", ["merge", "synth"])
def test_a_write_cut_short_leaves_no_file(tmp_path, command):
    resource = pytest.importorskip("resource")
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "3", "--objects", "6", "--frames", "300", "--trackers", "3",
                 "-o", str(scene)]) == 0
    if command == "merge":  # the fused file takes about 80 kB
        out = tmp_path / "fused.txt"
        args = ["-i", str(scene / "tracker_1.txt"), "-i", str(scene / "tracker_2.txt"), "-o", str(out)]
        message = f"cannot write {out}: File too large"
    else:  # the first file, gt.txt, takes about 80 kB
        out = tmp_path / "again" / "gt.txt"
        args = ["--seed", "3", "--objects", "6", "--frames", "300", "-o", str(out.parent)]
        message = f"cannot write to {out.parent}: File too large"

    def at_most_20000_bytes():  # a limit of the child alone, which Python reports as OSError
        resource.setrlimit(resource.RLIMIT_FSIZE, (20000, 20000))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "trackfuse.cli", command, *args],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=at_most_20000_bytes,
    )
    assert result.returncode == 2
    assert result.stderr == f"trackfuse {command}: error: {message}\n"
    assert not out.exists()  # eval would score a truncated file


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "merge" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--mode", "average", "--interpolate", "20"]])
def test_merge_and_eval_build_no_trajectory(tmp_path, monkeypatch, capsys, flags):
    def no_trajectory(*args, **kwargs):
        raise AssertionError("a Trajectory was built")

    monkeypatch.setattr(Trajectory, "__post_init__", no_trajectory)
    monkeypatch.setattr(Trajectory, "_of", no_trajectory)
    # synth builds none either: a small bands workload of 20 objects, each in
    # its own band, and 3 trackers, and a complementary pair
    assert main(["synth", "--seed", "7", "--objects", "20", "--frames", "120", "--trackers", "3",
                 "-o", str(tmp_path)]) == 0
    assert main(["synth", "--seed", "7", "--objects", "5", "--frames", "120", "--complementary",
                 "-o", str(tmp_path / "pair")]) == 0
    capsys.readouterr()
    inputs = [arg for k in (1, 2, 3) for arg in ("-i", str(tmp_path / f"tracker_{k}.txt"))]
    assert main(["merge", *inputs, "-o", str(tmp_path / "fused.txt"), *flags]) == 0
    assert main(["eval", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "fused.txt")]) == 0
    assert "#metric mota=" in capsys.readouterr().out
