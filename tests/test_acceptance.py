"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import os
import random
import time

import pytest
from scipy.optimize import linear_sum_assignment

from trackfuse import (
    EnsembleConfig,
    MergeMode,
    TrackSet,
    ScenarioSpec,
    TrackerDegradation,
    complementary_pair,
    ensemble_pipeline,
    evaluate,
    generate_scenario,
    load_trackset,
    save_trackset,
    serialize_trackset,
)
from trackfuse.cli import main
from trackfuse.ensemble import length_nms, merge_group, merge_groups, mix

from oracles import (
    box_iou,
    brute_force_min_cost,
    canonical,
    const_track,
    make_track,
    random_trackset,
    random_trajectory,
    st_iou,
    st_iou_naive,
)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_st_iou_oracle_equivalence():
    with criterion("st-IoU equals brute-force frame-scan oracle on 1000 random pairs"):
        rng = random.Random(2024)
        start = time.perf_counter()
        for _ in range(1000):
            ti = random_trajectory(rng, 1, max_start=30, max_span=50)
            tj = random_trajectory(rng, 2, max_start=30, max_span=50)
            assert abs(st_iou(ti, tj, 0.5) - st_iou_naive(ti, tj, 0.5)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_merge_algorithm_fixture():
    with criterion("three-trajectory merge fixture groups exactly as hand-stepped"):
        p = (0.0, 0.0, 10.0, 10.0)
        q = (100.0, 100.0, 10.0, 10.0)
        r = (200.0, 200.0, 10.0, 10.0)
        a = make_track(1, {f: p for f in range(1, 11)})  # len 10
        b = make_track(2, {1: p, 2: p, 3: p, 4: p, 5: q, 6: q})  # len 6
        c = make_track(3, {4: p, 5: q, 6: q, 7: r})  # len 4

        # hand-stepping: sort by length -> [a, b, c]; anchor a absorbs b
        # (st-IoU 4/6 > 0.5) but not c (1/4 <= 0.5); b is consumed, so c is
        # never compared against it and becomes its own group.
        assert st_iou(a, b, 0.5) > 0.5
        assert st_iou(a, c, 0.5) <= 0.5
        assert st_iou(b, c, 0.5) > 0.5  # would match, but b is consumed

        groups = merge_groups([a, b, c], 0.5, 0.5)
        assert [[t.id for t in g] for g in groups] == [[1, 2], [3]]
        merged = [merge_group(g, MergeMode.DROP) for g in groups]
        assert canonical([merged[0]]) == canonical([a])
        assert canonical([merged[1]]) == canonical([c])

        once = serialize_trackset(TrackSet("s", merged))
        regrouped = merge_groups([a, b, c], 0.5, 0.5)
        again = serialize_trackset(
            TrackSet("s", [merge_group(g, MergeMode.DROP) for g in regrouped])
        )
        assert once == again


def test_nms_invariant_on_random_pooled_frames():
    with criterion("post-NMS boxes never exceed IoU 0.7 and are all input boxes"):
        rng = random.Random(77)
        frames_checked = 0
        trial = 0
        while frames_checked < 100:
            trial += 1
            ts_a = random_trackset(rng, "a", max_span=60)
            ts_b = random_trackset(rng, "b", max_span=60)
            input_boxes = set()
            for ts in (ts_a, ts_b):
                for t in ts.trajectories:
                    for f, d in t.detections.items():
                        input_boxes.add((f, d.box.x, d.box.y, d.box.w, d.box.h))
            pool = mix([ts_a, ts_b])
            merged = [merge_group(g, MergeMode.DROP) for g in merge_groups(pool, 0.5, 0.5)]
            survivors = length_nms(merged, 0.7)
            by_frame = {}
            for t in survivors:
                for f, d in t.detections.items():
                    assert (f, d.box.x, d.box.y, d.box.w, d.box.h) in input_boxes
                    by_frame.setdefault(f, []).append(d.box)
            for f, boxes in by_frame.items():
                for i in range(len(boxes)):
                    for j in range(i + 1, len(boxes)):
                        assert box_iou(boxes[i], boxes[j]) <= 0.7
            frames_checked += len(by_frame)
            assert trial < 50, "random pools produced too few frames"


def test_duplicate_idempotence():
    with criterion("fusing a track set with itself equals fusing it once (20 sets)"):
        rng = random.Random(404)
        cfg = EnsembleConfig()  # defaults, drop mode
        for _ in range(20):
            ts = random_trackset(rng, max_span=60)
            once = ensemble_pipeline([ts], cfg)
            twice = ensemble_pipeline([ts, ts], cfg)
            assert canonical(once) == canonical(twice)


def test_metric_fixtures_and_solver():
    with criterion("CLEAR/IDF1 hand-computed fixtures and solver brute force agree"):
        gt = TrackSet("gt", [const_track(1, 1, 10)])

        half = evaluate(gt, TrackSet("p", [const_track(1, 1, 5)]))
        assert (half.clear.fn, half.clear.fp, half.clear.idsw) == (5, 0, 0)
        assert half.clear.mota == 0.5

        split = evaluate(gt, TrackSet("p", [const_track(1, 1, 5), const_track(2, 6, 10)]))
        assert (split.clear.fn, split.clear.fp, split.clear.idsw) == (0, 0, 1)
        assert split.clear.mota == pytest.approx(0.9)
        assert (split.identity.idtp, split.identity.idfp, split.identity.idfn) == (5, 5, 5)
        assert split.identity.idf1 == 0.5

        rng = random.Random(31337)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            cost = [[rng.uniform(0, 10) for _ in range(cols)] for _ in range(rows)]
            pairs = list(zip(*linear_sum_assignment(cost)))
            assert len(pairs) == min(rows, cols)
            got = sum(cost[r][c] for r, c in pairs)
            assert got == pytest.approx(brute_force_min_cost(cost))


def test_synthetic_ensemble_gain():
    with criterion("fusing complementary trackers beats both on IDF1/MOTA, no switches"):
        start = time.perf_counter()
        for seed in range(20):
            spec = ScenarioSpec(num_objects=4, num_frames=200, seed=seed)
            gt, tracker_a, tracker_b = complementary_pair(spec)
            fused = ensemble_pipeline([tracker_a, tracker_b])
            report_a = evaluate(gt, tracker_a)
            report_b = evaluate(gt, tracker_b)
            report = evaluate(gt, fused)
            best_idf1 = max(report_a.identity.idf1, report_b.identity.idf1)
            assert report.identity.idf1 >= best_idf1 + 0.05, f"seed {seed}: gain too small"
            assert report.clear.idsw == 0, f"seed {seed}: fused output switched ids"
            best_mota = max(report_a.clear.mota, report_b.clear.mota)
            assert report.clear.mota >= best_mota, f"seed {seed}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"seed sweep took {elapsed:.2f}s"


def test_interpolation_composition(tmp_path):
    with criterion("merge --interpolate 20 strictly reduces FN and raises MOTA"):
        deg = TrackerDegradation(segment_drop=10)  # dropped windows of 1..19 frames
        for seed in range(5):
            spec = ScenarioSpec(num_objects=4, num_frames=200, seed=seed, trackers=(deg,))
            gt, (tracker,) = generate_scenario(spec)
            gt_path = tmp_path / f"gt_{seed}.txt"
            in_path = tmp_path / f"in_{seed}.txt"
            save_trackset(gt_path, gt)
            save_trackset(in_path, tracker)

            plain_path = tmp_path / f"plain_{seed}.txt"
            interp_path = tmp_path / f"interp_{seed}.txt"
            assert main(["merge", "-i", str(in_path), "-o", str(plain_path)]) == 0
            assert main(["merge", "-i", str(in_path), "-o", str(interp_path),
                         "--interpolate", "20"]) == 0

            gt_loaded = load_trackset(gt_path, is_ground_truth=True)
            plain = evaluate(gt_loaded, load_trackset(plain_path)).clear
            interp = evaluate(gt_loaded, load_trackset(interp_path)).clear
            assert interp.fn < plain.fn, f"seed {seed}: FN {plain.fn} -> {interp.fn}"
            assert interp.mota > plain.mota, f"seed {seed}: MOTA did not improve"


@pytest.mark.skipif(
    not os.environ.get("TRACKFUSE_MOT17"),
    reason="set TRACKFUSE_MOT17 to a directory with gt.txt plus two tracker "
    "result files (tracker_a.txt, tracker_b.txt) to run the real-data path",
)
def test_external_data_path(tmp_path):
    with criterion("user-supplied result files fuse and score in under 60 s"):
        data = os.environ["TRACKFUSE_MOT17"]
        start = time.perf_counter()
        fused_path = tmp_path / "fused.txt"
        assert main(["merge", "-i", os.path.join(data, "tracker_a.txt"),
                     "-i", os.path.join(data, "tracker_b.txt"),
                     "-o", str(fused_path)]) == 0
        assert main(["eval", "--gt", os.path.join(data, "gt.txt"),
                     "--pred", str(fused_path)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"merge+eval took {elapsed:.2f}s"
