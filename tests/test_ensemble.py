import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackfuse import (
    EnsembleConfig,
    MergeMode,
    TrackSet,
    Trajectory,
    ensemble_pipeline,
    evaluate,
    parse_trackset,
    serialize_trackset,
)
from trackfuse.ensemble import length_filter, length_nms, merge_group, merge_groups, mix
from trackfuse.interpolate import linear_interpolate
from trackfuse.model import MIN_BOX_SIZE
from trackfuse.synth import DEFAULT_DEGRADATION, ScenarioSpec, generate_scenario

from oracles import box_iou, canonical, const_track, make_track, merge_group_scalar, random_trackset, st_iou


def algorithm_fixture():
    """Three tracks whose grouping is known by stepping the merge loop by hand.

    A (len 10) anchors and absorbs B (st-IoU 4/6 > 0.5). C overlaps B
    strongly (3/4) but A weakly (1/4), and since matching is against the
    anchor only, C survives as its own track.
    """
    p = (0.0, 0.0, 10.0, 10.0)
    q = (100.0, 100.0, 10.0, 10.0)
    r = (200.0, 200.0, 10.0, 10.0)
    a = make_track(1, {f: p for f in range(1, 11)})
    b = make_track(2, {1: p, 2: p, 3: p, 4: p, 5: q, 6: q})
    c = make_track(3, {4: p, 5: q, 6: q, 7: r})
    return a, b, c


def test_config_defaults_and_validation():
    cfg = EnsembleConfig()
    assert (cfg.thr_s, cfg.thr_t, cfg.thr_nms, cfg.thr_len) == (0.5, 0.5, 0.7, 20)
    assert cfg.merge_mode is MergeMode.DROP
    assert cfg.max_gap is None
    with pytest.raises(ValueError):
        EnsembleConfig(thr_s=1.2)
    with pytest.raises(ValueError):
        EnsembleConfig(thr_t=-0.1)
    with pytest.raises(ValueError):
        EnsembleConfig(thr_len=-1)
    for gap in (0, -1):
        with pytest.raises(ValueError, match=rf"^max_gap must be >= 1, got {gap}$"):
            EnsembleConfig(max_gap=gap)
    assert EnsembleConfig(max_gap=1).max_gap == 1
    # settings that are no integer, or a bool, which would act as some other count
    for name, value in [("thr_len", float("nan")), ("thr_len", 50.5), ("thr_len", True), ("max_gap", float("nan")),
                        ("max_gap", True), ("max_gap", 3.5), ("max_gap", float("inf"))]:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            EnsembleConfig(**{name: value})
    cfg = EnsembleConfig(thr_len=np.int64(5), max_gap=np.int32(2))
    assert (cfg.thr_len, cfg.max_gap) == (5, 2)


def test_mix_pools_and_relabels():
    ts1 = TrackSet("s", [const_track(3, 1, 5), const_track(1, 1, 5, box=(50, 0, 10, 10)),
                         const_track(2, 1, 5, box=(100, 0, 10, 10))])
    ts2 = TrackSet("s", [const_track(1, 1, 5, box=(150, 0, 10, 10)),
                         const_track(2, 1, 5, box=(200, 0, 10, 10)),
                         const_track(4, 1, 5, box=(250, 0, 10, 10)),
                         const_track(9, 1, 5, box=(300, 0, 10, 10))])
    pooled = mix([ts1, ts2])
    assert [t.id for t in pooled] == [1, 2, 3, 4, 5, 6, 7]
    # tracker order first, original id order within a tracker
    assert pooled[0].detections[1].box.x == 50  # ts1's id 1
    assert pooled[3].detections[1].box.x == 150  # ts2's id 1
    # so the pooled id order tells which tracker each track came from
    xs = [t.detections[1].box.x for t in pooled]
    assert xs == [50, 100, 0, 150, 200, 250, 300]
    assert mix([]) == []  # no tracker, no track


def test_mix_single_trackset_relabels_only():
    ts = TrackSet("s", [const_track(5, 1, 3), const_track(9, 4, 6, box=(99, 0, 5, 5))])
    pooled = mix([ts])
    assert [t.id for t in pooled] == [1, 2]
    assert canonical(pooled) == canonical(ts)


def test_mix_id_collision_across_trackers():
    ts1 = TrackSet("s", [const_track(1, 1, 5)])
    ts2 = TrackSet("s", [const_track(1, 1, 5, box=(80, 0, 10, 10))])
    pooled = mix([ts1, ts2])
    assert len(pooled) == 2
    assert pooled[0].detections[1].box != pooled[1].detections[1].box


def test_merge_group_singleton_identity():
    t = const_track(1, 1, 10)
    assert merge_group([t], MergeMode.DROP) is t


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
def test_merge_group_identical_tracks(mode):
    t1 = const_track(1, 1, 10)
    t2 = const_track(2, 1, 10)
    merged = merge_group([t1, t2], mode)
    assert merged.id == 1
    assert canonical([merged]) == canonical([t1])


def test_merge_group_average_means_coordinates():
    t1 = make_track(1, {1: (0.0, 0.0, 10.0, 10.0), 2: (0.0, 0.0, 10.0, 10.0)}, confidence=1.0)
    t2 = make_track(2, {1: (10.0, 0.0, 10.0, 10.0)}, confidence=0.5)
    merged = merge_group([t1, t2], MergeMode.AVERAGE)
    box = merged.detections[1].box
    assert (box.x, box.y, box.w, box.h) == (5.0, 0.0, 10.0, 10.0)
    assert merged.detections[1].confidence == 0.75
    # frame 2 only has one member: untouched
    assert merged.detections[2].box.x == 0.0


def test_merge_group_average_of_negative_zeros_writes_zero():
    # the mean is a sum started from 0 (0 + -0.0 is 0.0), as Python's sum
    # computes it; a lone box is copied as it is
    t1 = make_track(1, {1: (-0.0, 0.0, 10.0, 10.0), 2: (-0.0, 0.0, 10.0, 10.0)})
    t2 = make_track(2, {1: (-0.0, 0.0, 10.0, 10.0)})
    merged = merge_group([t1, t2], MergeMode.AVERAGE)
    assert serialize_trackset(TrackSet("s", [merged])).splitlines() == [
        "1,1,0.00,0.00,10.00,10.00,1.00,-1,-1,-1",
        "2,1,-0.00,0.00,10.00,10.00,1.00,-1,-1,-1",
    ]


def test_average_of_the_smallest_boxes_reads_back():
    # ten widths of 0.005 sum to less than 0.05 in float64, so their rounded
    # mean fell below the smallest size the writer rounds up to 0.01
    box = (1.0, 1.0, 0.005, 0.005)
    inputs = [TrackSet("s", [const_track(1, 1, 3, box=box)]) for _ in range(10)]
    cfg = EnsembleConfig(thr_s=0.0, thr_t=0.0, thr_len=1, merge_mode=MergeMode.AVERAGE)
    fused = ensemble_pipeline(inputs, cfg)
    assert len(fused.trajectories) == 1
    for t in fused.trajectories:
        Trajectory(t.id, t.frame, t.xywh, t.conf)  # the checked constructor accepts it
    text = serialize_trackset(fused)
    assert text.splitlines() == [f"{f},1,1.00,1.00,0.01,0.01,1.00,-1,-1,-1" for f in (1, 2, 3)]
    assert serialize_trackset(parse_trackset(text)) == text


def test_merge_group_drop_keeps_longest_member_box():
    long = make_track(1, {f: (0.0, 0.0, 10.0, 10.0) for f in range(1, 11)})
    short = make_track(2, {f: (2.0, 0.0, 10.0, 10.0) for f in range(8, 14)})
    merged = merge_group([long, short], MergeMode.DROP)
    assert merged.frame.tolist() == list(range(1, 14))
    assert merged.detections[9].box.x == 0.0  # both present: long wins
    assert merged.detections[12].box.x == 2.0  # only short present


def _member(rng: random.Random, track_id: int, frames, smallest: bool) -> Trajectory:
    """A track over ``frames`` with -0.0 among its values, and only the smallest sizes if ``smallest``."""
    def coord():
        return rng.choice([-0.0, rng.uniform(-50.0, 50.0)])

    def size():
        return MIN_BOX_SIZE / 2 if smallest else rng.choice([MIN_BOX_SIZE / 2, rng.uniform(MIN_BOX_SIZE / 2, 40.0)])

    frames = sorted(frames)
    return Trajectory(track_id, frames, [(coord(), coord(), size(), size()) for _ in frames],
                      [rng.choice([0.0, 1.0, rng.random()]) for _ in frames])


@pytest.mark.parametrize("mode", list(MergeMode))
@pytest.mark.parametrize("seed", range(30))
def test_merge_group_matches_per_frame_oracle(seed, mode):
    rng = random.Random(seed)
    # every third seed: ten or more members of the smallest boxes on nearly
    # every frame, whose rounded mean size falls below MIN_BOX_SIZE / 2
    smallest = seed % 3 == 0
    size = rng.randint(10, 12) if smallest else rng.randint(2, 6)
    # members drawn from one short span share most frames; members in
    # spans of their own share none
    overlapping = [_member(rng, k, rng.sample(range(1, 25), rng.randint(20 if smallest else 1, 20)), smallest)
                   for k in range(1, size + 1)]
    disjoint = [_member(rng, size + k, rng.sample(range(100 * k, 100 * k + 30), rng.randint(1, 20)), smallest)
                for k in range(1, size + 1)]
    for members in (overlapping, disjoint, overlapping + disjoint):
        group = sorted(members, key=lambda t: (-t.length, t.id))
        got, want = merge_group(group, mode), merge_group_scalar(group, mode)
        assert got.id == want.id
        for column in ("frame", "xywh", "conf"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


def test_merge_groups_algorithm_fixture():
    a, b, c = algorithm_fixture()
    assert st_iou(a, b, 0.5) == pytest.approx(4 / 6)
    assert st_iou(a, c, 0.5) == pytest.approx(1 / 4)
    assert st_iou(b, c, 0.5) == pytest.approx(3 / 4)
    groups = merge_groups([a, b, c], 0.5, 0.5)
    assert [[t.id for t in g] for g in groups] == [[1, 2], [3]]
    merged = [merge_group(g, MergeMode.DROP) for g in groups]
    assert [t.id for t in merged] == [1, 3]
    assert canonical([merged[0]]) == canonical([a])  # drop mode, A covers every frame
    assert canonical([merged[1]]) == canonical([c])


def test_merge_trajectories_disjoint_pool_unchanged():
    pool = [const_track(1, 1, 10), const_track(2, 20, 30), const_track(3, 40, 45)]
    merged = [merge_group(g, MergeMode.DROP) for g in merge_groups(pool, 0.5, 0.5)]
    assert canonical(merged) == canonical(pool)


def test_merge_trajectories_absorbs_duplicate():
    t = const_track(1, 1, 10)
    copy = const_track(2, 1, 10)
    merged = [merge_group(g, MergeMode.DROP) for g in merge_groups([t, copy], 0.5, 0.5)]
    assert len(merged) == 1
    assert canonical(merged) == canonical([t])


def test_merge_groups_partition_random_pools():
    rng = random.Random(4)
    for _ in range(25):
        pool = mix([random_trackset(rng), random_trackset(rng)])
        groups = merge_groups(pool, 0.5, 0.5)
        member_ids = [t.id for g in groups for t in g]
        assert sorted(member_ids) == sorted(t.id for t in pool)
        assert len(member_ids) == len(set(member_ids))


def test_length_nms_no_overlap_unchanged():
    tracks = [const_track(1, 1, 10), const_track(2, 1, 10, box=(100, 100, 10, 10))]
    assert canonical(length_nms(tracks, 0.7)) == canonical(tracks)


def test_length_nms_suppresses_shorter_owner():
    long = const_track(1, 1, 10)
    short = make_track(2, {f: (1.0, 0.0, 10.0, 10.0) for f in range(1, 6)})
    overlap = box_iou(long.detections[1].box, short.detections[1].box)
    assert overlap > 0.7
    kept = length_nms([long, short], 0.7)
    by_id = {t.id: t for t in kept}
    assert by_id[1].frame.tolist() == list(range(1, 11))
    assert 2 not in by_id  # every frame of the short track overlapped


def test_length_nms_removes_only_contested_frames():
    long = const_track(1, 1, 10)
    short = make_track(2, {4: (1.0, 0.0, 10.0, 10.0), 6: (500.0, 500.0, 10.0, 10.0)})
    kept = length_nms([long, short], 0.7)
    by_id = {t.id: t for t in kept}
    assert by_id[1].frame.tolist() == list(range(1, 11))
    assert by_id[2].frame.tolist() == [6]  # frame 4 lost, frame 6 uncontested


def test_length_nms_tie_breaks_by_lower_id():
    t1 = const_track(1, 1, 10)
    t2 = const_track(2, 1, 10, box=(1.0, 0.0, 10.0, 10.0))
    kept = length_nms([t2, t1], 0.7)  # input order must not matter
    assert [t.id for t in kept] == [1]


def test_length_nms_single_trajectory_unchanged():
    t = const_track(1, 1, 5)
    assert canonical(length_nms([t], 0.7)) == canonical([t])


def test_length_nms_survivor_invariant_random():
    rng = random.Random(31)
    for _ in range(20):
        pool = mix([random_trackset(rng), random_trackset(rng)])
        kept = length_nms(pool, 0.7)
        by_frame = {}
        for t in kept:
            for f, d in t.detections.items():
                by_frame.setdefault(f, []).append(d.box)
        for boxes in by_frame.values():
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert box_iou(boxes[i], boxes[j]) <= 0.7


def test_length_filter_boundaries():
    tracks = [const_track(1, 1, 19), const_track(2, 1, 20), const_track(3, 5, 40)]
    assert [t.id for t in length_filter(tracks, 0)] == [1, 2, 3]
    assert [t.id for t in length_filter(tracks, 20)] == [2, 3]


def test_pipeline_single_clean_trackset_identity():
    ts = TrackSet("s", [const_track(1, 1, 60), const_track(2, 1, 60, box=(200, 200, 20, 20))])
    out = ensemble_pipeline([ts])
    assert out.sequence == "s"
    assert canonical(out) == canonical(ts)
    assert [t.id for t in out.trajectories] == [1, 2]


def test_pipeline_duplicate_trackset_idempotent():
    rng = random.Random(17)
    for _ in range(10):
        ts = random_trackset(rng, max_span=60)
        cfg = EnsembleConfig(thr_len=0)
        assert canonical(ensemble_pipeline([ts, ts], cfg)) == canonical(ensemble_pipeline([ts], cfg))


def test_pipeline_joins_complementary_halves():
    # same moving box seen as frames 1-60 and 30-100: st-IoU 31/60 > 0.5
    first = make_track(1, {f: (float(f), 0.0, 20.0, 20.0) for f in range(1, 61)})
    second = make_track(1, {f: (float(f), 0.0, 20.0, 20.0) for f in range(30, 101)})
    assert st_iou(first, second, 0.5) == pytest.approx(31 / 60)
    out = ensemble_pipeline([TrackSet("s", [first]), TrackSet("s", [second])])
    assert len(out) == 1
    assert out.trajectories[0].frame.tolist() == list(range(1, 101))


def test_pipeline_thr_t_one_disables_merging():
    rng = random.Random(23)
    for _ in range(10):
        ts_a, ts_b = random_trackset(rng), random_trackset(rng)
        cfg = EnsembleConfig(thr_t=1.0, thr_len=0)
        out = ensemble_pipeline([ts_a, ts_b], cfg)
        pool = mix([ts_a, ts_b])
        expected = length_filter(length_nms(pool, cfg.thr_nms), cfg.thr_len)
        assert canonical(out) == canonical(expected)


def test_pipeline_thr_len_monotone_and_respected():
    rng = random.Random(29)
    ts = random_trackset(rng, max_span=60)
    counts = []
    for thr in (0, 10, 20, 40, 80):
        out = ensemble_pipeline([ts], EnsembleConfig(thr_len=thr))
        assert all(t.length >= thr for t in out.trajectories)
        counts.append(len(out))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_pipeline_deterministic_serialization():
    rng = random.Random(41)
    ts_a, ts_b = random_trackset(rng), random_trackset(rng)
    cfg = EnsembleConfig(thr_len=0)
    first = serialize_trackset(ensemble_pipeline([ts_a, ts_b], cfg))
    second = serialize_trackset(ensemble_pipeline([ts_a, ts_b], cfg))
    assert first == second


@pytest.mark.parametrize("cfg", [EnsembleConfig(), EnsembleConfig(merge_mode=MergeMode.AVERAGE, max_gap=10)])
@pytest.mark.parametrize("seed", range(3))
def test_outputs_do_not_depend_on_the_order_tracks_are_given(seed, cfg):
    gt, trackers = generate_scenario(ScenarioSpec(6, 150, seed=seed, trackers=(DEFAULT_DEGRADATION,) * 3))
    rng = random.Random(seed)

    def shuffled(ts: TrackSet) -> TrackSet:
        tracks = list(ts.trajectories)
        rng.shuffle(tracks)
        return TrackSet(ts.sequence, tracks)

    fused = ensemble_pipeline(trackers, cfg)
    fused_again = ensemble_pipeline([shuffled(ts) for ts in trackers], cfg)
    assert serialize_trackset(fused_again) == serialize_trackset(fused)
    assert evaluate(shuffled(gt), shuffled(fused)) == evaluate(gt, fused)
    for ts in (gt, *trackers):
        assert serialize_trackset(shuffled(ts)) == serialize_trackset(ts)


def test_pipeline_drop_conservation():
    rng = random.Random(43)
    for _ in range(10):
        ts_a, ts_b = random_trackset(rng), random_trackset(rng)
        inputs = set()
        for ts in (ts_a, ts_b):
            for t in ts.trajectories:
                for f, d in t.detections.items():
                    inputs.add((f, d.box.x, d.box.y, d.box.w, d.box.h))
        out = ensemble_pipeline([ts_a, ts_b], EnsembleConfig(thr_len=0))
        for t in out.trajectories:
            for f, d in t.detections.items():
                assert (f, d.box.x, d.box.y, d.box.w, d.box.h) in inputs


def test_pipeline_requires_input():
    with pytest.raises(ValueError):
        ensemble_pipeline([])


def test_pipeline_empty_trackset_gives_empty_output():
    out = ensemble_pipeline([TrackSet("s", [])])
    assert len(out) == 0
    assert serialize_trackset(out) == ""


def test_pipeline_average_mode_runs():
    t1 = const_track(1, 1, 30)
    t2 = const_track(1, 1, 30, box=(2.0, 0.0, 10.0, 10.0))
    cfg = EnsembleConfig(thr_len=0, merge_mode=MergeMode.AVERAGE)
    out = ensemble_pipeline([TrackSet("s", [t1]), TrackSet("s", [t2])], cfg)
    assert len(out) == 1
    assert out.trajectories[0].detections[1].box.x == 1.0


def test_config_merge_mode_accepts_values_and_rejects_unknown():
    cfg = EnsembleConfig(merge_mode="drop")
    assert cfg.merge_mode is MergeMode.DROP
    assert EnsembleConfig(merge_mode="average").merge_mode is MergeMode.AVERAGE
    with pytest.raises(ValueError):
        EnsembleConfig(merge_mode="bogus")
    # on inputs where the modes disagree, "drop" must drop, not average
    t1 = const_track(1, 1, 30)
    t2 = const_track(1, 1, 30, box=(2.0, 0.0, 10.0, 10.0))
    tracksets = [TrackSet("s", [t1]), TrackSet("s", [t2])]
    by_value = ensemble_pipeline(tracksets, EnsembleConfig(thr_len=0, merge_mode="drop"))
    by_member = ensemble_pipeline(tracksets, EnsembleConfig(thr_len=0, merge_mode=MergeMode.DROP))
    averaged = ensemble_pipeline(tracksets, EnsembleConfig(thr_len=0, merge_mode=MergeMode.AVERAGE))
    assert by_value == by_member != averaged


def _stage_by_stage(tracksets, cfg):
    """The public stage functions composed in the pipeline's order."""
    pool = mix(tracksets)
    merged = [merge_group(group, cfg.merge_mode) for group in merge_groups(pool, cfg.thr_s, cfg.thr_t)]
    kept = length_filter(length_nms(merged, cfg.thr_nms), cfg.thr_len)
    fused = [t.with_id(i) for i, t in enumerate(kept, start=1)]
    if cfg.max_gap is not None:
        fused = [linear_interpolate(t, cfg.max_gap) for t in fused]
    return TrackSet(tracksets[0].sequence, fused)


@pytest.mark.parametrize("max_gap", [None, 1, 5])
@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trackers=st.integers(1, 3), thr=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
       thr_len=st.integers(0, 30))
def test_stage_functions_compose_to_the_pipeline(mode, max_gap, seed, trackers, thr, thr_len):
    rng = random.Random(seed)
    tracksets = [random_trackset(rng, max_tracks=8, max_start=20, max_span=40, arena=60.0) for _ in range(trackers)]
    cfg = EnsembleConfig(thr_s=thr, thr_t=thr, thr_nms=thr, thr_len=thr_len, merge_mode=mode, max_gap=max_gap)
    fused = ensemble_pipeline(tracksets, cfg)
    assert serialize_trackset(_stage_by_stage(tracksets, cfg)) == serialize_trackset(fused)


def test_pipeline_reads_an_iterator_of_track_sets_once():
    tracksets = [random_trackset(random.Random(k), sequence=f"s{k}") for k in range(3)]
    fused = ensemble_pipeline(iter(tracksets))
    assert fused == ensemble_pipeline(tracksets)
    assert fused.sequence == "s0"


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
def test_more_merge_groups_than_16_bits_hold_merge_alike(mode):
    # 2**16 + 100 tracks of one or two boxes that never touch, a few to a
    # frame, so each is a group of its own and the group numbers need 32
    # bits; the fused tracks are the pool's by rank (longer first, ties by
    # id), relabelled 1..N
    n = 2**16 + 100
    lines = []
    for k in range(n):
        x, y = 20.0 * (k % 1000), 20.0 * (k // 1000)
        for frame in sorted({k // 4 + 1, k // 4 + 1 + k % 3}):
            lines.append(f"{frame},{k + 1},{x},{y},10,10,{(k % 10) / 10}\n")
    tracks = parse_trackset("".join(lines))
    pool = tracks.columns
    starts, counts, spans = pool.starts.tolist(), pool.counts().tolist(), pool.spans().tolist()
    ranked = sorted(range(n), key=lambda k: (-spans[k], k))
    rows = [r for k in ranked for r in range(starts[k], starts[k] + counts[k])]
    fused = ensemble_pipeline([tracks], EnsembleConfig(thr_len=0, merge_mode=mode)).columns
    assert fused.ids.tolist() == list(range(1, n + 1))
    assert fused.starts.tolist() == np.cumsum([0] + [counts[k] for k in ranked[:-1]]).tolist()
    assert np.array_equal(fused.frame, pool.frame[rows])
    assert np.array_equal(fused.xywh, pool.xywh[rows]) and np.array_equal(fused.conf, pool.conf[rows])


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
def test_groups_too_long_for_one_sort_key_merge_alike(mode):
    # 300 groups of two tracks whose frames reach 2**53 - 1: the groups' frame
    # spans times the group size add up past 2**62, where one packed (group,
    # frame, place) sort key per row would pass int64; the rows are sorted by
    # frame and by group instead, and with the last frame at 4 the fused
    # tracks must differ only in that frame
    def tracksets(last):
        boxes = [((50.0 * k, 0.0, 10.0, 10.0), (50.0 * k + 0.5, 1.0, 10.0, 10.0)) for k in range(300)]
        return [
            TrackSet("s", [make_track(k + 1, {1: a, 3: a, last: a}, 0.5) for k, (a, _) in enumerate(boxes)]),
            TrackSet("s", [make_track(k + 1, {2: b, 3: b, last: b}, 0.75) for k, (_, b) in enumerate(boxes)]),
        ]

    cfg = EnsembleConfig(thr_t=0.0, thr_len=0, merge_mode=mode)
    far, near = (ensemble_pipeline(tracksets(last), cfg) for last in (2**53 - 1, 4))
    assert len(far) == 300 and far.num_detections == 4 * 300
    assert far.columns.frame.tolist() == [2**53 - 1 if f == 4 else f for f in near.columns.frame.tolist()]
    for name in ("ids", "starts", "xywh", "conf"):
        assert np.array_equal(getattr(far.columns, name), getattr(near.columns, name))


@pytest.mark.parametrize("mode", [MergeMode.DROP, MergeMode.AVERAGE])
@pytest.mark.parametrize("groups, last", [(300, (2**62 - 1) // 600), (300, (2**62 - 1) // 600 + 1), (600, 2**53 - 1)])
def test_merge_keys_on_both_sides_of_int64_merge_alike(mode, groups, last):
    # each group of two tracks spans frames 1..last, so one packed (group,
    # frame, place) sort key per row would reach groups * last * 2 - 1: just
    # below 2**62, just past it, and past 2**63; each must fuse as the same
    # groups do with the last frame at 4, but for that frame
    def tracksets(last):
        boxes = [((50.0 * k, 0.0, 10.0, 10.0), (50.0 * k + 0.5, 1.0, 10.0, 10.0)) for k in range(groups)]
        return [
            TrackSet("s", [make_track(k + 1, {1: a, 3: a, last: a}, 0.5) for k, (a, _) in enumerate(boxes)]),
            TrackSet("s", [make_track(k + 1, {2: b, 3: b, last: b}, 0.75) for k, (_, b) in enumerate(boxes)]),
        ]

    cfg = EnsembleConfig(thr_t=0.0, thr_len=0, merge_mode=mode)
    far, near = (ensemble_pipeline(tracksets(frame), cfg) for frame in (last, 4))
    assert len(far) == groups and far.num_detections == 4 * groups
    assert far.columns.frame.tolist() == [last if f == 4 else f for f in near.columns.frame.tolist()]
    for name in ("ids", "starts", "xywh", "conf"):
        assert np.array_equal(getattr(far.columns, name), getattr(near.columns, name))
