import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from trackfuse import (
    ScenarioSpec,
    TrackerDegradation,
    complementary_pair,
    ensemble_pipeline,
    evaluate,
    generate_scenario,
    save_trackset,
    serialize_trackset,
)
from trackfuse.cli import main
from trackfuse.rng import SplitMix64, stream
from trackfuse.synth import (
    DEFAULT_DEGRADATION,
    FRAME_BLOCK,
    _degrade,
    _generate_gt,
    parse_scenario_config,
)

from oracles import canonical, degrade_scalar, random_trackset

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_SPEC = ScenarioSpec(
    num_objects=2,
    num_frames=30,
    arena_w=200,
    arena_h=120,
    seed=7,
    trackers=(TrackerDegradation(idswitch_rate=0.05, drop_rate=0.1, jitter=1.0, segment_drop=4),),
)


def test_splitmix64_reference_vector():
    # first outputs for seed 0, as published for the reference implementation
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    assert SplitMix64(0).block(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]


GOLDEN = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("n", [0, 1, 6, 1000])
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1, 2**64 - GOLDEN // 2, 2**64 - 3 * GOLDEN % 2**64])
def test_block_equals_scalar_draws(seed, n):
    blocks, scalars = SplitMix64(seed), SplitMix64(seed)
    drawn = blocks.block(n)
    assert drawn.dtype == np.uint64 and drawn.shape == (n,)
    assert drawn.tolist() == [scalars.next_u64() for _ in range(n)]
    # the state moved on by n steps: scalar draws continue the same stream
    assert [blocks.next_u64() for _ in range(3)] == [scalars.next_u64() for _ in range(3)]
    assert blocks.block(7).tolist() == [scalars.next_u64() for _ in range(7)]


def test_uniform_and_randint_bounds():
    rng = SplitMix64(99)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0
        v = rng.uniform(-3.0, 5.0)
        assert -3.0 <= v < 5.0
        k = rng.randint(2, 9)
        assert 2 <= k <= 9
    assert rng.randint(4, 4) == 4
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_bernoulli_extremes():
    rng = SplitMix64(5)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


def test_normal_moments():
    rng = SplitMix64(123)
    draws = [rng.normal() for _ in range(10_000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.05
    assert abs(math.sqrt(var) - 1.0) < 0.05


def test_streams_are_decoupled():
    a = stream(42, 0)
    b = stream(42, 1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(num_objects=0)
    with pytest.raises(ValueError):
        ScenarioSpec(num_frames=0)
    with pytest.raises(ValueError):
        ScenarioSpec(arena_w=10)
    with pytest.raises(ValueError):
        ScenarioSpec(num_objects=50, arena_h=600)


def test_degradation_validation():
    with pytest.raises(ValueError):
        TrackerDegradation(idswitch_rate=1.5)
    with pytest.raises(ValueError):
        TrackerDegradation(drop_rate=-0.1)
    with pytest.raises(ValueError):
        TrackerDegradation(jitter=-1.0)
    with pytest.raises(ValueError):
        TrackerDegradation(segment_drop=-2)
    for jitter in (math.nan, math.inf):
        with pytest.raises(ValueError, match="jitter"):
            TrackerDegradation(jitter=jitter)


def test_generation_is_deterministic():
    spec = ScenarioSpec(num_objects=3, num_frames=80, seed=11, trackers=(TrackerDegradation(0.02, 0.1, 2.0, 5),))
    gt1, trackers1 = generate_scenario(spec)
    gt2, trackers2 = generate_scenario(spec)
    assert serialize_trackset(gt1) == serialize_trackset(gt2)
    assert serialize_trackset(trackers1[0]) == serialize_trackset(trackers2[0])


def test_zero_degradation_is_identity():
    spec = ScenarioSpec(num_objects=3, num_frames=60, seed=2, trackers=(TrackerDegradation(),))
    gt, (tracker,) = generate_scenario(spec)
    assert canonical(tracker) == canonical(gt)
    assert [t.id for t in tracker.trajectories] == [1, 2, 3]


def test_full_drop_rate_empties_output():
    spec = ScenarioSpec(num_objects=2, num_frames=40, seed=2, trackers=(TrackerDegradation(drop_rate=1.0),))
    _, (tracker,) = generate_scenario(spec)
    assert len(tracker) == 0


def test_gt_shape_and_arena_bounds():
    spec = ScenarioSpec(num_objects=5, num_frames=120, arena_w=640, arena_h=480, seed=31)
    gt, _ = generate_scenario(spec)
    assert [t.id for t in gt.trajectories] == [1, 2, 3, 4, 5]
    for traj in gt.trajectories:
        assert traj.start == 1 and traj.stop == 120
        assert len(traj.detections) == 120  # gt has no gaps
        for det in traj.detections.values():
            box = det.box
            assert box.x >= 0 and box.y >= 0
            assert box.x + box.w <= 640 and box.y + box.h <= 480


def test_adding_a_tracker_does_not_change_existing_ones():
    deg = TrackerDegradation(0.01, 0.05, 1.0, 5)
    one = ScenarioSpec(num_objects=2, num_frames=50, seed=9, trackers=(deg,))
    two = ScenarioSpec(num_objects=2, num_frames=50, seed=9, trackers=(deg, deg))
    _, trackers_one = generate_scenario(one)
    _, trackers_two = generate_scenario(two)
    assert serialize_trackset(trackers_one[0]) == serialize_trackset(trackers_two[0])
    assert serialize_trackset(trackers_two[0]) != serialize_trackset(trackers_two[1])


def test_golden_scenario_files():
    gt, (tracker,) = generate_scenario(GOLDEN_SPEC)
    assert serialize_trackset(gt) == (GOLDEN_DIR / "scenario_seed7_gt.txt").read_text()
    assert serialize_trackset(tracker) == (GOLDEN_DIR / "scenario_seed7_tracker_1.txt").read_text()


# SHA-256 of serialize_trackset for the gt and each tracker, as the
# per-frame draw loop wrote them at benchmark scale.
PINNED_SCENARIOS = [
    (
        ScenarioSpec(20, 600, seed=71, trackers=(DEFAULT_DEGRADATION,) * 3),
        [
            "b13d7d04c69c20137df98d4eb201954a16077ebb2331086450af1b080af68202",
            "bbf3a62f2da87a0a7625532a4209a53ee4642fcb90eb928560d7890b0ee4be5d",
            "dd17fb5ef681633b3a5bdf8c8eb0e1e94d4db424e1c6c3210ccfadabeafcd35c",
            "34d277e6084ecf1b5be4f7d2adc6281a8a658b27e2fb9923196dab0761f9d4a2",
        ],
    ),
    (
        ScenarioSpec(4, 6000, seed=71, trackers=(TrackerDegradation(0.0005, 0.1, 1.0, 15),) * 2),
        [
            "36051f26bd800eb28b585a6bbe01da2c24af2ff0b0d7d4911b274045636d7075",
            "0d4c1bcfc7bbe8dacb1e3dba2da807e4bfc2c6c5cbbbad7ee74b9f35a3ba7051",
            "91990c371f39db5721afb083d1ec2a8b4ececaaf98be523fe88c7777edee759b",
        ],
    ),
]


@pytest.mark.parametrize("spec, digests", PINNED_SCENARIOS)
def test_benchmark_scale_scenarios_are_pinned(spec, digests):
    gt, trackers = generate_scenario(spec)
    assert [
        hashlib.sha256(serialize_trackset(ts).encode()).hexdigest() for ts in (gt, *trackers)
    ] == digests


# SHA-256 of the fused file `trackfuse merge` writes from the trackers of
# each pinned scenario, as the `%` writer wrote it. Averaged boxes carry
# arbitrary binary fractions, so many values sit near a half-cent.
PINNED_FUSED = [
    (PINNED_SCENARIOS[0][0], [], "e48ad34b89a2ba492a9312e9125d08317d6e3760da9359b784039c2882a202f0"),
    (PINNED_SCENARIOS[1][0], ["--mode", "average", "--interpolate", "20"],
     "3da521ad5bdf0306c08986e16a2f79e1f3f6d0a66d12a0554c3c2ccda411d331"),
]


@pytest.mark.parametrize("spec, flags, digest", PINNED_FUSED)
def test_benchmark_scale_fused_files_are_pinned(tmp_path, spec, flags, digest):
    _, trackers = generate_scenario(spec)
    inputs = []
    for k, ts in enumerate(trackers, start=1):
        path = tmp_path / f"tracker_{k}.txt"
        save_trackset(path, ts)
        inputs += ["-i", str(path)]
    out = tmp_path / "fused.txt"
    assert main(["merge", *inputs, "-o", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


SWEEP_DEGRADATIONS = [
    TrackerDegradation(),
    TrackerDegradation(drop_rate=1.0, jitter=1.0),
    TrackerDegradation(idswitch_rate=1.0, jitter=1.0),
    TrackerDegradation(idswitch_rate=1.0, drop_rate=0.5, jitter=2.0, segment_drop=1),
    TrackerDegradation(idswitch_rate=0.2, drop_rate=0.1, jitter=0.0, segment_drop=3),
    TrackerDegradation(idswitch_rate=0.05, drop_rate=0.05, jitter=1.5, segment_drop=1),
    TrackerDegradation(idswitch_rate=0.05, drop_rate=0.05, jitter=1.5, segment_drop=5000),
    DEFAULT_DEGRADATION,
    TrackerDegradation(idswitch_rate=0.0005, drop_rate=0.1, jitter=1.0, segment_drop=15),
]


def assert_same_bits(got, want):
    assert got.sequence == want.sequence
    assert got.trajectories == want.trajectories
    for a, b in zip(got.trajectories, want.trajectories):
        assert a.xywh.tobytes() == b.xywh.tobytes()  # -0.0 and 0.0 too


@pytest.mark.parametrize("deg", SWEEP_DEGRADATIONS)
@pytest.mark.parametrize(
    "frames", [1, 2, 7, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 30]
)
def test_degrade_matches_per_frame_draws(deg, frames):
    for seed in (0, 5, 2**63 + 11):
        gt = _generate_gt(ScenarioSpec(num_objects=2, num_frames=frames, seed=seed))
        blocks, scalars = stream(seed, 1), stream(seed, 1)
        assert_same_bits(_degrade(gt, deg, blocks, "t"), degrade_scalar(gt, deg, scalars, "t"))
        assert blocks.next_u64() == scalars.next_u64()  # both drew the same count


@pytest.mark.parametrize("deg", SWEEP_DEGRADATIONS)
def test_degrade_matches_per_frame_draws_on_gappy_tracks(deg):
    rng = random.Random(3)
    for seed in range(20):
        gt = random_trackset(rng, max_tracks=5, max_span=80)
        blocks, scalars = SplitMix64(seed), SplitMix64(seed)
        assert_same_bits(_degrade(gt, deg, blocks, "t"), degrade_scalar(gt, deg, scalars, "t"))
        assert blocks.next_u64() == scalars.next_u64()


def test_complementary_pair_structure():
    spec = ScenarioSpec(num_objects=4, num_frames=200, seed=5)
    gt, tracker_a, tracker_b = complementary_pair(spec)
    gt_signatures = [canonical([t]) for t in gt.trajectories]
    a_signatures = {canonical([t]) for t in tracker_a.trajectories}
    b_signatures = {canonical([t]) for t in tracker_b.trajectories}
    # A carries even-indexed objects verbatim, B the odd-indexed ones
    assert gt_signatures[0] in a_signatures and gt_signatures[2] in a_signatures
    assert gt_signatures[1] in b_signatures and gt_signatures[3] in b_signatures
    assert gt_signatures[1] not in a_signatures
    # degraded objects are fragmented: more trajectories than objects
    assert len(tracker_a) > 4 and len(tracker_b) > 4


def test_complementary_pair_fusion_recovers_both():
    spec = ScenarioSpec(num_objects=4, num_frames=200, seed=5)
    gt, tracker_a, tracker_b = complementary_pair(spec)
    report_a = evaluate(gt, tracker_a)
    report_b = evaluate(gt, tracker_b)
    assert report_a.clear.idsw >= 1 and report_b.clear.idsw >= 1
    fused = ensemble_pipeline([tracker_a, tracker_b])
    report = evaluate(gt, fused)
    assert report.clear.idsw == 0
    assert report.identity.idf1 > max(report_a.identity.idf1, report_b.identity.idf1)
    assert report.clear.mota >= max(report_a.clear.mota, report_b.clear.mota)


def test_gt_scores_perfectly_against_itself():
    gt, _, _ = complementary_pair(ScenarioSpec(num_objects=2, num_frames=100, seed=1))
    report = evaluate(gt, gt)
    assert report.clear.mota == 1.0 and report.identity.idf1 == 1.0


def test_complementary_pair_needs_two_objects():
    with pytest.raises(ValueError):
        complementary_pair(ScenarioSpec(num_objects=1, arena_h=100))


def test_parse_scenario_config_full():
    text = """
    # demo scenario
    objects = 3
    frames = 150
    seed = 12
    arena = 640x480

    tracker = idswitch=0.02 drop=0.05 jitter=1.5 segment=8
    tracker = drop=0.1
    """
    spec = parse_scenario_config(text)
    assert spec.num_objects == 3
    assert spec.num_frames == 150
    assert spec.seed == 12
    assert (spec.arena_w, spec.arena_h) == (640, 480)
    assert len(spec.trackers) == 2
    assert spec.trackers[0] == TrackerDegradation(0.02, 0.05, 1.5, 8)
    assert spec.trackers[1] == TrackerDegradation(drop_rate=0.1)


@pytest.mark.parametrize(
    "text",
    [
        "objects",  # no '='
        "objects = many",
        "arena = 640",
        "size = 3",
        "tracker = idswitch:0.5",
        "tracker = wobble=1",
    ],
)
def test_parse_scenario_config_errors(text):
    with pytest.raises(ValueError):
        parse_scenario_config(text)
