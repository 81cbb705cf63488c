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
    MAX_SPEED,
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



# SHA-256 of serialize_trackset for the gt and tracker of generate_scenario,
# then the gt and both trackers of complementary_pair, at N frames. N = 1
# is a single waypoint, 51 and 101 end on a waypoint, the others append one.
PINNED_SHORT_SCENARIOS = {
    1: (
        "765cde2665e75b58f46a71526ed3a81dd3c8384f1fb785d918f84bdbad42dc4d",
        "0e8ebab51e22f667eb22f470f391d3ad4041f62f0a470e132c84f04900811436",
        "63f94e7bfc6f79ad71473d761fe31f278c1aa090105b2d7d741a293cd09811f5",
        "63f94e7bfc6f79ad71473d761fe31f278c1aa090105b2d7d741a293cd09811f5",
        "63f94e7bfc6f79ad71473d761fe31f278c1aa090105b2d7d741a293cd09811f5",
    ),
    2: (
        "cd3324331238c53ee0e8158d7b681dd46cf6bcf4ca730db0fdd21496a34c179f",
        "0eb977d9a152de41bf01412a557d682a87a7b41b45d7a8170aec9943fd7b5f2a",
        "aeb7753b0bfc15b1d0ee151ebfcc3111cf6ca1c4895ffbed42a23ef88e507c8d",
        "6481b7eb87d1c7cde849124174fc01059ec0f4508532d5b01d285ae81180ad07",
        "3e8543df66676c85f2b34c5cd61bfe81000cf55b0b8cc1330caee895913188eb",
    ),
    49: (
        "b9a7f5dbe39ebefc45f77f708eaf27e5b197b76d3073d54c075802ed506a4b4c",
        "b7878bb457a86f746c920ddf16135310400e8f2aa2b3f3c4d9dcaaa382303c27",
        "c9b5b6d476de8acbbea97f90155e0f35b76b080494539d3c1774c3f3d643c184",
        "b43a48ac5335c3d54721dea4a98b1fb7a6e32f6b79b9aca2717b1feb5e2a4e64",
        "0e6fd57b466d3cde2d8e64044184f19fe35db62f95aeb2609cdfce1777fd75e3",
    ),
    50: (
        "859127862083d4d1284b525b6d62c05fa58d505c099e90a4a300661e09b47e85",
        "b916cc7b047284d441d012c556438a07cd1e3529e223c3a918f6bfbfa657cf41",
        "74fb66c8a43d4da32e785acfe8987a6d16087cea0dd0ef44c5dfe6c0946ed511",
        "261096aa9afce0a61ffffa13ecac770f4e76ba5a9adf6a930815cb0919bf07ee",
        "694de0db96d5d2d9c140f6a542e1429dbc5ed0ae5ea17127ce19ba218ea474fa",
    ),
    51: (
        "0e8c564b91747a05321104f87109983a8494fdd21dd67fafb9ad98ead3f61170",
        "6eda331173c8e6e313cd223f81f3df89cd2cd4c2daa41d56d4251110214ead3f",
        "d441c24e44aa6f4f96b514511e6499903cbcf0679e927bbe1b6ce2a419af5130",
        "b96aa1ba8b139e1e8a60b0d98efa7409fd95fad7c4205f9d74bedbe60d345aee",
        "3969f43233e97335735140ac605b1aad221eec1f9126f3aa730d069b7c44f1e2",
    ),
    52: (
        "db985f37f3cd4af9f3836bf8b938053965bc2ef039627812d4e035a8ef5ff6e9",
        "11119c8809f1cc0e2a59ade0260e7130167d1ce758ec3a8c25b4f9b4ce37ed8e",
        "96ac6c4ec398972e0263d1098f017f8cbcda4eb1addbd7e3f4459f0c7f7c9a1c",
        "82075824cbc7ef42ceb29f5eb105883ae7aee009f413e3f2a8cad38972c0f521",
        "cb25e2089af060b5ed798f7e28964ad0dfbde0391c3d3aa81c3639eb9b16ae8c",
    ),
    100: (
        "08bd173303bea37bd803d952337ec9a466e4a93fad50ad6027aaf92f90d946df",
        "5c47d9015aa4df442a7da471d5c5897c6112d8a5a4bc578b1b1eb7d50059ed79",
        "f95074060f7eea012b8a462884d1f7194e58e908286e3f803ec50332786aee36",
        "bd0eb6ac1951b8ca47f46a746cd3d3c17f95ad24bbd8ab1f8cd5d0a17d64aae9",
        "b679fdac3c9fa4473313328e318f5e112dc7ad74a1380e45c17dece56d8b9b6d",
    ),
    101: (
        "d34f52dbb34fec741decbed3b9deae181059eb60b73da7320985859bf3c48df7",
        "252c62567d0044caeeb3a5a15c7b9cc3386bee73f5f9fbcac57259e3d4cc3ddf",
        "d3d4423952448cce079a2b4e2c583843a1513ffdf0c671c99ef6f1b1d9ffbf8e",
        "28729a4f59f4ce6a06bf36cf9340a8897a90adf9f031711ad0cfa950e8405216",
        "967551a8b96b793d02f8183d5c37d64c16cef33cac99a55467a2e07fd4fee66b",
    ),
    102: (
        "ae1ecf04a08bf87875f0a75e18f1bdcdb8958807370bbecad51c54e173386081",
        "d415976df7d0642a328a508330c990a7c39d0cf97e319e6f5ddc4f84d1ac3b32",
        "aca74bc93c33f5d96937de6103cf3b41fb1580f3d3149b99a2b54aafa3c604c0",
        "08c315d11bf2f76bb3a5d0569883cb8b8354f6ecaa1f1e8272140cb2c27724af",
        "cd821975f9984b170bfce8f6007dac983fd5669c42317799bbf2165db8735bb2",
    ),
}


def _short_scenarios(n):
    gt, trackers = generate_scenario(ScenarioSpec(3, n, seed=n, trackers=(DEFAULT_DEGRADATION,)))
    return (gt, *trackers), complementary_pair(ScenarioSpec(2, n, seed=n))


@pytest.mark.parametrize("n, digests", PINNED_SHORT_SCENARIOS.items())
def test_short_scenarios_are_pinned(n, digests):
    scenario, pair = _short_scenarios(n)
    assert tuple(
        hashlib.sha256(serialize_trackset(ts).encode()).hexdigest() for ts in (*scenario, *pair)
    ) == digests


@pytest.mark.parametrize("n", PINNED_SHORT_SCENARIOS)
def test_gt_paths_are_whole_in_arena_and_bounded_velocity(n):
    scenario, pair = _short_scenarios(n)
    spec = ScenarioSpec()  # the arena both calls use
    for gt in (scenario[0], pair[0]):
        for traj in gt.trajectories:
            assert traj.frame.tolist() == list(range(1, n + 1))
            x, y, w, h = traj.xywh.T
            assert (w == w[0]).all() and (h == h[0]).all()
            assert (x >= 0).all() and (x + w <= spec.arena_w).all()
            assert (y >= 0).all() and (y + h <= spec.arena_h).all()
            assert (np.abs(np.diff(traj.xywh[:, :2], axis=0)) <= MAX_SPEED).all()


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
