"""Benchmark of the ``trackfuse merge`` and ``trackfuse eval`` command lines.

Run from the repository root:

    python3 perfbench/run.py --workload bands --seed 1 --seconds 10 --trace 0

The benchmark generates a workload's ground truth and tracker files from
``--seed``, then drives the real command line, ``trackfuse.cli.main``,
in-process on those files. ``--workload all`` runs every workload in turn.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a replay
that calls each module's public functions in the order the command line
uses them, with a span around every call, and prints the per-layer
metrics. Every output is checked, in both modes; see README.md for the
checks, the metrics and why each workload was chosen.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
start with ``#`` and hold a readable table and the run environment. The
full report, spans included, goes to ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy

CPUS = os.sched_getaffinity(0)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The program under test is the source tree next to this directory, never
# an installed copy.
sys.path.insert(0, str(SRC))
import trackfuse  # noqa: E402

if Path(trackfuse.__file__).resolve().parent != SRC / "trackfuse":
    raise SystemExit(f"trackfuse imported from {trackfuse.__file__}, not from {SRC}")

from trackfuse import cli  # noqa: E402
from trackfuse.ensemble import (  # noqa: E402
    EnsembleConfig,
    MergeMode,
    length_filter,
    length_nms,
    merge_group,
    merge_groups,
    mix,
)
from trackfuse.interpolate import linear_interpolate  # noqa: E402
from trackfuse.io import load_trackset, save_trackset  # noqa: E402
from trackfuse.metrics import clear_mot, evaluate, idf1  # noqa: E402
from trackfuse.model import TrackSet  # noqa: E402
from trackfuse.synth import (  # noqa: E402
    DEFAULT_DEGRADATION,
    ScenarioSpec,
    TrackerDegradation,
    generate_scenario,
)

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups, after one warm-up
STARTUP_REPEATS = 5  # fresh interpreters timed for startup_s, after one warm-up
MIN_ROUNDS = 2  # timed rounds, even when --seconds runs out first

# One reference() call: its loop count, and its duration on the host the
# times are expressed at (about its median on a 2-core 2.1 GHz x86-64 VM).
REFERENCE_ROWS = 60_000
REFERENCE_S = 0.05

# Output coordinates carry two decimals, so each re-parsed coordinate is off
# by up to 0.005 px. On boxes over 20 px a side, as synth makes them, that
# moves an IoU by less than 0.006; the NMS check allows for this much.
ROUNDING_IOU_SLACK = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: how to generate it and how to merge it."""

    name: str
    why: str
    objects: int  # objects per scenario
    frames: int
    trackers: Tuple[TrackerDegradation, ...]
    scenarios: int = 1  # independently seeded scenarios overlaid in one arena
    arena: Tuple[int, int] = (800, 600)
    merge_flags: Tuple[str, ...] = ()


GAPPY_DEGRADATION = TrackerDegradation(
    idswitch_rate=0.0005, drop_rate=0.1, jitter=1.0, segment_drop=15
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bands",
            "20 objects x 600 frames, 3 trackers, one object per band: "
            "400 tracks whose envelopes barely overlap, so grouping and IDF1 dominate",
            objects=20,
            frames=600,
            trackers=(DEFAULT_DEGRADATION,) * 3,
        ),
        Workload(
            "crowd",
            "10 two-object scenarios overlaid in one 400x300 arena: bands' pool size, "
            "but objects cross, so spatial prefilters find far less to skip",
            objects=2,
            frames=600,
            trackers=(DEFAULT_DEGRADATION,) * 3,
            scenarios=10,
            arena=(400, 300),
        ),
        Workload(
            "gappy",
            "4 objects x 6000 frames, 2 gappy trackers, average mode and interpolation: "
            "few long tracks, so per-box parsing, averaging and filling dominate",
            objects=4,
            frames=6000,
            trackers=(GAPPY_DEGRADATION,) * 2,
            merge_flags=("--mode", "average", "--interpolate", "20"),
        ),
    )
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Counts operations attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)


class Tracer:
    """In-memory spans: name, start, end, parent span index and op id."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> Dict[Tuple[str, str], float]:
        """(op, span name) -> summed self time: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[Tuple[str, str], float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[(op, name)] = out.get((op, name), 0.0) + (end - start) - child[i]
        return out

    def dump(self) -> List[dict]:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


def reference() -> None:
    """Fixed pure-Python work shaped like trackfuse's own: build, sort and
    index some 60k small tuples of floats, about 7 MB, then drop them."""
    rows = [((i * 37) % 1009 * 0.5, i, float(i & 255)) for i in range(REFERENCE_ROWS)]
    index: Dict[int, List[float]] = {}
    for row in sorted(rows):
        index.setdefault(row[1] & 1023, []).append(row[0] + row[2])


class HostClock:
    """Wall times of named calls, also expressed at a fixed host speed.

    A shared host's speed drifts by a quarter within minutes, so the wall
    times of one call do not repeat from run to run. Every timed call is
    therefore bracketed by two ``reference()`` calls on the same CPU. The
    call's wall time over their mean, times REFERENCE_S, is its duration on
    a host where ``reference()`` takes REFERENCE_S.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[Tuple[float, float, float]]] = {}

    @staticmethod
    def _reference() -> float:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start

    def time(self, name: str, call):
        """Run ``call()``, record (reference, wall, reference) under ``name``,
        and return the call's result."""
        gc.collect()
        before = self._reference()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        gc.collect()
        self.samples.setdefault(name, []).append((before, wall, self._reference()))
        return result

    def median(self, name: str) -> float:
        """Median time of ``name``, at the fixed host speed."""
        return statistics.median(
            wall * 2 * REFERENCE_S / (before + after) for before, wall, after in self.samples[name]
        )


# -- workload generation ----------------------------------------------------


def scenario_seeds(seed: int, count: int) -> List[int]:
    """Seeds of the overlaid scenarios; a single scenario uses ``seed`` itself."""
    if count == 1:
        return [seed]
    return [
        int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:8], "little")
        for i in range(count)
    ]


def generate(w: Workload, seed: int) -> Tuple[TrackSet, List[TrackSet]]:
    """Ground truth and tracker outputs; overlaid scenarios get offset ids."""
    gt_tracks: list = []
    tracker_tracks: List[list] = [[] for _ in w.trackers]
    gt_seq, tracker_seqs = "", [""] * len(w.trackers)
    for sub_seed in scenario_seeds(seed, w.scenarios):
        spec = ScenarioSpec(w.objects, w.frames, w.arena[0], w.arena[1], sub_seed, w.trackers)
        gt, trackers = generate_scenario(spec)
        gt_seq = gt.sequence
        offset = len(gt_tracks)
        gt_tracks += [t.with_id(t.id + offset) for t in gt.trajectories]
        for k, ts in enumerate(trackers):
            tracker_seqs[k] = ts.sequence
            offset = max((t.id for t in tracker_tracks[k]), default=0)
            tracker_tracks[k] += [t.with_id(t.id + offset) for t in ts.trajectories]
    return TrackSet(gt_seq, gt_tracks), [
        TrackSet(seq, tracks) for seq, tracks in zip(tracker_seqs, tracker_tracks)
    ]


@dataclasses.dataclass(frozen=True)
class Files:
    gt: Path
    trackers: List[Path]
    fused: Path
    uninterpolated: Path  # the fused file of the same merge without --interpolate
    replay: Path


def set_up(w: Workload, seed: int, workdir: Path, tr: Tracer) -> Files:
    """Generate the workload and write its files, inside a ``setup`` span."""
    files = Files(
        workdir / "gt.txt",
        [workdir / f"tracker_{k + 1}.txt" for k in range(len(w.trackers))],
        workdir / "fused.txt",
        workdir / "uninterpolated.txt",
        workdir / "replay.txt",
    )
    with tr.span("setup"):
        with tr.span("synth.generate"):
            gt, trackers = generate(w, seed)
        with tr.span("io.save"):
            workdir.mkdir(parents=True, exist_ok=True)
            save_trackset(files.gt, gt)
            for path, ts in zip(files.trackers, trackers):
                save_trackset(path, ts)
    return files


def merge_argv(w: Workload, files: Files, output: Path, interpolate: bool = True) -> List[str]:
    flags = list(w.merge_flags)
    if not interpolate and "--interpolate" in flags:
        at = flags.index("--interpolate")
        del flags[at:at + 2]
    argv = ["merge"]
    for path in files.trackers:
        argv += ["-i", str(path)]
    return argv + ["-o", str(output), *flags]


def eval_argvs(files: Files) -> List[List[str]]:
    """``trackfuse eval`` on every input file, then on the fused file."""
    return [
        ["eval", "--gt", str(files.gt), "--pred", str(pred)]
        for pred in [*files.trackers, files.fused]
    ]


# -- the command line, untraced ---------------------------------------------


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """One in-process command-line call: exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def fresh_import(clock: HostClock, repeats: int) -> List[float]:
    """Time, as ``startup``, fresh interpreters that import ``trackfuse.cli``
    and exit, after one warm-up; return the import's own wall time in each."""
    code = (
        "import time; t = time.perf_counter(); import trackfuse.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for i in range(repeats + 1):
        proc = clock.time("startup" if i else "startup warm-up", lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        ))
        imports.append(float(proc.stdout))
    return imports[1:]


# -- checks -------------------------------------------------------------------


def read_rows(path: Path) -> np.ndarray:
    """frame, id, x, y, w, h of every line of a result file, parsed here."""
    return np.loadtxt(path, delimiter=",", usecols=range(6), ndmin=2)


def max_same_frame_iou(rows: np.ndarray) -> float:
    """Largest IoU between two boxes of one frame, computed independently."""
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    best = 0.0
    for chunk in np.split(rows, np.flatnonzero(np.diff(rows[:, 0])) + 1):
        if len(chunk) < 2:
            continue
        x0, y0, w, h = chunk[:, 2], chunk[:, 3], chunk[:, 4], chunk[:, 5]
        x1, y1 = x0 + w, y0 + h
        iw = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
        ih = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
        inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
        area = w * h
        iou = inter / (area[:, None] + area[None, :] - inter)
        np.fill_diagonal(iou, 0.0)
        best = max(best, float(iou.max()))
    return best


def check_pruned(path: Path, merge_args: argparse.Namespace) -> None:
    """What NMS and the length filter promise about a fused file."""
    rows = read_rows(path)
    for track_id in np.unique(rows[:, 1]):
        frames = rows[rows[:, 1] == track_id, 0]
        span = frames.max() - frames.min() + 1
        require(span >= merge_args.thr_len,
                f"track {track_id:.0f} spans {span:.0f} < {merge_args.thr_len} frames")
    worst = max_same_frame_iou(rows)
    require(worst <= merge_args.thr_nms + ROUNDING_IOU_SLACK,
            f"same-frame IoU {worst:.4f} > {merge_args.thr_nms}")


def check_interpolated(plain: Path, filled: Path, max_gap: int) -> None:
    """``filled`` is ``plain`` plus boxes in exactly the gaps of at most
    ``max_gap`` frames inside each track, and nothing else changed."""
    plain_lines = set(plain.read_text(encoding="utf-8").splitlines())
    require(plain_lines <= set(filled.read_text(encoding="utf-8").splitlines()),
            "interpolation changed or dropped a box")
    plain_rows, filled_rows = read_rows(plain), read_rows(filled)
    require(set(np.unique(plain_rows[:, 1])) == set(np.unique(filled_rows[:, 1])),
            "interpolation changed the track ids")
    for track_id in np.unique(plain_rows[:, 1]):
        frames = plain_rows[plain_rows[:, 1] == track_id, 0].astype(int).tolist()
        expected = set(frames)
        for f0, f1 in zip(frames, frames[1:]):
            if f1 - f0 - 1 <= max_gap:
                expected.update(range(f0 + 1, f1))
        got = set(filled_rows[filled_rows[:, 1] == track_id, 0].astype(int).tolist())
        require(got == expected, f"track {track_id:.0f}: interpolation filled the wrong frames")


def fmt(value: object) -> str:
    """A score as ``trackfuse eval`` prints it on its ``#metric`` lines."""
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def score_fields(report: object) -> Dict[str, object]:
    """Every scalar of a score dataclass, nested dataclasses flattened."""
    out: Dict[str, object] = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        out.update(score_fields(value) if dataclasses.is_dataclass(value) else {f.name: value})
    return out


def metric_lines(stdout: str) -> Dict[str, str]:
    pairs = (line[len("#metric "):].partition("=") for line in stdout.splitlines()
             if line.startswith("#metric "))
    return {name: value for name, _, value in pairs}


def expected_scores(argv: Sequence[str]) -> Dict[str, object]:
    """``evaluate()`` on the re-parsed files an eval call names."""
    args = cli.build_parser().parse_args(list(argv))
    report = evaluate(load_trackset(args.gt, is_ground_truth=True), load_trackset(args.pred),
                      args.iou)
    return score_fields(report)


# -- the traced replay -------------------------------------------------------


def count_boxes(tracks) -> int:
    return sum(len(t.detections) for t in tracks)


def replay_merge(tr: Tracer, argv: Sequence[str]) -> Dict[str, int]:
    """``cmd_merge`` step by step, with a span around each module call.

    Returns the stage counts, each taken from one stage's input and output.
    """
    with tr.span("cli.merge"):
        args = cli.build_parser().parse_args(list(argv))
        cfg = EnsembleConfig(thr_s=args.thr_s, thr_t=args.thr_t, thr_nms=args.thr_nms,
                             thr_len=args.thr_len, merge_mode=MergeMode(args.mode))
        tracksets = []
        for path in args.input:
            with tr.span("io.parse"):
                tracksets.append(load_trackset(path))
        with tr.span("ensemble.mix"):
            pool = mix(tracksets)
        with tr.span("ensemble.merge_groups"):
            groups = merge_groups(pool, cfg.thr_s, cfg.thr_t)
        with tr.span("ensemble.merge_group"):
            merged = [merge_group(group, cfg.merge_mode) for group in groups]
        with tr.span("ensemble.nms"):
            pruned = length_nms(merged, cfg.thr_nms)
        with tr.span("ensemble.length_filter"):
            kept = length_filter(pruned, cfg.thr_len)
        with tr.span("ensemble.relabel"):
            relabeled = TrackSet(tracksets[0].sequence,
                                 [t.with_id(i) for i, t in enumerate(kept, start=1)])
        fused = relabeled
        with tr.span("interpolate"):
            if args.interpolate is not None:
                fused = TrackSet(fused.sequence, [linear_interpolate(t, args.interpolate)
                                                  for t in fused.trajectories])
        with tr.span("io.serialize"):
            save_trackset(args.output, fused)
    nms_in = count_boxes(merged)
    return {
        "ensemble.absorbed": len(pool) - len(groups),
        "ensemble.nms_boxes_in": nms_in,
        "ensemble.nms_suppressed": nms_in - count_boxes(pruned),
        "ensemble.tracks_dropped": len(pruned) - len(kept),
        "interpolate.boxes_filled": fused.num_detections - relabeled.num_detections,
    }


def replay_eval(tr: Tracer, argv: Sequence[str]) -> Dict[str, str]:
    """``cmd_eval`` step by step; returns its ``#metric`` values."""
    with tr.span("cli.eval"):
        args = cli.build_parser().parse_args(list(argv))
        with tr.span("io.parse"):
            gt = load_trackset(args.gt, is_ground_truth=True)
        with tr.span("io.parse"):
            pred = load_trackset(args.pred)
        with tr.span("metrics.clear"):
            clear = clear_mot(gt, pred, args.iou)
        with tr.span("metrics.idf1"):
            ident = idf1(gt, pred, args.iou)
        values = {**score_fields(clear), **score_fields(ident)}
        return {name: fmt(value) for name, value in values.items()}


# -- work counts from the files ----------------------------------------------


def input_counts(files: Files) -> Dict[str, float]:
    """Work counts of merge and eval, from their input and output files only."""
    tracks = []  # start, stop, left, top, right, bottom of every pooled track
    frame_hist: Dict[int, int] = {}
    boxes = 0
    for path in files.trackers:
        rows = read_rows(path)
        boxes += len(rows)
        for frame, n in zip(*np.unique(rows[:, 0].astype(np.int64), return_counts=True)):
            frame_hist[int(frame)] = frame_hist.get(int(frame), 0) + int(n)
        for track_id in np.unique(rows[:, 1]):
            r = rows[rows[:, 1] == track_id]
            tracks.append((r[:, 0].min(), r[:, 0].max(), r[:, 2].min(), r[:, 3].min(),
                           (r[:, 2] + r[:, 4]).max(), (r[:, 3] + r[:, 5]).max()))
    t = np.array(tracks)
    upper = np.triu(np.ones((len(t), len(t)), dtype=bool), k=1)
    co = upper & (t[:, None, 0] <= t[None, :, 1]) & (t[None, :, 0] <= t[:, None, 1])
    env = ((t[:, None, 2] < t[None, :, 4]) & (t[None, :, 2] < t[:, None, 4])
           & (t[:, None, 3] < t[None, :, 5]) & (t[None, :, 3] < t[:, None, 5]))
    cooccurring = int(co.sum())

    gt_rows = read_rows(files.gt)
    id_pairs = frames_scored = 0
    parsed = boxes  # the merge's own parse of its inputs
    for pred in [*files.trackers, files.fused]:
        rows = read_rows(pred)
        parsed += len(gt_rows) + len(rows)
        id_pairs += len(np.unique(gt_rows[:, 1])) * len(np.unique(rows[:, 1]))
        frames_scored += len(np.union1d(gt_rows[:, 0], rows[:, 0]))
    return {
        "ensemble.pool_tracks": len(t),
        "ensemble.pool_boxes": boxes,
        "ensemble.cooccurring_pairs": cooccurring,
        "ensemble.shared_frames": sum(n * (n - 1) // 2 for n in frame_hist.values()),
        "ensemble.envelope_overlap_share": float((co & env).sum()) / max(cooccurring, 1),
        "io.boxes_parsed": parsed,
        "io.boxes_written": len(read_rows(files.fused)),
        "metrics.id_pairs": id_pairs,
        "metrics.frames_scored": frames_scored,
    }


# -- one run ------------------------------------------------------------------

UNITS = {"_s": "s", "_mib": "MiB", "_share": "ratio", "_ratio": "ratio", "_per_box": "B",
         "_mota": "ratio", "_idf1": "ratio"}

# span name -> per-layer metric holding its self time per round
SPAN_METRICS = {
    "io.parse": "io.parse_s",
    "ensemble.mix": "ensemble.mix_s",
    "ensemble.merge_groups": "ensemble.merge_groups_s",
    "ensemble.merge_group": "ensemble.merge_group_s",
    "ensemble.nms": "ensemble.nms_s",
    "ensemble.length_filter": "ensemble.length_filter_s",
    "ensemble.relabel": "ensemble.relabel_s",
    "interpolate": "interpolate.s",
    "io.serialize": "io.serialize_s",
    "metrics.clear": "metrics.clear_s",
    "metrics.idf1": "metrics.idf1_s",
    "cli.merge": "cli.merge_self_s",
    "cli.eval": "cli.eval_self_s",
}


def unit_of(name: str) -> str:
    if name == "interpolate.s":
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class FreshCalls:
    """Command lines that peak.py runs in a fresh interpreter, started at once.

    ``result()`` waits for their exit codes, standard outputs and the growth
    of the peak resident set; leaving the ``with`` block stops the child.
    """

    def __init__(self, argvs: Sequence[Sequence[str]]):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("peak.py")), json.dumps(argvs)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        with contextlib.suppress(ProcessLookupError):  # untimed: free to use every CPU
            os.sched_setaffinity(self.proc.pid, CPUS)

    def __enter__(self) -> "FreshCalls":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()

    def result(self) -> dict:
        out, err = self.proc.communicate(timeout=170)
        require(self.proc.returncode == 0, f"peak.py exit code {self.proc.returncode}: {err}")
        return json.loads(out)


def first_pass(w: Workload, files: Files, tally: Tally) -> dict:
    """Untimed merge and eval calls, each checked in full.

    They run in fresh interpreters that also measure their peak memory,
    while this process computes the scores ``evaluate()`` expects. Returns
    what later calls are compared with: the fused bytes and eval outputs.
    """
    merge_call = merge_argv(w, files, files.fused)
    merge_args = cli.build_parser().parse_args(merge_call)
    eval_calls = eval_argvs(files)
    ref: dict = {"fused": b"", "eval": []}
    with FreshCalls([merge_call]) as fresh:
        scores = [expected_scores(a) for a in eval_calls[:-1]]
        with tally.op("merge"):
            merge = fresh.result()
            ref["merge_peak"] = merge["peak_bytes"]
            require(merge["codes"] == [0], f"merge exit code {merge['codes']}")
            ref["fused"] = files.fused.read_bytes()
            ref["sha256"] = hashlib.sha256(ref["fused"]).hexdigest()
            load_trackset(files.fused)  # trackfuse must read back what it wrote
            if merge_args.interpolate is None:
                check_pruned(files.fused, merge_args)
    if merge_args.interpolate is not None:
        # Interpolation runs after NMS, so NMS's promise holds for the boxes
        # before it; the filled boxes are checked against the gaps they fill.
        with tally.op("merge without --interpolate"):
            code, _ = run_cli(merge_argv(w, files, files.uninterpolated, interpolate=False))
            require(code == 0, f"merge exit code {code}")
            check_pruned(files.uninterpolated, merge_args)
            check_interpolated(files.uninterpolated, files.fused, merge_args.interpolate)
    with FreshCalls(eval_calls) as fresh:
        scores.append(expected_scores(eval_calls[-1]))
        evals = fresh.result()
    ref["eval_peak"] = evals["peak_bytes"]
    ref["fused_scores"] = scores[-1]
    for a, code, stdout, expected in zip(eval_calls, evals["codes"], evals["stdouts"], scores):
        ref["eval"].append(stdout)
        with tally.op("eval " + Path(a[-1]).name):
            require(code == 0, f"eval exit code {code}")
            require(metric_lines(stdout) == {k: fmt(v) for k, v in expected.items()},
                    f"#metric lines differ from evaluate(): {metric_lines(stdout)}")
    return ref


def timed_merge(w: Workload, files: Files, ref: dict, tally: Tally, clock: HostClock) -> None:
    code, _ = clock.time("merge", lambda: run_cli(merge_argv(w, files, files.fused)))
    with tally.op("merge"):
        require(code == 0, f"merge exit code {code}")
        require(files.fused.read_bytes() == ref["fused"], "fused bytes changed between calls")


def timed_eval(files: Files, ref: dict, tally: Tally, clock: HostClock) -> None:
    for argv, expected in zip(eval_argvs(files), ref["eval"]):
        name = "eval " + Path(argv[-1]).name
        code, stdout = clock.time(name, lambda: run_cli(argv))
        with tally.op(name):
            require(code == 0 and stdout == expected, "eval output changed between calls")


def measure_end_to_end(w: Workload, files: Files, seconds: float, tally: Tally,
                       clock: HostClock) -> dict:
    fresh_import(clock, STARTUP_REPEATS)
    ref = first_pass(w, files, tally)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # merge_s spreads most from run to run, so each round times it twice
        timed_merge(w, files, ref, tally, clock)
        timed_eval(files, ref, tally, clock)
        timed_merge(w, files, ref, tally, clock)
        rounds += 1
    metrics = {
        "merge_s": clock.median("merge"),
        "eval_s": sum(clock.median("eval " + Path(a[-1]).name) for a in eval_argvs(files)),
        "startup_s": clock.median("startup"),
        "merge_peak_mib": ref["merge_peak"] / 2**20,
        "eval_peak_mib": ref["eval_peak"] / 2**20,
    }
    return {"metrics": metrics, "sha256": ref.get("sha256"), "rounds": rounds}


def measure_layers(w: Workload, files: Files, seconds: float, tally: Tally, tr: Tracer,
                   clock: HostClock) -> dict:
    imports = fresh_import(clock, STARTUP_REPEATS)
    ref = first_pass(w, files, tally)

    tracemalloc.start()
    boxes = sum(load_trackset(p).num_detections for p in files.trackers)
    parse_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    stage_counts: Dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        timed_merge(w, files, ref, tally, clock)
        tr.op = f"round-{rounds}"
        with tally.op("replay merge"):
            stage_counts = clock.time(
                "replay merge", lambda: replay_merge(tr, merge_argv(w, files, files.replay)))
            require(files.replay.read_bytes() == ref["fused"],
                    "replayed fused bytes differ from the command line's")
        for argv, expected in zip(eval_argvs(files), ref["eval"]):
            with tally.op("replay eval " + Path(argv[-1]).name):
                require(replay_eval(tr, argv) == metric_lines(expected),
                        "replayed scores differ from the command line's #metric lines")
        rounds += 1

    per_round: Dict[str, List[float]] = {}
    for (op, name), value in tr.self_times().items():
        if op.startswith("round-") and name in SPAN_METRICS:
            per_round.setdefault(SPAN_METRICS[name], []).append(value)
    metrics: Dict[str, float] = {m: statistics.median(v) for m, v in per_round.items()}
    traced_merge = statistics.median(tr.durations("cli.merge"))
    counts = input_counts(files)
    metrics.update(counts)
    metrics.update(stage_counts)
    metrics.update({
        "ensemble.merge_groups_share": metrics["ensemble.merge_groups_s"] / traced_merge,
        "ensemble.absorb_ratio": stage_counts["ensemble.absorbed"] / counts["ensemble.pool_tracks"],
        "ensemble.nms_suppress_ratio":
            stage_counts["ensemble.nms_suppressed"] / max(stage_counts["ensemble.nms_boxes_in"], 1),
        "model.bytes_per_box": parse_peak / boxes,
        "cli.merge_s": traced_merge,
        "metrics.fused_mota": ref["fused_scores"]["mota"],
        "metrics.fused_idf1": ref["fused_scores"]["idf1"],
        "cli.import_s": statistics.median(imports),
        "synth.generate_s": statistics.median(tr.durations("synth.generate")[1:]),
        "trace.overhead_s": clock.median("replay merge") - clock.median("merge"),
    })
    return {"metrics": metrics, "sha256": ref.get("sha256"), "rounds": rounds}


def environment(w: Workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": w.name,
        "scale": {
            "objects": w.objects,
            "frames": w.frames,
            "scenarios": w.scenarios,
            "trackers": len(w.trackers),
            "arena": list(w.arena),
            "merge_flags": list(w.merge_flags),
        },
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its result and its full report."""
    workdir = OUT / w.name
    tr, tally, clock = Tracer(), Tally(), HostClock()
    for i in range(SETUP_REPEATS + 1):
        tr.op = f"setup-{i}"
        files = clock.time("setup" if i else "setup warm-up",
                           lambda: set_up(w, seed, workdir, tr))
    tr.op = ""
    if trace:
        measured = measure_layers(w, files, seconds, tally, tr, clock)
    else:
        measured = measure_end_to_end(w, files, seconds, tally, clock)
        measured["metrics"]["setup_s"] = clock.median("setup")
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in measured.pop("metrics").items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report = {"environment": environment(w, seed), "result": result,
              "problems": tally.problems, **measured,
              "timings": clock.samples, "spans": tr.dump()}
    name = f"report-seed{seed}-trace{int(trace)}.json"
    (workdir / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return {"result": result, "report": report}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One CPU for every timed call, its reference() brackets and its children.
    os.sched_setaffinity(0, {min(CPUS)})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result, report = run["result"], run["report"]
        print(f"# environment {json.dumps(report['environment'])}")
        print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fused sha256 {report['sha256']}")
        for problem in report["problems"]:
            print(f"# {name}: FAILED {problem}")
        for metric, entry in result["metrics"].items():
            print(f"# {name:<6} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + m: e for m, e in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
