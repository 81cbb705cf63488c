"""Command line: fuse tracking result files, score them, generate scenarios."""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Iterator, List, Optional

from .ensemble import EnsembleConfig, MergeMode, ensemble_pipeline
from .io import ParseError, load_trackset, save_trackset
from .metrics import EvalReport, evaluate
from .model import TrackSet
from .synth import (
    _SPEC_KEYS,
    DEFAULT_DEGRADATION,
    ScenarioSpec,
    _config_fields,
    complementary_pair,
    generate_scenario,
    parse_arena,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2


class _Failure(Exception):
    """A command's failure: ``main`` prints the message and exits with ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(
    error: type[Exception] | tuple[type[Exception], ...], code: int, prefix: str = ""
) -> Iterator[None]:
    """Turn ``error`` raised in the block into a ``_Failure``, its message led by ``prefix``."""
    try:
        yield
    except error as exc:
        # an OSError's str() repeats the path; its strerror alone does not
        reason = exc.strerror if isinstance(exc, OSError) else None
        raise _Failure(code, f"{prefix}{reason or exc}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str, is_ground_truth: bool = False) -> TrackSet:
    unreadable = _failing(OSError, EXIT_INPUT, f"cannot read {path}: ")
    with unreadable, _failing(ParseError, EXIT_INPUT, f"{path}: "):
        return load_trackset(path, is_ground_truth)


def cmd_merge(args: argparse.Namespace) -> None:
    if args.interpolate is not None and args.interpolate < 1:
        raise _Failure(EXIT_USAGE, f"--interpolate must be >= 1, got {args.interpolate}")
    with _failing(ValueError, EXIT_USAGE):
        cfg = EnsembleConfig(thr_s=args.thr_s, thr_t=args.thr_t, thr_nms=args.thr_nms,
                             thr_len=args.thr_len, merge_mode=args.mode, max_gap=args.interpolate)

    # a generator, so that the pipeline can release the inputs once it has pooled them
    fused = ensemble_pipeline((_load(path) for path in args.input), cfg)
    with _failing(OSError, EXIT_INPUT, f"cannot write {args.output}: "):
        save_trackset(args.output, fused)


def _report_rows(report: EvalReport) -> List[tuple[str, object]]:
    clear, ident = report.clear, report.identity
    return [
        ("num_gt", clear.num_gt),
        ("FP", clear.fp),
        ("FN", clear.fn),
        ("IDSW", clear.idsw),
        ("MOTA", clear.mota),
        ("IDTP", ident.idtp),
        ("IDFP", ident.idfp),
        ("IDFN", ident.idfn),
        ("IDF1", ident.idf1),
    ]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def cmd_eval(args: argparse.Namespace) -> None:
    if not 0.0 < args.iou <= 1.0:
        raise _Failure(EXIT_USAGE, f"--iou must be in (0, 1], got {args.iou}")
    gt = _load(args.gt, is_ground_truth=True)
    if gt.num_detections == 0:
        raise _Failure(EXIT_INPUT, f"ground truth {args.gt} contains no boxes")
    pred = _load(args.pred)

    report = evaluate(gt, pred, args.iou)
    rows = _report_rows(report)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    print()
    for name, value in rows:
        print(f"#metric {name.lower()}={_fmt(value)}")


def _build_spec(args: argparse.Namespace) -> ScenarioSpec:
    config = {}
    if args.config is not None:
        # a config that cannot be read, or whose bytes are not UTF-8 text
        with _failing((OSError, UnicodeDecodeError), EXIT_INPUT, f"cannot read {args.config}: "):
            text = Path(args.config).read_text(encoding="utf-8-sig")
        with _failing(ValueError, EXIT_INPUT, f"{args.config}: "):
            config = _config_fields(text, with_trackers=args.trackers is None and not args.complementary)

    flags = {name: v for key, name in _SPEC_KEYS.items() if (v := getattr(args, key)) is not None}
    if args.arena is not None:
        try:
            flags["arena_w"], flags["arena_h"] = parse_arena(args.arena)
        except ValueError:
            raise _Failure(EXIT_USAGE, f"--arena expects WxH, got {args.arena!r}") from None
    if args.trackers is not None:
        if args.trackers < 0:
            raise _Failure(EXIT_USAGE, f"--trackers must be >= 0, got {args.trackers}")
        flags["trackers"] = (DEFAULT_DEGRADATION,) * args.trackers
    elif not config.get("trackers") and not args.complementary:
        flags["trackers"] = (DEFAULT_DEGRADATION,) * 2
    try:
        return ScenarioSpec(**{**config, **flags})
    except ValueError as exc:
        with _failing(ValueError, EXIT_INPUT, f"{args.config}: "):
            ScenarioSpec(**config)  # the config is named when its own values are invalid
        raise _Failure(EXIT_USAGE, str(exc)) from None


def cmd_synth(args: argparse.Namespace) -> None:
    spec = _build_spec(args)
    with _failing(ValueError, EXIT_USAGE):
        if args.complementary:
            gt, tracker_a, tracker_b = complementary_pair(spec)
            outputs = [("gt.txt", gt), ("tracker_1.txt", tracker_a), ("tracker_2.txt", tracker_b)]
        else:
            gt, tracker_sets = generate_scenario(spec)
            outputs = [("gt.txt", gt)]
            outputs += [(f"tracker_{k + 1}.txt", ts) for k, ts in enumerate(tracker_sets)]

    outdir = Path(args.output)
    with _failing(OSError, EXIT_INPUT, f"cannot write to {outdir}: "):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, ts in outputs:
            save_trackset(outdir / name, ts)
            print(f"wrote {outdir / name}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; every later call returns the same one."""
    parser = _Parser(
        prog="trackfuse",
        description="Fuse multi-object tracking result files, score them against "
        "ground truth, and generate synthetic benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("merge", help="fuse one or more tracking result files")
    p.add_argument("-i", "--input", action="append", required=True, metavar="FILE",
                   help="input result file in MOTChallenge format (repeatable)")
    p.add_argument("-o", "--output", required=True, metavar="FILE", help="fused output file")
    p.add_argument("--thr-s", type=float, default=EnsembleConfig.thr_s,
                   help="per-frame spatial IoU threshold (default %(default)s)")
    p.add_argument("--thr-t", type=float, default=EnsembleConfig.thr_t,
                   help="trajectory overlap-ratio threshold for merging (default %(default)s)")
    p.add_argument("--thr-nms", type=float, default=EnsembleConfig.thr_nms,
                   help="per-frame NMS IoU threshold (default %(default)s)")
    p.add_argument("--thr-len", type=int, default=EnsembleConfig.thr_len,
                   help="minimum trajectory span in frames (default %(default)s)")
    p.add_argument("--mode", choices=[m.value for m in MergeMode], default=EnsembleConfig.merge_mode.value,
                   help="overlapping-box integration: keep the longer track's box, "
                   "or average all boxes (default %(default)s)")
    p.add_argument("--interpolate", type=int, metavar="MAX_GAP",
                   help="afterwards, fill trajectory gaps of up to MAX_GAP frames")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("--gt", required=True, metavar="FILE", help="ground-truth file")
    p.add_argument("--pred", required=True, metavar="FILE", help="prediction file")
    p.add_argument("--iou", type=float, default=0.5,
                   help="matching IoU threshold (default 0.5)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic tracking scenario")
    p.add_argument("-o", "--output", required=True, metavar="DIR", help="output directory")
    p.add_argument("--seed", type=int, help="scenario seed (default 0)")
    p.add_argument("--objects", type=int, help="number of objects (default 4)")
    p.add_argument("--frames", type=int, help="number of frames (default 200)")
    p.add_argument("--trackers", type=int,
                   help="number of default-degraded tracker outputs (default 2)")
    p.add_argument("--arena", metavar="WxH", help="arena size in pixels (default 800x600)")
    p.add_argument("--config", metavar="FILE",
                   help="key=value scenario file; explicit flags override it")
    p.add_argument("--complementary", action="store_true",
                   help="write a complementary tracker pair instead (--trackers is ignored)")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args.func(args)
    except _Failure as failure:
        print(f"trackfuse {args.command}: error: {failure}", file=sys.stderr)
        return failure.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
