"""Command-line harness for the charging testbed.

One subcommand per entry of ``experiments.COMMANDS``, plus replay. Exit
codes: 0 success, 2 config or trace-file error, 3 failed checks (--check), a
truncated trace or a diverged replay.
"""
from __future__ import annotations

import argparse
import csv
import sys
from functools import partial
from pathlib import Path

from .config import ConfigError, PRESETS, resolve
from .experiments import COMMANDS, ExperimentOutput, cmd_replay, run
from .sim import TraceParseError

# command -> (ExperimentConfig -> ExperimentOutput); main calls through this
# dict, so a caller may replace its entries (the benchmark's tracer does)
_RUNNERS = {name: partial(run, name) for name in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargesim",
        description="Deterministic testbed for EV-charging telemetry protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="experiment config file (YAML/JSON)")
        p.add_argument("--preset", default="default", choices=sorted(PRESETS),
                       help="named preset to start from")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--duration", type=float, default=None, help="override duration_s")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=("csv", "svg"), default="csv",
                       help="csv always written; svg adds simple histogram renderings")
        p.add_argument("--check", action="store_true",
                       help="exit 3 unless every built-in check passes")

    for name in _RUNNERS:
        add_common(sub.add_parser(name, help=f"run the {name} experiment"))

    replay = sub.add_parser("replay", help="re-run a trace's (seed, config) and compare digests")
    replay.add_argument("trace", type=Path, help="trace file produced by this tool")
    return parser


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_svg_hist(path: Path, header, rows, title: str) -> None:
    """Minimal standalone SVG bar rendering of (bin_low, bin_high, count) rows."""
    counts = [r[-1] for r in rows]
    if not counts:
        return
    peak = max(counts) or 1
    width, height, pad = 640, 240, 30
    bar_w = (width - 2 * pad) / len(counts)
    bars = []
    for i, c in enumerate(counts):
        h = (height - 2 * pad) * c / peak
        x = pad + i * bar_w
        y = height - pad - h
        bars.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="#4477aa"/>'
        )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<text x="{pad}" y="18" font-size="12">{title}</text>'
        + "".join(bars)
        + "</svg>"
    )
    path.write_text(svg, encoding="utf-8")


def _emit(out: ExperimentOutput, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in out.traces:
        suffix = "" if name == "trace" else f"_{name}"
        digest = trace.write(out_dir / f"trace{suffix}.jsonl")
        print(f"trace{suffix}.jsonl digest {digest}")
    for fname, (header, rows) in out.csvs.items():
        _write_csv(out_dir / fname, header, rows)
        if fmt == "svg" and fname.startswith("hist_"):
            _write_svg_hist(out_dir / (fname[:-4] + ".svg"), header, rows, fname[:-4])
    lines = [f"command: {out.command}"]
    for key, value in out.summary.items():
        lines.append(f"{key}: {value}")
    for check in out.checks:
        lines.append(f"check {check.name}: {'PASS' if check.ok else 'FAIL'} ({check.detail})")
    summary_text = "\n".join(lines)
    (out_dir / "summary.txt").write_text(summary_text + "\n", encoding="utf-8")
    print(summary_text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "replay":
        try:
            verdict = cmd_replay(args.trace)
        except (TraceParseError, OSError, ValueError) as exc:
            print(f"replay error: {exc}", file=sys.stderr)
            return 2
        if verdict.identical:
            print(f"identical: {verdict.command} trace reproduces digest {verdict.actual_digest}")
            return 0
        print(
            f"diverged: {verdict.command} trace expected {verdict.expected_digest}, "
            f"got {verdict.actual_digest}",
            file=sys.stderr,
        )
        return 3

    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    try:
        cfg = resolve(preset=args.preset, config_path=args.config, overrides=overrides)
        out = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    _emit(out, args.out, args.format)
    if out.truncated or (args.check and not out.ok):
        failed = ", ".join(c.name for c in out.checks if not c.ok)
        print(f"checks failed: {failed}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
