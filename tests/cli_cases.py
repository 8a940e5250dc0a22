"""CLI cases: whole ``chargesim`` runs as a user starts them, one process each.

Each row of ``CASES`` runs ``python -W error -m chargesim.cli ARGV --out out``
in a fresh directory, with ``PYTHONPATH`` set to this checkout's ``src/``.
Every row must exit 0 with nothing on standard error: under ``-W error`` a
warning (Python 3.12+ warns on a fork taken while threads run) ends the run
with a traceback. A row may name files under ``out/`` and a pattern each must
match, and may replay each trace it wrote, which must print ``identical:``.
No output may hold a ``Traceback``. The lines of the README's ``## CLI``
block run the same way, in order, in one fresh directory.

A behaviour that a test can check in process belongs in a tier-1 test; a
row is for what only a whole process shows. Run every row and the README
block, one line each, with::

    python tests/cli_cases.py

It imports only the standard library, so it runs where the package is
installed without its test extra. ``tests/test_config_cli.py`` runs the same
rows in tier-1.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Case(NamedTuple):
    name: str
    argv: str  # split on whitespace; ``--out out`` is appended
    config: tuple | None = None  # (file name, text), written before the run
    patterns: tuple = ()  # (file under out/, regex) pairs
    replay: bool = False


CASES = [
    # each command at its default preset with its checks; a forked child
    # computes what each run below names, wherever the host has the CPUs.
    # rtt-dist's week (6,048 records) flushes full blocks, so it forks its
    # trace's encoder
    Case("rtt-dist", "rtt-dist --check", replay=True),
    # the default 33-point sweep forks nothing; 600 points, more than one
    # chunk, fork the point child
    Case("duty-cycle", "duty-cycle --check", replay=True),
    Case("duty-cycle-600", "duty-cycle --config duty-600.yaml --check",
         config=("duty-600.yaml", "duty_sweep: {steps: 600}\n"), replay=True),
    # the local trace is built in a child, and each trace replays on its own
    Case("local-sched", "local-sched --duration 86400 --check", replay=True),
    # more than one chunk of trials: the trial child
    Case("compare-protocols", "compare-protocols --trials 500 --check", replay=True),
    # JSON exponents after a dot are numbers, and the header holds the float
    Case("rtt-dist-json-exponents", "rtt-dist --config exp.json --check",
         config=("exp.json", '{"probe_period_s": 3.0e2, "duration_s": 8.64e4}\n'),
         patterns=(("trace.jsonl", r'"probe_period_s":300\.0,'),)),
]


def chargesim(args: list, cwd: Path) -> tuple:
    """Run ``chargesim ARGS`` in ``cwd``; return (problems, stdout)."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "chargesim.cli", *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600)
    what = "chargesim " + " ".join(args)
    problems = []
    if proc.returncode:
        problems.append(f"{what}: exit {proc.returncode}")
    if proc.stderr:
        problems.append(f"{what}: standard error: {proc.stderr.strip()[-500:]}")
    if "Traceback" in proc.stdout + proc.stderr:
        problems.append(f"{what}: Traceback")
    return problems, proc.stdout


def run_case(case: Case) -> list:
    """Run one row in a fresh directory; return what failed, if anything."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if case.config:
            name, text = case.config
            (work / name).write_text(text, encoding="utf-8")
        problems, _ = chargesim(case.argv.split() + ["--out", "out"], work)
        out = work / "out"
        for fname, pattern in case.patterns:
            path = out / fname
            if not (path.is_file() and re.search(pattern, path.read_text(encoding="utf-8"))):
                problems.append(f"{fname}: no match for {pattern}")
        traces = sorted(out.glob("trace*.jsonl"))
        if case.replay and not traces:
            problems.append("no trace to replay")
        for trace in traces if case.replay else ():
            replayed, stdout = chargesim(["replay", f"out/{trace.name}"], work)
            if not stdout.startswith("identical: "):
                replayed.append(f"replay {trace.name}: no 'identical:' line")
            problems += replayed
    return problems


def run_readme() -> list:
    """Run each ``chargesim`` line of the README's ``## CLI`` block, in order,
    in one fresh directory; return what failed."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    lines = [line.split()[1:] for line in block.split("```")[1].splitlines()
             if line.startswith("chargesim ")]
    problems = [] if lines else ["README.md: no chargesim line under ## CLI"]
    with tempfile.TemporaryDirectory() as tmp:
        for args in lines:
            problems += chargesim(args, Path(tmp))[0]
    return problems


def main() -> int:
    results = [(case.name, run_case(case)) for case in CASES]
    results.append(("README.md CLI block", run_readme()))
    for name, problems in results:
        print(f"{'FAIL' if problems else 'ok'} {name}" + "".join(f"; {p}" for p in problems))
    return 1 if any(problems for _, problems in results) else 0


if __name__ == "__main__":
    sys.exit(main())
