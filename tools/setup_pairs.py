"""Time this checkout's benchmark set-up against a git ref's, in fresh interpreters.

    python3 tools/setup_pairs.py --ref HEAD~1 --workload score_logs --rounds 20

REF is exported with ``git archive`` into a temporary directory, which is
removed afterwards. Each round runs ``perfbench/run.py --workload W --seed 1
--setup-probe`` once in the exported ref and once in this checkout, each in a
new interpreter, so both pay the program's import again (with
``PYTHONDONTWRITEBYTECODE=1``, its compilation too); which side goes first
alternates from round to round. A probe prints its set-up time (import,
scene parsing and warm-up) in wall seconds and rescaled to nominal host
speed; a round's pair is the two nominal times in milliseconds.

The run prints one ``bench_pairs.summary_line``, judged by ``setup_s``'s
rule in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import WORKLOADS, exported, in_turn, summarize, summary_line  # noqa: E402


def probe(checkout: Path, workload: str) -> float:
    """The nominal set-up milliseconds of one ``--setup-probe`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--setup-probe"],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=120,
    )
    return 1e3 * float(done.stdout.split()[-1])


def time_rounds(ref: Path, workload: str, rounds: int) -> list[tuple[float, float]]:
    """Each round's (REF, this checkout) nominal set-up milliseconds."""
    return [
        in_turn(r, lambda: probe(ref, workload), lambda: probe(ROOT, workload))
        for r in range(rounds)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with exported(args.ref) as ref:
        pairs = time_rounds(ref, args.workload, args.rounds)
    print(f"{args.workload} set-up, this checkout over {args.ref}:")
    print(summary_line(args.workload, summarize(pairs, "setup_s")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
