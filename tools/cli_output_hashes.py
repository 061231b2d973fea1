"""Print the sha256 of every CLI output on the shipped scenarios.

For each scenario in ``scenarios/`` and seeds 3 and 7 it runs
``simulate`` in both modes (CSV and stdout), ``evaluate`` on each
simulated CSV at the default fractions and on a 20-point ``--fractions``
grid, each plain and with ``--mask-fov`` (stdout), ``compare`` (stdout) and
``plan --mode legible`` (CSV and stdout): 210 outputs, one ``sha256  label``
line each. A refactor that keeps output bytes prints the
same lines before and after, so diff the output of two checkouts:

    python3 tools/cli_output_hashes.py > after.txt

``tests/test_cli_output_digest.py`` pins the sha256 of the whole listing.

The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from legiplan.cli import cli_main  # noqa: E402

SEEDS = (3, 7)
GRID = ",".join(str((i + 1) / 20) for i in range(20))


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    if status != 0:
        raise SystemExit(f"exit {status}: legiplan {' '.join(argv)}")
    return out.getvalue().encode("utf-8")


def outputs(scenario: Path, seed: int, tmp: Path):
    """Yield (label, bytes) for every output of one scenario and seed."""
    common = ["--scenario", str(scenario), "--seed", str(seed)]
    csv = tmp / "out.csv"
    for mode in ("baseline", "legible"):
        stdout = _run(["simulate", *common, "--mode", mode, "--out", str(csv)])
        yield f"simulate-{mode}.csv", csv.read_bytes()
        yield f"simulate-{mode}.stdout", stdout
        evaluate = ["evaluate", "--scenario", str(scenario), "--trajectory", str(csv)]
        yield f"evaluate-{mode}.stdout", _run(evaluate)
        yield f"evaluate-{mode}-mask-fov.stdout", _run([*evaluate, "--mask-fov"])
        yield f"evaluate-{mode}-grid.stdout", _run([*evaluate, "--fractions", GRID])
        grid_fov = [*evaluate, "--fractions", GRID, "--mask-fov"]
        yield f"evaluate-{mode}-grid-mask-fov.stdout", _run(grid_fov)
    yield "compare.stdout", _run(["compare", *common])
    stdout = _run(["plan", *common, "--mode", "legible", "--out", str(csv)])
    yield "plan-legible.csv", csv.read_bytes()
    yield "plan-legible.stdout", stdout


def listing() -> str:
    """The listing ``main`` prints: one ``sha256  label`` line per output."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted((ROOT / "scenarios").glob("*.json")):
            for seed in SEEDS:
                for label, data in outputs(scenario, seed, Path(tmp)):
                    digest = hashlib.sha256(data).hexdigest()
                    lines.append(f"{digest}  {scenario.stem}/seed{seed}/{label}\n")
    return "".join(lines)


def main() -> None:
    sys.stdout.write(listing())


if __name__ == "__main__":
    main()
