"""Print the sha256 prefix of each golden CLI command's stdout.

Run from anywhere as ``python tests/golden_outputs.py``.  Each command
runs as ``python -m rlab`` on this checkout's ``src`` with BLAS at one
thread; a line reads ``<sha256[:12]> <exit code> <command>``.  Two
checkouts print the same lines exactly when every golden output is
byte-identical, so a refactor states byte-identity by comparing them.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "bump-d2.ini": """[curve]
kind = moment(2)
[family]
kind = bump
[sweep]
lams = 64, 128, 256, 512
qs = 3, 4, 6
""",
    "random-d2.ini": """[curve]
kind = moment(2)
[family]
kind = random
delta = 1
[sweep]
lams = 256, 512
qs = 3, 4
seed = 3
""",
    "bump-d3.ini": """[curve]
kind = moment(3)
[family]
kind = bump
[sweep]
lams = 16, 32
qs = 7, inf
""",
}

COMMANDS = (
    "sweep --config {cfg}/bump-d2.ini",
    "sweep --config {cfg}/random-d2.ini",
    "sweep --config {cfg}/bump-d3.ini",
    "sweep --config perfbench/bump-d2.ini",
    "knapp --d 2 --lams 64,128,256,512,1024 --qs 3,4 --ps inf,1.5,6",
    "knapp --d 3 --lams 16,32,64 --qs 7",
    "random-lower --lams 256,1024 --n-samples 32 --qs 3,4",
    "random-lower",
    "phase-diagram --grid-n 6",
    "phase-diagram --grid-n 4 --family random",
    "phase-diagram",
    "kdim",
    "hyperplane --d 4 --normal 1,2,3,4",
    "audit-measure --d 3 --resolution 64 --seed 1",
    "audit-measure --kind singular --d 2",
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cfg:
        for name, text in CONFIGS.items():
            Path(cfg, name).write_text(text)
        for cmd in COMMANDS:
            args = cmd.format(cfg=cfg).split()
            run = subprocess.run([sys.executable, "-m", "rlab", *args],
                                 cwd=ROOT, env=env, capture_output=True)
            digest = hashlib.sha256(run.stdout).hexdigest()[:12]
            print(f"{digest} {run.returncode} {cmd.format(cfg='CFG')}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
