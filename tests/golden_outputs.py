"""Check the sha256 prefix of each golden CLI command's stdout.

Run from anywhere as ``python tests/golden_outputs.py``.  Each command
runs as ``python -m rlab`` on this checkout's ``src`` with BLAS at one
thread and prints a line ``<sha256[:12]> <exit code> <command>``
(``CFG`` stands for a temporary config directory).  ``EXPECTED`` holds
the lines of the golden outputs; the script exits 1 and lists the lines
that differ when any hash or exit code moves, and 0 otherwise.  A change
that moves an output edits its line here and explains the move.
``--save DIR`` also writes each command's stdout to ``DIR/NN.out``
(``NN`` its line number here), so a moved output can be ``diff``ed
against the same files written from another checkout.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
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
    "bump-d2-large.ini": """[curve]
kind = moment(2)
[family]
kind = bump
[sweep]
lams = 2048, 4096, 8192
qs = 3, 4, 6
""",
    "knapp-d2.ini": """[curve]
kind = moment(2)
[family]
kind = knapp
t0 = 0.2
[sweep]
lams = 64, 128, 256
qs = 3, 4, inf
ps = inf, 2
""",
}

EXPECTED = """\
2b55f6397e32 0 sweep --config CFG/bump-d2.ini
5677e963cbc1 0 sweep --config CFG/random-d2.ini
f340705d05f0 0 sweep --config CFG/bump-d3.ini
2b55f6397e32 0 sweep --config perfbench/bump-d2.ini
7bb63da7d81b 0 knapp --d 2 --lams 64,128,256,512,1024 --qs 3,4 --ps inf,1.5,6
eb277e651930 0 knapp --d 3 --lams 16,32,64 --qs 7
6bff286f89a7 0 random-lower --lams 256,1024 --n-samples 32 --qs 3,4
e001f36078f9 0 random-lower
5d5771ba9b5e 0 phase-diagram --grid-n 6
53b4574de8a8 0 phase-diagram --grid-n 4 --family random
6dcd55bd7dfc 0 phase-diagram
97f2f3b48b58 0 kdim
2913315a818e 0 hyperplane --d 4 --normal 1,2,3,4
7ad001a4ced0 0 audit-measure --d 3 --resolution 64 --seed 1
ef74786dc79b 0 audit-measure --kind singular --d 2
0a3d3073b7f1 0 sweep --config CFG/bump-d2-large.ini
5e0ee1514a80 0 phase-diagram --family random
9319d73d670b 0 sweep --config CFG/knapp-d2.ini
417b6058de1e 0 kdim --lams 16,32,64
4083e005c9d1 0 phase-diagram --d 3 --grid-n 4 --lam-pair 16,64
e3b0c44298fc 2 audit-measure --d 3 --resolution 10000000
e3b0c44298fc 2 audit-measure --kind singular --d 3 --alpha 2.5
c348707147c0 0 random-lower --delta 1 --lams 1024,4096 --n-samples 32 --qs 3
c206bff7534b 0 audit-measure --kind singular --d 2 --alpha 1
""".splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="DIR",
                        help="write each command's stdout to DIR/NN.out")
    save = parser.parse_args(argv).save
    if save:
        os.makedirs(save, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    moved = []
    with tempfile.TemporaryDirectory() as cfg:
        for name, text in CONFIGS.items():
            Path(cfg, name).write_text(text)
        for i, want in enumerate(EXPECTED, 1):
            cmd = want.split(" ", 2)[2]
            run = subprocess.run(
                [sys.executable, "-m", "rlab", *cmd.replace("CFG", cfg).split()],
                cwd=ROOT, env=env, capture_output=True)
            if save:
                Path(save, f"{i:02d}.out").write_bytes(run.stdout)
            digest = hashlib.sha256(run.stdout).hexdigest()[:12]
            got = f"{digest} {run.returncode} {cmd}"
            print(got, flush=True)
            if got != want:
                moved.append((want, got))
    for want, got in moved:
        print(f"differs: expected {want}\n         got      {got}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
