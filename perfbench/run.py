"""rlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rlab is imported from ``src/``.
Every repetition runs in a fresh interpreter, so each pays what one
``rlab`` invocation pays (imports, Gauss-Legendre tables, page faults)
and its peak RSS is its own.  BLAS and rlab are pinned to one thread.

--trace 0 repeats the untraced workload for at least S seconds and
reports the end-to-end metrics; --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  Human-readable lines go first; the last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.  A full report is written to .perfbench_out/.  Exit code 1 when
a correctness gate fails, 2 when a repetition crashes or there are no
rlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("bump-d2", "sphere-d3", "audit-constructions")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "RLAB_THREADS": "1"}
MIN_REPS = 3            # untraced repetitions per --trace 0 run
SETUP_PROBES = 5        # extra import-and-parse-only starts per run
RUN_LIMIT_S = 170.0     # a run, repetitions included, ends before this
FIELD_FLOOR = 1e-13     # field_rel_err below this is round-off


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.env = dict(os.environ, **PIN)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.checks = []
        self.reps = []

    def spawn(self, mode: str, full: bool = False) -> dict:
        timeout = RUN_LIMIT_S - (time.monotonic() - self.start)
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, WORKER, self.workload, str(self.seed), mode,
             str(spawn_ns), "1" if full else "0"],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} repetition exited {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["mode"] = mode
        if mode != "setup":
            self.reps.append(rep)
            self.checks += [[f"rep {len(self.reps)} {mode}: {n}", ok, d]
                            for n, ok, d in rep["checks"]]
        return rep

    def check(self, name: str, ok: bool, detail=""):
        self.checks.append([name, bool(ok), str(detail)])

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def run_untraced(run: Run, seconds: int) -> dict:
    setups = [run.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    while len(run.reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        run.spawn("timed", full=not run.reps)
    reps = run.reps
    field = reps[0]["field_err"]
    return {
        "wall_s": spread([r["wall_s"] for r in reps]),
        "setup_s": spread(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": spread([r["rss_mb"] for r in reps]),
        "slope_err": spread([r["slope_err"] for r in reps]),
        "field_rel_err": {"median": max(field, FIELD_FLOOR), "raw": field,
                          "floor": FIELD_FLOOR},
    }


def run_traced(run: Run, seconds: int, names: list) -> dict:
    t0 = time.monotonic()
    modes = ["timed", "traced", "traced"]
    while modes or time.monotonic() - t0 < seconds:
        mode = modes.pop(0) if modes else (
            "timed" if run.reps[-1]["mode"] == "traced" else "traced")
        run.spawn(mode, full=not run.reps)
    traced = [r for r in run.reps if r["mode"] == "traced"]
    untraced = [r for r in run.reps if r["mode"] == "timed"]
    for i, r in enumerate(traced, 1):
        lay = r["layers"]
        gap = abs(lay["trace.self_sum_s"] - lay["traced_wall_s"])
        run.check(f"traced rep {i}: layer self times add up to the traced wall",
                  gap <= 1e-6 + 1e-9 * lay["traced_wall_s"], f"gap {gap:.2e} s")
    for name in traced[0]["counts"]:
        seen = {r["counts"][name] for r in traced}
        run.check(f"count {name} repeats exactly across traced runs",
                  len(seen) == 1, sorted(seen))
    out = {n: spread([r["layers"][n] for r in traced])
           for n in names if n != "trace_overhead_s"}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    out["trace_overhead_s"] = {"median": overhead, "n": len(traced)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rlab", "__init__.py")):
        print(f"error: no rlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed)
    try:
        env = run.spawn("setup")["env"]     # also compiles rlab's bytecode
        if args.trace:
            stats = run_traced(run, args.seconds, [m["name"] for m in wanted])
        else:
            stats = run_untraced(run, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    digests = {r["digest"] for r in run.reps}
    run.check("outputs identical across repetitions"
              + (" (traced and untraced)" if args.trace else ""),
              len(digests) == 1, sorted(digests))

    failed = [c for c in run.checks if not c[1]]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repetitions {len(run.reps)} in {run.elapsed():.1f} s")
    for m in wanted:
        s = stats[m["name"]]
        line = f"{m['name']}: {s['median']:.6g} {m['unit']}"
        if "q1" in s:
            line += f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        if "raw" in s:
            line += f"  (measured {s['raw']:.3e}, round-off floor {s['floor']:g})"
        print(line)
    print(f"fail_frac: {len(failed)}/{len(run.checks)} checks")
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}")

    os.makedirs(OUT_DIR, exist_ok=True)
    report = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"env": env, "stats": stats, "checks": run.checks,
                   "reps": run.reps}, fh, indent=1)
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(run.checks),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
