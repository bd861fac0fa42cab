"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWN_NS FULL

MODE is ``setup`` (import rlab and parse the inputs, then stop),
``timed`` or ``traced``.  SPAWN_NS is the parent's ``time.monotonic_ns()``
taken just before it started this process, so ``setup_s`` runs from
interpreter start until rlab is imported and the inputs are parsed.
FULL=1 adds the gates that run once per benchmark run.  Prints one JSON
object on stdout.
"""

import json
import os
import resource
import sys
import time


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def environment(np) -> dict:
    """What the numbers depend on besides the code."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            level, kind, size = (_read(f"{base}/{entry}/{k}")
                                 for k in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower()}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "caches": caches,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "rlab_threads": os.environ.get("RLAB_THREADS"),
    }


def main(argv) -> int:
    name, seed, mode, spawn_ns, full = (argv[1], int(argv[2]), argv[3],
                                        int(argv[4]), argv[5] == "1")
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.parse(seed)
    out = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9}
    if mode == "setup":
        out["env"] = environment(workloads.np)
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = tracer.run(wl.run, inputs) if tracer else wl.run(inputs)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        # before the checks, which call traced functions outside the root span
        order = getattr(workloads.oscillatory, "PANEL_ORDER", 16)
        out["layers"] = tracing.summarize(list(tracer.spans), order)
        out["counts"] = {k: out["layers"][k] for k in tracing.COUNTS}
    checks, digest = wl.check(inputs, result, full)
    out.update(checks=checks.items, slope_err=checks.slope_err,
               field_err=checks.field_err, digest=digest)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
