"""In-memory span tracing of rlab's layers, installed from outside the package.

Spans come from rebinding public names in the namespace each caller looks
them up in (``rlab.harness.field``, ``rlab.cli.decay_sweep``, ...), so no
file under ``src/`` changes.  ``_segment_panel_count`` is the one private
name wrapped: harness imports it across modules, and panel sizing is a
stage of its own.  A span is ``[name, layer, parent, start, end, info]``;
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "harness", "oscillatory", "measures", "extremal",
          "exponents", "curves", "bench")


def _nodes(args, mu):
    return {"nodes": mu.size}


def _dist_evals(args, ratio):
    # one squared distance per node for every sampled ball
    return {"dist_evals": args["n_samples"] * args["mu"].size}


def _panels(args, n_panels):
    return {"rows": len(np.atleast_2d(args["ypts"])), "panels": n_panels}


def _tries(c: float) -> int:
    # the dyadic scan starts at c = 8 and halves until admissible
    return 1 + round(math.log2(8.0 / c))


def _calibration(args, c):
    return {"tries": _tries(c)}


def _necessity(args, rect):
    return {"tries": _tries(rect.c)} if args["c"] is None else None


# (module, attribute, layer, info); every caller namespace is listed
TARGETS = (
    ("rlab.cli", "cli_main", "cli", None),
    ("rlab.cli", "sweep_config_from_file", "cli", None),
    ("rlab.cli", "decay_sweep", "harness", None),
    ("rlab.harness", "kdim_experiment", "harness", None),
    ("rlab.harness", "ols_fit", "harness", None),
    ("rlab.harness", "field", "oscillatory", None),
    ("rlab.oscillatory", "field", "oscillatory", None),
    ("rlab.harness", "eval_field", "oscillatory", None),
    ("rlab.oscillatory", "eval_field", "oscillatory", None),
    ("rlab.harness", "_segment_panel_count", "oscillatory", _panels),
    ("rlab.oscillatory", "_segment_panel_count", "oscillatory", _panels),
    ("rlab.harness", "lq_norm", "oscillatory", None),
    ("rlab.harness", "lp_norm", "oscillatory", None),
    ("rlab.oscillatory", "lq_norm", "oscillatory", None),
    ("rlab.harness", "sphere_resolution_for", "measures", None),
    ("rlab.measures", "sphere_resolution_for", "measures", None),
    ("rlab.harness", "sphere_measure", "measures", _nodes),
    ("rlab.cli", "sphere_measure", "measures", _nodes),
    ("rlab.measures", "sphere_measure", "measures", _nodes),
    ("rlab.cli", "singular_alpha_measure", "measures", _nodes),
    ("rlab.measures", "singular_alpha_measure", "measures", _nodes),
    ("rlab.measures", "scaled_measure", "measures", _nodes),
    ("rlab.harness", "submanifold_builder", "measures", None),
    ("rlab.cli", "dimension_audit", "measures", _dist_evals),
    ("rlab.measures", "dimension_audit", "measures", _dist_evals),
    ("rlab.extremal", "cap_box_sigma_mass", "measures", None),
    ("rlab.harness", "bump_input", "extremal", None),
    ("rlab.extremal", "bump_input", "extremal", None),
    ("rlab.harness", "partition_family", "extremal", None),
    ("rlab.extremal", "partition_family", "extremal", None),
    ("rlab.harness", "calibrate_c", "extremal", _calibration),
    ("rlab.extremal", "calibrate_c", "extremal", _calibration),
    ("rlab.extremal", "box_phase_check", "extremal", None),
    ("rlab.extremal", "knapp_box", "extremal", None),
    ("rlab.extremal", "necessity_rect_sphere", "extremal", _necessity),
    ("rlab.extremal", "NecessityRect.phase_sup", "extremal", None),
    ("rlab.harness", "kdim_threshold", "exponents", None),
    ("rlab.exponents", "kappa", "exponents", None),
    ("rlab.exponents", "kappa_max_scan", "exponents", None),
    ("rlab.curves", "Curve.eval_many", "curves", None),
)

BUILDERS = {"sphere_resolution_for", "sphere_measure", "singular_alpha_measure",
            "scaled_measure", "submanifold_builder"}
NORMS = {"lq_norm", "lp_norm"}
PANEL_COUNT = "segment_panel_count"

# computed counts; each must repeat exactly across traced runs
COUNTS = ("measures.nodes", "oscillatory.t_nodes", "oscillatory.exps",
          "measures.audit_dist_evals", "extremal.calibrate_tries",
          "curves.eval_calls")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str, layer: str, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = info(bound.arguments, result)
            return result

        return traced

    def install(self):
        for module, attr, layer, info in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf,
                    self.wrap(getattr(owner, leaf), leaf.lstrip("_"), layer, info))

    def run(self, fn, *args):
        """Call fn under the root span of the workload."""
        return self.wrap(fn, "workload", "bench")(*args)


def summarize(spans, panel_order: int) -> dict:
    """Per-layer metrics of one traced repetition."""
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += dur[i]
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[1]] += dur[i] - child[i]

    def outermost(pred, blocker=None):
        """Total duration of spans matching pred with no ancestor that
        matches blocker (default: pred), so nested calls count once."""
        blocker = blocker or pred
        total = 0.0
        for i, s in enumerate(spans):
            if not pred(s):
                continue
            p = s[2]
            while p >= 0 and not blocker(spans[p]):
                p = spans[p][2]
            if p < 0:
                total += dur[i]
        return total

    def extremal(s):
        return s[1] == "extremal"

    def parent_name(s):
        return spans[s[2]][0] if s[2] >= 0 else ""

    engine = [s for s in spans
              if s[0] == PANEL_COUNT and parent_name(s) == "eval_field"]
    exps = sum(s[5]["rows"] * s[5]["panels"] * panel_order for s in engine)
    kernel = sum(dur[i] - child[i] for i, s in enumerate(spans)
                 if s[0] == "eval_field")
    calib = [s for s in spans if extremal(s) and s[5]]
    tries = sum(s[5]["tries"] for s in calib)
    root = next(i for i, s in enumerate(spans) if s[0] == "workload")

    def info_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    m = {
        "oscillatory.kernel_s": kernel,
        "oscillatory.exps": exps,
        "oscillatory.ns_per_exp": kernel / exps * 1e9 if exps else 0.0,
        "oscillatory.t_nodes": sum(s[5]["panels"] * panel_order for s in engine),
        "oscillatory.panel_sizing_s": sum(s[4] - s[3] for s in engine),
        "oscillatory.norms_s": outermost(lambda s: s[0] in NORMS),
        "measures.nodes": sum(s[5]["nodes"] for s in spans
                              if s[0] in BUILDERS and s[5]),
        "measures.build_s": outermost(lambda s: s[0] in BUILDERS),
        "measures.audit_s": outermost(lambda s: s[0] == "dimension_audit"),
        "measures.audit_dist_evals": info_sum("dimension_audit", "dist_evals"),
        "extremal.input_s": outermost(lambda s: extremal(s) and not s[5],
                                      extremal),
        "extremal.calibrate_s": outermost(lambda s: extremal(s) and s[5],
                                          extremal),
        "extremal.calibrate_tries": tries,
        "extremal.calibrate_yield": len(calib) / tries if tries else 0.0,
        "curves.eval_s": outermost(lambda s: s[0] == "eval_many"),
        "curves.eval_calls": sum(1 for s in spans if s[0] == "eval_many"),
        "exponents.s": outermost(lambda s: s[1] == "exponents"),
        "harness.fit_s": outermost(lambda s: s[0] == "ols_fit"),
        "harness.panel_rederive_s": sum(
            s[4] - s[3] for s in spans
            if s[0] == PANEL_COUNT and parent_name(s) == "decay_sweep"),
        "traced_wall_s": dur[root],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.self_sum_s"] = sum(self_s.values())
    return m
