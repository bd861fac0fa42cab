"""The benchmark's files still fit the package they drive.

``perfbench/tracing.py`` rebinds rlab names and reads call arguments by
parameter name, and ``perfbench/workloads.py`` calls rlab as the
benchmark runs it.  Both are loaded from their source here, without
installing them or writing anything under ``perfbench/``.
``perfbench/bump-d2.ini`` is read as the ``bump-d2`` workload reads it.
"""

import importlib
import inspect
import os
import sys
import types

import pytest

from rlab import harness
from rlab.cli import build_parser
from rlab.config import load_config, sweep_config_from_file
from rlab.harness import BumpFamily

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    """perfbench/<name>.py as a module, compiled from its source."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    mod = types.ModuleType(name)
    mod.__file__ = path
    exec(code, mod.__dict__)
    return mod


def test_trace_targets_resolve_with_the_parameters_they_read():
    tracing = _load("tracing")
    # the call arguments each info callback reads; the others read results
    reads = {tracing._dist_evals: {"mu", "n_samples"},
             tracing._necessity: {"c"},
             tracing._panels: {"ypts"},
             tracing._nodes: set(),
             tracing._calibration: set()}
    checked = set()
    for module, attr, layer, info in tracing.TARGETS:
        assert layer in tracing.LAYERS
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
        if info is None:
            continue
        assert info in reads, f"unknown info callback on {module}.{attr}"
        params = inspect.signature(owner).parameters
        missing = reads[info] - set(params)
        assert not missing, f"{module}.{attr} lost {sorted(missing)}"
        checked.add(attr)
    assert {"dimension_audit", "necessity_rect_sphere",
            "_segment_panel_count"} <= checked


def test_bump_d2_config_loads_and_its_argv_parses():
    path = os.path.join(ROOT, "perfbench", "bump-d2.ini")
    argv = ["sweep", "--config", path, "--seed", "42"]
    args = build_parser().parse_args(argv)
    assert (args.command, args.config, args.seed) == ("sweep", path, 42)
    cfg = sweep_config_from_file(args.config, {"seed": args.seed})
    assert cfg.curve.dim == 2 and isinstance(cfg.family, BumpFamily)
    assert len(cfg.lams) >= 2 and cfg.seed == 42 and cfg.out is None
    # the file still sets [sweep] threads, a key the loader ignores
    assert "threads" in load_config(path)["sweep"]


@pytest.mark.parametrize("name", ["bump-d2", "audit-constructions"])
def test_gated_workload_passes_its_checks(name, monkeypatch):
    """One repetition of a gated workload with every gate, the dense
    reference and the in-process rerun included: every check passes.  The
    workloads' Capture rebinds harness.field or harness.eval_field, and
    the reference gates import perfbench/reference.py as ``reference``;
    monkeypatch puts all three back."""
    for attr in ("field", "eval_field"):
        monkeypatch.setattr(harness, attr, getattr(harness, attr))
    monkeypatch.setitem(sys.modules, "reference", _load("reference"))
    workload = _load("workloads").WORKLOADS[name]
    inputs = workload.parse(0)
    checks, _ = workload.check(inputs, workload.run(inputs), full=True)
    failed = [item for item in checks.items if not item[1]]
    assert checks.items and not failed, failed
    assert checks.field_err is not None     # a captured field was checked
