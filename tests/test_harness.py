"""Experiment harness: sweeps, CSV determinism, config files, CLI codes."""

import argparse
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from brute_force import audit_reference
from rlab.cli import _CSV_NOTE, build_parser, cli_main
from rlab.config import load_config, parse_curve, parse_floats, sweep_config_from_file
from rlab.curves import moment_curve
from rlab.errors import ComputationError, ConfigError, DataError
from rlab.harness import (
    BumpFamily,
    KdimRecord,
    KhintchineRecord,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    SweepRecord,
    _build_input,
    _evaluate,
    _sweep_fits,
    decay_sweep,
    default_bump_point,
    kdim_experiment,
    khintchine_experiment,
    ols_fit,
    phase_diagram,
    write_csv,
)
from rlab.measures import (
    QuadMeasure,
    dimension_audit,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
)
from rlab.oscillatory import (
    _Y_CHUNK,
    _segment_panel_count,
    extension_phase,
    graph_phase,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_sweep_config_validation():
    mc = moment_curve(2)
    fam = BumpFamily()
    with pytest.raises(ConfigError):
        SweepConfig(curve=mc, family=fam, lams=(), qs=(3.0,))
    with pytest.raises(ConfigError):
        SweepConfig(curve=mc, family=fam, lams=(64.0, 64.0), qs=(3.0,))
    with pytest.raises(ConfigError):
        SweepConfig(curve=mc, family=fam, lams=(8.0,), qs=(3.0,))
    with pytest.raises(ConfigError):
        SweepConfig(curve=mc, family=fam, lams=(48.0,), qs=(3.0,))
    with pytest.raises(ConfigError):
        SweepConfig(curve=mc, family=fam, lams=(64.0,), qs=())
    for bad in ({"lams": (64.0, math.inf)}, {"qs": (0.5,)},
                {"qs": (-math.inf,)}, {"ps": (0.5,)}, {"ps": (-math.inf,)}):
        with pytest.raises(ConfigError):
            SweepConfig(**{"curve": mc, "family": fam, "lams": (64.0,),
                           "qs": (3.0,), **bad})
    cfg = SweepConfig(curve=mc, family=fam, lams=(64.0, 16.0), qs=(3.0,))
    assert cfg.ps == (math.inf,)


def test_ols_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, rms = ols_fit(x, -0.5 * x + 2.0)
    assert abs(slope + 0.5) < 1e-14 and rms < 1e-14
    with pytest.raises(ComputationError):
        ols_fit(x[:1], x[:1])


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    text = write_csv(str(path), ["alpha", "beta"], ["a", "b"],
                     [[1.0, 2.5], [0.125, float("inf")]])
    on_disk = path.read_text()
    assert on_disk == text
    lines = text.splitlines()
    assert lines[0] == "# alpha" and lines[1] == "# beta"
    assert lines[2] == "a,b"
    assert lines[3] == "1,2.5"
    assert lines[4].startswith("0.125")


def test_default_bump_point():
    for d in (2, 3, 4):
        x0 = default_bump_point(d)
        assert x0.shape == (d,)
        assert abs(np.linalg.norm(x0) - 1.0) < 1e-12


def test_decay_sweep_records_and_determinism():
    cfg = SweepConfig(curve=moment_curve(2), family=BumpFamily(),
                      lams=(16.0, 32.0), qs=(3.0, math.inf), ps=(math.inf, 2.0))
    res = decay_sweep(cfg)
    assert len(res.records) == 2 * 2 * 2
    for rec in res.records:
        assert rec.resolution == sphere_resolution_for(2, rec.lam)
        want = rec.field_norm / (rec.lam**-rec.decay_exponent * rec.input_norm)
        assert abs(rec.ratio - want) < 1e-12
        assert rec.panels > 0
        if math.isinf(rec.q):
            assert rec.decay_exponent == 0.0
    assert set(res.fits) == {(math.inf, 3.0), (2.0, 3.0),
                             (math.inf, math.inf), (2.0, math.inf)}
    for fit in res.fits.values():
        assert {"norm_slope", "ratio_slope", "resid_rms"} <= set(fit)
    again = decay_sweep(cfg)
    assert again.csv_text == res.csv_text
    single = decay_sweep(replace(cfg, lams=(16.0,)))
    assert single.fits == {}
    assert single.records == res.records[:4]


def test_knapp_sweep_witness_columns():
    cfg = SweepConfig(curve=moment_curve(2), family=KnappFamily(t0=0.2),
                      lams=(64.0, 128.0), qs=(3.0,), ps=(math.inf,))
    res = decay_sweep(cfg)
    for rec in res.records:
        assert 0.0 < rec.witness_norm <= rec.field_norm * (1 + 1e-12)
        want = rec.witness_norm / (rec.lam**-rec.decay_exponent * rec.input_norm)
        assert abs(rec.witness_ratio - want) < 1e-12
    fit = res.fits[(math.inf, 3.0)]
    assert "witness_slope" in fit and "witness_rms" in fit


def test_khintchine_single_interval_has_zero_variance():
    cfg = SweepConfig(curve=moment_curve(2),
                      family=RandomFamily(delta=0.25, n_samples=32),
                      lams=(256.0,), qs=(3.0,), seed=7)
    res = khintchine_experiment(cfg)
    rec = res.records[0]
    assert rec.ell == 1
    assert rec.std_err == 0.0
    assert rec.lower_bound > 0 and rec.mean_power > 0
    assert rec.ratio == rec.mean_power / rec.lower_bound
    assert res.band() == 1.0  # single lambda: the band degenerates
    again = khintchine_experiment(cfg)
    assert again.csv_text == res.csv_text


def test_khintchine_validation():
    mc = moment_curve(2)
    with pytest.raises(ConfigError):
        khintchine_experiment(SweepConfig(curve=mc, family=BumpFamily(),
                                          lams=(256.0,), qs=(3.0,)))
    with pytest.raises(ConfigError):
        khintchine_experiment(SweepConfig(
            curve=mc, family=RandomFamily(n_samples=8),
            lams=(256.0,), qs=(3.0,)))
    with pytest.raises(ConfigError):
        khintchine_experiment(SweepConfig(
            curve=mc, family=RandomFamily(), lams=(256.0,), qs=(1.5,)))


def test_phase_diagram_small_grid():
    res = phase_diagram(2, 5, lam_pair=(16.0, 64.0))
    assert len(res.cells) == 25
    assert 0 < res.n_off_band <= 25
    assert res.agreement >= 0.9
    again = phase_diagram(2, 5, lam_pair=(16.0, 64.0))
    assert again.csv_text == res.csv_text
    with pytest.raises(ConfigError):
        phase_diagram(2, 5, family=BumpFamily())
    with pytest.raises(ConfigError):
        phase_diagram(2, 5, lam_pair=(64.0,))
    with pytest.raises(ConfigError):
        phase_diagram(2, 1)


def test_phase_diagram_random_family():
    res = phase_diagram(2, 3, family=RandomFamily(), lam_pair=(256.0, 1024.0))
    assert len(res.cells) == 9
    assert "family=random" in res.csv_text
    assert 0 < res.n_off_band <= 9
    assert res.agreement >= 0.75
    # the CSV prints the slope to 1e-10 absolute; the cells keep it whole
    rows = [line.split(",") for line in res.csv_text.splitlines()
            if not line.startswith("#")][1:]
    slopes = [c["measured_excess"] for c in res.cells]
    assert [float(r[4]) for r in rows] == [round(v, 10) for v in slopes]
    assert any(v != round(v, 10) for v in slopes)
    with pytest.raises(ValueError):     # lambda^(-1/4) > delta at 64
        phase_diagram(2, 3, family=RandomFamily(), lam_pair=(64.0, 1024.0))


def test_phase_diagram_unloggable_ratio(monkeypatch):
    monkeypatch.setattr("rlab.harness.lq_norm", lambda *a: 0.0)
    with pytest.raises(ComputationError):
        phase_diagram(2, 2, lam_pair=(16.0, 32.0))


@pytest.mark.parametrize("family, column, bad", [
    (BumpFamily(), "field_norm", 0.0),
    (BumpFamily(), "ratio", -1.0),
    (BumpFamily(), "ratio", math.nan),
    (KnappFamily(), "witness_ratio", math.inf),
])
def test_sweep_fits_refuse_unloggable_values(family, column, bad):
    config = SweepConfig(curve=moment_curve(2), family=family,
                         lams=(16.0, 32.0, 64.0), qs=(3.0,))
    records = decay_sweep(config).records
    assert _sweep_fits(config, records)
    records[1] = replace(records[1], **{column: bad})
    with pytest.raises(ComputationError, match=rf"{column} = .* lambda=32 "):
        _sweep_fits(config, records)


@pytest.mark.parametrize("family", [BumpFamily(), RandomFamily(delta=1.0)],
                         ids=["bump", "random"])
def test_panels_column_is_the_widest_chunk_layout(family):
    """At lambda = 256 the bump's widest chunk is not its first one."""
    curve = moment_curve(2)
    lam = 256.0
    config = SweepConfig(curve=curve, family=family, lams=(lam,), qs=(2.0,))
    f = _build_input(config, lam, graph_phase(curve, sphere_cap_graph(2)))
    sample = _evaluate(curve, lam, [f])
    nodes = sample.mu.nodes
    assert nodes.shape[0] > 2 * _Y_CHUNK
    ext = extension_phase(curve)
    per_chunk = [max(_segment_panel_count(ext, lam, seg, nodes[lo:lo + _Y_CHUNK])
                     for lo in range(0, nodes.shape[0], _Y_CHUNK))
                 for seg in f.segments]
    assert sample.panels == sum(per_chunk)


def test_cli_output_does_not_depend_on_blas_threads(tmp_path):
    (tmp_path / "bump.ini").write_text(
        "[curve]\nkind = moment(2)\n\n[family]\nkind = bump\n\n"
        "[sweep]\nlams = 64, 128, 256, 512\nqs = 3, 4, 6\n")
    # (argv, fewest stdout lines); the audit's block bounds use a BLAS product
    for args, n_lines in (
            (["knapp", "--d", "2", "--lams", "16,32,64", "--qs", "3,4",
              "--ps", "inf,1.5"], 11),
            (["sweep", "--config", "bump.ini"], 11),
            (["random-lower", "--lams", "256,1024", "--n-samples", "32",
              "--qs", "3,4"], 11),
            (["audit-measure", "--d", "3", "--resolution", "64"], 1)):
        outs = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-m", "rlab", *args],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0].count(b"\n") >= n_lines, args


@pytest.mark.parametrize("run", [
    lambda t: decay_sweep(SweepConfig(
        curve=moment_curve(2), family=BumpFamily(), lams=(16.0, 32.0),
        qs=(3.0,), threads=t)),
    lambda t: decay_sweep(SweepConfig(
        curve=moment_curve(2), family=RandomFamily(delta=1.0),
        lams=(16.0, 32.0), qs=(3.0,), seed=3, threads=t)),
    lambda t: khintchine_experiment(SweepConfig(
        curve=moment_curve(2), family=RandomFamily(delta=1.0, n_samples=32),
        lams=(16.0, 32.0), qs=(3.0,), seed=3, threads=t)),
    lambda t: phase_diagram(2, 3, lam_pair=(16.0, 32.0), threads=t),
], ids=["bump", "random", "khintchine", "phase-diagram"])
def test_thread_count_does_not_change_csv(run):
    assert run(2).csv_text == run(1).csv_text


def test_kdim_experiment_slopes():
    res = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0), (7.0, 8.0, 9.0))
    assert res.q_critical == 8.0
    assert res.slopes[7.0] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert res.slopes[8.0] == pytest.approx(0.0, abs=1e-15)
    assert res.slopes[9.0] == pytest.approx(-1.0 / 8.0, abs=1e-15)
    for rec in res.records:
        assert rec.field_ok == 1
        assert rec.min_field_ratio > 0.4
        assert rec.box_volume > 0 and rec.sum_volumes >= rec.box_volume
    again = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0),
                            (7.0, 8.0, 9.0))
    assert again.csv_text == res.csv_text


def test_parse_curve():
    assert parse_curve("moment(3)").name == "moment(3)"
    assert parse_curve("monomial(1, 2, 4)").dim == 3
    assert parse_curve("poly([[0, 1], [0, 0, 0.5]])").dim == 2
    for bad in ("", "circle(2)", "moment(x)", "poly([)"):
        with pytest.raises(ConfigError):
            parse_curve(bad)


def test_sweep_config_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[curve]\nkind = moment(2)\n\n"
        "[family]\nkind = knapp\nt0 = 0.3\n\n"
        "[sweep]\nlams = 64, 128\nqs = 3\nps = inf, 2\nseed = 4\n"
    )
    cfg = sweep_config_from_file(str(path))
    assert isinstance(cfg.family, KnappFamily) and cfg.family.t0 == 0.3
    assert cfg.lams == (64.0, 128.0) and cfg.ps == (math.inf, 2.0)
    assert cfg.seed == 4
    over = sweep_config_from_file(str(path), {"seed": 9, "threads": 2})
    assert over.seed == 9 and over.threads == 2

    bare = tmp_path / "bare.ini"
    bare.write_text("[family]\nkind = bump\n")
    with pytest.raises(ConfigError):
        sweep_config_from_file(str(bare))
    nolams = tmp_path / "nolams.ini"
    nolams.write_text("[curve]\nkind = moment(2)\n")
    with pytest.raises(ConfigError):
        sweep_config_from_file(str(nolams))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_sweep_threads_resolution(tmp_path, monkeypatch):
    # --threads flag > [sweep] threads > RLAB_THREADS > 1
    base = "[curve]\nkind = moment(2)\n\n[sweep]\nlams = 64\nqs = 3\n"
    plain, pinned = tmp_path / "plain.ini", tmp_path / "pinned.ini"
    plain.write_text(base)
    pinned.write_text(base + "threads = 2\n")
    monkeypatch.delenv("RLAB_THREADS", raising=False)
    assert sweep_config_from_file(str(plain)).threads == 1
    monkeypatch.setenv("RLAB_THREADS", "3")
    assert sweep_config_from_file(str(plain)).threads == 3
    assert sweep_config_from_file(str(pinned)).threads == 2
    assert sweep_config_from_file(str(pinned), {"threads": 4}).threads == 4


def test_cli_exponents_output():
    code, out, _ = _capture(["exponents", "--d", "2"])
    assert code == 0
    assert "q_c=3" in out
    assert "1/p + 2/q = 1" in out


def test_cli_hyperplane():
    code, out, _ = _capture(["hyperplane", "--d", "3", "--normal", "1,0,0"])
    assert code == 0 and "omega=2" in out
    code, out, _ = _capture(["hyperplane", "--d", "3", "--normal", "0,0,1"])
    assert code == 0 and "omega=0" in out


def test_public_api_lists_every_imported_name():
    import ast

    import rlab

    tree = ast.parse(open(rlab.__file__).read())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(rlab.__all__) == sorted(imported)


def test_cli_error_codes():
    assert _capture(["bogus"])[0] == 2
    assert _capture(["exponents"])[0] == 2          # missing required --d
    assert _capture(["sweep"])[0] == 2              # missing --config
    assert _capture(["sweep", "--config", "/nonexistent.ini"])[0] == 2
    assert _capture(["knapp", "--d", "2", "--lams", "48", "--qs", "3"])[0] == 2
    assert _capture(["exponents", "--d", "2", "--bogus-flag"])[0] == 2
    # flags a subcommand would ignore are refused
    assert _capture(["kdim", "--threads", "2"])[0] == 2
    assert _capture(["exponents", "--d", "2", "--seed", "1"])[0] == 2
    assert _capture(["knapp", "--seed", "1"])[0] == 2
    assert _capture(["knapp", "--strict"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["exponents", "--d", "1"],
    ["knapp", "--d", "1", "--lams", "16,32"],
    ["hyperplane", "--d", "3", "--normal", "1,0"],
    ["kdim", "--d", "4", "--k", "9"],
    ["audit-measure", "--d", "1"],
    ["audit-measure", "--d", "2", "--alpha", "nan"],
    ["audit-measure", "--d", "2", "--alpha", "inf"],
    ["knapp", "--lams", "16,32", "--qs", "nan", "--ps", "inf"],
    ["knapp", "--lams", "16,inf", "--qs", "3"],
    ["knapp", "--lams", "16,32", "--qs=0.5"],
    ["knapp", "--lams", "16,32", "--qs=-inf"],
    ["knapp", "--lams", "16,32", "--qs", "3", "--ps=0.5"],
    ["knapp", "--lams", "16,32", "--qs", "3", "--ps=-inf"],
    ["audit-measure", "--d", "2", "--resolution", "-5"],
    ["hyperplane", "--d", "2", "--normal", "1,0"],
], ids=["exponents", "knapp", "hyperplane", "kdim", "audit-measure",
        "audit-alpha-nan", "audit-alpha-inf", "knapp-q-nan", "knapp-lam-inf",
        "knapp-q-half", "knapp-q-neg-inf", "knapp-p-half", "knapp-p-neg-inf",
        "audit-resolution-negative", "hyperplane-d2"])
def test_cli_refused_argument_exits_2(argv, monkeypatch):
    # a refused argument stops the run before any field is computed
    def no_field(*args, **kwargs):
        raise AssertionError("field computed")

    monkeypatch.setattr("rlab.harness.field", no_field)
    code, _, err = _capture(argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text, token", [
    ("nan", "'nan'"), ("16, NaN", "'NaN'"), ("-nan;3", "'-nan'")])
def test_parse_floats_refuses_nan(text, token):
    with pytest.raises(ValueError, match=f"not a number: {token}"):
        parse_floats(text)


def test_cli_computed_data_check_exits_3(monkeypatch):
    # a one-node measure has zero extent: a failed check on computed data
    one_node = QuadMeasure(2, np.array([[1.0, 0.0]]), np.ones(1), alpha=1.0,
                           provenance="test")
    with pytest.raises(DataError) as info:
        dimension_audit(one_node, 1.0)
    assert isinstance(info.value, ValueError)
    monkeypatch.setattr("rlab.cli.sphere_measure", lambda d, res: one_node)
    code, _, err = _capture(["audit-measure", "--d", "2"])
    assert code == 3 and err.startswith("numerical failure:")


def test_cli_phase_diagram_random_default_lam_pair():
    code, out, _ = _capture(["phase-diagram", "--family", "random",
                             "--grid-n", "2"])
    assert code == 0
    assert "lam_pair=256,1024" in out


def test_cli_knapp_stdout_csv():
    for lams, n_lams in (("16,32", 2), ("64", 1)):
        code, out, _ = _capture(["knapp", "--d", "2", "--lams", lams,
                                 "--qs", "3"])
        assert code == 0
        assert out.startswith("#")
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0].split(",")[0] == "lambda"
        assert len(body) == 1 + n_lams  # header + one row per lambda
        # a single lambda has no slope to fit
        assert ("# fit" in out) == (n_lams > 1)


def test_cli_sweep_with_config(tmp_path):
    ini = tmp_path / "cfg.ini"
    out_csv = tmp_path / "res.csv"
    ini.write_text(
        "[curve]\nkind = moment(2)\n\n"
        "[sweep]\nlams = 16, 32\nqs = 3\n"
    )
    code, out, _ = _capture(["sweep", "--config", str(ini),
                             "--out", str(out_csv)])
    assert code == 0
    assert out_csv.exists() and out_csv.read_text().startswith("#")
    assert "# fit" in out


def test_cli_audit_measure():
    code, out, _ = _capture(["audit-measure", "--d", "2", "--kind", "sphere",
                             "--resolution", "512"])
    assert code == 0 and "max mass ratio" in out


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d, resolution", [(2, 128), (3, 16)])
def test_cli_audit_measure_equals_brute_force(d, resolution, seed, monkeypatch):
    # the CLI prints 6 decimals, so the ratio it prints is also taken as
    # computed, on its way to the print, and compared to the last bit
    ratios = []

    def audit(*args, **kwargs):
        ratios.append(dimension_audit(*args, **kwargs))
        return ratios[-1]

    monkeypatch.setattr("rlab.cli.dimension_audit", audit)
    code, out, _ = _capture(["audit-measure", "--d", str(d), "--kind", "sphere",
                             "--resolution", str(resolution), "--seed", str(seed)])
    want = audit_reference(sphere_measure(d, resolution), d - 1, seed=seed)
    assert code == 0 and len(ratios) == 1 and repr(ratios[0]) == repr(want)
    assert out == f"max mass ratio mu(B)/r^alpha: {want:.6f}\n"


def test_cli_kdim():
    code, out, _ = _capture(["kdim", "--d", "4", "--k", "2",
                             "--lams", "16,32", "--qs", "7,9"])
    assert code == 0
    assert "# q_critical=8" in out


_CHEAP_RUNS = {
    "exponents": ["--d", "2"],
    "sweep": ["--config", "cfg.ini"],
    "knapp": ["--d", "2", "--lams", "16", "--qs", "3"],
    "random-lower": ["--delta", "1", "--n-samples", "32", "--lams", "16",
                     "--qs", "3"],
    "phase-diagram": ["--grid-n", "2", "--lam-pair", "16,32"],
    "hyperplane": ["--d", "3", "--normal", "1,0,0"],
    "kdim": ["--lams", "16", "--qs", "8"],
    "audit-measure": ["--d", "2", "--resolution", "64"],
}


def test_cli_never_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: every subcommand runs once in
    # a fresh interpreter, which must not have imported scipy
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(_CHEAP_RUNS) == set(sub.choices)
    (tmp_path / "cfg.ini").write_text(
        "[curve]\nkind = moment(2)\n\n[sweep]\nlams = 16\nqs = 3\n")
    code = ("import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from rlab.cli import cli_main\n"
            f"for name, argv in {_CHEAP_RUNS!r}.items():\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli_main([name] + argv) == 0, name\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"False\n"


def _help_schemas():
    """{subcommand: columns} from the CLI epilog's 'name: a,b,...' lines;
    an indented line continues the one above."""
    schemas, names = {}, ()
    for line in _CSV_NOTE.splitlines()[2:]:
        if line.startswith("  "):
            cols = line.strip()
        else:
            head, cols = line.split(":", 1)
            names = head.split("/")
            for name in names:
                schemas[name] = ""
        for name in names:
            schemas[name] += cols.strip()
    return {name: text.split(",") for name, text in schemas.items()}


def _readme_schemas():
    """{subcommand: columns} from README's "CSV schemas" bullet list."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## CSV schemas", 1)[1].split("\n## ", 1)[0]
    schemas = {}
    for line in section.splitlines():
        if line.startswith("- `"):
            head, cols = line[2:].split(": ", 1)
            for name in head.split(" / "):
                schemas[name.strip("`")] = cols.strip("`").split(",")
    return schemas


def test_csv_schema_docs_match_the_written_headers():
    pd_csv = phase_diagram(2, 2, lam_pair=(16.0, 32.0)).csv_text
    pd_header = next(line for line in pd_csv.splitlines()
                     if not line.startswith("#"))
    written = {
        "sweep": SweepRecord.HEADER,
        "knapp": SweepRecord.HEADER,
        "random-lower": KhintchineRecord.HEADER,
        "phase-diagram": pd_header.split(","),
        "kdim": KdimRecord.HEADER,
    }
    assert _help_schemas() == written
    assert _readme_schemas() == written
