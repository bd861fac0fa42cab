"""Experiment harness: sweeps, CSV determinism, config files, CLI codes."""

import argparse
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import rlab.cli
import rlab.harness
import rlab.measures
import rlab.oscillatory as osc
from brute_force import audit_reference, box_field, box_weights
from rlab.cli import _CSV_NOTE, build_parser, cli_main
from rlab.config import load_config, parse_curve, parse_floats, sweep_config_from_file
from rlab.curves import moment_curve, poly_curve
from rlab.errors import ComputationError, ConfigError, DataError
from rlab.exponents import ExponentPoint
from rlab.extremal import (
    calibrate_c,
    knapp_box,
    partition_family,
    solve_stationary,
    stationary_residual,
)
from rlab.harness import (
    FAMILIES,
    PHASE_BAND,
    BumpFamily,
    KdimRecord,
    KhintchineRecord,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    SweepRecord,
    _box_witness,
    _sweep_fits,
    decay_sweep,
    default_bump_point,
    format_csv,
    kdim_experiment,
    khintchine_experiment,
    ols_fit,
    phase_diagram,
)
from rlab.measures import (
    QuadMeasure,
    dimension_audit,
    gauss_legendre,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from rlab.oscillatory import (
    _segment_panel_count,
    eval_field,
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
                {"qs": (-math.inf,)}, {"ps": (0.5,)}, {"ps": (-math.inf,)},
                {"qs": (3.0, 4.0, 3.0)}, {"ps": (math.inf, 2.0, math.inf)}):
        with pytest.raises(ConfigError):
            SweepConfig(**{"curve": mc, "family": fam, "lams": (64.0,),
                           "qs": (3.0,), **bad})
    cfg = SweepConfig(curve=mc, family=fam, lams=(64.0, 16.0), qs=(3.0,))
    assert cfg.ps == (math.inf,)
    # a seed is an integer >= 0, of any size
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(curve=mc, family=fam, lams=(64.0,), qs=(3.0,), seed=seed)
    for seed in (0, np.int64(3), 2**100):
        assert SweepConfig(curve=mc, family=fam, lams=(64.0,), qs=(3.0,),
                           seed=seed).seed == seed
    # the d=3 grid at lambda=2048 has 2 * 8192^2 = 134,217,728 nodes, four
    # times the budget: refused before any field
    with pytest.raises(ValueError, match="budget"):
        SweepConfig(curve=moment_curve(3), family=KnappFamily(),
                    lams=(64.0, 2048.0), qs=(3.0,))


@pytest.mark.parametrize("family, lams, keys", [
    (BumpFamily(eps0=1.5), (64.0,), "eps0"),
    (KnappFamily(t0=-0.01), (64.0,), "t0, rho"),
    (KnappFamily(t0=0.6), (1024.0, 16.0), "t0, rho"),   # past 1 at 16 only
    (RandomFamily(delta=1.25), (256.0,), "delta"),
], ids=["bump-eps0", "knapp-t0-negative", "knapp-interval", "random-delta"])
def test_sweep_config_refuses_a_support_off_the_domain(family, lams, keys):
    with pytest.raises(ConfigError, match=f"outside the curve's domain "
                                          rf"\[0, 1\]: check {keys} "):
        SweepConfig(curve=moment_curve(2), family=family, lams=lams,
                    qs=(3.0,))
    # the edges of the domain are on it
    SweepConfig(curve=moment_curve(2), family=BumpFamily(eps0=1.0),
                lams=lams, qs=(3.0,))
    SweepConfig(curve=moment_curve(2), family=KnappFamily(t0=0.0),
                lams=lams, qs=(3.0,))


def test_ols_fit():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, rms = ols_fit(x, -0.5 * x + 2.0)
    assert abs(slope + 0.5) < 1e-14 and rms < 1e-14
    with pytest.raises(ComputationError):
        ols_fit(x[:1], x[:1])


@pytest.mark.parametrize("n", [2, 7])
def test_ols_fit_on_stacked_columns_matches_lstsq(n):
    rng = np.random.default_rng(n)
    x = np.log(16.0 * 2.0 ** np.arange(n))
    y = rng.normal(size=(n, 5)) + np.outer(x, rng.normal(size=5))
    slope, rms = ols_fit(x, y)
    a = np.vstack([x, np.ones_like(x)]).T
    for j in range(y.shape[1]):
        coef, *_ = np.linalg.lstsq(a, y[:, j], rcond=None)
        want = np.sqrt(np.mean((y[:, j] - a @ coef) ** 2))
        assert abs(slope[j] - coef[0]) <= 1e-13
        assert abs(rms[j] - want) <= 1e-13
        one = ols_fit(x, y[:, j])
        assert type(one[0]) is float and type(one[1]) is float
        assert abs(one[0] - coef[0]) <= 1e-13
        assert abs(one[1] - want) <= 1e-13


def test_format_csv():
    text = format_csv(["alpha", "beta"], ["a", "b"],
                      [[1.0, 2.5], [0.125, float("inf")]])
    assert text.endswith("\n")
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


def test_bump_point_must_be_a_unit_vector():
    BumpFamily(x0=(0.877583, -0.479426))     # default_bump_point(2), 6 places
    for x0 in ((3.0, 0.0), (math.inf, 0.0), (1.0, 0.01), ()):
        with pytest.raises(ConfigError, match="must be a unit vector"):
            BumpFamily(x0=x0)


def test_decay_sweep_records_and_determinism():
    cfg = SweepConfig(curve=moment_curve(2), family=BumpFamily(),
                      lams=(16.0, 32.0), qs=(3.0, math.inf), ps=(math.inf, 2.0))
    res = decay_sweep(cfg)
    assert len(res.records) == 2 * 2 * 2
    for rec in res.records:
        assert rec.resolution == sphere_resolution_for(2, rec.lam)
        want = rec.field_norm / (rec.lam**-rec.decay_exponent * rec.input_norm)
        assert abs(rec.ratio - want) < 1e-12
        assert rec.panels == 0          # degree 2 takes no panel
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
    assert set(fit) == {"norm_slope", "ratio_slope", "resid_rms",
                        "witness_slope"}


@pytest.mark.parametrize("d, lam, q", [(2, 64.0, 3.0), (2, 4096.0, 4.0),
                                       (3, 16.0, 7.0)])
def test_knapp_witness_is_the_box_integral(d, lam, q):
    """The witness norm is (integral over the dual box of |F|^q dsigma)^(1/q):
    a 24-point tensor Gauss rule in the box's axis coordinates, over
    |det M|, times the cap's area element sqrt(1 + |grad phi|^2)."""
    curve = moment_curve(d)
    config = SweepConfig(curve=curve, family=KnappFamily(), lams=(lam,),
                         qs=(q,))
    rec = decay_sweep(config).records[0]
    phase = graph_phase(curve, sphere_cap_graph(d))
    rho = 1.0 / (2 * d)
    box = knapp_box(phase, 0.2 + lam ** -rho, lam, 1.0, rho=rho)
    x, w = gauss_legendre(24)
    axes = np.meshgrid(*[h * x for h in box.half_widths], indexing="ij")
    wts = np.meshgrid(*[h * w for h in box.half_widths], indexing="ij")
    ax = np.column_stack([a.ravel() for a in axes])
    y = box.center + np.linalg.solve(box.transform.T, ax.T).T
    grad = phase.patch.jacobian(y)[:, 0, :]
    dsigma = (np.prod([g.ravel() for g in wts], axis=0)
              * np.sqrt(1.0 + np.sum(grad * grad, axis=1))
              / abs(np.linalg.det(box.transform)))
    vals = eval_field(phase, lam, config.family.input(phase, lam, 0)[0], y)
    want = float(np.sum(dsigma * np.abs(vals) ** q) ** (1.0 / q))
    assert abs(rec.witness_norm - want) <= 1e-4 * want


@pytest.mark.parametrize("d, lam, q", [(2, 64.0, 3.0), (2, 4096.0, 4.0),
                                       (3, 16.0, 7.0)])
def test_box_witness_keeps_the_knapp_witness_bits(d, lam, q):
    """The witness norm, min |F| and panels equal, bit for bit, the
    separate box field and Simpson weights they were built from before."""
    phase = graph_phase(moment_curve(d), sphere_cap_graph(d))
    f, box = KnappFamily().input(phase, lam, 0)
    vals, panels = box_field(phase, lam, f, box)
    want = float(np.sum(box_weights(phase, box) * np.abs(vals) ** q)
                 ** (1 / q))
    low, norms, got_panels = _box_witness(phase, lam, f, box, (q, math.inf))
    assert list(norms) == [q] and norms[q].hex() == want.hex()
    assert low.hex() == float(np.min(np.abs(vals))).hex()
    assert got_panels == panels


def test_knapp_and_bump_inputs_are_the_segments_they_state():
    """Each family's input is one Segment with the fields the family
    states: Knapp on [t0, t0 + lam^-rho] recentered at the anchor's point,
    the bump on [0, eps0] recentered at x0."""
    lam = 256.0
    phase = graph_phase(moment_curve(2), sphere_cap_graph(2))
    end = 0.2 + lam ** -0.25
    x_end = phase.embed(solve_stationary(phase, end)[None, :])[0]
    want = osc.Segment(0.2, end, modulation=(tuple(x_end), lam))
    assert KnappFamily().input(phase, lam, 0)[0].segments == (want,)
    x0 = tuple(default_bump_point(2))
    want = osc.Segment(0.0, 1.0, modulation=(x0, lam))
    assert BumpFamily().input(phase, lam, 0)[0].segments == (want,)
    want = osc.Segment(0.0, 0.5, modulation=((0.6, 0.8), lam))
    fam = BumpFamily(x0=(0.6, 0.8), eps0=0.5)
    assert fam.input(phase, lam, 0)[0].segments == (want,)


def test_box_witness_keeps_the_kdim_bits(monkeypatch):
    """kdim's (4, 2) box at lambda = 16: min |F| and panels equal, bit for
    bit, the box field it read before, and qs=() builds no weights."""
    patch = submanifold_builder(4, 2, moment_curve(4), extent=0.75)
    phase = graph_phase(patch.curve, patch)
    part = partition_family(phase, 0.75, 16.0)
    c = calibrate_c(phase, float(part.anchors[-1]), 16.0,
                    interval=part.intervals[-1])
    box = part.boxes(c)[0]
    f = osc.TestFunction((part.segment(0),))
    vals, panels = box_field(phase, 16.0, f, box)

    def no_weights(*args):
        raise AssertionError("box weights built")

    monkeypatch.setattr(type(patch), "jacobian", no_weights)
    low, norms, got_panels = _box_witness(phase, 16.0, f, box, ())
    assert low.hex() == float(np.min(np.abs(vals))).hex()
    assert norms == {} and got_panels == panels


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


def test_khintchine_equal_powers_give_exactly_zero_std_err():
    """One interval per lambda: all 64 sign draws have the same power, and
    the spread of equal values is 0, not the rounding of their mean."""
    cfg = SweepConfig(curve=moment_curve(2),
                      family=RandomFamily(delta=0.25, n_samples=64),
                      lams=(256.0, 1024.0), qs=(3.0,), seed=0)
    res = khintchine_experiment(cfg)
    assert [r.ell for r in res.records] == [1, 1]
    assert [r.std_err for r in res.records] == [0.0, 0.0]
    assert ",0," in res.csv_text.splitlines()[-1]


def test_khintchine_draws_are_interval_order_sums():
    """Each draw's power reads the explicit interval-order sum of the
    one-interval fields, so the mean power matches bit for bit at ell = 6
    and 8 (a BLAS product of signs and fields rounds differently from
    ell = 6 on)."""
    curve, n_samples = moment_curve(2), 64
    cfg = SweepConfig(curve=curve,
                      family=RandomFamily(delta=1.0, n_samples=n_samples),
                      lams=(1024.0, 4096.0), qs=(3.0,), seed=0)
    records = khintchine_experiment(cfg).records
    assert [r.ell for r in records] == [6, 8]
    phase = graph_phase(curve, sphere_cap_graph(2))
    for rec in records:
        part = partition_family(phase, 1.0, rec.lam)
        signs = (np.random.default_rng(0).integers(
            0, 2, size=(n_samples, part.ell)) * 2 - 1)
        mu = sphere_measure(2, sphere_resolution_for(2, rec.lam))
        fields = [eval_field(curve, rec.lam,
                             osc.TestFunction((part.segment(k),)), mu.nodes)
                  for k in range(part.ell)]
        powers = []
        for draw in signs:
            combo = fields[0] * draw[0]
            for s_k, row in zip(draw[1:], fields[1:]):
                combo = combo + s_k * row
            powers.append(float(np.sum(mu.weights * np.abs(combo) ** 3.0)))
        assert rec.mean_power == float(np.mean(powers))


def test_khintchine_draws_do_not_depend_on_the_lambda_list():
    """A lambda's sign draws come from the seed alone: adding lambda = 4096
    (ell = 8) to the run leaves the lambda = 1024 (ell = 6) row's mean
    and spread as they are without it."""
    def row_1024(lams):
        res = khintchine_experiment(SweepConfig(
            curve=moment_curve(2),
            family=RandomFamily(delta=1.0, n_samples=64),
            lams=lams, qs=(3.0,), seed=0))
        return next(r for r in res.records if r.lam == 1024.0)

    alone, joined = row_1024((1024.0,)), row_1024((1024.0, 4096.0))
    assert alone.ell == joined.ell == 6
    assert (alone.mean_power, alone.std_err) == \
        (joined.mean_power, joined.std_err)


def test_khintchine_makes_one_kernel_call_per_lambda(monkeypatch):
    calls = []
    inner = rlab.harness.segment_fields

    def spy(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    def no_field(*args, **kwargs):
        raise AssertionError("one field per interval")

    monkeypatch.setattr("rlab.harness.segment_fields", spy)
    monkeypatch.setattr("rlab.harness.field", no_field)
    monkeypatch.setattr("rlab.harness.eval_field", no_field)
    res = khintchine_experiment(SweepConfig(
        curve=moment_curve(2), family=RandomFamily(delta=1.0, n_samples=32),
        lams=(256.0, 1024.0), qs=(3.0,)))
    assert calls == [256.0, 1024.0]
    assert [r.ell for r in res.records] == [4, 6]


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


@pytest.mark.parametrize("family, grid_n, lam_pair", [
    (KnappFamily(), 5, (16.0, 64.0)),
    (RandomFamily(), 3, (256.0, 1024.0)),
], ids=["knapp", "random"])
def test_phase_diagram_cells_are_the_sweeps_ratio_slopes(family, grid_n,
                                                          lam_pair):
    res = phase_diagram(2, grid_n, family=family, lam_pair=lam_pair)
    exps = [math.inf if j == 0 else (grid_n - 1) / j for j in range(grid_n)]
    fits = decay_sweep(SweepConfig(
        curve=moment_curve(2), family=family, lams=lam_pair, qs=exps,
        ps=exps)).fits
    for cell in res.cells:
        p, q = (math.inf if v == 0 else 1 / v
                for v in (cell["inv_p"], cell["inv_q"]))
        assert cell["measured_excess"] == fits[(p, q)]["ratio_slope"]


def test_phase_diagram_predicts_with_the_familys_rho():
    """Each Knapp family's cells are scored against its own rho: at
    rho = 1/8 the column reads rho (1/p + 2/q - 1), and off_band and
    sign_match follow it; the default family reads (1/p + 2/q - 1)/4."""
    for family, rho in ((KnappFamily(rho=0.125), Fraction(1, 8)),
                        (KnappFamily(), Fraction(1, 4))):
        res = phase_diagram(2, 3, family=family)
        n_off = 0
        for cell in res.cells:
            want = float(rho * (Fraction(cell["inv_p"])
                                + 2 * Fraction(cell["inv_q"]) - 1))
            assert cell["predicted_excess"] == want
            off = abs(want) > PHASE_BAND
            assert cell["off_band"] == int(off)
            match = ""
            if off and cell["class"] != "boundary":
                n_off += 1
                match = int((cell["measured_excess"] > 0)
                            == (cell["class"] == "exterior"))
            assert cell["sign_match"] == match
        assert res.n_off_band == n_off


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_family_has_a_diagram_pair_iff_it_predicts_an_excess(name):
    cls = FAMILIES[name]
    assert ((getattr(cls, "diagram_lams", None) is None)
            == (not hasattr(cls, "predicted_excess")))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_predicted_excess_closed_forms(d):
    """Knapp: (1/p + L/q - 1)/(2d), L = (d^2 + d - 2)/2; random:
    (q_c/q - 1)/(2d), q_c = d(d + 1)/2; exact on a 7 x 7 grid."""
    line, q_c = Fraction(d * d + d - 2, 2), Fraction(d * (d + 1), 2)
    grid = [Fraction(j, 6) for j in range(7)]
    for inv_p in grid:
        for inv_q in grid:
            pt = ExponentPoint(inv_p, inv_q)
            knapp = KnappFamily().predicted_excess(pt, d)
            random = RandomFamily().predicted_excess(pt, d)
            assert type(knapp) is Fraction and type(random) is Fraction
            assert knapp == (inv_p + line * inv_q - 1) / (2 * d)
            assert random == (q_c * inv_q - 1) / (2 * d)


def test_phase_diagram_formats_only_its_own_csv(monkeypatch):
    """The sweep behind a phase diagram formats no CSV: phase_diagram
    reads only its fits, and its own table is the one format_csv call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return format_csv(*args)

    monkeypatch.setattr("rlab.harness.format_csv", counting)
    res = phase_diagram(2, 3, lam_pair=(16.0, 32.0))
    assert len(calls) == 1
    assert res.csv_text.startswith("# phase_diagram d=2 grid_n=3")


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


def _sample(d, family, lam):
    """The sweep's input at lambda, its sphere measure, and the panels
    column of its record."""
    curve = moment_curve(d)
    config = SweepConfig(curve=curve, family=family, lams=(lam,), qs=(2.0,))
    f = family.input(graph_phase(curve, sphere_cap_graph(d)), lam, 0)[0]
    mu = sphere_measure(d, sphere_resolution_for(d, lam))
    return f, mu, decay_sweep(config).records[0].panels


def _panel_rule_count(lam, f, nodes):
    """The panels the panel rule uses on f, run on its own at d=2."""
    ext = extension_phase(moment_curve(2))
    out = np.zeros(nodes.shape[0], dtype=complex)
    return sum(osc._panel_segment(ext, lam, seg, nodes, out)
               for seg in f.segments if seg.length > 0.0)


@pytest.mark.parametrize("family", [BumpFamily(), RandomFamily(delta=1.0)],
                         ids=["bump", "random"])
def test_panels_column_is_the_kernels_widest_layout(family, monkeypatch):
    """Per segment, the widest layout the panel rule used.  At d=2 the
    field takes no panel, so the column is 0; the panel rule itself, run
    on the same nodes, reports its widest layouts."""
    used = {}
    count = osc._segment_panel_count

    def spy(phase, lam, seg, ypts):
        n = count(phase, lam, seg, ypts)
        used[seg] = max(used.get(seg, 0), n)
        return n

    monkeypatch.setattr(osc, "_segment_panel_count", spy)
    f, mu, panels = _sample(2, family, 256.0)
    assert panels == 0 and not used
    assert mu.size > 2 * osc._Y_CHUNK
    panels = _panel_rule_count(256.0, f, mu.nodes)
    assert used and set(used) <= set(f.segments)
    assert panels == sum(used.values())


def _all_node_count(lam, f, mu):
    """The panel count the harness once took over every sphere node."""
    ext = extension_phase(moment_curve(mu.dim))
    return sum(_segment_panel_count(ext, lam, seg, mu.nodes)
               for seg in f.segments if seg.length > 0)


@pytest.mark.parametrize("d, family, lam", [
    (3, BumpFamily(), 16.0),
    (2, BumpFamily(), 256.0),
    (2, RandomFamily(delta=1.0), 256.0),
], ids=["d3-bump", "d2-bump", "d2-random"])
def test_panels_column_equals_the_all_node_count(d, family, lam):
    """The panel rule's count is the layout sized for all nodes at once,
    since the bound is elementwise.  At d=2 the column is 0, and the
    panel rule is run on its own."""
    f, mu, panels = _sample(d, family, lam)
    if d == 2:
        assert panels == 0
        panels = _panel_rule_count(lam, f, mu.nodes)
    assert panels == _all_node_count(lam, f, mu) > 0


def test_panels_column_is_zero_when_every_node_takes_the_closed_form(
        monkeypatch):
    monkeypatch.setattr(osc, "_QUADRATIC_MIN", 1e-300)
    f, mu, panels = _sample(2, BumpFamily(), 256.0)
    assert panels == 0 < _all_node_count(256.0, f, mu)


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
    lambda: decay_sweep(SweepConfig(
        curve=moment_curve(2), family=BumpFamily(), lams=(16.0, 32.0),
        qs=(3.0,))),
    lambda: decay_sweep(SweepConfig(
        curve=moment_curve(2), family=RandomFamily(delta=1.0),
        lams=(16.0, 32.0), qs=(3.0,), seed=3)),
    lambda: khintchine_experiment(SweepConfig(
        curve=moment_curve(2), family=RandomFamily(delta=1.0, n_samples=32),
        lams=(16.0, 32.0), qs=(3.0,), seed=3)),
    lambda: phase_diagram(2, 3, lam_pair=(16.0, 32.0)),
], ids=["bump", "random", "khintchine", "phase-diagram"])
def test_rerun_csv_is_byte_identical(run):
    assert run().csv_text == run().csv_text


def test_kdim_experiment_slopes():
    res = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0), (7.0, 8.0, 9.0))
    assert res.q_critical == 8.0
    assert res.slopes[7.0] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert res.slopes[8.0] == pytest.approx(0.0, abs=1e-15)
    assert math.copysign(1.0, res.slopes[8.0]) == 1.0      # 0, not -0
    assert res.slopes[9.0] == pytest.approx(-1.0 / 8.0, abs=1e-15)
    for rec in res.records:
        assert rec.field_ok == 1
        assert rec.min_field_ratio > 0.4
        assert rec.box_volume > 0 and rec.sum_volumes >= rec.box_volume
    again = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0),
                            (7.0, 8.0, 9.0))
    assert again.csv_text == res.csv_text


def test_kdim_phase_takes_the_patch_curve():
    """submanifold_builder permutes this curve's components, so the
    chart and its phase must both take the permuted curve."""
    curve = poly_curve(((0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 1), (0, 0, 1)))
    patch = submanifold_builder(4, 2, curve, extent=0.75)
    assert patch.perm == (2, 3, 0, 1)
    with pytest.raises(ValueError):
        graph_phase(curve, patch)
    phase = graph_phase(patch.curve, patch)
    for t in (0.2, 0.4, 0.7):
        assert stationary_residual(phase, t) < 1e-8
    part = partition_family(phase, 0.75, 16.0)
    c = calibrate_c(phase, float(part.anchors[-1]), 16.0,
                    interval=part.intervals[-1])
    assert c == 2.0
    res = kdim_experiment(4, 2, curve, (16.0, 32.0), (7.0, 9.0))
    assert res.csv_text.splitlines()[0] == (
        "# kdim_experiment d=4 k=2 extent=0.75 c=2")
    assert all(rec.field_ok == 1 for rec in res.records)


def test_kdim_csv_does_not_depend_on_chart_blocks(monkeypatch):
    """The d=4, k=3 run prints the same CSV when its chart evaluates
    every M(t) batch in one block."""
    args = (4, 3, moment_curve(4), (16.0,), (8.0,))
    blocked = kdim_experiment(*args).csv_text
    monkeypatch.setattr(rlab.measures, "_T_BLOCK", 1 << 62)
    assert kdim_experiment(*args).csv_text == blocked


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
    over = sweep_config_from_file(str(path), {"seed": 9})
    assert over.seed == 9

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


# public names and methods (as Class.method) that nothing in rlab,
# perfbench or the acceptance tests reaches yet, each with the reason it
# stays
_UNREACHED_ON_PURPOSE = {
    "lorentz_norm": "the Lorentz-space endpoint check of ROADMAP item 15",
    "finite_type_region": "the finite-type phase diagram of ROADMAP item 2",
    "Region.holds": "the holds/open verdict at endpoints of ROADMAP item 15",
}


def _references(path):
    """Names a module reads (Name loads, attribute names and imported
    names), leaving out each def's or class's uses of its own name."""
    import ast

    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    with open(path) as fh:
        visit(ast.parse(fh.read()), frozenset())
    return found


def test_every_public_name_is_reached():
    """Each name of rlab.__all__, and each method and property of rlab's
    classes, is read by rlab itself, by perfbench or by the acceptance
    tests; the package's own re-export and a method's own def do not
    count.  A method is read when its name is, on any object, so one with
    a common name such as ``embed`` escapes the check.
    Each module-level function of rlab is read by rlab beyond its own def
    (a re-export counts) or by perfbench, or is a runner cli._command
    registers."""
    import ast
    import glob

    import rlab

    modules = glob.glob(os.path.join(SRC, "rlab", "*.py"))
    paths = [p for p in modules if os.path.basename(p) != "__init__.py"]
    bench = glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    paths += bench
    paths.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
    reached = set().union(*(_references(p) for p in paths))
    methods = set()
    for path in modules:
        with open(path) as fh:
            methods |= {f"{cls.name}.{node.name}"
                        for cls in ast.parse(fh.read()).body
                        if isinstance(cls, ast.ClassDef)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")}
    unreached = ((set(rlab.__all__) - reached)
                 | {m for m in methods if m.split(".")[1] not in reached})
    assert unreached == set(_UNREACHED_ON_PURPOSE), (
        "route or delete the unreached names, and keep the allowlist to the "
        f"names still unreached: {sorted(unreached ^ set(_UNREACHED_ON_PURPOSE))}")

    defined = set()
    for path in modules:
        with open(path) as fh:
            defined |= {node.name for node in ast.parse(fh.read()).body
                        if isinstance(node, ast.FunctionDef)}
    reached = set().union(*(_references(p) for p in modules + bench))
    runners = {c.run.__name__ for c in rlab.cli._COMMANDS.values()}
    uncalled = defined - reached - runners
    assert not uncalled, (
        "move the functions that nothing in rlab or perfbench calls to the "
        f"tests that use them, or delete them: {sorted(uncalled)}")


def _forbid_fields(monkeypatch):
    """Make every sphere grid, field evaluation and calibration fail the
    test."""
    def no_field(*args, **kwargs):
        raise AssertionError("field computed")

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration run")

    monkeypatch.setattr("rlab.harness.field", no_field)
    monkeypatch.setattr("rlab.harness.eval_field", no_field)
    monkeypatch.setattr("rlab.harness.sphere_measure", no_field)
    monkeypatch.setattr("rlab.harness.calibrate_c", no_calibration)


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", os.path.join(ROOT, "perfbench", "bump-d2.ini")],
    ["knapp"], ["random-lower"], ["phase-diagram"],
], ids=["sweep", "knapp", "random-lower", "phase-diagram"])
def test_cli_refuses_threads_flag(argv, monkeypatch):
    # sweeps run their lambdas in order; --threads is an unknown flag
    _forbid_fields(monkeypatch)
    code, _, err = _capture(argv + ["--threads", "2"])
    assert code == 2
    assert "unrecognized arguments: --threads 2" in err


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


def _no_measure(*args, **kwargs):
    raise AssertionError("measure built")


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
    ["kdim", "--lams", "0"],
    ["kdim", "--lams", "inf"],
    ["kdim", "--lams", "-16"],
    ["kdim", "--lams", "16,16"],
    ["kdim", "--lams="],
    ["kdim", "--qs=-1"],
    ["kdim", "--qs", "0.5"],
    ["kdim", "--extent", "inf"],
    ["kdim", "--extent", "0"],
    ["kdim", "--extent", "1.5", "--lams", "16", "--qs", "8"],
    ["kdim", "--qs", "inf", "--lams", "16"],
    ["random-lower", "--delta", "inf"],
    ["random-lower", "--delta", "nan"],
    ["random-lower", "--delta", "0"],
    ["random-lower", "--delta", "-1"],
    ["knapp", "--rho", "0"],
    ["knapp", "--rho", "-1"],
    ["knapp", "--rho", "inf"],
    ["knapp", "--rho", "nan"],
    ["knapp", "--t0", "-0.5"],
    ["knapp", "--t0", "1.0"],
    ["knapp", "--d", "2", "--t0", "5"],
    ["random-lower", "--delta", "3"],
    ["sweep", "--config", "bump-eps0-3.ini"],
    ["sweep", "--config", "random-delta-1e400.ini"],
    ["sweep", "--config", "bump-eps0-0.ini"],
    ["sweep", "--config", "bump-x0-inf.ini"],
    ["sweep", "--config", "bump-x0-off-sphere.ini"],
    ["sweep", "--config", "random-n-samples.ini"],
    ["sweep", "--config", "family-typo.ini"],
    ["sweep", "--config", "foreign-family-key.ini"],
    ["sweep", "--config", "sweep-typo.ini"],
    ["sweep", "--config", "unknown-section.ini"],
    ["phase-diagram", "--family", "knapp", "--seed", "3"],
    ["phase-diagram", "--d", "3", "--lam-pair", "64,2048"],
    ["knapp", "--d", "3", "--lams", "64,2048"],
    ["random-lower", "--lams", "256,1024", "--n-samples", "32", "--qs", "inf"],
    ["audit-measure", "--d", "3", "--resolution", "10000000"],
    ["audit-measure", "--kind", "singular", "--d", "3", "--alpha", "2.5"],
    ["knapp", "--lams", "64,128,256", "--qs", "3,4,3"],
    ["random-lower", "--qs", "3,3"],
    ["kdim", "--qs", "8,8"],
    ["random-lower", "--seed", "-1", "--lams", "256,1024"],
    ["sweep", "--config", os.path.join(ROOT, "perfbench", "bump-d2.ini"),
     "--seed", "-1"],
    ["sweep", "--config", "seed-negative.ini"],
    ["audit-measure", "--seed", "-1"],
    ["audit-measure", "--d", "3", "--resolution", "1500", "--alpha", "nan"],
    ["audit-measure", "--d", "3", "--resolution", "1500", "--alpha", "inf"],
    ["audit-measure", "--d", "3", "--resolution", "1500", "--seed", "-1"],
    ["audit-measure", "--kind", "singular", "--d", "3", "--alpha", "inf"],
    ["knapp", "--lams", "64,128,256,512,1024,2048,4096", "--qs", "3",
     "--out", ""],
    ["sweep", "--config", "out-empty.ini"],
    ["sweep", "--config", "seed-fraction.ini"],
    ["knapp", "--lams", "64", "--qs", "3", "--rho", "0.6"],
    ["knapp", "--d", "3", "--lams", "64", "--qs", "7", "--rho", "0.5"],
    ["knapp", "--d", "3", "--lams", "16,32,64", "--qs", "7", "--rho", "0.4"],
], ids=["exponents", "knapp", "hyperplane", "kdim", "audit-measure",
        "audit-alpha-nan", "audit-alpha-inf", "knapp-q-nan", "knapp-lam-inf",
        "knapp-q-half", "knapp-q-neg-inf", "knapp-p-half", "knapp-p-neg-inf",
        "audit-resolution-negative", "hyperplane-d2", "kdim-lam-zero",
        "kdim-lam-inf", "kdim-lam-negative", "kdim-lam-duplicate",
        "kdim-lams-empty", "kdim-q-negative", "kdim-q-half",
        "kdim-extent-inf", "kdim-extent-zero", "kdim-extent-past-domain",
        "kdim-q-inf", "random-delta-inf",
        "random-delta-nan", "random-delta-zero", "random-delta-negative",
        "knapp-rho-zero", "knapp-rho-negative", "knapp-rho-inf",
        "knapp-rho-nan", "knapp-t0-below-domain",
        "knapp-interval-past-domain", "knapp-t0-far-outside-domain",
        "random-delta-past-domain", "sweep-bump-eps0-past-domain",
        "sweep-random-delta-overflow",
        "sweep-bump-eps0-zero", "sweep-bump-x0-inf",
        "sweep-bump-x0-off-sphere", "sweep-random-n-samples",
        "sweep-family-typo", "sweep-foreign-family-key", "sweep-sweep-typo",
        "sweep-unknown-section", "phase-diagram-knapp-seed",
        "phase-diagram-d3-grid-over-budget", "knapp-d3-grid-over-budget",
        "random-q-inf", "audit-sphere-over-budget",
        "audit-singular-over-budget", "knapp-q-repeated", "random-q-repeated",
        "kdim-q-repeated", "random-lower-seed-negative", "sweep-seed-negative",
        "sweep-config-seed-negative", "audit-measure-seed-negative",
        "audit-measure-alpha-nan", "audit-measure-alpha-inf",
        "audit-measure-seed-negative-d3", "audit-measure-singular-alpha-inf",
        "knapp-out-empty", "sweep-config-out-empty",
        "sweep-config-seed-fraction", "knapp-box-off-chart",
        "knapp-d3-box-off-chart", "knapp-d3-box-off-chart-three-lams"])
def test_cli_refused_argument_exits_2(argv, tmp_path, monkeypatch, request):
    # a refused argument stops the run before any calibration or field
    monkeypatch.chdir(tmp_path)
    for name, family, extra in (
            ("random-delta-1e400", "random\ndelta = 1e400", ""),
            ("bump-eps0-0", "bump\neps0 = 0", ""),
            ("bump-eps0-3", "bump\neps0 = 3", ""),
            ("bump-x0-inf", "bump\nx0 = inf, 0", ""),
            ("bump-x0-off-sphere", "bump\nx0 = 3, 0", ""),
            ("random-n-samples", "random\nn_samples = 5", ""),
            ("family-typo", "knapp\nrh0 = 0.1", ""),
            ("foreign-family-key", "knapp\nx0 = 1, 0", ""),
            ("sweep-typo", "knapp", "seeds = 7\n"),
            ("unknown-section", "knapp", "\n[sweeep]\nseed = 7\n"),
            ("seed-negative", "knapp", "seed = -1\n"),
            ("out-empty", "knapp", "out =\n"),
            ("seed-fraction", "knapp", "seed = 1.5\n")):
        (tmp_path / f"{name}.ini").write_text(
            f"[curve]\nkind = moment(2)\n\n[family]\nkind = {family}\n\n"
            f"[sweep]\nlams = 256\nqs = 3\n{extra}")
    _forbid_fields(monkeypatch)
    if request.node.callspec.id.startswith("audit-measure-"):
        monkeypatch.setattr("rlab.cli.sphere_measure", _no_measure)
        monkeypatch.setattr("rlab.cli.singular_alpha_measure", _no_measure)
    code, _, err = _capture(argv)
    assert code == 2
    assert err.startswith("error:")
    if request.node.callspec.id.endswith("over-budget"):
        assert "budget" in err
    if "box-off-chart" in request.node.callspec.id:
        assert "leaves the sphere chart: check t0, rho (KnappFamily(" in err


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


def test_sweep_reads_the_file_seed_only_without_the_flag(tmp_path,
                                                         monkeypatch):
    ini = tmp_path / "seed.ini"
    ini.write_text(_CHEAP_CFG + "seed = 1.5\n")
    code, out, _ = _capture(["sweep", "--config", str(ini), "--seed", "2"])
    assert code == 0 and " seed=2\n" in out
    # without --seed the bad value is refused before any field, naming its
    # key and the file
    _forbid_fields(monkeypatch)
    code, _, err = _capture(["sweep", "--config", str(ini)])
    assert code == 2 and "[sweep] seed" in err and str(ini) in err


@pytest.mark.parametrize("name", [None, *rlab.cli._COMMANDS])
def test_help_exits_0(name):
    # help text is built from the family table and from library defaults
    code, out, _ = _capture([name, "--help"] if name else ["--help"])
    assert code == 0 and out.startswith("usage: rlab")
    if name == "phase-diagram":
        text = " ".join(out.split())
        assert "{knapp,random}" in text
        assert "(default 64,1024 for knapp, 256,1024 for random)" in text


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


_CHEAP_CFG = "[curve]\nkind = moment(2)\n\n[sweep]\nlams = 16\nqs = 3\n"


def _subparsers(ap):
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _after_cli(tmp_path, runs: dict, report: str, setup: str = "") -> bytes:
    """Run setup, then cli_main once per {subcommand: argv} of runs, in a
    fresh interpreter in tmp_path; its stdout is the value of report."""
    code = ("import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from rlab.cli import cli_main\n"
            f"{setup}\n"
            f"for name, argv in {runs!r}.items():\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli_main([name] + argv) == 0, name\n"
            f"print({report})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_cli_never_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: every subcommand runs once in
    # a fresh interpreter, which must not have imported scipy
    assert set(_CHEAP_RUNS) == set(_subparsers(build_parser()))
    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    assert (_after_cli(tmp_path, _CHEAP_RUNS, "'scipy' in sys.modules")
            == b"False\n")


_EXPERIMENTS = ["sweep", "knapp", "random-lower", "phase-diagram", "kdim"]


def _out_runs(name, out):
    """The cheap run of experiment name writing its CSV to out, by --out
    and, for sweep, also by the config file's [sweep] out."""
    runs = [[name] + _CHEAP_RUNS[name] + ["--out", out]]
    if name == "sweep":
        runs.append(["sweep", "--config", "cfg-out.ini"])
    return runs


def _write_cheap_configs(tmp_path, out):
    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    (tmp_path / "cfg-out.ini").write_text(_CHEAP_CFG + f"out = {out}\n")


@pytest.mark.parametrize("name", _EXPERIMENTS)
def test_cli_out_file_holds_the_stdout_csv(name, tmp_path, monkeypatch):
    # the file gets every byte of the CSV the run prints without an out
    # path, and stdout keeps only the '#' summary lines after it
    monkeypatch.chdir(tmp_path)
    _write_cheap_configs(tmp_path, "run.csv")
    code, printed, _ = _capture([name] + _CHEAP_RUNS[name])
    assert code == 0
    for run in _out_runs(name, "run.csv"):
        code, summary, err = _capture(run)
        written = (tmp_path / "run.csv").read_bytes().decode()
        (tmp_path / "run.csv").unlink()
        assert (code, err) == (0, ""), run
        assert written.startswith("# ") and printed == written + summary, run
        assert all(ln.startswith("# ") for ln in summary.splitlines()), run


@pytest.mark.parametrize("name", _EXPERIMENTS)
@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "under-a-file",
                                   "read-only-dir"])
def test_cli_unwritable_out_exits_2(name, where, tmp_path, monkeypatch):
    # an out path into a missing directory, naming a directory, under a
    # file, or in a directory without write permission is a bad argument
    # refused before any field: cli_main returns 2 (no exception escapes
    # it to print a traceback) with the path on stderr, and makes no file
    monkeypatch.chdir(tmp_path)
    out = str({"missing-dir": tmp_path / "missing" / "a.csv",
               "a-dir": tmp_path,
               "under-a-file": tmp_path / "cfg.ini" / "a.csv",
               "read-only-dir": tmp_path / "a.csv"}[where])
    _write_cheap_configs(tmp_path, out)
    files = sorted(os.listdir(tmp_path))
    if where == "read-only-dir":
        # the tests may run as root, who may write anywhere: os.access
        # reports tmp_path as not writable instead
        access = os.access

        def no_write_here(path, mode, *args, **kwargs):
            if os.fspath(path) == str(tmp_path) and mode & os.W_OK:
                return False
            return access(path, mode, *args, **kwargs)

        monkeypatch.setattr(os, "access", no_write_here)
    _forbid_fields(monkeypatch)
    for run in _out_runs(name, out):
        code, printed, err = _capture(run)
        assert code == 2 and printed == "", run
        assert err.startswith(f"error: cannot write the CSV to {out}: "), run
        assert sorted(os.listdir(tmp_path)) == files, run


def _parse_cases(name, sp):
    """Argvs for subcommand name: -h, its cheap run, an unrecognized
    argument, and per argument each argparse error it admits (left out
    when required, an invalid choice, a bad int)."""
    run = [name] + _CHEAP_RUNS[name]
    cases = [[name, "-h"], run, run + ["--bogus"], run + ["extra"]]
    for act in sp._actions:
        flag = act.option_strings[-1]
        if act.required:
            at = run.index(flag)
            cases.append(run[:at] + run[at + 2:])
        if act.choices:
            cases.append(run + [flag, "bogus"])
        if act.type is int:
            cases.append(run + [flag, "x"])
    return cases


@pytest.mark.parametrize("name", [None, *_CHEAP_RUNS])
def test_cli_reads_as_the_full_parser(name, tmp_path, monkeypatch):
    # cli_main builds the parser of argv[0]'s subcommand alone; stdout,
    # stderr and exit code equal those of a cli_main whose every parser
    # holds all eight
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    full = build_parser()
    if name is None:
        cases = [[], ["--help"], ["-h"], ["bogus"], ["bogus", "-h"],
                 ["--d", "2"]]
    else:
        cases = _parse_cases(name, _subparsers(full)[name])
    got = [_capture(argv) for argv in cases]
    every = rlab.cli.build_parser
    with monkeypatch.context() as m:
        m.setattr(rlab.cli, "build_parser", lambda names=None: every())
        want = [_capture(argv) for argv in cases]
    for argv, g, w in zip(cases, got, want):
        assert g == w, argv
    if name is not None:
        # help, the run, then argparse errors only, at least a bad int
        assert len(cases) > 4
        assert [g[0] for g in got] == [0, 0] + [2] * (len(cases) - 2)
        run = [name] + _CHEAP_RUNS[name]
        assert rlab.cli._parse_args(run) == full.parse_args(run)


def test_sweep_builds_only_its_parser(tmp_path, monkeypatch):
    # the top-level parser and sweep's: 2 parsers and 5 arguments (each
    # parser's -h, --config, --seed, --out), where the full parser is 9
    # and 46
    counts = {"parsers": 0, "arguments": 0}
    init = argparse.ArgumentParser.__init__
    add = argparse._ActionsContainer.add_argument

    def counted_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        counts["arguments"] += 1
        return add(self, *args, **kwargs)

    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        counted_add)
    code, out, _ = _capture(["sweep", "--config", str(tmp_path / "cfg.ini")])
    assert code == 0 and "\nlambda,p,q," in out
    assert counts == {"parsers": 2, "arguments": 5}
    counts.update(parsers=0, arguments=0)
    build_parser()
    assert counts == {"parsers": 9, "arguments": 46}


def test_d2_runs_never_import_numpy_polynomial(tmp_path):
    # Gauss-Legendre rules are numpy's leggauss, imported on the first
    # rule built: the d=2 runs build none, so none pays for the import
    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    runs = {name: argv for name, argv in _CHEAP_RUNS.items() if name != "kdim"}
    setup = ("import rlab.measures\n"
             "seen, cli = [], cli_main\n"
             "def cli_main(argv):\n"
             "    code = cli(argv)\n"
             "    seen.append((argv[0], len(rlab.measures._GL_CACHE),\n"
             "                 'numpy.polynomial' in sys.modules))\n"
             "    return code\n")
    assert _after_cli(tmp_path, runs, "seen", setup).decode() == (
        repr([(name, 0, False) for name in runs]) + "\n")


def test_d2_sweep_takes_no_panel(tmp_path):
    # degree 2 takes the closed form or the Taylor form on every node: a
    # d=2 bump sweep sizes no panel and builds no Gauss-Legendre rule
    (tmp_path / "cfg.ini").write_text(
        "[curve]\nkind = moment(2)\n\n[family]\nkind = bump\n\n"
        "[sweep]\nlams = 64, 128, 256, 512\nqs = 3, 4, 6\n")
    setup = ("import rlab.measures, rlab.oscillatory as osc\n"
             "sized = []\n"
             "count = osc._segment_panel_count\n"
             "osc._segment_panel_count = "
             "lambda *a: sized.append(a) or count(*a)")
    report = "len(rlab.measures._GL_CACHE), len(sized)"
    assert (_after_cli(tmp_path, {"sweep": ["--config", "cfg.ini"]}, report,
                       setup) == b"0 0\n")


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


@pytest.mark.parametrize("name", _EXPERIMENTS)
def test_help_prints_each_column_row_on_one_line(name, tmp_path, monkeypatch):
    # the column row a run writes is, verbatim, the rest of the epilog
    # line that names its subcommand
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(_CHEAP_CFG)
    code, out, _ = _capture([name] + _CHEAP_RUNS[name])
    row = next(ln for ln in out.splitlines() if not ln.startswith("#"))
    lines = [ln.split(": ", 1) for ln in build_parser().epilog.splitlines()]
    assert code == 0 and [cols for head, *cols in lines
                          if name in head.split("/")] == [[row]]
