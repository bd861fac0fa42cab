"""Oscillatory field evaluation: oracles, covariances, norms, resolution."""

import math
import os
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

import rlab.oscillatory as osc
from brute_force import panel_nodes
from rlab.curves import (
    TypeTuple,
    moment_curve,
    monomial_curve,
    poly_curve,
)
from rlab.config import sweep_config_from_file
from rlab.harness import (
    BumpFamily,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    decay_sweep,
)
from rlab.measures import (
    _sphere_rule,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from rlab.oscillatory import (
    PANEL_CAP,
    PhaseSpec,
    Segment,
    TestFunction as StepFn,
    _bernstein_matrix,
    _difference_maps,
    _phase_rate_bound,
    eval_field,
    extension_phase,
    field,
    graph_phase,
    indicator,
    lorentz_norm,
    lp_norm,
    lq_norm,
    segment_fields,
)

MC2 = moment_curve(2)


def test_dc_value_is_support_length():
    f = indicator(0.1, 0.7)
    assert abs(eval_field(MC2, 50.0, f, np.zeros(2))[0] - 0.6) < 1e-12
    # lambda = 0 collapses every phase as well
    assert abs(eval_field(MC2, 0.0, f, np.array([3.0, -2.0]))[0] - 0.6) < 1e-12


def test_extension_against_adaptive_oracle():
    lam = 37.0
    xs = [np.array([0.31, -0.7]), np.array([-1.2, 0.44])]
    f = indicator(0.0, 1.0)
    for x in xs:
        got = eval_field(MC2, lam, f, x)[0]
        want = mpmath.quad(
            lambda t: mpmath.e ** (1j * lam * (x[0] * t + x[1] * t * t / 2)),
            [0, 1],
        )
        assert abs(got - complex(want)) < 1e-12


def test_high_frequency_against_dense_gauss():
    lam = 200.0
    x = np.array([0.8, 0.55])
    got = eval_field(MC2, lam, indicator(0.0, 1.0), x)[0]
    gt, gw = np.polynomial.legendre.leggauss(4000)
    ts = 0.5 * (gt + 1.0)
    ph = lam * (x[0] * ts + x[1] * ts * ts / 2)
    want = complex(np.sum(0.5 * gw * np.exp(1j * ph)))
    assert abs(got - want) < 1e-9 * abs(want)


def test_linearity():
    lam, x = 64.0, np.array([0.5, 0.2])
    fa = indicator(0.0, 0.4)
    fb = indicator(0.4, 1.0, amplitude=2.0 - 1.0j)
    both = StepFn(fa.segments + fb.segments)
    va = eval_field(MC2, lam, fa, x)[0]
    vb = eval_field(MC2, lam, fb, x)[0]
    assert abs(eval_field(MC2, lam, both, x)[0] - (va + vb)) < 1e-12
    assert abs(eval_field(MC2, lam, indicator(0.0, 0.4, amplitude=3.0j), x)[0]
               - 3.0j * va) < 1e-12


def test_modulation_translates_field():
    """A segment modulation e^{-i lam x0.gamma} recenters the output."""
    lam = 48.0
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        x0 = rng.normal(size=2)
        x = rng.normal(size=2)
        f_mod = indicator(0.0, 0.8, modulation=(tuple(x0), lam))
        a = eval_field(MC2, lam, f_mod, x)[0]
        b = eval_field(MC2, lam, indicator(0.0, 0.8), x - x0)[0]
        worst = max(worst, abs(a - b))
    assert worst < 1e-9


def test_sign_flips_field():
    lam, x = 32.0, np.array([0.3, 0.3])
    plus = indicator(0.0, 0.5, sign=1)
    minus = indicator(0.0, 0.5, sign=-1)
    assert abs(eval_field(MC2, lam, plus, x)[0]
               + eval_field(MC2, lam, minus, x)[0]) < 1e-14


def test_anisotropic_rescaling_identity():
    """Zooming the curve trades frequency points for input dilation: the
    zoom 2^{ell a_i} gamma_i(2^{-ell} t) of a monomial curve of type a is
    the same curve on [0, 2^ell]."""
    curve = monomial_curve([1, 2, 4])
    a = TypeTuple((1, 2, 4))
    for ell in (1, 2):
        zoom = monomial_curve(a, domain=(0.0, 2.0**ell))
        dmat = np.diag([2.0 ** (ell * ai) for ai in a])
        rng = np.random.default_rng(ell)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=3)
            lam = 29.0
            lhs = eval_field(zoom, lam, indicator(0.0, 1.0), x)[0]
            rhs = 2.0**ell * eval_field(
                curve, lam, indicator(0.0, 2.0**-ell), dmat @ x
            )[0]
            assert abs(lhs - rhs) < 1e-10


def test_chart_field_equals_extension_at_embedded_point():
    phase = graph_phase(MC2, sphere_cap_graph(2))
    f = indicator(0.0, 1.0)
    for lam in (16.0, 64.0):
        for yv in (-0.4, 0.0, 0.23):
            y = np.array([[yv]])
            emb = phase.embed(y)[0]
            assert abs(np.linalg.norm(emb) - 1.0) < 1e-12
            va = eval_field(phase, lam, f, y)[0]
            vb = eval_field(MC2, lam, f, emb)[0]
            assert abs(va - vb) < 1e-12


def _vandermonde(y, n_rows):
    """The points (1, y, y^2, ...) of scalar chart points y."""
    return np.asarray(y, dtype=float)[:, :1] ** np.arange(n_rows)


def test_polynomial_phase_is_a_curve_phase():
    # Psi(y, t) = y t + 2 y^2 t^3: the extension phase of the curve with
    # components 0, t, 2 t^3, at the points (1, y, y^2)
    phase = extension_phase(poly_curve(((0.0, 0.0, 0.0, 0.0),
                                        (0.0, 1.0, 0.0, 0.0),
                                        (0.0, 0.0, 0.0, 2.0))))
    y = np.array([[0.5], [-1.0]])
    ts = np.array([0.2, 0.7])
    want = y[:, :1] * ts[None, :] + 2.0 * y[:, :1] ** 2 * ts[None, :] ** 3
    assert np.max(np.abs(phase.values(_vandermonde(y, 3), ts) - want)) < 1e-14
    dt = y[:, :1] + 6.0 * y[:, :1] ** 2 * ts[None, :] ** 2
    assert np.max(np.abs(phase.values(_vandermonde(y, 3), ts, order=1)
                         - dt)) < 1e-14


def test_lp_norm_closed_forms():
    f = indicator(0.0, 0.5)
    assert abs(lp_norm(f, 2) - math.sqrt(0.5)) < 1e-15
    assert lp_norm(f, math.inf) == 1.0
    g = StepFn((Segment(0.0, 0.25, amplitude=2.0),
                      Segment(0.5, 1.0, amplitude=1.0j)))
    assert abs(lp_norm(g, 3) - (8.0 * 0.25 + 0.5) ** (1.0 / 3.0)) < 1e-15
    assert lp_norm(g, math.inf) == 2.0
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lq_norm():
    mu = sphere_measure(2, 64)
    ones = np.ones(mu.size)
    assert abs(lq_norm(ones, mu, 3) - (2 * math.pi) ** (1 / 3)) < 1e-12
    assert lq_norm(2.5 * ones, mu, math.inf) == 2.5
    with pytest.raises(ValueError):
        lq_norm(ones[:-1], mu, 2)
    with pytest.raises(ValueError):
        lq_norm(ones, mu, 0.5)


@pytest.mark.parametrize("norm", [
    lambda: lp_norm(indicator(0.0, 0.5), math.nan),
    lambda: lq_norm(np.ones(64), sphere_measure(2, 64), math.nan),
    lambda: lorentz_norm(indicator(0.0, 0.5), math.nan, 2.0),
    lambda: lorentz_norm(indicator(0.0, 0.5), 2.0, math.nan),
], ids=["lp", "lq", "lorentz-p", "lorentz-q"])
def test_norms_refuse_nan_exponents(norm):
    with pytest.raises(ValueError, match=">= 1 required"):
        norm()


def test_lorentz_norm():
    f = indicator(0.0, 0.7)
    # L^{p,p} collapses to L^p on step functions
    rng = np.random.default_rng(21)
    for _ in range(20):
        cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
        amps = rng.uniform(0.2, 3.0, size=3)
        g = StepFn(tuple(
            Segment(a, b, amplitude=c)
            for a, b, c in zip(cuts[:-1], cuts[1:], amps)
        ))
        for p in (1.5, 2.0, 4.0):
            assert abs(lorentz_norm(g, p, p) - lp_norm(g, p)) < 1e-12
    # weak-L^p of an indicator equals its strong norm
    assert abs(lorentz_norm(f, 2, math.inf) - 0.7**0.5) < 1e-15
    # two-level function, hand-computed L^{2,1}
    h = StepFn((Segment(0.0, 1.0, amplitude=2.0),
                      Segment(1.0, 4.0, amplitude=1.0)))
    want = 2.0 * 2.0 * 1.0 + 1.0 * 2.0 * (2.0 - 1.0)  # v1 p sqrt(T1) + v2 p (sqrt(T2)-sqrt(T1))
    assert abs(lorentz_norm(h, 2, 1) - want) < 1e-12
    assert lorentz_norm(StepFn(()), 2, 1) == 0.0
    with pytest.raises(ValueError):
        lorentz_norm(f, math.inf, 2)


def test_field_resolution_guard():
    f = indicator(0.0, 1.0)
    coarse = sphere_measure(2, 32)
    with pytest.warns(UserWarning):
        field(MC2, 200.0, f, coarse)
    fine = sphere_measure(2, 2048)
    vals = field(MC2, 200.0, f, fine)
    assert vals.shape == (fine.size,)
    # a caller-built d=3 grid is compared with the rule, not the node
    # budget: lambda = 2048 would need 2 * 8192^2 = 134,217,728 nodes, over
    # the budget of 2^25, yet this warns and evaluates
    coarse3 = sphere_measure(3, 16)
    with pytest.warns(UserWarning, match="exceeds the lambda rule"):
        vals = field(moment_curve(3), 2048.0, indicator(0.0, 0.05), coarse3)
    assert vals.shape == (coarse3.size,)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lam", [16.0, 40.1])
def test_field_checks_the_rule_by_node_count(d, lam):
    # the grid the rule gives is silent; one resolution below it warns
    curve, f = moment_curve(d), indicator(0.0, 0.05)
    res, _ = _sphere_rule(d, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field(curve, lam, f, sphere_measure(d, res))
    with pytest.warns(UserWarning, match="exceeds the lambda rule"):
        field(curve, lam, f, sphere_measure(d, res - 1))


def _d3_case(family, lam):
    """moment(3), lambda, the family's input at lambda, and the grid
    sphere_resolution_for(3, lambda) gives."""
    curve, lam, f, _ = _sphere_case(3, family, lam, 1)
    return curve, lam, f, sphere_measure(3, sphere_resolution_for(3, lam))


def test_d3_grid_rule_against_the_8_pi_lambda_grid():
    """The d=3 bump's norms on the 4 lambda grid against the 8 pi lambda
    grid of the earlier rule.  q = 3 (slowest) and the sampled max are
    printed, not gated."""
    for lam in (16.0, 32.0):
        curve, lam, f, mu = _d3_case(BumpFamily(), lam)
        old = sphere_measure(3, math.ceil(8 * math.pi * lam))
        assert mu.size < old.size
        new_vals, old_vals = field(curve, lam, f, mu), field(curve, lam, f, old)
        errs = {q: abs(lq_norm(new_vals, mu, q) / lq_norm(old_vals, old, q) - 1)
                for q in (2.0, 3.0, 7.0, 8.0, 12.0, math.inf)}
        print(f"lambda={lam:g}: " + " ".join(f"q={q:g}:{e:.1e}"
                                             for q, e in errs.items()))
        for q in (2.0, 7.0, 8.0, 12.0):
            assert errs[q] <= 1e-10, (lam, q, errs[q])


def _l2_referee(curve, lam, f):
    """||F||_2 on S^2 with no sphere grid,

        ||F||_2^2 = int int f(s) conj f(t) 4 pi sin(r) / r ds dt,

    r = lam |curve(s) - curve(t)|, the Fourier transform of the surface
    measure (Stein, Harmonic Analysis, 1993, ch. VIII).  Each segment
    takes 16-point Gauss-Legendre panels, 2 lambda per unit length: in
    each variable the modulation and sin(r) each turn by at most
    lam |curve'| <= 3.75 lam per unit length on [0, 1], so a panel
    carries at most 3.75 radians."""
    gx, gw = np.polynomial.legendre.leggauss(16)
    ts, fw = [], []
    for seg in f.segments:
        edges = np.linspace(seg.start, seg.end,
                            max(1, math.ceil(2 * lam * seg.length)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * gx).ravel()
        vals = seg.coefficient * (half * gw).ravel()
        if seg.modulation is not None:
            x0, lam_mod = seg.modulation
            vals = vals * np.exp(-1j * lam_mod * (curve.eval_many(t) @ x0))
        ts.append(t)
        fw.append(vals)
    g, fw = curve.eval_many(np.concatenate(ts)), np.concatenate(fw)
    r = lam * np.sqrt(sum((g[:, k, None] - g[None, :, k]) ** 2
                          for k in range(3)))
    kernel = 4 * np.pi * np.divide(np.sin(r), r, out=np.ones_like(r),
                                   where=r > 0)
    return math.sqrt((fw @ kernel @ fw.conj()).real)


@pytest.mark.parametrize("family", [
    BumpFamily(), KnappFamily(), RandomFamily(delta=1.0),
], ids=["bump", "knapp", "random"])
def test_d3_l2_against_a_grid_free_referee(family):
    """The field's L^2 norm on the rule's grid against _l2_referee.  The
    random family takes delta = 1: its default 0.25 needs lambda >= 4096
    at d=3."""
    for lam in (16.0, 32.0, 64.0):
        curve, lam, f, mu = _d3_case(family, lam)
        got = lq_norm(field(curve, lam, f, mu), mu, 2.0)
        want = _l2_referee(curve, lam, f)
        assert abs(got - want) <= 1e-13 * want, (lam, got, want)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0.5, 0.2)
    with pytest.raises(ValueError):
        Segment(0.0, math.inf)
    with pytest.raises(ValueError):
        Segment(0.0, 1.0, sign=2)
    with pytest.raises(ValueError):
        StepFn((Segment(0.0, 0.6), Segment(0.5, 1.0)))
    seg = Segment(0.0, 1.0, amplitude=2.0, sign=-1)
    assert seg.coefficient == -2.0


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        PhaseSpec(None)
    with pytest.raises(ValueError):
        graph_phase(MC2, sphere_cap_graph(3))
    ext = extension_phase(MC2)
    pts = np.array([[0.1, 0.2]])
    assert np.array_equal(ext.embed(pts), pts)


# ----------------------------------------------------------------------
# panel sizing
# ----------------------------------------------------------------------

MC3 = moment_curve(3)
MC4 = moment_curve(4)
_GRAPH4 = submanifold_builder(4, 2, MC4)
_RNG = np.random.default_rng(7)
# Psi(y, t) = 0.5 t - t^3 + y (1 + 3 t^2) + 2 y^2 t^4 for scalar y
_POLY = extension_phase(poly_curve(((0.0, 0.5, 0.0, -1.0),
                                    (1.0, 0.0, 3.0),
                                    (0.0, 0.0, 0.0, 0.0, 2.0))))
_CURVE_PHASES = [
    (extension_phase(MC3), _RNG.normal(size=(40, 3))),
    (graph_phase(MC3, sphere_cap_graph(3)),
     _RNG.uniform(-0.6, 0.6, size=(40, 2))),
    (graph_phase(_GRAPH4.curve, _GRAPH4), _RNG.uniform(0.0, 0.75, size=(40, 2))),
]


@pytest.mark.parametrize("phase, ypts, x0", [
    *[(ph, y, None) for ph, y in _CURVE_PHASES],
    *[(ph, y, _RNG.normal(size=ph.curve.dim)) for ph, y in _CURVE_PHASES],
    (_POLY, _vandermonde(_RNG.uniform(-1.5, 1.5, size=(40, 1)), 3), None),
], ids=["extension", "sphere-cap", "submanifold", "extension-modulated",
        "sphere-cap-modulated", "submanifold-modulated", "polynomial"])
def test_phase_rate_bound_dominates_dense_sample(phase, ypts, x0):
    lam, lam_mod = 37.0, 53.0
    seg = Segment(0.15, 0.85,
                  modulation=None if x0 is None else (x0, lam_mod))
    ts = np.linspace(seg.start, seg.end, 20001)
    dense = lam * phase.values(ypts, ts, order=1)
    if x0 is not None:
        dense -= lam_mod * (phase.curve.eval_many(ts, 1) @ x0)
    sup = np.max(np.abs(dense), axis=1)
    bound = np.array([_phase_rate_bound(phase, lam, seg, y[None, :])
                      for y in ypts])
    # a maximum at an endpoint is attained by both: allow its rounding
    assert np.all(bound >= sup * (1.0 - 1e-13))
    # and not loose: within the safety factor 2 of the old sampled rule
    assert np.all(bound <= 2.0 * sup)
    # over a point set the bound is the largest per-point bound
    assert _phase_rate_bound(phase, lam, seg, ypts) == np.max(bound)


def _column_loop_rate_bound(phase, lam, seg, ypts):
    """_phase_rate_bound as one loop per Bernstein column."""
    rows = phase.curve._float_rows(1)
    basis = phase.embed(ypts)
    bern = rows @ _bernstein_matrix(seg.start, seg.end, rows.shape[1])
    shift = np.zeros(bern.shape[1])
    if seg.modulation is not None:
        x0, lam_mod = seg.modulation
        shift = lam_mod * (np.asarray(x0) @ bern)
    sups = []
    for col, off in zip(bern.T, shift):
        vals = np.full(basis.shape[0], -off)
        for b, c in zip(basis.T, lam * col):
            vals += c * b
        sups.append(np.max(np.abs(vals), initial=0.0))
    return float(np.max(sups, initial=0.0))


def test_phase_rate_bound_equals_the_column_loop():
    lam, lam_mod = 37.0, 53.0
    for phase, ypts in [*_CURVE_PHASES,
                        (extension_phase(MC2), _RNG.normal(size=(40, 2))),
                        (_POLY, _vandermonde(_RNG.uniform(-1.5, 1.5,
                                                          size=(40, 1)), 3))]:
        x0 = _RNG.normal(size=phase.curve.dim)
        for mod in (None, (x0, lam_mod)):
            seg = Segment(0.15, 0.85, modulation=mod)
            assert (_phase_rate_bound(phase, lam, seg, ypts)
                    == _column_loop_rate_bound(phase, lam, seg, ypts))


@pytest.mark.parametrize("start", [0.0, 0.3])
def test_one_panel_at_the_cap_is_exact(start):
    seg = Segment(start, start + 1.0)
    ts, ws = panel_nodes(seg, 1)
    for rate in np.linspace(PANEL_CAP / 8, PANEL_CAP, 8):
        got = np.sum(ws * np.exp(1j * rate * ts))
        want = (np.exp(1j * rate * seg.end)
                - np.exp(1j * rate * seg.start)) / (1j * rate)
        assert abs(got - want) <= 1e-14


def _sphere_case(d, family, lam, stride):
    curve = moment_curve(d)
    mu = sphere_measure(d, sphere_resolution_for(d, lam))
    config = SweepConfig(curve=curve, family=family, lams=(lam,), qs=(2.0,))
    phase = graph_phase(curve, sphere_cap_graph(d))
    f = config.family.input(phase, lam, config.seed)[0]
    return curve, lam, f, mu.nodes[::stride]


@pytest.mark.parametrize("d, family, lam, stride", [
    (2, BumpFamily(), 4096.0, 1),
    (2, KnappFamily(), 4096.0, 1),
    (2, RandomFamily(delta=1.0), 4096.0, 1),
    (3, BumpFamily(), 32.0, 4),
    (3, RandomFamily(delta=1.0), 32.0, 4),
], ids=["bump-d2", "knapp-d2", "random-d2", "bump-d3", "random-d3"])
def test_segment_fields_sum_to_eval_field(d, family, lam, stride):
    """One row per segment, 0 for a zero-length one; summed in segment
    order the rows are eval_field's values byte for byte, with the same
    panel count."""
    curve, lam, f, nodes = _sphere_case(d, family, lam, stride)
    end = f.segments[-1].end
    f = StepFn(f.segments + (Segment(end, end),))
    row_stats, sum_stats = {}, {}
    rows = segment_fields(curve, lam, f, nodes, stats=row_stats)
    want = eval_field(curve, lam, f, nodes, stats=sum_stats)
    assert rows.shape == (len(f.segments), nodes.shape[0])
    assert not rows[-1].any() and all(row.any() for row in rows[:-1])
    total = np.zeros_like(want)
    for row in rows:
        total += row
    assert total.tobytes() == want.tobytes()
    assert row_stats == sum_stats
    assert (sum_stats["panels"] > 0) == (d == 3)
    if family.name == "random":
        assert len(f.segments) == (9 if d == 2 else 3)


@pytest.mark.parametrize("case", [
    lambda: _sphere_case(2, BumpFamily(), 1024.0, 4),
    lambda: _sphere_case(3, BumpFamily(), 32.0, 8),
    lambda: _sphere_case(2, KnappFamily(), 256.0, 1),
    lambda: _sphere_case(2, RandomFamily(delta=1.0), 256.0, 1),
], ids=["bump-d2", "bump-d3", "knapp", "random"])
def test_wide_panels_match_the_old_layout(case, monkeypatch):
    """4 pi radians per panel against the old pi/4 per panel."""
    curve, lam, f, nodes = case()
    wide = _panel_rule(curve, lam, f, nodes)
    monkeypatch.setattr(osc, "PANEL_CAP", 0.25 * np.pi)
    narrow = _panel_rule(curve, lam, f, nodes)
    assert np.max(np.abs(wide - narrow)) <= 1e-13 * np.max(np.abs(narrow))


# ----------------------------------------------------------------------
# panel recurrence
# ----------------------------------------------------------------------

def _direct_field(phase, lam, f, ypts):
    """eval_field's sum on the same panels, one np.exp per phase point."""
    out = np.zeros(ypts.shape[0], dtype=complex)
    for lo in range(0, ypts.shape[0], osc._Y_CHUNK):
        chunk = ypts[lo:lo + osc._Y_CHUNK]
        for seg in f.segments:
            if seg.length == 0.0:
                continue
            ts, ws = panel_nodes(
                seg, osc._segment_panel_count(phase, lam, seg, chunk))
            ph = lam * phase.values(chunk, ts)
            if seg.modulation is not None:
                x0, lam_mod = seg.modulation
                ph -= lam_mod * (phase.curve.eval_many(ts) @ np.asarray(x0))
            out[lo:lo + chunk.shape[0]] += seg.coefficient * (np.exp(1j * ph) @ ws)
    return out


def _panel_rule(phase, lam, f, ypts):
    """The panel rule's field, which eval_field takes at every degree but
    2, on every node: its per-segment route, in segment order."""
    out = np.zeros(ypts.shape[0], dtype=complex)
    for seg in f.segments:
        if seg.length > 0.0:
            osc._panel_segment(osc._as_phase(phase), lam, seg, ypts, out)
    return out


def _assert_matches_direct(phase, lam, f, ypts):
    got = _panel_rule(phase, lam, f, ypts)
    want = _direct_field(phase, lam, f, ypts)
    scale = np.max(np.abs(want))
    # where |F| is far below its L^1 bound the sum is cancellation-bound,
    # and both evaluations carry the same conditioning error: keep to
    # fields where the max-norm comparison sees the kernels' round-off
    assert scale >= 0.05 * sum(abs(s.coefficient) * s.length
                               for s in f.segments)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _panels(phase, lam, seg, ypts):
    return max(osc._segment_panel_count(phase, lam, seg, ypts[lo:lo + osc._Y_CHUNK])
               for lo in range(0, ypts.shape[0], osc._Y_CHUNK))


_GRID = np.stack(np.meshgrid(np.linspace(-0.6, 0.6, 15),
                             np.linspace(-0.6, 0.6, 15)), -1).reshape(-1, 2)


@pytest.mark.parametrize("modulated", [False, True],
                         ids=["plain", "modulated"])
@pytest.mark.parametrize("phase, ypts, lam", [
    (extension_phase(MC3), _CURVE_PHASES[0][1], 500.0),
    (graph_phase(MC3, sphere_cap_graph(3)), _GRID, 500.0),
    (_CURVE_PHASES[2][0], _CURVE_PHASES[2][1], 3000.0),
], ids=["extension", "sphere-cap", "submanifold"])
def test_recurrence_matches_direct_exp(phase, ypts, lam, modulated):
    # the modulated field peaks at the first point, where |F| = length
    x0 = phase.embed(ypts[:1])[0] if modulated else None
    seg = Segment(0.15, 0.85, modulation=None if x0 is None else (x0, lam))
    # the recurrence runs past at least one re-anchor
    spacing = osc._anchor_spacing(phase.curve.degree)
    assert _panels(phase, lam, seg, ypts) > spacing
    _assert_matches_direct(phase, lam, StepFn((seg,)), ypts)


def test_recurrence_over_many_anchors():
    curve, lam, f, nodes = _sphere_case(2, BumpFamily(), 1024.0, 4)
    n_panels = _panels(extension_phase(curve), lam, f.segments[0], nodes)
    assert osc._anchor_spacing(curve.degree) == osc._ANCHOR
    assert n_panels > 3 * osc._ANCHOR and n_panels % osc._ANCHOR != 0
    _assert_matches_direct(extension_phase(curve), lam, f, nodes)


def test_recurrence_on_a_random_sign_input():
    curve, lam, f, nodes = _sphere_case(2, RandomFamily(delta=1.0), 256.0, 1)
    assert len(f.segments) > 1 and {s.sign for s in f.segments} == {-1, 1}
    _assert_matches_direct(extension_phase(curve), lam, f, nodes)


def test_recurrence_on_a_degree_one_curve():
    line = poly_curve(((0.0, 1.0), (0.5, -2.0)))
    ypts = np.random.default_rng(5).normal(size=(50, 2))
    f = indicator(0.1, 0.9, modulation=(ypts[0], 300.0))
    assert _panels(extension_phase(line), 300.0, f.segments[0], ypts) > 32
    _assert_matches_direct(extension_phase(line), 300.0, f, ypts)


def test_recurrence_at_the_panel_floor():
    ypts = np.random.default_rng(6).normal(size=(30, 2))
    f = indicator(0.0, 1.0)
    assert _panels(extension_phase(MC2), 2.0, f.segments[0], ypts) == osc.MIN_PANELS
    _assert_matches_direct(extension_phase(MC2), 2.0, f, ypts)


def _anchor_loop_maps(start, h, n_panels, width):
    """_difference_maps as one np.outer loop per anchor."""
    deg = width - 1
    stir = osc._scaled_stirling(width)[:, :deg]
    taus = start + 0.5 * h * (1.0 + osc.gauss_legendre(osc.PANEL_ORDER)[0])
    maps = []
    for k0 in range(0, n_panels, osc._anchor_spacing(deg)):
        powers = (taus + k0 * h)[:, None] ** np.arange(width)
        out = np.zeros((deg, osc.PANEL_ORDER, width))
        for k in range(width):
            for i in range(k + 1):
                scale = math.comb(k, i) * h ** i
                out[:, :, k] += np.outer(scale * stir[i], powers[:, k - i])
        maps.append(out.reshape(deg * osc.PANEL_ORDER, width))
    return maps


@pytest.mark.parametrize("width", [2, 3, 4, 5, 7])
def test_difference_maps_equal_the_anchor_loop(width):
    for start, length, n_panels in [(0.0, 1.0, 4), (0.15, 0.7, 97),
                                    (-0.3, 2.5, 1000)]:
        h = length / n_panels
        got = _difference_maps(start, h, n_panels, width)
        want = _anchor_loop_maps(start, h, n_panels, width)
        assert got.shape == (len(want), *want[0].shape)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ----------------------------------------------------------------------
# table exponentials
# ----------------------------------------------------------------------

_EPS = 2.0 ** -52           # one ulp of 1.0, the modulus of exp(i theta)


def _cis(theta):
    return osc._cis(np.ascontiguousarray(theta, dtype=float))


def _cis_error(theta, got):
    """|got - exp(i theta)| in ulps of 1.0, against mpmath at 160 bits."""
    with mpmath.workprec(160):
        return max(float(abs(mpmath.mpc(g.real, g.imag)
                             - mpmath.expj(mpmath.mpf(float(t))))) / _EPS
                   for t, g in zip(theta, got))


def test_cis_table_is_correctly_rounded():
    n = osc._CIS_N
    table = osc._CIS_TABLE
    assert table.shape == (n,)
    with mpmath.workprec(160):
        for k in range(n):
            # cos and sin of pi * (2k/n), with 2k/n exact: zeros stay zeros
            x = mpmath.mpf(2 * k) / n
            for got, exact in ((table[k].real, mpmath.cospi(x)),
                               (table[k].imag, mpmath.sinpi(x))):
                half_ulp = np.spacing(abs(float(exact))) / 2
                assert abs(mpmath.mpf(float(got)) - exact) <= half_ulp, k


def test_cis_split_heads_multiply_exactly():
    *heads, tail = osc._CIS_SPLIT
    assert len(heads) == 3
    # |k| < 2**38 over the range, so k * head has at most 53 bits
    assert osc._CIS_RANGE * osc._CIS_N / (2 * math.pi) < 2.0 ** 38
    assert osc._CIS_HEAD + 38 <= 53
    for head in heads:
        mant = math.frexp(head)[0]
        assert (mant * 2 ** osc._CIS_HEAD).is_integer()
    # consecutive bit ranges: each part is below the last bit of the one
    # before, and together they are 2 pi / N to the tail's precision
    for hi, lo in zip(heads, heads[1:] + [tail]):
        assert abs(lo) < 2.0 ** (math.frexp(hi)[1] - osc._CIS_HEAD)
    with mpmath.workprec(200):
        step = 2 * mpmath.pi / osc._CIS_N
        total = sum(mpmath.mpf(p) for p in osc._CIS_SPLIT)
        assert abs(total - step) <= step * 2.0 ** -100


def test_cis_within_one_ulp():
    rng = np.random.default_rng(11)
    step = 2 * math.pi / osc._CIS_N
    mags = 10.0 ** np.arange(-3, 10)                # 1e-3 ... 1e9
    spread = (mags[:, None] * rng.uniform(1.0, 10.0, size=(13, 24))).ravel()
    spread = spread[spread <= osc._CIS_RANGE]
    ks = np.concatenate([np.arange(-40, 41),
                         rng.integers(-2 ** 37, 2 ** 37, size=120)]).astype(float)
    multiples = ks * step                           # r ~ rounding of theta
    # theta N / 2 pi lands on k + 1/2: rint's tie, |r| at its largest
    ties = (ks + 0.5) * step
    ties = np.concatenate([ties, np.nextafter(ties, np.inf),
                           np.nextafter(ties, -np.inf)])
    ties = ties[np.abs(ties) <= osc._CIS_RANGE]
    theta = np.concatenate([spread, -spread, multiples, ties,
                            [0.0, -0.0, osc._CIS_RANGE, -osc._CIS_RANGE]])
    got = _cis(theta)
    assert _cis_error(theta, got) <= 1.0
    # and on the same points libm's exp, which _cis replaces, is as close
    assert _cis_error(theta, np.exp(1j * theta)) <= 1.0


def test_cis_at_the_rint_tie_rounds_either_way():
    step = 2 * math.pi / osc._CIS_N
    theta = (np.arange(-20, 20) + 0.5) * step
    # some of these products are exact ties, which rint sends to even k
    scaled = theta * (osc._CIS_N / (2 * math.pi))
    assert np.any(scaled == np.arange(-20, 20) + 0.5)
    assert _cis_error(theta, _cis(theta)) <= 1.0


def test_cis_non_finite_and_out_of_range():
    # tier-1 turns RuntimeWarning into an error: no cast or invalid warning
    theta = np.array([0.25, np.nan, np.inf, -np.inf, -3.0])
    got = _cis(theta)
    assert np.all(np.isnan(got[1:4].real)) and np.all(np.isnan(got[1:4].imag))
    assert _cis_error(theta[[0, 4]], got[[0, 4]]) <= 1.0
    assert np.all(np.isnan(_cis(np.full(7, np.nan))))
    # past the range of exact heads, libm takes over for those elements
    # alone: 1.5 keeps the bits it has without them
    mixed = np.array([1.5, 4.0e9, -1.0e12, np.nan])
    got = _cis(mixed)
    assert np.array_equal(got[:1], _cis(mixed[:1]))
    assert np.array_equal(got[1:3], np.exp(1j * mixed[1:3]))
    assert np.isnan(got[3].real) and np.isnan(got[3].imag)
    assert _cis(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("d, seg", [(2, (0.0, 1.0)),
                                    (3, (0.5, 0.5 + 2.0 ** -30))],
                         ids=["d2", "d3"])
def test_a_far_point_moves_no_other_value(d, seg):
    # the far point's phase leaves _cis's range, so its exponentials are
    # libm's; every other point of its batch (at d=3 its chunk, which the
    # short segment keeps at MIN_PANELS panels) keeps the table's bits
    lam = 2.0 ** 20
    rng = np.random.default_rng(2300 + d)
    ypts = rng.uniform(-1.0, 1.0, size=(64, d))
    phase = extension_phase(moment_curve(d))
    f = indicator(*seg)
    far = np.full((1, d), 5e3)
    # its phase at the segment's end
    assert lam * far[0] @ seg[1] ** np.arange(1, d + 1) > osc._CIS_RANGE
    alone = eval_field(phase, lam, f, ypts)
    joined = eval_field(phase, lam, f, np.vstack([ypts, far]))
    assert np.array_equal(joined[:-1], alone)


# ----------------------------------------------------------------------
# degree-2 phases in closed form
# ----------------------------------------------------------------------

def _mp_faddeeva(z):
    with mpmath.workdps(40):
        z = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


@pytest.mark.parametrize("ray", [1, 3], ids=["pi/4", "3pi/4"])
def test_faddeeva_on_both_rays(ray):
    z = np.logspace(-3, 7, 2001) * np.exp(0.25j * np.pi * ray)
    want = scipy.special.wofz(z)
    assert np.max(np.abs(osc._faddeeva(z) - want) / np.abs(want)) <= 5e-14
    # wofz is itself off by up to 5e-15 here: mpmath at |z| = 1e-3, 1,
    # 1e2, 1e4 and 1e7
    few = z[[0, 600, 1000, 1400, 2000]]
    for got, at in zip(osc._faddeeva(few), few):
        want = _mp_faddeeva(at)
        assert abs(got - want) <= 5e-15 * abs(want)


def _mp_segment(big_c, big_b, big_a, a, b):
    """int_a^b exp(i (A t^2 + B t + C)) dt to 40 digits from exact
    inputs (floats or mpf), by erf with the square root k of -i A."""
    with mpmath.workdps(40):
        big_c, big_b, big_a, a, b = (mpmath.mpf(v)
                                     for v in (big_c, big_b, big_a, a, b))
        if big_a == 0:
            part = ((mpmath.expj(big_b * b) - mpmath.expj(big_b * a))
                    / (1j * big_b) if big_b else b - a)
        else:
            k = mpmath.sqrt(-1j * big_a)
            t_star = -big_b / (2 * big_a)
            part = (mpmath.expj(-big_b ** 2 / (4 * big_a))
                    * mpmath.sqrt(mpmath.pi) / (2 * k)
                    * (mpmath.erf(k * (b - t_star))
                       - mpmath.erf(k * (a - t_star))))
        return mpmath.expj(big_c) * part


def _mp_field(lam, f, y):
    """The extension field of moment_curve(2) at the point y, to 40
    digits from the exact float inputs."""
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for seg in f.segments:
            v = [lam * mpmath.mpf(float(c)) for c in y]
            if seg.modulation is not None:
                x0, lam_mod = seg.modulation
                v = [vi - mpmath.mpf(lam_mod) * mpmath.mpf(xi)
                     for vi, xi in zip(v, x0)]
            total += complex(seg.coefficient) * _mp_segment(
                0.0, v[0], v[1] / 2, seg.start, seg.end)
        return complex(total)


def _count_form_rows(monkeypatch):
    """Rows per call of the closed form and of the Taylor form."""
    rows = {"closed": [], "taylor": []}
    for key, name in (("closed", "_quadratic_sums"),
                      ("taylor", "_taylor_sums")):
        def counting(coef, start, end, inner=getattr(osc, name), key=key):
            rows[key].append(coef.shape[0])
            return inner(coef, start, end)

        monkeypatch.setattr(osc, name, counting)
    return rows


def test_nodes_on_both_sides_of_the_closed_form_threshold(monkeypatch):
    seg = Segment(0.2, 0.9)
    f = StepFn((seg,))
    lam = 64.0
    # A = lam x2 / 2 on moment(2): |A| (b - a)^2 = 1 at x2 = edge
    edge = 2.0 / (lam * seg.length ** 2)
    x2 = edge * np.array([0.0, 1e-12, 1e-6, 0.01, 0.5, 0.99,
                          1.0, 1.01, 2.0, 40.0])
    x2 = np.concatenate([x2, -x2])
    # B = lam x1 puts t* = -x1 / x2 inside, at either end, or outside
    ypts = np.array([(x1, b) for b in x2
                     for x1 in (-0.5 * b, -0.2 * b, -0.9 * b, 0.37)])
    rows = _count_form_rows(monkeypatch)
    got = eval_field(MC2, lam, f, ypts)
    closed = np.abs(lam * ypts[:, 1] / 2) * seg.length ** 2 >= 1.0
    assert sum(rows["closed"]) == np.count_nonzero(closed) == 32
    assert sum(rows["taylor"]) == np.count_nonzero(~closed) == 48
    want = np.array([_mp_field(lam, f, y) for y in ypts])
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(got - _panel_rule(MC2, lam, f, ypts))) <= 1e-14
    # lambda = 0: every A is 0, so every node takes the Taylor form
    rows["closed"].clear()
    rows["taylor"].clear()
    dc = eval_field(MC2, 0.0, f, ypts)
    assert np.max(np.abs(dc - seg.length)) <= 1e-15
    assert sum(rows["closed"]) == 0 and sum(rows["taylor"]) == len(ypts)


@pytest.mark.parametrize("start, end", [
    (0.0, 1.0), (0.2, 0.9), (-0.75, -0.5), (1.5, 1.75)])
def test_taylor_form_against_a_referee(start, end):
    """Rows (C, B, A) with |A| (b - a)^2 from 0 to 0.999 and either sign
    of A, and x = (B + 2 A m) h on both sides of the switch from the c_k
    series to their recurrence at |x| = 2."""
    length, mid, h = end - start, 0.5 * (start + end), 0.5 * (end - start)
    cases = [(sign * s / length ** 2, x)
             for s in (0.0, 1e-12, 1e-6, 0.01, 0.5, 0.999) for sign in (1, -1)
             for x in (0.0, 1e-8, 0.3, -1.5, 1.999, 2.0, -2.001, 2.5, 7.0,
                       -15.0)]
    phases = np.random.default_rng(17).uniform(-3.0, 3.0, size=len(cases))
    rows = [(c, x / h - 2.0 * a * mid, a) for c, (a, x) in zip(phases, cases)]
    coef = np.array(rows)
    x = (coef[:, 1] + 2.0 * mid * coef[:, 2]) * h
    # x = 2 itself may round to either side
    series = np.count_nonzero(np.abs(x) < osc._SERIES_MAX)
    assert 60 <= series <= 72 and len(rows) - series >= 48
    got = osc._taylor_sums(coef, start, end)
    want = np.array([complex(_mp_segment(*row, start, end)) for row in rows])
    assert np.max(np.abs(got - want)) <= 1e-14


def _peak_sample(values, size):
    """About size evenly spaced indices plus the 64 around max |values|."""
    n = values.size
    peak = int(np.argmax(np.abs(values)))
    return np.union1d(np.arange(0, n, max(1, n // size)),
                      np.arange(max(0, peak - 32), min(n, peak + 32)))


@pytest.mark.parametrize("family, top", [
    (BumpFamily(), 13), (KnappFamily(), 13), (RandomFamily(delta=1.0), 11),
], ids=["bump", "knapp", "random"])
def test_closed_form_matches_the_panel_rule(family, top):
    for k in range(6, top + 1):
        curve, lam, f, nodes = _sphere_case(2, family, 2.0 ** k, 1)
        closed = eval_field(curve, lam, f, nodes)
        # the panel rule on every node of a grid below 8,192 nodes, else
        # on an even sample of about 4,096 that keeps the peak of |F|
        idx = _peak_sample(closed, 4096)
        panel = _panel_rule(curve, lam, f, nodes[idx])
        assert (np.max(np.abs(closed[idx] - panel))
                <= 1e-13 * np.max(np.abs(closed))), k


@pytest.mark.parametrize("lam", [4096.0, 8192.0])
def test_closed_form_at_large_lambda_against_a_referee(lam):
    """Random inputs: at the sampled nodes where the kernels disagree
    most, the closed form meets mpmath."""
    curve, lam, f, nodes = _sphere_case(2, RandomFamily(delta=1.0), lam,
                                        int(lam) // 512)
    closed = eval_field(curve, lam, f, nodes)
    worst = np.argsort(np.abs(closed - _panel_rule(curve, lam, f, nodes)))[-2:]
    norm1 = sum(abs(s.coefficient) * s.length for s in f.segments)
    for i in worst:
        assert abs(closed[i] - _mp_field(lam, f, nodes[i])) <= 1e-13 * norm1


@pytest.mark.parametrize("family", [
    BumpFamily(), KnappFamily(), RandomFamily(delta=1.0),
], ids=["bump", "knapp", "random"])
def test_closed_form_batch_width_moves_no_bit(family, monkeypatch):
    """Each closed-form node is computed on its own, so any batch width
    gives the bits and the panels of one batch holding every node."""
    curve, lam, f, nodes = _sphere_case(2, family, 512.0, 1)
    assert nodes.shape[0] > 2 * osc._CLOSED_BATCH
    # width 1 makes one closed-form call per node and segment: a tenth
    # of the nodes keeps it cheap
    for width, pts in ((osc._CLOSED_BATCH, nodes), (7, nodes),
                       (1, nodes[::10])):
        runs = []
        for w in (width, pts.shape[0] + 1):
            monkeypatch.setattr(osc, "_CLOSED_BATCH", w)
            stats = {}
            values = eval_field(curve, lam, f, pts, stats=stats)
            runs.append((values.tobytes(), stats["panels"]))
        assert runs[0] == runs[1], width


def _count_kernel_work(monkeypatch, run):
    """Work eval_field does inside run(): libm and table exponentials,
    _cis calls, phase points and rows of the panel rule, Faddeeva values,
    calls of the closed form (one _faddeeva call each) and rows of the
    Taylor form."""
    counts = dict.fromkeys(("libm", "table", "table_calls", "phase",
                            "panel_rows", "w", "closed_calls", "taylor"), 0)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            counts["libm"] += np.size(x)
            return np.exp(x, *args, **kwargs)

    def counting_cis(theta):
        counts["table"] += theta.size
        counts["table_calls"] += 1
        return cis(theta)

    def counting_panels(phase, lam, seg, ypts):
        n_panels = panels(phase, lam, seg, ypts)
        counts["phase"] += len(ypts) * n_panels * osc.PANEL_ORDER
        counts["panel_rows"] += len(ypts)
        return n_panels

    def counting_faddeeva(z):
        counts["w"] += z.size
        counts["closed_calls"] += 1
        return faddeeva(z)

    def counting_taylor(coef, start, end):
        counts["taylor"] += coef.shape[0]
        return taylor(coef, start, end)

    cis, panels, faddeeva, taylor = (osc._cis, osc._segment_panel_count,
                                     osc._faddeeva, osc._taylor_sums)
    monkeypatch.setattr(osc, "np", CountingNumpy())
    monkeypatch.setattr(osc, "_cis", counting_cis)
    monkeypatch.setattr(osc, "_segment_panel_count", counting_panels)
    monkeypatch.setattr(osc, "_faddeeva", counting_faddeeva)
    monkeypatch.setattr(osc, "_taylor_sums", counting_taylor)
    run()
    return counts


def test_bump_d2_exponentials_come_from_the_table(monkeypatch):
    """The benchmark's bump-d2 sweep takes no panel: two Faddeeva values
    per closed-form node, and libm sees no exponential."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = sweep_config_from_file(os.path.join(root, "perfbench", "bump-d2.ini"))
    counts = _count_kernel_work(monkeypatch, lambda: decay_sweep(cfg))
    # 640 + 1280 + 2560 + 5120 nodes, one segment each; 58 of them have
    # |A| < 1 and take the Taylor form.  The closed form takes the rest in
    # 1 + 1 + 2 + 3 batches of up to 2,048 nodes.  Table values: both ends
    # of each closed-form node and 2,400 saddles, then exp(i P(m)) of each
    # Taylor node and exp(i x) of the 29 whose |x| >= 2, in one _cis call
    # per closed-form batch and one per Taylor-form call (6)
    assert counts == {"libm": 0, "table": 2 * 9_542 + 2_400 + 58 + 29,
                      "table_calls": 7 + 6, "phase": 0, "panel_rows": 0,
                      "w": 2 * 9_542, "closed_calls": 7, "taylor": 58}


def test_bump_d3_exponentials_come_from_the_table(monkeypatch):
    """At degree 3 every node takes the panel recurrence."""
    cfg = SweepConfig(curve=MC3, family=BumpFamily(), lams=(16.0,),
                      qs=(7.0,))
    counts = _count_kernel_work(monkeypatch, lambda: decay_sweep(cfg))
    # 2 * 64^2 = 8,192 nodes on MIN_PANELS = 4 panels, so one anchor per
    # node with 3 * 16 table values, and one libm top value; the anchor of
    # each of the 16 chunks of 512 nodes takes one _cis call
    assert counts == {"libm": 8_192, "table": 393_216,
                      "table_calls": 16, "phase": 524_288,
                      "panel_rows": 8_192, "w": 0, "closed_calls": 0,
                      "taylor": 0}


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_eval_field_refuses_a_lambda_that_is_not_finite(lam):
    f = indicator(0.1, 0.7)   # lambda = 0: test_dc_value_is_support_length
    # refused up front: a nan lambda used to size MIN_PANELS and return nan
    with pytest.raises(ValueError, match="finite and nonnegative"):
        eval_field(MC2, lam, f, np.zeros(2))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
@pytest.mark.parametrize("curve", [MC2, MC3], ids=["d2", "d3"])
def test_an_infinite_point_is_refused(curve, bad):
    f = indicator(0.0, 1.0, modulation=(np.zeros(curve.dim), 50.0))
    for col in range(curve.dim):
        ypts = np.full((3, curve.dim), 0.2)
        ypts[1, col] = bad
        with pytest.raises(ValueError, match="not finite"):
            eval_field(curve, 50.0, f, ypts)


@pytest.mark.parametrize("x0, lam", [
    ((math.inf, 0.0), 50.0), ((0.0, math.nan), 50.0), ((1.0, 0.0), math.inf)],
    ids=["x0-inf", "x0-nan", "lam-inf"])
def test_a_modulation_that_is_not_finite_is_refused(x0, lam):
    with pytest.raises(ValueError, match="modulation point and lambda"):
        Segment(0.0, 1.0, modulation=(x0, lam))


def test_a_nan_point_is_refused_not_evaluated():
    seg = Segment(0.0, 1.0)
    ypts = np.array([[0.3, 0.2], [np.nan, 0.1], [0.1, 0.1]])
    ext = extension_phase(MC2)
    # max() would drop the nan and size the panels for the finite points
    assert math.isnan(_phase_rate_bound(ext, 50.0, seg, ypts))
    with pytest.raises(ValueError, match="not finite"):
        osc._segment_panel_count(ext, 50.0, seg, ypts)
    with pytest.raises(ValueError, match="not finite"):
        eval_field(MC2, 50.0, StepFn((seg,)), ypts)
