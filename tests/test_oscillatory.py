"""Oscillatory field evaluation: oracles, covariances, norms, resolution."""

import math

import mpmath
import numpy as np
import pytest

import rlab.oscillatory as osc
from rlab.curves import (
    TypeTuple,
    dyadic_rescale,
    moment_curve,
    monomial_curve,
    poly_curve,
)
from rlab.errors import ResolutionError
from rlab.harness import (
    BumpFamily,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    _build_input,
)
from rlab.measures import (
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from rlab.oscillatory import (
    PANEL_CAP,
    AmplitudeWindow,
    PhaseSpec,
    Segment,
    TestFunction as StepFn,
    _panel_nodes,
    _phase_rate_bound,
    eval_field,
    extension_eval,
    extension_phase,
    field,
    graph_phase,
    indicator,
    lorentz_norm,
    lp_norm,
    lq_norm,
    phase_eval,
)

MC2 = moment_curve(2)


def test_dc_value_is_support_length():
    f = indicator(0.1, 0.7)
    assert abs(extension_eval(MC2, 50.0, f, np.zeros(2)) - 0.6) < 1e-12
    # lambda = 0 collapses every phase as well
    assert abs(extension_eval(MC2, 0.0, f, np.array([3.0, -2.0])) - 0.6) < 1e-12


def test_extension_against_adaptive_oracle():
    lam = 37.0
    xs = [np.array([0.31, -0.7]), np.array([-1.2, 0.44])]
    f = indicator(0.0, 1.0)
    for x in xs:
        got = extension_eval(MC2, lam, f, x)
        want = mpmath.quad(
            lambda t: mpmath.e ** (1j * lam * (x[0] * t + x[1] * t * t / 2)),
            [0, 1],
        )
        assert abs(got - complex(want)) < 1e-12


def test_high_frequency_against_dense_gauss():
    lam = 200.0
    x = np.array([0.8, 0.55])
    got = extension_eval(MC2, lam, indicator(0.0, 1.0), x)
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
    va = extension_eval(MC2, lam, fa, x)
    vb = extension_eval(MC2, lam, fb, x)
    assert abs(extension_eval(MC2, lam, both, x) - (va + vb)) < 1e-12
    assert abs(extension_eval(MC2, lam, fa.scaled(3.0j), x) - 3.0j * va) < 1e-12


def test_modulation_translates_field():
    """A segment modulation e^{-i lam x0.gamma} recenters the output."""
    lam = 48.0
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        x0 = rng.normal(size=2)
        x = rng.normal(size=2)
        f_mod = indicator(0.0, 0.8, modulation=(tuple(x0), lam))
        a = extension_eval(MC2, lam, f_mod, x)
        b = extension_eval(MC2, lam, indicator(0.0, 0.8), x - x0)
        worst = max(worst, abs(a - b))
    assert worst < 1e-9


def test_sign_flips_field():
    lam, x = 32.0, np.array([0.3, 0.3])
    plus = indicator(0.0, 0.5, sign=1)
    minus = indicator(0.0, 0.5, sign=-1)
    assert abs(extension_eval(MC2, lam, plus, x)
               + extension_eval(MC2, lam, minus, x)) < 1e-14


def test_anisotropic_rescaling_identity():
    """Zooming the curve trades frequency points for input dilation."""
    curve = monomial_curve([1, 2, 4])
    a = TypeTuple((1, 2, 4))
    for ell in (1, 2):
        zoom = dyadic_rescale(curve, a, ell)
        dmat = np.diag([2.0 ** (ell * ai) for ai in a])
        rng = np.random.default_rng(ell)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=3)
            lam = 29.0
            lhs = extension_eval(zoom, lam, indicator(0.0, 1.0), x)
            rhs = 2.0**ell * extension_eval(
                curve, lam, indicator(0.0, 2.0**-ell), dmat @ x
            )
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
            vb = extension_eval(MC2, lam, f, emb)
            assert abs(va - vb) < 1e-12


def test_phase_eval_respects_window():
    win = AmplitudeWindow(radii=(0.25,))
    phase = graph_phase(MC2, sphere_cap_graph(2), window=win)
    f = indicator(0.0, 1.0)
    assert phase_eval(phase, 32.0, f, np.array([0.9])) == 0.0
    inner = phase_eval(phase, 32.0, f, np.array([0.05]))
    assert abs(inner) > 0.0


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
    with pytest.raises(ResolutionError):
        field(MC2, 200.0, f, coarse, strict=True)
    with pytest.warns(UserWarning):
        field(MC2, 200.0, f, coarse, strict=False)
    fine = sphere_measure(2, 2048)
    vals = field(MC2, 200.0, f, fine, strict=True)
    assert vals.shape == (fine.size,)


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
        PhaseSpec(kind="nope")
    with pytest.raises(ValueError):
        PhaseSpec(kind="extension")
    with pytest.raises(ValueError):
        PhaseSpec(kind="graph", curve=MC2)
    with pytest.raises(ValueError):
        PhaseSpec(kind="custom")
    with pytest.raises(ValueError):
        PhaseSpec(kind="custom", curve=MC2)
    ext = extension_phase(MC2)
    pts = np.array([[0.1, 0.2]])
    assert np.array_equal(ext.embed(pts), pts)


# ----------------------------------------------------------------------
# panel sizing
# ----------------------------------------------------------------------

MC3 = moment_curve(3)
MC4 = moment_curve(4)
_RNG = np.random.default_rng(7)
# Psi(y, t) = 0.5 t - t^3 + y (1 + 3 t^2) + 2 y^2 t^4 for scalar y
_POLY = extension_phase(poly_curve(((0.0, 0.5, 0.0, -1.0),
                                    (1.0, 0.0, 3.0),
                                    (0.0, 0.0, 0.0, 0.0, 2.0))))
_CURVE_PHASES = [
    (extension_phase(MC3), _RNG.normal(size=(40, 3))),
    (graph_phase(MC3, sphere_cap_graph(3)),
     _RNG.uniform(-0.6, 0.6, size=(40, 2))),
    (PhaseSpec(kind="graph", curve=MC4, patch=submanifold_builder(4, 2, MC4),
               offset=0.0), _RNG.uniform(0.0, 0.75, size=(40, 2))),
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


@pytest.mark.parametrize("start", [0.0, 0.3])
def test_one_panel_at_the_cap_is_exact(start):
    seg = Segment(start, start + 1.0)
    ts, ws = _panel_nodes(seg, 1)
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
    return curve, lam, _build_input(config, lam, phase), mu.nodes[::stride]


@pytest.mark.parametrize("case", [
    lambda: _sphere_case(2, BumpFamily(), 1024.0, 4),
    lambda: _sphere_case(3, BumpFamily(), 32.0, 317),
    lambda: _sphere_case(2, KnappFamily(), 256.0, 1),
    lambda: _sphere_case(2, RandomFamily(delta=1.0), 256.0, 1),
], ids=["bump-d2", "bump-d3", "knapp", "random"])
def test_wide_panels_match_the_old_layout(case, monkeypatch):
    """4 pi radians per panel against the old pi/4 per panel."""
    curve, lam, f, nodes = case()
    wide = eval_field(curve, lam, f, nodes)
    monkeypatch.setattr(osc, "PANEL_CAP", 0.25 * np.pi)
    narrow = eval_field(curve, lam, f, nodes)
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
            ts, ws = _panel_nodes(
                seg, osc._segment_panel_count(phase, lam, seg, chunk))
            ph = lam * phase.values(chunk, ts)
            if seg.modulation is not None:
                x0, lam_mod = seg.modulation
                ph -= lam_mod * (phase.curve.eval_many(ts) @ np.asarray(x0))
            out[lo:lo + chunk.shape[0]] += seg.coefficient * (np.exp(1j * ph) @ ws)
    if phase.window is not None:
        out *= phase.window(ypts)
    return out


def _assert_matches_direct(phase, lam, f, ypts):
    got = eval_field(phase, lam, f, ypts)
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
