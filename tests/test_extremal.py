"""Dual boxes, calibration, partitions, adapted rectangles, graph boxes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from brute_force import calibrate_reference
from rlab.curves import eval_derivative, moment_curve, monomial_curve, poly_curve, torsion_det
from rlab.errors import CalibrationError, DegeneracyError, DomainError, StationaryError
from rlab.extremal import (
    LATTICE_DEFAULT,
    Parallelepiped,
    adapted_frame,
    box_phase_check,
    box_volume_exponent,
    bump_input,
    calibrate_c,
    curvature_matrix,
    grad_y,
    knapp_box,
    knapp_rho,
    necessity_rect_sphere,
    partition_family,
    reduced_phase,
    solve_stationary,
    stationary_residual,
)
from rlab.extremal import _box_samples, _coarse_sup, _phase_sup
from rlab.measures import sphere_cap_graph, submanifold_builder
from rlab.harness import KnappFamily
from rlab.oscillatory import PhaseSpec, Segment, eval_field, graph_phase, indicator, lp_norm

MC2 = moment_curve(2)
PH2 = graph_phase(MC2, sphere_cap_graph(2))
PH3 = graph_phase(moment_curve(3), sphere_cap_graph(3))


def test_stationary_residual_moment_curves():
    rng = np.random.default_rng(17)
    for phase in (PH2, PH3):
        for t in rng.uniform(0.05, 0.95, size=20):
            assert stationary_residual(phase, float(t)) < 1e-10
            g = solve_stationary(phase, float(t))
            assert np.linalg.norm(g) < 1.0  # stays inside the chart ball


def test_stationary_point_closed_form():
    # d=2 cap chart: g(t) = v/sqrt(1+v^2) with v = -gamma_2'/gamma_1'
    for t in (0.1, 0.45, 0.8):
        v = -t
        want = v / math.sqrt(1.0 + v * v)
        assert abs(solve_stationary(PH2, t)[0] - want) < 1e-14


def test_curvature_determinant_identity():
    """det M(t) = torsion / gamma_1' for sphere-cap chart phases."""
    rng = np.random.default_rng(3)
    skew = poly_curve([[0, 2, 0.5], [0, 0, 1], [0, 0, 0, 0.5]], name="skew")
    for curve in (MC2, moment_curve(3), skew):
        phase = graph_phase(curve, sphere_cap_graph(curve.dim))
        for t in rng.uniform(0.05, 0.9, size=25):
            got = np.linalg.det(curvature_matrix(phase, float(t)))
            want = torsion_det(curve, float(t)) / eval_derivative(curve, float(t), 1)[0]
            assert abs(got - want) < 1e-8 * abs(want)


def test_extension_phases_have_no_chart_data():
    ext = PhaseSpec(MC2)
    with pytest.raises(StationaryError):
        solve_stationary(ext, 0.3)
    with pytest.raises(StationaryError):
        knapp_box(ext, 0.3, 64.0, 1.0)
    with pytest.raises(DegeneracyError):
        curvature_matrix(ext, 0.3)
    assert np.array_equal(grad_y(ext, np.array([0.1, 0.2]), 0.3),
                          MC2.eval_many([0.3], 0)[0])


def test_grad_y_matches_finite_difference():
    t = 0.37
    y = np.array([0.2])
    got = grad_y(PH2, y, t)
    h = 1e-6
    fp = PH2.values(np.array([y + h]), np.array([t]))[0, 0]
    fm = PH2.values(np.array([y - h]), np.array([t]))[0, 0]
    assert abs(got[0] - (fp - fm) / (2 * h)) < 1e-8


def _inside(box, y):
    """Which rows of y have axis coordinates M^T (y - center) in the box."""
    x = (np.atleast_2d(y) - box.center) @ box.transform
    return np.all(np.abs(x) <= box.half_widths * (1.0 + 1e-12), axis=1)


def test_parallelepiped_geometry():
    box = Parallelepiped(center=(0.0, 0.0),
                         transform=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         half_widths=(0.5, 0.25))
    assert _inside(box, box.center)[0]
    corners = box.lattice(2)
    assert corners.shape == (4, 2)
    assert np.all(_inside(box, corners))
    assert not np.any(_inside(box, box.center + 1.02 * (corners - box.center)))
    assert abs(box.volume - (1.0 * 0.5) / 1.0) < 1e-14
    lat = box.lattice(3)
    assert lat.shape == (9, 2) and np.all(_inside(box, lat))
    with pytest.raises(ValueError):
        Parallelepiped((0.0,), np.array([[1.0]]), (-1.0,))
    with pytest.raises(DegeneracyError):
        Parallelepiped((0.0, 0.0), np.zeros((2, 2)), (1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["center", "transform", "half_widths"])
def test_parallelepiped_refuses_a_non_finite_argument(part, bad):
    """A non-finite center, transform or half-width is a ValueError,
    raised before the determinant is taken."""
    args = {"center": np.zeros(2), "transform": np.eye(2),
            "half_widths": np.ones(2)}
    args[part] = args[part].copy()
    args[part].flat[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        Parallelepiped(**args)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_necessity_rect_refuses_a_non_finite_c(c):
    with pytest.raises(ValueError, match="must be finite"):
        necessity_rect_sphere(monomial_curve([1, 2, 4]), 0.0, 64.0, 0.125, c=c)


def test_box_volume_exponents():
    assert box_volume_exponent(2) == -0.5
    assert abs(box_volume_exponent(3) + 7.0 / 6.0) < 1e-15
    assert abs(box_volume_exponent(4, 2) + 9.0 / 8.0) < 1e-15


@pytest.mark.parametrize("rho, c", [
    (0.0, 1.0), (-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (None, 0.0), (None, -1.0), (None, math.nan), (None, math.inf),
])
def test_knapp_box_refuses_bad_rho_and_c(rho, c):
    """rho must be finite and positive, and so must c: no box is built."""
    with pytest.raises(ValueError):
        knapp_box(PH2, 0.3, 64.0, c, rho=rho)


def test_knapp_rho_default_is_exact():
    """The default is 1/(2d) exactly, and its float is 1.0 / (2 d) bit for
    bit, the exponent knapp_box and partition_family use."""
    for d in (2, 3, 4, 5):
        assert knapp_rho(d) == Fraction(1, 2 * d)
        assert float(knapp_rho(d)) == 1.0 / (2 * d)
    assert knapp_rho(3, 0.125) == Fraction(1, 8)


def test_knapp_box_volume_power_law():
    # fixed anchor and c: volume is an exact power of lambda
    lams = [2.0**j for j in range(6, 11)]
    vols = [knapp_box(PH2, 0.3, lam, 1.0).volume for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(vols), 1)[0]
    assert abs(slope + 0.5) < 1e-12
    vols3 = [knapp_box(PH3, 0.5, lam, 1.0).volume for lam in lams]
    slope3 = np.polyfit(np.log(lams), np.log(vols3), 1)[0]
    assert abs(slope3 + 7.0 / 6.0) < 1e-12


def _interval(t, lam, d=2):
    """The interval of length lambda^(-1/(2d)) ending at t, cut at 0."""
    return (max(t - lam ** (-1.0 / (2 * d)), 0.0), t)


def test_calibration_is_tight():
    lam = 256.0
    ival = _interval(0.45, lam)
    c = calibrate_c(PH2, 0.45, lam, ival)
    assert math.log2(c) == round(math.log2(c))  # dyadic
    assert box_phase_check(PH2, 0.45, lam, c, ival) <= 1.0 / lam
    # doubling must violate the bound (or leave the chart)
    try:
        sup2 = box_phase_check(PH2, 0.45, lam, 2.0 * c, ival)
    except DomainError:
        pass
    else:
        assert sup2 > 1.0 / lam
    # the interval is required: no default stands in for it
    for fn, args in ((calibrate_c, ()), (box_phase_check, (c,))):
        with pytest.raises(TypeError):
            fn(PH2, 0.45, lam, *args)


@pytest.mark.parametrize("search, where", [
    (lambda: calibrate_c(PH2, 0.45, 256.0, _interval(0.45, 256.0)),
     "at t_k=0.45, lambda=256.0"),
    (lambda: necessity_rect_sphere(monomial_curve([1, 2, 4]), 0.0, 4096.0,
                                   0.125),
     "for type (1, 2, 4) at lambda=4096.0"),
], ids=["calibrate_c", "necessity_rect_sphere"])
def test_calibration_with_no_admissible_c_names_where(search, where,
                                                       monkeypatch):
    # both searches read the one _phase_sup: a sup that never passes
    # refuses every candidate down to the floor
    monkeypatch.setattr("rlab.extremal._phase_sup", lambda *args: math.inf)
    with pytest.raises(CalibrationError) as err:
        search()
    assert str(err.value) == f"no admissible c above {2.0 ** -20} {where}"


def test_reduced_phase_vanishes_at_anchor():
    red = reduced_phase(PH2, 0.4)
    y_k = solve_stationary(PH2, 0.4)
    vals = red(y_k[None, :], np.array([0.32, 0.4]))
    assert np.max(np.abs(vals)) < 1e-14


def test_partition_family_structure():
    lam = 4096.0  # lam^{-1/4} = 1/8
    part = partition_family(PH2, 0.25, lam)
    assert part.ell == 2
    assert np.allclose(part.edges, [0.0, 0.125, 0.25])
    assert np.allclose(part.anchors, [0.125, 0.25])
    assert part.mod_points.shape == (2, 2)
    assert np.max(np.abs(np.linalg.norm(part.mod_points, axis=1) - 1.0)) < 1e-12
    # anchors embed to the modulation points
    emb = PH2.embed(np.vstack([solve_stationary(PH2, float(tk))
                               for tk in part.anchors]))
    assert np.max(np.abs(emb - part.mod_points)) < 1e-14
    boxes = part.boxes(1.0)
    assert len(boxes) == 2
    for tk, box in zip(part.anchors, boxes):
        assert _inside(box, solve_stationary(PH2, float(tk)))[0]
    signs = part.random_signs(5)
    assert signs.shape == (1, part.ell)
    assert np.array_equal(signs, part.random_signs(5))
    assert set(np.unique(signs)).issubset({-1, 1})
    # one draw is the first of many
    assert np.array_equal(part.random_signs(5, 64)[0], signs[0])
    with pytest.raises(ValueError):
        partition_family(PH2, 0.05, 256.0)  # interval shorter than the scale


def test_inputs():
    f = KnappFamily(t0=0.2, rho=0.25).input(PH2, 256.0, 0)[0]
    assert len(f.segments) == 1
    seg = f.segments[0]
    assert abs(seg.length - 256.0**-0.25) < 1e-15
    assert abs(lp_norm(f, 2) - seg.length**0.5) < 1e-15
    g = bump_input(MC2, 64.0, (1.0, 0.0), 0.8)
    assert g.segments[0].modulation[0] == (1.0, 0.0)
    with pytest.raises(ValueError):
        bump_input(MC2, 64.0, (1.0, 0.0, 0.0), 0.8)
    part = partition_family(PH2, 0.25, 4096.0)
    h = part.input(part.random_signs(11)[0])
    assert len(h.segments) == part.ell
    assert all(s.sign in (-1, 1) for s in h.segments)
    assert all(s.modulation is not None for s in h.segments)


@pytest.mark.parametrize("pattern", ["plus", "drawn"])
def test_partition_input_puts_sign_k_on_interval_k(pattern):
    """Segment k of part.input(signs) is signs[k] times the indicator of
    interval k, recentered at x_k, in interval order."""
    lam = 2.0 ** 16        # lam^{-1/4} = 1/16: four intervals of [0, 1/4]
    part = partition_family(PH2, 0.25, lam)
    signs = np.ones(part.ell, dtype=int)
    if pattern == "drawn":
        signs = part.random_signs(3)[0]
        assert set(signs) == {-1, 1}      # seed 3 draws both signs
    want = tuple(Segment(a, b, modulation=(tuple(x), lam), sign=int(s))
                 for (a, b), x, s in zip(part.intervals, part.mod_points, signs))
    assert part.ell == 4 and part.input(signs).segments == want
    with pytest.raises(ValueError):
        part.input(signs[:-1])


def test_knapp_field_large_on_dual_box():
    """The box output stays close to the input mass: coherence holds."""
    lam, t0, rho = 256.0, 0.45, 0.25
    c = calibrate_c(PH2, t0, lam, _interval(t0, lam))
    box = knapp_box(PH2, t0, lam, c)
    anchor_x = PH2.embed(solve_stationary(PH2, t0)[None, :])[0]
    f = indicator(t0 - lam**-rho, t0, modulation=(anchor_x, lam))
    vals = eval_field(MC2, lam, f, PH2.embed(box.lattice(5)))
    assert np.min(np.abs(vals)) > 0.4 * lam**-rho


def test_adapted_frame():
    frame, a = adapted_frame(monomial_curve([1, 2, 4]), 0.0)
    assert a == (1, 2, 4)
    assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
    # last column aligns with the lowest-order derivative direction
    g1 = eval_derivative(monomial_curve([1, 2, 4]), 0.0, 1)
    assert float(frame[:, -1] @ g1) > 0


def test_necessity_rect():
    curve = monomial_curve([1, 2, 4])
    lam = 4096.0
    rect = necessity_rect_sphere(curve, 0.0, lam, 0.125)
    assert math.log2(rect.c) == round(math.log2(rect.c))
    assert rect.phase_sup() <= 1e-2 / lam
    # half-widths follow c lam^{-1 + rho a_{d+1-i}}
    want = [rect.c * lam ** (-1.0 + 0.125 * 4), rect.c * lam ** (-1.0 + 0.125 * 2)]
    assert np.allclose(rect.box.half_widths, want)
    # phase_sup samples the phase on the axis lattice: the mapped lattice,
    # bit for bit
    value, ypts, ts = rect._samples()
    assert value == rect.phase
    assert rect.phase_sup() == _phase_sup(value, ypts, ts)
    assert np.array_equal(ypts, rect.box.lattice())
    assert np.array_equal(rect.phase(ypts, ts), rect.phase(rect.box.lattice(), ts))
    # an orthonormal frame puts the chart's sphere points on the sphere
    assert np.max(np.abs(rect.frame.T @ rect.frame - np.eye(3))) < 1e-12
    assert abs(np.linalg.norm(rect.frame[:, -1]) - 1.0) < 1e-12
    mass = rect.sigma_mass()
    flat = float(np.prod(2.0 * rect.box.half_widths))
    assert 0 < mass and abs(mass - flat) / flat < 1e-2
    with pytest.raises(ValueError):
        necessity_rect_sphere(curve, 0.0, lam, 0.5)  # rho cap is 1/7


def test_kdim_boxes_and_fields():
    patch = submanifold_builder(4, 2, moment_curve(4), extent=0.75)
    phase = graph_phase(patch.curve, patch)
    lam = 32.0
    c = calibrate_c(phase, 0.75, lam, interval=(0.75 - lam ** (-1.0 / 8.0), 0.75))
    part = partition_family(phase, 0.75, lam)
    boxes = part.boxes(c)
    assert len(boxes) == part.ell
    for tm, box in zip(part.anchors, boxes):
        assert _inside(box, solve_stationary(phase, float(tm)))[0]
    # volume follows the d=4, k=2 exponent exactly at fixed anchor
    v1 = knapp_box(phase, 0.75, 16.0, c).volume
    v2 = knapp_box(phase, 0.75, 32.0, c).volume
    slope = (math.log(v2) - math.log(v1)) / (math.log(32.0) - math.log(16.0))
    assert abs(slope - box_volume_exponent(4, 2)) < 1e-12


def _kdim_phase(extent=0.75):
    patch = submanifold_builder(4, 2, moment_curve(4), extent=extent)
    return graph_phase(patch.curve, patch)


def test_calibration_matches_full_lattice_reference():
    # every anchor of the c05 battery: d=2 and d=3 sphere caps
    for phase, lams, delta in ((PH2, range(6, 13), 0.5),
                               (PH3, range(4, 8), 0.75)):
        for lam in (2.0 ** k for k in lams):
            part = partition_family(phase, delta, lam)
            for tk, ival in zip(part.anchors, part.intervals):
                tk = float(tk)
                want = calibrate_reference(
                    lambda c: box_phase_check(phase, tk, lam, c, ival),
                    1.0 / lam)
                assert calibrate_c(phase, tk, lam, interval=ival) == want
    # kdim's anchor: the last interval at the smallest lambda
    phase, lam = _kdim_phase(), 16.0
    part = partition_family(phase, 0.75, lam)
    tk, ival = float(part.anchors[-1]), part.intervals[-1]
    want = calibrate_reference(
        lambda c: box_phase_check(phase, tk, lam, c, ival), 1.0 / lam)
    assert calibrate_c(phase, tk, lam, interval=ival) == want
    # c10's finite-type necessity rectangles
    curve = monomial_curve([1, 2, 4])
    for lam in (2.0 ** k for k in range(6, 13)):
        want = calibrate_reference(
            lambda c: necessity_rect_sphere(curve, 0.0, lam, 0.125,
                                            c=c).phase_sup(),
            1e-2 / lam)
        assert necessity_rect_sphere(curve, 0.0, lam, 0.125).c == want


def test_coarse_sub_lattice_values_are_full_lattice_values():
    n = LATTICE_DEFAULT
    rect = necessity_rect_sphere(monomial_curve([1, 2, 4]), 0.0, 4096.0,
                                 0.125, c=1.0)
    cases = [_box_samples(PH2, 0.45, 256.0, 1.0, (0.45 - 256.0 ** -0.25, 0.45)),
             _box_samples(PH3, 0.5, 64.0, 0.5, (0.5 - 64.0 ** (-1 / 6), 0.5)),
             _box_samples(_kdim_phase(), 0.75, 16.0, 1.0, (0.5, 0.75)),
             rect._samples()]
    for value, ypts, ts in cases:
        m = ypts.shape[1]
        full = value(ypts, ts)
        seen = []
        sup = _coarse_sup(lambda y, t: seen.append(value(y, t)) or seen[-1],
                          ypts, ts)
        rows = [i for i in range(n ** m)
                if all(j % 4 == 0 for j in np.unravel_index(i, (n,) * m))]
        assert len(rows) == 9 ** m
        want = full[np.ix_(rows, range(0, n, 4))]
        assert np.array_equal(seen[0], want)
        assert sup == float(np.max(np.abs(want)))
