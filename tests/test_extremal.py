"""Dual boxes, calibration, partitions, adapted rectangles, graph boxes."""

import math

import numpy as np
import pytest

from rlab.curves import eval_derivative, moment_curve, monomial_curve, poly_curve, torsion_det
from rlab.errors import CalibrationError, DegeneracyError, DomainError
from rlab.extremal import (
    NecessityRect,
    Parallelepiped,
    adapted_frame,
    box_phase_check,
    box_volume_exponent,
    bump_input,
    calibrate_c,
    curvature_matrix,
    grad_y,
    kdim_boxes,
    knapp_box,
    knapp_input,
    mixed_determinant,
    necessity_rect_sphere,
    partition_family,
    random_sign_input,
    reduced_phase,
    solve_stationary,
    stationary_residual,
)
from rlab.measures import sphere_cap_graph, submanifold_builder
from rlab.oscillatory import PhaseSpec, eval_field, graph_phase, lp_norm

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


def test_mixed_determinant_closed_form():
    # gamma_1'^{d-1} times the chart Hessian determinant (1+v^2)^{3/2} in d=2
    for t in (0.1, 0.3, 0.8):
        v = -t
        want = (1.0 + v * v) ** 1.5
        assert abs(mixed_determinant(PH2, t) - want) < 1e-12


def test_grad_y_matches_finite_difference():
    t = 0.37
    y = np.array([0.2])
    got = grad_y(PH2, y, t)
    h = 1e-6
    fp = PH2.values(np.array([y + h]), np.array([t]))[0, 0]
    fm = PH2.values(np.array([y - h]), np.array([t]))[0, 0]
    assert abs(got[0] - (fp - fm) / (2 * h)) < 1e-8


def test_parallelepiped_geometry():
    box = Parallelepiped(center=(0.0, 0.0),
                         transform=np.array([[1.0, 0.5], [0.0, 1.0]]),
                         half_widths=(0.5, 0.25))
    assert box.contains(box.center)[0]
    corners = box.corners()
    assert corners.shape == (4, 2)
    assert np.all(box.contains(corners))
    assert abs(box.volume - (1.0 * 0.5) / 1.0) < 1e-14
    lat = box.lattice(3)
    assert lat.shape == (9, 2) and np.all(box.contains(lat))
    with pytest.raises(ValueError):
        Parallelepiped((0.0,), np.array([[1.0]]), (-1.0,))
    with pytest.raises(DegeneracyError):
        Parallelepiped((0.0, 0.0), np.zeros((2, 2)), (1.0, 1.0))


def test_box_volume_exponents():
    assert box_volume_exponent(2) == -0.5
    assert abs(box_volume_exponent(3) + 7.0 / 6.0) < 1e-15
    assert abs(box_volume_exponent(4, 2) + 9.0 / 8.0) < 1e-15


def test_knapp_box_volume_power_law():
    # fixed anchor and c: volume is an exact power of lambda
    lams = [2.0**j for j in range(6, 11)]
    vols = [knapp_box(PH2, 0.3, lam, 1.0).volume for lam in lams]
    slope = np.polyfit(np.log(lams), np.log(vols), 1)[0]
    assert abs(slope + 0.5) < 1e-12
    vols3 = [knapp_box(PH3, 0.5, lam, 1.0).volume for lam in lams]
    slope3 = np.polyfit(np.log(lams), np.log(vols3), 1)[0]
    assert abs(slope3 + 7.0 / 6.0) < 1e-12


def test_calibration_is_tight():
    lam = 256.0
    c = calibrate_c(PH2, 0.45, lam)
    assert math.log2(c) == round(math.log2(c))  # dyadic
    assert box_phase_check(PH2, 0.45, lam, c) <= 1.0 / lam
    # doubling must violate the bound (or leave the chart)
    try:
        sup2 = box_phase_check(PH2, 0.45, lam, 2.0 * c)
    except DomainError:
        pass
    else:
        assert sup2 > 1.0 / lam
    # box_phase_check defaults to calibrate_c's interval
    assert (box_phase_check(PH2, 0.45, lam, c)
            == box_phase_check(PH2, 0.45, lam, c,
                               interval=(0.45 - lam ** -0.25, 0.45)))
    with pytest.raises(CalibrationError) as err:
        calibrate_c(PH2, 0.45, lam, threshold=1e-30)
    assert str(err.value) == (f"no admissible c above {2.0 ** -20} "
                              f"at t_k=0.45, lambda={lam}")


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
    emb = PH2.embed(part.ys)
    assert np.max(np.abs(emb - part.mod_points)) < 1e-14
    boxes = part.boxes(1.0)
    assert len(boxes) == 2
    for tk, box in zip(part.anchors, boxes):
        assert box.contains(solve_stationary(PH2, float(tk)))[0]
    signs = part.random_signs(5)
    assert np.array_equal(signs, part.random_signs(5))
    assert set(np.unique(signs)).issubset({-1, 1})
    with pytest.raises(ValueError):
        partition_family(PH2, 0.05, 256.0)  # interval shorter than the scale


def test_inputs():
    f = knapp_input(0.2, 256.0, 0.25)
    assert len(f.segments) == 1
    seg = f.segments[0]
    assert abs(seg.length - 256.0**-0.25) < 1e-15
    assert abs(lp_norm(f, 2) - seg.length**0.5) < 1e-15
    g = bump_input(MC2, 64.0, (1.0, 0.0), 0.8)
    assert g.segments[0].modulation[0] == (1.0, 0.0)
    with pytest.raises(ValueError):
        bump_input(MC2, 64.0, (1.0, 0.0, 0.0), 0.8)
    part = partition_family(PH2, 0.25, 4096.0)
    h = random_sign_input(part, 11)
    assert len(h.segments) == part.ell
    assert all(s.sign in (-1, 1) for s in h.segments)
    assert all(s.modulation is not None for s in h.segments)


def test_knapp_field_large_on_dual_box():
    """The box output stays close to the input mass: coherence holds."""
    lam, t0, rho = 256.0, 0.45, 0.25
    c = calibrate_c(PH2, t0, lam)
    box = knapp_box(PH2, t0, lam, c)
    anchor_x = PH2.embed(solve_stationary(PH2, t0)[None, :])[0]
    f = knapp_input(t0 - lam**-rho, lam, rho, modulation=anchor_x)
    vals = eval_field(MC2, lam, f, PH2.embed(box.lattice(5)))
    assert np.min(np.abs(vals)) > 0.4 * lam**-rho


def test_adapted_frame():
    frame, a = adapted_frame(monomial_curve([1, 2, 4]), 0.0)
    assert a == (1, 2, 4)
    assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
    # last column aligns with the lowest-order derivative direction
    g1 = eval_derivative(monomial_curve([1, 2, 4]), 0.0, 1)
    assert float(frame[:, -1] @ g1) > 0


def test_necessity_rect(monkeypatch):
    curve = monomial_curve([1, 2, 4])
    lam = 4096.0
    rect = necessity_rect_sphere(curve, 0.0, lam, 0.125)
    assert math.log2(rect.c) == round(math.log2(rect.c))
    assert rect.phase_sup() <= 1e-2 / lam
    # half-widths follow c lam^{-1 + rho a_{d+1-i}}
    want = [rect.c * lam ** (-1.0 + 0.125 * 4), rect.c * lam ** (-1.0 + 0.125 * 2)]
    assert np.allclose(rect.box.half_widths, want)
    emb = rect.embed(rect.box.lattice(3))
    assert np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)) < 1e-12
    assert abs(np.linalg.norm(rect.modulation_point) - 1.0) < 1e-12
    mass = rect.sigma_mass()
    flat = float(np.prod(2.0 * rect.box.half_widths))
    assert 0 < mass and abs(mass - flat) / flat < 1e-2
    with pytest.raises(ValueError):
        necessity_rect_sphere(curve, 0.0, lam, 0.5)  # rho cap is 1/7
    monkeypatch.setattr(NecessityRect, "phase_sup",
                        lambda self, n_lattice=33: math.inf)
    with pytest.raises(CalibrationError) as err:
        necessity_rect_sphere(curve, 0.0, lam, 0.125)
    assert str(err.value) == (f"no admissible c above {2.0 ** -20} "
                              f"for type (1, 2, 4) at lambda={lam}")


def test_kdim_boxes_and_fields():
    patch = submanifold_builder(4, 2, moment_curve(4), extent=0.75)
    phase = PhaseSpec(kind="graph", curve=patch.curve, patch=patch, offset=0.0)
    lam = 32.0
    c = calibrate_c(phase, 0.75, lam, interval=(0.75 - lam ** (-1.0 / 8.0), 0.75))
    boxes = kdim_boxes(phase, lam, c, extent=0.75)
    part = partition_family(phase, 0.75, lam)
    assert len(boxes) == part.ell
    for tm, box in zip(part.anchors, boxes):
        assert box.contains(solve_stationary(phase, float(tm)))[0]
    # volume follows the d=4, k=2 exponent exactly at fixed anchor
    v1 = knapp_box(phase, 0.75, 16.0, c).volume
    v2 = knapp_box(phase, 0.75, 32.0, c).volume
    slope = (math.log(v2) - math.log(v1)) / (math.log(32.0) - math.log(16.0))
    assert abs(slope - box_volume_exponent(4, 2)) < 1e-12
