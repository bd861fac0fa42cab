"""Exact exponent arithmetic: kappa/beta functionals, regions, projections."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rlab.curves import monomial_curve, moment_curve, poly_curve
from rlab.errors import NotFiniteTypeError
from rlab.exponents import (
    ExponentPoint,
    beta,
    domain_types,
    exponent_table,
    finite_type_region,
    hyperplane_omega,
    hyperplane_project,
    kappa,
    kappa_max_scan,
    kdim_threshold,
    predicted_excess,
    sphere_region,
)
from rlab.harness import KnappFamily, RandomFamily


def _random_tuple(rng, d):
    picks = sorted(rng.choice(np.arange(1, 4 * d), size=d, replace=False))
    return tuple(int(x) for x in picks)


def test_kappa_at_codimension_one():
    # at alpha = d-1 the head term cancels a_1 and the tail keeps the rest
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(3, 7))
        a = _random_tuple(rng, d)
        assert kappa(a, d - 1) == sum(a) - a[0]
        assert beta(d - 1, d) == Fraction(d * (d + 1), 2) - 1


def test_kappa_integer_values_and_interpolation():
    """kappa at integer alpha = m sums the top m orders; in between it is
    the straight line through the neighbouring integer values."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        a = _random_tuple(rng, d)
        for m in range(1, d + 1):
            assert kappa(a, m) == sum(a[d - m:])
        m = int(rng.integers(1, d + 1))
        theta = Fraction(int(rng.integers(1, 8)), 8)
        lo = sum(a[d - m + 1:], 0)  # kappa at m-1 (zero when m=1)
        hi = sum(a[d - m:])
        assert kappa(a, m - 1 + theta) == lo + theta * (hi - lo)


def test_kappa_monotone_in_alpha():
    a = (1, 3, 4, 7)
    grid = [Fraction(k, 16) for k in range(1, 65)]
    vals = [kappa(a, al) for al in grid]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    assert kappa(a, 4) == 15  # full Lebesgue dimension gives the 1-norm


def test_kappa_domain():
    with pytest.raises(ValueError):
        kappa((1, 2), Fraction(0))
    with pytest.raises(ValueError):
        kappa((1, 2), 3)


def test_kappa_dominates_beta():
    rng = np.random.default_rng(2)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        a = _random_tuple(rng, d)
        alpha = Fraction(int(rng.integers(1, 8 * d)), 8)
        if alpha > d:
            alpha = Fraction(d)
        k, b = kappa(a, alpha), beta(alpha, d)
        assert k >= b
        if a == tuple(range(1, d + 1)):
            assert k == b
        if k == b and alpha == d:
            # at full dimension equality forces the nondegenerate tuple
            assert a == tuple(range(1, d + 1))
    # equality at every alpha only for (1, ..., d)
    for d in (3, 4):
        grid = [Fraction(j, 4) for j in range(1, 4 * d + 1)]
        assert all(kappa(tuple(range(1, d + 1)), al) == beta(al, d) for al in grid)


def test_exponent_point():
    pt = ExponentPoint.from_pq("inf", 3)
    assert pt.inv_p == 0 and pt.inv_q == Fraction(1, 3)
    assert pt.p == math.inf and pt.q == 3
    assert ExponentPoint.from_pq(Fraction(3, 2), 4).inv_p == Fraction(2, 3)
    with pytest.raises(ValueError):
        ExponentPoint.from_pq(0.5, 3)
    with pytest.raises(ValueError):
        ExponentPoint(Fraction(1, 2), 2)


def test_sphere_region_d2():
    reg = sphere_region(2)
    assert reg.q_threshold == 3 and reg.line_coeff == 2
    on_line = ExponentPoint(0, Fraction(1, 3))
    assert reg.classify(on_line) == "boundary"
    assert reg.holds(on_line) is None  # the endpoint itself stays open
    inside = ExponentPoint(Fraction(1, 4), Fraction(1, 4))
    assert reg.classify(inside) == "interior" and reg.holds(inside) is True
    outside = ExponentPoint(0, Fraction(1, 2))
    assert reg.classify(outside) == "exterior" and reg.holds(outside) is False
    # line violated even though q is subcritical
    assert reg.holds(ExponentPoint(Fraction(9, 10), Fraction(1, 4))) is False


def test_sphere_region_general_d():
    for d in range(2, 7):
        reg = sphere_region(d)
        assert reg.q_threshold == Fraction(d * d + d, 2)
        assert reg.line_coeff == Fraction(d * d + d - 2, 2)


def test_finite_type_region():
    reg = finite_type_region(6, 3)
    assert reg.q_threshold == 6 and reg.line_coeff == 6
    # closed on the line away from the q-threshold corner
    pt = ExponentPoint(Fraction(1, 4), Fraction(1, 8))
    assert reg.classify(pt) == "boundary"
    assert reg.holds(pt) is True


def test_kdim_threshold_and_region():
    assert kdim_threshold(4, 2) == 8
    assert kdim_threshold(3, 2) == 6


def test_exponent_table():
    for d, qc in ((2, 3), (3, 6), (4, 10), (5, 15), (6, 21)):
        tab = exponent_table(d)
        assert tab["q_critical"] == qc
        assert tab["line_coeff"] == qc - 1
        assert tab["d"] == d


def test_predicted_excess_values():
    d = 2
    knapp, random = KnappFamily(), RandomFamily()
    assert knapp.predicted_excess(ExponentPoint.from_pq("inf", 3), d) == Fraction(-1, 12)
    assert knapp.predicted_excess(ExponentPoint.from_pq(Fraction(3, 2), 3), d) == Fraction(1, 12)
    assert knapp.predicted_excess(ExponentPoint.from_pq(6, 4), d) == Fraction(-1, 12)
    # the random family ignores p and vanishes exactly at the critical q
    assert random.predicted_excess(ExponentPoint.from_pq(2, 3), d) == 0
    assert random.predicted_excess(ExponentPoint.from_pq(2, 4), d) == Fraction(-1, 16)
    got = predicted_excess(ExponentPoint.from_pq("inf", 3),
                           kappa((1, 2, 4), 2), Fraction(1, 8))
    assert got == Fraction(1, 8) * (Fraction(6, 3) - 1)


def test_hyperplane_project_structure():
    k, h, curve = hyperplane_project((1, 0, 0), 3)
    assert k == 1 and h == (0, 0)
    # solved-out coordinate removed: components t^2/2 and t^3/6 survive
    assert curve.dim == 2
    assert curve.coeffs[0][2] == Fraction(1, 2)
    # lifted shadow points satisfy the plane equation c . x = 0
    c = (Fraction(2), Fraction(-1), Fraction(3))
    k, h, proj = hyperplane_project(c, 3)
    ts = np.linspace(0.0, 1.0, 7)
    vals = proj.eval_many(ts, 0)
    lifted = np.insert(vals, k - 1, vals @ np.array([float(x) for x in h]), axis=1)
    assert np.max(np.abs(lifted @ np.array([float(x) for x in c]))) < 1e-12
    # shadow components carry the shear h_i t^k/k! on top of t^i/i!
    kk = k  # solved-out index, 1-based
    slot = 0
    for i in range(1, 4):
        if i == kk:
            continue
        row = proj.coeffs[slot]
        assert row[i] == Fraction(1, math.factorial(i))
        assert row[kk] == h[slot] * Fraction(1, math.factorial(kk))
        slot += 1


def test_hyperplane_omega_extremes():
    for d in (3, 4):
        e1 = [0] * d
        e1[0] = 1
        ed = [0] * d
        ed[-1] = 1
        assert hyperplane_omega(e1, d) == d - 1
        assert hyperplane_omega(ed, d) == 0
    # the shadow of a planar curve on a line has no hyperplane region
    with pytest.raises(ValueError, match="d >= 3"):
        hyperplane_omega([1, 0], 2)


def test_hyperplane_omega_random_range():
    rng = np.random.default_rng(9)
    for d in (3, 4):
        for _ in range(10):
            c = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                 for _ in range(d)]
            if all(x == 0 for x in c):
                c[0] = Fraction(1)
            w = hyperplane_omega(c, d)
            assert 0 <= w <= d - 1


def test_kappa_max_scan():
    # nondegenerate curve: a = (1,2,3) everywhere, |a|_1 - a_1 = 5
    assert kappa_max_scan(moment_curve(3)) == 5
    # the flat quartic component forces a = (1,2,4) at t = 0
    assert kappa_max_scan(monomial_curve([1, 2, 4])) == 6
    assert kappa_max_scan(monomial_curve([1, 3])) == 3


def _types(curve):
    return [a.orders for a in domain_types(curve)]


def _flat(m, r):
    """Coefficient row of (t - r)^m / m!."""
    return [Fraction(math.comb(m, j)) * (-r) ** (m - j) / math.factorial(m)
            for j in range(m + 1)]


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
def test_kappa_max_scan_flat_point_off_any_grid(r):
    # gamma = (t, (t - r)^4/4!) has type (1, 4) at t = r and (1, 2) elsewhere
    curve = poly_curve([[0, 1], _flat(4, r)])
    assert kappa_max_scan(curve) == 4
    assert _types(curve) == [(1, 2), (1, 4)]


def test_kappa_max_scan_flat_point_at_an_irrational_zero():
    # the torsion t^4 - t^2 + 1/4 = (t^2 - 1/2)^2 is flat at 1/sqrt(2);
    # gamma''' vanishes there too, so the type is (1, 4), not (1, 3)
    curve = poly_curve([[0, 1], [0, 0, Fraction(1, 8), 0, Fraction(-1, 12),
                                 0, Fraction(1, 30)]])
    assert kappa_max_scan(curve) == 4
    assert _types(curve) == [(1, 2), (1, 4)]


@pytest.mark.parametrize("m, want", [(5, 7), (6, 8)])
def test_kappa_max_scan_flat_third_component(m, want):
    curve = poly_curve([[0, 1], [0, 0, Fraction(1, 2)], _flat(m, Fraction(1, 3))])
    assert kappa_max_scan(curve) == want
    assert _types(curve) == [(1, 2, 3), (1, 2, m)]


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1, 3)])
def test_kappa_max_scan_type_beyond_the_bound_raises(r):
    # the type (1, 5) at t = r lies beyond the 2d = 4 order bound
    with pytest.raises(NotFiniteTypeError):
        kappa_max_scan(poly_curve([[0, 1], _flat(5, r)]))


def test_kappa_max_scan_planar_curve_raises():
    # the third component is 3t + 2t^2, so the torsion vanishes everywhere
    with pytest.raises(NotFiniteTypeError):
        kappa_max_scan(poly_curve([[0, 1], [0, 0, 1], [0, 3, 2]]))


def test_domain_types_on_the_closed_domain():
    # a flat point 1e-30 beyond the right end is not on the domain
    outside = poly_curve([[0, 1], _flat(4, 1 + Fraction(1, 10**30))])
    assert _types(outside) == [(1, 2)]
    # one at an endpoint is
    assert _types(poly_curve([[0, 1], _flat(4, 1)])) == [(1, 2), (1, 4)]
    assert _types(monomial_curve([1, 2, 4])) == [(1, 2, 3), (1, 2, 4)]
    assert _types(moment_curve(4)) == [(1, 2, 3, 4)]


def test_domain_types_at_a_cusp():
    # gamma = (t^2/2, t^3/6) has gamma'(0) = 0 and type (2, 3) there.  The
    # torsion t^2/2 vanishes to second order and det(gamma', gamma''') = t
    # to first, yet (1, 3) is the type of no point.
    assert _types(monomial_curve([2, 3])) == [(1, 2), (2, 3)]
