"""Exact-arithmetic checks for polynomial curves, torsion, and type detection."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from rlab.curves import (
    Curve,
    TypeTuple,
    class_membership,
    det_poly,
    detect_type,
    dyadic_rescale,
    eval_derivative,
    monomial_curve,
    moment_curve,
    nondegenerate_tuple,
    poly_curve,
    poly_divmod,
    poly_gcd,
    poly_root_count,
    rescale_curve,
    torsion_det,
    torsion_poly,
    type_candidates,
)
from rlab.errors import CapabilityError, MonomialFormError, NotFiniteTypeError


def test_moment_torsion_is_one_exactly():
    # the Wronskian of (t, t^2/2!, ..., t^d/d!) collapses to the constant 1
    for d in range(2, 6):
        poly = torsion_poly(moment_curve(d))
        assert poly == (Fraction(1),), f"d={d}: {poly}"


def test_moment_torsion_float_grid():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        ts = rng.uniform(-2.0, 2.0, size=200)
        dets = torsion_det(moment_curve(d), ts)
        assert np.max(np.abs(dets - 1.0)) < 1e-9


def test_torsion_poly_matches_sympy():
    """Random integer-coefficient curve against a symbolic determinant."""
    rng = np.random.default_rng(5)
    t = sympy.Symbol("t")
    for _ in range(5):
        table = [[int(c) for c in rng.integers(-3, 4, size=5)] for _ in range(3)]
        # make sure no component is identically zero
        for row in table:
            if all(c == 0 for c in row):
                row[1] = 1
        curve = poly_curve(table)
        ours = torsion_poly(curve)
        exprs = [sum(c * t**j for j, c in enumerate(row)) for row in table]
        mat = sympy.Matrix(
            [[sympy.diff(e, t, k) for e in exprs] for k in range(1, 4)]
        ).T
        det = sympy.Poly(mat.det(), t)
        theirs = tuple(Fraction(int(c)) for c in reversed(det.all_coeffs()))
        # strip trailing zeros the same way poly_trim does
        while len(theirs) > 1 and theirs[-1] == 0:
            theirs = theirs[:-1]
        assert ours == theirs


def test_det_poly_matches_torsion_poly_and_sympy():
    rng = np.random.default_rng(8)
    t = sympy.Symbol("t")
    for _ in range(5):
        table = [[int(c) for c in rng.integers(-3, 4, size=6)] for _ in range(3)]
        curve = poly_curve(table)
        assert det_poly(curve, range(1, 4)) == torsion_poly(curve)
        exprs = [sum(c * t**j for j, c in enumerate(row)) for row in table]
        mat = sympy.Matrix(
            [[sympy.diff(e, t, k) for e in exprs] for k in (1, 3, 4)]
        ).T
        det = sympy.Poly(mat.det(), t)
        theirs = tuple(Fraction(int(c)) for c in reversed(det.all_coeffs()))
        while len(theirs) > 1 and theirs[-1] == 0:
            theirs = theirs[:-1]
        assert det_poly(curve, (1, 3, 4)) == theirs
    for d in range(2, 6):
        mc = moment_curve(d)
        assert det_poly(mc, range(1, d + 1)) == torsion_poly(mc)


def _prod(*factors):
    """Coefficient row of a product of coefficient rows."""
    out = (Fraction(1),)
    for f in factors:
        out = tuple(
            sum((out[i] * f[j - i] for i in range(len(out)) if 0 <= j - i < len(f)),
                Fraction(0))
            for j in range(len(out) + len(f) - 1)
        )
    return out


def _from_roots(*roots):
    """Monic coefficient row of prod (t - r)."""
    return _prod(*[(-Fraction(r), Fraction(1)) for r in roots])


def test_poly_divmod_and_gcd_exact():
    a = _from_roots(1, 1, -2, Fraction(1, 3))
    b = _from_roots(1, -2, -2)
    q, r = poly_divmod(a, b)
    assert len(r) < len(b)
    qb = _prod(q, b)
    assert tuple(x + (r[j] if j < len(r) else 0) for j, x in enumerate(qb)) == a
    assert poly_gcd(a, b) == _from_roots(1, -2)
    assert poly_gcd(a, (Fraction(0),)) == a
    assert poly_gcd((Fraction(6),), a) == (Fraction(1),)
    assert poly_gcd((Fraction(0),), (Fraction(0),)) == (Fraction(0),)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(a, (Fraction(0),))


TINY = Fraction(1, 10**30)


@pytest.mark.parametrize("roots, want", [
    ((0, Fraction(1, 2)), 2),                     # a zero at lo
    ((1, Fraction(1, 2)), 2),                     # a zero at hi
    ((0, 0, 1, 1, 1), 2),                         # repeated zeros count once
    ((-TINY, 1 + TINY), 0),                       # zeros just outside
    ((Fraction(1, 3), Fraction(1, 3) + TINY), 2),  # two zeros 1e-30 apart
    ((), 0),                                      # a nonzero constant
], ids=["at-lo", "at-hi", "repeated", "just-outside", "close-pair", "constant"])
def test_poly_root_count_closed_interval(roots, want):
    c = _from_roots(*roots)
    assert poly_root_count(c, 0.0, 1.0) == want
    # a factor t^2 + 1 has no real zero
    assert poly_root_count(_prod(c, (1, 0, 1)), 0, 1) == want


def test_type_candidates_order_and_cap():
    assert type_candidates(moment_curve(2)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert type_candidates(moment_curve(2), a_max=3) == [(1, 2), (1, 3), (2, 3)]
    capped = Curve(moment_curve(2).coeffs, max_derivative_order=3)
    assert type_candidates(capped) == [(1, 2), (1, 3), (2, 3)]
    assert len(type_candidates(moment_curve(3))) == math.comb(6, 3)


def test_eval_derivative_frozen_values():
    mc = moment_curve(2)
    assert np.allclose(eval_derivative(mc, 1.0, 1), [1.0, 1.0])
    assert np.allclose(eval_derivative(mc, 0.3, 2), [0.0, 1.0])
    assert np.allclose(eval_derivative(mc, 0.5, 0), [0.5, 0.125])
    # order above the degree is identically zero
    assert np.allclose(eval_derivative(moment_curve(3), 0.7, 4), 0.0)


def test_eval_many_matches_exact():
    curve = poly_curve([[1, -2, 0, 3], [0, 1, 5]])
    rng = np.random.default_rng(2)
    ts = [Fraction(int(n), 7) for n in rng.integers(-20, 20, size=12)]
    for order in range(4):
        approx = curve.eval_many(np.array([float(t) for t in ts]), order)
        exact = np.array(
            [[float(v) for v in curve.eval_exact(t, order)] for t in ts]
        )
        assert np.max(np.abs(approx - exact)) < 1e-12


def test_derivative_order_cap():
    mc = moment_curve(2)
    with pytest.raises(CapabilityError):
        mc.eval_many(np.array([0.1]), mc.max_derivative_order + 1)


def test_detect_type_nondegenerate():
    for d in (2, 3, 4):
        mc = moment_curve(d)
        for t in (0.0, 0.7):
            assert tuple(detect_type(mc, t)) == tuple(range(1, d + 1))


def test_detect_type_degenerate_point():
    cubic = monomial_curve([1, 3])
    assert tuple(detect_type(cubic, 0.0)) == (1, 3)
    assert tuple(detect_type(cubic, 0.5)) == (1, 2)
    quartic = monomial_curve([1, 2, 4])
    assert tuple(detect_type(quartic, 0.0)) == (1, 2, 4)
    assert tuple(detect_type(quartic, 0.25)) == (1, 2, 3)


def test_detect_type_column_zero_up_to_round_off():
    # gamma'' = (0, 2 + 6t - 10t^3) vanishes at a root next to this float
    # t, where it evaluates to (0, 1.8e-15): a zero column, not a
    # full-size direction, so the type is (1, 3), and so is the frame
    # rescale_curve builds
    curve = poly_curve([[Fraction(-4, 3), Fraction(-1, 2)],
                        [2, Fraction(-5, 3), 1, 1, 0, Fraction(-1, 2)]])
    t0 = 0.9059584320194316
    assert 0 < abs(eval_derivative(curve, t0, 2)[1]) < 1e-14
    assert tuple(detect_type(curve, t0)) == (1, 3)
    out = rescale_curve(curve, t0, 1)
    assert out.eval_exact(0, 1) == (1, 0) and out.eval_exact(0, 3) == (0, 1)


def test_detect_type_flat_curve_raises():
    # components proportional to each other never span the plane
    flat = poly_curve([[0, 1], [0, 2]])
    with pytest.raises(NotFiniteTypeError):
        detect_type(flat, 0.3)


def test_monomial_components():
    curve = monomial_curve([1, 2, 4])
    assert curve.coeffs[0] == (Fraction(0), Fraction(1))
    assert curve.coeffs[1] == (Fraction(0), Fraction(0), Fraction(1, 2))
    assert curve.coeffs[2] == (
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(1, 24),
    )


def test_rescale_moment_curve_is_fixed_point():
    """The Taylor-frame zoom maps the moment curve to itself exactly."""
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        mc = moment_curve(d)
        for _ in range(4):
            t0 = Fraction(int(rng.integers(-8, 9)), 16)
            u = Fraction(int(rng.integers(1, 9)), 8)
            out = rescale_curve(mc, t0, u)
            assert out.coeffs == mc.coeffs, (d, t0, u)


def test_rescale_rejects_zero_scale():
    with pytest.raises(ValueError):
        rescale_curve(moment_curve(2), 0.0, 0)


def test_dyadic_rescale_monomials_invariant():
    a = TypeTuple((1, 2, 4))
    curve = monomial_curve([1, 2, 4])
    for ell in (0, 1, 3):
        out = dyadic_rescale(curve, a, ell)
        assert out.coeffs == curve.coeffs
        assert out.domain == (0.0, 2.0**ell)
    with pytest.raises(ValueError):
        dyadic_rescale(curve, a, -1)


def test_dyadic_rescale_general_coefficients():
    # component i picks up 2^{ell(a_i - j)} on the t^j coefficient
    curve = poly_curve([[0, 1, 1], [0, 0, 1]])
    out = dyadic_rescale(curve, TypeTuple((1, 2)), 2)
    assert out.coeffs[0] == (Fraction(0), Fraction(1), Fraction(1, 4))
    assert out.coeffs[1] == (Fraction(0), Fraction(0), Fraction(1))


def test_class_membership():
    ok, dev = class_membership(moment_curve(3), nondegenerate_tuple(3), 1e-12)
    assert ok and dev == 0.0
    # t^2/2 * (1 + t/2) drifts away from the pure monomial by ~|t|/4 in phi'
    bent = poly_curve([[0, 1], [0, 0, Fraction(1, 2), Fraction(1, 4)]])
    ok, dev = class_membership(bent, TypeTuple((1, 2)), 1e-3)
    assert not ok and dev > 0.2
    with pytest.raises(MonomialFormError):
        class_membership(poly_curve([[0, 1], [0, 1, 1]]), TypeTuple((1, 2)), 1.0)


def test_type_tuple_validation():
    with pytest.raises(ValueError):
        TypeTuple((2, 1))
    with pytest.raises(ValueError):
        TypeTuple((0, 1))
    with pytest.raises(ValueError):
        TypeTuple(())
    a = TypeTuple((1, 2, 4))
    assert a.norm1 == 7 and len(a) == 3 and a[-1] == 4
    assert tuple(nondegenerate_tuple(4)) == (1, 2, 3, 4)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(())
    named = moment_curve(3)
    assert named.name == "moment(3)"
    assert named.dim == 3 and named.degree == 3
