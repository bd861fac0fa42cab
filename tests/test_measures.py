"""Quadrature measures: sphere rules, singular densities, graphs, audits."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from brute_force import audit_reference, kdtree_min_spacing
from rlab.curves import TypeTuple, moment_curve, poly_curve
from rlab.errors import DataError, DomainError
from rlab.exponents import kappa
from rlab.measures import (
    QuadMeasure,
    _ball_masses,
    _mass_bounds,
    _max_mass_ratio,
    _min_spacing,
    box_mass,
    cap_box_sigma_mass,
    dimension_audit,
    hyperplane_measure,
    patch_measure,
    pushforward_measure,
    scaled_measure,
    singular_alpha_measure,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    sphere_spacing_rule,
    submanifold_builder,
)


def test_sphere_total_mass():
    assert abs(sphere_measure(2).total_mass - 2 * math.pi) < 1e-12
    assert abs(sphere_measure(3).total_mass - 4 * math.pi) < 1e-12


def test_sphere_nodes_on_sphere():
    for d in (2, 3):
        mu = sphere_measure(d, 32)
        assert np.max(np.abs(np.linalg.norm(mu.nodes, axis=1) - 1.0)) < 1e-14
        assert mu.provenance == "sphere" and mu.alpha == d - 1


def test_sphere_bessel_oracle():
    """Plane-wave integrals against the classical special functions."""
    xi = 7.3
    mu2 = sphere_measure(2, 256)
    got = mu2.integrate(lambda x: np.exp(1j * xi * x[:, 0]))
    want = 2 * math.pi * scipy.special.j0(xi)
    assert abs(got - want) < 1e-10
    mu3 = sphere_measure(3, 64)
    got = mu3.integrate(lambda x: np.exp(1j * xi * x[:, 2]))
    want = 4 * math.pi * math.sin(xi) / xi
    assert abs(got - want) < 1e-10


def test_sphere_resolution_rule():
    # d=3 grids grow ~ lam^2 nodes, so keep its frequencies modest here
    for d, lams in ((2, (16.0, 300.0)), (3, (16.0, 40.0))):
        for lam in lams:
            res = sphere_resolution_for(d, lam)
            mu = sphere_measure(d, res)
            assert mu.max_spacing <= sphere_spacing_rule(d, lam) * (1 + 1e-9)
    with pytest.raises(ValueError):
        sphere_resolution_for(5, 16.0)
    # a negative resolution is refused, not read as "use the default"
    for d in (2, 3):
        with pytest.raises(ValueError):
            sphere_measure(d, -5)


def test_quad_measure_validation():
    with pytest.raises(ValueError):
        QuadMeasure(2, np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]),
                    alpha=1.0, provenance="test")
    with pytest.raises(ValueError):
        QuadMeasure(2, np.zeros((3, 3)), np.ones(3), alpha=1.0, provenance="test")
    with pytest.raises(ValueError):
        QuadMeasure(1, np.array([[np.inf]]), np.ones(1), alpha=1.0, provenance="test")


def test_sphere_cap_graph_geometry():
    for d in (2, 3):
        patch = sphere_cap_graph(d)
        rng = np.random.default_rng(4)
        y = rng.uniform(-0.5, 0.5, size=(20, d - 1))
        emb = np.concatenate([patch.value(y) - 1.0, y], axis=1)
        assert np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)) < 1e-12
        # finite differences agree with the returned jacobian
        h = 1e-6
        for axis in range(d - 1):
            dy = np.zeros(d - 1)
            dy[axis] = h
            fd = (patch.value(y + dy) - patch.value(y - dy)) / (2 * h)
            assert np.max(np.abs(fd[:, 0] - patch.jacobian(y)[:, 0, axis])) < 1e-6
        with pytest.raises(DomainError):
            patch.value(np.ones((1, d - 1)))


def test_cap_box_mass_closed_form():
    # d=2: the cap box [-h, h] has sigma-mass 2 asin(h)
    for h in (0.1, 0.3, 0.6):
        got = cap_box_sigma_mass(2, [h])
        assert abs(got - 2 * math.asin(h)) < 1e-12
    # d=3: cross-check against adaptive integration of the area element
    got = cap_box_sigma_mass(3, [0.2, 0.3])
    want, _ = scipy.integrate.dblquad(
        lambda y2, y1: 1.0 / math.sqrt(1.0 - y1 * y1 - y2 * y2),
        -0.2, 0.2, -0.3, 0.3, epsabs=1e-12,
    )
    assert abs(got - want) < 1e-9


def test_hyperplane_measure():
    mu = hyperplane_measure((1, 1, 0), 3, extent=1.0, resolution=16)
    assert abs(mu.total_mass - 4.0 * math.sqrt(2.0)) < 1e-12
    assert np.max(np.abs(mu.nodes @ np.array([1.0, 1.0, 0.0]))) < 1e-12
    with pytest.raises(ValueError):
        hyperplane_measure((0, 0, 0), 3)


def test_singular_measure_total_mass_oracle():
    mu = singular_alpha_measure(2, 1.5, resolution=64)
    want, _ = scipy.integrate.quad(
        lambda x: abs(x) ** -0.5 * 2.0 * math.sqrt(1.0 - x * x), -1, 1,
        points=[0.0], limit=200,
    )
    assert abs(mu.total_mass - want) / want < 1e-4
    assert mu.alpha == 1.5 and mu.provenance == "singular"


def test_singular_measure_box_scaling():
    # mass of [-h,h]^2 is 8 h^{3/2} while the box stays inside the ball
    mu = singular_alpha_measure(2, 1.5, resolution=128)
    for h in (0.0625, 0.25):
        got = box_mass(mu, (h, h))
        assert abs(got - 8.0 * h**1.5) / (8.0 * h**1.5) < 0.02
    with pytest.raises(ValueError):
        singular_alpha_measure(2, 2.5)
    with pytest.raises(ValueError):
        singular_alpha_measure(2, 1.5, resolution=8)


def test_scaled_measure_exact_factors():
    mu = singular_alpha_measure(2, 1.5, resolution=32)
    a = TypeTuple((1, 2))
    kap = kappa((1, 2), Fraction(3, 2))
    for ell in (1, 3):
        sc = scaled_measure(mu, a, ell, kap)
        assert abs(sc.total_mass - mu.total_mass * 2.0 ** (-ell * float(kap))) < 1e-12
        # anisotropic dilate of a box keeps the proportional mass
        hw = np.array([0.25, 0.25])
        hws = hw * np.array([2.0**-ell, 2.0 ** (-2 * ell)])
        assert abs(box_mass(sc, hws) - box_mass(mu, hw) * 2.0 ** (-ell * float(kap))) < 1e-12


def test_pushforward_measure():
    mu = sphere_measure(2, 64)
    amat = np.array([[2.0, 1.0], [0.0, 1.0]])
    push = pushforward_measure(mu, amat, mass_scale=0.5)
    f = lambda x: x[:, 0] ** 2 + 0.3 * x[:, 1]  # noqa: E731
    direct = 0.5 * mu.integrate(lambda x: f(x @ amat))
    assert abs(push.integrate(f) - direct) < 1e-12


def test_patch_measure():
    mu = patch_measure((0.5, -1.0), (0.25, 0.5), spacing=0.05)
    assert abs(mu.total_mass - 0.5 * 1.0) < 1e-12
    assert np.all(np.abs(mu.nodes - np.array([0.5, -1.0])) <= np.array([0.25, 0.5]))


def test_submanifold_closed_forms():
    """d=4, k=2 graph over the moment curve integrates to explicit cubics."""
    patch = submanifold_builder(4, 2, moment_curve(4))
    assert patch.l == 2 and patch.base_dim == 2
    rng = np.random.default_rng(6)
    y = rng.uniform(0.02, 0.7, size=(40, 2))
    got = patch.value(y)
    want0 = y[:, 0] ** 3 / 6.0 + y[:, 1] ** 4 / 12.0
    want1 = -(y[:, 0] ** 2) / 2.0 - y[:, 1] ** 3 / 6.0
    assert np.max(np.abs(got[:, 0] - want0)) < 1e-9
    assert np.max(np.abs(got[:, 1] - want1)) < 1e-9
    # embedded diagonal: g(t) = (t, t) lifts into the ambient graph
    ts = np.array([0.1, 0.4])
    diag = patch.g(ts)
    assert diag.shape == (2, 2) and np.allclose(diag, np.column_stack([ts, ts]))


def test_submanifold_builder_block_singular_between_grid_points():
    """The identity order's leading block has det = t - 3/10, which
    vanishes inside [0, 0.75] but at no point of a 33-point grid."""
    curve = poly_curve([[0, 1], [0, 0, Fraction(-3, 20), Fraction(1, 6)],
                        [0, 0, Fraction(1, 2)], [0, 0, 0, 0, Fraction(1, 24)]])
    patch = submanifold_builder(4, 2, curve, extent=0.75)
    assert patch.perm == (0, 2, 1, 3)
    # components (t, t^2/2 | t^3/6 - 3t^2/20, t^4/24): M = [[t^2/2, 3/10 - t],
    # [t^3/3, -t^2/2]] integrates to explicit polynomials
    y = np.array([[0.31, 0.31], [0.05, 0.7], [0.6, 0.2]])
    want = np.column_stack([
        y[:, 0] ** 3 / 6.0 + y[:, 1] ** 4 / 12.0,
        0.3 * y[:, 0] - y[:, 0] ** 2 / 2.0 - y[:, 1] ** 3 / 6.0])
    assert np.max(np.abs(patch.value(y) - want)) < 1e-12


def test_submanifold_mixed_grad_and_blocks():
    patch = submanifold_builder(4, 2, moment_curve(4))
    ts = np.linspace(0.05, 0.9, 9)
    for order in (1, 2):
        resid = patch.mixed_grad(ts, order)
        assert np.max(np.abs(resid)) < 1e-8, f"order {order}"
    a1, a2, b1, b2 = patch.blocks(ts)
    full = np.block([[a1, a2], [b1, b2]])
    dets = np.linalg.det(full)
    assert np.all(np.abs(dets) > 1e-6)
    # Schur identity: det [[A1,A2],[B1,B2]] = det A1 * det(B2 - B1 A1^-1 A2)
    schur = np.linalg.det(a1) * np.linalg.det(patch.curvature_block(ts))
    assert np.max(np.abs(dets - schur) / np.abs(dets)) < 1e-9


def test_submanifold_surface_measure():
    patch = submanifold_builder(4, 2, moment_curve(4), extent=0.5, resolution=12)
    mu = patch.surface_measure()
    assert mu.dim == 4 and np.all(mu.weights > 0)
    # every node lies on the graph: leading block reproduced by value()
    base = mu.nodes[:, patch.l:]
    lifted = patch.value(base)
    assert np.max(np.abs(mu.nodes[:, : patch.l] - lifted)) < 1e-10


def test_dimension_audit_bounded_and_unbounded():
    mu = sphere_measure(2, 1024)
    right_hi = dimension_audit(mu, 1.0, n_samples=800, seed=1, r_floor=0.2)
    right_lo = dimension_audit(mu, 1.0, n_samples=800, seed=1, r_floor=0.025)
    assert right_lo / right_hi < 1.3
    wrong_hi = dimension_audit(mu, 1.5, n_samples=800, seed=1, r_floor=0.2)
    wrong_lo = dimension_audit(mu, 1.5, n_samples=800, seed=1, r_floor=0.025)
    assert wrong_lo / wrong_hi > 2.0  # ~ (0.2/0.025)^{1/2}
    with pytest.raises(ValueError):
        dimension_audit(mu, 1.0, n_samples=10)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _tied_layout():
    """A cross in the plane with duplicated nodes.

    The widest axis is x, and 120 nodes sit on the line x = 0
    perpendicular to it, so their sort keys tie; large balls take the
    whole set as their slab.
    """
    rng = np.random.default_rng(11)
    arm = np.column_stack([np.linspace(-1.0, 1.0, 201), np.zeros(201)])
    column = np.column_stack([np.zeros(120), rng.uniform(-0.5, 0.5, 120)])
    nodes = np.concatenate([arm, column, arm[::7], column[::5]])
    weights = rng.uniform(0.5, 1.5, nodes.shape[0])
    return QuadMeasure(2, nodes, weights, alpha=1.0, provenance="test")


def _tied_layout_sorted():
    """_tied_layout with its nodes, and their weights, sorted along x.

    x stays the widest axis; its 145 keys at x = 0 tie, and the
    duplicated nodes sit next to each other.
    """
    mu = _tied_layout()
    order = np.argsort(mu.nodes[:, 0], kind="stable")
    return QuadMeasure(2, mu.nodes[order], mu.weights[order], alpha=1.0,
                       provenance="test")


def _dilate(ell):
    mu = singular_alpha_measure(2, 1.5, 32)
    return scaled_measure(mu, (1, 2), ell, kappa((1, 2), Fraction(3, 2)))


@pytest.mark.parametrize("build, alpha, n_samples, r_floor", [
    (lambda: sphere_measure(2, 512), 1.0, 800, 0.025),
    (lambda: sphere_measure(2, 512), 1.5, 800, None),
    (lambda: sphere_measure(3, 32), 2.0, 600, None),
    (lambda: singular_alpha_measure(2, 1.5, 32), 1.5, 300, 0.125),
    (lambda: _dilate(3), 1.5, 300, 0.3 * 2.0 ** -3),
    (lambda: _dilate(5), 1.5, 300, 0.3 * 2.0 ** -5),
    (lambda: sphere_measure(3, 150), 2.0, 200, None),
    (_tied_layout, 1.0, 600, None),
    (_tied_layout, 1.0, 600, 0.01),
    (_tied_layout_sorted, 1.0, 600, None),
    (_tied_layout_sorted, 1.0, 600, 0.01),
], ids=["circle", "circle-default-floor", "sphere", "singular", "dilate",
        "dilate-ell5", "over-40000-nodes", "tied-keys-and-duplicates",
        "tied-keys-floor", "sorted-tied-keys-and-duplicates",
        "sorted-tied-keys-floor"])
def test_dimension_audit_equals_brute_force(build, alpha, n_samples, r_floor):
    mu = build()
    got = dimension_audit(mu, alpha, n_samples=n_samples, seed=5, r_floor=r_floor)
    want = audit_reference(mu, alpha, n_samples=n_samples, seed=5,
                           r_floor=r_floor)
    assert got == want and got > 0


def test_dimension_audit_divides_by_the_scalar_power():
    # numpy's vectorized power can round r**1.5 one ulp away from the
    # scalar power of the brute-force ratio; on some hosts this draw's
    # maximizing ball is such a radius
    mu = sphere_measure(2, 512)
    got = dimension_audit(mu, 1.5, n_samples=800, seed=3)
    assert got == audit_reference(mu, 1.5, n_samples=800, seed=3)


@pytest.mark.parametrize("dim, sort_axis", [
    (2, None), (3, None), (2, 0), (3, 0), (2, 1), (3, 2),
], ids=["2", "3", "2-sorted", "3-sorted", "2-sorted-on-narrow-axis",
        "3-sorted-on-narrow-axis"])
def test_ball_masses_equal_brute_force_on_boundaries(dim, sort_axis):
    """Balls whose boundary passes through nodes, to the last bit.

    Unsorted nodes take the permuted slab path.  Nodes in nondecreasing
    order on one axis, the widest (axis 0) or a narrower one, are cut
    into index-range slabs along it.
    """
    rng = np.random.default_rng(20 + dim)
    # widest along axis 0
    nodes = rng.uniform(-1.0, 1.0, size=(1500, dim)) * ([2.0] + [1.0] * (dim - 1))
    centers = nodes[rng.integers(0, 1500, 60)] + rng.normal(scale=0.01, size=(60, dim))
    radii = rng.uniform(0.05, 0.8, 60)
    ax = 0 if sort_axis is None else sort_axis  # the slab axis
    # nodes a few ulps either side of c +- r on the slab axis
    edge, beyond = [], 0
    for c, r in zip(centers, radii):
        for x, outward in ((c[ax] + r, 1.0), (c[ax] - r, -1.0)):
            for k in range(-3, 4):
                p = c.copy()
                p[ax] = x + k * np.spacing(x)
                edge.append(p)
                # past c +- r as rounded, yet inside after rounding
                beyond += bool(outward * (p[ax] - x) > 0
                               and np.sum((p - c) ** 2) <= r * r)
    if sort_axis is not None:
        # tied sort keys (every third node on a 1/16 grid) and duplicates
        nodes[::3, sort_axis] = np.round(nodes[::3, sort_axis] * 16.0) / 16.0
        nodes = np.concatenate([nodes, nodes[::11]])
    nodes = np.concatenate([nodes, edge])
    if sort_axis is not None:
        nodes = nodes[np.argsort(nodes[:, sort_axis], kind="stable")]
        in_order = np.all(np.diff(nodes, axis=0) >= 0, axis=0)
        assert list(np.flatnonzero(in_order)) == [sort_axis]
    weights = rng.uniform(0.5, 1.5, nodes.shape[0])
    # balls whose r*r equals a node's squared distance, and whole-set balls
    d2 = np.sum((nodes - centers[0]) ** 2, axis=1)
    exact = np.sqrt(d2)[np.sqrt(d2) ** 2 == d2]
    radii = np.concatenate([radii, exact, [4.0, 9.0]])
    centers = np.concatenate([centers, np.repeat(centers[:1], exact.size + 2, axis=0)])
    want = [float(np.sum(weights[np.sum((nodes - c) ** 2, axis=1) <= r * r]))
            for c, r in zip(centers, radii)]
    assert list(_ball_masses(nodes, weights, centers, radii)) == want
    assert np.all(_mass_bounds(nodes, weights, centers, radii) >= want)
    assert beyond > 0 and exact.size > 100


def _brute_masses(nodes, weights, centers, radii):
    return np.array([np.sum(weights[np.sum((nodes - c) ** 2, axis=1) <= r * r])
                     for c, r in zip(centers, radii)])


def _brute_max_ratio(nodes, weights, centers, radii, alpha):
    masses = _brute_masses(nodes, weights, centers, radii)
    return max(float(m) / r**alpha for m, r in zip(masses, radii))


@pytest.mark.parametrize("dim", [2, 3])
def test_mass_bounds_with_block_faces_on_the_boundary(dim):
    """Block-box faces at -3..3 ulps from each ball's boundary.

    Ball i owns seven blocks of 32 nodes on a ray from its center along
    one axis.  Block k's face node, the nearest point of its box, lies k
    ulps from the boundary, and its other 31 nodes lie further out.  The
    radius makes r*r equal the k = 0 face node's squared distance, so
    that node is inside, and so is its box, only by the last bit.  Ball 0
    carries a heavy k = 0 face node and sets the maximum; the outer nodes
    are light, so without that one block its bound falls below the
    ratios of the other balls.
    """
    rng = np.random.default_rng(40 + dim)
    blocks, weights, centers, radii = [], [], [], []
    for i in range(30):
        c = rng.uniform(-0.5, 0.5, dim)
        c[0] += 3.0 * i
        axis, sign = rng.integers(dim), rng.choice([-1.0, 1.0])
        x0 = c[axis] + sign * (0.9 if i == 0 else rng.uniform(0.1, 0.5))
        while math.sqrt((x0 - c[axis]) ** 2) ** 2 != (x0 - c[axis]) ** 2:
            x0 = np.nextafter(x0, np.inf)
        radii.append(math.sqrt((x0 - c[axis]) ** 2))
        centers.append(c)
        for k in range(-3, 4):
            x = x0 + sign * k * np.spacing(x0)
            block = np.tile(c, (32, 1))
            block[:, axis] = x + sign * np.r_[0.0, 0.05 + 0.01 * np.arange(31)]
            blocks.append(block)
            weights.append(np.r_[100.0 if i == k == 0 else 1.0,
                                 rng.uniform(1e-3, 2e-3, 31)])
    nodes, weights = np.concatenate(blocks), np.concatenate(weights)
    centers, radii = np.array(centers), np.array(radii)
    want = _brute_masses(nodes, weights, centers, radii)
    assert list(_ball_masses(nodes, weights, centers, radii)) == list(want)
    assert np.all(_mass_bounds(nodes, weights, centers, radii) >= want)
    ratios = want / radii
    assert np.argmax(ratios) == 0 and want[0] > 100.0
    assert (_max_mass_ratio(nodes, weights, centers, radii, 1.0)
            == _brute_max_ratio(nodes, weights, centers, radii, 1.0))


def test_max_mass_ratio_from_a_ball_without_the_largest_bound():
    # twenty needles of 32 nodes: ball 0 reaches every needle's box but
    # holds only its first node; ball 1 holds one compact block whole
    needles = [np.column_stack([np.linspace(0.9, 10.0, 32), np.full(32, 0.01 * j)])
               for j in range(20)]
    cluster = np.array([0.0, 50.0]) + np.random.default_rng(3).normal(
        scale=0.1, size=(32, 2))
    nodes = np.concatenate(needles + [cluster])
    weights = np.r_[np.ones(640), np.full(32, 2.0)]
    centers = np.array([[0.0, 0.1], [0.0, 50.0]])
    radii = np.array([1.0, 1.0])
    masses = _brute_masses(nodes, weights, centers, radii)
    bounds = _mass_bounds(nodes, weights, centers, radii)
    assert list(masses) == [20.0, 64.0]
    assert bounds[0] > bounds[1] >= masses[1]
    assert _max_mass_ratio(nodes, weights, centers, radii, 1.5) == 64.0


def test_max_mass_ratio_when_block_sums_round_low():
    """The bound's inflation covers block sums that round below the mass.

    Ball 0 holds two blocks whose masses add to one ulp or more less than
    the ball's own sum of the same weights.  Ball 1, at the same radius,
    holds a single node weighing that block total, and comes first in the
    bound order: without the inflation, ball 0's bound would tie ball 1's
    ratio and the pass would stop before reaching it.
    """
    rng = np.random.default_rng(8)
    while True:
        w = rng.uniform(0.5, 1.5, 64) * 2.0 ** rng.integers(-40, 1, 64)
        block_total = float(np.ones(2) @ np.add.reduceat(w, [0, 32]))
        if np.sum(w) > block_total:
            break
    ball0 = rng.uniform(-0.1, 0.1, size=(64, 2))
    # ball 1's node shares its block with 31 nodes outside both balls
    ball1 = np.array([[10.0, 0.0]] + [[20.0 + j, 0.0] for j in range(31)])
    nodes = np.concatenate([ball0, ball1])
    weights = np.r_[w, block_total, np.ones(31)]
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    radii = np.array([0.5, 0.5])
    masses = _brute_masses(nodes, weights, centers, radii)
    assert masses[0] > masses[1] == block_total
    got = _max_mass_ratio(nodes, weights, centers, radii, 2.0)
    assert got == _brute_max_ratio(nodes, weights, centers, radii, 2.0)
    assert got == masses[0] / 0.5**2


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_dimension_audit_refuses_nonfinite_alpha(alpha):
    mu = sphere_measure(2, 64)
    with pytest.raises(ValueError, match="alpha"):
        dimension_audit(mu, alpha, n_samples=200)


@pytest.mark.parametrize("r_floor", [0.0, -0.1, math.nan, -math.inf])
def test_dimension_audit_refuses_bad_floor(r_floor):
    mu = sphere_measure(2, 64)
    with pytest.raises(ValueError, match="r_floor"):
        dimension_audit(mu, 1.0, n_samples=200, r_floor=r_floor)


def test_dimension_audit_infinite_floor_clamps_to_half_diameter():
    mu = sphere_measure(2, 64)
    diam = float(np.linalg.norm(mu.nodes.max(axis=0) - mu.nodes.min(axis=0)))
    got = dimension_audit(mu, 1.0, n_samples=200, r_floor=math.inf)
    assert got == dimension_audit(mu, 1.0, n_samples=200, r_floor=0.5 * diam)
    assert 0 < got < math.inf


def _brute_min_spacing(pts):
    d2 = sum((pts[:, None, i] - pts[None, :, i]) ** 2 for i in range(pts.shape[1]))
    return math.sqrt(float(d2[d2 > 0].min()))


def _points_measure(pts):
    return QuadMeasure(pts.shape[1], pts, np.ones(pts.shape[0]), alpha=1.0,
                       provenance="test")


@pytest.mark.parametrize("dim", [2, 3])
def test_min_spacing_equals_brute_force(dim):
    rng = np.random.default_rng(dim)
    for trial in range(6):
        pts = rng.uniform(-1.0, 1.0, size=(200 + 50 * trial, dim))
        if trial % 2:
            # a coarse grid forces tied sort keys and duplicated nodes
            pts = np.round(pts * 4.0) / 4.0
        assert _min_spacing(_points_measure(pts)) == _brute_min_spacing(pts)


def test_min_spacing_closest_pair_far_apart_in_sort_order():
    # a = (4.3, 0.5) and b = (4.301, 0.5) have three nodes between them
    # in x order, and at that shift only two pairs are within the best
    # distance found before it
    line = np.column_stack([np.arange(10.0), np.zeros(10)])
    between = [[4.3, 0.5], [4.3002, 3.0], [4.3004, -3.0], [4.3006, 3.5], [4.301, 0.5]]
    pts = np.concatenate([line, between])
    assert _min_spacing(_points_measure(pts)) == _brute_min_spacing(pts)


def test_min_spacing_all_duplicates_is_degenerate():
    pts = np.tile([[0.3, -0.2, 0.5]], (50, 1))
    with pytest.raises(DataError, match="degenerate node set"):
        _min_spacing(_points_measure(pts))


def test_min_spacing_closest_pair_with_duplicated_ends():
    # a = (0, 0) and b = (0.1, 0) are the closest pair and both are
    # duplicated.  The sweep returns the smallest positive pairwise
    # distance, 0.1.  Every node of a and b has a zero-distance second
    # neighbour, so a second-neighbour distance (cKDTree) skips the pair
    # and reads 0.9, the distance from c = (1, 0) to b.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [0.1, 0.0], [1.0, 0.0]])
    mu = _points_measure(pts)
    assert _min_spacing(mu) == 0.1 == _brute_min_spacing(pts)
    assert kdtree_min_spacing(mu) == 0.9


def test_audit_measure_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: block scipy and run the CLI
    code = ("import sys; sys.modules['scipy'] = None; "
            "from rlab.cli import main; main()")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", code, "audit-measure", "--d", "3", "--kind",
         "sphere", "--resolution", "64"],
        cwd=tmp_path, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"max mass ratio mu(B)/r^alpha: 25.910465\n"
