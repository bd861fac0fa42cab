"""Quadrature measures: sphere rules, singular densities, graphs, audits."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import rlab.measures
from brute_force import (
    OneShotChart,
    audit_reference,
    axis_cells_loop,
    kdtree_min_spacing,
    singular_grid_by_table,
)
from rlab.curves import TypeTuple, moment_curve, poly_curve
from rlab.errors import DataError, DomainError
from rlab.exponents import kappa
from rlab.extremal import knapp_box
from rlab.measures import (
    QuadMeasure,
    _ball_masses,
    _column_bounds,
    _max_mass_ratio,
    _min_spacing,
    cap_box_sigma_mass,
    dimension_audit,
    gauss_legendre,
    scaled_measure,
    singular_alpha_measure,
    sphere_cap_graph,
    sphere_measure,
    sphere_resolution_for,
    submanifold_builder,
)
from rlab.oscillatory import graph_phase


def test_sphere_total_mass():
    assert abs(np.sum(sphere_measure(2).weights) - 2 * math.pi) < 1e-12
    assert abs(np.sum(sphere_measure(3).weights) - 4 * math.pi) < 1e-12


def test_sphere_nodes_on_sphere():
    for d in (2, 3):
        mu = sphere_measure(d, 32)
        assert np.max(np.abs(np.linalg.norm(mu.nodes, axis=1) - 1.0)) < 1e-14
        assert mu.provenance == "sphere" and mu.alpha == d - 1


def test_sphere_bessel_oracle():
    """Plane-wave integrals against the classical special functions."""
    xi = 7.3
    mu2 = sphere_measure(2, 256)
    got = np.sum(mu2.weights * np.exp(1j * xi * mu2.nodes[:, 0]))
    want = 2 * math.pi * scipy.special.j0(xi)
    assert abs(got - want) < 1e-10
    mu3 = sphere_measure(3, 64)
    got = np.sum(mu3.weights * np.exp(1j * xi * mu3.nodes[:, 2]))
    want = 4 * math.pi * math.sin(xi) / xi
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 16, 24, 32, 64, 128, 805])
def test_gauss_legendre_is_leggauss_bit_for_bit(n):
    x, w = gauss_legendre(n)
    gx, gw = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == gx.tobytes() and w.tobytes() == gw.tobytes()


def test_gauss_legendre_cache_is_read_only():
    # every caller shares the cached arrays, so none may write to them
    x, w = gauss_legendre(16)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    x, w = gauss_legendre(16)
    gx, gw = np.polynomial.legendre.leggauss(16)
    assert x.tobytes() == gx.tobytes() and w.tobytes() == gw.tobytes()


def test_sphere_resolution_rule():
    # n = 10 lambda nodes at d=2, n_u = 4 lambda polar nodes and 2 n_u^2
    # nodes at d=3; d=3 grids grow ~ lam^2 nodes, so keep its frequencies
    # modest here
    for d, lams in ((2, (16.0, 300.0, 300.05)), (3, (16.0, 40.0, 40.1))):
        for lam in lams:
            res = sphere_resolution_for(d, lam)
            assert res == math.ceil((10 if d == 2 else 4) * lam)
            size = sphere_measure(d, res).size
            assert size == (res if d == 2 else 2 * res * res)
    with pytest.raises(ValueError):
        sphere_resolution_for(5, 16.0)
    # the node budget of 2^25 = 33,554,432 nodes: d=3 at lambda=1024 has
    # exactly 2 * 4096^2 of them, at 1025 it has 2 * 4100^2; d=2 at 2^21
    # has 10 * 2^21
    assert rlab.measures.NODE_BUDGET == 2 * 4096 ** 2 == 33_554_432
    assert sphere_resolution_for(3, 1024.0) == 4096
    assert sphere_resolution_for(2, 2.0 ** 21) == 10 * 2 ** 21
    for d, lam in ((3, 1025.0), (3, 2048.0), (2, 2.0 ** 22)):
        with pytest.raises(ValueError, match="budget"):
            sphere_resolution_for(d, lam)
    # a negative resolution is refused, not read as "use the default"
    for d in (2, 3):
        with pytest.raises(ValueError):
            sphere_measure(d, -5)


@pytest.mark.parametrize("build, nodes", [
    (lambda: sphere_measure(2, 2 ** 25 + 1), "33,554,433"),
    (lambda: sphere_measure(3, 4097), "33,570,818"),
    (lambda: sphere_measure(3, 10 ** 7), "200,000,000,000,000"),
    # 511 cells per axis at the default resolution 64, cubed
    (lambda: singular_alpha_measure(3, 2.5), "133,432,831"),
    (lambda: singular_alpha_measure(3, 3.0, 10 ** 7), f"{79_999_999 ** 3:,}"),
], ids=["circle", "sphere-one-past", "sphere-huge", "singular-default",
        "singular-huge"])
def test_builders_refuse_a_grid_over_the_node_budget(build, nodes):
    # the refusal comes before any large allocation
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"needs {nodes} nodes.*budget"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_singular_cell_count_and_default_resolution():
    for r in range(16, 300):
        assert rlab.measures._axis_cells(r)[0].size == \
            rlab.measures._axis_cell_count(r)
    # resolution 0 is the builder default, 64
    default = singular_alpha_measure(2, 1.5)
    explicit = singular_alpha_measure(2, 1.5, 64)
    assert np.array_equal(default.nodes, explicit.nodes)
    assert np.array_equal(default.weights, explicit.weights)


def test_power_cell_mass_at_zero_is_the_cell_width():
    # s = 0 takes the general antiderivative, whose pow gives hi - lo bit
    # for bit, signed zeros included, on cells clipped to a chord too
    for r in (16, 32, 64, 128, 1000):
        lo, hi = rlab.measures._axis_cells(r)
        mid = 0.5 * (lo + hi)
        for rmax in (1.0, *np.sqrt(1.0 - mid[::97] ** 2)):
            meet = (hi > -rmax) & (lo < rmax)
            clo = np.maximum(lo[meet], -rmax)
            chi = np.minimum(hi[meet], rmax)
            mass = rlab.measures._power_cell_mass(clo, chi, 0.0)
            assert mass.tobytes() == (chi - clo).tobytes()


def _assert_table_grid(mu, d, alpha, lo, hi):
    nodes, weights, max_spacing = singular_grid_by_table(d, alpha, lo, hi)
    assert mu.nodes.tobytes() == np.ascontiguousarray(nodes).tobytes()
    assert mu.weights.tobytes() == weights.tobytes()
    assert mu.max_spacing == max_spacing


def test_singular_grid_equals_the_table_construction(monkeypatch):
    """The cell runs per base point give the bits of the loop-built axis
    cells clipped in one n_base x n_cells table, at every ceil(alpha)."""
    for r in range(4, 300):
        got, want = rlab.measures._axis_cells(r), axis_cells_loop(r)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    # ceil(alpha) = 1 and 2 on the real cells, with and without a pinned
    # coordinate and with s = 0
    for d, alpha in ((1, 0.5), (2, 1.0), (2, 1.5), (2, 2.0), (3, 1.5)):
        for res in (16, 17, 24, 32, 64):
            _assert_table_grid(singular_alpha_measure(d, alpha, res),
                               d, alpha, *axis_cells_loop(res))
    # ceil(alpha) = 3 on 24 uneven cells: the real grid has 6.5 M nodes
    edges = np.sort(np.r_[-1.0, 1.0,
                          np.random.default_rng(1).uniform(-1.0, 1.0, 23)])
    lo, hi = edges[:-1], edges[1:]
    monkeypatch.setattr(rlab.measures, "_axis_cells", lambda r: (lo, hi))
    for d, alpha in ((3, 2.5), (3, 3.0), (4, 2.5)):
        _assert_table_grid(singular_alpha_measure(d, alpha, 16),
                           d, alpha, lo, hi)


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


def test_singular_measure_total_mass_oracle():
    mu = singular_alpha_measure(2, 1.5, resolution=64)
    want, _ = scipy.integrate.quad(
        lambda x: abs(x) ** -0.5 * 2.0 * math.sqrt(1.0 - x * x), -1, 1,
        points=[0.0], limit=200,
    )
    assert abs(np.sum(mu.weights) - want) / want < 1e-4
    assert mu.alpha == 1.5 and mu.provenance == "singular"


def _box_mass(mu, half_widths):
    """Mass of the box |x_i| <= half_widths[i] under mu."""
    return float(np.sum(mu.weights[np.all(np.abs(mu.nodes) <= half_widths, axis=1)]))


def test_singular_measure_box_scaling():
    # mass of [-h,h]^2 is 8 h^{3/2} while the box stays inside the ball
    mu = singular_alpha_measure(2, 1.5, resolution=128)
    for h in (0.0625, 0.25):
        got = _box_mass(mu, (h, h))
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
        assert abs(np.sum(sc.weights)
                   - np.sum(mu.weights) * 2.0 ** (-ell * float(kap))) < 1e-12
        # anisotropic dilate of a box keeps the proportional mass
        hw = np.array([0.25, 0.25])
        hws = hw * np.array([2.0**-ell, 2.0 ** (-2 * ell)])
        assert abs(_box_mass(sc, hws)
                   - _box_mass(mu, hw) * 2.0 ** (-ell * float(kap))) < 1e-12


def test_submanifold_closed_forms():
    """d=4, k=2 graph over the moment curve integrates to explicit cubics."""
    patch = submanifold_builder(4, 2, moment_curve(4))
    assert patch.l == 2 and patch.k == 2
    rng = np.random.default_rng(6)
    y = rng.uniform(0.02, 0.7, size=(40, 2))
    got = patch.value(y)
    want0 = y[:, 0] ** 3 / 6.0 + y[:, 1] ** 4 / 12.0
    want1 = -(y[:, 0] ** 2) / 2.0 - y[:, 1] ** 3 / 6.0
    assert np.max(np.abs(got[:, 0] - want0)) < 1e-9
    assert np.max(np.abs(got[:, 1] - want1)) < 1e-9
    # embedded diagonal: g(t) = (t, t) lifts into the ambient graph
    ts = np.array([0.1, 0.4])
    diag = np.vstack([patch.stationary(patch.curve, t) for t in ts])
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


def _rotated_lattice(k, n_per_axis):
    """The d=4 integral graph of dimension k over moment(4), and the
    lattice of a Knapp box, sheared by its curvature block, at t = 0.5."""
    patch = submanifold_builder(4, k, moment_curve(4), extent=0.75)
    phase = graph_phase(patch.curve, patch)
    return patch, knapp_box(phase, 0.5, 16.0, 0.5).lattice(n_per_axis)


@pytest.mark.parametrize("t_block", [None, 32, 77])
@pytest.mark.parametrize("k,n_per_axis", [(2, 33), (3, 9)])
def test_blocked_chart_matches_one_shot(k, n_per_axis, t_block, monkeypatch):
    """Every chart map equals its one-shot evaluation bit for bit, at the
    default block size and at small blocks: 32 t-nodes hold one
    quadrature row, and leave a last block of one row of the 1,089
    jacobian coordinates at k=2."""
    if t_block is not None:
        monkeypatch.setattr(rlab.measures, "_T_BLOCK", t_block)
    patch, y = _rotated_lattice(k, n_per_axis)
    ref = OneShotChart(patch)
    assert len(np.unique(y[:, 0])) * 32 > 2 * rlab.measures._T_BLOCK
    assert np.array_equal(patch.value(y), ref.value(y))
    assert np.array_equal(patch.embed(y)[:, :patch.l], ref.value(y))
    assert np.array_equal(patch.jacobian(y), ref.jacobian(y))
    ts = np.abs(y.ravel())
    for order in (1, 2, 3, 4):
        assert np.array_equal(patch.mixed_grad(ts, order),
                              ref.mixed_grad(ts, order))
    assert np.array_equal(patch.curvature_block(ts), ref.curvature_block(ts))


def test_blocked_chart_value_memory():
    """value on a 17^3 lattice allocates a few blocks, not a batch of
    32 x 4 x 4 entries for every Gauss node of every unique coordinate."""
    patch, y = _rotated_lattice(3, 17)
    peaks = []
    for evaluate in (patch.value, OneShotChart(patch).value):
        tracemalloc.start()
        try:
            evaluate(y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    blocked, one_shot = peaks
    assert blocked < 4e6 and 4 * blocked < one_shot, peaks


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


def test_c12_audits_make_a_pinned_number_of_exact_masses(monkeypatch):
    """The column bound's pruning power, as a count that needs no timer.

    c12's twelve audits (seed 1, its floors) run the exact pass on 1,833
    balls; the 32-node block bound it replaced ran 3,128.  The count is
    deterministic (the bound uses no BLAS product), so a looser bound
    moves it.  A bound that prunes more lowers it: update the pin then.
    """
    count = [0]
    inner = rlab.measures._ball_masses

    def counted(*args):
        for mass in inner(*args):
            count[0] += 1
            yield mass

    monkeypatch.setattr(rlab.measures, "_ball_masses", counted)
    for mu, alpha, n, f_hi, f_lo in (
            (sphere_measure(2, 1024), 1.0, 1500, 0.4, 0.025),
            (sphere_measure(3, 128), 2.0, 600, 0.4, 0.1),
            (singular_alpha_measure(2, 1.5, 32), 1.5, 400, 0.5, 0.125)):
        for a in (alpha, alpha + 0.5):
            for floor in (f_hi, f_lo):
                dimension_audit(mu, a, n_samples=n, seed=1, r_floor=floor)
    assert count[0] == 1833


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
    (lambda: singular_alpha_measure(2, 1.0, 32), 1.0, 300, 0.125),
    (lambda: singular_alpha_measure(3, 1.5, 16), 1.5, 300, 0.125),
], ids=["circle", "circle-default-floor", "sphere", "singular", "dilate",
        "dilate-ell5", "over-40000-nodes", "tied-keys-and-duplicates",
        "tied-keys-floor", "sorted-tied-keys-and-duplicates",
        "sorted-tied-keys-floor", "singular-zero-span-axis", "singular-d3"])
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
    assert np.all(_column_bounds(nodes, weights, centers, radii) >= want)
    assert beyond > 0 and exact.size > 100


def _brute_masses(nodes, weights, centers, radii):
    return np.array([np.sum(weights[np.sum((nodes - c) ** 2, axis=1) <= r * r])
                     for c, r in zip(centers, radii)])


def _brute_max_ratio(nodes, weights, centers, radii, alpha):
    masses = _brute_masses(nodes, weights, centers, radii)
    return max(float(m) / r**alpha for m, r in zip(masses, radii))


@pytest.mark.parametrize("dim", [2, 3])
def test_mass_bounds_with_block_faces_on_the_boundary(dim):
    """Face nodes at -3..3 ulps from each ball's boundary, on any axis.

    Ball i owns seven groups of 32 nodes on a ray from its center along
    one axis: x, the run axis of the column bound, or an axis across its
    columns.  Group k's face node, the nearest to the center, lies k ulps
    from the boundary, and its other 31 nodes lie further out.  The
    radius makes r*r equal the k = 0 face node's squared distance, so
    that node is inside only by the last bit, and the bound must still
    count its cell.  Ball 0 carries a heavy k = 0 face node and sets the
    maximum; the outer nodes are light, so without that node its bound
    falls below the ratios of the other balls.
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
    assert np.all(_column_bounds(nodes, weights, centers, radii) >= want)
    ratios = want / radii
    assert np.argmax(ratios) == 0 and want[0] > 100.0
    assert (_max_mass_ratio(nodes, weights, centers, radii, 1.0)
            == _brute_max_ratio(nodes, weights, centers, radii, 1.0))


def test_max_mass_ratio_from_a_ball_without_the_largest_bound():
    # x is the run axis, 256 cells of 0.78125 over [-100, 100]; y has 32
    # columns of width 1 over [0, 32].  Ball 0 holds twenty nodes, and its
    # chord through column 1 covers the run cell of twenty decoys that lie
    # outside it; ball 1 holds one compact cluster whole
    decoys = np.tile([1.5, 1.9], (20, 1))
    inside = np.column_stack([np.linspace(0.2, 0.6, 20), np.full(20, 0.5)])
    cluster = np.array([50.0, 16.5]) + np.random.default_rng(3).uniform(
        -0.3, 0.3, size=(32, 2))
    corners = np.array([[-100.0, 0.0], [100.0, 32.0]])
    nodes = np.concatenate([decoys, inside, cluster, corners])
    weights = np.r_[np.full(20, 3.0), np.ones(20), np.full(32, 2.0), 1e-3, 1e-3]
    centers = np.array([[0.39, 0.5], [50.0, 16.5]])
    radii = np.array([1.0, 1.0])
    masses = _brute_masses(nodes, weights, centers, radii)
    bounds = _column_bounds(nodes, weights, centers, radii)
    assert list(masses) == [20.0, 64.0]
    assert bounds[0] > bounds[1] >= masses[1]
    assert _max_mass_ratio(nodes, weights, centers, radii, 1.5) == 64.0


def test_max_mass_ratio_when_block_sums_round_low():
    """The bound's slack covers prefix differences that round below the mass.

    x is the run axis, 256 cells of width 1 over [0, 256], and y has 32
    columns of width 1.  Ball 0's 64 nodes fill run cell 1 of column 0,
    above a node of weight 1 in cell 0, so its bound is the prefix
    difference (1 + S) - 1 of the cell's sum S, which rounds to one ulp
    or more below the ball's own sum of the same weights.  Ball 1, at the
    same radius, holds a single node weighing that difference, and decoys
    in its run cell put it first in the bound order: without the slack,
    ball 0's bound would tie ball 1's ratio and the pass would stop
    before reaching it.
    """
    rng = np.random.default_rng(8)
    while True:
        w = rng.uniform(0.5, 1.5, 64) * 2.0 ** rng.integers(-40, 1, 64)
        prefix = np.cumsum([1.0, float(np.bincount(np.zeros(64, np.intp), w)[0])])
        cell_total = float(prefix[1] - prefix[0])
        if np.sum(w) > cell_total:
            break
    ball0 = np.array([1.5, 0.5]) + rng.uniform(-0.1, 0.1, size=(64, 2))
    ball1 = np.array([[100.5, 16.5], [100.5, 16.95], [100.5, 16.05]])
    extent = np.array([[0.5, 0.5], [0.0, 32.0], [256.0, 0.0]])
    nodes = np.concatenate([ball0, ball1, extent])
    weights = np.r_[w, cell_total, 1.0, 1.0, 1.0, 1e-3, 1e-3]
    centers = np.array([[1.5, 0.5], [100.5, 16.5]])
    radii = np.array([0.2, 0.2])
    masses = _brute_masses(nodes, weights, centers, radii)
    assert masses[0] > masses[1] == cell_total
    bounds = _column_bounds(nodes, weights, centers, radii)
    assert bounds[1] > bounds[0] >= masses[0]
    got = _max_mass_ratio(nodes, weights, centers, radii, 2.0)
    assert got == _brute_max_ratio(nodes, weights, centers, radii, 2.0)
    assert got == masses[0] / 0.2**2


@pytest.mark.parametrize("dim", [2, 3])
def test_column_bounds_with_nodes_on_column_faces_and_chord_ends(dim):
    """Nodes -3..3 ulps from a column face and from a run-cell face.

    The run axis is x over [-7.3, 8.7], with 256 cells of 1/16; the other
    axes span [-0.7, 1.3].  Neither grid's faces are exact in binary, so
    a node a few ulps from a face can be binned across it.  Each node
    gets its own small ball with the node on its boundary.  A face ball
    has its center just off a column face and the node across it on that
    axis, so the ball reaches the node's column only at the face.  A
    chord-end ball has the node on a run-cell face, offset p < r from
    the center off the run axis, so the node sits at the end of the
    ball's chord through its column, and that end falls on the cell face.
    """
    rng = np.random.default_rng(60 + dim)
    size = 32 if dim == 2 else 8
    extent = np.full((2, dim), [[-0.7], [1.3]])
    extent[:, 0] = [-7.3, 8.7]
    pts, centers, radii = [extent], [], []
    for i in range(40):
        c = np.r_[rng.uniform(-6.0, 7.0), rng.uniform(-0.5, 1.1, dim - 1)]
        axis, sign = rng.integers(1, dim), rng.choice([-1.0, 1.0])
        if i % 2:
            # the node on a run-cell face, at offset p off the run axis
            x0 = -7.3 + rng.integers(20, 230) * (16.0 / 256)
            r = rng.uniform(1e-4, 1e-3)
            c[axis] += rng.uniform(-0.3, 0.3) * r
            base = c.copy()
            base[axis] += sign * rng.uniform(0.2, 0.9) * r
            c[0] = x0 - sign * math.sqrt(r * r - (base[axis] - c[axis]) ** 2)
            moved = 0
        else:
            # the node across a column face from the center
            x0 = -0.7 + rng.integers(2, size - 1) * (2.0 / size)
            c[axis] = x0 - sign * rng.uniform(1e-4, 1e-3)
            base, moved = c.copy(), axis
        for k in range(-3, 4):
            q = base.copy()
            q[moved] = x0 + k * np.spacing(x0)
            pts.append(q[None])
            d2 = float(np.sum((q - c) ** 2))
            r = math.sqrt(d2)
            while r * r < d2:
                r = np.nextafter(r, np.inf)
            radii.append(r)
            centers.append(c)
    nodes = np.concatenate(pts)
    weights = rng.uniform(0.5, 1.5, nodes.shape[0])
    centers, radii = np.array(centers), np.array(radii)
    want = _brute_masses(nodes, weights, centers, radii)
    assert np.all(want >= weights[2:])
    assert list(_ball_masses(nodes, weights, centers, radii)) == list(want)
    assert np.all(_column_bounds(nodes, weights, centers, radii) >= want)
    assert (_max_mass_ratio(nodes, weights, centers, radii, 1.0)
            == _brute_max_ratio(nodes, weights, centers, radii, 1.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_column_bounds_on_chords_of_nearly_zero_length(dim):
    """Balls that touch the nodes' plane y = 0 from far off it.

    Every node has y = 0 exactly, so the column face is the plane itself
    and carries no pad.  Each ball's center is h = 0.1 .. 0.5 below it,
    its radius is h, and its run-axis offset to a run-cell face is so
    small that it vanishes in fl(r*r).  So the ball's chord through the
    plane rounds to a single point on one side of the face, while its
    nodes, -3..3 ulps from the face, are inside the ball on both sides.
    """
    rng = np.random.default_rng(80 + dim)
    nodes = np.zeros((2, dim))
    nodes[:, 0] = [-7.3, 8.7]
    if dim == 3:
        nodes[:, 2] = [-0.7, 1.3]
    pts, centers, radii = [nodes], [], []
    for i in range(40):
        x0 = -7.3 + rng.integers(20, 230) * (16.0 / 256)
        h = rng.uniform(0.1, 0.5)
        c = np.zeros(dim)
        c[1] = -h
        if dim == 3:
            c[2] = rng.uniform(-0.5, 1.1)
        c[0] = x0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9) * math.sqrt(
            np.spacing(h * h) / 2.0)
        for k in range(-3, 4):
            q = c.copy()
            q[0], q[1] = x0 + k * np.spacing(x0), 0.0
            pts.append(q[None])
        centers.append(c)
        radii.append(h)
    nodes = np.concatenate(pts)
    weights = rng.uniform(0.5, 1.5, nodes.shape[0])
    centers, radii = np.array(centers), np.array(radii)
    want = _brute_masses(nodes, weights, centers, radii)
    assert np.all(want >= 7 * 0.5)
    assert list(_ball_masses(nodes, weights, centers, radii)) == list(want)
    assert np.all(_column_bounds(nodes, weights, centers, radii) >= want)
    assert (_max_mass_ratio(nodes, weights, centers, radii, 1.0)
            == _brute_max_ratio(nodes, weights, centers, radii, 1.0))


@pytest.mark.parametrize("dim, flat", [(2, 1), (3, 1), (3, 2), (2, 0)],
                         ids=["2", "3", "3-last-axis", "2-widest-axis-flat"])
def test_column_bounds_with_a_zero_span_axis(dim, flat):
    # every node has the same coordinate on one axis, so that axis has a
    # single column whose faces are the plane itself; with x flat, the run
    # axis moves to y
    rng = np.random.default_rng(70 + dim + flat)
    nodes = rng.uniform(-1.0, 1.0, size=(800, dim)) * ([3.0] + [1.0] * (dim - 1))
    nodes[:, flat] = 0.3
    centers = nodes[rng.integers(0, 800, 80)] + rng.normal(scale=0.05, size=(80, dim))
    radii = rng.uniform(0.01, 1.5, 80)
    weights = rng.uniform(0.5, 1.5, 800)
    want = _brute_masses(nodes, weights, centers, radii)
    assert list(_ball_masses(nodes, weights, centers, radii)) == list(want)
    assert np.all(_column_bounds(nodes, weights, centers, radii) >= want)
    assert (_max_mass_ratio(nodes, weights, centers, radii, 0.5)
            == _brute_max_ratio(nodes, weights, centers, radii, 0.5))


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


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_dimension_audit_refuses_bad_seed(seed):
    mu = sphere_measure(2, 64)
    with pytest.raises(ValueError, match="seed"):
        dimension_audit(mu, 1.0, n_samples=200, seed=seed)


def test_dimension_audit_takes_any_integer_seed():
    mu = sphere_measure(2, 64)
    assert dimension_audit(mu, 1.0, n_samples=200, seed=np.int64(0)) == \
        dimension_audit(mu, 1.0, n_samples=200, seed=0)
    assert dimension_audit(mu, 1.0, n_samples=200, seed=2**100) > 0


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
