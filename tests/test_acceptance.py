"""End-to-end acceptance gate.

Thirteen numbered checks, one test each, covering the exponent
arithmetic, the definitional identities, the calibrated box geometry,
and the finite-lambda slope experiments.  Each test prints a single
``criterion NN: PASS`` line with the measured numbers so a plain
``pytest -v -s`` run doubles as a report.

The slope checks are genuine experiments: they rebuild fields from
scratch at every lambda and fit in log-log, so they dominate the
runtime of the suite.  Budgets are asserted where the contract states
one.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from rlab.cli import cli_main
from rlab.curves import (
    detect_type,
    eval_derivative,
    moment_curve,
    monomial_curve,
    torsion_det,
)
from rlab.exponents import (
    ExponentPoint,
    beta,
    exponent_table,
    hyperplane_omega,
    kappa,
    kappa_max_scan,
)
from rlab.extremal import (
    box_phase_check,
    box_volume_exponent,
    calibrate_c,
    curvature_matrix,
    knapp_box,
    necessity_rect_sphere,
    partition_family,
    stationary_residual,
)
from rlab.harness import (
    BumpFamily,
    KnappFamily,
    RandomFamily,
    SweepConfig,
    decay_sweep,
    kdim_experiment,
    khintchine_experiment,
    ols_fit,
)
from rlab.measures import (
    dimension_audit,
    scaled_measure,
    singular_alpha_measure,
    sphere_cap_graph,
    sphere_measure,
    submanifold_builder,
)
from rlab.oscillatory import graph_phase

INF = float("inf")


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _random_type_tuple(rng, d):
    picks = sorted(rng.choice(np.arange(1, 4 * d), size=d, replace=False))
    return tuple(int(x) for x in picks)


def test_c01_exponent_tables():
    t0 = time.perf_counter()
    for d in range(2, 7):
        tab = exponent_table(d)
        assert tab["q_critical"] == Fraction(d * d + d, 2)
        assert tab["line_coeff"] == Fraction(d * d + d - 2, 2)
    code, out, _ = _capture(["exponents", "--d", "2"])
    assert code == 0
    assert "q_c=3" in out
    assert "1/p + 2/q = 1" in out
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 01: PASS — q_c and line coefficient exact for "
          f"d=2..6, d=2 banner printed ({elapsed:.2f}s)")


def test_c02_kappa_beta_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n_eq = 0
    for _ in range(500):
        d = int(rng.integers(3, 7))
        a = _random_type_tuple(rng, d)
        # closed form one step below the ambient dimension
        assert kappa(a, d - 1) == sum(a) - a[0]
        assert beta(d - 1, d) == Fraction(d * (d + 1), 2) - 1
        # domination with equality exactly at the nondegenerate tuple
        is_eq = kappa(a, d - 1) == beta(d - 1, d)
        assert is_eq == (a == tuple(range(1, d + 1)))
        n_eq += int(is_eq)
        al = Fraction(int(rng.integers(1, 4 * d + 1)), 4)
        assert kappa(a, al) >= beta(al, d)
    # force the equality branch once per dimension
    for d in range(3, 7):
        nd = tuple(range(1, d + 1))
        assert kappa(nd, d - 1) == beta(d - 1, d)
        assert kappa(nd, d) == beta(d, d) == Fraction(d * (d + 1), 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 02: PASS — 500 random tuples, kappa/beta exact, "
          f"{n_eq} random equality hits ({elapsed:.2f}s)")


def test_c03_torsion_and_type_detection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for d in (2, 3, 4, 5):
        curve = moment_curve(d)
        for t in rng.uniform(0.0, 1.0, size=200):
            worst = max(worst, abs(torsion_det(curve, float(t)) - 1.0))
    assert worst < 1e-9
    assert tuple(detect_type(monomial_curve([1, 3]), 0.0)) == (1, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 03: PASS — moment torsion == 1 (max err {worst:.1e}), "
          f"cubic-graph type at 0 is (1, 3) ({elapsed:.2f}s)")


def test_c04_stationary_and_curvature_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst_res, worst_rel = 0.0, 0.0
    for d in (2, 3):
        curve = moment_curve(d)
        phase = graph_phase(curve, sphere_cap_graph(d))
        for t in rng.uniform(0.02, 0.95, size=100):
            t = float(t)
            worst_res = max(worst_res, stationary_residual(phase, t))
            det = np.linalg.det(curvature_matrix(phase, t))
            want = torsion_det(curve, t) / eval_derivative(curve, t, 1)[0]
            worst_rel = max(worst_rel, abs(det - want) / abs(want))
    assert worst_res <= 1e-10
    assert worst_rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 04: PASS — residual <= {worst_res:.1e}, curvature "
          f"determinant identity rel err <= {worst_rel:.1e} at 100 t, "
          f"d=2,3 ({elapsed:.2f}s)")


def test_c05_calibrated_boxes_and_volume_slopes():
    t0 = time.perf_counter()
    cases = (
        (2, [2.0 ** k for k in range(6, 13)], 0.5, 0.25),
        (3, [2.0 ** k for k in range(4, 8)], 0.75, 0.75),
    )
    details = []
    for d, lams, delta, anchor in cases:
        phase = graph_phase(moment_curve(d), sphere_cap_graph(d))
        per_lam_c = []
        for lam in lams:
            part = partition_family(phase, delta, lam)
            # one calibration per interval; the family shares the min
            c_lam = min(
                calibrate_c(phase, float(tk), lam, interval=part.intervals[k])
                for k, tk in enumerate(part.anchors)
            )
            for k, tk in enumerate(part.anchors):
                sup = box_phase_check(phase, float(tk), lam, c_lam,
                                      interval=part.intervals[k])
                assert sup <= 1.0 / lam, (d, lam, k)
            per_lam_c.append(c_lam)
        c_fix = min(per_lam_c)
        vols = [knapp_box(phase, anchor, lam, c_fix).volume for lam in lams]
        slope, _ = ols_fit(np.log(lams), np.log(vols))
        target = box_volume_exponent(d)
        assert abs(slope - target) < 1e-12, (d, slope)
        details.append(f"d={d} c={c_fix:g} slope={slope:+.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 05: PASS — phase sup <= 1/lambda on every box, "
          f"exact volume slopes ({'; '.join(details)}) ({elapsed:.2f}s)")


def test_c06_bump_decay_slopes():
    t0 = time.perf_counter()
    cfg = SweepConfig(curve=moment_curve(2), family=BumpFamily(),
                      lams=(64.0, 128.0, 256.0, 512.0, 1024.0),
                      qs=(3.0, 4.0, 6.0), ps=(INF,), seed=0)
    res = decay_sweep(cfg)
    parts = []
    for q in (3.0, 4.0, 6.0):
        fit = res.fits[(INF, q)]
        err = abs(fit["norm_slope"] + 1.0 / q)
        assert err <= 0.05, (q, fit["norm_slope"])
        assert fit["resid_rms"] < 0.03, (q, fit["resid_rms"])
        parts.append(f"q={q:g}:{fit['norm_slope']:+.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0

    cfg3 = SweepConfig(curve=moment_curve(3), family=BumpFamily(),
                       lams=(16.0, 32.0, 64.0), qs=(7.0,), ps=(INF,),
                       seed=0)
    fit3 = decay_sweep(cfg3).fits[(INF, 7.0)]
    err3 = abs(fit3["norm_slope"] + 2.0 / 7.0)
    assert err3 <= 0.1, fit3["norm_slope"]
    print(f"criterion 06: PASS — d=2 slopes {' '.join(parts)} "
          f"(targets -1/q, rms < 0.03, {elapsed:.1f}s); "
          f"d=3 q=7 slope {fit3['norm_slope']:+.4f} within 0.1 of -2/7")


def test_c07_knapp_excess_slopes():
    t0 = time.perf_counter()
    cfg = SweepConfig(curve=moment_curve(2), family=KnappFamily(),
                      lams=tuple(2.0 ** k for k in range(6, 13)),
                      qs=(3.0, 4.0), ps=(INF, 1.5, 6.0), seed=0)
    res = decay_sweep(cfg)
    parts = []
    for p, q in ((INF, 3.0), (1.5, 3.0), (6.0, 4.0)):
        fit = res.fits[(p, q)]
        pred = float(cfg.family.predicted_excess(ExponentPoint.from_pq(p, q),
                                                 2))
        err = abs(fit["witness_slope"] - pred)
        assert err <= 0.02, (p, q, fit["witness_slope"], pred)
        parts.append(f"({p:g},{q:g}):{fit['witness_slope']:+.4f}~{pred:+.4f}")
    elapsed = time.perf_counter() - t0
    print(f"criterion 07: PASS — dual-box witness slopes match "
          f"(1/p + 2/q - 1)/4 within 0.02: {' '.join(parts)} "
          f"({elapsed:.1f}s)")


def test_c08_random_sign_lower_bound_band():
    t0 = time.perf_counter()
    cfg = SweepConfig(curve=moment_curve(2),
                      family=RandomFamily(delta=0.25, n_samples=64),
                      lams=(256.0, 1024.0, 4096.0), qs=(3.0,), ps=(INF,),
                      seed=0)
    res = khintchine_experiment(cfg)
    ratios = [r.ratio for r in res.records]
    assert all(r >= 1.0 for r in ratios)          # the bound actually holds
    band = res.band(3.0)
    assert band <= 3.0, ratios
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 08: PASS — mean power / lower bound in "
          f"[{min(ratios):.2f}, {max(ratios):.2f}], band {band:.2f} <= 3 "
          f"over lambda 2^8..2^12 ({elapsed:.1f}s)")


def test_c09_hyperplane_shadow_exponents():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for d in (3, 4):
        assert hyperplane_omega([1] + [0] * (d - 1), d) == d - 1
        assert hyperplane_omega([0] * (d - 1) + [1], d) == 0
    seen = set()
    for _ in range(25):
        for d in (3, 4):
            num = rng.integers(-6, 7, size=d)
            while not np.any(num):
                num = rng.integers(-6, 7, size=d)
            normal = [Fraction(int(v), int(rng.integers(1, 5))) for v in num]
            om = hyperplane_omega(normal, d)
            assert 0 <= om <= d - 1, (normal, d, om)
            seen.add((d, om))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 09: PASS — axis normals give d-1 and 0; 50 random "
          f"rational normals stay in [0, d-1] (values {sorted(seen)}, "
          f"{elapsed:.1f}s)")


def test_c10_finite_type_necessity():
    t0 = time.perf_counter()
    curve = monomial_curve([1, 2, 4])
    kmax = kappa_max_scan(curve)
    # the flat point t=0 has type (1,2,4), so the scan must report
    # |a|_1 - a_1 = 6 there (the interior type (1,2,3) only gives 5)
    assert kmax == 6, kmax
    lams = [2.0 ** k for k in range(6, 13)]
    rho = 0.125
    c_shared = min(necessity_rect_sphere(curve, 0.0, lam, rho).c
                   for lam in lams)
    rects = [necessity_rect_sphere(curve, 0.0, lam, rho, c=c_shared)
             for lam in lams]
    for r in rects:
        assert r.phase_sup() <= 1e-2 / r.lam
    masses = [r.sigma_mass() for r in rects]
    slope, _ = ols_fit(np.log(lams), np.log(masses))
    target = -2.0 + rho * 6.0          # -(d-1) + rho (|a|_1 - a_1)
    assert abs(slope - target) <= 0.05, slope
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 10: PASS — kappa_max 6 from the scan, sigma-mass "
          f"slope {slope:+.5f} vs {target:+.2f} at t0=0, rho=1/8 "
          f"({elapsed:.1f}s)")


def test_c11_two_codim_graph_construction():
    t0 = time.perf_counter()
    patch = submanifold_builder(4, 2, moment_curve(4))
    ts = np.linspace(0.05, 0.9, 9)
    for order in (1, 2):
        assert np.max(np.abs(patch.mixed_grad(ts, order))) <= 1e-8
    a1, a2, b1, b2 = patch.blocks(ts)
    dets = np.linalg.det(np.block([[a1, a2], [b1, b2]]))
    assert np.all(np.abs(dets) > 1e-6)
    schur = np.linalg.det(a1) * np.linalg.det(patch.curvature_block(ts))
    assert np.max(np.abs(dets - schur) / np.abs(dets)) <= 1e-9

    res = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0),
                          (7.0, 8.0, 9.0), extent=0.75)
    assert res.q_critical == 8.0
    lams = sorted({r.lam for r in res.records})
    dlog = math.log(lams[1]) - math.log(lams[0])
    measured = {}
    for q in (7.0, 8.0, 9.0):
        recs = sorted((r for r in res.records if r.q == q),
                      key=lambda r: r.lam)
        assert all(r.field_ok for r in recs)
        ys = [math.log(r.lam ** (-q / 8.0) * 0.75 * r.lam ** 0.125
                       * r.box_volume / r.lam ** -2.0) for r in recs]
        sl = (ys[1] - ys[0]) / dlog
        assert abs(sl - res.slopes[q]) <= 0.05, (q, sl)
        measured[q] = sl
    assert measured[7.0] > 0 and measured[9.0] < 0   # sign flip across q_c
    assert abs(measured[8.0]) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 11: PASS — graph conditions to 1e-8, dets > 1e-6, "
          f"block identity to 1e-9; excess slopes "
          f"{measured[7.0]:+.4f}/{measured[8.0]:+.4f}/{measured[9.0]:+.4f} "
          f"flip sign at q=8 ({elapsed:.1f}s)")


def test_c12_dimension_audits():
    t0 = time.perf_counter()
    checks = (
        ("circle", sphere_measure(2, 1024), 1.0, 1500, 0.4, 0.025),
        ("sphere", sphere_measure(3, 128), 2.0, 600, 0.4, 0.1),
        ("singular", singular_alpha_measure(2, 1.5, 32), 1.5, 400, 0.5,
         0.125),
    )
    for name, mu, alpha, n, f_hi, f_lo in checks:
        hi = dimension_audit(mu, alpha, n_samples=n, seed=1, r_floor=f_hi)
        lo = dimension_audit(mu, alpha, n_samples=n, seed=1, r_floor=f_lo)
        assert lo < 1.3 * hi, (name, hi, lo)     # stays bounded
        whi = dimension_audit(mu, alpha + 0.5, n_samples=n, seed=1,
                              r_floor=f_hi)
        wlo = dimension_audit(mu, alpha + 0.5, n_samples=n, seed=1,
                              r_floor=f_lo)
        assert wlo > 1.5 * whi, (name, whi, wlo)  # wrong alpha blows up
    base = singular_alpha_measure(2, 1.5, 32)
    kv = kappa((1, 2), Fraction(3, 2))
    assert kv == Fraction(5, 2)
    vals = [
        dimension_audit(scaled_measure(base, (1, 2), ell, kv), 1.5,
                        n_samples=400, seed=1, r_floor=0.3 * 2.0 ** -ell)
        for ell in range(6)
    ]
    assert max(vals) <= 1.2 * vals[0], vals      # dilates keep one constant
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 12: PASS — right-exponent audits flat, wrong-exponent "
          f"audits grow >= 1.5x under floor shrink, scaled dilates bounded "
          f"(max {max(vals):.2f} vs base {vals[0]:.2f}) ({elapsed:.1f}s)")


def test_c13_csv_determinism():
    t0 = time.perf_counter()
    dcfg = SweepConfig(curve=moment_curve(2), family=BumpFamily(),
                       lams=(16.0, 32.0), qs=(3.0,), ps=(INF,), seed=5)
    assert decay_sweep(dcfg).csv_text == decay_sweep(dcfg).csv_text
    rcfg = SweepConfig(curve=moment_curve(2),
                       family=RandomFamily(delta=0.25, n_samples=32),
                       lams=(256.0,), qs=(3.0,), ps=(INF,), seed=7)
    assert (khintchine_experiment(rcfg).csv_text
            == khintchine_experiment(rcfg).csv_text)
    k1 = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0), (7.0, 9.0))
    k2 = kdim_experiment(4, 2, moment_curve(4), (16.0, 32.0), (7.0, 9.0))
    assert k1.csv_text == k2.csv_text
    elapsed = time.perf_counter() - t0
    print(f"criterion 13: PASS — decay, random-sign, and graph experiments "
          f"rerun byte-identical ({elapsed:.1f}s)")
