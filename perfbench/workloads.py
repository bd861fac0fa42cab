"""The three benchmark workloads, run through rlab's public entry points.

Each workload has ``parse(seed)`` (part of set-up), ``run(inputs)`` (the
timed, user-visible calls) and ``check(inputs, out, full)`` (untimed
correctness gates).  Calls go through module attributes (``measures.
sphere_measure(...)``) so that a traced run sees them.  ``full`` turns on
the costly gates that need one repetition per run: the dense-reference
field check and the in-process rerun.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from fractions import Fraction

import numpy as np

import rlab  # noqa: F401  (the whole package, as the rlab command loads it)
from rlab import cli, config, exponents, extremal, harness, measures, oscillatory
from rlab.curves import moment_curve, monomial_curve

HERE = os.path.dirname(os.path.abspath(__file__))
INF = float("inf")
SAMPLE = 32                 # fixed node sample for the reference check
FIELD_GATE = 1e-10          # largest admissible field_rel_err


class Checks:
    """Named pass/fail gates plus the accuracy figures they measure."""

    def __init__(self):
        self.items = []
        self.slope_err = 0.0
        self.field_err = None

    def add(self, name: str, ok: bool, detail=""):
        self.items.append([name, bool(ok), str(detail)])

    def slope(self, name: str, got: float, want: float, tol: float):
        err = abs(got - want)
        self.slope_err = max(self.slope_err, err)
        self.add(name, err <= tol, f"{got:+.6f} vs {want:+.6f}")

    def field(self, name: str, err: float):
        self.field_err = err if self.field_err is None else max(self.field_err, err)
        self.add(name, err <= FIELD_GATE, f"{err:.3e}")


class Capture:
    """Keeps (args, result) of every call to a harness-imported function."""

    def __init__(self, name: str):
        self.calls = []
        inner = getattr(harness, name)

        def keep(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.calls.append((args, result))
            return result

        setattr(harness, name, keep)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_main(argv)
    return rc, buf.getvalue()


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _fit(x, y):
    """Least-squares slope and residual RMS of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    coef = np.polyfit(lx, ly, 1)
    return float(coef[0]), float(np.sqrt(np.mean((ly - np.polyval(coef, lx)) ** 2)))


def _sample(nodes, x0) -> np.ndarray:
    """Evenly spaced node indices plus the node nearest the bump point."""
    n = len(nodes)
    idx = (np.arange(SAMPLE) * n) // SAMPLE
    return np.append(idx, np.argmin(np.linalg.norm(nodes - x0, axis=1)))


def _bump_field_err(curve, lam, x0, nodes, values) -> float:
    from reference import segment_integral, sup_relative_error

    idx = _sample(nodes, x0)
    ref = segment_integral(curve, lam, nodes[idx], 0.0, 1.0,
                           modulation=(x0, lam))
    return sup_relative_error(values[idx], ref)


# ----------------------------------------------------------------------

class BumpD2:
    """rlab sweep --config bump-d2.ini: moment(2), bump, lam 64..512."""

    config = os.path.join(HERE, "bump-d2.ini")

    def parse(self, seed):
        argv = ["sweep", "--config", self.config, "--seed", str(seed)]
        args = cli.build_parser().parse_args(argv)
        cfg = config.sweep_config_from_file(args.config, {"seed": seed})
        return {"argv": argv, "config": cfg, "capture": Capture("field")}

    def run(self, inputs):
        return _cli(inputs["argv"])

    def check(self, inputs, out, full):
        ck = Checks()
        rc, text = out
        cfg = inputs["config"]
        ck.add("cli exit code", rc == 0, rc)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        cols = lines[0].split(",")
        rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
        ck.add("csv rows", len(rows) == len(cfg.lams) * len(cfg.qs) * len(cfg.ps),
               len(rows))
        printed = dict(
            (float(ln.split(" q=")[1].split(":")[0]),
             float(ln.split("norm_slope=")[1].split()[0]))
            for ln in text.splitlines() if ln.startswith("# fit"))
        for q in cfg.qs:
            sel = sorted((float(r["lambda"]), float(r["field_norm"]))
                         for r in rows if float(r["q"]) == q)
            slope, rms = _fit(*zip(*sel))
            ck.slope(f"q={q:g} slope vs -1/q", slope, -1.0 / q, 0.05)
            ck.add(f"q={q:g} fit residual < 0.03", rms < 0.03, f"{rms:.5f}")
            ck.add(f"q={q:g} printed slope", abs(printed.get(q, INF) - slope) < 1e-5,
                   printed.get(q))
        if full:
            lam = max(cfg.lams)
            (curve, _, f, mu), vals = next(
                (a[:4], v) for a, v in inputs["capture"].calls if a[1] == lam)
            x0 = np.asarray(f.segments[0].modulation[0])
            ck.field(f"field vs dense reference at lam={lam:g}",
                     _bump_field_err(curve, lam, x0, mu.nodes, vals))
            ck.add("in-process rerun byte-identical",
                   _cli(inputs["argv"]) == out)
        return ck, _digest(text)


class SphereD3:
    """The public pipeline behind c06's d=3 check, lam = 16 on S^2.

    A companion field at lam = 8 (a quarter of the nodes) gives the
    two-point L^7 slope that slope_err needs.
    """

    lams = (8.0, 16.0)
    qs = (2.0, 7.0, INF)

    def parse(self, seed):
        return {"curve": moment_curve(3), "x0": harness.default_bump_point(3)}

    def run(self, inputs):
        curve, x0 = inputs["curve"], inputs["x0"]
        norms, kept = {}, None
        for lam in self.lams:
            mu = measures.sphere_measure(3, measures.sphere_resolution_for(3, lam))
            f = extremal.bump_input(curve, lam, x0, 1.0)
            vals = oscillatory.field(curve, lam, f, mu)
            norms[lam] = [oscillatory.lq_norm(vals, mu, q) for q in self.qs]
            kept = (lam, mu.nodes, vals)
        return norms, kept

    def check(self, inputs, out, full):
        ck = Checks()
        norms, (lam, nodes, vals) = out
        lo, hi = self.lams
        slope = math.log(norms[hi][1] / norms[lo][1]) / math.log(hi / lo)
        ck.slope("L^7 two-point slope vs -2/7", slope, -2.0 / 7.0, 0.1)
        for l, row in norms.items():
            # |T f| <= ||f||_1 = 1, attained at the bump point x0
            ck.add(f"sup norm in (0.95, 1] at lam={l:g}",
                   0.95 < row[2] <= 1.0 + 1e-12, row[2])
        if full:
            ck.field(f"field vs dense reference at lam={lam:g}",
                     _bump_field_err(inputs["curve"], lam, inputs["x0"], nodes, vals))
        return ck, _digest(norms)


class AuditConstructions:
    """Kernel-bypass paths: dimension audits, calibrations, partitions."""

    extent = 0.75               # kdim parameter range, as in c11

    def parse(self, seed):
        return {
            "audit_argv": ["audit-measure", "--d", "3", "--kind", "sphere",
                           "--resolution", "64", "--seed", str(seed)],
            "c05": ((2, [2.0 ** k for k in range(6, 13)], 0.5, 0.25),
                    (3, [2.0 ** k for k in range(4, 8)], 0.75, 0.75)),
            "c10": (monomial_curve([1, 2, 4]), [2.0 ** k for k in range(6, 13)], 0.125),
            "kdim": (4, 2, moment_curve(4), (16.0, 32.0, 64.0),
                     (6.0, 7.0, 8.0, 9.0, 10.0)),
            "capture": Capture("eval_field"),
        }

    def run(self, inputs):
        # c12: the acceptance battery, at its own seed and floors
        c12 = []
        for mu, alpha, n, f_hi, f_lo in (
                (measures.sphere_measure(2, 1024), 1.0, 1500, 0.4, 0.025),
                (measures.sphere_measure(3, 128), 2.0, 600, 0.4, 0.1),
                (measures.singular_alpha_measure(2, 1.5, 32), 1.5, 400, 0.5, 0.125)):
            c12.append([measures.dimension_audit(mu, a, n_samples=n, seed=1,
                                                 r_floor=fl)
                        for a in (alpha, alpha + 0.5) for fl in (f_hi, f_lo)])
        base = measures.singular_alpha_measure(2, 1.5, 32)
        kv = exponents.kappa((1, 2), Fraction(3, 2))
        dilates = [measures.dimension_audit(
            measures.scaled_measure(base, (1, 2), ell, kv), 1.5, n_samples=400,
            seed=1, r_floor=0.3 * 2.0 ** -ell) for ell in range(6)]
        audit = _cli(inputs["audit_argv"])

        # c05: partitions, per-interval calibration, phase checks, box volumes
        c05 = []
        for d, lams, delta, anchor in inputs["c05"]:
            phase = oscillatory.graph_phase(moment_curve(d), measures.sphere_cap_graph(d))
            sups, per_lam_c = [], []
            for lam in lams:
                part = extremal.partition_family(phase, delta, lam)
                c_lam = min(extremal.calibrate_c(phase, float(tk), lam,
                                                 interval=part.intervals[k])
                            for k, tk in enumerate(part.anchors))
                sups += [extremal.box_phase_check(phase, float(tk), lam, c_lam,
                                                  interval=part.intervals[k]) * lam
                         for k, tk in enumerate(part.anchors)]
                per_lam_c.append(c_lam)
            vols = [extremal.knapp_box(phase, anchor, lam, min(per_lam_c)).volume
                    for lam in lams]
            c05.append((d, lams, max(sups), vols))

        # c10: finite-type necessity rectangles at the flat point t = 0
        curve, lams, rho = inputs["c10"]
        kmax = exponents.kappa_max_scan(curve)
        c_shared = min(extremal.necessity_rect_sphere(curve, 0.0, lam, rho).c
                       for lam in lams)
        rects = [extremal.necessity_rect_sphere(curve, 0.0, lam, rho, c=c_shared)
                 for lam in lams]
        c10 = (kmax, [r.phase_sup() * r.lam for r in rects],
               [r.sigma_mass() for r in rects])

        kdim = harness.kdim_experiment(*inputs["kdim"], extent=self.extent)
        return c12, dilates, audit, c05, c10, kdim

    def check(self, inputs, out, full):
        ck = Checks()
        c12, dilates, (rc, audit_text), c05, c10, kdim = out
        for name, (hi, lo, whi, wlo) in zip(("circle", "sphere", "singular"), c12):
            ck.add(f"c12 {name} right alpha stays bounded", lo < 1.3 * hi, (hi, lo))
            ck.add(f"c12 {name} wrong alpha grows", wlo > 1.5 * whi, (whi, wlo))
        ck.add("c12 scaled dilates keep one constant",
               max(dilates) <= 1.2 * dilates[0], dilates)
        ratio = float(audit_text.rsplit(":", 1)[-1]) if rc == 0 else math.nan
        ck.add("audit-measure exit code and finite ratio",
               rc == 0 and 0 < ratio < math.inf, audit_text.strip())

        for d, lams, sup, vols in c05:
            ck.add(f"c05 d={d} phase sup <= 1/lambda on every box", sup <= 1.0, sup)
            ck.slope(f"c05 d={d} box-volume slope", _fit(lams, vols)[0],
                     extremal.box_volume_exponent(d), 1e-12)

        kmax, sups, masses = c10
        curve, lams, rho = inputs["c10"]
        ck.add("c10 kappa_max scan is 6", kmax == 6, kmax)
        ck.add("c10 phase sup <= 1e-2/lambda", max(sups) <= 1e-2, max(sups))
        ck.slope("c10 sigma-mass slope", _fit(lams, masses)[0], -2.0 + 6 * rho, 0.05)

        d, k, _, lams, qs = inputs["kdim"]
        ck.add("kdim q_critical is 8", kdim.q_critical == 8.0, kdim.q_critical)
        ck.add("kdim field_ok on every box lattice",
               all(r.field_ok for r in kdim.records))
        excess = {}
        for q in qs:
            recs = sorted((r for r in kdim.records if r.q == q), key=lambda r: r.lam)
            # lambda^{-q/(2d)} N(lambda) |P| / lambda^{-k}, N = extent lambda^{1/(2d)}
            ys = [r.lam ** (-q / (2 * d)) * self.extent * r.lam ** (1 / (2 * d))
                  * r.box_volume / r.lam ** -k for r in recs]
            excess[q] = _fit([r.lam for r in recs], ys)[0]
            ck.slope(f"kdim q={q:g} excess slope", excess[q], kdim.slopes[q], 0.05)
        ck.add("kdim excess flips sign at q=8",
               all((excess[q] > 0) == (q < 8) for q in qs if q != 8)
               and abs(excess[8.0]) <= 0.05, excess)

        if full:
            from reference import segment_integral, sup_relative_error

            for (phase, lam, f, ylat), vals in (
                    (a[:4], v) for a, v in inputs["capture"].calls):
                seg = f.segments[0]
                ref = segment_integral(phase.curve, lam, phase.embed(ylat),
                                       seg.start, seg.end, seg.modulation,
                                       seg.coefficient)
                ck.field(f"kdim field vs dense reference at lam={lam:g}",
                         sup_relative_error(vals, ref))
        return ck, _digest(c12, dilates, audit_text, c05, c10, kdim.csv_text)


WORKLOADS = {"bump-d2": BumpD2(), "sphere-d3": SphereD3(),
             "audit-constructions": AuditConstructions()}
