"""Oscillatory-integral evaluation and norms.

Every phase is a curve phase x . curve(t): on the frequency side x is an
ambient point, on the chart side x is the embedding of a chart point
(graph embeddings of the sphere or of integral submanifolds).  The one
evaluation core handles both.  Panels are sized from an exact upper bound
on the t-derivative of the total phase, which is a polynomial in t: its
largest Bernstein coefficient over the segment.  Each panel then carries
at most PANEL_CAP = 4 pi radians, well inside the range where a 16-point
Gauss-Legendre rule is accurate to round-off (Trefethen, SIAM Review 50,
2008).

The panels of a segment have equal width h, so for each Gauss index the
t-nodes across panels form an arithmetic progression, on which the total
phase is a polynomial of degree D in the panel index.  Its forward
differences D^l Phi obey D^l Phi(k + 1) = D^l Phi(k) + D^(l+1) Phi(k),
with D^D Phi constant, so exp(i Phi) moves from panel to panel by D complex
multiplies: E_l *= E_(l+1) with E_l = exp(i D^l Phi).  The differences
are taken from the phase's t-coefficients (a binomial shift to the anchor,
then Stirling numbers), never by subtracting phase values.  Every
_ANCHOR panels (fewer from degree 3 on, see _anchor_spacing) they are
taken afresh and exponentiated exactly, which bounds the round-off the
recurrence accumulates (Press et al., Numerical Recipes, 3rd ed., 2007,
section 5.4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import DataError, ResolutionError
from .measures import QuadMeasure, gauss_legendre

PANEL_CAP = 4.0 * np.pi     # max phase increment per panel
PANEL_ORDER = 16            # Gauss-Legendre points per panel
MIN_PANELS = 4
_Y_CHUNK = 512
_ANCHOR = 32                # panels between re-anchors at phase degree <= 2


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One interval of a piecewise input.

    ``modulation`` is None or a pair (x0, lam) standing for the factor
    e^{-i lam x0 . curve(t)}; ``sign`` is the Rademacher factor kept
    separate from the amplitude so random draws stay visible.
    """

    start: float
    end: float
    amplitude: complex = 1.0 + 0.0j
    modulation: tuple | None = None
    sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("segment endpoints must be finite")
        if self.end < self.start:
            raise ValueError("segment must have end >= start")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        if not np.isfinite(complex(self.amplitude)):
            raise ValueError("amplitude must be finite")
        if self.modulation is not None:
            x0, lam = self.modulation
            x0 = tuple(float(v) for v in np.atleast_1d(x0))
            object.__setattr__(self, "modulation", (x0, float(lam)))

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def coefficient(self) -> complex:
        return self.sign * complex(self.amplitude)


@dataclass(frozen=True)
class TestFunction:
    """Piecewise input on the parameter interval: disjoint segments."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        ivals = sorted((s.start, s.end) for s in segs)
        for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
            if a1 < b0 - 1e-14:
                raise ValueError("segments must be pairwise disjoint")
        object.__setattr__(self, "segments", segs)

    @property
    def support_length(self) -> float:
        return sum(s.length for s in self.segments)

    def scaled(self, factor: complex) -> "TestFunction":
        return TestFunction(tuple(
            Segment(s.start, s.end, factor * s.amplitude, s.modulation, s.sign)
            for s in self.segments
        ))


def indicator(start: float, end: float, amplitude: complex = 1.0,
              modulation: tuple | None = None, sign: int = 1) -> TestFunction:
    return TestFunction((Segment(start, end, amplitude, modulation, sign),))


# ----------------------------------------------------------------------
# amplitude windows
# ----------------------------------------------------------------------

def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for u <= 0, 0 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        b = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class AmplitudeWindow:
    """Product bump: 1 inside |y_i| <= r_i, 0 outside |y_i| >= 2 r_i."""

    radii: tuple

    def __post_init__(self):
        r = tuple(float(v) for v in np.atleast_1d(self.radii))
        if any(v <= 0 for v in r):
            raise ValueError("window radii must be positive")
        object.__setattr__(self, "radii", r)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.ones(y.shape[0])
        for i, r in enumerate(self.radii):
            out *= _smooth_step(np.abs(y[:, i]) / r - 1.0)
        return out

    @property
    def support_radii(self) -> tuple:
        return tuple(2.0 * r for r in self.radii)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpec:
    """Phase Psi(y, t) = embed(y) . curve(t) of the chart-side operator.

    kind "extension": y is an ambient point x, Psi = x . curve(t).
    kind "graph": Psi = (patch_value(y) - offset, y) . curve(t); the
        sphere chart takes offset 1 (its height enters as phi(y) - 1),
        integral graphs take offset 0.

    A bivariate polynomial sum c[m, n] y^m t^n for scalar y is the
    extension phase of poly_curve(c) at the points (1, y, y^2, ...).
    """

    kind: str
    curve: Curve | None = None
    patch: object | None = None          # GraphPatch | SubmanifoldPatch
    offset: float = 0.0
    window: AmplitudeWindow | None = None

    def __post_init__(self):
        if self.kind not in ("extension", "graph"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.curve is None:
            raise ValueError("curve required")
        if self.kind == "graph" and self.patch is None:
            raise ValueError("patch required for graph phase")

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Map chart points to ambient frequency points."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "graph":
            return self.patch.embed(y, offset=self.offset)
        if y.shape[1] != self.curve.dim:
            raise ValueError("point dimension mismatch")
        return y

    def values(self, y: np.ndarray, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """d_t^order Psi on the product grid, shape (n_y, n_t)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.embed(y) @ self.curve.eval_many(ts, order).T


def graph_phase(curve: Curve, patch, offset: float | None = None,
                window: AmplitudeWindow | None = None) -> PhaseSpec:
    """Chart phase for a graph patch; sphere caps default to offset 1."""
    if offset is None:
        offset = 1.0 if getattr(patch, "kind", "") == "sphere_cap" else 0.0
    return PhaseSpec(kind="graph", curve=curve, patch=patch, offset=offset,
                     window=window)


def extension_phase(curve: Curve) -> PhaseSpec:
    return PhaseSpec(kind="extension", curve=curve)


# ----------------------------------------------------------------------
# evaluation core
# ----------------------------------------------------------------------

def _as_phase(curve_or_phase) -> PhaseSpec:
    if isinstance(curve_or_phase, PhaseSpec):
        return curve_or_phase
    if isinstance(curve_or_phase, Curve):
        return extension_phase(curve_or_phase)
    raise TypeError("expected a Curve or a PhaseSpec")


def _modulation_point(phase: PhaseSpec, seg: Segment) -> tuple | None:
    """(x0, lam_mod) of a modulated segment, checked against the curve."""
    if seg.modulation is None:
        return None
    x0, lam_mod = seg.modulation
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (phase.curve.dim,):
        raise ValueError("modulation point dimension mismatch")
    return x0, lam_mod


def _panel_nodes(seg: Segment, n_panels: int):
    """Composite Gauss-Legendre nodes/weights over the segment, as explicit
    arrays: the layout eval_field's recurrence walks."""
    gx, gw = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(seg.start, seg.end, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    ts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    return ts, ws


def _bernstein_matrix(a: float, b: float, width: int) -> np.ndarray:
    """Map the t-monomial coefficients of a polynomial of degree
    < width to its Bernstein coefficients on [a, b]."""
    n = width - 1
    shift = np.zeros((width, width))     # t = a + (b - a) s
    to_bern = np.zeros((width, width))
    for k in range(width):
        for j in range(k + 1):
            shift[k, j] = math.comb(k, j) * a ** (k - j) * (b - a) ** j
            to_bern[j, k] = math.comb(k, j) / math.comb(n, j)
    return shift @ to_bern


def _phase_rate_bound(phase: PhaseSpec, lam: float, seg: Segment,
                      ypts: np.ndarray) -> float:
    """Upper bound on |d/dt| of the total phase over the segment, for
    every point of ypts.

    Per point the t-derivative is a polynomial, basis(y) @ rows in the
    t-monomials, minus the modulation's.  On [start, end] it is a convex
    combination of its Bernstein basis polynomials, so the largest
    |Bernstein coefficient| bounds it.
    """
    mod = _modulation_point(phase, seg)
    rows = phase.curve._float_rows(1)
    basis = phase.embed(ypts)
    bern = rows @ _bernstein_matrix(seg.start, seg.end, rows.shape[1])
    shift = np.zeros(bern.shape[1])
    if mod is not None:
        x0, lam_mod = mod
        shift = lam_mod * (x0 @ bern)
    # elementwise, so a point's bound does not depend on the points
    # batched with it: the bound over all nodes is the widest chunk's
    sup = 0.0
    for col, off in zip(bern.T, shift):
        vals = np.full(basis.shape[0], -off)
        for b, c in zip(basis.T, lam * col):
            vals += c * b
        sup = max(sup, float(np.max(np.abs(vals, out=vals), initial=0.0)))
    return sup


def _segment_panel_count(phase: PhaseSpec, lam: float, seg: Segment,
                         ypts: np.ndarray) -> int:
    """Panels for the segment so each carries at most PANEL_CAP radians
    of phase at every point of ypts."""
    if seg.length == 0.0:
        return 0
    need = _phase_rate_bound(phase, lam, seg, ypts) * seg.length / PANEL_CAP
    return max(MIN_PANELS, int(math.ceil(need)))


def _scaled_stirling(width: int) -> np.ndarray:
    """l! S(i, l) at [i, l]: the l-th forward difference at 0, step 1, of
    u^i (S the Stirling numbers of the second kind)."""
    tab = np.zeros((width, width))
    tab[0, 0] = 1.0
    for i in range(1, width):
        for l in range(1, i + 1):
            tab[i, l] = l * (tab[i - 1, l] + tab[i - 1, l - 1])
    return tab


def _anchor_spacing(deg: int) -> int:
    """Panels between re-anchors of the recurrence for phase degree deg.

    m steps after an anchor, E_0 carries the rounding of E_l raised to the
    power C(m, l), so the largest amplification is C(K - 1, deg) for
    spacing K.  K is the largest spacing <= _ANCHOR whose amplification
    is at most degree 2's at _ANCHOR: 32 up to degree 2, 16 at degree 3,
    12 at degree 4.
    """
    budget = math.comb(_ANCHOR - 1, 2)
    spacing = _ANCHOR
    while spacing > 1 and math.comb(spacing - 1, deg) > budget:
        spacing -= 1
    return spacing


def _difference_maps(start: float, h: float, n_panels: int,
                     width: int) -> list:
    """Per anchor panel k0 (every _anchor_spacing-th), the matrix taking the
    t-coefficients c of a polynomial of degree D = width - 1 to its forward
    differences D^l, l < D, with step h at the Gauss nodes tau of panel k0.

    With Phi(tau + u h) = sum_i a_i u^i, a_i = h^i sum_k C(k, i) tau^(k-i)
    c_k, and D^l Phi(tau) = sum_i l! S(i, l) a_i.  Each matrix has shape
    (D * PANEL_ORDER, width), rows ordered by l, then tau.
    """
    deg = width - 1
    stir = _scaled_stirling(width)[:, :deg]
    taus = start + 0.5 * h * (1.0 + gauss_legendre(PANEL_ORDER)[0])
    maps = []
    for k0 in range(0, n_panels, _anchor_spacing(deg)):
        powers = (taus + k0 * h)[:, None] ** np.arange(width)
        out = np.zeros((deg, PANEL_ORDER, width))
        for k in range(width):
            for i in range(k + 1):
                scale = math.comb(k, i) * h ** i
                out[:, :, k] += np.outer(scale * stir[i], powers[:, k - i])
        maps.append(out.reshape(deg * PANEL_ORDER, width))
    return maps


def eval_field(curve_or_phase, lam: float, f: TestFunction,
               ypts: np.ndarray) -> np.ndarray:
    """Evaluate the operator at chart points, shape (n,) complex.

    Work is chunked over points; each chunk shares one panel layout per
    segment, sized from the chunk-wide phase-derivative bound.  Along the
    panels exp(i Phi) follows the forward-difference recurrence of the
    module docstring, re-anchored every _anchor_spacing(D) panels.
    """
    phase = _as_phase(curve_or_phase)
    ypts = np.atleast_2d(np.asarray(ypts, dtype=float))
    n = ypts.shape[0]
    out = np.zeros(n, dtype=complex)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    gw = gauss_legendre(PANEL_ORDER)[1]
    rows = phase.curve._float_rows(0)
    width = rows.shape[1]
    deg = width - 1
    spacing = _anchor_spacing(deg)
    maps = {}       # difference maps per segment layout, shared by chunks
    for lo in range(0, n, _Y_CHUNK):
        hi = min(n, lo + _Y_CHUNK)
        chunk = ypts[lo:hi]
        scaled = lam * phase.embed(chunk)
        acc = np.zeros(hi - lo, dtype=complex)
        for seg in f.segments:
            if seg.length == 0.0:
                continue
            n_panels = _segment_panel_count(phase, lam, seg, chunk)
            h = seg.length / n_panels
            mod = _modulation_point(phase, seg)
            x = scaled if mod is None else scaled - mod[1] * mod[0]
            coef = x @ rows                      # (m, D + 1) in t
            top = np.exp(1j * (math.factorial(deg) * h ** deg) * coef[:, deg])
            key = (seg.start, h, n_panels)
            if key not in maps:
                maps[key] = _difference_maps(seg.start, h, n_panels, width)
            total = np.zeros((PANEL_ORDER, hi - lo), dtype=complex)
            for k0, dmap in zip(range(0, n_panels, spacing), maps[key]):
                diffs = (dmap @ coef.T).reshape(deg, PANEL_ORDER, hi - lo)
                terms = [*np.exp(1j * diffs), top]
                for step in range(min(spacing, n_panels - k0)):
                    if step:
                        for l in range(deg):
                            terms[l] *= terms[l + 1]
                    total += terms[0]
            acc += seg.coefficient * ((0.5 * h * gw) @ total)
        out[lo:hi] = acc
    if phase.window is not None:
        out *= phase.window(ypts)
    return out


def extension_eval(curve: Curve, lam: float, f: TestFunction, x) -> complex:
    """T f at a single frequency point x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return complex(eval_field(curve, lam, f, x)[0])


def phase_eval(phase: PhaseSpec, lam: float, f: TestFunction, y) -> complex:
    """Chart-side operator at a single base point (0 outside the window)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if phase.window is not None and float(phase.window(y)[0]) == 0.0:
        return 0.0 + 0.0j
    return complex(eval_field(phase, lam, f, y)[0])


def field(curve_or_phase, lam: float, f: TestFunction, mu: QuadMeasure,
          strict: bool = False) -> np.ndarray:
    """Operator values on all measure nodes, in node order.

    Sphere measures are held to the frequency spacing rule (see
    sphere_spacing_rule); violations warn, or raise under strict.  Other
    measures are not checked.
    """
    from .measures import sphere_spacing_rule

    phase = _as_phase(curve_or_phase)
    if mu.provenance == "sphere":
        rule = sphere_spacing_rule(mu.dim, max(lam, 1.0))
        if mu.max_spacing > rule * (1 + 1e-9):
            msg = (f"measure spacing {mu.max_spacing:.3e} exceeds the "
                   f"lambda rule {rule:.3e} at lambda={lam:g}")
            if strict:
                raise ResolutionError(msg)
            warnings.warn(msg, stacklevel=2)
    return eval_field(phase, lam, f, mu.nodes)


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def lq_norm(values: np.ndarray, mu: QuadMeasure, q: float) -> float:
    """(integral |F|^q dmu)^{1/q}; q = inf gives the max over nodes."""
    values = np.asarray(values)
    if values.shape[0] != mu.size:
        raise DataError("field/measure size mismatch")
    if not q >= 1:
        raise ValueError("q >= 1 required")
    if math.isinf(q):
        return float(np.max(np.abs(values)))
    return float(np.sum(mu.weights * np.abs(values) ** q) ** (1.0 / q))


def lp_norm(f: TestFunction, p: float) -> float:
    """Exact L^p norm of a piecewise-constant-modulus input."""
    if not p >= 1:
        raise ValueError("p >= 1 required")
    lens = np.array([s.length for s in f.segments])
    mods = np.array([abs(s.coefficient) for s in f.segments])
    if math.isinf(p):
        return float(np.max(mods[lens > 0], initial=0.0))
    return float(np.sum(mods**p * lens) ** (1.0 / p))


def lorentz_norm(f: TestFunction, p: float, q: float) -> float:
    """L^{p,q} via the decreasing rearrangement, exact on step functions.

    ||f||_{p,q}^q = sum_j v_j^q (p/q)(T_j^{q/p} - T_{j-1}^{q/p}) where v_j
    are the distinct moduli in decreasing order and T_j the cumulative
    lengths; q = inf gives the weak-L^p functional sup v T^{1/p}.
    """
    if not (p >= 1 and q >= 1):
        raise ValueError("p, q >= 1 required")
    if math.isinf(p):
        if math.isinf(q):
            return lp_norm(f, math.inf)
        raise ValueError("p = inf requires q = inf")
    lens = np.array([s.length for s in f.segments])
    mods = np.array([abs(s.coefficient) for s in f.segments])
    keep = (lens > 0) & (mods > 0)
    lens, mods = lens[keep], mods[keep]
    if lens.size == 0:
        return 0.0
    order = np.argsort(-mods)
    lens, mods = lens[order], mods[order]
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    if math.isinf(q):
        return float(np.max(mods * cum[1:] ** (1.0 / p)))
    total = np.sum(mods**q * (p / q) * (cum[1:] ** (q / p) - cum[:-1] ** (q / p)))
    return float(total ** (1.0 / q))
