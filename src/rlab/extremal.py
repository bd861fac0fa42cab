"""Extremal constructions: stationary maps, dual boxes, frames, and inputs.

Everything that witnesses sharpness lives here: the stationary point map
g(t) and curvature matrix M(t) of a chart phase (taken from its patch,
which alone knows the chart), the calibrated dual
parallelepipeds on which the oscillatory field stays essentially constant,
the orthonormal frame adapted to a degenerate parameter, the interval
partitions with their signed, recentered inputs, and the modulated bump
input.  The short-interval Knapp input is one ``indicator``, which
``harness.KnappFamily`` builds from its own support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .curves import Curve, detect_type
from .errors import (
    CalibrationError,
    DegeneracyError,
    DomainError,
    FrameError,
    StationaryError,
)
from .measures import cap_box_sigma_mass, sphere_cap_graph
from .oscillatory import PhaseSpec, Segment, TestFunction, indicator

LATTICE_DEFAULT = 33
_COARSE = 4                 # sub-lattice stride; it divides LATTICE_DEFAULT - 1
C_FLOOR = 2.0 ** -20


# ----------------------------------------------------------------------
# parallelepipeds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Parallelepiped:
    """The set {y : M^T (y - center) in axis box of given half-widths}."""

    center: np.ndarray
    transform: np.ndarray       # the matrix M
    half_widths: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        m = np.atleast_2d(np.asarray(self.transform, dtype=float))
        hw = np.atleast_1d(np.asarray(self.half_widths, dtype=float))
        if m.shape != (c.size, c.size) or hw.size != c.size:
            raise ValueError("inconsistent parallelepiped shapes")
        if not all(map(math.isfinite, (*c, *m.flat, *hw))):
            raise ValueError(
                "parallelepiped center, transform and half-widths must be finite")
        if np.any(hw <= 0):
            raise ValueError("half-widths must be positive")
        if abs(np.linalg.det(m)) < 1e-14:
            raise DegeneracyError("parallelepiped transform is singular")
        for arr in (c, m, hw):
            arr.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "transform", m)
        object.__setattr__(self, "half_widths", hw)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_widths)
                     / abs(np.linalg.det(self.transform)))

    def _from_axis(self, x: np.ndarray) -> np.ndarray:
        """Map axis-box coordinates back to ambient points (rows)."""
        return self.center + np.linalg.solve(self.transform.T, x.T).T

    def _axis_lattice(self, n_per_axis: int = LATTICE_DEFAULT) -> np.ndarray:
        """Tensor lattice of the axis box, all corners included (rows)."""
        if n_per_axis < 2:
            raise ValueError("need at least 2 lattice points per axis")
        axes = [np.linspace(-h, h, n_per_axis) for h in self.half_widths]
        grid = np.array(np.meshgrid(*axes, indexing="ij"))
        return grid.reshape(self.dim, -1).T

    def lattice(self, n_per_axis: int = LATTICE_DEFAULT) -> np.ndarray:
        """Tensor lattice including all corners, mapped into the set."""
        return self._from_axis(self._axis_lattice(n_per_axis))


# ----------------------------------------------------------------------
# stationary map and curvature matrix
# ----------------------------------------------------------------------

def _grad(phase: PhaseSpec, y: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """gradient_y of embed(y) . gam at one chart point, shape (m,): gam
    itself for an extension phase, else the graph part of gam through
    the chart Jacobian plus its base part."""
    patch = phase.patch
    if patch is None:
        return gam
    jac = patch.jacobian(np.atleast_2d(np.asarray(y, dtype=float)))[0]
    return jac.T @ gam[: patch.l] + gam[patch.l:]


def grad_y(phase: PhaseSpec, y: np.ndarray, t: float) -> np.ndarray:
    """gradient_y Psi(y, t) for a single chart point, shape (m,)."""
    return _grad(phase, y, phase.curve.eval_many([t], 0)[0])


def solve_stationary(phase: PhaseSpec, t: float) -> np.ndarray:
    """The point g(t) where d_t grad_y Psi vanishes, for a chart phase.

    Sphere caps have a closed form; integral graphs are stationary on the
    diagonal by construction.  Extension phases have no stationary map.
    """
    if phase.patch is None:
        raise StationaryError("stationary map needs a chart phase")
    return phase.patch.stationary(phase.curve, t)


def stationary_residual(phase: PhaseSpec, t: float) -> float:
    """|d_t grad_y Psi(g(t), t)|, computed from the curve directly."""
    g = solve_stationary(phase, t)
    return float(np.max(np.abs(
        _grad(phase, g, phase.curve.eval_many([t], 1)[0]))))


def curvature_matrix(phase: PhaseSpec, t: float) -> np.ndarray:
    """Matrix M(t) with columns d_t^{j+1} grad_y Psi(g(t), t).

    Both charts have an exact form (``curvature`` of the patch).
    Extension phases have no curvature matrix.
    """
    if phase.patch is None:
        raise DegeneracyError("curvature matrix needs a chart phase")
    mat = phase.patch.curvature(phase.curve, t)
    if abs(np.linalg.det(mat)) < 1e-8:
        raise DegeneracyError(
            f"|det M({t})| < 1e-08: curvature condition fails")
    return mat


# ----------------------------------------------------------------------
# reduced phase and calibrated boxes
# ----------------------------------------------------------------------

def reduced_phase(phase: PhaseSpec, t_k: float) -> Callable:
    """Psi(y,t) - Psi(y_k,t) - <grad_y Psi(y_k,t_k), y - y_k> on a grid.

    The subtracted pieces are a t-only phase (an input modulation) and a
    y-linear phase (a constant on the dual box); what remains is the part
    that must stay below 1/lambda on the box-interval product.
    """
    y_k = solve_stationary(phase, t_k)
    gy = grad_y(phase, y_k, t_k)

    def value(ypts: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ypts = np.atleast_2d(np.asarray(ypts, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        full = phase.values(ypts, ts, 0)
        base = phase.values(y_k[None, :], ts, 0)
        lin = (ypts - y_k) @ gy
        return full - base - lin[:, None]

    return value


def knapp_rho(d: int, rho: float | None = None) -> Fraction:
    """The Knapp exponent, exactly: 1/(2d) when rho is None, else rho,
    which must be finite and positive (ValueError)."""
    if rho is None:
        return Fraction(1, 2 * d)
    if not 0 < rho < math.inf:
        raise ValueError(f"rho {rho} must be finite and positive")
    return Fraction(rho)


def knapp_box(phase: PhaseSpec, t_k: float, lam: float, c: float,
              rho: float | None = None) -> Parallelepiped:
    """Dual box at the anchor: {y : M(t_k)^T (y - g(t_k)) in R}.

    The axis rectangle R has half-widths c lambda^{-1+i rho} where i runs
    over d-k+1..d for a chart of dimension k (2..d on sphere caps); rho
    is read by ``knapp_rho`` (1/(2d) by default).  A c that is not finite
    and positive gives half-widths that ``Parallelepiped`` refuses.
    """
    d = phase.curve.dim
    rho = float(knapp_rho(d, rho))
    center = solve_stationary(phase, t_k)
    axes = np.arange(d - center.size + 1, d + 1)
    hw = c * lam ** (-1.0 + axes * rho)
    return Parallelepiped(center=center,
                          transform=curvature_matrix(phase, t_k),
                          half_widths=hw)


def box_volume_exponent(d: int, k: int | None = None) -> float:
    """Exact log-lambda slope of the dual box volume at rho = 1/(2d).

    k is the number of box axes: d-1 for hypersurface charts (the
    default), or the graph codimension count for k-dimensional graphs.
    """
    if k is None:
        k = d - 1
    top = d * (d + 1) // 2
    cut = (d - k) * (d - k + 1) // 2
    return -k + (top - cut) / (2.0 * d)


def _box_samples(phase: PhaseSpec, t_k: float, lam: float, c: float,
                 interval: tuple) -> tuple:
    """The reduced phase at t_k, the lattice of the box of constant c and
    the t nodes of the interval, LATTICE_DEFAULT per axis.

    On a lattice that leaves the chart domain the reduced phase raises
    DomainError: the chart's embedding refuses it before any phase value
    is computed.
    """
    box = knapp_box(phase, t_k, lam, c)
    ypts = box.lattice(LATTICE_DEFAULT)
    ts = np.linspace(interval[0], interval[1], LATTICE_DEFAULT)
    return reduced_phase(phase, t_k), ypts, ts


def _phase_sup(value: Callable, ypts: np.ndarray, ts: np.ndarray) -> float:
    """Sup of |value| on the product of lattice points and t nodes."""
    return float(np.max(np.abs(value(ypts, ts))))


def _coarse_sup(value: Callable, ypts: np.ndarray, ts: np.ndarray) -> float:
    """Sup of |value| on the coarse sub-product of a LATTICE_DEFAULT grid.

    The rows are every _COARSE-th line of the box lattice ypts on every
    axis, and the t nodes every _COARSE-th of ts: the 9-line sub-lattice
    of the 33-line one.  They are sliced from the full arrays, so they are
    the same floats, and value gives them the same bits as on the full
    product; a sup above a threshold here is one there, which is why
    ``_largest_dyadic_c`` checks it first.
    """
    m = ypts.shape[1]
    every = (slice(None, None, _COARSE),) * m
    rows = ypts.reshape((LATTICE_DEFAULT,) * m + (m,))[every].reshape(-1, m)
    return _phase_sup(value, rows, ts[::_COARSE])


def _largest_dyadic_c(samples: Callable[[float], tuple], bound: float,
                      where: str) -> float:
    """First c in 8, 4, 2, 1, 1/2, ... down to C_FLOOR whose samples(c),
    a (value, lattice, t nodes) triple, keep sup |value| <= bound.

    A candidate is refused at once when its sup on the coarse sub-lattice
    (``_coarse_sup``) exceeds the bound, and is otherwise checked on the
    full lattice; the coarse points are full-lattice points, so c is the
    one the full check alone gives.  A DomainError counts as a refusal.
    """
    c = 8.0
    while c >= C_FLOOR:
        try:
            value, ypts, ts = samples(c)
            if (_coarse_sup(value, ypts, ts) <= bound
                    and _phase_sup(value, ypts, ts) <= bound):
                return c
        except DomainError:
            pass
        c *= 0.5
    raise CalibrationError(f"no admissible c above {C_FLOOR} {where}")


def calibrate_c(phase: PhaseSpec, t_k: float, lam: float,
                interval: tuple) -> float:
    """Largest dyadic c with sampled sup |reduced phase| <= 1/lambda, by
    ``_largest_dyadic_c``: doubling it breaks the bound (or the chart)."""
    return _largest_dyadic_c(
        lambda c: _box_samples(phase, t_k, lam, c, interval), 1.0 / lam,
        f"at t_k={t_k}, lambda={lam}")


def box_phase_check(phase: PhaseSpec, t_k: float, lam: float, c: float,
                    interval: tuple) -> float:
    """Sampled sup of |reduced phase| on the box-interval product."""
    return _phase_sup(*_box_samples(phase, t_k, lam, c, interval))


# ----------------------------------------------------------------------
# interval partitions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionFamily:
    """Uniform intervals of [0, delta] with per-anchor box data.

    Interval I_k = [t_{k-1}, t_k] has its anchor at the right endpoint;
    the ambient modulation point x_k, the embedded y_k = g(t_k), is
    precomputed for the inputs.  M(t_k), and with it the refusal of a
    degenerate anchor, comes with the anchor's box (``boxes``).
    """

    phase: PhaseSpec
    lam: float
    edges: np.ndarray
    anchors: np.ndarray
    mod_points: np.ndarray

    @property
    def ell(self) -> int:
        return self.anchors.size

    @property
    def intervals(self) -> tuple:
        return tuple((float(a), float(b))
                     for a, b in zip(self.edges[:-1], self.edges[1:]))

    def boxes(self, c: float) -> list:
        return [knapp_box(self.phase, float(tk), self.lam, c)
                for tk in self.anchors]

    def segment(self, k: int, sign: int = 1) -> Segment:
        """sign times the indicator of I_k, recentered at x_k."""
        a, b = float(self.edges[k]), float(self.edges[k + 1])
        return Segment(a, b, modulation=(tuple(self.mod_points[k]), self.lam),
                       sign=sign)

    def input(self, signs) -> TestFunction:
        """Signs on the partition intervals, each recentered.

        Segment k is signs[k] chi_{I_k} e^{-i lam x_k . curve(t)}, in
        interval order, so every piece is essentially constant on its own
        dual box.  signs holds one +-1 per interval (ValueError otherwise).
        """
        if len(signs) != self.ell:
            raise ValueError(f"need {self.ell} signs, got {len(signs)}")
        return TestFunction(tuple(self.segment(k, int(s))
                                  for k, s in enumerate(signs)))

    def random_signs(self, seed, draws: int = 1) -> np.ndarray:
        """draws rows of ell Rademacher signs, one per interval, from
        default_rng(seed); row j depends on seed and ell alone."""
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=(draws, self.ell)) * 2 - 1


def partition_family(phase: PhaseSpec, delta: float,
                     lam: float) -> PartitionFamily:
    """ell = round(delta lambda^{1/(2d)}) uniform intervals of [0, delta]."""
    d = phase.curve.dim
    scale = lam ** -float(knapp_rho(d))     # the boxes' default rho
    if scale > delta * (1.0 + 1e-12):
        raise ValueError(
            f"need lambda^(-1/(2d)) <= delta; got {scale:.4g} vs {delta}")
    ell = max(1, round(delta / scale))
    edges = np.linspace(0.0, delta, ell + 1)
    anchors = edges[1:]
    ys = np.vstack([solve_stationary(phase, float(t)) for t in anchors])
    return PartitionFamily(phase=phase, lam=float(lam), edges=edges,
                           anchors=anchors, mod_points=phase.embed(ys))


# ----------------------------------------------------------------------
# the modulated bump
# ----------------------------------------------------------------------

def bump_input(curve: Curve, lam: float, x0, eps0: float) -> TestFunction:
    """chi_[0, eps0] times e^{-i lam x0 . curve(t)}."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != curve.dim:
        raise ValueError("x0 dimension mismatch")
    return indicator(0.0, eps0, modulation=(x0, lam))


# ----------------------------------------------------------------------
# adapted frame and rectangle at a degenerate parameter
# ----------------------------------------------------------------------

def adapted_frame(curve: Curve, t0: float):
    """Orthonormal v_1..v_d with v_i orthogonal to the first d-i
    derivative directions gamma^(a_1)..gamma^(a_{d-i}) at t0.

    Returns (V, a) where column i of V is v_{i+1} and a is the type
    tuple at t0.  The sign of v_d is fixed by v_d . gamma^(a_1) > 0.
    """
    d = curve.dim
    a = detect_type(curve, t0)
    cols = np.column_stack([curve.eval_many([t0], int(ai))[0] for ai in a])
    q, r = np.linalg.qr(cols)
    diag = np.abs(np.diag(r))
    if np.any(diag < 1e-10 * max(1.0, float(np.max(diag)))):
        raise FrameError(
            f"derivative directions of orders {tuple(a)} are rank deficient")
    v = np.column_stack([q[:, d - i] for i in range(1, d)])
    vd = q[:, 0]
    if float(vd @ cols[:, 0]) < 0:
        vd = -vd
    frame = np.column_stack([v, vd])
    return frame, tuple(int(x) for x in a)


@dataclass(frozen=True)
class NecessityRect:
    """Anisotropic rectangle on the sphere chart over -v_d.

    The chart point y sits at Sum y_i v_i + (phi(y) - 1) v_d in ambient
    coordinates; the rectangle half-widths c lambda^{-1+rho a_{d+1-i}}
    shrink fastest along the most degenerate direction.
    """

    curve: Curve
    t0: float
    lam: float
    rho: float
    c: float
    a: tuple
    frame: np.ndarray
    box: Parallelepiped

    def phase(self, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Reduced phase (Sum y_i v_i + phi(y) v_d) . (gamma(t+t0)-gamma(t0))."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        phi = sphere_cap_graph(self.curve.dim).value(y)
        v = self.frame
        pts = y @ v[:, :-1].T + phi * v[:, -1][None, :]
        dgam = (self.curve.eval_many(ts + self.t0, 0)
                - self.curve.eval_many([self.t0], 0))
        return pts @ dgam.T

    def _samples(self) -> tuple:
        """The phase, the box lattice and the t nodes that phase_sup samples.

        The rectangle is an axis box of the chart, so its lattice is the
        axis lattice itself, with no solve against the identity.
        """
        return (self.phase, self.box._axis_lattice(LATTICE_DEFAULT),
                np.linspace(0.0, self.lam ** -self.rho, LATTICE_DEFAULT))

    def phase_sup(self) -> float:
        """Sup of |phase| on the full lattice-by-t-nodes product."""
        return _phase_sup(*self._samples())

    def sigma_mass(self) -> float:
        return cap_box_sigma_mass(self.curve.dim, self.box.half_widths)


def necessity_rect_sphere(curve: Curve, t0: float, lam: float, rho: float,
                          c: float | None = None) -> NecessityRect:
    """Rectangle R_a on the sphere adapted to the type tuple at t0.

    Axis i of the chart pairs with derivative order a_{d+1-i}; the
    constraint rho < 1/(2 a_d - a_1) keeps the quadratic chart height
    harmless.  c = None calibrates the largest dyadic constant with
    sampled sup |phase| <= 10^-2 / lambda, by ``_largest_dyadic_c`` on
    ``NecessityRect._samples``.
    """
    frame, a = adapted_frame(curve, t0)
    d = curve.dim
    rho_cap = 1.0 / (2 * a[-1] - a[0])
    if not 0 < rho < rho_cap:
        raise ValueError(
            f"rho must lie in (0, {rho_cap:.4g}) for type {a}; got {rho}")

    def build(cv: float) -> NecessityRect:
        hw = np.array([cv * lam ** (-1.0 + rho * a[d - i])
                       for i in range(1, d)])
        box = Parallelepiped(center=np.zeros(d - 1),
                             transform=np.eye(d - 1), half_widths=hw)
        return NecessityRect(curve=curve, t0=float(t0), lam=float(lam),
                             rho=float(rho), c=float(cv), a=a,
                             frame=frame, box=box)

    if c is None:
        c = _largest_dyadic_c(lambda cv: build(cv)._samples(), 1e-2 / lam,
                              f"for type {a} at lambda={lam}")
    return build(c)
