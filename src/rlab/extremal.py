"""Extremal constructions: stationary maps, dual boxes, frames, and inputs.

Everything that witnesses sharpness lives here: the stationary point map
g(t) and curvature matrix M(t) of a chart phase, the calibrated dual
parallelepipeds on which the oscillatory field stays essentially constant,
the orthonormal frame adapted to a degenerate parameter, and the three
input families (short-interval, modulated bump, random signs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .measures import GraphPatch, SubmanifoldPatch, cap_box_sigma_mass
from .oscillatory import PhaseSpec, Segment, TestFunction

LATTICE_DEFAULT = 33
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

    def contains(self, y: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = (y - self.center) @ self.transform
        return np.all(np.abs(x) <= self.half_widths * (1.0 + slack), axis=1)

    def _from_axis(self, x: np.ndarray) -> np.ndarray:
        """Map axis-box coordinates back to ambient points (rows)."""
        return self.center + np.linalg.solve(self.transform.T, x.T).T

    def corners(self) -> np.ndarray:
        m = self.dim
        signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * m),
                                     indexing="ij")).reshape(m, -1).T
        return self._from_axis(signs * self.half_widths)

    def lattice(self, n_per_axis: int = LATTICE_DEFAULT) -> np.ndarray:
        """Tensor lattice including all corners, mapped into the set."""
        if n_per_axis < 2:
            raise ValueError("need at least 2 lattice points per axis")
        axes = [np.linspace(-h, h, n_per_axis) for h in self.half_widths]
        grid = np.array(np.meshgrid(*axes, indexing="ij"))
        x = grid.reshape(self.dim, -1).T
        return self._from_axis(x)


# ----------------------------------------------------------------------
# stationary map and curvature matrix
# ----------------------------------------------------------------------

def grad_y(phase: PhaseSpec, y: np.ndarray, t: float) -> np.ndarray:
    """gradient_y Psi(y, t) for a single chart point, shape (m,)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if phase.kind == "extension":
        return phase.curve.eval_many([t], 0)[0]
    patch = phase.patch
    if isinstance(patch, SubmanifoldPatch):
        gam = phase.curve.eval_many([t], 0)[0]
        jac = patch.jacobian(y)[0]                      # (l, k)
        return jac.T @ gam[: patch.l] + gam[patch.l:]
    gam = phase.curve.eval_many([t], 0)[0]
    grad_phi = patch.jacobian(y)[0, 0]
    return grad_phi * gam[0] + gam[1:]


def solve_stationary(phase: PhaseSpec, t: float) -> np.ndarray:
    """The point g(t) where d_t grad_y Psi vanishes, for a chart phase.

    Sphere caps get the closed form g = v / sqrt(1 + |v|^2) with
    v = -gamma_*'(t)/gamma_1'(t); integral graphs are stationary on the
    diagonal by construction.  Extension phases have no stationary map.
    """
    if phase.kind != "graph":
        raise StationaryError("stationary map needs a chart phase")
    patch = phase.patch
    if isinstance(patch, SubmanifoldPatch):
        return np.full(patch.k, float(t))
    dgam = phase.curve.eval_many([t], 1)[0]
    if abs(dgam[0]) < 1e-14:
        raise StationaryError(
            f"first curve component has vanishing derivative at t={t}")
    v = -dgam[1:] / dgam[0]
    return v / math.sqrt(1.0 + float(v @ v))


def stationary_residual(phase: PhaseSpec, t: float) -> float:
    """|d_t grad_y Psi(g(t), t)|, computed from the curve directly."""
    g = solve_stationary(phase, t)
    patch = phase.patch
    if isinstance(patch, SubmanifoldPatch):
        return float(np.max(np.abs(patch.mixed_grad([t], 1)[0])))
    dgam = phase.curve.eval_many([t], 1)[0]
    grad_phi = patch.jacobian(np.atleast_2d(g))[0, 0]
    return float(np.max(np.abs(grad_phi * dgam[0] + dgam[1:])))


def curvature_matrix(phase: PhaseSpec, t: float,
                     det_floor: float = 1e-8) -> np.ndarray:
    """Matrix M(t) with columns d_t^{j+1} grad_y Psi(g(t), t).

    Both chart kinds have an exact form.  Chart phases over the sphere
    use -(gamma_1^{(j+1)}/gamma_1') gamma_*' + gamma_*^{(j+1)}; integral
    graphs take the Schur-complement block.  Extension phases have no
    curvature matrix.
    """
    if phase.kind != "graph":
        raise DegeneracyError("curvature matrix needs a chart phase")
    if isinstance(phase.patch, SubmanifoldPatch):
        mat = phase.patch.curvature_block([t])[0]
    else:
        d1 = phase.curve.eval_many([t], 1)[0]
        if abs(d1[0]) < 1e-14:
            raise DegeneracyError(
                f"gamma_1'({t}) vanishes; chart frame breaks down")
        cols = []
        for j in range(1, phase.curve.dim):
            dj = phase.curve.eval_many([t], j + 1)[0]
            cols.append(-(dj[0] / d1[0]) * d1[1:] + dj[1:])
        mat = np.column_stack(cols)
    if abs(np.linalg.det(mat)) < det_floor:
        raise DegeneracyError(
            f"|det M({t})| < {det_floor}: curvature condition fails")
    return mat


def mixed_determinant(phase: PhaseSpec, t: float) -> float:
    """det grad_y d_t grad_y Psi at (g(t), t) for sphere chart phases.

    Equals gamma_1'(t)^{d-1} det H phi(g(t)); the d = 2 case reduces to
    the product gamma_1' * det H phi.
    """
    patch = phase.patch
    if not isinstance(patch, GraphPatch):
        raise DegeneracyError("mixed determinant implemented for sphere caps")
    g = np.atleast_2d(solve_stationary(phase, t))
    hess = patch.hessian(g)[0]
    d1 = phase.curve.eval_many([t], 1)[0][0]
    return float(d1 ** (phase.curve.dim - 1) * np.linalg.det(hess))


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


def _box_axes(phase: PhaseSpec) -> np.ndarray:
    """Frequency-scale exponents i for each box axis (as integers)."""
    d = phase.curve.dim
    if isinstance(phase.patch, SubmanifoldPatch):
        k = phase.patch.k
        return np.arange(d - k + 1, d + 1)
    return np.arange(2, d + 1)


def knapp_box(phase: PhaseSpec, t_k: float, lam: float, c: float,
              rho: float | None = None) -> Parallelepiped:
    """Dual box at the anchor: {y : M(t_k)^T (y - g(t_k)) in R}.

    The axis rectangle R has half-widths c lambda^{-1+i rho} where i runs
    over 2..d for hypersurface charts and d-k+1..d for k-dimensional
    graphs; rho defaults to 1/(2d).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    d = phase.curve.dim
    if rho is None:
        rho = 1.0 / (2 * d)
    axes = _box_axes(phase)
    hw = c * lam ** (-1.0 + axes * rho)
    return Parallelepiped(center=solve_stationary(phase, t_k),
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


def _box_phase_sup(phase: PhaseSpec, t_k: float, lam: float, c: float,
                   interval: tuple, rho: float | None,
                   n_lattice: int, n_t: int) -> float:
    box = knapp_box(phase, t_k, lam, c, rho=rho)
    red = reduced_phase(phase, t_k)
    ypts = box.lattice(n_lattice)
    dom = getattr(phase.patch, "domain_radius", np.inf)
    if np.any(np.linalg.norm(ypts, axis=1) >= dom):
        raise DomainError("box sticks out of the chart domain")
    ts = np.linspace(interval[0], interval[1], n_t)
    return float(np.max(np.abs(red(ypts, ts))))


def _largest_dyadic_c(admissible: Callable[[float], bool],
                      where: str) -> float:
    """First c in 8, 4, 2, 1, 1/2, ... down to C_FLOOR with admissible(c);
    a DomainError counts as a refusal."""
    c = 8.0
    while c >= C_FLOOR:
        try:
            if admissible(c):
                return c
        except DomainError:
            pass
        c *= 0.5
    raise CalibrationError(f"no admissible c above {C_FLOOR} {where}")


def _default_interval(phase: PhaseSpec, t_k: float, lam: float) -> tuple:
    """The interval of length lambda^{-1/(2d)} ending at the anchor."""
    d = phase.curve.dim
    return (max(t_k - lam ** (-1.0 / (2 * d)), 0.0), t_k)


def calibrate_c(phase: PhaseSpec, t_k: float, lam: float,
                interval: tuple | None = None, rho: float | None = None,
                threshold: float | None = None,
                n_lattice: int = LATTICE_DEFAULT) -> float:
    """Largest dyadic c with sampled sup |reduced phase| <= 1/lambda.

    Scans c = 8, 4, 2, 1, 1/2, ... and returns the first admissible
    value, so doubling the result always violates the bound (or the
    chart domain).  Raises below 2^-20.
    """
    if interval is None:
        interval = _default_interval(phase, t_k, lam)
    if threshold is None:
        threshold = 1.0 / lam
    return _largest_dyadic_c(
        lambda c: _box_phase_sup(phase, t_k, lam, c, interval, rho,
                                 n_lattice, n_lattice) <= threshold,
        f"at t_k={t_k}, lambda={lam}")


def box_phase_check(phase: PhaseSpec, t_k: float, lam: float, c: float,
                    interval: tuple | None = None,
                    rho: float | None = None,
                    n_lattice: int = LATTICE_DEFAULT) -> float:
    """Sampled sup of |reduced phase| on the box-interval product."""
    if interval is None:
        interval = _default_interval(phase, t_k, lam)
    return _box_phase_sup(phase, t_k, lam, c, interval, rho,
                          n_lattice, n_lattice)


# ----------------------------------------------------------------------
# interval partitions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionFamily:
    """Uniform intervals of [0, delta] with per-anchor box data.

    Interval I_k = [t_{k-1}, t_k] has its anchor at the right endpoint;
    y_k = g(t_k) and M(t_k) are precomputed, along with the ambient
    modulation points x_k used by the sign inputs.
    """

    phase: PhaseSpec
    delta: float
    lam: float
    edges: np.ndarray
    anchors: np.ndarray
    ys: np.ndarray
    mats: np.ndarray
    mod_points: np.ndarray

    @property
    def ell(self) -> int:
        return self.anchors.size

    @property
    def intervals(self) -> tuple:
        return tuple((float(a), float(b))
                     for a, b in zip(self.edges[:-1], self.edges[1:]))

    def boxes(self, c: float, rho: float | None = None) -> list:
        return [knapp_box(self.phase, float(tk), self.lam, c, rho=rho)
                for tk in self.anchors]

    def segment(self, k: int, sign: int = 1) -> Segment:
        a, b = self.intervals[k]
        return Segment(a, b, modulation=(tuple(self.mod_points[k]), self.lam),
                       sign=sign)

    def random_signs(self, seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=self.ell) * 2 - 1


def partition_family(phase: PhaseSpec, delta: float,
                     lam: float) -> PartitionFamily:
    """ell = round(delta lambda^{1/(2d)}) uniform intervals of [0, delta]."""
    d = phase.curve.dim
    scale = lam ** (-1.0 / (2 * d))
    if scale > delta * (1.0 + 1e-12):
        raise ValueError(
            f"need lambda^(-1/(2d)) <= delta; got {scale:.4g} vs {delta}")
    ell = max(1, round(delta / scale))
    edges = np.linspace(0.0, delta, ell + 1)
    anchors = edges[1:]
    ys = np.vstack([solve_stationary(phase, float(t)) for t in anchors])
    mats = np.stack([curvature_matrix(phase, float(t)) for t in anchors])
    mods = phase.embed(ys)
    return PartitionFamily(phase=phase, delta=float(delta), lam=float(lam),
                           edges=edges, anchors=anchors, ys=ys, mats=mats,
                           mod_points=mods)


# ----------------------------------------------------------------------
# input families
# ----------------------------------------------------------------------

def knapp_input(t0: float, lam: float, rho: float,
                modulation: tuple | None = None) -> TestFunction:
    """Characteristic function of [t0, t0 + lambda^-rho].

    ``modulation`` is an optional ambient point x0; the segment then
    carries the factor e^{-i lam x0 . curve(t)} that recenters the field.
    """
    mod = None if modulation is None else (tuple(np.atleast_1d(modulation)),
                                           float(lam))
    return TestFunction((Segment(t0, t0 + lam ** -rho, modulation=mod),))


def bump_input(curve: Curve, lam: float, x0, eps0: float) -> TestFunction:
    """chi_[0, eps0] times e^{-i lam x0 . curve(t)}."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != curve.dim:
        raise ValueError("x0 dimension mismatch")
    return TestFunction(
        (Segment(0.0, eps0, modulation=(tuple(x0), float(lam))),))


def random_sign_input(partition: PartitionFamily, seed) -> TestFunction:
    """Rademacher signs on the partition intervals, each recentered.

    Segment k is epsilon_k chi_{I_k} e^{-i lam x_k . curve(t)} with x_k
    the embedded anchor y_k, so every piece is essentially constant on
    its own dual box.
    """
    signs = partition.random_signs(seed)
    return TestFunction(tuple(partition.segment(k, int(s))
                              for k, s in enumerate(signs)))


# ----------------------------------------------------------------------
# adapted frame and rectangle at a degenerate parameter
# ----------------------------------------------------------------------

def adapted_frame(curve: Curve, t0: float, a: tuple | None = None):
    """Orthonormal v_1..v_d with v_i orthogonal to the first d-i
    derivative directions gamma^(a_1)..gamma^(a_{d-i}) at t0.

    Returns (V, a) where column i of V is v_{i+1} and a is the type
    tuple used.  The sign of v_d is fixed by v_d . gamma^(a_1) > 0.
    """
    d = curve.dim
    if a is None:
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

    @property
    def modulation_point(self) -> np.ndarray:
        return -self.frame[:, -1]

    def embed(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        r2 = np.sum(y * y, axis=1)
        if np.any(r2 >= 1.0):
            raise DomainError("chart point outside the unit ball")
        height = -np.sqrt(1.0 - r2)    # phi(y) - 1
        v = self.frame
        return y @ v[:, :-1].T + height[:, None] * v[:, -1][None, :]

    def phase(self, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Reduced phase (Sum y_i v_i + phi(y) v_d) . (gamma(t+t0)-gamma(t0))."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        r2 = np.sum(y * y, axis=1)
        if np.any(r2 >= 1.0):
            raise DomainError("chart point outside the unit ball")
        phi = 1.0 - np.sqrt(1.0 - r2)
        v = self.frame
        pts = y @ v[:, :-1].T + phi[:, None] * v[:, -1][None, :]
        dgam = (self.curve.eval_many(ts + self.t0, 0)
                - self.curve.eval_many([self.t0], 0))
        return pts @ dgam.T

    def phase_sup(self, n_lattice: int = LATTICE_DEFAULT) -> float:
        ypts = self.box.lattice(n_lattice)
        ts = np.linspace(0.0, self.lam ** -self.rho, n_lattice)
        return float(np.max(np.abs(self.phase(ypts, ts))))

    def sigma_mass(self, n_gl: int = 24) -> float:
        return cap_box_sigma_mass(self.curve.dim, self.box.half_widths,
                                  n_gl=n_gl)

    def input(self) -> TestFunction:
        return knapp_input(self.t0, self.lam, self.rho,
                           modulation=self.modulation_point)


def _necessity_half_widths(a: tuple, lam: float, rho: float,
                           c: float) -> np.ndarray:
    d = len(a)
    return np.array([c * lam ** (-1.0 + rho * a[d - i]) for i in range(1, d)])


def necessity_rect_sphere(curve: Curve, t0: float, lam: float, rho: float,
                          c: float | None = None) -> NecessityRect:
    """Rectangle R_a on the sphere adapted to the type tuple at t0.

    Axis i of the chart pairs with derivative order a_{d+1-i}; the
    constraint rho < 1/(2 a_d - a_1) keeps the quadratic chart height
    harmless.  c = None calibrates the largest dyadic constant with
    sampled sup |phase| <= 10^-2 / lambda.
    """
    frame, a = adapted_frame(curve, t0)
    d = curve.dim
    rho_cap = 1.0 / (2 * a[-1] - a[0])
    if not 0 < rho < rho_cap:
        raise ValueError(
            f"rho must lie in (0, {rho_cap:.4g}) for type {a}; got {rho}")

    def build(cv: float) -> NecessityRect:
        hw = _necessity_half_widths(a, lam, rho, cv)
        box = Parallelepiped(center=np.zeros(d - 1),
                             transform=np.eye(d - 1), half_widths=hw)
        return NecessityRect(curve=curve, t0=float(t0), lam=float(lam),
                             rho=float(rho), c=float(cv), a=a,
                             frame=frame, box=box)

    if c is None:
        c = _largest_dyadic_c(lambda cv: build(cv).phase_sup() <= 1e-2 / lam,
                              f"for type {a} at lambda={lam}")
    return build(c)


# ----------------------------------------------------------------------
# boxes for k-dimensional graphs
# ----------------------------------------------------------------------

def kdim_boxes(phase: PhaseSpec, lam: float, c: float,
               extent: float | None = None) -> list:
    """Calibrated-scale dual boxes along the diagonal g(t) = (t,..,t).

    The parameter range is tiled by the usual lambda^{-1/(2d)} rule and
    each anchor gets the box {y : M(t_m)^T (y - g(t_m)) in R-bar}.
    """
    patch = phase.patch
    if not isinstance(patch, SubmanifoldPatch):
        raise ValueError("kdim boxes need an integral-graph phase")
    if extent is None:
        extent = patch.extent
    part = partition_family(phase, extent, lam)
    return [knapp_box(phase, float(tm), lam, c) for tm in part.anchors]
