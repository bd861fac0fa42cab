"""Brute-force references shared by the audit, chart, field and witness
tests.

Each computes from the definition, with no pruning or blocking, or by a
construction rlab has since replaced, what rlab computes fast; the tests
compare the two bit for bit.
"""

import math

import numpy as np
import scipy.spatial

from rlab.errors import DataError, DomainError
from rlab.measures import gauss_legendre
from rlab.oscillatory import PANEL_ORDER, eval_field


def kdtree_min_spacing(mu):
    """The positive second-neighbour distance from scipy's cKDTree."""
    pts = mu.nodes
    if pts.shape[0] > 40000:
        rng = np.random.default_rng(0)
        pts = pts[rng.choice(pts.shape[0], 40000, replace=False)]
    dist, _ = scipy.spatial.cKDTree(pts).query(pts, k=2)
    positive = dist[:, 1][dist[:, 1] > 0]
    if positive.size == 0:
        raise DataError("degenerate node set")
    return float(np.min(positive))


def audit_reference(mu, alpha, n_samples=10000, seed=0, r_floor=None):
    """The brute-force audit: every node against every sampled ball."""
    rng = np.random.default_rng(seed)
    nodes, weights = mu.nodes, mu.weights
    n = nodes.shape[0]
    lo_box = nodes.min(axis=0)
    hi_box = nodes.max(axis=0)
    diam = float(np.linalg.norm(hi_box - lo_box))
    floor = 4.0 * kdtree_min_spacing(mu) if r_floor is None else float(r_floor)
    floor = min(floor, 0.5 * diam)
    idx = rng.integers(0, n, size=n_samples)
    jitter_scale = mu.max_spacing if np.isfinite(mu.max_spacing) else floor
    centers = nodes[idx] + rng.normal(scale=jitter_scale, size=(n_samples, mu.dim))
    radii = floor * (diam / floor) ** rng.uniform(size=n_samples)
    worst = 0.0
    for i in np.argsort(radii):
        x = centers[i]
        r = radii[i]
        d2 = np.sum((nodes - x) ** 2, axis=1)
        mass = float(np.sum(weights[d2 <= r * r]))
        ratio = mass / r**alpha
        if ratio > worst:
            worst = ratio
    return worst


def calibrate_reference(full_sup, bound):
    """The dyadic calibration scan on the full lattice alone.

    The first c in 8, 4, 2, 1, 1/2, ... down to 2^-20 whose full-lattice
    sup ``full_sup(c)`` is at most bound, a DomainError counting as a
    refusal; None when there is none.
    """
    c = 8.0
    while c >= 2.0 ** -20:
        try:
            if full_sup(c) <= bound:
                return c
        except DomainError:
            pass
        c *= 0.5
    return None


def _m_one_shot(patch, ts):
    """M(t) = -B1 A1^{-1} at every t in one batch, shape (n, k, l)."""
    a1, _, b1, _ = patch.blocks(ts)
    zt = np.linalg.solve(np.swapaxes(a1, 1, 2), np.swapaxes(b1, 1, 2))
    return -np.swapaxes(zt, 1, 2)


class OneShotChart:
    """A SubmanifoldPatch's chart maps with each M(t) batch taken whole.

    value, jacobian, mixed_grad and curvature_block evaluate every t-node
    of a call in one batch: 32 Gauss-Legendre nodes per unique
    coordinate for value, one node per unique coordinate for jacobian.
    """

    def __init__(self, patch):
        self.patch = patch

    def value(self, y):
        p = self.patch
        x, w = np.polynomial.legendre.leggauss(32)
        out = np.zeros((y.shape[0], p.l))
        for i in range(p.k):
            s, inv = np.unique(y[:, i], return_inverse=True)
            ts = 0.5 * s[:, None] * (x[None, :] + 1.0)
            ws = 0.5 * s[:, None] * w[None, :]
            mvals = _m_one_shot(p, ts.ravel()).reshape(s.size, 32, p.k, p.l)
            out += np.einsum("ng,ngkl->nkl", ws, mvals)[:, i, :][inv]
        return out

    def jacobian(self, y):
        p = self.patch
        out = np.zeros((y.shape[0], p.l, p.k))
        for i in range(p.k):
            s, inv = np.unique(y[:, i], return_inverse=True)
            out[:, :, i] = _m_one_shot(p, s)[:, i, :][inv]
        return out

    def mixed_grad(self, ts, order):
        p = self.patch
        gam = p.curve.eval_many(ts, order)
        return (np.einsum("nkl,nl->nk", _m_one_shot(p, ts), gam[:, :p.l])
                + gam[:, p.l:])

    def curvature_block(self, ts):
        a1, a2, b1, b2 = self.patch.blocks(ts)
        return b2 - b1 @ np.linalg.solve(a1, a2)


def axis_cells_loop(resolution):
    """The singular grid's axis cells, (lo, hi) sorted by lo, appended one
    cell at a time: the uniform cells off the middle two, the cells of
    each of 16 dyadic octaves on both sides, and the plug at 0."""
    n_u = 4 * resolution
    edges = np.linspace(-1.0, 1.0, n_u + 1)
    h0 = edges[1] - edges[0]
    lo, hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= -h0 + 1e-15 or a >= h0 - 1e-15:
            lo.append(a)
            hi.append(b)
    n_sub = max(4, resolution // 8)
    for mth in range(16):
        outer = h0 * 2.0**(-mth)
        inner = h0 * 2.0**(-mth - 1)
        sub = np.linspace(inner, outer, n_sub + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            lo.extend([a, -b])
            hi.extend([b, -a])
    plug = h0 * 2.0**-16
    lo.append(-plug)
    hi.append(plug)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    order = np.argsort(lo)
    return lo[order], hi[order]


def singular_grid_by_table(d, alpha, lo, hi):
    """(nodes, weights, max_spacing) of the singular alpha-grid on the axis
    cells (lo, hi), with ceil(alpha) = 1 on its own path and every base
    point clipped against every cell in one n_base x n_cells table."""
    ca = math.ceil(alpha)
    s = alpha - ca
    mid = 0.5 * (lo + hi)
    def anti(x):
        return np.sign(x) * np.abs(x) ** (s + 1.0) / (s + 1.0)

    first_mass = anti(hi) - anti(lo)
    plain_mass = hi - lo
    if ca == 1:
        nodes_free = mid[:, None]
        weights = first_mass
        keep = weights > 0
        nodes_free, weights = nodes_free[keep], weights[keep]
    else:
        axes_mid = [mid] * (ca - 1)
        axes_mass = [first_mass] + [plain_mass] * (ca - 2)
        grids = np.meshgrid(*axes_mid, indexing="ij")
        base = np.column_stack([g.ravel() for g in grids])
        wg = np.meshgrid(*axes_mass, indexing="ij")
        wbase = np.prod(np.stack([g.ravel() for g in wg]), axis=0)
        r2 = 1.0 - np.sum(base * base, axis=1)
        keep = r2 > 0
        base, wbase, r2 = base[keep], wbase[keep], r2[keep]
        rmax = np.sqrt(r2)
        clo = np.clip(lo[None, :], -rmax[:, None], rmax[:, None])
        chi = np.clip(hi[None, :], -rmax[:, None], rmax[:, None])
        seg = chi - clo
        bi, ci = np.nonzero(seg > 0)
        last_mid = 0.5 * (clo[bi, ci] + chi[bi, ci])
        nodes_free = np.column_stack([base[bi], last_mid])
        weights = wbase[bi] * seg[bi, ci]
    nodes = np.concatenate(
        [np.zeros((nodes_free.shape[0], d - ca)), nodes_free], axis=1)
    return nodes, weights, float(np.max(hi - lo))


def panel_nodes(seg, n_panels):
    """Composite Gauss-Legendre nodes/weights over the segment, as explicit
    arrays: the layout eval_field's recurrence walks."""
    gx, gw = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(seg.start, seg.end, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    ts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    return ts, ws


def box_field(phase, lam, f, box, n=9):
    """F on box.lattice(n) and the panels the panel rule used: the box
    field of the dual-box witness as it stood before _box_witness."""
    stats = {}
    vals = eval_field(phase, lam, f, box.lattice(n), stats=stats)
    return vals, stats["panels"]


def box_weights(phase, box, n=9):
    """Surface-measure weights of box.lattice(n) on a graph chart: the
    tensor composite-Simpson weight of each axis-box point over |det M|,
    times the chart area element sqrt(1 + |grad phi|^2); the witness
    weights as they stood before _box_witness."""
    simpson = np.r_[1.0, np.tile([4.0, 2.0], n // 2)[:-1], 1.0] / (3 * (n - 1))
    w = np.ones(1)
    for h in box.half_widths:        # axis step 2h/(n - 1)
        w = np.multiply.outer(w, 2.0 * h * simpson).ravel()
    jac = phase.patch.jacobian(box.lattice(n))[:, 0, :]
    return (w * np.sqrt(1.0 + np.sum(jac * jac, axis=1))
            / abs(np.linalg.det(box.transform)))
