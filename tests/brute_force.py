"""Brute-force references shared by the audit tests.

Each computes from the definition, with no pruning, what
``rlab.measures`` computes fast; the tests compare the two bit for bit.
"""

import numpy as np
import scipy.spatial

from rlab.errors import DataError


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
