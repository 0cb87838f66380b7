"""Reference formulas shared by the test modules."""

import numpy as np

from msocc.geometry import unproject


def four_term_sample(image, u, v):
    """Reference bilinear sampler of a (C, H, W) image at continuous pixel
    coordinates (centers at integer + 0.5): the four weighted corner gathers
    as one expression, summed left to right, then masked to zero outside
    the hull of pixel centers."""
    c, h, w = image.shape
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    eps = 1e-9
    valid = (x >= -eps) & (x <= w - 1 + eps) & (y >= -eps) & (y <= h - 1 + eps)
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0c = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0c = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    fx = x - x0c
    fy = y - y0c
    img = image.reshape(c, -1)
    base = y0c * w + x0c
    last = h * w - 1
    s = (img[:, base] * (1 - fx) * (1 - fy)
         + img[:, np.minimum(base + 1, last)] * fx * (1 - fy)
         + img[:, np.minimum(base + w, last)] * (1 - fx) * fy
         + img[:, np.minimum(base + w + 1, last)] * fx * fy)
    return s * valid


def meshgrid_cell_centers(grid):
    """Reference (nx, ny, nz, 3) voxel centers of a VoxelGridSpec: the
    stacked float64 index meshgrid, shifted half a cell, scaled and offset
    as one expression."""
    ix, iy, iz = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny),
                             np.arange(grid.nz), indexing="ij")
    idx = np.stack([ix, iy, iz], axis=-1).astype(np.float64)
    return grid.origin + (idx + 0.5) * grid.voxel_size


def meshgrid_frustum_points(k, f, cam_to_ego):
    """Reference (D * H * W, 3) frustum lattice: the (d, v, u) meshgrid of
    bin centers and pixel centers, raveled, unprojected and mapped through
    cam_to_ego."""
    dd, vv, uu = np.meshgrid(f.bin_centers(), np.arange(k.height) + 0.5,
                             np.arange(k.width) + 0.5, indexing="ij")
    return cam_to_ego.apply(unproject(uu.ravel(), vv.ravel(), dd.ravel(), k))


def explicit_depth_ce(depth_logits, gt_depth, valid, f):
    """Reference depth cross-entropy and its gradient, written out: the
    softmax over bins at each valid pixel, the mean negative log-likelihood
    of the bin holding the ground-truth depth, and (p - one_hot) / n."""
    z = np.asarray(depth_logits, dtype=np.float64)
    v = np.asarray(valid, dtype=bool)
    labels = f.bin_of(np.asarray(gt_depth)[v])
    n = v.sum()
    zc = z[:, v] - z[:, v].max(axis=0, keepdims=True)
    p = np.exp(zc)
    p /= p.sum(axis=0, keepdims=True)
    loss = -np.log(p[labels, np.arange(n)]).sum() / n
    grad = np.zeros_like(z)
    grad[:, v] = (p - np.eye(len(z))[:, labels]) / n
    return float(loss), grad


def per_step_raymarch(occ, grid, origins, dirs):
    """Reference ray marcher: the per-step Amanatides-Woo traversal that
    fixtures.raymarch replaced, kept verbatim. Every step scans every ray,
    stopped or not, and rebuilds each flat index from the cell. Rays that
    miss the grid along an axis their direction does not move in make it
    warn (inf * 0 in the start cell), so call it under np.errstate."""
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    o, d = np.broadcast_arrays(o, d)
    n_rays = o.shape[0]
    n = np.array(grid.shape)
    vs = grid.voxel_size
    org = grid.origin

    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (org - o) / d
        t_hi = (org + n * vs - o) / d
    t1 = np.where(np.isnan(t_lo), -np.inf, np.minimum(t_lo, t_hi))
    t2 = np.where(np.isnan(t_hi), np.inf, np.maximum(t_lo, t_hi))
    # axes with zero direction: inside the slab or never
    zero = d == 0
    inside_slab = (o >= org) & (o < org + n * vs)
    t1 = np.where(zero, np.where(inside_slab, -np.inf, np.inf), t1)
    t2 = np.where(zero, np.where(inside_slab, np.inf, -np.inf), t2)
    t_enter = np.maximum(t1.max(axis=1), 0.0)
    t_exit = np.minimum(t2.min(axis=1), 100.0)

    active = t_enter < t_exit
    eps = 1e-9
    t = t_enter + eps
    cell = np.floor((o + t[:, None] * d - org) / vs).astype(np.int64)
    cell = np.clip(cell, 0, n - 1)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(d != 0, np.abs(vs / d), np.inf)
        next_bound = org + (cell + (step > 0)) * vs
        t_next = np.where(d != 0, (next_bound - o) / d, np.inf)

    t_hit = np.full(n_rays, np.inf)
    entry_t = t_enter.copy()
    occ_flat = np.asarray(occ).astype(bool).reshape(-1)
    strides = np.array([grid.ny * grid.nz, grid.nz, 1])

    max_steps = int(n.sum()) + 4
    for _ in range(max_steps):
        if not active.any():
            break
        flat = (cell[active] * strides).sum(axis=1)
        hit = occ_flat[flat]
        idx = np.nonzero(active)[0]
        hit_idx = idx[hit]
        t_hit[hit_idx] = entry_t[hit_idx]
        active[hit_idx] = False

        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        axis = np.argmin(t_next[idx], axis=1)
        t_cross = t_next[idx, axis]
        entry_t[idx] = t_cross
        cell[idx, axis] += step[idx, axis]
        t_next[idx, axis] += delta[idx, axis]
        out = ((cell[idx, axis] < 0) | (cell[idx, axis] >= n[axis])
               | (t_cross > t_exit[idx]))
        active[idx[out]] = False
    return t_hit
