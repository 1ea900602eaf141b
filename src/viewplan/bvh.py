"""Segment/triangle occlusion: one flattened BVH walked level by level.

``Bvh.occluded`` answers a batch of segments as breadth-first ray packets
(Wald et al. 2001): each step drops the (segment, node) pairs whose segment
misses the node's box (a slab test), sends the pairs at leaves to the
element-wise Moller-Trumbore kernel ``_hits`` triangle by triangle, and
retires segments found occluded. Boxes are padded by ``_BOX_PAD`` times the
largest coordinate, because a segment grazing a triangle's edge or vertex
passes within rounding of its box, where the kernel may count a hit that an
unpadded slab test drops. So the answers equal those of ``segments_hit_any``,
which tests every segment against every triangle and is kept as the tests'
reference. Hits with segment parameter within a relative 1e-6 of either
endpoint are discarded (self-intersection guard for queries that start or end
on the mesh surface).
"""

from __future__ import annotations

import numpy as np

T_EPS = 1e-6  # endpoint guard, fraction of segment length
_DET_EPS = 1e-14
_BOX_PAD = 1e-9  # relative to the largest coordinate; far above rounding
_LEAF_SIZE = 8
# segments walked together; each segment's walk is independent of the others,
# and the cap bounds the (segment, node) and (segment, triangle) pair arrays
_BATCH = 4096


def _hits(tris: np.ndarray, origins: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Element-wise hits of segments ``origins + s * deltas`` on triangles
    ``tris`` (..., 3, 3), counting only s strictly inside (T_EPS, 1 - T_EPS).
    The operands broadcast against each other like numpy arrays."""
    v0 = tris[..., 0, :]
    e1 = tris[..., 1, :] - v0
    e2 = tris[..., 2, :] - v0
    p = np.cross(deltas, e2)
    det = (e1 * p).sum(axis=-1)
    ok = np.abs(det) > _DET_EPS
    inv = np.where(ok, det, 1.0)
    tvec = origins - v0
    u = (tvec * p).sum(axis=-1) / inv
    q = np.cross(tvec, e1)
    v = (deltas * q).sum(axis=-1) / inv
    t = (e2 * q).sum(axis=-1) / inv
    hit = ok & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    hit &= (t > T_EPS) & (t < 1.0 - T_EPS)
    return hit


def segments_hit_any(all_tris: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Brute-force occlusion: every segment against every triangle. The
    reference ``Bvh.occluded`` is tested against."""
    n = len(sources)
    out = np.zeros(n, dtype=bool)
    chunk = max(1, int(4_000_000 // max(1, len(all_tris))))
    for lo in range(0, n, chunk):
        src, dst = sources[lo : lo + chunk, None], targets[lo : lo + chunk, None]
        out[lo : lo + chunk] = _hits(all_tris[None], src, dst - src).any(axis=1)
    return out


class Bvh:
    """Median-split hierarchy over triangle bounds, stored as flat arrays.

    Node ``k`` has the box ``lo[k]..hi[k]``; an inner node's children are
    ``child[k]`` and ``child[k] + 1``, a leaf has ``child[k] == -1`` and holds
    the triangles ``tris[start[k] : start[k] + count[k]]`` (``tris`` is
    reordered so that every leaf's triangles are contiguous).
    """

    def __init__(self, triangles: np.ndarray):
        tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
        tri_lo, tri_hi = tris.min(axis=1), tris.max(axis=1)
        centers = 0.5 * (tri_lo + tri_hi)
        perm = np.arange(len(tris))
        start, stop, child, lo, hi = [0], [len(tris)], [], [], []
        for a, b in zip(start, stop):  # breadth-first; the loop appends children
            idx = perm[a:b]
            lo.append(tri_lo[idx].min(axis=0, initial=np.inf))
            hi.append(tri_hi[idx].max(axis=0, initial=-np.inf))
            if b - a <= _LEAF_SIZE:
                child.append(-1)
                continue
            axis = int(np.argmax(hi[-1] - lo[-1]))
            perm[a:b] = idx[np.argsort(centers[idx, axis], kind="stable")]
            mid = a + (b - a) // 2
            child.append(len(start))
            start += [a, mid]
            stop += [mid, b]
        self.tris = tris[perm]
        pad = _BOX_PAD * np.abs(tris).max(initial=0.0)
        self.lo, self.hi = np.array(lo) - pad, np.array(hi) + pad
        self.child = np.array(child)
        self.start = np.array(start)
        self.count = np.array(stop) - self.start

    def occluded(self, sources, targets) -> np.ndarray:
        """True where a triangle blocks the open segment ``sources[i]`` to
        ``targets[i]``; one point or N points of 3 coordinates each. Walks
        ``_BATCH`` segments at a time."""
        sources = np.asarray(sources, dtype=np.float64).reshape(-1, 3)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
        if len(sources) > _BATCH:
            return np.concatenate([
                self.occluded(sources[lo : lo + _BATCH], targets[lo : lo + _BATCH])
                for lo in range(0, len(sources), _BATCH)
            ])
        deltas = targets - sources
        with np.errstate(divide="ignore"):
            inv = 1.0 / deltas
        blocked = np.zeros(len(sources), dtype=bool)
        seg = np.arange(len(sources))
        node = np.zeros(len(sources), dtype=np.intp)
        while seg.size:
            # 0 * inf is NaN where a segment with no extent along an axis
            # lies on a box face; fmax and fmin skip it, so the axis is passed
            with np.errstate(invalid="ignore"):
                a = (self.lo[node] - sources[seg]) * inv[seg]
                b = (self.hi[node] - sources[seg]) * inv[seg]
            t0 = np.fmax.reduce(np.minimum(a, b), axis=1, initial=0.0)
            t1 = np.fmin.reduce(np.maximum(a, b), axis=1, initial=1.0)
            near = t0 <= t1
            seg, node = seg[near], node[near]
            leaf = self.child[node] < 0
            count = self.count[node[leaf]]
            first = np.cumsum(count) - count
            pair_seg = np.repeat(seg[leaf], count)
            pair_tri = np.repeat(self.start[node[leaf]] - first, count) + np.arange(count.sum())
            hit = _hits(self.tris[pair_tri], sources[pair_seg], deltas[pair_seg])
            blocked[pair_seg[hit]] = True
            inner = ~leaf & ~blocked[seg]
            seg = np.repeat(seg[inner], 2)
            node = (self.child[node[inner], None] + [0, 1]).ravel()
        return blocked
