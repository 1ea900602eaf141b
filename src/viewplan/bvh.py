"""Segment/triangle occlusion: one flattened BVH walked level by level.

``Bvh.occluded`` answers a batch of segments as breadth-first ray packets
(Wald et al. 2001). Each step drops the (segment, node) pairs whose segment
misses the node's box (a slab test) and retires segments found occluded. The
pairs at leaves expand to (segment, triangle) pairs, which pass a second slab
test against each triangle's own box before the element-wise Moller-Trumbore
kernel ``_hits`` sees them; on the compare scene that cull removes about 77%
of the leaf pairs.

A node splits at the spatial midpoint of the longest axis of its triangles'
box centres, so a child's box shrinks with the space it covers and the slab
tests prune early. When the smaller side would hold fewer than an eighth of
the node's triangles (clustered or coincident centres), it splits at the
count median instead; no child then holds more than 7/8 of its parent's
triangles, which bounds the depth by log_{8/7} of the triangle count.

Everything the walk reads is stored as (3, n) component arrays: node and
triangle boxes, and each triangle's ``v0``, ``e1 = v1 - v0`` and
``e2 = v2 - v0``. The slab tests and the kernel then work one coordinate at a
time on flat arrays, with no (pairs, 3, 3) gather and no reduction over a
length-3 axis. The kernel's cross and dot products round like ``np.cross``
and ``(x * y).sum(axis=-1)``, term for term.

Boxes are padded by ``_BOX_PAD`` times the largest coordinate, because a
segment grazing a triangle's edge or vertex passes within rounding of the
triangle's box, where the kernel may count a hit that an unpadded slab test
drops. The padding is what makes the triangle-box test safe, and a node's
padded box contains the padded boxes of its triangles, so the node test is
safe too. The answers therefore equal those of running ``_hits`` on every
segment and every triangle, the brute-force oracle the tests keep. Hits with
segment parameter within a relative 1e-6 of either endpoint are discarded
(self-intersection guard for queries that start or end on the mesh surface).
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


def _cross(a, b):
    """Cross product of component triples, in ``np.cross``'s operand order."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    """Dot product of component triples, added like ``(x * y).sum(axis=-1)``
    adds a length-3 axis."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _hits(v0, e1, e2, origins, deltas) -> np.ndarray:
    """Element-wise hits of segments ``origins + s * deltas`` on the triangles
    with corner ``v0`` and edges ``e1``, ``e2``, counting only s strictly
    inside (T_EPS, 1 - T_EPS). Each operand is a (3, ...) component array;
    the components broadcast against each other like numpy arrays."""
    p = _cross(deltas, e2)
    det = _dot(e1, p)
    ok = np.abs(det) > _DET_EPS
    inv = np.where(ok, det, 1.0)
    tvec = origins - v0
    u = _dot(tvec, p) / inv
    q = _cross(tvec, e1)
    v = _dot(deltas, q) / inv
    t = _dot(e2, q) / inv
    hit = ok & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    hit &= (t > T_EPS) & (t < 1.0 - T_EPS)
    return hit


def _edges(tris: np.ndarray):
    """(3, ...) components ``v0``, ``e1``, ``e2`` of triangles (..., 3, 3)."""
    v0 = tris[..., 0, :]
    return tuple(np.moveaxis(x, -1, 0) for x in (v0, tris[..., 1, :] - v0, tris[..., 2, :] - v0))


def _crosses(lo, hi, box, sources, inv, seg) -> np.ndarray:
    """True where segment ``seg[i]`` meets box ``box[i]``; ``lo``, ``hi``,
    ``sources`` and ``inv`` (the reciprocal deltas) are (3, n) components."""
    t0, t1 = 0.0, 1.0
    for k in range(3):
        s, r = sources[k].take(seg), inv[k].take(seg)
        # 0 * inf is NaN where a segment with no extent along an axis lies on
        # a box face; fmax and fmin skip it, so the axis is passed
        with np.errstate(invalid="ignore"):
            a = (lo[k].take(box) - s) * r
            b = (hi[k].take(box) - s) * r
        t0 = np.fmax(t0, np.minimum(a, b))
        t1 = np.fmin(t1, np.maximum(a, b, out=b))
    return t0 <= t1


class Bvh:
    """Midpoint-split hierarchy over triangle bounds, stored as flat arrays.

    Node ``k`` has the box ``lo[:, k]..hi[:, k]``; an inner node's children
    are ``child[k]`` and ``child[k] + 1``, a leaf has ``child[k] == -1`` and
    holds the triangles ``start[k] : start[k] + count[k]`` of the per-triangle
    arrays ``v0``, ``e1``, ``e2``, ``tri_lo`` and ``tri_hi``, which are ordered
    so that every leaf's triangles are contiguous. Every array is (3, n), one
    row per coordinate, and every box is padded.
    """

    def __init__(self, triangles: np.ndarray):
        tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
        tri_lo, tri_hi = tris.min(axis=1), tris.max(axis=1)
        # each triangle's box and box centre in one row, so that one gather and
        # two reductions give a node both its box and its centres' bounds
        boxes = np.hstack([tri_lo, tri_hi, 0.5 * (tri_lo + tri_hi)])
        perm = np.arange(len(tris))
        start, stop, child, lo, hi = [0], [len(tris)], [], [], []
        for a, b in zip(start, stop):  # breadth-first; the loop appends children
            idx = perm[a:b]
            x = boxes[idx]
            x_lo, x_hi = x.min(axis=0, initial=np.inf), x.max(axis=0, initial=-np.inf)
            lo.append(x_lo[:3])
            hi.append(x_hi[3:6])
            if b - a <= _LEAF_SIZE:
                child.append(-1)
                continue
            k = 6 + int(np.argmax(x_hi[6:] - x_lo[6:]))  # the centres' longest axis
            perm[a:b] = idx[np.argsort(x[:, k], kind="stable")]
            # the centres at or below the midpoint go left, unless either side
            # would hold fewer than an eighth of the triangles
            left = int(np.count_nonzero(x[:, k] <= 0.5 * (x_lo[k] + x_hi[k])))
            if 8 * min(left, b - a - left) < b - a:
                left = (b - a) // 2
            child.append(len(start))
            start += [a, a + left]
            stop += [a + left, b]
        pad = _BOX_PAD * np.abs(tris).max(initial=0.0)
        self.lo, self.hi, self.tri_lo, self.tri_hi = (
            np.ascontiguousarray(x.T)
            for x in (np.array(lo) - pad, np.array(hi) + pad, tri_lo[perm] - pad, tri_hi[perm] + pad)
        )
        self.v0, self.e1, self.e2 = (np.ascontiguousarray(x) for x in _edges(tris[perm]))
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
        src = np.ascontiguousarray(sources.T)
        deltas = np.ascontiguousarray(targets.T) - src
        with np.errstate(divide="ignore"):
            inv = 1.0 / deltas
        blocked = np.zeros(len(src[0]), dtype=bool)
        seg = np.arange(len(src[0]))
        node = np.zeros(len(seg), dtype=np.intp)
        while seg.size:
            near = _crosses(self.lo, self.hi, node, src, inv, seg)
            seg, node = seg[near], node[near]
            leaf = self.child[node] < 0
            count = self.count[node[leaf]]
            first = np.cumsum(count) - count
            pair_seg = np.repeat(seg[leaf], count)
            pair_tri = np.repeat(self.start[node[leaf]] - first, count) + np.arange(count.sum())
            near = _crosses(self.tri_lo, self.tri_hi, pair_tri, src, inv, pair_seg)
            pair_seg, pair_tri = pair_seg[near], pair_tri[near]
            hit = _hits(self.v0[:, pair_tri], self.e1[:, pair_tri], self.e2[:, pair_tri],
                        src[:, pair_seg], deltas[:, pair_seg])
            blocked[pair_seg[hit]] = True
            inner = ~leaf & ~blocked[seg]
            seg = np.repeat(seg[inner], 2)
            node = (self.child[node[inner], None] + [0, 1]).ravel()
        return blocked
