"""Segment/triangle occlusion: one flattened 4-wide BVH walked level by level.

``Bvh.occluded`` answers a batch of segments as breadth-first ray packets
(Wald et al. 2001). The walk runs over *items*, nodes and triangles alike,
whose padded boxes sit in one array. Each level holds (segment, node) pairs;
every pair expands to its node's children, and one slab test over all
(segment, item) pairs drops those whose segment misses the item's box. The
triangle items that pass go to the element-wise Moller-Trumbore kernel
``_hits``, which retires the segments it finds occluded, and the node items
that pass make the next level. A triangle's own box culls most pairs before
the kernel, about three quarters on the compare scene.

The tree is built in one breadth-first pass. A node's triangles split at the
spatial midpoint of the longest axis of their box centres, so a half's box
shrinks with the space it covers and the slab tests prune early. When the
smaller half would hold fewer than an eighth of the node's triangles
(clustered or coincident centres), they split at the count median instead;
no half then holds more than 7/8 of its node's triangles, which bounds the
depth by log_{8/7} of the triangle count. A node's children are its halves'
halves, or a half itself where that half fits in a leaf, so a node has two
to four children and the walk makes one slab test per two levels of halving
(the shallow BVH of Dammertz et al. 2008, here to halve numpy's per-call
cost rather than to fill SIMD lanes). A leaf's children are its at most
``_LEAF_SIZE`` triangles.

Segments are walked ``_BATCH`` at a time, and a level is tested in chunks of
at most ``_PAIRS`` (segment, item) pairs, so every temporary array of a slab
test or of the kernel stays that small however many boxes the segments cross;
only the pairs that pass a node's box are kept from one level to the next.

Everything the walk reads is stored as (3, n) component arrays: item boxes,
and each triangle's ``v0``, ``e1 = v1 - v0`` and ``e2 = v2 - v0``. The slab
tests and the kernel then work one coordinate at a time on flat arrays, with
no (pairs, 3, 3) gather and no reduction over a length-3 axis. The kernel's
cross and dot products round like ``np.cross`` and ``(x * y).sum(axis=-1)``,
term for term. The walk gathers with ``take`` and filters with ``nonzero``
and ``take``: on numpy 2.4, ``x[:, idx]`` and ``x[mask]`` took three to five
times as long at these sizes.

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
# and the cap bounds the per-segment arrays and the pairs kept between levels
_BATCH = 4096
# (segment, item) pairs tested together; the cap bounds every temporary array
# of a slab test or of the kernel, and keeps each (96 KB) below the size at
# which glibc maps fresh pages for every allocation
_PAIRS = 12288


def cross(a, b):
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
    p = cross(deltas, e2)
    det = _dot(e1, p)
    ok = np.abs(det) > _DET_EPS
    inv = np.where(ok, det, 1.0)
    tvec = origins - v0
    u = _dot(tvec, p) / inv
    q = cross(tvec, e1)
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
    # 0 * inf is NaN where a segment with no extent along an axis lies on a
    # box face; fmax and fmin skip it, so the axis is passed
    with np.errstate(invalid="ignore"):
        for k in range(3):
            s, r = sources[k].take(seg), inv[k].take(seg)
            a = (lo[k].take(box) - s) * r
            b = (hi[k].take(box) - s) * r
            t0 = np.fmax(t0, np.minimum(a, b))
            t1 = np.fmin(t1, np.maximum(a, b, out=b))
    return t0 <= t1


def _split(perm, boxes, a, b):
    """The unpadded box ``(lo, hi)`` of the triangles ``perm[a:b]`` and,
    unless they fit in a leaf, the ranges of ``perm`` that hold their two
    halves, after sorting ``perm[a:b]`` along the split axis; ``boxes`` holds
    each triangle's box and box centre in one row."""
    idx = perm[a:b]
    x = boxes[idx]
    x_lo, x_hi = x.min(axis=0, initial=np.inf), x.max(axis=0, initial=-np.inf)
    if b - a <= _LEAF_SIZE:
        return x_lo[:3], x_hi[3:6], ()
    k = 6 + int(np.argmax(x_hi[6:] - x_lo[6:]))  # the centres' longest axis
    perm[a:b] = idx[np.argsort(x[:, k], kind="stable")]
    # the centres at or below the midpoint go left, unless either side
    # would hold fewer than an eighth of the triangles
    left = int(np.count_nonzero(x[:, k] <= 0.5 * (x_lo[k] + x_hi[k])))
    if 8 * min(left, b - a - left) < b - a:
        left = (b - a) // 2
    return x_lo[:3], x_hi[3:6], ((a, a + left), (a + left, b))


class Bvh:
    """A 4-wide hierarchy over triangle bounds, stored as flat arrays of items.

    Items ``0 .. nodes - 1`` are nodes and items ``nodes + i`` are the
    triangles, in an order that keeps every leaf's triangles contiguous.
    Item ``j`` has the padded box ``lo[:, j]..hi[:, j]``; node ``k``'s
    children are the items ``first[k] : first[k] + count[k]``, nodes for an
    inner node and triangles for a leaf. Triangle ``i``'s corner and edges
    are column ``i`` of ``v0``, ``e1`` and ``e2``. Every array is (3, n), one
    row per coordinate.
    """

    def __init__(self, triangles: np.ndarray):
        tris = np.asarray(triangles, dtype=np.float64).reshape(-1, 3, 3)
        tri_lo, tri_hi = tris.min(axis=1), tris.max(axis=1)
        # each triangle's box and box centre in one row, so that one gather and
        # two reductions give a node both its box and its centres' bounds
        boxes = np.hstack([tri_lo, tri_hi, 0.5 * (tri_lo + tri_hi)])
        perm = np.arange(len(tris))
        # numbering the nodes breadth-first keeps each node's children contiguous
        spans, first, fan, lo, hi = [(0, len(tris))], [], [], [], []
        for a, b in spans:  # the loop appends children
            box_lo, box_hi, halves = _split(perm, boxes, a, b)
            lo.append(box_lo)
            hi.append(box_hi)
            if not halves:
                first.append(a)  # a triangle index; its item id below
                fan.append(b - a)
                continue
            kids = [g for h in halves
                    for g in (_split(perm, boxes, *h)[2] if h[1] - h[0] > _LEAF_SIZE else (h,))]
            first.append(len(spans))
            fan.append(len(kids))
            spans += kids
        self.nodes = len(spans)
        self.first = np.array(first)
        self.first[np.diff(spans, axis=1)[:, 0] <= _LEAF_SIZE] += self.nodes
        self.count = np.array(fan)
        tris = tris[perm]
        pad = _BOX_PAD * np.abs(tris).max(initial=0.0)
        self.lo, self.hi = (
            np.ascontiguousarray(np.vstack([x, y]).T)
            for x, y in ((np.array(lo) - pad, tris.min(axis=1) - pad),
                         (np.array(hi) + pad, tris.max(axis=1) + pad))
        )
        self.v0, self.e1, self.e2 = (np.ascontiguousarray(x) for x in _edges(tris))

    def occluded(self, sources, targets) -> np.ndarray:
        """True where a triangle blocks the open segment ``sources[i]`` to
        ``targets[i]``; one point or N points of 3 coordinates each. Walks
        ``_BATCH`` segments at a time, one level of the tree after another."""
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
        blocked = np.zeros(len(sources), dtype=bool)
        seg = np.arange(len(sources))
        node = np.zeros(len(seg), dtype=np.intp)
        while seg.size:  # one level of (segment, node) pairs
            count = self.count.take(node)
            end = count.cumsum()
            down_seg, down_node = [], []
            a = 0
            while a < len(seg):  # the nodes whose children fit in _PAIRS pairs
                base = end[a] - count[a]
                b = max(a + 1, int(end.searchsorted(base + _PAIRS, "right")))
                # node k's children, items first[k] .. first[k] + count[k] - 1,
                # take the chunk's pairs end[k] - count[k] - base onwards
                c = count[a:b]
                pair_seg = seg[a:b].repeat(c)
                item = (self.first.take(node[a:b]) - (end[a:b] - c - base)).repeat(c)
                item += np.arange(len(item))
                near = _crosses(self.lo, self.hi, item, src, inv, pair_seg).nonzero()[0]
                pair_seg, item = pair_seg.take(near), item.take(near)
                tri = item >= self.nodes
                if tri.any():  # the kernel on the triangle items; the nodes go down
                    pick = tri.nonzero()[0]
                    hit_seg, hit_tri = pair_seg.take(pick), item.take(pick) - self.nodes
                    hit = _hits(self.v0.take(hit_tri, axis=1), self.e1.take(hit_tri, axis=1),
                                self.e2.take(hit_tri, axis=1), src.take(hit_seg, axis=1),
                                deltas.take(hit_seg, axis=1))
                    blocked[hit_seg.compress(hit)] = True
                    pick = (~tri).nonzero()[0]
                    pair_seg, item = pair_seg.take(pick), item.take(pick)
                down_seg.append(pair_seg)
                down_node.append(item)
                a = b
            seg, node = np.concatenate(down_seg), np.concatenate(down_node)
            live = (~blocked.take(seg)).nonzero()[0]
            seg, node = seg.take(live), node.take(live)
        return blocked
