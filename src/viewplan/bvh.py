"""Segment/triangle occlusion tests and a bounding-volume hierarchy.

Both the brute-force path and the BVH leaf test call the same vectorised
Moller-Trumbore kernel, ``_hits``, with inclusive edge comparisons, so their
boolean answers are identical on every query. Hits with segment parameter
within a relative 1e-6 of either endpoint are discarded (self-intersection
guard for queries that start or end on the mesh surface).
"""

from __future__ import annotations

import numpy as np

T_EPS = 1e-6  # endpoint guard, fraction of segment length
_DET_EPS = 1e-14
BRUTE_FACE_LIMIT = 4096  # below this, vectorised brute force beats traversal
_LEAF_SIZE = 8


def _hits(tris: np.ndarray, origins: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """(segments, triangles) hits of segments ``origins[i] + s * deltas[i]`` on
    (T, 3, 3) ``tris``, counting only s strictly inside (T_EPS, 1 - T_EPS)."""
    v0 = tris[None, :, 0]
    e1 = tris[None, :, 1] - v0
    e2 = tris[None, :, 2] - v0
    d = deltas[:, None, :]
    p = np.cross(d, e2)
    det = (e1 * p).sum(axis=-1)
    ok = np.abs(det) > _DET_EPS
    inv = np.where(ok, det, 1.0)
    tvec = origins[:, None, :] - v0
    u = (tvec * p).sum(axis=-1) / inv
    q = np.cross(tvec, e1)
    v = (d * q).sum(axis=-1) / inv
    t = (e2 * q).sum(axis=-1) / inv
    hit = ok & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    hit &= (t > T_EPS) & (t < 1.0 - T_EPS)
    return hit


def segments_hit_any(all_tris: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Brute-force occlusion for a batch of segments, chunked over queries."""
    n = len(sources)
    out = np.zeros(n, dtype=bool)
    chunk = max(1, int(4_000_000 // max(1, len(all_tris))))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = _hits(all_tris, sources[lo:hi], targets[lo:hi] - sources[lo:hi]).any(axis=1)
    return out


class Bvh:
    """Median-split hierarchy over triangle bounds; any-hit segment queries."""

    def __init__(self, mesh):
        tris = mesh.triangles()
        self._tris = tris
        n = len(tris)
        lo = tris.min(axis=1)
        hi = tris.max(axis=1)
        centers = 0.5 * (lo + hi)

        self._node_lo: list[np.ndarray] = []
        self._node_hi: list[np.ndarray] = []
        self._node_left: list[int] = []
        self._node_right: list[int] = []
        self._node_tris: list[np.ndarray | None] = []

        order = np.arange(n)
        self._root = self._build(order, lo, hi, centers)

    def _build(self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray, centers: np.ndarray) -> int:
        node = len(self._node_lo)
        box_lo = lo[idx].min(axis=0)
        box_hi = hi[idx].max(axis=0)
        self._node_lo.append(box_lo)
        self._node_hi.append(box_hi)
        self._node_left.append(-1)
        self._node_right.append(-1)
        self._node_tris.append(None)
        if len(idx) <= _LEAF_SIZE:
            self._node_tris[node] = idx
            return node
        axis = int(np.argmax(box_hi - box_lo))
        mid = len(idx) // 2
        part = idx[np.argsort(centers[idx, axis], kind="stable")]
        left = self._build(part[:mid], lo, hi, centers)
        right = self._build(part[mid:], lo, hi, centers)
        self._node_left[node] = left
        self._node_right[node] = right
        return node

    def segment_occluded(self, src: np.ndarray, dst: np.ndarray) -> bool:
        delta = dst - src
        inv = np.where(delta != 0.0, 1.0 / np.where(delta == 0.0, 1.0, delta), np.inf)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not self._slab_hit(node, src, delta, inv):
                continue
            tri_idx = self._node_tris[node]
            if tri_idx is not None:
                if _hits(self._tris[tri_idx], src[None], delta[None]).any():
                    return True
            else:
                stack.append(self._node_left[node])
                stack.append(self._node_right[node])
        return False

    def _slab_hit(self, node: int, src, delta, inv) -> bool:
        lo = self._node_lo[node]
        hi = self._node_hi[node]
        t0, t1 = 0.0, 1.0
        for k in range(3):
            if delta[k] == 0.0:
                if src[k] < lo[k] or src[k] > hi[k]:
                    return False
                continue
            a = (lo[k] - src[k]) * inv[k]
            b = (hi[k] - src[k]) * inv[k]
            if a > b:
                a, b = b, a
            t0 = a if a > t0 else t0
            t1 = b if b < t1 else t1
            if t0 > t1:
                return False
        return True
