"""Per-layer timing of viewplan from outside the package.

The tracer replaces the public entry points of each viewplan module with
wrappers that record a span per call: wall time, the time of the wrapped calls
made inside it (so a layer's self time can be taken out), and a call count.
A function imported by name into another module is a second binding of the
same object, so the wrapper is installed at every binding found in the
``viewplan`` modules, and ``install`` then asks the garbage collector for any
reference to an original that is still left; such a reference would let calls
go unseen and is reported as an error.

Analysis done by the benchmark inside a wrapper (counting segments, sampling
bounding-box overlaps) is timed separately and removed from every enclosing
span, so it shows neither as layer time nor as op time.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# (module, class or None, attribute, span key, layer)
# Keys group calls into the metrics reported; the layer is the module the
# time is charged to. ``None`` as key marks a counted-only entry point: it is
# called too often inside a tight loop for a span per call, so only its calls
# are counted and its time stays in its caller's self time.
ENTRY_POINTS = [
    ("mesh", None, "generate_scene", "mesh.generate", "mesh"),
    ("mesh", None, "load_mesh", "mesh.load", "mesh"),
    ("mesh", None, "degrade_proxy", "mesh.degrade", "mesh"),
    ("mesh", "TriangleMesh", "subdivided", "mesh.subdivide", "mesh"),
    ("mesh", "TriangleMesh", "submesh", "mesh.submesh", "mesh"),
    ("mesh", "TriangleMesh", "with_vertices", "mesh.with_vertices", "mesh"),
    ("mesh", "TriangleMesh", "occluded_many", "bvh.occlusion", "bvh"),
    ("mesh", "TriangleMesh", "occluded", "bvh.occlusion", "bvh"),
    ("quality", None, "evaluate_coverage", "quality.coverage", "quality"),
    ("quality", None, "visibility_matrix", "quality.visibility", "quality"),
    ("quality", None, "pair_quality", "quality.pair_quality", "quality"),
    ("quality", None, "face_quality", "quality.scalar", "quality"),
    ("quality", None, "visible_set", "quality.scalar", "quality"),
    ("quality", None, "is_visible", "quality.scalar", "quality"),
    ("rectangles", None, "build_avr", "rectangles.build_avr", "rectangles"),
    ("rectangles", None, "cluster_faces", "rectangles.cluster", "rectangles"),
    ("rectangles", None, "suggest_cluster_count", "rectangles.cluster", "rectangles"),
    ("rectangles", None, "fit_rectangle", "rectangles.fit", "rectangles"),
    ("rectangles", None, "merge_intersecting", "rectangles.merge", "rectangles"),
    ("rectangles", None, "rectangles_intersect", None, "rectangles"),
    ("tours", None, "plan_rectangles", "tours.plan", "tours"),
    ("tours", None, "impose_grid", "tours.grid", "tours"),
    ("tours", None, "boustrophedon_tour", "tours.sweep", "tours"),
    ("tours", None, "grid_mst", "tours.mst", "tours"),
    ("tours", None, "stitch_tour", "tours.stitch", "tours"),
    ("tours", None, "lower_bound", "tours.lower_bound", "tours"),
    ("planner", None, "preprocess_mesh", "planner.preprocess", "planner"),
    ("planner", None, "infeasible_faces", "planner.probe", "planner"),
    ("planner", None, "identify_low_quality", "planner.low_quality", "planner"),
    ("planner", None, "plan_visit", "planner.plan_visit", "planner"),
    ("planner", None, "run_pipeline", "planner.run_pipeline", "planner"),
    ("planner", None, "default_quality_resolution", "planner.resolution", "planner"),
    ("baselines", None, "plan_zigzag", "baselines.zigzag", "baselines"),
    ("baselines", None, "zigzag_length", "baselines.zigzag", "baselines"),
    ("baselines", None, "plan_uniform_grid", "baselines.uniform", "baselines"),
    ("baselines", None, "plan_gvs", "baselines.gvs", "baselines"),
    ("cli", None, "run", "cli.run", "cli"),
    ("cli", None, "compare", "cli.compare", "cli"),
    ("cli", None, "report", "cli.report", "cli"),
    ("cli", None, "main", "cli.main", "cli"),
]

# segments per occlusion call whose bounding boxes are tested against every
# triangle box; a fixed stride keeps the sample, and so the ratio, deterministic
AABB_SAMPLE = 256


class UnseenCallError(RuntimeError):
    """A reference to a wrapped original survives, so calls could go unseen."""


@dataclass
class _Span:
    key: str
    layer: str
    start: float
    excluded_at_start: float
    child: float = 0.0


@dataclass
class Stats:
    """What the tracer recorded between two resets."""

    calls: Counter = field(default_factory=Counter)
    total_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Installs span wrappers on viewplan's entry points and records them."""

    def __init__(self) -> None:
        self.stats = Stats()
        self.excluded_s = 0.0
        self._stack: list[_Span] = []
        self._open_keys: Counter = Counter()
        self._installed: list[tuple[object, str, object, object]] = []
        self.sites = 0

    # -- recording -----------------------------------------------------

    def reset(self) -> Stats:
        """Return what was recorded so far and start afresh."""
        done, self.stats = self.stats, Stats()
        return done

    def _enter(self, key: str, layer: str) -> None:
        self._stack.append(_Span(key, layer, time.perf_counter(), self.excluded_s))
        self._open_keys[key] += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span = self._stack.pop()
        self._open_keys[span.key] -= 1
        dur = (end - span.start) - (self.excluded_s - span.excluded_at_start)
        st = self.stats
        st.calls[span.key] += 1
        st.self_s[span.layer] += dur - span.child
        if not self._open_keys[span.key]:
            st.total_s[span.key] += dur  # outermost span of this key only
        if self._stack:
            self._stack[-1].child += dur

    def caller_key(self) -> str | None:
        return self._stack[-1].key if self._stack else None

    def analyse(self, fn: Callable[[], None]) -> None:
        """Run benchmark-side analysis with its time excluded from all spans."""
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            self.excluded_s += time.perf_counter() - t0

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, key: str, layer: str, after):
        def traced(*args, **kwargs):
            self._enter(key, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                self.analyse(lambda: after(self, args, kwargs, out))
            return out

        return traced

    def _count_wrapper(self, fn, name: str):
        def counted(*args, **kwargs):
            self.stats.calls[name] += 1  # stats is replaced on reset
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every binding of every entry point in the viewplan modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "viewplan" or name.startswith("viewplan.")) and mod is not None
        }
        wrappers = []
        originals = []
        for mod_name, cls_name, attr, key, layer in ENTRY_POINTS:
            owner = modules[f"viewplan.{mod_name}"]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self._make(orig, attr, key, layer)
                self._bind(cls, attr, orig, wrapped)
            else:
                orig = getattr(owner, attr)
                wrapped = self._make(orig, attr, key, layer)
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._bind(mod, name, orig, wrapped)
            wrappers.append(wrapped)
            originals.append(orig)
        self.sites = len(self._installed)
        try:
            self._check_no_stray_references(originals, wrappers)
        except UnseenCallError:
            self.uninstall()
            raise

    def _make(self, orig, attr: str, key: str | None, layer: str):
        if key is None:
            return self._count_wrapper(orig, f"{layer}.{attr}")
        return self._span_wrapper(orig, key, layer, AFTER_HOOKS.get(attr))

    def _bind(self, owner, name: str, orig, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._installed.append((owner, name, orig, wrapped))

    def uninstall(self) -> None:
        """Put every original back where it was found."""
        for owner, name, orig, _ in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    def _check_no_stray_references(self, originals, wrappers) -> None:
        cells = {
            id(cell) for w in wrappers for cell in (getattr(w, "__closure__", None) or ())
        }
        own = {id(originals), id(self._installed)} | {id(t) for t in self._installed}
        gc.collect()
        stray = [
            type(ref).__name__
            for ref in gc.get_referrers(*originals)
            if id(ref) not in cells and id(ref) not in own and type(ref).__name__ != "frame"
        ]
        if stray:
            raise UnseenCallError(
                f"{len(stray)} untraced references to entry points remain: {sorted(set(stray))}"
            )


# ---------------------------------------------------------------------------
# benchmark-side counters, computed from a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _after_occluded_many(tracer: Tracer, args, kwargs, out) -> None:
    mesh, sources, targets = args[0], args[1], args[2]
    src = np.asarray(sources, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    _count_segments(tracer, mesh, src, dst, int(np.count_nonzero(out)))


def _after_occluded(tracer: Tracer, args, kwargs, out) -> None:
    mesh = args[0]
    src = np.asarray(args[1], dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(args[2], dtype=np.float64).reshape(-1, 3)
    _count_segments(tracer, mesh, src, dst, int(bool(out)))


def _count_segments(tracer: Tracer, mesh, src, dst, blocked: int) -> None:
    c = tracer.stats.counts
    n = len(src)
    c["bvh.segments"] += n
    c["bvh.blocked"] += blocked
    c["bvh.narrow_tests"] += n * mesh.num_faces
    c[f"bvh.segments@{tracer.caller_key()}"] += n
    if n == 0 or mesh.num_faces == 0:
        return
    pick = slice(None, None, max(1, n // AABB_SAMPLE))
    s, t = src[pick], dst[pick]
    seg_lo, seg_hi = np.minimum(s, t), np.maximum(s, t)
    tris = mesh.triangles()
    tri_lo, tri_hi = tris.min(axis=1), tris.max(axis=1)
    overlap = (seg_lo[:, None, :] <= tri_hi[None, :, :]).all(axis=-1)
    overlap &= (tri_lo[None, :, :] <= seg_hi[:, None, :]).all(axis=-1)
    c["bvh.aabb_pairs_sampled"] += overlap.size
    c["bvh.aabb_overlaps_sampled"] += int(np.count_nonzero(overlap))


def _after_subdivided(tracer: Tracer, args, kwargs, out) -> None:
    tracer.stats.counts["mesh.faces_out"] += out.num_faces


def _after_visibility_matrix(tracer: Tracer, args, kwargs, out) -> None:
    tracer.stats.counts["quality.face_view_pairs"] += int(out.size)


def _after_infeasible_faces(tracer: Tracer, args, kwargs, out) -> None:
    tracer.stats.counts["planner.infeasible_faces"] += len(out)


def _after_build_avr(tracer: Tracer, args, kwargs, out) -> None:
    tracer.stats.counts["rectangles.rects"] += len(out)


def _after_plan_rectangles(tracer: Tracer, args, kwargs, out) -> None:
    c = tracer.stats.counts
    r = float(args[1]) if len(args) > 1 else float(kwargs["r"])
    c["tours.views"] += len(out.trajectory)
    # each coarsening step multiplies the resolution by 1.25
    c["tours.coarsen_steps"] += int(round(np.log(out.r_effective / r) / np.log(1.25)))


def _after_stitch_tour(tracer: Tracer, args, kwargs, out) -> None:
    cert = out[1]
    tracer.stats.counts["tours.certificates"] += 1
    tracer.stats.counts["tours.cert_slack_m"] += cert.bound_value - cert.final_length


AFTER_HOOKS = {
    "occluded_many": _after_occluded_many,
    "occluded": _after_occluded,
    "subdivided": _after_subdivided,
    "visibility_matrix": _after_visibility_matrix,
    "infeasible_faces": _after_infeasible_faces,
    "build_avr": _after_build_avr,
    "plan_rectangles": _after_plan_rectangles,
    "stitch_tour": _after_stitch_tour,
}
