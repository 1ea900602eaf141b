"""Building viewing rectangles: cluster, elevate, fit, bound, merge.

Walks the construction on a box-field scene and prints what the merge step
does to rectangles whose planes cross.
"""

import numpy as np

from viewplan import QualityParams, SceneSpec, build_avr, generate_scene, preprocess_mesh
from viewplan.rectangles import cluster_faces, fit_rectangles, merge_intersecting, rectangles_intersect

params = QualityParams()
scene = preprocess_mesh(
    generate_scene(SceneSpec("boxfield", extent=16.0, obstacles=3, seed=5)), params
)

clusters = cluster_faces(scene, k=6, seed=5)
print("clusters (k=6):")
for i, c in enumerate(clusters):
    print(f"  {i}: {c.size:4d} faces, mean normal {np.round(c.mean_normal, 2)}")

rects = fit_rectangles(clusters, params.d)
print("\nfitted rectangles (before merge):")
for i, r in enumerate(rects):
    print(f"  {i}: {r.width:5.1f} x {r.height:5.1f} m at {np.round(r.center, 1)}, "
          f"normal {np.round(r.normal, 2)}")

crossing = [
    (i, j)
    for i in range(len(rects))
    for j in range(i + 1, len(rects))
    if rectangles_intersect(rects[i], rects[j])
]
print(f"\nproperly crossing pairs: {crossing or 'none'}")
merged = merge_intersecting(rects)
total_before = sum(r.area for r in rects)
total_after = sum(r.area for r in merged)
print(f"total area {total_before:.1f} -> {total_after:.1f} m^2 after merge")

print("\nfull pipeline (auto k, merged):")
for rect, cluster in build_avr(scene, params, seed=5):
    print(f"  {rect.width:5.1f} x {rect.height:5.1f} m for {cluster.size:4d} faces, "
          f"normal {np.round(rect.normal, 2)}")
