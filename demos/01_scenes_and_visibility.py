"""Scenes, proxies, and line-of-sight queries.

Generates the three synthetic scenes, degrades one into a noisy proxy the
way a first reconstruction pass would, and pokes at the occlusion oracle.
Run from the repository root:  python3 demos/01_scenes_and_visibility.py
"""

import numpy as np

from viewplan import QualityParams, SceneSpec, degrade_proxy, generate_scene, preprocess_mesh

params = QualityParams()

for kind in ("flat", "boxfield", "canyon"):
    scene = generate_scene(SceneSpec(kind, extent=16.0, obstacles=3, seed=7))
    lo, hi = scene.bounds()
    print(f"{kind:9s} {scene.num_faces:5d} faces, {scene.total_area():7.1f} m^2, "
          f"height {hi[2]:.1f} m")

scene = generate_scene(SceneSpec("boxfield", extent=16.0, obstacles=3, seed=7))
scene = preprocess_mesh(scene, params)  # split faces larger than the view footprint
print(f"\nafter footprint subdivision: {scene.num_faces} faces")

proxy = degrade_proxy(scene, sigma=0.1, seed=7)
shift = np.linalg.norm(proxy.vertices - scene.vertices, axis=1)
print(f"noisy proxy: {proxy.num_faces} faces, vertices moved up to {shift.max():.3f} m "
      f"along their normals")

# line-of-sight, one batch of segments: straight above a ground face, and a
# wall face seen through its own box and from in front
ground = int(np.argmin(scene.centroids[:, 2] + np.abs(scene.normals[:, 2] - 1.0)))
c = scene.centroids[ground]
wall = int(np.argmax(np.abs(scene.normals[:, 2]) < 1e-9))
cw, nw = scene.centroids[wall], scene.normals[wall]
sources = np.array([c + [0, 0, 5.0], cw - 5.0 * nw, cw + 5.0 * nw])  # 5 m off each face
clear = ~scene.occluded_many(sources, np.array([c, cw, cw]))
print(f"\nface at {np.round(c, 1)}:")
print("  clear from 5 m above:", clear[0])
print("  wall seen from behind its box:", clear[1])
print("  wall seen from in front:      ", clear[2])
