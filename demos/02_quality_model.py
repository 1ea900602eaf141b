"""The per-face quality model.

Shows how the distance band, viewing cone and facing test gate visibility,
and how the widest-angle view pair scores a face. Reproduces the default
quality threshold: two views 45 degrees apart at sqrt(2)*5 m score ~0.014.
"""

import math

import numpy as np

from viewplan import QualityParams, evaluate_coverage
from viewplan.mesh import SceneSpec, generate_scene
from viewplan.quality import pair_quality, unit_directions, visibility_matrix
from viewplan.tours import Trajectory

params = QualityParams()
lo, hi = params.band
print(f"viewing distance d={params.d} m, band [{lo:.2f}, {hi:.2f}] m, "
      f"need t={params.t} views and Q >= {params.q_star}")

# the threshold's worked value: 45 degrees apart, both at sqrt(2) * 5 m
ell = math.sqrt(2) * 5.0
half = math.radians(22.5)
pos = np.array([
    [ell * math.sin(half), 0, ell * math.cos(half)],
    [-ell * math.sin(half), 0, ell * math.cos(half)],
])
# pair_quality scores each row of a (points x views) mask over the views it marks:
# here one point, both views
theta, q, _ = pair_quality(np.zeros((1, 3)), pos, [[True, True]], params)
print(f"\n45-degree pair at {ell:.3f} m: theta={math.degrees(theta[0]):.1f} deg, Q={q[0]:.5f}")

# sweep the pair angle at fixed distance: quality peaks at a right angle
print("\npair angle sweep at 5 m:")
for deg in (10, 30, 60, 90, 120, 150):
    a = math.radians(deg / 2)
    pos = np.array([
        [5 * math.sin(a), 0, 5 * math.cos(a)],
        [-5 * math.sin(a), 0, 5 * math.cos(a)],
    ])
    _, q, _ = pair_quality(np.zeros((1, 3)), pos, [[True, True]], params)
    print(f"  {deg:3d} deg -> Q = {q[0]:.5f}")

# a face under a small view set
scene = generate_scene(SceneSpec("flat", extent=10.0, seed=0))
f = scene.num_faces // 2
c = scene.centroids[f]
views = Trajectory(
    c + np.array([
        [0.0, 0.0, 5.0],
        [3.0, 0.0, 4.0],
        [-3.0, 0.0, 4.0],
        [0.0, 0.0, 9.0],   # outside the distance band
        [4.9, 0.0, 0.2],   # in band but outside its cone
    ]),
    unit_directions([[0, 0, -1], [-0.6, 0, -0.8], [0.6, 0, -0.8], [0, 0, -1], [0, 0, -1]]),
)
for i, seen in enumerate(visibility_matrix(scene, views, params, faces=[f])[0]):
    print(f"view {i}: visible={seen}")
report = evaluate_coverage(scene, views, params)
pair = tuple(int(v) for v in report.pair[f])
print(f"face quality: theta={math.degrees(report.theta[f]):.1f} deg, Q={report.q[f]:.5f}, "
      f"best pair={pair}")
print("\nscene-wide:", report.summary()["status_totals"])
