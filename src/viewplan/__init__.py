"""View planning for multi-view scene capture.

Given a coarse triangle-mesh proxy of a scene, the package builds viewing
rectangles adapted to the scene geometry, plans a short multi-view camera
trajectory satisfying per-face reconstruction-quality constraints, certifies
the tour length against a constructive bound, and iteratively refines
coverage of the regions that still fail. Three baseline planners and a batch
experiment CLI are included.
"""

from .baselines import plan_gvs, plan_uniform_grid, plan_zigzag
from .errors import (
    BudgetExhaustedError,
    CertificateViolationError,
    DegenerateClusterError,
    DisconnectedTreeError,
    EmptySceneError,
    MergeNonTerminationError,
    MeshFormatError,
    ProxyOverflowError,
    SceneTooLargeError,
    ViewPlanError,
)
from .mesh import (
    SceneSpec,
    TriangleMesh,
    degrade_proxy,
    generate_scene,
    load_mesh,
)
from .planner import (
    VisitState,
    identify_low_quality,
    infeasible_faces,
    plan_visit,
    preprocess_mesh,
    run_pipeline,
)
from .quality import (
    CoverageReport,
    QualityParams,
    default_quality_resolution,
    evaluate_coverage,
)
from .rectangles import (
    FaceCluster,
    ViewingRectangle,
    build_avr,
    cluster_faces,
    merge_intersecting,
)
from .tours import (
    GridEdge,
    PlanResult,
    TourCertificate,
    Trajectory,
    ViewingGrid,
    grid_mst,
    impose_grid,
    lower_bound,
    plan_rectangles,
    stitch_tour,
)

__version__ = "0.1.0"
