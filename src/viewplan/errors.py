"""Exception types shared across the package."""


class ViewPlanError(Exception):
    """Base class for all viewplan errors."""


class MeshFormatError(ViewPlanError):
    """A mesh file could not be parsed."""


class EmptySceneError(ViewPlanError):
    """A mesh contains no usable faces."""


class SceneTooLargeError(ViewPlanError):
    """A scene would subdivide into, or be flown with, more faces or views
    than the planner caps."""


class ProxyOverflowError(ViewPlanError):
    """A proxy's vertex noise is so large against the scene that face areas
    or normals overflow to non-finite values."""


class DegenerateClusterError(ViewPlanError):
    """A face cluster cannot support a viewing rectangle (e.g. its mean
    normal cancels to zero and its points span no plane)."""


class BudgetExhaustedError(ViewPlanError):
    """The remaining view budget cannot accommodate another planning pass."""


class CertificateViolationError(ViewPlanError):
    """A constructed tour failed its own length-bound certificate."""


class MergeNonTerminationError(ViewPlanError):
    """Rectangle merging left a pair of rectangles that still cross."""


class DisconnectedTreeError(ViewPlanError):
    """The spanning tree handed to the stitcher does not connect all grids."""
