"""Tube-family overlap integrals and machine-checked multiscale bound certificates."""

from .certifier import (
    Certificate,
    Constants,
    certify_multiscale,
    cover_for_arbitrary_s,
    delta_for_epsilon,
    verify_step_inequality,
)
from .errors import (
    CellBudgetExceeded,
    KakeyaError,
    NonConvergence,
    PropertyViolation,
    ValidationError,
)
from .evaluator import (
    FamilyMember,
    GridSpec,
    OverlapValue,
    TubeFamily,
    evaluate_overlap,
    evaluate_refined,
    exact_overlap_2d,
)
from .geometry import (
    Cap,
    Cube,
    Direction,
    Line,
    LinearMap,
    LipschitzCurve,
    angle_from_axis,
    cap_cover,
)
from .loomis_whitney import (
    BallSum,
    Box,
    ProjectionFunction,
    lw_right,
    project,
    unit_ball_volume,
    verify_lw,
)
from .reduction import (
    ReducedProblem,
    reduce_general_to_small_angle,
    split_by_caps,
    transversal_reduce,
)
from .generators import (
    AxisParallel,
    GeneralAngle,
    GenSpec,
    Lipschitz,
    SmallAngle,
    Weighted,
    generate,
)
from .experiments import extremal_search, sweep_scale

__version__ = "0.1.0"
