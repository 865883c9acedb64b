"""richwave: exact entropy solutions and verification experiments for
linearly degenerate rich hyperbolic systems of diagonal form with a common
entropy density, with reduced and augmented Born-Infeld instances.

All public objects are immutable after construction and all evaluations are
pure, so solutions and reports can be shared freely across threads.
"""

from .asymptotics import (
    DecayReport,
    GapConditionError,
    ShapeFloorError,
    ShapeFunction,
    UnequalTailsError,
    abi_middle_shape,
    bi_shape,
    build_shape,
    coupling_term,
    decay_curve,
    limit_speed_mixed,
    shape_derivative,
    tail_term,
    traveling_frame_position,
)
from .cheb import TabulationError
from .fv import BlowUpError, ErrorTable, FvGrid, run, run_and_compare, step
from .maps import InversionError, MonotoneMap
from .plateau import (
    NotDecomposedError,
    PlateauReport,
    WavePattern,
    verify_pattern,
    wave_pattern,
)
from .profiles import (
    PiecewiseProfile,
    add_bump,
    l1_distance,
    read_profile,
    write_profile,
)
from .quadrature import QuadratureError, integrate
from .solver import LagrangianSolution, UnsupportedModelError, solve
from .stability import (
    MapBounds,
    ScenarioError,
    StabilityReport,
    coordinate_map_bounds,
    pair_distance,
    stability_sweep,
    triangle_perturbation,
)
from .systems import (
    AdmissibilityError,
    BIStructure,
    Family,
    RichSystem,
    SystemDiagnostics,
    augmented_born_infeld,
    born_infeld,
    validate_system,
)

__version__ = "0.1.0"
