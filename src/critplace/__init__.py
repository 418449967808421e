"""critplace: critical placements of a unit square or circle over line
arrangements, with a brute-force oracle, worst-case generators, and junction
detection for trajectory data."""

from .geom import (
    CIRCLE,
    SQUARE,
    Line,
    PerimeterCoord,
    Point,
    Polyline,
    Segment,
    perimeter_coordinate,
    perimeter_point,
)
from .arrangement import (
    Arrangement,
    BBox,
    Cell,
    ConvexSubcell,
    build_line_arrangement,
    build_segment_arrangement,
    convex_decompose,
    locate,
)
from .placement import (
    CriticalCurve,
    CurvePiece,
    PlacementArrangement,
    TranslationVector,
    TranslationVectorSet,
    build_placement_arrangement,
    collect_S,
    pair_intersections,
    translation_vectors,
)
from .oracle import (
    GapComponent,
    GapProfile,
    VerifyReport,
    boundary_gaps,
    dense_scan,
    is_epsilon_placement,
    verify,
)
from .junctions import (
    ClusterSet,
    JunctionAssessment,
    SalientSubtrajectory,
    SignificanceGrid,
    assess,
    epsilon_cluster,
    grid_scan,
    salient_subtrajectories,
    top_k,
)
from .generators import cross_trajectories, lower_bound_lines, random_lines

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
