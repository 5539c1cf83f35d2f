"""Fabrication planning, kinematics, and measurement analysis for
tip-everting tube robots with discrete preformed bends."""

from .errors import (DegenerateDataError, DegenerateGeometryError,
                     InfeasibleLinkError, InversionError, MissingMarkerError,
                     SingularityError, ValidationError, VinefabError)
from .fabrication import (DEFAULT_LOOP_GAP_MM, FabricationPlan, GapModel,
                          JointSpec, compile_plan, recover_chain)
from .geometry import (DHChain, DHLink, Pose, canonicalize_polyline,
                       dh_to_polyline, fk_chain, polyline_to_dh)
from .growth import (Box, ObstacleScene, Sphere, centerline_points, growth_trace,
                     sweep_samples)
from .measurement import (DHErrors, MarkerRecord, MeasuredDH, dh_errors, recover_dh,
                          synthetic_markers)
from .pattern import flat_pattern, write_pattern
from .stats import (SampleTable, TestResult, analyze_table, group_summary,
                    kruskal_wallis, levene_test, one_way_anova,
                    significance_stars, t_test_independent, t_test_paired,
                    t_test_welch, tukey_hsd)

__version__ = "0.1.0"
