"""foliage: combinatorial scenarios of orbits crossing a planar foliation.

The package models finite skeletons of leaf domains with ordered boundary
leaves, orbits as decorated forest paths, the sided preorders comparing
them, the maximal-domain decomposition, and an exact-rational planar
realization with provably minimal pairwise crossings.
"""

from .model import (
    FoliageError,
    Orbit,
    Scenario,
    ScenarioParseError,
    SkeletonDomain,
    ValidationReport,
    dumps,
    emit_scenario,
    fixture,
    fixture_text,
    parse_scenario,
    validate,
)
from .decompose import (
    MaxDomain,
    ReducedStructure,
    Roles,
    common_subpath,
    reduce_scenario,
)
from .relations import (
    Clause,
    Direction,
    OrderedOrbitList,
    PairRelations,
    RelationVerdict,
    TieRankError,
    adaptive_order,
    classic_from_verdicts,
    classic_transverse,
    compare_left,
    compare_right,
    met_pair_relations,
    minus_asymptotic,
    pair_relations,
    plus_asymptotic,
    standard_order,
    weak_from_verdicts,
    weak_transverse,
)
from .realize import (
    BoundaryOrder,
    CrossingMatrix,
    PortPlan,
    boundary_order,
    crossing_matrix,
    interleaving_matrix,
    one_sided_order,
    one_sided_order_right,
    port_plan,
    weak_matrix,
)
from .geometry import (
    ChordDiagram,
    DegeneracyError,
    Layout,
    PolylineSet,
    chord_diagram,
    emit_chord_svg,
    emit_svg,
    exact_crossings,
    layout,
    route,
)
from .generator import GeneratorConfig, SplitMix64, generate_scenario
from .checks import CheckReport, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
