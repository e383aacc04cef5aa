"""Mixed Dirichlet/Neumann boundary partitions on polyhedral surfaces.

Validate and enumerate admissible D/N face labelings, measure dihedral
angles, verify the vertex-arch Rellich identity by Monte Carlo, evaluate
singular sector solutions and their blow-up rates, and compute discrete
extension seminorms by energy minimization.
"""

from .geometry import (
    ArchRegion,
    ConeRegion,
    DihedralAngle,
    dihedral_angles,
    separation_radius,
)
from .mesh import (
    MeshDiagnostics,
    MeshError,
    OffParseError,
    PolyhedralSurface,
    parse_off,
    serialize_off,
    validate_surface,
)
from .partition import (
    AdmissibilityReport,
    GeneratorSpec,
    Partition,
    QuotientGraph,
    SearchReport,
    enumerate_admissible,
    is_monochromatic,
    quotient_graph,
    search_both_monochromatic,
    validate_partition,
)
from .rellich import (
    CATALOG,
    HarmonicTestFunction,
    catalog,
    rellich_suite,
)
from .sector import (
    BlowupReport,
    NtCone,
    SectorSolution,
    blowup_report,
    check_harmonic,
    estimate_ntmax,
    eval_b,
    eval_grad_b,
    truncated_energy,
)
from .trace_energy import (
    EnergyReport,
    RefinedSurface,
    TraceData,
    minimal_extension_energy,
    refinement_study,
)

__version__ = "0.1.0"

__all__ = [
    "ArchRegion",
    "AdmissibilityReport",
    "BlowupReport",
    "CATALOG",
    "ConeRegion",
    "DihedralAngle",
    "EnergyReport",
    "GeneratorSpec",
    "HarmonicTestFunction",
    "MeshDiagnostics",
    "MeshError",
    "NtCone",
    "OffParseError",
    "Partition",
    "PolyhedralSurface",
    "QuotientGraph",
    "RefinedSurface",
    "SearchReport",
    "SectorSolution",
    "TraceData",
    "blowup_report",
    "catalog",
    "check_harmonic",
    "dihedral_angles",
    "enumerate_admissible",
    "estimate_ntmax",
    "eval_b",
    "eval_grad_b",
    "is_monochromatic",
    "minimal_extension_energy",
    "parse_off",
    "quotient_graph",
    "refinement_study",
    "rellich_suite",
    "search_both_monochromatic",
    "separation_radius",
    "serialize_off",
    "truncated_energy",
    "validate_partition",
    "validate_surface",
]
