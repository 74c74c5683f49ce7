"""Exact-arithmetic levels of DG modules over sphere-type cochain algebras."""

from .field import QQ, GF2, GF3, GF5, FieldTag, parse_field
from .graded import DEFAULT_WINDOW, DegreeWindow, cohomology
from .algebra import DGAlgebraPresentation, Generator
from .module import (
    DGModulePresentation,
    cone,
    direct_sum,
    find_idempotents,
    hom_complex,
    shift,
)
from .resolve import (
    FinitenessVerdict,
    SemifreeFiltration,
    bar_resolution,
    derived_tensor,
    filtration_class,
    infinite_level_certificate,
    koszul_resolution_poly,
    koszul_resolution_sphere,
    level_upper_bound,
    phi,
    residue_module,
)
from .spheres import (
    Decomposition,
    LevelResult,
    MoleculeId,
    SphereModule,
    bundle_level,
    component_index,
    decompose,
    decompose_module,
    free_pullback_level,
    molecule_cohomology,
    molecule_level,
    molecule_model,
    quiver_component,
    realizable,
    sphere_level,
)
from .emss import (
    FibreSquareSpec,
    compactness_from_hopf,
    e2_page,
    install_d2,
    run_to_stable,
)
from .rational import (
    TowerSpec,
    build_P_tower,
    hopf_invariant,
    pile_upper_bound,
    sphere_model,
    tower_level_bounds,
)

__all__ = [
    "QQ", "GF2", "GF3", "GF5", "FieldTag", "parse_field",
    "DEFAULT_WINDOW", "DegreeWindow", "cohomology",
    "DGAlgebraPresentation", "Generator",
    "DGModulePresentation", "cone", "direct_sum", "find_idempotents",
    "hom_complex", "shift",
    "FinitenessVerdict", "SemifreeFiltration", "bar_resolution",
    "derived_tensor", "filtration_class", "infinite_level_certificate",
    "koszul_resolution_poly", "koszul_resolution_sphere",
    "level_upper_bound", "phi", "residue_module",
    "Decomposition", "LevelResult", "MoleculeId", "SphereModule", "bundle_level",
    "component_index", "decompose", "decompose_module",
    "free_pullback_level", "molecule_cohomology", "molecule_level",
    "molecule_model", "quiver_component", "realizable", "sphere_level",
    "FibreSquareSpec", "compactness_from_hopf", "e2_page", "install_d2",
    "run_to_stable",
    "TowerSpec", "build_P_tower", "hopf_invariant", "pile_upper_bound",
    "sphere_model", "tower_level_bounds",
]

__version__ = "0.1.0"
