"""Exact computer-algebra toolkit for divided-power DG algebra towers,
enveloping algebras with diagonal ideals, semifree DG modules, and the
naive-liftability decision procedure."""

__version__ = "0.1.0"

from .base_ring import (
    BasePoly,
    Field,
    Infeasible,
    LinearSolution,
    LinearSystem,
    PolyRing,
    solve_linear,
)
from .dg_algebra import (
    DIVIDED,
    ORDINARY,
    AlgebraElement,
    AxiomReport,
    DGVariable,
    TowerAlgebra,
    TowerError,
    check_axioms,
)
from .dg_module import (
    BasisElement,
    BidegreeWindow,
    ChainMap,
    ModuleError,
    SemifreeModule,
    base_change,
    direct_sum,
    free_module,
    make_semifree,
    tensor_bimodule,
)
from .envelope import (
    EnvelopeAlgebra,
    EnvelopeElement,
    EnvelopeError,
    OmegaCoordinates,
)
from .homological import (
    ExtTable,
    HomComplex,
    HomologicalError,
    ObstructionWitness,
    SplitResult,
    build_split_system,
    ext_dims,
    naive_lift_check,
    null_homotopy,
)
from .session import ParseError, Session, format_session, parse_session
from .tate import (
    HomologyTable,
    TateError,
    TateResolution,
    homology_dims,
    homology_rep,
    tate_resolution,
    tate_step,
)
