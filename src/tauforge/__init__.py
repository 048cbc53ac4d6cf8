"""tauforge: tau-functions of integrable systems from loop-group data.

Core objects are truncated matrix loops on the unit circle, their Birkhoff
factorization, and the contour formulas that turn factorization data into
log-derivatives of tau-functions, with end-to-end KdV and Ernst pipelines.
"""

from .loops import (
    DEFAULT_ORDER,
    TAIL_THRESHOLD,
    MatrixLoop,
    NumericalInvariantError,
    SingularLoopError,
    TailMassError,
    exp_pointwise,
    inverse,
    monomial,
    multiply,
    random_tangent,
    random_tangent_stack,
    random_unimodular_loop,
    random_unimodular_stack,
)
from .birkhoff import (
    BigCellError,
    BirkhoffFactors,
    factorize,
    factorize_batch,
)
from .phase_space import (
    LoopTangent,
    cocycle,
    curvature_mismatch,
    hamiltonian_diffeo,
    hamiltonian_gauge,
    poisson_anomaly,
    reduced_symplectic,
    vacuum_logderiv_diffeo,
    vacuum_logderiv_gauge,
)
from .twistor import (
    DegenerateFrameError,
    DirectionDecomposition,
    RationalFunction,
    SymmetryGenerator,
    decompose,
    ernst_frame,
)
from .quadrature import PathRefinementError, refine_path_cells
from .kdv import (
    KdVSeed,
    PathCrossesBadCellError,
    TauGrid,
    kdv_residual,
    phi_normal_form,
    pullback_coeff_batch,
    seed_one_pole,
    seed_vacuum,
    tau_grid,
)
from .ernst import (
    ErnstSolution,
    ErnstTauField,
    conformal_factor_check,
    dlogtau,
    field_residual,
    flat,
    kasner,
    logtau_field,
    non_solution,
    point_source,
    rectangle_loop_integral,
    residue_check,
)

__version__ = "0.1.0"
