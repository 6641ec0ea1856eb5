"""Dominant set clustering with Frank-Wolfe solvers over the simplex."""

from .matrix import (
    ShiftedMatrix,
    SimilarityMatrix,
    SimplexPoint,
    matvec,
    new_similarity_matrix,
    offdiag_extremes,
    quadratic_form,
    simplex_point,
)
from .metrics import ari, assignment_rate, v_measure
from .multistart import SamplePlan, SamplerKind, multistart_cluster
from .peel import ClusteringResult, PeelConfig, peel, post_assign
from .solvers import (
    InitKind,
    SolverConfig,
    SolverKind,
    StepKind,
    StopReason,
    init_barycenter,
    init_vertex,
    run,
)

__all__ = [
    "ShiftedMatrix", "SimilarityMatrix", "SimplexPoint", "matvec",
    "new_similarity_matrix", "offdiag_extremes", "quadratic_form",
    "simplex_point",
    "ari", "assignment_rate", "v_measure",
    "SamplePlan", "SamplerKind", "multistart_cluster",
    "ClusteringResult", "PeelConfig", "peel", "post_assign",
    "InitKind", "SolverConfig", "SolverKind", "StepKind", "StopReason",
    "init_barycenter", "init_vertex", "run",
]
