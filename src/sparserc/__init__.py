"""Nonparametric estimation of random-coefficient distributions on sparse
hierarchical grids: classical and spatially adaptive sparse-grid estimators
fitted by constrained least squares, a fixed-grid baseline, and a Monte
Carlo harness."""

from .basis import BasisSet, Domain, eval_1d, eval_nd, hat, hierarchize_full_grid_1d
from .choicemodel import (
    ChoiceDataset,
    DeadColumnError,
    DesignMatrix,
    build_design_matrix,
    choice_probabilities,
    incremental_columns,
    logit_kernel,
    read_dataset_csv,
    write_dataset_csv,
)
from .clsolver import (
    CLSProblem,
    CLSSolution,
    NonConvergenceError,
    check_kkt,
    solve_cls,
    solve_simplex_cls,
)
from .distribution import (
    DiscreteDistribution,
    ise,
    joint_cdf,
    joint_cdf_lattice,
    lattice_points,
    marginal_cdf,
    mean,
    mixture_cdf_lattice,
    true_mixture_cdf,
)
from .estimator import (
    FitResult,
    RefineOptions,
    RefinementTrace,
    SolverOptions,
    fit_asg,
    fit_fkrb,
    fit_from_json,
    fit_sg,
    fit_to_json,
    fkrb_grid,
    fold_assignments,
    kfold_cv,
    predict_probabilities,
)
from .hiergrid import (
    CapacityError,
    GridPoint,
    SparseGrid,
    build_classical_sparse_grid,
    build_full_grid,
    grid_from_json,
    grid_to_json,
    hierarchical_children,
    hierarchical_parent,
    index_set,
    is_hierarchically_closed,
    refinable_points,
    refine,
)
from .quasirand import halton_draws, radical_inverse
from .simulate import (
    McConfig,
    McReport,
    MixtureComponent,
    MixtureDgp,
    four_normal_mixture,
    make_dataset,
    run_experiment,
    simulate_choices,
    two_normal_mixture,
)

__version__ = "0.1.0"
