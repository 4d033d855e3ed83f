"""Bayesian structure learning and precision estimation for decomposable
Gaussian graphical models under a data-linked Wishart prior."""

__version__ = "0.1.0"

from .errors import (
    CliqueTooLarge,
    DimensionMismatch,
    GwishError,
    IndexOutOfRange,
    InvalidMove,
    NoValidMove,
    NotDecomposable,
    NotPositiveDefinite,
)
from .graph import (
    UndirectedGraph,
    is_decomposable,
    move_is_decomposable,
    read_edge_list,
    write_edge_list,
)
from .mcmc import (
    ChainConfig,
    ChainResult,
    median_probability_graph,
    mh_step,
    run_chain,
)
from .metrics import (
    ConfusionCounts,
    SelectionReport,
    confusion,
    matrix_norm,
    relative_errors,
    selection_report,
)
from .model import (
    Dataset,
    GraphScore,
    GraphScorer,
    GroundTruth,
    Hyperparameters,
    bayes_estimator_l1_stein,
    log_pairwise_bayes_factor,
    log_posterior_ratio,
    posterior_mean_precision,
)
from .numerics import (
    log_multigamma,
    make_rng,
    sample_mvn,
    submatrix,
)
from .search import (
    CandidateConfig,
    ModeSearchResult,
    hybrid_mode,
    shotgun_search,
)
from .simulate import (
    ConditionsReport,
    TrueModelSpec,
    build_truth,
    case_graph,
    conditions_report,
    partial_correlation,
    posterior_ratio_experiment,
    sample_dataset,
)
