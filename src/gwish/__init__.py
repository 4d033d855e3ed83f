"""Bayesian structure learning and precision estimation for decomposable
Gaussian graphical models under a data-linked Wishart prior.

Importing the package runs none of its modules and loads no numpy.  Each
library module is put in ``sys.modules`` through ``importlib.util.LazyLoader``
and runs on its first attribute access, and each public name below is looked
up in its module on first use (PEP 562), so a process pays only for the
modules it calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CliqueTooLarge", "DimensionMismatch", "GwishError", "IndexOutOfRange",
        "InvalidMove", "NoValidMove", "NotDecomposable", "NotPositiveDefinite",
    ),
    "graph": (
        "UndirectedGraph", "is_decomposable", "move_is_decomposable",
        "read_edge_list", "write_edge_list",
    ),
    "mcmc": ("ChainConfig", "ChainResult", "median_probability_graph", "run_chain"),
    "metrics": (
        "ConfusionCounts", "SelectionReport", "confusion", "relative_errors",
        "selection_report",
    ),
    "model": (
        "Dataset", "GraphScore", "GraphScorer", "GroundTruth", "Hyperparameters",
        "bayes_estimator_l1_stein", "log_posterior_ratio", "posterior_mean_precision",
    ),
    "numerics": ("log_multigamma", "make_rng", "sample_mvn", "submatrix"),
    "search": ("CandidateConfig", "ModeSearchResult", "hybrid_mode", "shotgun_search"),
    "simulate": (
        "ConditionsReport", "TrueModelSpec", "build_truth", "conditions_report",
        "posterior_ratio_experiment", "sample_dataset",
    ),
}
# the one name -> module table behind ``__getattr__`` and ``__dir__``
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
