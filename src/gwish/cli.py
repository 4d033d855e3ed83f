"""Command line entry points.

``estimate`` computes Omega given a graph; the model-averaged estimate is
``mcmc --sample-precision``.  Every run writes a ``meta.json`` with the
fully resolved configuration.  Exit codes: 0 on success, 2 on usage or
validation problems, 3 on model or numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GwishError, NotPositiveDefinite
from .graph import UndirectedGraph, is_decomposable, read_edge_list, write_edge_list
from .mcmc import (
    KERNELS,
    ChainConfig,
    exact_posterior,
    median_probability_graph,
    run_chain,
    tv_distance,
    visit_frequencies,
)
from .metrics import relative_errors, selection_report
from .model import (
    Dataset,
    Hyperparameters,
    PRESETS,
    _check_finite,
    _log_bayes_factor_and_ratio,
    bayes_estimator_l1_stein,
    posterior_mean_precision,
    theory_r_max,
)
from .numerics import make_rng
from .search import CandidateConfig, hybrid_mode
from .simulate import (
    KINDS,
    TrueModelSpec,
    build_truth,
    conditions_report,
    posterior_ratio_experiment,
    sample_dataset,
)


class UsageError(Exception):
    pass


def _write_matrix(path: Path, m: np.ndarray, header: list[str] | None = None) -> None:
    """The rows of a float array as ``%.17g`` comma-separated lines, after an
    optional header: the bytes ``np.savetxt(..., delimiter=",", fmt="%.17g")``
    writes."""
    m = np.atleast_2d(m)
    row = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.write("".join([row % tuple(r) for r in m.tolist()]))


def _write_rows(path: Path, rows: list[dict]) -> None:
    """A header of the first row's keys, then one line of ``repr`` values per row."""
    cols = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in cols) + "\n")


def _read_matrix(path: str) -> np.ndarray:
    # tolerate a single non-numeric header line; Dataset.from_matrix reports
    # a file without data rows, so numpy's own warning about it is dropped
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError:
            return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_meta(outdir: Path, payload: dict) -> None:
    _write_json(outdir / "meta.json", {"version": __version__, **payload})


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", default=None, help="directory from gen-data")
    sp.add_argument("--x", default=None, help="data matrix CSV")
    sp.add_argument("--nu", type=float, default=3.0, help="Wishart df (> 2)")
    sp.add_argument("--g", type=float, default=None, help="prior scale multiplier")
    sp.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="resolve g from a named power-law preset at the data dimension",
    )
    sp.add_argument("--c-tau", type=float, default=0.5, help="prior size penalty slope")
    sp.add_argument("--r-max", type=int, default=None, help="edge-count cap")
    sp.add_argument(
        "--r-theory",
        action="store_true",
        help="set the edge cap to the theory scaling (n / log max(n, p))^(1/4)",
    )


def _load_model(args) -> tuple[Dataset, Hyperparameters]:
    if args.data:
        xpath = Path(args.data) / "X.csv"
        if not xpath.exists():
            raise UsageError(f"no X.csv under {args.data}")
        data = Dataset.from_matrix(_read_matrix(str(xpath)))
    elif args.x:
        data = Dataset.from_matrix(_read_matrix(args.x))
    else:
        raise UsageError("supply --data DIR or --x FILE")
    if args.g is not None and args.preset is not None:
        raise UsageError("--g and --preset are mutually exclusive")
    r_max = args.r_max
    if args.r_theory:
        if r_max is not None:
            raise UsageError("--r-max and --r-theory are mutually exclusive")
        r_max = theory_r_max(data.n, data.p)
    fields = {"nu": args.nu, "c_tau": args.c_tau, "r_max": r_max}
    if args.g is not None:
        return data, Hyperparameters(g=args.g, **fields)
    return data, Hyperparameters.preset(args.preset or "selection", data.p, **fields)


def _cmd_gen_data(args) -> int:
    try:
        spec = TrueModelSpec(kind=args.kind, p=args.p)
        truth = build_truth(spec)
    except (ValueError, NotPositiveDefinite) as exc:
        raise UsageError(f"invalid model spec: {exc}") from exc
    if args.n < 2:
        raise UsageError("n must be at least 2")
    out = _outdir(args)
    rng = make_rng(args.seed, args.stream)
    data = sample_dataset(truth, args.n, rng)
    header = [f"x{i + 1}" for i in range(args.p)] if args.header else None
    _write_matrix(out / "X.csv", data.x, header)
    _write_matrix(out / "omega0.csv", truth.omega)
    write_edge_list(truth.graph, str(out / "graph0.edges"))
    meta = {
        "command": "gen-data",
        "kind": args.kind,
        "p": args.p,
        "n": args.n,
        "seed": args.seed,
        "stream": args.stream,
        "true_edges": truth.graph.size,
    }
    if args.conditions:
        rep = conditions_report(truth, rng=make_rng(args.seed, args.stream + 1))
        _write_json(out / "conditions.json", rep.__dict__)
        meta["conditions"] = "conditions.json"
    _write_meta(out, meta)
    return 0


def _cmd_mcmc(args) -> int:
    data, hyper = _load_model(args)
    init: UndirectedGraph | str = args.init or "empty"
    if args.init_graph:
        if args.init is not None:
            raise UsageError("--init and --init-graph are mutually exclusive")
        init = read_edge_list(args.init_graph, p=data.p)
    config = ChainConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
        stream=args.stream,
        kernel=args.kernel,
        init=init,
        sample_precision=args.sample_precision,
        track_graphs=args.p4_oracle,
    )
    if args.p4_oracle and data.p != 4:
        raise UsageError("--p4-oracle requires 4-column data")
    result = run_chain(config, data, hyper)
    out = _outdir(args)
    median = median_probability_graph(result)
    _write_matrix(out / "inclusion.csv", result.inclusion)
    write_edge_list(median, str(out / "median_graph.edges"))
    write_edge_list(result.best_graph, str(out / "best_graph.edges"))
    trace = np.column_stack(
        [
            np.arange(len(result.log_posterior_trace)),
            result.log_posterior_trace,
            result.size_trace,
            result.accepted_trace.astype(int),
        ]
    )
    header = ["iteration", "log_posterior", "size", "accepted"]
    _write_matrix(out / "trace.csv", trace, header)
    meta = {
        "command": "mcmc",
        "n": data.n,
        "p": data.p,
        "iterations": config.iterations,
        "burn_in": config.burn_in,
        "seed": config.seed,
        "stream": config.stream,
        "kernel": config.kernel,
        "init": str(config.init),
        "hyper": asdict(hyper),
        "acceptance_rate": result.acceptance_rate,
        "best_log_posterior": result.best_score.log_posterior,
        "median_graph_edges": median.size,
        "median_graph_decomposable": is_decomposable(median),
    }
    if result.precision_mean is not None:
        _write_matrix(out / "omega_mcmc.csv", result.precision_mean)
    if args.p4_oracle:
        exact = exact_posterior(data, hyper)
        tv = tv_distance(visit_frequencies(result), exact)
        meta["p4_oracle_tv"] = tv
        print(f"p4 oracle: total variation distance = {tv:.4f}")
    _write_meta(out, meta)
    return 0


def _cmd_search(args) -> int:
    data, hyper = _load_model(args)
    kwargs = {}
    if args.ridge_grid:
        kwargs["ridge_grid"] = tuple(float(v) for v in args.ridge_grid.split(","))
    if args.threshold_grid:
        kwargs["threshold_grid"] = tuple(
            float(v) for v in args.threshold_grid.split(",")
        )
    if args.max_candidates is not None:
        kwargs["max_candidates"] = args.max_candidates
    config = CandidateConfig(**kwargs)
    rng = make_rng(args.seed, args.stream)
    result = hybrid_mode(
        data,
        hyper,
        config=config,
        search_iters=args.search_iters,
        rng=rng,
    )
    out = _outdir(args)
    write_edge_list(result.mode_graph, str(out / "mode_graph.edges"))
    payload = {
        "log_marginal": result.mode_score.log_marginal,
        "log_prior": result.mode_score.log_prior,
        "log_posterior": result.mode_score.log_posterior,
        "edges": result.mode_graph.size,
        "visited": result.visited,
    }
    _write_json(out / "mode.json", payload)
    _write_meta(
        out,
        {
            "command": "search",
            "n": data.n,
            "p": data.p,
            "seed": args.seed,
            "stream": args.stream,
            "search_iters": args.search_iters,
            "ridge_grid": list(config.ridge_grid),
            "threshold_grid_size": len(config.threshold_grid),
            "max_candidates": config.max_candidates,
            "hyper": asdict(hyper),
            **payload,
        },
    )
    return 0


def _cmd_bf(args) -> int:
    data, hyper = _load_model(args)
    g1 = read_edge_list(args.graph1, p=data.p)
    g0 = read_edge_list(args.graph0, p=data.p)
    log_bf, log_ratio = _log_bayes_factor_and_ratio(data, g1, g0, hyper)
    payload = {
        "log_bayes_factor": log_bf,
        "log_posterior_ratio": log_ratio,
        "hyper": asdict(hyper),
        "n": data.n,
        "p": data.p,
    }
    if abs(log_ratio) == float("inf"):
        # exactly one graph has prior -inf (both raise above), and JSON has
        # no infinity: the ratio is null and the key names that graph
        payload["log_posterior_ratio"] = None
        payload["outside_support"] = "graph1" if log_ratio < 0 else "graph0"
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out:
        out = _outdir(args)
        (out / "bf.json").write_text(text + "\n")
        _write_meta(out, {"command": "bf", **payload})
    return 0


def _cmd_ratio_experiment(args) -> int:
    p_list = [int(v) for v in args.p_list.split(",")]
    rows = posterior_ratio_experiment(
        p_list,
        args.n,
        args.case,
        seed=args.seed,
        hyper_preset=args.preset or "ratio",
        n_seeds=args.replicates,
    )
    out = _outdir(args)
    _write_rows(out / "ratio.csv", rows)
    _write_meta(
        out,
        {
            "command": "ratio-experiment",
            "case": args.case,
            "p_list": p_list,
            "n": args.n,
            "seed": args.seed,
            "replicates": args.replicates,
            "preset": args.preset or "ratio",
        },
    )
    return 0


def _cmd_estimate(args) -> int:
    data, hyper = _load_model(args)
    graph = read_edge_list(args.graph, p=data.p)
    if args.estimator == "l2":
        omega = posterior_mean_precision(data, graph, hyper)
    else:
        omega = bayes_estimator_l1_stein(data, graph, hyper)
    out = _outdir(args)
    _write_matrix(out / "omega_hat.csv", omega)
    _write_meta(
        out,
        {
            "command": "estimate",
            "estimator": args.estimator,
            "n": data.n,
            "p": data.p,
            "seed": args.seed,
            "hyper": asdict(hyper),
            "graph_edges": graph.size,
        },
    )
    return 0


def _cmd_metrics(args) -> int:
    if bool(args.graph) != bool(args.truth):
        raise UsageError("--graph and --truth go together")
    if bool(args.omega) != bool(args.omega0):
        raise UsageError("--omega and --omega0 go together")
    if not (args.graph or args.omega):
        raise UsageError("nothing to do: pass --graph/--truth and/or --omega/--omega0")
    if args.graph:
        est = read_edge_list(args.graph, p=args.p)
        tru = read_edge_list(args.truth, p=args.p)
        if est.p != tru.p:
            raise UsageError(f"--graph has p={est.p} but --truth has p={tru.p}")
    if args.omega:
        est_m = _read_matrix(args.omega)
        tru_m = _read_matrix(args.omega0)
        _check_finite(est_m, args.omega)
        _check_finite(tru_m, args.omega0)
        if est_m.shape != tru_m.shape:
            raise UsageError(
                f"--omega has shape {est_m.shape} but --omega0 has shape {tru_m.shape}"
            )
    out = _outdir(args)
    summary: dict = {"command": "metrics"}
    if args.graph:
        rep = selection_report(est, tru)
        row = {
            "tp": rep.counts.tp,
            "fp": rep.counts.fp,
            "tn": rep.counts.tn,
            "fn": rep.counts.fn,
            "precision": rep.precision,
            "sensitivity": rep.sensitivity,
            "specificity": rep.specificity,
            "mcc": rep.mcc,
            "degenerate": int(rep.degenerate),
        }
        _write_rows(out / "selection.csv", [row])
        summary["selection"] = row
    if args.omega:
        errs = relative_errors(est_m, tru_m)
        _write_rows(out / "errors.csv", [errs])
        summary["relative_errors"] = errs
    print(json.dumps(summary, indent=2, sort_keys=True))
    _write_meta(out, summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwish",
        description="Bayesian structure learning for decomposable Gaussian graphical models",
    )
    ap.add_argument("--version", action="version", version=f"gwish {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="simulate a dataset from a named truth")
    sp.add_argument("--kind", choices=KINDS, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--header", action="store_true", help="write a column header")
    sp.add_argument(
        "--conditions", action="store_true", help="also write identifiability diagnostics"
    )
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen_data)

    sp = sub.add_parser("mcmc", help="sample graphs from the posterior")
    _add_model_flags(sp)
    sp.add_argument("--iterations", type=int, default=3000)
    sp.add_argument("--burn-in", type=int, default=3000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--kernel", choices=tuple(KERNELS), default="uniform")
    sp.add_argument("--init", choices=("empty", "threshold"), help="default: empty")
    sp.add_argument("--init-graph", default=None, help="edge-list file to start from")
    sp.add_argument(
        "--sample-precision",
        action="store_true",
        help="also write omega_mcmc.csv, the model-averaged posterior mean of Omega",
    )
    sp.add_argument(
        "--p4-oracle",
        action="store_true",
        help="compare visit frequencies against the enumerated posterior (p=4)",
    )
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_mcmc)

    sp = sub.add_parser("search", help="hunt for the posterior mode graph")
    _add_model_flags(sp)
    sp.add_argument("--ridge-grid", default=None, help="comma-separated ridge values")
    sp.add_argument("--threshold-grid", default=None, help="comma-separated thresholds")
    sp.add_argument("--max-candidates", type=int, default=None)
    sp.add_argument("--search-iters", type=int, default=30)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("bf", help="log Bayes factor between two graphs")
    _add_model_flags(sp)
    sp.add_argument("--graph1", required=True)
    sp.add_argument("--graph0", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_bf)

    sp = sub.add_parser(
        "ratio-experiment", help="posterior ratios of case graphs vs the truth"
    )
    sp.add_argument("--case", type=int, choices=(1, 2, 3, 4), required=True)
    sp.add_argument("--p-list", default="50,100,150")
    sp.add_argument("--n", type=int, default=150)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replicates", type=int, default=1)
    sp.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_ratio_experiment)

    sp = sub.add_parser("estimate", help="precision matrix estimate given a graph")
    _add_model_flags(sp)
    sp.add_argument("--estimator", choices=("l2", "l1-stein"), required=True)
    sp.add_argument("--graph", required=True, help="edge list of the graph")
    sp.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded in meta.json: both estimators are exact and draw nothing",
    )
    sp.add_argument(
        "--mc-draws",
        type=int,
        default=None,
        help="accepted and ignored: l1-stein is computed exactly, without draws",
    )
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("metrics", help="selection metrics and matrix errors")
    sp.add_argument("--graph", default=None, help="estimated edge list")
    sp.add_argument("--truth", default=None, help="true edge list")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--omega", default=None, help="estimated matrix CSV")
    sp.add_argument("--omega0", default=None, help="true matrix CSV")
    sp.add_argument("--out", default=".")
    sp.set_defaults(func=_cmd_metrics)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except GwishError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
