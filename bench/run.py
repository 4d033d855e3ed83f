"""gwish benchmark: real CLI pipelines, timed end to end and traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload select-p60 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` each command of the workload runs in its own interpreter
with ``src/`` on the path, the pipeline repeats while the next repetition
fits in ``--seconds``, and the end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` the pipeline runs once that way, then twice
in this process through ``gwish.cli.main``: plain, then under the layer
tracer of ``layertrace.py``.  The traced outputs must equal the untraced ones
byte for byte.  The last line of standard output is the result JSON; the full
report (provenance, output hashes, per-command times, per-function trace
statistics) is written under ``.bench_run/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# Every measured process, including this one for the traced run, uses one
# BLAS thread; set before numpy is imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

from layertrace import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 5
CHAIN_HALF = 1500  # select-p60 burn-in and kept iterations, 3000 steps in all

# Output checks.  MCC_FLOOR and SPECTRAL_CEILING sit well clear of the values
# seen over seeds 1-12 (MCC 0.93-0.98) and 1-15 (spectral error 0.49-0.60).
# The Stein-loss estimator inverts a Monte Carlo mean of covariances, so
# entries off the graph are small but not exactly zero: at most 0.12% of the
# largest entry over seeds 1-15.
MCC_FLOOR = 0.85
SPECTRAL_CEILING = 0.75
OFF_GRAPH_SHARE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]  # argv per command; argv[0] names it
    compute: tuple[str, ...]  # names of the model-fitting commands
    checks: Callable[[Path], list[tuple[str, bool, object]]]


# -- output checks, independent of the code under test ------------------------


def read_edges(path: Path) -> tuple[int, set[tuple[int, int]]]:
    p, edges = None, set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("p="):
            p = int(line[2:])
        elif line:
            i, j = (int(t) - 1 for t in line.split())
            edges.add((min(i, j), max(i, j)))
    return p, edges


def read_csv_row(path: Path) -> dict[str, float]:
    head, row = path.read_text().splitlines()[:2]
    return dict(zip(head.split(","), (float(v) for v in row.split(","))))


def mcc(p: int, est: set, truth: set) -> float:
    tp = len(est & truth)
    fp = len(est - truth)
    fn = len(truth - est)
    tn = p * (p - 1) // 2 - tp - fp - fn
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / den if den else 0.0


def is_chordal(p: int, edges: set) -> bool:
    """Maximum cardinality search: every vertex's earlier neighbours form a clique."""
    nbrs = [set() for _ in range(p)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    weight = [0] * p
    visited: set[int] = set()
    for _ in range(p):
        z = max((v for v in range(p) if v not in visited), key=lambda v: weight[v])
        earlier = nbrs[z] & visited
        if any(b not in nbrs[a] for a in earlier for b in earlier if a < b):
            return False
        visited.add(z)
        for v in nbrs[z]:
            weight[v] += 1
    return True


def check_select(d: Path) -> list[tuple[str, bool, object]]:
    p, truth = read_edges(d / "data/graph0.edges")
    _, median = read_edges(d / "mcmc/median_graph.edges")
    value = mcc(p, median, truth)
    reported = read_csv_row(d / "metrics/selection.csv")["mcc"]
    trace = np.loadtxt(d / "mcmc/trace.csv", delimiter=",", skiprows=1, ndmin=2)
    return [
        ("mcc_floor", value >= MCC_FLOOR, value),
        ("metrics_mcc_agrees", abs(reported - value) <= 1e-12, reported),
        ("trace_complete", trace.shape[0] == 2 * CHAIN_HALF
         and set(trace[:, 3]) <= {0, 1}, trace.shape[0]),
    ]


def check_ratio(d: Path) -> list[tuple[str, bool, object]]:
    row = read_csv_row(d / "ratio/ratio.csv")
    lpr = row["log_posterior_ratio"]
    return [
        ("ratio_negative", math.isfinite(lpr) and lpr < 0, lpr),
        ("case_size", row["size_case"] == 2 * row["size_truth"],
         [row["size_case"], row["size_truth"]]),
    ]


def check_mode_est(d: Path) -> list[tuple[str, bool, object]]:
    p, graph = read_edges(d / "mode/mode_graph.edges")
    mode = json.loads((d / "mode/mode.json").read_text())
    omega = np.loadtxt(d / "est/omega_hat.csv", delimiter=",", ndmin=2)
    omega0 = np.loadtxt(d / "data/omega0.csv", delimiter=",", ndmin=2)
    finite_sym = bool(np.all(np.isfinite(omega))) and np.array_equal(omega, omega.T)
    try:
        np.linalg.cholesky(omega)
        pd = finite_sym
    except np.linalg.LinAlgError:
        pd = False
    allowed = np.eye(p, dtype=bool)
    for i, j in graph:
        allowed[i, j] = allowed[j, i] = True
    off_share = float(np.abs(omega[~allowed]).max(initial=0.0) / np.abs(omega).max())
    spectral = float(np.linalg.norm(omega - omega0, 2) / np.linalg.norm(omega0, 2))
    reported = read_csv_row(d / "metrics/errors.csv")["spectral"]
    return [
        ("mode_decomposable",
         is_chordal(p, graph) and math.isfinite(mode["log_posterior"])
         and mode["edges"] == len(graph), mode["log_posterior"]),
        ("omega_positive_definite", pd, finite_sym),
        ("omega_support_in_graph", off_share <= OFF_GRAPH_SHARE, off_share),
        ("spectral_error", spectral <= SPECTRAL_CEILING
         and abs(reported - spectral) <= 1e-9 * spectral, spectral),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-p60",
            (
                ("gen-data", "--kind", "ar2", "--p", "60", "--n", "150",
                 "--seed", "{seed}", "--out", "data"),
                ("mcmc", "--data", "data", "--preset", "selection",
                 "--kernel", "uniform", "--init", "threshold",
                 "--iterations", str(CHAIN_HALF), "--burn-in", str(CHAIN_HALF),
                 "--seed", "{seed}", "--out", "mcmc"),
                ("metrics", "--graph", "mcmc/median_graph.edges",
                 "--truth", "data/graph0.edges", "--out", "metrics"),
            ),
            ("mcmc",),
            check_select,
        ),
        Workload(
            "ratio-c3-p100",
            (
                ("ratio-experiment", "--case", "3", "--p-list", "100", "--n", "150",
                 "--seed", "{seed}", "--out", "ratio"),
            ),
            ("ratio-experiment",),
            check_ratio,
        ),
        Workload(
            "mode-est-p40",
            (
                ("gen-data", "--kind", "ar1", "--p", "40", "--n", "120",
                 "--seed", "{seed}", "--out", "data"),
                ("search", "--data", "data", "--preset", "selection",
                 "--search-iters", "10", "--seed", "{seed}", "--out", "mode"),
                ("estimate", "--data", "data", "--preset", "selection",
                 "--estimator", "l1-stein", "--graph", "mode/mode_graph.edges",
                 "--mc-draws", "300", "--seed", "{seed}", "--out", "est"),
                ("metrics", "--graph", "mode/mode_graph.edges", "--truth", "data/graph0.edges",
                 "--omega", "est/omega_hat.csv", "--omega0", "data/omega0.csv",
                 "--out", "metrics"),
            ),
            ("search", "estimate"),
            check_mode_est,
        ),
    )
}

# The per-command time each workload is built around, reported by name.
COMMAND_METRICS = {"mcmc": "mcmc_s", "ratio-experiment": "ratio_s",
                   "search": "search_s", "estimate": "estimate_s"}


def argv_for(wl: Workload, seed: int) -> list[tuple[str, list[str]]]:
    """(command name, argv) pairs with the seed filled in."""
    return [(argv[0], [a.format(seed=seed) for a in argv]) for argv in wl.commands]


# -- running commands ------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list[str], cwd: Path, label: str, env: dict) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS in MB).

    Peak RSS comes from this child's own rusage via ``os.wait4``.
    """
    with open(cwd / f"{label}.stdout", "wb") as out, open(cwd / f"{label}.stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def gwish_args(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "gwish.cli", *argv]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


PROBE = """
import json, sys, numpy, scipy, gwish
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"gwish_file": gwish.__file__, "python": sys.version.split()[0],
    "numpy": numpy.__version__, "scipy": scipy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


def provenance(seed: int, env: dict) -> dict:
    """Versions, hardware and source identity; exits 2 if gwish is not this checkout's."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        sys.exit(f"bench: cannot import gwish from {SRC}:\n{probe.stderr.strip()}")
    info = json.loads(probe.stdout)
    if not Path(info["gwish_file"]).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported {info['gwish_file']}, not the checkout under {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "gwish").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        **info,
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pinned_env": PINNED_ENV,
        "seed": seed,
    }


def output_hashes(d: Path) -> dict[str, str]:
    return {str(f.relative_to(d)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(d.rglob("*")) if f.is_file()}


def run_checks(wl: Workload, d: Path) -> list[tuple[str, bool, object]]:
    try:
        return wl.checks(d)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("outputs_readable", False, repr(exc))]


def run_pipeline(wl: Workload, seed: int, d: Path, env: dict) -> dict:
    """One repetition of the workload, one interpreter per command."""
    fresh_dir(d)
    times, rss, failed = {}, {}, 0
    for label, argv in argv_for(wl, seed):
        times[label], code, rss[label] = spawn(gwish_args(argv), d, label, env)
        if code != 0:
            failed += 1
            break
    checks = [] if failed else run_checks(wl, d)
    return {
        "times": times,
        "rss_mb": rss,
        "attempted": len(times) + len(checks),
        "failed": failed + sum(not ok for _, ok, _ in checks),
        "checks": checks,
    }


def run_in_process(wl: Workload, seed: int, d: Path, main,
                   tracer: Tracer | None) -> tuple[float, int, int]:
    """The commands through ``gwish.cli.main``: (wall seconds, attempted, failed)."""
    fresh_dir(d)
    attempted, failed, wall = 0, 0, 0.0
    with contextlib.chdir(d):
        for label, argv in argv_for(wl, seed):
            scope = tracer.command(label) if tracer else contextlib.nullcontext()
            with open(f"{label}.stdout", "w") as out, open(f"{label}.stderr", "w") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                with scope:
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a crash is a failed command, as in a child
                        traceback.print_exc()
                        code = 1
                wall += perf_counter() - t0
            attempted += 1
            if code != 0:
                failed += 1
                break
    return wall, attempted, failed


# -- metrics ---------------------------------------------------------------------


def end_to_end(wl: Workload, seed: int, seconds: float, env: dict, out: Path) -> tuple[dict, dict]:
    spawn(gwish_args(["--version"]), out, "version", env)  # bytecode caches
    setup_runs = [spawn(gwish_args(["--version"]), out, "version", env)
                  for _ in range(SETUP_REPEATS)]
    setup = [wall for wall, _, _ in setup_runs]
    reps: list[dict] = []
    t_start = perf_counter()
    while True:
        t_rep = perf_counter()
        reps.append(run_pipeline(wl, seed, out / "rep", env))
        now = perf_counter()
        if now - t_start + (now - t_rep) > seconds:
            break
    walls = [sum(r["times"].values()) for r in reps]
    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(walls), "s"),
        "compute_s": (med([sum(r["times"].get(c, 0.0) for c in wl.compute) for r in reps]), "s"),
        "peak_rss_mb": (med([max(r["rss_mb"].values()) for r in reps]), "MB"),
    }
    report = {
        "repetitions": len(reps),
        "setup_runs_s": setup,
        "wall_runs_s": walls,
        "commands_s": {COMMAND_METRICS.get(c, c + "_s"): med(ts) for c, *_ in wl.commands
                       if (ts := [r["times"][c] for r in reps if c in r["times"]])},
        "peak_rss_mb": reps[-1]["rss_mb"],
        "checks": reps[-1]["checks"],
        "output_sha256": output_hashes(out / "rep"),
    }
    attempted = SETUP_REPEATS + sum(r["attempted"] for r in reps)
    failed = sum(code != 0 for _, code, _ in setup_runs) + sum(r["failed"] for r in reps)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


TIMED = ("graph.connected", "graph.random_decomposable_move", "graph.move_is_decomposable",
         "graph.perfect_sequence", "graph.is_decomposable", "graph.decomposable_neighbors",
         "model.GraphScorer.score", "mcmc.mh_step", "model.sample_precision_given_graph",
         "numerics.sample_wishart_complete", "numerics.cholesky_logdet")
SELF_ONLY = ("simulate.case_graph", "search.candidate_graphs", "search.shotgun_search",
             "mcmc.run_chain", "cli")


def layer_metrics(tr: Tracer, traced_s: float, plain_s: float) -> dict:
    def stat(name, table=tr.stats):
        return table.get(name, [0, 0.0, 0.0])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (stat(name)[0], "count")
        m[f"{name}.self_s"] = (stat(name)[2], "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (stat(name)[2], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v[2] for k, v in tr.stats.items()
                                    if k.startswith(layer + ".")), "s")
    hit, miss = stat("model.clique_term.hit", tr.tagged), stat("model.clique_term.miss", tr.tagged)
    m["model.clique_term.hits"] = (hit[0], "count")
    m["model.clique_term.misses"] = (miss[0], "count")
    m["model.clique_term.hit_us"] = (ratio(hit[1], hit[0]) * 1e6, "us")
    m["model.clique_term.miss_us"] = (ratio(miss[1], miss[0]) * 1e6, "us")
    c = tr.counters
    steps = stat("mcmc.mh_step")[0]
    m["mcmc.proposal_yield"] = (ratio(steps, c.get("mcmc.mh_step.validity_tests", 0)), "ratio")
    m["mcmc.accept_rate"] = (ratio(c.get("mcmc.mh_step.accepted", 0), steps), "ratio")
    m["search.candidates"] = (c.get("search.candidates", 0), "count")
    m["search.visited"] = (c.get("search.visited", 0), "count")
    m["trace.overhead"] = (ratio(traced_s, plain_s), "ratio")
    return m


def traced(wl: Workload, seed: int, env: dict, out: Path) -> tuple[dict, dict]:
    rep = run_pipeline(wl, seed, out / "untraced", env)
    sys.path.insert(0, str(SRC))
    import gwish.cli

    if not Path(gwish.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported {gwish.cli.__file__}, not the checkout under {SRC}")
    plain_s, plain_attempted, plain_failed = run_in_process(
        wl, seed, out / "in-process", gwish.cli.main, None)
    tr = Tracer()
    tr.install()
    try:
        traced_s, traced_attempted, traced_failed = run_in_process(
            wl, seed, out / "traced", gwish.cli.main, tr)
    finally:
        tr.uninstall()
    hashes = output_hashes(out / "untraced")
    identical = hashes == output_hashes(out / "traced")
    tr.write_spans(out / "spans.csv")
    report = {
        "checks": rep["checks"] + [("traced_outputs_identical", identical, None)],
        "in_process_s": {"untraced": plain_s, "traced": traced_s},
        "functions": tr.function_stats(),
        "counters": tr.counters,
        "output_sha256": hashes,
        "spans_file": str((out / "spans.csv").relative_to(ROOT)),
    }
    result = {
        "attempted": rep["attempted"] + plain_attempted + traced_attempted + 1,
        "failed": rep["failed"] + plain_failed + traced_failed + (not identical),
        "metrics": layer_metrics(tr, traced_s, plain_s),
    }
    return result, report


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict, prov: dict) -> dict:
    wl = WORKLOADS[name]
    out = fresh_dir(WORK / name)
    result, report = (traced(wl, seed, env, out) if trace
                      else end_to_end(wl, seed, seconds, env, out))
    result = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    full = {"workload": name, "trace": trace, "provenance": prov, **report, "result": result}
    (out / "report.json").write_text(json.dumps(full, indent=2, default=str) + "\n")
    summary = {k: report[k] for k in ("commands_s", "checks", "in_process_s") if k in report}
    print(f"{name}: {json.dumps(summary, default=str)}")
    print(f"{name}: output_sha256 {json.dumps(report['output_sha256'])}")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = child_env()
    prov = provenance(args.seed, env)
    WORK.mkdir(exist_ok=True)
    print(f"provenance: {json.dumps(prov)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env, prov)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        for n, r in results.items():
            print(f"{n}: {json.dumps(r)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
