"""One workload in a fresh interpreter: set up, wait for the word, run, report.

Started by ``run.py``.  It imports qsym and makes the workload's inputs,
prints ``ready``, and then reads one line from stdin: ``go`` runs the
passes, anything else exits.  The last line it prints is a JSON record of
every job and, on a traced run, the per-layer metrics.

Passes run whole rounds of the workload, back to back, one job at a time.
A pass stops at the round boundary nearest its time budget, so a run
always measures the workload's full job mix.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc

import numpy as np

# the checkout's library, ahead of any installed copy
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

#: the public functions wrapped in spans on a traced run, with the counters
#: that derive their work from arguments and returned reports
TARGETS = [
    ("qsym.spaces", "build_space", None),
    ("qsym.spaces", "build_map", None),
    ("qsym.fileio", "load_space_document", None),
    ("qsym.fileio", "load_map_document", None),
    ("qsym.fileio", "save_envelope",
     lambda a, k, r, d: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])}),
    ("qsym.triangle", "check_triangle",
     lambda a, k, r, d: {"triples": a[0].n ** 2 * (a[0].n - 1)}),
    ("qsym.triangle", "minimal_bmetric_K",
     lambda a, k, r, d: {"triples": a[0].n ** 2 * (a[0].n - 1) if a[0].n >= 3 else 0}),
    ("qsym.triangle", "is_ptolemaic", lambda a, k, r, d: {"quadruples": r.checked // 3}),
    ("qsym.moduli", "parse_modulus", None),
    ("qsym.moduli", "invert_modulus", None),
    ("qsym.quasisymmetry", "empirical_modulus",
     lambda a, k, r, d: {"ratios": a[0].domain.n * (a[0].domain.n - 1) ** 2, "knots": len(r)}),
    ("qsym.quasisymmetry", "check_qs", None),
    ("qsym.quasisymmetry", "tv_bounds", None),
    ("qsym.quasisymmetry", "bounded_image_bounds", None),
    ("qsym.quasisymmetry", "eta_ratio_report", None),
    ("qsym.transfer", "check_transfer_condition", lambda a, k, r, d: _transfer_counts(a, k, r)),
    ("qsym.transfer", "verify_transfer_end_to_end", None),
    ("qsym.transfer", "ptolemy_transfer_check", None),
    ("qsym.transfer", "minimal_transfer_K2", None),
    ("qsym.betweenness", "betweenness_triples", lambda a, k, r, d: {"found": len(r)}),
    ("qsym.betweenness", "line_embed", None),
    ("qsym.weak_similarity", "find_weak_similarity",
     lambda a, k, r, d: {"found": int(r is not None)}),
    ("qsym.weak_similarity", "forced_scaling", None),
    ("qsym.weak_similarity", "verify_weak_similarity", None),
    ("qsym.weak_similarity", "check_monotone_implications", None),
    ("qsym.cli", "main",
     lambda a, k, r, d: {f"{a[0][0]}.wall": d, f"{a[0][0]}.calls": 1}),
]

#: per-layer metrics: (span, statistics); see ``layer_metrics`` for units
LAYER_METRICS = [
    ("spaces.build_space", ("calls", "busy_s")),
    ("spaces.build_map", ("busy_s",)),
    ("fileio.load_space_document", ("busy_s",)),
    ("fileio.load_map_document", ("busy_s",)),
    ("fileio.save_envelope", ("busy_s", "bytes")),
    ("triangle.check_triangle", ("calls", "busy_s", "triples")),
    ("triangle.minimal_bmetric_K", ("busy_s", "triples")),
    ("triangle.is_ptolemaic", ("calls", "busy_s", "self_s", "quadruples", "peak_mb")),
    ("moduli.parse_modulus", ("busy_s",)),
    ("moduli.invert_modulus", ("calls", "busy_s")),
    ("quasisymmetry.empirical_modulus",
     ("calls", "busy_s", "ratios", "knots", "knot_frac", "peak_mb")),
    ("quasisymmetry.check_qs", ("calls", "busy_s", "self_s")),
    ("quasisymmetry.tv_bounds", ("self_s",)),
    ("quasisymmetry.bounded_image_bounds", ("self_s",)),
    ("quasisymmetry.eta_ratio_report", ("self_s",)),
    ("transfer.check_transfer_condition",
     ("busy_s", "scanned_pairs", "checked_pairs", "premise_frac")),
    ("transfer.verify_transfer_end_to_end", ("self_s",)),
    ("transfer.ptolemy_transfer_check", ("busy_s", "self_s")),
    ("transfer.minimal_transfer_K2", ("busy_s",)),
    ("betweenness.betweenness_triples", ("busy_s", "found", "peak_mb")),
    ("betweenness.line_embed", ("busy_s",)),
    ("weak_similarity.find_weak_similarity", ("calls", "busy_s", "found_frac")),
    ("weak_similarity.forced_scaling", ("busy_s",)),
    ("weak_similarity.verify_weak_similarity", ("busy_s",)),
    ("weak_similarity.check_monotone_implications", ("busy_s",)),
    ("cli.main", ("self_s",)),
]
MODULES = ("spaces", "fileio", "triangle", "moduli", "quasisymmetry", "transfer",
           "betweenness", "weak_similarity", "cli")
CLI_SUBCOMMANDS = ("check", "qs-check", "transfer", "distortion", "between", "weaksim",
                   "modulus", "invert-eta", "fit-snowflake", "gen")

#: share of --seconds for each of the untraced and the traced pass of a
#: traced run; both run the same rounds, so their rates compare directly
TRACED_PASS_SHARE = 0.4


def _transfer_counts(args, kwargs, rep):
    """Pairs scanned and premise pairs checked, for realized scans that ran
    to the end (a failing scan stops at an unrecorded base point)."""
    pairs = args[3] if len(args) > 3 else kwargs.get("pairs")
    if pairs is None or not rep.holds:
        return {}
    n = pairs.domain.n if hasattr(pairs, "domain") else pairs.n
    return {"scanned_pairs": n * (n - 1) * (n - 2), "checked_pairs": rep.checked_pairs}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def run_pass(wl, budget, deadline, tracer=None, one_per_class=False):
    """Whole rounds from the first until the round boundary nearest
    ``budget`` seconds, or the first job of each class in one round.  After
    the wall-clock ``deadline`` no new job starts, once one job has run; the
    pass is then marked cut."""
    jobs, uncovered = [], []
    r = 0
    cut = False
    start = time.perf_counter()
    while not cut:
        todo = wl.round(r)
        if one_per_class:
            todo = list({job.kind: job for job in reversed(todo)}.values())
        for job in todo:
            if jobs and time.time() >= deadline:
                cut = True
                break
            if tracer is not None:
                tracer.top_busy = 0.0
            error = None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, workloads.JOB_TIMEOUT_S)
            try:
                job.run()
            except JobTimeout:
                error = f"timeout after {workloads.JOB_TIMEOUT_S:g} s"
            except workloads.WrongVerdict as exc:
                error = f"wrong verdict: {exc}"
            except Exception as exc:  # every failure is reported, never dropped
                error = f"exception: {exc!r}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            if error is not None:
                print(f"job {job.kind} failed: {error}", file=sys.stderr)
            jobs.append((job.kind, wall, error))
            if tracer is not None:
                uncovered.append(max(0.0, 1.0 - tracer.top_busy / wall))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= budget:
            break
    return {"jobs": jobs, "wall": time.perf_counter() - start, "rounds": r,
            "uncovered": uncovered, "cut": cut}


def layer_metrics(traced, memory_stats):
    """Per-job means over the traced pass (times in s, counts per job),
    ratios of totals, and peaks from the memory pass in MiB."""
    stats = traced["stats"]
    njobs = len(traced["jobs"])
    out = {}
    for name, keys in LAYER_METRICS:
        st = stats.get(name)
        counts = st["counts"] if st else {}
        for key in keys:
            if key == "calls":
                v = st["calls"] / njobs if st else 0.0
            elif key in ("busy_s", "self_s"):
                v = st[key[:-2]] / njobs if st else 0.0
            elif key == "peak_mb":
                v = memory_stats[name]["peak"] / 2**20 if name in memory_stats else 0.0
            elif key == "knot_frac":
                v = counts.get("knots", 0) / counts["ratios"] if counts.get("ratios") else 0.0
            elif key == "premise_frac":
                v = (counts.get("checked_pairs", 0) / counts["scanned_pairs"]
                     if counts.get("scanned_pairs") else 0.0)
            elif key == "found_frac":
                v = counts.get("found", 0) / st["calls"] if st and st["calls"] else 0.0
            else:
                v = counts.get(key, 0) / njobs
            out[f"{name}.{key}"] = float(v)
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(st["self"] for name, st in stats.items()
                                   if name.split(".")[0] == mod) / njobs
    cli = stats.get("cli.main", {"counts": {}})["counts"]
    for sub in CLI_SUBCOMMANDS:
        calls = cli.get(f"{sub}.calls", 0)
        out[f"cli.{sub}.wall_s"] = cli[f"{sub}.wall"] / calls if calls else 0.0
    out["trace.uncovered_frac"] = statistics.median(traced["uncovered"])
    return out


def top_self(traced, layers, k=5):
    """Modules, and the k spans, with the most self time per job in the traced pass."""
    njobs = len(traced["jobs"])
    modules = sorted(((layers[f"{m}.self_s"], m) for m in MODULES), reverse=True)
    spans_ = sorted(((st["self"] / njobs, name) for name, st in traced["stats"].items()),
                    reverse=True)
    return {"modules": [(v, m) for v, m in modules if v > 0], "spans": spans_[:k]}


def _stats_json(tracer):
    return {name: {"calls": st["calls"], "busy": st["busy"], "self": st["self"],
                   "peak": st["peak"], "counts": dict(st["counts"])}
            for name, st in tracer.stats.items() if st["calls"]}


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="wall-clock time (time.time()) after which passes start no new job")
    args = ap.parse_args()

    os.makedirs(args.workdir)
    try:
        wl = workloads.make(args.workload, args.seed, args.workdir,
                            in_process_cli=bool(args.trace))
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        record = {
            "env": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": _version("scipy")},
            "tally": wl.tally,
        }
        if not args.trace:
            record["passes"] = {"timed": run_pass(wl, args.seconds, args.deadline)}
        else:
            # one job of each class first, so that neither timed pass pays
            # for first calls (lazy imports, first touches of large arrays)
            warmup = run_pass(wl, 0.0, args.deadline, one_per_class=True)
            untraced = run_pass(wl, TRACED_PASS_SHARE * args.seconds, args.deadline)
            tracer = spans.Tracer()
            tracer.install(TARGETS)
            traced = run_pass(wl, TRACED_PASS_SHARE * args.seconds, args.deadline, tracer)
            tracer.uninstall()
            traced["stats"] = _stats_json(tracer)
            tracemalloc.start()
            mem_tracer = spans.Tracer(memory=True)
            mem_tracer.install(TARGETS)
            memory = run_pass(wl, 0.0, args.deadline, mem_tracer, one_per_class=True)
            mem_tracer.uninstall()
            tracemalloc.stop()
            record["passes"] = {"warmup": warmup, "untraced": untraced, "traced": traced,
                                "memory": memory}
            record["layers"] = layer_metrics(traced, _stats_json(mem_tracer))
            record["top_self"] = top_self(traced, record["layers"])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["peak_rss_kib"] = max(own, kids)
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
