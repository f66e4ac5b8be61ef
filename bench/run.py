"""qsym benchmark: one workload as a closed loop, verdicts checked, metrics printed.

    python3 bench/run.py --workload qs-verify --seed 1 --seconds 25 --trace 0

Run from a source checkout; the library is imported from ``src/``.  One
client in one fresh interpreter runs the workload's jobs back to back, with
no threads, and every job checks its verdicts.  ``--trace 0`` prints the
end-to-end metrics, measured untraced.  ``--trace 1`` prints the per-layer
metrics: a warm-up of one job per class, an untraced pass, a pass with
spans around qsym's public functions, and a ``tracemalloc`` pass for
peaks, in that order.  The last line of output is one JSON object; the
lines before it repeat every metric with its unit.  ``BENCHMARK.json``
names the metrics and says why each workload exists.

Seed 7777 is held out: no run used it while the workloads were tuned, so a
claimed gain can be confirmed on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3
#: interpreter and import probes per traced run; each metric is their median
PROBE_REPEATS = 3
#: a run that has not finished by then is stopped and reports nothing
RUN_LIMIT_S = 170
#: passes start no new job after this many seconds of a run, so that a run
#: on a slowed host still reports before RUN_LIMIT_S
PASS_DEADLINE_S = 110
#: job_tail_s percentile per workload.  It is fixed, so that it names the
#: same job class on every commit: each leaves at least ten jobs beyond it
#: in a 25 s run on 2 cores (the count is printed) and falls inside a job
#: class, away from its edges (n=60 maps on qs-verify, n=48 Ptolemy on
#: structure, n=12 negatives on weaksim), where it moves least with the seed.
TAIL_PERCENTILE = {"qs-verify": 85, "structure": 80, "weaksim": 90, "cli": 50}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunLimit(Exception):
    pass


def _on_limit(signum, frame):
    raise RunLimit()


def child_env(nproc):
    """The environment of every process the benchmark starts: BLAS/OpenMP
    pools at most nproc wide.  The checkout's library comes first on the
    path because each process starts in ``src/`` or inserts it itself."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env


def probe(argv, env):
    """Median wall time of PROBE_REPEATS runs of a short command."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=SRC, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def start_worker(args, env, workdir, deadline, live):
    """Start a worker; return it and its set-up time, once it says ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
         "--deadline", repr(deadline)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    live.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not set up (said {line.strip()!r})")
    return proc, setup


def percentile(sorted_values, p):
    """Nearest-rank percentile, and how many values lie beyond it."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def end_to_end(args, setups, record):
    timed = record["passes"]["timed"]
    times = sorted(wall for _, wall, _ in timed["jobs"])
    completed = sum(1 for _, _, err in timed["jobs"] if err is None)
    p = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(times, p)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": completed / timed["wall"],
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "jobs_per_s": f"{completed} jobs in {timed['wall']:.2f} s, {timed['rounds']} rounds",
        "job_p50_s": f"of {len(times)} jobs",
        "job_tail_s": f"p{p} of {len(times)} jobs, {beyond} beyond it",
        "peak_rss_mb": "max RSS of the workload process and the processes it waited for",
    }
    return metrics, notes


def per_layer(args, env, record):
    passes = record["passes"]
    metrics = dict(record["layers"])
    interp = probe([sys.executable, "-c", "pass"], env)
    metrics["cli.interpreter_s"] = interp
    metrics["cli.import_s"] = probe([sys.executable, "-c", "import qsym"], env) - interp
    rate = {k: len(passes[k]["jobs"]) / passes[k]["wall"] for k in ("untraced", "traced")}
    metrics["trace.jobs_per_s_ratio"] = rate["traced"] / rate["untraced"]
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qsym" / "__init__.py").is_file():
        print(f"error: no qsym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    live = []
    deadline = time.time() + PASS_DEADLINE_S
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_limit)
    signal.alarm(RUN_LIMIT_S)
    try:
        setups = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for i in range(repeats):
            proc, setup = start_worker(args, env, run_dir / str(i), deadline, live)
            setups.append(setup)
            if i < repeats - 1:
                proc.communicate("quit\n")
        out, _ = proc.communicate("go\n")
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        record = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            metrics, notes = per_layer(args, env, record), {}
        else:
            metrics, notes = end_to_end(args, setups, record)
    except Exception as exc:  # noqa: BLE001  every failure ends the run without a result
        if not isinstance(exc, (RunLimit, RuntimeError)):
            traceback.print_exc()
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    jobs = [job for p in record["passes"].values() for job in p["jobs"]]
    failed = [job for job in jobs if job[2] is not None]
    env_rec = record["env"]
    print(f"environment: python {env_rec['python']}, numpy {env_rec['numpy']}, "
          f"scipy {env_rec['scipy']}, nproc {nproc}, BLAS/OpenMP threads "
          f"{env['OMP_NUM_THREADS']}")
    print(f"workload {args.workload}, seed {args.seed}: one closed-loop client in a fresh "
          f"interpreter; passes {', '.join(record['passes'])}")
    cut = [name for name, p in record["passes"].items() if p["cut"]]
    if cut:
        print(f"warning: passes {', '.join(cut)} were cut at the {PASS_DEADLINE_S} s deadline; "
              "the host is far slower than usual")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {units[name]}{note}")
    print(f"failed_frac = {len(failed) / len(jobs):.6g} ({len(failed)} of {len(jobs)} jobs: "
          "wrong verdicts, exceptions and timeouts)")
    tally = record["tally"]
    if tally["negatives"]:
        print(f"weaksim negatives: {tally['negatives']} run, {tally['unconfirmed']} not "
              "confirmed by an invariant; snowflake positives the rank tolerance blurs and "
              f"the search rejected: {tally['ambiguous']} (neither counted as failures)")
    if not args.trace:
        by_kind = {}
        for kind, wall, _ in record["passes"]["timed"]["jobs"]:
            by_kind.setdefault(kind, []).append(wall)
        print("job classes (count x median s): " + ", ".join(
            f"{k} {len(v)}x{statistics.median(v):.3g}" for k, v in
            sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))))
    else:
        print("self time per job by module: " +
              ", ".join(f"{m} {v:.4g} s" for v, m in record["top_self"]["modules"]))
        print("spans with the most self time per job: " +
              ", ".join(f"{name} {v:.4g} s" for v, name in record["top_self"]["spans"]))
        print(f"each qsym process pays interpreter start {metrics['cli.interpreter_s']:.4g} s "
              f"and import qsym {metrics['cli.import_s']:.4g} s")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
