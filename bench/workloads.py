"""The benchmark's workloads: inputs made from a seed, and jobs with verdict gates.

Every job is one complete analysis, the way a user or a script runs it, and
checks each verdict against a truth known by construction (a generator's
defining property or a theorem whose hypotheses the inputs satisfy).  A job
raises ``WrongVerdict`` when a verdict disagrees.

Jobs call qsym through module attributes at call time (``qs.check_qs``),
so the span wrappers of a traced pass see every call.

Each workload is a pool of rounds.  A round holds every job class of the
workload in fixed proportions, so statistics over whole rounds do not
depend on where a run stops.  Why each workload exists, and why its sizes
stop where they do, is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable, List

import numpy as np

from qsym import betweenness as btw
from qsym import cli
from qsym import fileio
from qsym import generators as gen
from qsym import moduli
from qsym import quasisymmetry as qs
from qsym import spaces
from qsym import transfer as tr
from qsym import triangle as tri
from qsym import weak_similarity as wsim

#: wall-clock limit of one job; a job over it counts as failed
JOB_TIMEOUT_S = 60.0
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qs.__file__)))


class WrongVerdict(Exception):
    """A verdict disagreed with the truth known by construction."""


def expect(cond: bool, what: str):
    if not cond:
        raise WrongVerdict(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], None]


class Workload:
    def __init__(self, rounds: List[List[Job]], seed: int, tally: dict):
        self.rounds = rounds
        self.tally = tally  # weaksim pairs without a truth by construction
        self._rng = np.random.default_rng(seed + 7919)

    def round(self, i: int) -> List[Job]:
        jobs = list(self.rounds[i % len(self.rounds)])
        order = self._rng.permutation(len(jobs))
        return [jobs[k] for k in order]


def _relabel(D: np.ndarray, rng, prefix: str):
    """A permuted copy of a distance matrix under new labels, and the
    assignment that maps the original point i to its copy."""
    n = len(D)
    p = rng.permutation(n)
    Y = spaces.build_space([f"{prefix}{i}" for i in range(n)], D[np.ix_(p, p)])
    inv = np.argsort(p)
    return Y, {f"p{i}": f"{prefix}{inv[i]}" for i in range(n)}


def _write_map(workdir, tag, X, Y, assignment):
    paths = tuple(os.path.join(workdir, f"{tag}.{part}.json") for part in ("X", "Y", "f"))
    fileio.save_space(X, paths[0], name=f"{tag}-X")
    fileio.save_space(Y, paths[1], name=f"{tag}-Y")
    with open(paths[2], "w", encoding="utf-8") as fh:
        json.dump({"domain": f"{tag}-X", "codomain": f"{tag}-Y", "assignment": assignment}, fh)
    return paths


def _min_bilip(D: np.ndarray, R: np.ndarray) -> float:
    iu = np.triu_indices(len(D), k=1)
    return float(np.max(np.maximum(R[iu] / D[iu], D[iu] / R[iu])))


# ------------------------------------------------------------ qs-verify

QS_SIZES = {"n40": 40, "n60": 60, "n80": 80, "n120": 120}
#: per round: map jobs per size class (kinds rotate), and inverse-map jobs.
#: The median falls among the n40 jobs and the p80 tail among the n60 jobs.
#: The inverse-map jobs are pure-Python bisection, whose speed swings far
#: more with host load than the array work, so they sit below the median.
QS_ROUND = {"n40": 40, "n60": 16, "n80": 2, "n120": 1}
QS_INVERSE_N = 12
QS_INVERSE_PER_ROUND = 10
QS_POOL_ROUNDS = 2
QS_KINDS = ("snowflake", "bilip", "bijection")


def _load_map(paths):
    X, _ = fileio.load_space_document(paths[0])
    Y, _ = fileio.load_space_document(paths[1])
    _, _, assignment = fileio.load_map_document(paths[2])
    return spaces.build_map(X, Y, assignment, require_bijective=True)


def _qs_inputs(kind, n, rng):
    """Domain, codomain, assignment, a modulus spec that holds, one that
    fails, and a gauge the codomain satisfies."""
    X = gen.euclidean_space(n, 2, seed=int(rng.integers(2**31)))
    D = np.asarray(X.dist)
    if kind == "snowflake":
        alpha = float(rng.uniform(0.3, 0.9))
        Y, assignment = _relabel(D ** alpha, rng, "y")
        return X, Y, assignment, f"power:{alpha!r}", f"power:{alpha / 2!r}", "additive"
    if kind == "bilip":
        L0 = float(rng.uniform(1.05, 1.5))
        u = np.exp(rng.uniform(-np.log(L0), np.log(L0), size=(n, n)))
        R = D * np.triu(u, 1)
        R = R + R.T
    else:  # independent random bijection
        R = np.asarray(gen.euclidean_space(n, 2, seed=int(rng.integers(2**31))).dist)
    L = _min_bilip(D, R) * (1.0 + 1e-9)
    Y, assignment = _relabel(R, rng, "y")
    # rho <= L d <= L^2 (rho + rho'): the image is a b-metric with K = L^2,
    # and 1 <= 1/t1 + 1/t2 implies 1 <= L^2 (1/(L^2 t1) + 1/(L^2 t2))
    return X, Y, assignment, f"bilip:{L!r}", "linear:0.5", f"bmetric:{L * L!r}"


def _qs_job(paths, hold, fail, phi2_spec, A, B):
    def run():
        f = _load_map(paths)
        eta = moduli.parse_modulus(hold)
        small = moduli.parse_modulus(fail)
        phi1 = tri.Additive()
        phi2 = tri.parse_triangle_function(phi2_spec)
        X = f.domain
        expect(qs.check_qs(f, eta).holds, f"{hold} rejected")
        # a snowflake fails a smaller exponent at its largest ratio; every
        # map has the realized ratio 1 with image ratio 1 > eta(1) = 0.5
        expect(not qs.check_qs(f, small).holds, f"{fail} accepted")
        expect(qs.tv_bounds(f, eta, spaces.SubsetRef(X, A), spaces.SubsetRef(X, B),
                            phi1, phi2).holds, "diameter distortion bound fails")
        expect(qs.bounded_image_bounds(f, eta, phi1, phi2).holds, "pair bounds fail")
        expect(qs.eta_ratio_report(f, eta).holds, "reciprocal-ratio identity fails")
        rep = tr.verify_transfer_end_to_end(f, phi1, phi2, eta)
        expect(rep.holds and rep.consistent, "transfer theorem fails")
    return run


def _inverse_job(paths):
    def run():
        f = _load_map(paths)
        # a modulus with no closed-form inverse: eta' is found by bisection per knot
        eta = moduli.CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
        expect(qs.check_qs(f, eta).holds, "2 t^0.5 rejected on a 1/2-snowflake")
        expect(qs.check_qs(f.inverse(), moduli.inverse_modulus(eta)).holds,
               "inverse map fails the inverse modulus")
    return run


def _qs_verify(seed, workdir):
    rng = np.random.default_rng(seed)
    rounds = []
    k = 0
    for r in range(QS_POOL_ROUNDS):
        jobs = []
        for cls, count in QS_ROUND.items():
            n = QS_SIZES[cls]
            for i in range(count):
                kind = QS_KINDS[(r + i) % len(QS_KINDS)]
                X, Y, assignment, hold, fail, phi2 = _qs_inputs(kind, n, rng)
                paths = _write_map(workdir, f"qs{k}", X, Y, assignment)
                k += 1
                B = np.sort(rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False))
                A = np.sort(rng.choice(B, size=int(rng.integers(2, len(B) + 1)), replace=False))
                jobs.append(Job(cls, _qs_job(paths, hold, fail, phi2,
                                             tuple(int(v) for v in A),
                                             tuple(int(v) for v in B))))
        for _ in range(QS_INVERSE_PER_ROUND):
            X = gen.euclidean_space(QS_INVERSE_N, 2, seed=int(rng.integers(2**31)))
            Y, assignment = _relabel(np.sqrt(np.asarray(X.dist)), rng, "y")
            paths = _write_map(workdir, f"qs{k}", X, Y, assignment)
            k += 1
            jobs.append(Job(f"inverse{QS_INVERSE_N}", _inverse_job(paths)))
        rounds.append(jobs)
    return rounds


# ------------------------------------------------------------ structure

#: per round: (class, n, jobs); the space kinds rotate within a class.
#: The median falls among the n150 jobs, whose array work keeps their time
#: steady under host load, and the p75 tail among the n=48 Ptolemy jobs.
STRUCTURE_ROUND = (("n100", 100, 4), ("n150", 150, 10), ("n200", 200, 1),
                   ("n300", 300, 1), ("collinear", 120, 1))
STRUCTURE_KINDS = ("euclidean", "ultrametric", "random", "squared")
PTOLEMY_SIZES = (32,) + (48,) * 4 + (64,)
STRUCTURE_POOL_ROUNDS = 3


def _structure_space(kind, n, rng):
    s = int(rng.integers(2**31))
    if kind == "euclidean":
        return gen.euclidean_space(n, 2, seed=s)
    if kind == "ultrametric":
        return gen.ultrametric_space(n, seed=s)
    labels = [f"p{i}" for i in range(n)]
    if kind == "collinear":
        # the distance matrix of gen.collinear_space under p<i> labels: that
        # generator labels a point by its coordinate to 6 significant digits,
        # so two distinct coordinates that agree to 6 digits would collide
        x = np.unique(rng.uniform(0.0, 100.0, size=n))
        return spaces.build_space(labels[:len(x)], np.abs(x[:, None] - x[None, :]))
    if kind == "squared":
        return spaces.build_space(labels, np.asarray(gen.euclidean_space(n, 2, seed=s).dist) ** 2)
    # random semimetric with a planted violation: d(p0, p1) = 1 > 0.25 + 0.25
    D = np.array(gen.random_semimetric_space(n, seed=s).dist)
    D[0, 1] = D[1, 0] = 1.0
    D[0, 2] = D[2, 0] = D[1, 2] = D[2, 1] = 0.25
    return spaces.build_space(labels, D)


def _structure_job(kind, X):
    n = X.n

    def run():
        additive = tri.check_triangle(X, tri.Additive())
        ultra = tri.check_triangle(X, tri.MaxGauge())
        K = tri.minimal_bmetric_K(X)
        at_K = tri.check_triangle(X, tri.parse_triangle_function(f"bmetric:{max(K, 1.0)!r}"))
        triples = btw.betweenness_triples(X)
        line = btw.line_embed(X)
        if kind == "ultrametric":
            phi1 = phi2 = tri.MaxGauge()
        elif kind in ("euclidean", "collinear"):
            phi1 = phi2 = tri.Additive()
        else:  # 1 <= K (a + b) implies 1 <= sqrt(K) (sqrt(a) + sqrt(b))
            phi1, phi2 = tri.ScaledAdditive(K), tri.ScaledAdditive(math.sqrt(K))
        transfer = tr.check_transfer_condition(phi1, phi2, moduli.parse_modulus("power:0.5"),
                                               pairs=X)
        expect(at_K.holds, "fails its own minimal b-metric coefficient")
        expect(transfer.holds, "power 1/2 transfer condition fails")
        # n >= 4 planar points, or any point set with distinct distances,
        # has a triangle with a unique longest side
        expect(ultra.holds == (kind == "ultrametric"), "max gauge verdict")
        if kind in ("euclidean", "ultrametric", "collinear"):
            expect(additive.holds, "metric space rejected")
            expect(abs(K - 1.0) <= 1e-9, f"metric space has K = {K!r}")
        if kind == "random":
            expect(not additive.holds and K >= 2.0 - 1e-12, "planted violation missed")
        if kind == "squared":
            expect(K <= 2.0 + 1e-9, f"squared distances have K = {K!r} > 2")
        if kind == "ultrametric":
            expect(not triples and line is None, "ultrametric has betweenness")
        if kind == "random":
            expect(line is None, "a non-metric space embedded in a line")
        if kind == "collinear":
            expect(len(triples) == comb(n, 3), f"{len(triples)} of {comb(n, 3)} triples")
            expect(line is not None, "collinear space not embedded")
    return run


def _ptolemy_job(X, f):
    def run():
        expect(tri.is_ptolemaic(X).holds, "euclidean space not Ptolemaic")
        rep = tr.ptolemy_transfer_check(f, moduli.parse_modulus("power:0.5"),
                                        force_realized=True)
        expect(rep.holds and rep.implication_holds, "snowflake Ptolemy transfer fails")
    return run


def _structure(seed, workdir):
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(STRUCTURE_POOL_ROUNDS):
        jobs = []
        for cls, n, count in STRUCTURE_ROUND:
            for i in range(count):
                kind = "collinear" if cls == "collinear" else \
                    STRUCTURE_KINDS[(r + i) % len(STRUCTURE_KINDS)]
                jobs.append(Job(cls, _structure_job(kind, _structure_space(kind, n, rng))))
        for n in PTOLEMY_SIZES:
            X = gen.euclidean_space(n, 2, seed=int(rng.integers(2**31)))
            jobs.append(Job(f"ptolemy{n}", _ptolemy_job(X, spaces.snowflake_map(X, 0.5))))
        rounds.append(jobs)
    return rounds


# ------------------------------------------------------------ weaksim

#: per round: (class, n, jobs).  The snowflake pairs, whose search cost
#: barely varies, are half the jobs and hold the median; negatives and
#: positives, whose search cost varies with the graph, lie either side.  A
#: 25 s run covers about twelve rounds; the pool is larger, so no input repeats.
WEAKSIM_ROUND = (("neg10", 10, 9), ("snow60", 60, 20), ("pos12", 12, 3),
                 ("neg12", 12, 7), ("pos14", 14, 1))
WEAKSIM_POOL_ROUNDS = 16


def _cubic_graph(n, rng):
    """Adjacency matrix of a uniform random simple 3-regular graph."""
    while True:
        ends = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        A = np.zeros((n, n), dtype=int)
        np.add.at(A, (ends[:, 0], ends[:, 1]), 1)
        A = A + A.T
        if np.all(np.diag(A) == 0) and A.max() == 1:
            return A


def _graph_space(A, near, far, prefix):
    D = np.where(A == 1, near, far).astype(float)
    np.fill_diagonal(D, 0.0)
    return spaces.build_space([f"{prefix}{i}" for i in range(len(A))], D)


def _distinct_graphs(A, B):
    """True when the adjacency spectra or the sorted per-vertex triangle
    counts differ; both are equal for isomorphic graphs."""
    if not np.allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B), atol=1e-8):
        return True
    triangles = lambda M: np.sort(np.diag(M @ M @ M))  # noqa: E731
    return not np.array_equal(triangles(A), triangles(B))


def _weaksim_job(X, Y, truth, tally):
    """truth: True (constructed positive), False (negative an invariant
    confirms), "unconfirmed" (negative the invariants do not separate), or
    "ambiguous" (positive whose construction the rank tolerance blurs)."""
    def run():
        phi = wsim.forced_scaling(X, Y)
        ws = wsim.find_weak_similarity(X, Y)
        if truth in (False, "unconfirmed"):
            tally["negatives"] += 1
        if truth is False:
            expect(ws is None, "similarity reported between distinct graphs")
            return
        if ws is None and truth in ("unconfirmed", "ambiguous"):
            tally[truth] += 1
            return
        expect(phi is not None and ws is not None, "constructed similarity missed")
        expect(wsim.verify_weak_similarity(ws), "realization fails verification")
        expect(wsim.check_monotone_implications(ws.f).holds, "monotone implications fail")
    return run


def _weaksim(seed, workdir, tally):
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(WEAKSIM_POOL_ROUNDS):
        jobs = []
        for cls, n, count in WEAKSIM_ROUND:
            for _ in range(count):
                if cls.startswith("neg"):
                    A, B = _cubic_graph(n, rng), _cubic_graph(n, rng)
                    X, Y = _graph_space(A, 1.0, 2.0, "p"), _graph_space(B, 1.0, 2.0, "q")
                    truth = False if _distinct_graphs(A, B) else "unconfirmed"
                elif cls.startswith("pos"):
                    A = _cubic_graph(n, rng)
                    X = _graph_space(A, 1.0, 2.0, "p")
                    Y, _ = _relabel(np.asarray(_graph_space(A, 0.5, 3.0, "p").dist), rng, "y")
                    truth = True
                else:
                    X = gen.euclidean_space(n, 2, seed=int(rng.integers(2**31)))
                    D = np.asarray(X.dist)
                    Y, _ = _relabel(D ** 0.5, rng, "y")
                    # ranks are buckets of relative width RANK_TOL; the square
                    # root halves relative gaps, so a gap near the tolerance
                    # can split two distances in X and merge them in Y
                    d = np.unique(D[np.triu_indices(n, k=1)])
                    truth = True if np.min(np.diff(d) / d[1:]) > 10 * wsim.RANK_TOL else "ambiguous"
                jobs.append(Job(cls, _weaksim_job(X, Y, truth, tally)))
        rounds.append(jobs)
    return rounds


# ------------------------------------------------------------ cli


def _cli_files(seed, workdir):
    """Small input files for the command line, made from the seed."""
    rng = np.random.default_rng(seed)
    s = lambda: int(rng.integers(2**31))  # noqa: E731
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    fileio.save_space(gen.euclidean_space(8, 2, seed=s()), path("E8.json"), name="E8")
    fileio.save_space(gen.ultrametric_space(8, seed=s()), path("U8.json"), name="U8")
    fileio.save_space(_structure_space("random", 8, rng), path("R8.json"), name="R8")
    fileio.save_space(_structure_space("squared", 8, rng), path("S8.json"), name="S8")
    fileio.save_space(_structure_space("collinear", 12, rng), path("C12.json"), name="C12")
    alpha = float(rng.uniform(0.3, 0.9))
    for n in (20, 60):
        X = gen.euclidean_space(n, 2, seed=s())
        Y, assignment = _relabel(np.asarray(X.dist) ** alpha, rng, "y")
        _write_map(workdir, f"snow{n}", X, Y, assignment)
    X = gen.random_semimetric_space(8, seed=s())
    Y, _ = _relabel(np.asarray(X.dist) ** 1.5, rng, "y")
    fileio.save_space(X, path("W8a.json"))
    fileio.save_space(Y, path("W8b.json"))
    # an independent space; its sorted per-point rank profiles differ from
    # X's (checked below), which rules out any rank-preserving bijection
    Z = gen.random_semimetric_space(8, seed=s())
    fileio.save_space(Z, path("W8c.json"))
    def profile(space):
        ranks = np.unique(space.dist, return_inverse=True)[1].reshape(space.n, space.n)
        return sorted(tuple(sorted(row)) for row in ranks.tolist())

    if profile(X) == profile(Z):
        raise RuntimeError("weaksim negative pair is not confirmed by rank profiles")
    return alpha


def _cli_round(workdir, alpha, seed):
    """(kind, argv, expected exit status, check of the output)"""
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    snow = lambda n: ["--domain", p(f"snow{n}.X.json"), "--codomain", p(f"snow{n}.Y.json"),  # noqa: E731
                      "--map", p(f"snow{n}.f.json")]
    env_out = p("envelope.txt")
    n60_knots = 60 * 59 * 59

    def json_field(key, test):
        return lambda out: test(json.loads(out)[key])

    def envelope_written(out):
        with open(env_out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        t, h = (float(v) for v in lines[-1].split())
        # at most n(n-1)^2 realized ratios, and H = t^alpha on a snowflake
        return 0 < len(lines) <= n60_knots and abs(h - t ** alpha) <= 1e-9 * max(1.0, h)

    return [
        ("check", ["check", p("E8.json")], 0, None),
        ("check", ["check", p("E8.json"), "--class", "ptolemaic"], 0, None),
        ("check", ["check", p("U8.json"), "--class", "ultrametric", "--json"], 0,
         json_field("report", lambda r: r["holds"])),
        ("check", ["check", p("R8.json")], 1, lambda out: out.startswith("FAILS")),
        ("check", ["check", p("S8.json"), "--class", "bmetric", "--json"], 0,
         json_field("minimal_K", lambda K: 1.0 <= K <= 2.0 + 1e-9)),
        ("qs-check", ["qs-check", *snow(20), "--eta", f"power:{alpha!r}"], 0, None),
        ("qs-check", ["qs-check", *snow(20), "--eta", f"power:{alpha / 2!r}", "--json"], 1,
         json_field("report", lambda r: not r["holds"])),
        ("qs-check", ["qs-check", *snow(60), "-o", env_out], 0, envelope_written),
        ("transfer", ["transfer", "--minimal-k2", "1", "--eta", "power:2", "--json"], 0,
         json_field("minimal_K2", lambda K: abs(K - 2.0) <= 1e-6)),
        ("transfer", ["transfer", "--eta", "power:0.5"], 0, None),
        ("distortion", ["distortion", "--eta", f"power:{alpha!r}", *snow(20), "--A", "0,1"],
         0, None),
        ("check", ["check", p("E8.json"), "--class", "bmetric"], 0, None),
        ("between", ["between", "--space", p("C12.json"), "--json"], 0,
         json_field("triples", lambda t: len(t) == comb(12, 3))),
        ("between", ["between", "--space", p("C12.json"), "--line", "--json"], 0,
         json_field("line_embeddable", lambda v: v is True)),
        ("weaksim", ["weaksim", p("W8a.json"), p("W8b.json")], 0, None),
        ("weaksim", ["weaksim", p("W8a.json"), p("W8b.json"), "--oracle", "--json"], 0,
         json_field("found", lambda v: v is True)),
        ("weaksim", ["weaksim", p("W8a.json"), p("W8c.json")], 1,
         lambda out: out.strip() == "no weak similarity"),
        ("modulus", ["modulus", "--eta", "power:0.5", "--involution"], 0, None),
        ("invert-eta", ["invert-eta", "--eta", "expratio", "--json"], 0,
         json_field("values", lambda v: len(v) == 5 and all(x > 0 for x in v))),
        ("fit-snowflake", ["fit-snowflake", *snow(20), "--json"], 0,
         json_field("report", lambda r: abs(r["exponent"] - alpha) <= 1e-9)),
        ("gen", ["gen", "euclidean", "--n", "20", "--seed", str(seed), "-o", p("gen.json")],
         0, lambda out: fileio.load_space(p("gen.json")).n == 20),
    ]


def _cli_job(argv, code, check, in_process):
    def run():
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    status = exc.code
            stdout = out.getvalue()
        else:
            # started in src/, so that -m finds the checkout's library first
            proc = subprocess.run([sys.executable, "-m", "qsym.cli", *argv], cwd=SRC,
                                  capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
            status, stdout = proc.returncode, proc.stdout
        expect(status == code, f"exit status {status}, expected {code}")
        if check is not None:
            try:
                ok = check(stdout)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                raise WrongVerdict(f"unreadable output: {exc!r}") from None
            expect(ok, "output check fails")
    return run


def _cli(seed, workdir, in_process):
    alpha = _cli_files(seed, workdir)
    return [[Job(kind, _cli_job(argv, code, check, in_process))
             for kind, argv, code, check in _cli_round(workdir, alpha, seed)]]


WORKLOADS = ("qs-verify", "structure", "weaksim", "cli")


def make(name: str, seed: int, workdir: str, in_process_cli: bool = False) -> Workload:
    tally = {"negatives": 0, "unconfirmed": 0, "ambiguous": 0}
    if name == "qs-verify":
        rounds = _qs_verify(seed, workdir)
    elif name == "structure":
        rounds = _structure(seed, workdir)
    elif name == "weaksim":
        rounds = _weaksim(seed, workdir, tally)
    elif name == "cli":
        rounds = _cli(seed, workdir, in_process_cli)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return Workload(rounds, seed, tally)
