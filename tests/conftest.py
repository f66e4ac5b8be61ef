"""Shared fixtures and the naive oracles the fast implementations are
checked against.

The oracles here are written as plain Python loops on purpose: they share
no code path with the vectorized library routines, so agreement between
the two is meaningful.
"""

import bisect
import itertools

import numpy as np
import pytest

from qsym import build_space


def subspace(space, indices):
    """The restriction of a space to a tuple of point indices."""
    idx = list(indices)
    labels = [space.labels[i] for i in idx]
    sub = np.asarray(space.dist)[np.ix_(idx, idx)]
    return build_space(labels, sub)


def naive_scan(values, floor):
    """(first minimum, first violation, count) of a scan of ``values``, by
    loops: positions, or None where nothing qualifies.  A NaN is the
    minimum (the first NaN wins); a value violates when it is NaN or below
    its floor: ``floor``, or ``floor[i]`` when one is given per value."""
    low = violation = None
    for i, v in enumerate(values):
        if low is None or (v != v and values[low] == values[low]) or v < values[low]:
            low = i
        if violation is None and (v != v or v < (floor[i] if np.ndim(floor) else floor)):
            violation = i
    return low, violation, len(values)


def naive_triangle_worst(space, phi):
    """The first minimum of Phi(d(x,z), d(y,z)) - d(x,y) in loop order
    (x, y, z) over x != y and all z, by loops: (margin, (x, z, y), lhs, rhs).
    A NaN margin is the minimum: the first NaN wins."""
    d = np.asarray(space.dist)
    n = space.n
    best = (np.inf, None, 0.0, 0.0)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                rhs = float(np.asarray(phi(d[x, z], d[y, z])))
                m = rhs - d[x, y]
                if m < best[0] or (m != m and best[0] == best[0]):
                    best = (float(m), (x, z, y), float(d[x, y]), rhs)
    return best


def naive_triangle_margin(space, phi):
    """min over x != y, all z of Phi(d(x,z), d(y,z)) - d(x,y), by loops."""
    return naive_triangle_worst(space, phi)[0]


def naive_minimal_K(space):
    """max over x != y, all z of d(x,y) / (d(x,z) + d(z,y)); 0 for n < 3."""
    d = np.asarray(space.dist)
    n = space.n
    if n < 3:
        return 0.0
    best = 0.0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                q = d[x, y] / (d[x, z] + d[z, y])
                if q > best:
                    best = float(q)
    return best


def naive_transfer_scan(phi1, phi2, eta, space, tol=1e-9):
    """The realized transfer report by loops over the ordered triples
    (x, y, z), z != x, y, with t1 = d(x,y)/d(x,z) and t2 = d(x,y)/d(y,z).

    A premise pair has Phi1(1/t1, 1/t2) >= 1 - tol; its conclusion side
    Phi2(1/eta(t1), 1/eta(t2)) violates when it is NaN or below 1 - tol.
    The scan stops after the row x of the first violation, which is the
    witness; else the witness is the first minimum of the first row whose
    minimum is smallest.  ``checked_pairs`` counts the premise pairs read.
    """
    from qsym import TransferReport

    def conclusion(t):  # 1/eta(t) by the log path, like the library
        return float(np.exp(-float(np.asarray(eta.log_eval(t)))))

    d = np.asarray(space.dist)
    n = space.n
    checked, violation, tightest = 0, None, None
    for x in range(n):
        row_best = None
        for y in range(n):
            for z in range(n):
                if len({x, y, z}) < 3:
                    continue
                t1 = d[x, y] / d[x, z]
                t2 = d[x, y] / d[y, z]
                lhs1 = float(np.asarray(phi1(1.0 / t1, 1.0 / t2)))
                if not lhs1 >= 1.0 - tol:
                    continue
                checked += 1
                lhs2 = float(np.asarray(phi2(conclusion(t1), conclusion(t2))))
                pair = (float(t1), float(t2), lhs1, lhs2)
                if violation is None and not lhs2 >= 1.0 - tol:
                    violation = pair
                if row_best is None or lhs2 < row_best[3]:
                    row_best = pair
        if violation is not None:
            return TransferReport(False, checked, violation, "realized", tol)
        if row_best is not None and (tightest is None or row_best[3] < tightest[3]):
            tightest = row_best
    return TransferReport(True, checked, tightest, "realized", tol)


def naive_envelope(f):
    """Realized (t, max ratio at or below t) pairs as two sorted lists."""
    d = np.asarray(f.domain.dist)
    r = f.image_matrix()
    n = f.domain.n
    pts = []
    for x in range(n):
        for a in range(n):
            if a == x:
                continue
            for b in range(n):
                if b == x:
                    continue
                pts.append((d[x, a] / d[x, b], r[x, a] / r[x, b]))
    pts.sort(key=lambda p: p[0])
    ts, hs = [], []
    running = 0.0
    for t, q in pts:
        running = max(running, q)
        if ts and t == ts[-1]:
            hs[-1] = running
        else:
            ts.append(t)
            hs.append(running)
    return ts, hs


def knot_qs_report(f, eta, tol):
    """The quasisymmetry verdict read off the envelope knots: holds iff
    eta(t_i) >= (1 - tol) H(t_i) at every knot (a NaN eta(t_i) violates), with
    the witness behind the first failing knot.  ``checked`` counts the
    knots."""
    from qsym import QsReport, empirical_modulus

    env = empirical_modulus(f)
    vals = np.asarray(eta.eval(env.ts), dtype=float)
    for i, (t, h, v) in enumerate(zip(env.ts, env.hs, vals)):
        if not v >= (1 - tol) * h:
            w = tuple(int(k) for k in env.witnesses[i])
            return QsReport(False, w, env.witness_labels(i), float(t), float(h), float(v),
                            eta.describe(), tol, len(env))
    return QsReport(True, None, None, None, None, None, eta.describe(), tol, len(env))


def knot_ratio_report(f, eta):
    """The reciprocal-ratio report read off the envelope knots: the first
    knot with the smallest eta(t) eta(1/t) (a NaN first), the product taken
    from ``log_eval`` where the direct one is not finite.  ``checked``
    counts the knots."""
    from qsym import RatioIdentityReport, empirical_modulus
    from qsym.quasisymmetry import ETA_ONE_TOL, RATIO_PRODUCT_TOL

    ts = empirical_modulus(f).ts
    eta_one = float(np.asarray(eta.eval(1.0)))
    eta_one_ok = eta_one >= 1.0 - ETA_ONE_TOL
    if len(ts) == 0:
        return RatioIdentityReport(eta_one_ok, np.inf, 1.0, eta_one, True, eta_one_ok, 0)
    direct = np.asarray(eta.eval(ts), dtype=float) * np.asarray(eta.eval(1.0 / ts), dtype=float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        stable = np.exp(np.asarray(eta.log_eval(ts), dtype=float)
                        + np.asarray(eta.log_eval(1.0 / ts), dtype=float))
    best = None
    for i, (d, s) in enumerate(zip(direct, stable)):
        p = float(d) if np.isfinite(d) else float(s)
        if best is None or (np.isnan(p) and not np.isnan(best[0])) or p < best[0]:
            best = (p, i)
    p, i = best
    product_ok = p >= 1.0 - RATIO_PRODUCT_TOL
    return RatioIdentityReport(product_ok and eta_one_ok, p, float(ts[i]), eta_one,
                               product_ok, eta_one_ok, len(ts))


def scalar_bisect(fn, y):
    """Solve fn(s) = y for one target by bracket doubling from 1 and then
    bisection, one Python float at a time; None where no root is bracketed
    or the bisection stalls: the midpoint equals an end of the bracket, or
    400 steps pass.  The residual is relative to y at every step."""
    if y == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(65):
        if float(np.asarray(fn(hi))) >= y:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        val = float(np.asarray(fn(mid)))
        if abs(val - y) <= 1e-12 * y:
            return mid
        if mid in (lo, hi):
            return None
        if val < y:
            lo = mid
        else:
            hi = mid
    return None


def naive_ptolemaic(space):
    """Worst Ptolemy margin (rhs - lhs) over all quadruples, by loops."""
    d = np.asarray(space.dist)
    n = space.n
    worst = np.inf
    for q in itertools.combinations(range(n), 4):
        x, y, z, t = q
        pairs = [
            (d[x, z] * d[y, t], d[x, y] * d[z, t] + d[y, z] * d[x, t]),
            (d[x, y] * d[z, t], d[x, z] * d[y, t] + d[y, z] * d[x, t]),
            (d[x, t] * d[y, z], d[x, y] * d[z, t] + d[x, z] * d[y, t]),
        ]
        for lhs, rhs in pairs:
            worst = min(worst, rhs - lhs)
    return worst


def naive_space_ranks(space, tol=1e-9):
    """(reps, ranks) by loops: the sorted distinct distances, bucketed
    greedily from below (a value more than tol relative above the current
    bucket's first value starts a new bucket, and is its representative),
    and every matrix entry ranked by bisection in the representatives."""
    d = np.asarray(space.dist).tolist()
    reps = []
    for v in sorted({v for row in d for v in row}):
        if not reps or v - reps[-1] > tol * v:
            reps.append(v)
    ranks = [[bisect.bisect_right(reps, v) - 1 for v in row] for row in d]
    return np.array(reps), np.array(ranks, dtype=np.intp)


def naive_monotone_implications(f, tol=1e-9):
    """The monotone-implication report by a loop over the pairs i < j:
    the first pair whose image rank differs from the first pair of its
    domain rank, else the first consecutive domain ranks whose first
    pairs' image ranks fail to increase."""
    from qsym.weak_similarity import MonotoneImplicationsReport, PairsWitness

    D = np.asarray(f.domain.dist)
    R = f.image_matrix()
    _, rkX = naive_space_ranks(f.domain, tol)
    _, rkY = naive_space_ranks(f.codomain, tol)
    sigma = np.asarray(f.assignment, dtype=int)
    rkR = rkY[np.ix_(sigma, sigma)]

    def witness(a, b, c, d):
        return PairsWitness((a, b), (c, d), float(D[a, b]), float(D[c, d]),
                            float(R[a, b]), float(R[c, d]))

    n = f.domain.n
    first_pair = {}
    found = None
    for i in range(n):
        for j in range(i + 1, n):
            dr, rr = rkX[i, j], rkR[i, j]
            if dr not in first_pair:
                first_pair[dr] = (i, j, rr)
            elif first_pair[dr][2] != rr and found is None:
                a, b, _ = first_pair[dr]
                found = witness(a, b, i, j)
    eq_ok = found is None
    order_ok = True
    if eq_ok:
        ranks = sorted(first_pair)
        for prev, cur in zip(ranks, ranks[1:]):
            if first_pair[cur][2] <= first_pair[prev][2]:
                a, b, _ = first_pair[prev]
                c, d, _ = first_pair[cur]
                found = witness(a, b, c, d)
                order_ok = False
                break
    return MonotoneImplicationsReport(eq_ok and order_ok, eq_ok, order_ok, found,
                                      n * (n - 1) // 2, tol)


def naive_betweenness(space, tol=1e-9):
    """Sorted (x, y, z) with x < z, y between them within tol, that is
    |d(x,z) - (d(x,y) + d(y,z))| <= tol max(d(x,z), d(x,y) + d(y,z)), by
    direct loops."""
    d = np.asarray(space.dist)
    n = space.n
    out = []
    for x in range(n):
        for z in range(x + 1, n):
            for y in range(n):
                if y == x or y == z:
                    continue
                through = d[x, y] + d[y, z]
                if abs(d[x, z] - through) <= tol * max(d[x, z], through):
                    out.append((x, y, z))
    out.sort()
    return out


@pytest.fixture
def line3():
    from qsym import collinear_space

    return collinear_space([0.0, 1.0, 3.0])


@pytest.fixture
def line4():
    from qsym import collinear_space

    return collinear_space([0.0, 1.0, 3.0, 6.0])
