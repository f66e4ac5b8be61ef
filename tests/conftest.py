"""Shared fixtures and the naive oracles the fast implementations are
checked against.

The oracles here are written as plain Python loops on purpose: they share
no code path with the vectorized library routines, so agreement between
the two is meaningful.
"""

import bisect
import itertools
import math

import numpy as np
import pytest

from qsym import Additive, MaxGauge, ScaledAdditive, build_space


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


def naive_triangle_worst(space, phi, tol=1e-9):
    """The witness of Phi(d(x,z), d(y,z)) - d(x,y) over x != y and all z, by
    loops in (x, y, z) order: (margin, (x, z, y), lhs, rhs).  It is the first
    minimum margin (a NaN margin is the minimum: the first NaN wins), unless
    that margin is at or above -tol d(x,y) while another is NaN or below its
    own floor: then it is the first such violation."""
    d = np.asarray(space.dist)
    n = space.n
    best = violation = None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                rhs = float(np.asarray(phi(d[x, z], d[y, z])))
                m = rhs - d[x, y]
                seen = (float(m), (x, z, y), float(d[x, y]), rhs)
                if best is None or m < best[0] or (m != m and best[0] == best[0]):
                    best = seen
                if violation is None and not m >= -tol * d[x, y]:
                    violation = seen
    if violation is not None and best[0] >= -tol * best[2]:
        return violation
    return best


def naive_triangle_margin(space, phi):
    """The margin of the triangle witness of :func:`naive_triangle_worst`."""
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


def power_table(eta, D, squared=False):
    """(P, C, S) when eta = C t**alpha is a power, linear or bi-Lipschitz
    modulus, not a subclass: S = D 2**-e with e the binary exponent of the
    largest distance, and P = S**alpha.  None, the log path, for any other
    modulus, or when some off-diagonal scaled distance, or C P (C**2 P**2
    when ``squared``), is below the smallest normal float or infinite."""
    from qsym import BiLipschitzModulus, LinearModulus, PowerModulus

    if type(eta) is PowerModulus:
        C, alpha = 1.0, eta.alpha
    elif type(eta) is LinearModulus:
        C, alpha = eta.C, 1.0
    elif type(eta) is BiLipschitzModulus:
        C, alpha = eta.L ** 2, 1.0
    else:
        return None
    D = np.asarray(D)
    n = len(D)
    e = math.frexp(max([0.0] + [float(v) for v in D.ravel()]))[1]
    S = np.ldexp(D, -e)
    P = S ** alpha
    tiny = np.finfo(float).tiny
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            low = C * C * (P[x, y] * P[x, y]) if squared else C * P[x, y]
            if not (S[x, y] >= tiny and tiny <= low < np.inf):
                return None
    return (P, C, S) if n > 1 else None


#: the gauges with Phi(c u, c v) = c Phi(u, v), as exact classes
HOMOGENEOUS = (Additive, MaxGauge, ScaledAdditive)


def naive_transfer_scan(phi1, phi2, eta, space, tol=1e-9):
    """The realized transfer report by loops over the ordered triples
    (x, y, z), z != x, y, with t1 = d(x,y)/d(x,z) and t2 = d(x,y)/d(y,z).

    On the :func:`power_table` (P, C, S) of eta = C t**alpha, where one
    applies, and a gauge of ``HOMOGENEOUS``: a premise pair has
    Phi1(S[x,z], S[y,z]) >= (1 - tol) S[x,y], and lhs1 is that side over
    S[x,y]; the conclusion side is Phi2(P[x,z], P[y,z]) / (C P[x,y]).
    Otherwise a premise pair has Phi1(d(x,z)/d(x,y), d(y,z)/d(x,y)) >= 1 - tol,
    and the conclusion side is Phi2(1/eta(t1), 1/eta(t2)), 1/eta(t1) being
    P[x,z] / (C P[x,y]) on the table and exp(-log eta(t1)) off it.  A
    conclusion side violates when it is NaN or below 1 - tol.  The scan
    stops after the row x of the first violation, which is the witness;
    else the witness is the first minimum of the first row whose minimum is
    smallest.  ``checked_pairs``
    counts the premise pairs read.
    """
    from qsym import TransferReport

    d = np.asarray(space.dist)
    n = space.n
    table = power_table(eta, d)

    def premise(x, y, z):
        if table is not None and type(phi1) in HOMOGENEOUS:
            S = table[2]
            side = float(np.asarray(phi1(S[x, z], S[y, z])))
            return side >= (1.0 - tol) * S[x, y], float(side / S[x, y])
        lhs1 = float(np.asarray(phi1(d[x, z] / d[x, y], d[y, z] / d[x, y])))
        return lhs1 >= 1.0 - tol, lhs1

    def conclusion(x, y, z):
        if table is None:
            with np.errstate(over="ignore"):
                return float(np.asarray(phi2(*(
                    float(np.exp(-float(np.asarray(eta.log_eval(t)))))
                    for t in (d[x, y] / d[x, z], d[x, y] / d[y, z])))))
        P, C = table[:2]
        if type(phi2) in HOMOGENEOUS:
            return float(np.asarray(phi2(P[x, z], P[y, z])) / (C * P[x, y]))
        return float(np.asarray(phi2(P[x, z] / (C * P[x, y]), P[y, z] / (C * P[x, y]))))

    checked, violation, tightest = 0, None, None
    for x in range(n):
        row_best = None
        for y in range(n):
            for z in range(n):
                if len({x, y, z}) < 3:
                    continue
                holds, lhs1 = premise(x, y, z)
                if not holds:
                    continue
                checked += 1
                lhs2 = conclusion(x, y, z)
                pair = (float(d[x, y] / d[x, z]), float(d[x, y] / d[y, z]), lhs1, lhs2)
                if violation is None and not lhs2 >= 1.0 - tol:
                    violation = pair
                if row_best is None or lhs2 < row_best[3]:
                    row_best = pair
        if violation is not None:
            return TransferReport(False, checked, violation, "realized", tol)
        if row_best is not None and (tightest is None or row_best[3] < tightest[3]):
            tightest = row_best
    return TransferReport(True, checked, tightest, "realized", tol)


def naive_ptolemy_transfer(f, eta, tol=1e-9):
    """The realized Ptolemy implication by loops over the 4-subsets
    i < j < k < l in lexicographic order, each in the three orderings
    (x, y, z, t) of ``_QUAD_ORDERINGS``, one scan per ordering.

    The conclusion side is 1/(eta(t1)eta(t2)) + 1/(eta(t3)eta(t4)) with
    t1 = d(x,z)/d(x,y), t2 = d(t,y)/d(t,z), t3 = d(x,z)/d(x,t) and
    t4 = d(t,y)/d(y,z): on the :func:`power_table` of eta = C t**alpha,
    where one applies, (P[x,y]P[t,z] + P[x,t]P[y,z]) / (C**2 P[x,z]P[t,y]);
    else exp(-(log eta(t1) + log eta(t2))) + exp(-(log eta(t3) + log eta(t4))).
    A value violates when it is NaN or below 1 - tol.  Returns (implied,
    value, quadruple, ratios, checked): the first violation of the first
    ordering that has one, else the smallest of the orderings' first minima
    (the first ordering on ties).
    """
    from qsym.triangle import _QUAD_ORDERINGS

    d = np.asarray(f.domain.dist)
    table = power_table(eta, d, squared=True)
    scans = [[None, None] for _ in _QUAD_ORDERINGS]  # first minimum, first violation
    checked = 0
    for quad in itertools.combinations(range(f.domain.n), 4):
        for scan, order in zip(scans, _QUAD_ORDERINGS):
            x, y, z, t = (quad[p] for p in order)
            ratios = (d[x, z] / d[x, y], d[t, y] / d[t, z], d[x, z] / d[x, t],
                      d[t, y] / d[y, z])
            if table is None:
                l1, l2, l3, l4 = (float(np.asarray(eta.log_eval(r))) for r in ratios)
                with np.errstate(over="ignore", invalid="ignore"):
                    c = float(np.exp(-(l1 + l2)) + np.exp(-(l3 + l4)))
            else:
                P, C = table[:2]
                c = float((P[x, y] * P[t, z] + P[x, t] * P[y, z])
                          / ((C * C) * (P[x, z] * P[t, y])))
            entry = (c, (x, y, z, t), tuple(float(r) for r in ratios))
            checked += 1
            low = scan[0]
            if low is None or (c != c and low[0] == low[0]) or c < low[0]:
                scan[0] = entry
            if scan[1] is None and not c >= 1.0 - tol:
                scan[1] = entry
    for _, violation in scans:
        if violation is not None:
            return (False,) + violation + (checked,)
    if not checked:
        return (True, None, None, None, 0)
    best = scans[0][0]
    for low, _ in scans[1:]:
        if low[0] < best[0]:
            best = low
    return (True,) + best + (checked,)


def naive_envelope(f, records=False):
    """The envelope of f by loops over all triples (x, a, b), a != x != b:
    three lists, the distinct realized ratios t in increasing order, the
    running maximum H of the image ratios over ratios <= t, and each knot's
    witness, the last triple that attains H in the order of t and then
    (x, a, b).  ``records`` keeps the knots where H rises.  A triple with
    two zero image distances (a constant map) realizes nothing."""
    d = np.asarray(f.domain.dist)
    r = f.image_matrix()
    n = f.domain.n
    pts = []
    for x in range(n):
        for a in range(n):
            if a == x:
                continue
            for b in range(n):
                if b == x or r[x, a] == r[x, b] == 0.0:
                    continue
                pts.append((d[x, a] / d[x, b], r[x, a] / r[x, b], (x, a, b)))
    pts.sort(key=lambda p: p[0])
    ts, hs, witnesses = [], [], []
    running, witness = -np.inf, None
    for t, q, triple in pts:
        if q >= running:
            running, witness = q, triple
        if ts and t == ts[-1]:
            hs[-1], witnesses[-1] = running, witness
        else:
            ts.append(t)
            hs.append(running)
            witnesses.append(witness)
    if records:
        keep = [i for i in range(len(ts)) if i == 0 or hs[i] > hs[i - 1]]
        return [ts[i] for i in keep], [hs[i] for i in keep], [witnesses[i] for i in keep]
    return ts, hs, witnesses


def knot_qs_report(f, eta, tol):
    """The quasisymmetry verdict read off the knots of :func:`naive_envelope`:
    holds iff eta(t_i) >= (1 - tol) H(t_i) at every knot (a NaN eta(t_i)
    violates), with the witness behind the first failing knot.  ``checked``
    counts the knots."""
    from qsym import QsReport

    ts, hs, witnesses = naive_envelope(f)
    vals = np.asarray(eta.eval(np.array(ts)), dtype=float)
    lab = f.domain.labels
    for t, h, v, w in zip(ts, hs, vals, witnesses):
        if not v >= (1 - tol) * h:
            return QsReport(False, w, tuple(lab[i] for i in w), float(t), float(h), float(v),
                            eta.describe(), tol, len(ts))
    return QsReport(True, None, None, None, None, None, eta.describe(), tol, len(ts))


def knot_ratio_report(f, eta):
    """The reciprocal-ratio report read off the distinct realized ratios of
    :func:`naive_envelope`: the first with the smallest eta(t) eta(1/t) (a
    NaN first), the product taken from ``log_eval`` where the direct one is
    not finite.  ``checked`` counts the distinct ratios."""
    from qsym import RatioIdentityReport
    from qsym.quasisymmetry import ETA_ONE_TOL, RATIO_PRODUCT_TOL

    ts = np.array(naive_envelope(f)[0])
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


def naive_ptolemy_worst(space, tol=1e-9):
    """The Ptolemy report by loops over the 4-subsets i < j < k < l and,
    within each, the pairings ab = s(i,j) s(k,l), ce = s(i,k) s(j,l) and
    fg = s(i,l) s(j,k), where s is the distance times 2**-e, e the binary
    exponent of the largest one.  A pairing's margin is the sum of the other
    two products minus its own; it violates when NaN or below -tol times
    its product.  The witness is the first minimum margin in (i, j, k, l,
    pairing) order, a NaN first, unless that margin is within its floor while
    another pairing violates: then it is the first violation.  It is arranged
    as (x, y, z, t) with the product d(x,z) d(t,y); lhs, rhs and margin are
    scaled back by 2**(2e)."""
    from qsym import PtolemyReport

    n = space.n
    if n < 4:
        return PtolemyReport(True, None, 0.0, 0.0, np.inf, "exhaustive", 0, tol)
    d = np.asarray(space.dist)
    e = math.frexp(max(float(v) for v in d.ravel()))[1]
    s = np.ldexp(d, -e)
    best = violation = None
    checked = 0
    for i, j, k, l in itertools.combinations(range(n), 4):
        ab, ce, fg = s[i, j] * s[k, l], s[i, k] * s[j, l], s[i, l] * s[j, k]
        pairings = ((ab, ce + fg - ab), (ce, ab + fg - ce), (fg, ab + ce - fg))
        quads = ((i, l, j, k), (i, l, k, j), (i, k, l, j))
        for (product, margin), quad in zip(pairings, quads):
            checked += 1
            if best is None or (margin != margin and best[2] == best[2]) or margin < best[2]:
                best = (quad, product, margin)
            if violation is None and not margin >= -tol * product:
                violation = (quad, product, margin)
    quad, product, margin = best
    if violation is not None and margin >= -tol * product:
        quad, product, margin = violation
    with np.errstate(over="ignore"):
        lhs, rhs, margin = (float(np.ldexp(v, 2 * e))
                            for v in (product, product + margin, margin))
    return PtolemyReport(violation is None, quad, lhs, rhs, margin, "exhaustive", checked,
                         tol)


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


def naive_qs_in_logs(f, eta, tol=1e-9):
    """The quasisymmetry report of eta = C t**alpha, a power, linear or
    bi-Lipschitz modulus, by loops over the triples (x, a, b), a, b != x.
    The ratios t = d(x,a)/d(x,b) and r = rho(fx,fa)/rho(fx,fb) are Python
    float quotients.  Where both are normal floats the pair holds iff
    eta(t) >= (1 - tol) r; otherwise it is decided in logs,
    log C + alpha (log d(x,a) - log d(x,b)) >= log(1 - tol) +
    (log rho(fx,fa) - log rho(fx,fb)), with math.log.  The witness has the
    smallest t among the violations, then the largest r, then comes last in
    (x, a, b) order; the report shows t, r and eta(t) as floats."""
    from qsym import QsReport

    d = np.asarray(f.domain.dist).tolist()
    rho = f.image_matrix().tolist()
    tiny = np.finfo(float).tiny
    n = f.domain.n
    worst = None
    checked = 0
    for x in range(n):
        for a in range(n):
            for b in range(n):
                if a == x or b == x:
                    continue
                checked += 1
                t = d[x][a] / d[x][b]
                r = rho[x][a] / rho[x][b]
                with np.errstate(over="ignore"):
                    value = float(np.asarray(eta.eval(t)))
                if tiny <= t < math.inf and tiny <= r < math.inf:
                    ok = value >= (1 - tol) * r
                else:
                    log_eta = math.log(eta.C) + eta.alpha * (math.log(d[x][a]) -
                                                             math.log(d[x][b]))
                    ok = log_eta >= math.log1p(-tol) + (math.log(rho[x][a]) -
                                                        math.log(rho[x][b]))
                if not ok and (worst is None or t < worst[0] or
                               (t == worst[0] and r >= worst[1])):
                    worst = (t, r, value, (x, a, b))
    if worst is None:
        return QsReport(True, None, None, None, None, None, eta.describe(), tol, checked)
    t, r, value, triple = worst
    return QsReport(False, triple, tuple(f.domain.labels[i] for i in triple), t, r, value,
                    eta.describe(), tol, checked)


@pytest.fixture
def line3():
    from qsym import collinear_space

    return collinear_space([0.0, 1.0, 3.0])


@pytest.fixture
def line4():
    from qsym import collinear_space

    return collinear_space([0.0, 1.0, 3.0, 6.0])
