"""Transfer of triangle structure along quasisymmetric maps.

The central implication: whenever 1 <= Phi1(1/t1, 1/t2) forces
1 <= Phi2(1/eta(t1), 1/eta(t2)) across ratio pairs, a map verified by eta
carries the Phi1 triangle inequality of its domain to the Phi2 inequality
on its image.  The checks here evaluate that implication on realized
ratios or on a log grid, derive the minimal scaled-additive coefficient
the image can be given, and run the whole chain end to end, including the
four-ratio Ptolemy variant.

For eta(t) = C t**alpha in ``moduli._POWER_FAMILY`` the realized scans
read eta(d(x,y)/d(x,z)) = C P[x,y] / P[x,z] off the table P = d**alpha, n**2
powers; other moduli take the log path 1/eta(t) = exp(-log eta(t)).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import PreconditionFailed, ValidationError
from .moduli import _POWER_FAMILY, Modulus, PowerModulus, _inv_eta
from .quasisymmetry import check_qs
from .report import Report
from .spaces import _TINY, DEFAULT_TOL, PointMap, SemimetricSpace, _scaled, _valid_tol, _wide
from .triangle import (
    _HOMOGENEOUS,
    _QUAD_ORDERINGS,
    PtolemyReport,
    TriangleFunction,
    TriangleReport,
    _distinct,
    _pair_column,
    _pair_rows,
    _quadruple_blocks,
    _Scan,
    check_triangle,
    is_ptolemaic,
)

#: per ordering (x, y, z, t), the pairing (q01 q23, q02 q13, q03 q12) of its
#: diagonal product d(x,z) d(t,y): the one that matches point 0 with its partner
_DIAGONALS = tuple({X: Z, Z: X, Y: T, T: Y}[0] - 1 for X, Y, Z, T in _QUAD_ORDERINGS)

#: default grid for the a-priori (non-realized) implication scan
TRANSFER_GRID_POINTS = 256
TRANSFER_GRID_SPAN = (1e-4, 1e4)


def _power_table(eta: Modulus, D: np.ndarray, squared: bool = False):
    """``(P, C, S)`` for eta(t) = C t**alpha in ``_POWER_FAMILY``: S is D read
    through :func:`spaces._scaled` and P = S**alpha, the same at every scale
    2**k D.  None (the log path) for other moduli, where the clamp of
    ``_scaled`` acts (S reaches 1, and P may overflow), or when a scaled
    distance or C times the least off-diagonal P (squared for the
    four-ratio products) is not a normal float, as for 1e-200..1 at alpha 2."""
    if type(eta) not in _POWER_FAMILY:
        return None
    S = _scaled(D)[0]
    if not np.max(S, initial=0.0) < 1.0:
        return None
    C, alpha = eta.C, eta.alpha
    off = ~np.eye(len(D), dtype=bool)
    P = S ** alpha
    least = float(np.min(P, where=off, initial=np.inf))
    low = C * C * (least * least) if squared else C * least
    if np.min(S, where=off, initial=np.inf) >= _TINY and _TINY <= low < np.inf:
        return P, C, S
    return None


def _normal_ratios(space: SemimetricSpace, mask, xa: int, lo: int, what: str, *ratios):
    """Raise :class:`ValidationError` at the first entry of a block of
    ``_pair_rows`` where ``mask`` holds and some array of ``ratios`` reads 0
    or inf or is subnormal.  The message names its triple (x, y, z) and
    ``what`` reads such a ratio."""
    odd = mask & ~np.logical_and.reduce([(r >= _TINY) & (r < np.inf) for r in ratios])
    if odd.any():
        i, j, z = np.unravel_index(np.argmax(odd), odd.shape)
        x, y, z = (space.labels[k] for k in (xa + i, lo + j, z))
        raise ValidationError(
            f"a ratio of d({x},{y}), d({x},{z}) and d({y},{z}) is not a normal float: only {what}")


@dataclass(frozen=True)
class TransferReport(Report):
    """Outcome of the ratio-pair implication scan.

    ``worst`` is (t1, t2, lhs1, lhs2): the first violation when failing,
    otherwise the premise pair with the smallest conclusion side.
    """

    holds: bool
    checked_pairs: int
    worst: Optional[tuple]
    mode: str
    tol: float


def check_transfer_condition(
    phi1: TriangleFunction,
    phi2: TriangleFunction,
    eta: Modulus,
    pairs: Union[PointMap, SemimetricSpace, None] = None,
    tol: float = DEFAULT_TOL,
    grid_points: int = TRANSFER_GRID_POINTS,
    grid_span: tuple = TRANSFER_GRID_SPAN,
) -> TransferReport:
    """Scan the implication 1 <= Phi1(1/t1,1/t2) => 1 <= Phi2(1/eta t's).

    ``pairs`` selects the source of ratio pairs: a map or space takes the
    realized ratios t1 = d(x,y)/d(x,z), t2 = d(x,y)/d(z,y) over its
    triples; None scans a ``grid_points`` squared log grid over
    ``grid_span``.  A conclusion side that is NaN or below 1 - tol is a
    violation, and the first one in scan order wins (the rule of
    :class:`_Scan`).

    The realized scan reads the pairs x < y of ``_pair_rows``: swapping x
    and y swaps t1 and t2 bit for bit and the gauges are symmetric, so the
    first violation and the tightest pair (the first smallest conclusion)
    of the scan over all ordered (x, y, z) have x < y.  That scan stops
    after the first violating x; ``checked_pairs`` counts its premise pairs.
    A block of ``_pair_rows`` may hold several base points, whose masked
    rows y <= x hold no premise pair; a violation at one of them drops the
    premise pairs of the block's later base points from the count.
    The premise side is Phi1(d(x,z)/d(x,y), d(y,z)/d(x,y)), the conclusion
    side Phi2(1/eta(t1), 1/eta(t2)) by the log path or, on a
    :func:`_power_table` (P, C, S), Phi2(P[x,z]/(C P[x,y]), P[y,z]/(C P[x,y])).
    On a table a positively homogeneous gauge (additive, bmetric, max) is read
    undivided: the premise as Phi1(S[x,z], S[y,z]) >= (1 - tol) S[x,y], with
    lhs1 their quotient, the conclusion as Phi2(P[x,z], P[y,z]) / (C P[x,y]).

    Where the distances span 2**1022 or more (:func:`spaces._wide`), a ratio
    may leave the normal floats, so such a premise is read undivided on
    ``_scaled`` distances, and a power modulus takes 1/eta(t1) as
    exp(-log C - alpha (log d(x,y) - log d(x,z))); a ratio off the normal
    floats that a custom gauge or another modulus would read is a
    :class:`ValidationError` naming its triple.  The witness shows t1, t2
    and lhs1 as they read in floats, so an overflowed one reads inf.
    """
    scan = _Scan(1.0 - _valid_tol(tol))
    if pairs is None:
        axis = np.geomspace(grid_span[0], grid_span[1], grid_points)
        # anchor the small dyadic ratios where the classical equality
        # cases live, so binding pairs like (2, 2) are hit exactly
        anchors = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        anchors = anchors[(anchors >= grid_span[0]) & (anchors <= grid_span[1])]
        axis = np.unique(np.concatenate([axis, anchors]))
        t1, t2 = np.repeat(axis, len(axis)), np.tile(axis, len(axis))
        lhs1 = np.asarray(phi1(1.0 / t1, 1.0 / t2), dtype=float)
        premise = lhs1 >= 1.0 - tol
        t1, t2, lhs1 = t1[premise], t2[premise], lhs1[premise]
        if lhs1.size:
            lhs2 = np.asarray(phi2(_inv_eta(eta, t1), _inv_eta(eta, t2)), dtype=float)
            scan.add(lhs2, lambda k: (float(t1[k]), float(t2[k]), float(lhs1[k]),
                                      float(lhs2[k])))
        checked, mode = scan.count, "grid"
    else:
        space = pairs.domain if isinstance(pairs, PointMap) else pairs
        D = np.asarray(space.dist)
        n = space.n
        table = _power_table(eta, D)
        wide = table is None and _wide(D)  # a table's distances span less than 2**1021
        S = None
        if type(phi1) in _HOMOGENEOUS:  # undivided on a table, or where a ratio can overflow
            S = table[2] if table is not None else _scaled(D)[0] if wide else None
        logs = wide and type(eta) in _POWER_FAMILY  # ratios off the normal floats in logs
        if logs:
            with np.errstate(divide="ignore"):
                LD = np.log(D)

        def premise_rows(xa, xb, lo, hi):  # the premise pairs of a block
            if S is None:
                dxy = _pair_column(D, xa, xb, lo, hi)
                u, v = D[xa:xb, None] / dxy, D[None, lo:hi] / dxy
                if wide:
                    triples = np.ones(u.shape, dtype=bool)
                    _distinct(triples, xa, xb, lo, hi)
                    _normal_ratios(space, triples, xa, lo, "a homogeneous gauge (additive, "
                                   "bmetric, max) is read there, undivided", u, v)
                lhs1 = np.asarray(phi1(u, v), dtype=float)
                premise = lhs1 >= 1.0 - tol
            else:  # undivided; the witness forms its lhs1 again, so that a
                # block keeps one full-size float array fewer alive
                lhs1 = None
                premise = phi1(S[xa:xb, None], S[None, lo:hi]) >= \
                    (1.0 - tol) * S[xa:xb, lo:hi, None]
            _distinct(premise, xa, xb, lo, hi)  # z != x, y; y > x
            return lhs1, premise

        with np.errstate(over="ignore") if wide else nullcontext():
            stop = n - 1
            for xa, xb, lo, hi in _pair_rows(n):
                if xa > stop:
                    break
                lhs1, premise = premise_rows(xa, xb, lo, hi)
                if table is None:
                    dxy = _pair_column(D, xa, xb, lo, hi)
                    with np.errstate(divide="ignore"):
                        ts = dxy / D[xa:xb, None], dxy / D[None, lo:hi]
                    if wide and not logs:
                        _normal_ratios(space, premise, xa, lo, "a power modulus (power:, "
                                       "linear:, bilip:) is compared there, in logs", *ts)
                    inv = [_inv_eta(eta, t[premise]) for t in ts]
                    if logs:  # off the normal floats, log t is a difference of logs
                        lxy = _pair_column(LD, xa, xb, lo, hi)
                        for v, t, l in zip(inv, ts, (LD[xa:xb, None], LD[None, lo:hi])):
                            odd = premise & ~((t >= _TINY) & (t < np.inf))
                            v[odd[premise]] = np.exp(-eta.log_C - eta.alpha * (lxy - l)[odd])
                    lhs2 = np.asarray(phi2(*inv), dtype=float)
                else:
                    P, C, _ = table
                    cxy = C * _pair_column(P, xa, xb, lo, hi)
                    if type(phi2) in _HOMOGENEOUS:
                        lhs2 = phi2(P[xa:xb, None], P[None, lo:hi])
                        lhs2 /= cxy
                        lhs2 = lhs2[premise]
                    else:
                        lhs2 = np.asarray(phi2(P[xa:xb, None] / cxy, P[None, lo:hi] / cxy),
                                          dtype=float)[premise]
                if not lhs2.size:
                    continue

                def witness(k):
                    i, j, z = np.unravel_index(np.flatnonzero(premise)[k], premise.shape)
                    x, y = xa + i, lo + j
                    side = lhs1[i, j, z] if S is None else phi1(S[x, z], S[y, z]) / S[x, y]
                    return (float(D[x, y] / D[x, z]), float(D[x, y] / D[y, z]), float(side),
                            float(lhs2[k]))

                scan.add(lhs2, witness)
                if scan.violation is not None:
                    # finish the violating x, where the full scan stops: in a
                    # packed block, drop the premise pairs of its later base points
                    stop = xa
                    if xb - xa > 1:
                        at = np.flatnonzero(premise)[int(np.argmax(~(lhs2 >= scan.floor)))]
                        stop += int(at) // premise[0].size
                        scan.count -= int(np.count_nonzero(premise[stop - xa + 1:]))
            # the full scan meets each premise pair (x, y, z) again as (y, x, z)
            # in row y; after a violation, only the rows y <= stop
            checked = 2 * scan.count
            if scan.violation is not None:
                checked = scan.count + sum(int(np.count_nonzero(premise_rows(*rows)[1]))
                                           for rows in _pair_rows(stop + 1))
        mode = "realized"
    holds = scan.violation is None
    return TransferReport(holds, checked, scan.least if holds else scan.violation, mode, tol)


def minimal_transfer_K2(K1: float, eta: Modulus, grid_points: int = 2001) -> float:
    """Smallest K2 with 1 <= K1(1/t1+1/t2) implying 1 <= K2(1/eta(t1)+1/eta(t2)).

    Equals the supremum of 1/(1/eta(t1) + 1/eta(t2)) over the constraint
    boundary 1/t1 + 1/t2 = 1/K1 (the objective is increasing in both
    ratios, so the interior never beats the boundary).  The boundary is
    scanned on a grid, the cell around the best grid point is re-scanned
    twice on 2001 points, and the corner limit eta(K1) enters as a
    candidate; the result is clamped to >= 1 (no gauge has a smaller
    coefficient).
    """
    if not K1 >= 1:  # NaN too
        raise ValueError("K1 must be >= 1")
    b = 1.0 / K1

    def objective(us):
        with np.errstate(divide="ignore"):
            t1 = 1.0 / us
            t2 = 1.0 / (b - us)
            return t1, t2, 1.0 / (_inv_eta(eta, t1) + _inv_eta(eta, t2))

    frac = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 1.0, grid_points + 2)[1:-1],
                np.geomspace(1e-12, 0.5, 200),
                1.0 - np.geomspace(1e-12, 0.5, 200),
            ]
        )
    )
    us = frac * b
    t1, t2, obj = objective(us)
    if np.any(~np.isfinite(obj)):
        i = int(np.argmax(~np.isfinite(obj)))
        raise ValidationError(
            f"transfer coefficient diverges at t1 = {t1[i]:.6g}, t2 = {t2[i]:.6g}"
        )
    i = int(np.argmax(obj))
    best = float(obj[i])

    # each pass narrows the bracketing cell a thousandfold; a gain within
    # the objective's rounding error (a few ulps) is noise, not a higher
    # maximum, so a maximum the grid hits exactly stays exact
    for _ in range(2):
        us = np.linspace(us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)], 2001)
        obj = objective(us)[2]
        i = int(np.argmax(obj))
        if np.isfinite(obj[i]) and obj[i] > best * (1.0 + 8 * np.finfo(float).eps):
            best = float(obj[i])

    corner = float(
        1.0 / (_inv_eta(eta, np.array([1e15]))[0] + _inv_eta(eta, np.array([K1]))[0])
    )
    if np.isfinite(corner):
        best = max(best, corner)
    return max(best, 1.0)


@dataclass(frozen=True)
class EndToEndReport(Report):
    """The full transfer chain on one map.

    ``consistent`` is the theorem itself at finite scale: either the
    implication scan failed, or the image triangle inequality holds.
    """

    holds: bool
    consistent: bool
    domain_triangle: TriangleReport
    qs: object
    transfer: TransferReport
    image_triangle: TriangleReport


def _preconditions(f: PointMap, eta: Modulus, tol: float, dom, failure: str):
    """check_qs(f, eta) once the domain report ``dom`` holds, f is a
    bijection and eta verifies f; else :class:`PreconditionFailed` names the
    first of them that fails, the domain by ``failure`` and its witness."""
    if not dom.holds:
        raise PreconditionFailed(f"{failure} {dom.worst_labels(f.domain)}")
    if not f.is_bijection():
        raise PreconditionFailed("bijection: the map is not a bijection onto the codomain")
    qs = check_qs(f, eta, tol=tol)
    if not qs.holds:
        raise PreconditionFailed(
            f"quasisymmetry: {eta.describe()} does not verify the map "
            f"(witness {qs.witness_labels})"
        )
    return qs


def verify_transfer_end_to_end(
    f: PointMap,
    phi1: TriangleFunction,
    phi2: TriangleFunction,
    eta: Modulus,
    tol: float = DEFAULT_TOL,
) -> EndToEndReport:
    """Run the whole transfer argument on a concrete bijection.

    Preconditions (the first that fails raises :class:`PreconditionFailed`
    naming it): the domain satisfies the Phi1 triangle inequality, f is
    bijective, and eta verifies f.  Then the implication is scanned on
    realized ratios and the codomain is checked against Phi2.
    """
    dom = check_triangle(f.domain, phi1, tol=tol)
    qs = _preconditions(f, eta, tol, dom,
                        f"domain triangle: the domain fails {phi1.describe()} at triple")
    transfer = check_transfer_condition(phi1, phi2, eta, pairs=f, tol=tol)
    image = check_triangle(f.codomain, phi2, tol=tol)
    consistent = (not transfer.holds) or image.holds
    return EndToEndReport(
        transfer.holds and image.holds, consistent, dom, qs, transfer, image
    )


@dataclass(frozen=True)
class PtolemyTransferReport(Report):
    """Four-ratio implication scan plus the image Ptolemy verdict."""

    holds: bool
    mode: str
    implication_holds: bool
    checked: int
    worst_value: Optional[float]
    worst_quadruple: Optional[tuple]
    worst_ratios: Optional[tuple]
    image: PtolemyReport
    tol: float


def ptolemy_transfer_check(
    f: PointMap,
    eta: Modulus,
    tol: float = DEFAULT_TOL,
    force_realized: bool = False,
) -> PtolemyTransferReport:
    """Does the map carry the Ptolemy inequality to its image?

    Preconditions: the domain is Ptolemaic, f is a bijection, and eta
    verifies f.  For eta = t**alpha, alpha <= 1, of exact type PowerModulus
    the four-ratio implication holds analytically (subadditivity of
    u**alpha) and only the image is verified; otherwise the implication

        t1 t2 t3 t4 <= t1 t2 + t3 t4
            implies  eta(t1)eta(t2)eta(t3)eta(t4)
                         <= eta(t1)eta(t2) + eta(t3)eta(t4)

    is checked at realized quadruple ratios (t1 = d(x,z)/d(x,y),
    t2 = d(t,y)/d(t,z), t3 = d(x,z)/d(x,t), t4 = d(t,y)/d(y,z)) in all
    three orderings of every 4-subset, each a premise that the domain's
    Ptolemy check has certified; a NaN conclusion is a violation (the rule
    of :class:`_Scan`, one scan per ordering).  The conclusion side
    1/(eta(t1)eta(t2)) + 1/(eta(t3)eta(t4)) is read on a :func:`_power_table`
    as (P[x,y]P[t,z] + P[x,t]P[y,z]) / (C**2 P[x,z]P[t,y]), else by the log
    path.  Every verdict is exhaustive: each Ptolemy check, and the realized
    scan, costs 3 C(n, 4) inequalities, read in the blocks of whole (i, j)
    runs of :func:`triangle._quadruple_blocks`, in O(n^2 + _QUAD_BLOCK)
    memory; the scans reduce across blocks, so no report depends on where
    a block ends.
    """
    _preconditions(f, eta, tol, is_ptolemaic(f.domain, tol=tol),
                   "domain Ptolemy: fails at quadruple")
    image = is_ptolemaic(f.codomain, tol=tol)

    if type(eta) is PowerModulus and eta.alpha <= 1.0 and not force_realized:
        return PtolemyTransferReport(
            image.holds, "analytic", True, 0, None, None, None, image, tol
        )

    # one scan per ordering (x, y, z, t), each putting one pairing in the
    # product d(x,z) d(t,y): the witnesses of a scan of all quadruples one
    # ordering at a time
    scans = [_Scan(1.0 - tol) for _ in _QUAD_ORDERINGS]
    D = np.asarray(f.domain.dist)
    table = _power_table(eta, D, squared=True)
    C2 = None if table is None else table[1] * table[1]
    for i, j, k, l, q in _quadruple_blocks(D if table is None else table[0]):
        if table is not None:  # is_ptolemaic's pairing products, on P
            products = (q[0][1] * q[2][3], q[0][2] * q[1][3], q[0][3] * q[1][2])
        for scan, (X, Y, Z, T), diagonal in zip(scans, _QUAD_ORDERINGS, _DIAGONALS):
            if table is None:
                t1 = q[X][Z] / q[X][Y]
                t2 = q[T][Y] / q[T][Z]
                t3 = q[X][Z] / q[X][T]
                t4 = q[T][Y] / q[Y][Z]
                l1, l2, l3, l4 = (np.asarray(eta.log_eval(t), dtype=float)
                                  for t in (t1, t2, t3, t4))
                with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
                    c = np.exp(-(l1 + l2)) + np.exp(-(l3 + l4))
            else:
                a, b = (p for m, p in enumerate(products) if m != diagonal)
                c = (a + b) / (C2 * products[diagonal])

            def witness(m):
                quad = (int(i[m]), int(j[m]), int(k[m]), int(l[m]))
                x, y, z, t = (quad[p] for p in (X, Y, Z, T))
                ratios = (D[x, z] / D[x, y], D[t, y] / D[t, z],
                          D[x, z] / D[x, t], D[t, y] / D[y, z])
                return (float(c[m]), (x, y, z, t), tuple(float(r) for r in ratios))

            scan.add(c, witness)
    violation = next((s.violation for s in scans if s.violation is not None), None)
    worst = min((s.least for s in scans if s.least is not None), key=lambda w: w[0],
                default=None)
    implied = violation is None
    value, quad, ratios = (worst if implied else violation) or (None, None, None)
    return PtolemyTransferReport(implied and image.holds, "realized", implied,
                                 sum(s.count for s in scans), value, quad, ratios, image, tol)
