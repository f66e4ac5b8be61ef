"""Transfer of triangle structure along quasisymmetric maps.

The central implication: whenever 1 <= Phi1(1/t1, 1/t2) forces
1 <= Phi2(1/eta(t1), 1/eta(t2)) across ratio pairs, a map verified by eta
carries the Phi1 triangle inequality of its domain to the Phi2 inequality
on its image.  The checks here evaluate that implication on realized
ratios or on a log grid, derive the minimal scaled-additive coefficient
the image can be given, and run the whole chain end to end, including the
four-ratio Ptolemy variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import PreconditionFailed, Unbounded
from .moduli import Modulus, PowerModulus
from .quasisymmetry import check_qs
from .report import Report
from .spaces import DEFAULT_TOL, PointMap, SemimetricSpace, _valid_tol
from .triangle import (
    _QUAD_ORDERINGS,
    PtolemyReport,
    TriangleFunction,
    TriangleReport,
    _pair_rows,
    _quadruple_blocks,
    _Scan,
    check_triangle,
    is_ptolemaic,
)

#: default grid for the a-priori (non-realized) implication scan
TRANSFER_GRID_POINTS = 256
TRANSFER_GRID_SPAN = (1e-4, 1e4)


def _inv_eta(eta: Modulus, t: np.ndarray) -> np.ndarray:
    """1/eta(t) through the log path, stable under overflow of eta."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.exp(-np.asarray(eta.log_eval(t), dtype=float))


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


def _scan_pairs(phi1, phi2, eta, t1, t2, tol, scan):
    """Scan one batch of (t1, t2) pairs: add the conclusion sides of its
    premise pairs to ``scan`` and return the premise mask."""
    lhs1 = np.asarray(phi1(1.0 / t1, 1.0 / t2), dtype=float)
    premise = lhs1 >= 1.0 - tol
    if not premise.all():
        t1, t2, lhs1 = t1[premise], t2[premise], lhs1[premise]
    if lhs1.size:
        lhs2 = np.asarray(phi2(_inv_eta(eta, t1), _inv_eta(eta, t2)), dtype=float)
        scan.add(lhs2, lambda k: (float(t1[k]), float(t2[k]), float(lhs1[k]), float(lhs2[k])))
    return premise


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
    """
    scan = _Scan(1.0 - _valid_tol(tol))
    if pairs is None:
        axis = np.geomspace(grid_span[0], grid_span[1], grid_points)
        # anchor the small dyadic ratios where the classical equality
        # cases live, so binding pairs like (2, 2) are hit exactly
        anchors = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        anchors = anchors[(anchors >= grid_span[0]) & (anchors <= grid_span[1])]
        axis = np.unique(np.concatenate([axis, anchors]))
        m = len(axis)
        _scan_pairs(phi1, phi2, eta, np.repeat(axis, m), np.tile(axis, m), tol, scan)
        checked, mode = scan.count, "grid"
    else:
        space = pairs.domain if isinstance(pairs, PointMap) else pairs
        D = np.asarray(space.dist)
        n = space.n
        # colsum[y]: premise pairs (x, y, z) over x < y, which the scan over
        # all ordered pairs meets again in row y
        colsum = np.zeros(n, dtype=np.int64)
        off = ~np.eye(n, dtype=bool)
        stop = n - 1
        for x, lo, hi in _pair_rows(n):
            if x > stop:
                break
            keep = off[lo:hi] & off[x]  # z != y and z != x
            dxy = D[x, lo:hi, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (dxy / D[x])[keep]
                t2 = (dxy / D[lo:hi])[keep]
            premise = _scan_pairs(phi1, phi2, eta, t1, t2, tol, scan)
            colsum[lo:hi] += premise.reshape(hi - lo, n - 2).sum(axis=1)
            if scan.violation is not None:
                stop = x  # finish this x, where the full scan stops
        checked, mode = scan.count + int(colsum[:stop + 1].sum()), "realized"
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
        raise Unbounded(
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


def verify_transfer_end_to_end(
    f: PointMap,
    phi1: TriangleFunction,
    phi2: TriangleFunction,
    eta: Modulus,
    tol: float = DEFAULT_TOL,
) -> EndToEndReport:
    """Run the whole transfer argument on a concrete bijection.

    Preconditions (each raises :class:`PreconditionFailed` naming the
    failing input): f bijective, the domain satisfies the Phi1 triangle
    inequality, and eta verifies f.  Then the implication is scanned on
    realized ratios and the codomain is checked against Phi2.
    """
    if not f.is_bijection():
        raise PreconditionFailed("bijection: the map is not a bijection onto the codomain")
    dom = check_triangle(f.domain, phi1, tol=tol)
    if not dom.holds:
        raise PreconditionFailed(
            f"domain triangle: the domain fails {phi1.describe()} at triple "
            f"{dom.worst_labels(f.domain)}"
        )
    qs = check_qs(f, eta, tol=tol)
    if not qs.holds:
        raise PreconditionFailed(
            f"quasisymmetry: {eta.describe()} does not verify the map "
            f"(witness {qs.witness_labels})"
        )
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
    verifies f.  For eta = t**alpha with alpha <= 1 the four-ratio
    implication holds analytically (subadditivity of u**alpha) and only
    the image is verified; otherwise the implication

        t1 t2 t3 t4 <= t1 t2 + t3 t4
            implies  eta(t1)eta(t2)eta(t3)eta(t4)
                         <= eta(t1)eta(t2) + eta(t3)eta(t4)

    is checked at realized quadruple ratios (t1 = d(x,z)/d(x,y),
    t2 = d(t,y)/d(t,z), t3 = d(x,z)/d(x,t), t4 = d(t,y)/d(y,z)) in all
    three orderings of every 4-subset, each a premise that the domain's
    Ptolemy check has certified; a NaN conclusion is a violation (the rule
    of :class:`_Scan`, one scan per ordering).
    Every verdict is exhaustive: each Ptolemy check costs 3 C(n, 4)
    inequalities, streamed in O(n^2) memory.
    """
    dom = is_ptolemaic(f.domain, tol=tol)
    if not dom.holds:
        raise PreconditionFailed(
            f"domain Ptolemy: fails at quadruple {dom.worst_labels(f.domain)}"
        )
    if not f.is_bijection():
        raise PreconditionFailed("bijection: the map is not a bijection onto the codomain")
    qs = check_qs(f, eta, tol=tol)
    if not qs.holds:
        raise PreconditionFailed(
            f"quasisymmetry: {eta.describe()} does not verify the map "
            f"(witness {qs.witness_labels})"
        )

    image = is_ptolemaic(f.codomain, tol=tol)

    if isinstance(eta, PowerModulus) and eta.alpha <= 1.0 and not force_realized:
        return PtolemyTransferReport(
            image.holds, "analytic", True, 0, None, None, None, image, tol
        )

    # one scan per ordering (x, y, z, t), each putting one pairing in the
    # product d(x,z) d(t,y): the witnesses of a scan of all quadruples one
    # ordering at a time
    scans = [_Scan(1.0 - tol) for _ in _QUAD_ORDERINGS]
    for i, j, k, l, q in _quadruple_blocks(f.domain.dist):
        for scan, (X, Y, Z, T) in zip(scans, _QUAD_ORDERINGS):
            t1 = q[X][Z] / q[X][Y]
            t2 = q[T][Y] / q[T][Z]
            t3 = q[X][Z] / q[X][T]
            t4 = q[T][Y] / q[Y][Z]
            l1, l2, l3, l4 = (np.asarray(eta.log_eval(t), dtype=float)
                              for t in (t1, t2, t3, t4))
            with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN
                c = np.exp(-(l1 + l2)) + np.exp(-(l3 + l4))

            def witness(m):
                quad = (i, int(j[m]), int(k[m]), int(l[m]))
                return (float(c[m]), tuple(quad[p] for p in (X, Y, Z, T)),
                        tuple(float(t[m]) for t in (t1, t2, t3, t4)))

            scan.add(c, witness)
    violation = next((s.violation for s in scans if s.violation is not None), None)
    worst = min((s.least for s in scans if s.least is not None), key=lambda w: w[0],
                default=None)
    implied = violation is None
    value, quad, ratios = (worst if implied else violation) or (None, None, None)
    return PtolemyTransferReport(implied and image.holds, "realized", implied,
                                 sum(s.count for s in scans), value, quad, ratios, image, tol)
