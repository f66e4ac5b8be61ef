"""Weak similarity: distance-rank-preserving bijections.

Two spaces are weakly similar when some bijection of their points admits
a strictly increasing bijection phi between their spectra with
phi(d(x, y)) = rho(fx, fy) on every pair.  On a finite space that is an
edge-colored complete-graph isomorphism problem, where an edge's color is
the rank of its distance in the spectrum.  Distances are bucketed into
ranks with a relative tolerance first; phi itself lives on rank space as
a pair of value lists.

The bridges to quasisymmetry (submultiplicative continuations, the
involution identity, the monotone-implication characterization) are here
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import PreconditionFailed, TooLarge, ValidationError
from .moduli import CallableModulus, INVOLUTION_GRID, Modulus, _submult_failure, _vectorized
from .quasisymmetry import check_qs
from .report import Report
from .spaces import RANK_TOL, PointMap, SemimetricSpace, _equal, _valid_tol, _worst

#: brute-force oracle guard
ORACLE_MAX_N = 9
#: bijections per array in the brute-force oracle
_ORACLE_BLOCK = 5040


def space_ranks(space: SemimetricSpace, tol: float = RANK_TOL):
    """Bucketed spectrum of a space.

    Returns (reps, rank_matrix): strictly increasing representative values
    (reps[0] = 0) and the integer rank of every matrix entry.  Buckets
    grow greedily from below: a sorted value starts a new bucket when it
    exceeds the current bucket's first value, its representative, by more
    than tol relative.  One sort of the upper triangle ranks every entry,
    which relies on the bit-symmetric dist and exact zero diagonal that
    every space constructor stores.
    """
    _valid_tol(tol)
    D = np.asarray(space.dist)
    upper = ~np.tri(len(D), dtype=bool)
    off, inverse = np.unique(D[upper], return_inverse=True)
    vals = np.concatenate(([0.0], off))
    # a value more than tol above its predecessor clears any bucket's
    # representative as well, so it starts a bucket; only values nearer
    # their predecessor need the greedy walk
    start = np.empty(len(vals), dtype=bool)
    start[0] = True
    start[1:] = vals[1:] - vals[:-1] > tol * vals[1:]
    last = np.maximum.accumulate(np.where(start, np.arange(len(vals)), 0))
    walked = 0
    for i in np.flatnonzero(~start).tolist():
        if vals[i] - vals[max(last[i], walked)] > tol * vals[i]:
            start[i] = True
            walked = i
    ranks = np.zeros(D.shape, dtype=np.intp)
    ranks[upper] = (np.cumsum(start) - 1)[1:][inverse]
    return vals[start], ranks + ranks.T


@dataclass(frozen=True, eq=False)
class ScalingFunction:
    """An order isomorphism between two spectra, as paired value lists."""

    domain_values: np.ndarray
    codomain_values: np.ndarray

    def __post_init__(self):
        dv = np.asarray(self.domain_values, dtype=float)
        cv = np.asarray(self.codomain_values, dtype=float)
        if dv.shape != cv.shape or dv.ndim != 1:
            raise ValueError("scaling function needs matching 1-d value lists")
        if np.any(np.diff(dv) <= 0) or np.any(np.diff(cv) <= 0):
            raise ValueError("scaling function values must be strictly increasing")
        object.__setattr__(self, "domain_values", dv)
        object.__setattr__(self, "codomain_values", cv)

    def __call__(self, value: float, tol: float = RANK_TOL) -> float:
        _valid_tol(tol)
        dv = self.domain_values
        i = int(np.searchsorted(dv, value))
        for k in (i - 1, i):
            if 0 <= k < len(dv) and abs(value - dv[k]) <= tol * abs(dv[k]):
                return float(self.codomain_values[k])
        raise ValueError(f"{value!r} is not in the domain spectrum")

    def pairs(self):
        return list(zip(self.domain_values.tolist(), self.codomain_values.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, ScalingFunction)
            and np.array_equal(self.domain_values, other.domain_values)
            and np.array_equal(self.codomain_values, other.codomain_values)
        )


@dataclass(frozen=True)
class WeakSimilarity:
    """A realization: the bijection and the spectrum isomorphism."""

    f: PointMap
    phi: ScalingFunction


def _edge_multiplicities(ranks: np.ndarray, nranks: int) -> np.ndarray:
    counts = np.bincount(ranks.ravel(), minlength=nranks)
    counts[0] -= len(ranks)  # the diagonal
    return counts // 2


def forced_scaling(
    X: SemimetricSpace, Y: SemimetricSpace, tol: float = RANK_TOL
) -> Optional[ScalingFunction]:
    """The only candidate spectrum isomorphism, or None.

    phi must send the i-th smallest domain value to the i-th smallest
    codomain value, so equal spectrum sizes force it uniquely; unequal
    sizes, point counts, or per-rank edge multiplicities rule it out.
    """
    if X.n != Y.n:
        return None
    return _forced_scaling(space_ranks(X, tol), space_ranks(Y, tol))


def _forced_scaling(ranksX, ranksY) -> Optional[ScalingFunction]:
    """:func:`forced_scaling` on the two spaces' :func:`space_ranks`."""
    (repX, rkX), (repY, rkY) = ranksX, ranksY
    if len(repX) != len(repY):
        return None
    if not np.array_equal(
        _edge_multiplicities(rkX, len(repX)), _edge_multiplicities(rkY, len(repY))
    ):
        return None
    return ScalingFunction(repX, repY)


def verify_weak_similarity(ws: WeakSimilarity, tol: float = RANK_TOL) -> bool:
    """Independent validity check of a realization: every pair's distance
    rank must be preserved and phi must match the bucketed spectra, each
    value within tol relative to its representative."""
    X, Y = ws.f.domain, ws.f.codomain
    repX, rkX = space_ranks(X, tol)
    repY, rkY = space_ranks(Y, tol)
    if len(repX) != len(ws.phi.domain_values) or len(repY) != len(
        ws.phi.codomain_values
    ):
        return False
    if np.any(np.abs(repX - ws.phi.domain_values) > tol * repX):
        return False
    if np.any(np.abs(repY - ws.phi.codomain_values) > tol * repY):
        return False
    sigma = np.asarray(ws.f.assignment, dtype=int)
    return bool(np.array_equal(rkY[np.ix_(sigma, sigma)], rkX))


def _refine(rk: np.ndarray, colors: np.ndarray) -> Optional[np.ndarray]:
    """Joint colour refinement (1-WL) of X and Y, stacked as one 2n-row
    rank matrix ``rk`` (X's rows, then Y's) with one colour per row.

    A row's new colour is its old colour plus the sorted keys
    rank(v, u) * k + colour(u) over its own space's points u, numbered by
    one ``np.unique`` over both spaces, so a colour id means the same in
    X and Y.  Returns the stable colouring, or None as soon as the two
    spaces' colour classes differ in size.
    """
    n = len(colors) // 2
    ncolors = int(colors.max()) + 1
    while True:
        keys = rk * ncolors
        keys[:n] += colors[None, :n]
        keys[n:] += colors[None, n:]
        keys.sort(axis=1)
        sig = np.concatenate([colors[:, None], keys], axis=1)
        # one 1-d unique over whole rows as raw bytes: the same classes as
        # np.unique(axis=0), numbered in a different but fixed order, at a
        # small fraction of its cost
        rows = sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1])))
        _, colors = np.unique(rows.ravel(), return_inverse=True)
        refined = int(colors.max()) + 1
        if not np.array_equal(
            np.bincount(colors[:n], minlength=refined),
            np.bincount(colors[n:], minlength=refined),
        ):
            return None
        if refined == ncolors:
            return colors
        ncolors = refined


def _target_cell(colors: np.ndarray):
    """The X vertex to individualize and its Y candidates: the lowest-index
    X vertex of the first smallest non-singleton class, against that
    class's Y vertices in ascending index.  None when the colouring is
    discrete."""
    n = len(colors) // 2
    counts = np.bincount(colors[:n])
    if counts.max() == 1:
        return None
    c = int(np.argmin(np.where(counts > 1, counts, n + 1)))
    v = int(np.argmax(colors[:n] == c))
    return v, np.flatnonzero(colors[n:] == c).tolist()


def find_weak_similarity(
    X: SemimetricSpace, Y: SemimetricSpace, tol: float = RANK_TOL
) -> Optional[WeakSimilarity]:
    """Search for a rank-preserving bijection by individualization and
    refinement (McKay & Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 60, 2014).

    Both spaces, as rank-coloured complete graphs, are colour-refined
    jointly until the colouring is stable; a branch dies as soon as the
    two spaces' colour-class sizes differ.  While a class has more than
    one point, the lowest-index X point of the first smallest such class
    is paired, under a fresh colour, with each Y point of that class in
    turn, and both are refined again (an explicit stack, not recursion).
    A discrete colouring reads off the bijection, which is checked rank
    for rank before it is returned.  Exhaustive, hence sound and complete;
    where the spaces have non-trivial automorphisms, which of the valid
    bijections comes back is a matter of the search order.
    """
    if X.n != Y.n:
        return None
    ranksX, ranksY = space_ranks(X, tol), space_ranks(Y, tol)
    phi = _forced_scaling(ranksX, ranksY)
    if phi is None:
        return None
    n = X.n
    rkX, rkY = ranksX[1], ranksY[1]
    rk = np.concatenate([rkX, rkY])
    colors = _refine(rk, np.zeros(2 * n, dtype=np.intp))
    stack = []  # per open node: its colouring, X vertex, Y candidates left
    while True:
        if colors is not None:
            cell = _target_cell(colors)
            if cell is None:
                place = np.empty(n, dtype=np.intp)
                place[colors[n:]] = np.arange(n)
                sigma = place[colors[:n]]
                if np.array_equal(rkY[np.ix_(sigma, sigma)], rkX):
                    f = PointMap(X, Y, tuple(int(y) for y in sigma), bijective=True)
                    return WeakSimilarity(f, phi)
            else:
                stack.append((colors, cell[0], iter(cell[1])))
        # the next candidate of the deepest node that has one left
        while stack:
            parent, v, candidates = stack[-1]
            w = next(candidates, None)
            if w is not None:
                break
            stack.pop()
        else:
            return None
        colors = parent.copy()
        colors[v] = colors[n + w] = parent.max() + 1
        colors = _refine(rk, colors)


def brute_force_weak_similarity(
    X: SemimetricSpace, Y: SemimetricSpace, tol: float = RANK_TOL
) -> Optional[WeakSimilarity]:
    """Factorial-time oracle: try every bijection in lexicographic order.

    Guarded by :class:`TooLarge` above n = 9; compares ``_ORACLE_BLOCK``
    bijections per array.
    """
    if X.n > ORACLE_MAX_N or Y.n > ORACLE_MAX_N:
        raise TooLarge(f"brute force is capped at n = {ORACLE_MAX_N}")
    phi = forced_scaling(X, Y, tol)
    if phi is None:
        return None
    _, rkX = space_ranks(X, tol)
    _, rkY = space_ranks(Y, tol)
    perms = permutations(range(X.n))
    while block := list(islice(perms, _ORACLE_BLOCK)):
        P = np.array(block, dtype=np.intp)
        hit = np.flatnonzero((rkY[P[:, :, None], P[:, None, :]] == rkX).all(axis=(1, 2)))
        if hit.size:
            f = PointMap(X, Y, block[hit[0]], bijective=True)
            return WeakSimilarity(f, phi)
    return None


class PairsWitness(NamedTuple):
    """Two point pairs with their domain and image distances."""

    pair1: tuple
    pair2: tuple
    d1: float
    d2: float
    rho1: float
    rho2: float


@dataclass(frozen=True)
class MonotoneImplicationsReport(Report):
    """The pairwise implications d < d' => rho < rho' and d = d' => rho = rho'.

    A bijection satisfies both exactly when it is a weak similarity, so a
    passing report doubles as a certificate.  The witness is a
    :class:`PairsWitness` ((i, j), (k, l), d_ij, d_kl, rho_ij, rho_kl).
    """

    holds: bool
    equality_holds: bool
    order_holds: bool
    witness: Optional[tuple]
    checked_pairs: int
    tol: float


def check_monotone_implications(
    f: PointMap, tol: float = RANK_TOL
) -> MonotoneImplicationsReport:
    """Scan all pairs-of-pairs through their rank structure.

    Equivalent formulation used here: the map from domain distance rank
    to image distance rank must be single-valued (equality implication)
    and strictly increasing (order implication).
    """
    if not f.is_bijection():
        raise ValidationError("monotone implications are certified for bijections only")
    X = f.domain
    D = np.asarray(X.dist)
    R = f.image_matrix()
    _, rkX = space_ranks(X, tol)
    repR, rkR_all = space_ranks(f.codomain, tol)
    sigma = np.asarray(f.assignment, dtype=int)
    rkR = rkR_all[np.ix_(sigma, sigma)]

    i, j = np.triu_indices(X.n, k=1)
    rr = rkR[i, j]
    # first[r]: the first pair of the r-th domain rank in scan order
    _, first, rank = np.unique(rkX[i, j], return_index=True, return_inverse=True)
    mismatch = rr != rr[first][rank]
    drop = np.diff(rr[first]) <= 0
    eq_ok = not mismatch.any()
    order_ok = not (eq_ok and drop.any())  # tested only once equality holds
    witness = None
    if not eq_ok:  # the first pair whose image rank differs from its rank's first
        b = int(np.argmax(mismatch))
        a = first[rank[b]]
    elif not order_ok:  # consecutive domain ranks whose first image ranks drop
        p = int(np.argmax(drop))
        a, b = first[p], first[p + 1]
    if not (eq_ok and order_ok):
        (x, y), (z, t) = (int(i[a]), int(j[a])), (int(i[b]), int(j[b]))
        witness = PairsWitness((x, y), (z, t), float(D[x, y]), float(D[z, t]),
                               float(R[x, y]), float(R[z, t]))

    return MonotoneImplicationsReport(
        eq_ok and order_ok, eq_ok, order_ok, witness, len(i), tol
    )


@dataclass(frozen=True)
class InvolutionReport(Report):
    """Grid certification of eta(k) eta(1/k) = 1."""

    holds: bool
    max_defect: float
    worst_k: float
    points: int
    certification: str
    tol: float


def check_involution_identity(
    eta: Modulus, grid: Optional[np.ndarray] = None, tol: float = 1e-9
) -> InvolutionReport:
    """Probe eta(k) eta(1/k) = 1 within tol, the equality rule of
    :func:`spaces._valid_tol`, on a reciprocal-symmetric grid.
    ``max_defect`` is the largest |eta(k) eta(1/k) - 1| among the failing
    points, or among all points when none fails, and ``worst_k`` its k.

    Products run through the log path so that over/underflowing factors
    cancel instead of producing inf * 0.
    """
    _valid_tol(tol)
    ks = INVOLUTION_GRID if grid is None else np.asarray(grid, dtype=float)
    with np.errstate(over="ignore"):
        prod = np.exp(
            np.asarray(eta.log_eval(ks), dtype=float)
            + np.asarray(eta.log_eval(1.0 / ks), dtype=float)
        )
    defect, ok = np.abs(prod - 1.0), _equal(1.0, prod, tol)
    i = _worst(defect, ok)
    return InvolutionReport(bool(ok.all()), float(defect[i]), float(ks[i]), len(ks), "grid", tol)


def qs_from_weaksim(
    ws: WeakSimilarity, phistar: Callable, tol: float = 1e-9
) -> Modulus:
    """Turn a weak similarity into a quasisymmetry modulus.

    ``phistar`` must continue ws.phi off the spectrum: it has to match the
    paired values within 1e-12, be a valid modulus, and be
    submultiplicative, phistar(uv) <= phistar(u)phistar(v), on the probe
    grid (:class:`ValidationError` otherwise).  The returned modulus must
    verify ws.f (:class:`PreconditionFailed` otherwise).
    """
    p = _vectorized(phistar)
    dv = ws.phi.domain_values
    cv = ws.phi.codomain_values
    got = np.asarray(p(dv), dtype=float)
    gap = np.abs(got - cv)
    bad = gap > 1e-12 * np.maximum(np.abs(got), np.abs(cv))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValidationError(
            f"phistar({dv[i]:.6g}) = {got[i]:.6g}, but the realization needs "
            f"{cv[i]:.6g}"
        )
    if failure := _submult_failure(p):
        u, v, lhs, rhs = failure
        raise ValidationError(
            f"phistar({u * v:.6g}) = {lhs:.6g} > {rhs:.6g} = phistar({u:.6g})"
            f" * phistar({v:.6g})"
        )
    eta = CallableModulus(p, label="phistar")
    rep = check_qs(ws.f, eta, tol=tol)
    if not rep.holds:
        raise PreconditionFailed(
            f"continuation does not verify the realization (witness "
            f"{rep.witness_labels}, t = {rep.t:.6g})"
        )
    return eta
