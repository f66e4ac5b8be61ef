"""Quasisymmetry checks for concrete maps between finite spaces.

For a map f, every ordered triple (x, a, b) with a != x != b realizes a
ratio t = d(x,a) / d(x,b) and an image ratio r = rho(fx,fa) / rho(fx,fb).
``_rows`` walks them in blocks of whole base-point rows, about
``_ROW_BLOCK`` ratios (at least one row) each, so every scan over them runs
in O(n**2) memory and evaluates a modulus once per block.

:func:`check_qs` decides the defining implication triple by triple: an
increasing eta verifies f exactly when r <= eta(t) within tol for every
realized pair, and the first failing envelope knot is the smallest flagged
t.  :func:`eta_ratio_report` streams the same rows.  The empirical
envelope, the running maximum H of r over ratios <= t with its witnesses
(:func:`empirical_modulus`), has one knot per distinct realized ratio.  It
is built by one global sort, which holds all n (n-1)**2 ratios at once, so
it is built only where it is the output (the envelope dump,
:class:`EmpiricalModulus`).

On top of these sit the derived analyses: snowflake fitting,
sandwich-built moduli, bi-Lipschitz constants, and the two-sided diameter
distortion bounds.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional
from weakref import WeakKeyDictionary

import numpy as np

from .errors import (
    NotQuasisymmetric,
    SandwichOrderViolated,
    SubmultiplicativityViolated,
    UnboundedEnvelope,
)
from .moduli import (
    BiLipschitzModulus,
    EmpiricalModulus,
    LinearModulus,
    Modulus,
    MONOTONE_GRID,
    SUBMULT_AXIS,
    SandwichModulus,
    _vectorized,
)
from .report import Report
from .spaces import DEFAULT_TOL, PointMap, SubsetRef, _valid_tol, diameter
from .triangle import TriangleFunction, invert_diag

#: pinned tolerances of the ratio-identity report
RATIO_PRODUCT_TOL = 1e-9
ETA_ONE_TOL = 1e-12
#: realized ratios per block of base-point rows; from n = 66 on a block is one row
_ROW_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class EmpiricalEnvelope:
    """The step envelope of a map: knots ``ts`` (strictly increasing
    realized ratios), values ``hs`` (nondecreasing running maxima), and for
    every knot the (x, a, b) triple whose image ratio set the value."""

    ts: np.ndarray
    hs: np.ndarray
    witnesses: np.ndarray
    map: PointMap

    def __len__(self):
        return len(self.ts)

    def eval(self, t):
        return self.as_modulus().eval(t)

    def as_modulus(self) -> EmpiricalModulus:
        return EmpiricalModulus(self.ts, self.hs)

    def witness_labels(self, i: int):
        x, a, b = self.witnesses[i]
        lab = self.map.domain.labels
        return (lab[x], lab[a], lab[b])


def _rows(f: PointMap):
    """The base points x of the realized ratios, in blocks of whole rows.

    Yields ``(xs, others, d, rho)`` for as many consecutive base points xs
    as fit in about ``_ROW_BLOCK`` ratios, at least one.  Row i holds the
    points other than xs[i], their distances d(xs[i], .) and their image
    distances rho(f xs[i], f.).  The ratios of a block are ``_ratios(d)``
    and ``_ratios(rho)``, in (x, a, b) order: position k is the triple
    (xs[i], others[i, j // m], others[i, j % m]) with i, j = divmod(k, m**2)
    and m = n - 1.  A constant map (every ratio 0/0) yields nothing; as rho
    is symmetric, any other map with a collapsed image row is unbounded.

    Raises :class:`UnboundedEnvelope`, before the first block, when some
    denominator pair collapses while a numerator does not.
    """
    R = f.image_matrix()
    n = f.domain.n
    off = ~np.eye(n, dtype=bool)
    zero = (R == 0.0) & off
    pos = (R > 0.0) & off
    unbounded = zero.any(axis=1) & pos.any(axis=1)
    if np.any(unbounded):
        x = int(np.argmax(unbounded))
        b = int(np.argmax(zero[x]))
        a = int(np.argmax(pos[x]))
        lab = f.domain.labels
        raise UnboundedEnvelope(
            f"rho(f{lab[x]}, f{lab[b]}) = 0 but "
            f"rho(f{lab[x]}, f{lab[a]}) > 0: "
            "no finite control function exists",
            witness=(x, a, b),
        )
    if not pos.any():
        return
    # row x of each: its n - 1 entries off the diagonal
    xs = np.arange(n)
    others = np.broadcast_to(xs, (n, n))[off].reshape(n, n - 1)
    D = np.asarray(f.domain.dist)[off].reshape(n, n - 1)
    R = R[off].reshape(n, n - 1)
    step = max(1, _ROW_BLOCK // (n - 1) ** 2)
    for i in range(0, n, step):
        yield xs[i:i + step], others[i:i + step], D[i:i + step], R[i:i + step]


def _ratios(v: np.ndarray) -> np.ndarray:
    """The raveled blocks v[i, a] / v[i, b] over all rows i and pairs (a, b)."""
    return (v[:, :, None] / v[:, None, :]).ravel()


def _realized(f: PointMap):
    """All realized (t, r) pairs with their (x, a, b) triples, in (x, a, b)
    order (see :func:`_rows`)."""
    ts, rs, triples = [], [], []
    for xs, others, d, rho in _rows(f):
        m = others.shape[1]
        ts.append(_ratios(d))
        rs.append(_ratios(rho))
        triples.append(np.stack([np.repeat(xs, m * m), np.repeat(others, m, axis=1).ravel(),
                                 np.tile(others, m).ravel()], axis=1))
    if not ts:
        empty = np.array([])
        return empty, empty, np.zeros((0, 3), dtype=int)
    return np.concatenate(ts), np.concatenate(rs), np.concatenate(triples)


def empirical_modulus(f: PointMap) -> EmpiricalEnvelope:
    """Compute the cumulative-max envelope of a map's realized ratios.

    The knots are the distinct realized ratios; only exact ties share one.
    Sorts all n (n-1)**2 realized ratios at once.
    """
    ts, rs, triples = _realized(f)
    if len(ts) == 0:
        return EmpiricalEnvelope(ts, rs, triples, f)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    rs = rs[order]
    triples = triples[order]

    runmax = np.maximum.accumulate(rs)
    pos = np.arange(len(rs))
    carry = np.maximum.accumulate(np.where(rs >= runmax, pos, -1))

    is_last = np.empty(len(ts), dtype=bool)
    is_last[-1] = True
    is_last[:-1] = ts[1:] > ts[:-1]
    keep = np.nonzero(is_last)[0]

    env_t = ts[keep].copy()
    env_h = runmax[keep].copy()
    env_w = triples[carry[keep]].copy()
    env_t.setflags(write=False)
    env_h.setflags(write=False)
    env_w.setflags(write=False)
    return EmpiricalEnvelope(env_t, env_h, env_w, f)


@dataclass(frozen=True)
class QsReport(Report):
    """Verdict of a quasisymmetry check against a concrete modulus."""

    holds: bool
    witness: Optional[tuple]
    witness_labels: Optional[tuple]
    t: Optional[float]
    image_ratio: Optional[float]
    eta_at_t: Optional[float]
    modulus: str
    tol: float
    checked: int


_VERDICTS = WeakKeyDictionary()  # check_qs: map -> modulus -> tol -> report


def check_qs(f: PointMap, eta: Modulus, tol: float = DEFAULT_TOL) -> QsReport:
    """Does eta verify f?  Holds iff eta(t) >= (1 - tol) r at every realized
    pair (t, r) of :func:`_rows`, the rule of :func:`spaces._valid_tol`;
    ``checked`` counts the pairs scanned.

    For an increasing eta that is the envelope test eta(t_i) >= (1 - tol)
    H(t_i) at every knot, and the first failing knot is the smallest
    flagged ratio lo: no smaller ratio is flagged, so none lifts H above
    eta there.  Its value H is the largest flagged r at lo, and its witness
    the last triple in (x, a, b) order that realizes H at lo, as the
    envelope's stable sort carries it.  One scan of the rows settles the
    verdict; past the first violation it evaluates eta only where t <= lo.
    The witness is ranked by t and r, not by scan position, so this scan
    keeps its own rule instead of the first-in-order ``triangle._Scan``.

    The report is kept per map object, modulus object and tol while both
    live, and the derived analyses reuse it.  Only identity-hashed moduli
    are kept.  Maps and moduli are values: do not mutate one after a check.
    """
    _valid_tol(tol)
    by_tol = {}
    if type(f).__hash__ is type(eta).__hash__ is object.__hash__:
        with suppress(TypeError):  # not weakly referenceable
            by_tol = _VERDICTS.setdefault(f, WeakKeyDictionary()).setdefault(eta, by_tol)
    key = (type(tol), repr(tol))  # the report shows 0, 0.0 and -0.0 apart
    if key not in by_tol:
        by_tol[key] = _scan_qs(f, eta, tol)
    return by_tol[key]


def _scan_qs(f: PointMap, eta: Modulus, tol: float) -> QsReport:
    checked = 0
    lo = np.inf
    worst = None  # (r, eta(lo), x, a, b) of the kept violation at t = lo
    for xs, others, d, rho in _rows(f):
        t = _ratios(d)
        r = _ratios(rho)
        checked += len(t)
        pos = None
        if worst is not None:  # only a ratio t <= lo can displace the kept violation
            pos = np.nonzero(t <= lo)[0]
            if not pos.size:
                continue
            t, r = t[pos], r[pos]
        vals = np.asarray(eta.eval(t), dtype=float)
        bad = np.nonzero(~(vals >= (1.0 - tol) * r))[0]  # a NaN eta(t) violates
        if len(bad) == 0:
            continue
        t_bad = t[bad]
        t_min = t_bad.min()
        at = bad[t_bad == t_min]
        k = at[np.nonzero(r[at] == r[at].max())[0][-1]]
        if worst is None or t_min < lo or r[k] >= worst[0]:
            j = k if pos is None else pos[k]
            i, a, b = np.unravel_index(j, d.shape + d.shape[1:])  # (row, a, b)
            lo = t_min
            worst = (r[k], vals[k], int(xs[i]), int(others[i, a]), int(others[i, b]))
    if worst is None:
        return QsReport(True, None, None, None, None, None, eta.describe(), tol, checked)
    h, v, x, a, b = worst
    lab = f.domain.labels
    return QsReport(False, (x, a, b), (lab[x], lab[a], lab[b]), float(lo), float(h), float(v),
                    eta.describe(), tol, checked)


@dataclass(frozen=True)
class RatioIdentityReport(Report):
    """Realized check of eta(t) eta(1/t) >= 1 and eta(1) >= 1."""

    holds: bool
    min_product: float
    at_t: float
    eta_one: float
    product_ok: bool
    eta_one_ok: bool
    checked: int


def eta_ratio_report(f: PointMap, eta: Modulus) -> RatioIdentityReport:
    """Evaluate the reciprocal-ratio identity on the map's realized ratios.

    Every realized ratio t comes with its reciprocal (swap a and b), so any
    modulus that verifies f must satisfy eta(t) eta(1/t) >= 1 there, and
    eta(1) >= 1.  The blocks of :func:`_rows` are streamed: ``min_product``
    is the smallest product (a NaN first) and ``at_t`` the smallest ratio
    attaining it, the envelope knot where the minimum over knots lands.
    Ties go to the smallest t, not the first position, so the first
    minimum of ``triangle._Scan`` does not fit.  ``checked`` counts the
    ratios scanned.  Pure report; tolerances are ``RATIO_PRODUCT_TOL`` and
    ``ETA_ONE_TOL``.
    """
    checked = 0
    best = None  # (product with NaN as -inf, t, product) of the minimum
    for _, _, d, _ in _rows(f):
        t = _ratios(d)
        checked += len(t)
        prod = _ratio_products(eta, t)
        key = np.where(np.isnan(prod), -np.inf, prod)
        tie = np.nonzero(key == key.min())[0]
        j = tie[np.argmin(t[tie])]
        if best is None or (key[j], t[j]) < best[:2]:
            best = (key[j], t[j], prod[j])
    eta_one = float(np.asarray(eta.eval(1.0)))
    eta_one_ok = bool(eta_one >= 1.0 - ETA_ONE_TOL)
    if best is None:
        return RatioIdentityReport(eta_one_ok, np.inf, 1.0, eta_one, True, eta_one_ok, 0)
    _, at_t, low = best
    product_ok = bool(low >= 1.0 - RATIO_PRODUCT_TOL)
    return RatioIdentityReport(
        product_ok and eta_one_ok,
        float(low),
        float(at_t),
        eta_one,
        product_ok,
        eta_one_ok,
        checked,
    )


def _ratio_products(eta: Modulus, ts: np.ndarray) -> np.ndarray:
    """eta(t) eta(1/t), from ``log_eval`` where the direct product is not finite."""
    direct = np.asarray(eta.eval(ts), dtype=float) * np.asarray(
        eta.eval(1.0 / ts), dtype=float
    )
    finite = np.isfinite(direct)
    if np.all(finite):
        return direct
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        stable = np.exp(
            np.asarray(eta.log_eval(ts), dtype=float)
            + np.asarray(eta.log_eval(1.0 / ts), dtype=float)
        )
    return np.where(finite, direct, stable)


@dataclass(frozen=True)
class SnowflakeFit(Report):
    """An exact fit rho = scale * d**exponent across all pairs."""

    scale: float
    exponent: float
    similarity: bool


def fit_snowflake(f: PointMap, tol: float = DEFAULT_TOL) -> Optional[SnowflakeFit]:
    """Fit rho = scale * d**exponent exactly, or return None.

    The two smallest distinct domain distances give scale and exponent in
    closed form; every pair is then verified within relative ``tol``.
    An exponent of (numerically) 1 is flagged as a similarity.
    """
    _valid_tol(tol)
    n = f.domain.n
    if n < 2:
        return None
    iu = np.triu_indices(n, k=1)
    d = np.asarray(f.domain.dist)[iu]
    r = f.image_matrix()[iu]
    if np.any(r <= 0):
        return None
    order = np.argsort(d, kind="stable")
    d, r = d[order], r[order]
    distinct = np.nonzero(np.diff(d) > 0)[0]
    if len(distinct) == 0:
        alpha = 1.0
        lam = float(r[0] / d[0])
    else:
        k = distinct[0] + 1
        d1, r1 = d[0], r[0]
        d2, r2 = d[k], r[k]
        alpha = float(np.log(r2 / r1) / np.log(d2 / d1))
        if not np.isfinite(alpha) or alpha <= 0:
            return None
        lam = float(np.exp(np.log(r1) - alpha * np.log(d1)))
    model = lam * d ** alpha
    if np.any(np.abs(r - model) > tol * np.maximum(r, model)):
        return None
    return SnowflakeFit(lam, alpha, abs(alpha - 1.0) <= 1e-12)


def eta_from_sandwich(
    phi1: Callable, phi2: Callable, C: float, K: float, label: str = "phi1"
) -> SandwichModulus:
    """Build eta(t) = C K**2 phi1(t) after probing the sandwich hypotheses.

    Checks, on fixed probe grids: phi1 <= phi2 <= K phi1
    (:class:`SandwichOrderViolated`) and phi2(u v) <= C phi2(u) phi2(v)
    (:class:`SubmultiplicativityViolated`).  phi1 must itself be a
    homeomorphism of the half line; that is validated by the modulus
    constructor.
    """
    if C <= 0:
        raise ValueError("sandwich constant C must be positive")
    if K < 1:
        raise ValueError("sandwich constant K must be >= 1")
    p1 = _vectorized(phi1)
    p2 = _vectorized(phi2)

    g = MONOTONE_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = np.asarray(p1(g), dtype=float)
        v2 = np.asarray(p2(g), dtype=float)
        # points where both sides overflow compare as inf < inf, which
        # asserts nothing
        low_bad = v2 < (1.0 - 1e-9) * v1
        high_bad = (1.0 - 1e-9) * v2 > K * v1
    if np.any(low_bad) or np.any(high_bad):
        k = int(np.argmax(low_bad | high_bad))
        raise SandwichOrderViolated(
            f"phi1 <= phi2 <= K phi1 fails at t = {g[k]:.6g}: "
            f"phi1 = {v1[k]:.6g}, phi2 = {v2[k]:.6g}, K = {K:g}"
        )

    u = SUBMULT_AXIS[:, None]
    v = SUBMULT_AXIS[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.asarray(p2(u * v), dtype=float)
        rhs = C * np.asarray(p2(u), dtype=float) * np.asarray(p2(v), dtype=float)
        bad = (1.0 - 1e-9) * lhs > rhs
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SubmultiplicativityViolated(
            f"phi2(uv) <= C phi2(u) phi2(v) fails at u = {SUBMULT_AXIS[i]:.6g}, "
            f"v = {SUBMULT_AXIS[j]:.6g}: lhs = {lhs[i, j]:.6g}, rhs = {rhs[i, j]:.6g}"
        )
    return SandwichModulus(C, K, p1, label=label)


def minimal_bilipschitz_L(f: PointMap) -> Optional[float]:
    """The smallest L with d/L <= rho <= L d on all pairs, or None when a
    distinct pair has image distance 0."""
    n = f.domain.n
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    d = np.asarray(f.domain.dist)[iu]
    r = f.image_matrix()[iu]
    if np.any(r == 0):
        return None
    return float(np.max(np.maximum(r / d, d / r)))


def image_subset(f: PointMap, A: SubsetRef) -> SubsetRef:
    """The image point set f(A) as a subset of the codomain."""
    idx = sorted(set(int(f.assignment[i]) for i in A.indices))
    return SubsetRef(f.codomain, tuple(idx))


@dataclass(frozen=True)
class ClassicalBoundsReport(Report):
    """The two-sided diameter bound with scaled-additive coefficients."""

    K1: float
    K2: float
    lower: float
    ratio: float
    upper: float
    holds: bool


@dataclass(frozen=True)
class DiameterBoundsReport(Report):
    """Distortion of the diameter ratio of nested subsets A within B.

    ``upper_*`` is   diam f(A)/diam f(B) <= eta(diam A / phi1inv(diam B)),
    ``lower_*`` is   1/eta(diam B/diam A) <= diam f(A) / phi2inv(diam f(B)).
    ``classical`` is filled when both gauges admit a scaled-additive
    coefficient (K for b-metric gauges, 1/2 for the max gauge).
    """

    diam_a: float
    diam_b: float
    diam_fa: float
    diam_fb: float
    upper_lhs: float
    upper_rhs: float
    upper_slack: float
    upper_holds: bool
    lower_lhs: float
    lower_rhs: float
    lower_slack: float
    lower_holds: bool
    classical: Optional[ClassicalBoundsReport]
    holds: bool
    tol: float


def _require_qs(f: PointMap, eta: Modulus, tol: float):
    rep = check_qs(f, eta, tol=tol)
    if not rep.holds:
        raise NotQuasisymmetric(
            f"map does not verify against {eta.describe()}: at t = {rep.t:.6g} the "
            f"image ratio {rep.image_ratio:.6g} exceeds eta(t) = {rep.eta_at_t:.6g} "
            f"(witness {rep.witness_labels})"
        )


def tv_bounds(
    f: PointMap,
    eta: Modulus,
    A: SubsetRef,
    B: SubsetRef,
    phi1: TriangleFunction,
    phi2: TriangleFunction,
    tol: float = DEFAULT_TOL,
) -> DiameterBoundsReport:
    """Two-sided distortion bounds for nested subsets A within B.

    Requires A, B on the domain of f with A a subset of B and diam A > 0,
    f verifying against eta (:class:`NotQuasisymmetric` otherwise), and
    both gauge diagonals invertible (:class:`NotInvertible`).
    """
    if A.space is not f.domain or B.space is not f.domain:
        raise ValueError("subsets must reference the domain of the map")
    if not A.issubset(B):
        raise ValueError("A must be a subset of B")
    dA = diameter(A)
    dB = diameter(B)
    if dA <= 0:
        raise ValueError("diam A must be positive")
    _require_qs(f, eta, tol)

    fA = image_subset(f, A)
    fB = image_subset(f, B)
    dfA = diameter(fA)
    dfB = diameter(fB)
    if dfA <= 0 or dfB <= 0:
        raise ValueError("image subsets are degenerate (zero diameter)")

    upper_lhs = dfA / dfB
    upper_rhs = float(np.asarray(eta.eval(dA / invert_diag(phi1, dB))))
    lower_lhs = 1.0 / float(np.asarray(eta.eval(dB / dA)))
    lower_rhs = dfA / invert_diag(phi2, dfB)
    upper_slack = upper_rhs - upper_lhs
    lower_slack = lower_rhs - lower_lhs
    upper_holds = bool(upper_slack >= -tol * upper_lhs)
    lower_holds = bool(lower_slack >= -tol * lower_lhs)

    classical = None
    K1c = phi1.classical_coefficient
    K2c = phi2.classical_coefficient
    if K1c is not None and K2c is not None:
        low = 1.0 / (2.0 * K2c * float(np.asarray(eta.eval(dB / dA))))
        up = float(np.asarray(eta.eval(2.0 * K1c * dA / dB)))
        ratio = dfA / dfB
        classical = ClassicalBoundsReport(
            K1c, K2c, low, ratio, up,
            bool(ratio - low >= -tol * low and up - ratio >= -tol * ratio))

    holds = upper_holds and lower_holds and (classical is None or classical.holds)
    return DiameterBoundsReport(
        dA, dB, dfA, dfB,
        upper_lhs, upper_rhs, upper_slack, upper_holds,
        lower_lhs, lower_rhs, lower_slack, lower_holds,
        classical, holds, tol,
    )


@dataclass(frozen=True)
class PairBoundsReport(Report):
    """Per-pair distance bounds from the diameters of the whole space.  A
    worst slack is the first minimum of bound - rho (upper) or rho - bound
    (lower) over the pairs i < j, and its pair."""

    diam_x: float
    diam_fx: float
    worst_upper_slack: float
    worst_upper_pair: tuple
    worst_lower_slack: float
    worst_lower_pair: tuple
    derived_L: Optional[float]
    minimal_L: Optional[float]
    holds: bool
    tol: float


def bounded_image_bounds(
    f: PointMap,
    eta: Modulus,
    phi1: TriangleFunction,
    phi2: TriangleFunction,
    tol: float = DEFAULT_TOL,
) -> PairBoundsReport:
    """Sandwich every image distance between envelope-of-diameter bounds:

        phi2inv(diam fX) / eta(diam X / d(x,y))
            <= rho(fx, fy) <=
        diam fX * eta(d(x,y) / phi1inv(diam X)).

    When eta is linear (C t, or a bi-Lipschitz L**2 t) the report also
    carries the derived bi-Lipschitz constant
    2 C max(diam fX / diam X, diam X / diam fX).
    """
    n = f.domain.n
    if n < 2:
        raise ValueError("need at least two points")
    _require_qs(f, eta, tol)
    X = SubsetRef(f.domain, tuple(range(n)))
    dX = diameter(X)
    dfX = diameter(image_subset(f, X))
    if dX <= 0 or dfX <= 0:
        raise ValueError("degenerate diameters")

    p1inv = invert_diag(phi1, dX)
    p2inv = invert_diag(phi2, dfX)
    iu = np.triu_indices(n, k=1)
    d = np.asarray(f.domain.dist)[iu]
    rho = f.image_matrix()[iu]
    upper = dfX * np.asarray(eta.eval(d / p1inv), dtype=float)
    lower = p2inv / np.asarray(eta.eval(dX / d), dtype=float)

    up_slack = upper - rho
    low_slack = rho - lower
    iu_up = int(np.argmin(up_slack))
    iu_low = int(np.argmin(low_slack))
    pair_up = (int(iu[0][iu_up]), int(iu[1][iu_up]))
    pair_low = (int(iu[0][iu_low]), int(iu[1][iu_low]))

    derived_L = C = None
    if isinstance(eta, LinearModulus):
        C = eta.C
    elif isinstance(eta, BiLipschitzModulus):
        C = eta.L ** 2
    if C is not None:
        derived_L = 2.0 * C * max(dfX / dX, dX / dfX)

    holds = bool(np.all(up_slack >= -tol * rho) and np.all(low_slack >= -tol * lower))
    return PairBoundsReport(dX, dfX, float(up_slack[iu_up]), pair_up, float(low_slack[iu_low]),
                            pair_low, derived_L, minimal_bilipschitz_L(f), holds, tol)
