"""Quasisymmetry checks for concrete maps between finite spaces.

For a map f, every ordered triple (x, a, b) with a != x != b realizes a
ratio t = d(x,a) / d(x,b) and an image ratio r = rho(fx,fa) / rho(fx,fb).
``_rows`` walks them in blocks of whole base-point rows, about
``_ROW_BLOCK`` ratios (at least one row) each, so every scan over them runs
in O(n**2) memory and evaluates a modulus once per block.

:func:`check_qs` decides the defining implication triple by triple: an
increasing eta verifies f exactly when r <= eta(t) within tol for every
realized pair, and the first failing envelope knot is the smallest flagged
t.  For a power modulus C t**alpha it separates per base point, the
condition of Tukia and Vaisala, and the scan reads only the rows that
:func:`_power_rows` can neither certify nor rule out as the witness's.
There eta(t) eta(1/t) = C**2 at every ratio, so :func:`eta_ratio_report`
scans nothing; for any other modulus it streams the rows.  The empirical
envelope (:func:`empirical_modulus`), the running maximum H of r over
ratios <= t, is kept at its strict records, the ratios where H rises, each
with its witness; the step function they span equals H everywhere.  It is
built from the same rows, one block's records at a time.

On top of these sit the derived analyses: snowflake fitting,
bi-Lipschitz constants, and the two-sided diameter distortion bounds.
"""

from __future__ import annotations

import math
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Optional
from weakref import WeakKeyDictionary

import numpy as np

from .errors import PreconditionFailed, ValidationError
from .moduli import _POWER_FAMILY, EmpiricalModulus, Modulus
from .report import Report
from .spaces import _TINY, DEFAULT_TOL, PointMap, SubsetRef, _valid_tol, _wide, diameter
from .triangle import TriangleFunction

#: pinned tolerances of the ratio-identity report
RATIO_PRODUCT_TOL = 1e-9
ETA_ONE_TOL = 1e-12
#: realized ratios per block of base-point rows; from n = 66 on a block is one row
_ROW_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class EmpiricalEnvelope:
    """The step envelope of a map at its strict records: knots ``ts``
    (strictly increasing realized ratios), values ``hs`` (strictly
    increasing running maxima), and for every knot the (x, a, b) triple
    whose image ratio set the value.  ``as_modulus`` builds its step
    function once and returns that one object on every call."""

    ts: np.ndarray
    hs: np.ndarray
    witnesses: np.ndarray
    map: PointMap

    def __len__(self):
        return len(self.ts)

    def eval(self, t):
        return self.as_modulus().eval(t)

    def as_modulus(self) -> EmpiricalModulus:
        return self._modulus

    @cached_property
    def _modulus(self) -> EmpiricalModulus:
        return EmpiricalModulus(self.ts, self.hs)

    def witness_labels(self, i: int):
        x, a, b = self.witnesses[i]
        lab = self.map.domain.labels
        return (lab[x], lab[a], lab[b])


def _off_diagonal(f: PointMap):
    """(D, R): row x holds the distances from x to the other points, in
    index order, and R their image distances; None for a constant map."""
    R = f.image_matrix()
    if not R.any():
        return None
    n = f.domain.n
    off = ~np.eye(n, dtype=bool)
    return np.asarray(f.domain.dist)[off].reshape(n, n - 1), R[off].reshape(n, n - 1)


def _rows(f: PointMap):
    """The base points x of the realized ratios, in blocks of whole rows.

    Yields ``(start, d, rho)`` for as many consecutive base points as fit
    in about ``_ROW_BLOCK`` ratios, at least one: the rows of
    :func:`_off_diagonal`.  The ratios of a block are ``_ratios(d)`` and
    ``_ratios(rho)``, and position k among them is position start + k in
    the (x, a, b) order of all ratios, the triple :func:`_triples` names.
    A constant map (every ratio 0/0) yields nothing.  Image ratios are
    finite only when :func:`_collapse` finds no triple; a caller that reads
    them checks that first.  :func:`_kept` cuts them to the rows that
    :func:`_power_rows` picks.
    """
    DR = _off_diagonal(f)
    if DR is None:
        return
    D, R = DR
    n = len(D)
    step = max(1, _ROW_BLOCK // (n - 1) ** 2)
    for i in range(0, n, step):
        yield i * (n - 1) ** 2, D[i:i + step], R[i:i + step]


def _kept(blocks, read: list, width: int):
    """The blocks of :func:`_rows`, ``width`` ratios a row, cut to the run
    from their first to their last row x with ``read[x]``: a row between
    holds no flagged ratio at or below the witness's (:func:`_power_rows`)."""
    for start, d, rho in blocks:
        i = start // width
        k = [j for j in range(len(d)) if read[i + j]]
        if k:
            yield start + k[0] * width, d[k[0]:k[-1] + 1], rho[k[0]:k[-1] + 1]


def _collapse(f: PointMap) -> Optional[tuple]:
    """The first (x, a, b) with rho(fx, fb) = 0 < rho(fx, fa), or None.

    Its image ratio is infinite, so no modulus verifies f.  As rho is
    symmetric, a map has such a triple unless it is injective or constant.
    x is the first base point with both, b and a its first zero and
    positive image distances.
    """
    R = f.image_matrix()
    off = ~np.eye(f.domain.n, dtype=bool)
    zero = (R == 0.0) & off
    pos = (R > 0.0) & off
    both = zero.any(axis=1) & pos.any(axis=1)
    if not both.any():
        return None
    x = int(np.argmax(both))
    return x, int(np.argmax(pos[x])), int(np.argmax(zero[x]))


def _triples(n: int, pos) -> np.ndarray:
    """The (x, a, b) triples at positions pos of the (x, a, b) order of the
    n (n-1)**2 realized ratios: by x, then a != x, then b != x."""
    x, a, b = np.unravel_index(pos, (n, n - 1, n - 1))
    return np.stack([x, a + (a >= x), b + (b >= x)], axis=-1)


def _ratios(v: np.ndarray) -> np.ndarray:
    """The raveled blocks v[i, a] / v[i, b] over all rows i and pairs (a, b)."""
    return (v[:, :, None] / v[:, None, :]).ravel()


def _log_ratios(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log v[i, a] - log v[i, b] at positions k of ``_ratios(v)``."""
    i, a, b = np.unravel_index(k, (len(v), v.shape[1], v.shape[1]))
    return np.log(v[i, a]) - np.log(v[i, b])


def _off_range(f: PointMap, eta: Modulus, start: int, pos, *ratios) -> np.ndarray:
    """The indices at which some array of ``ratios`` reads 0 or inf or is
    subnormal.  The arrays hold the ratios at positions ``pos`` (all when
    None) of the block of :func:`_rows` that starts at ``start``.  Only the
    members of ``moduli._POWER_FAMILY`` are decided there, in logs; for any
    other modulus the first such index is a :class:`ValidationError` that
    names its triple."""
    normal = np.logical_and.reduce([(v >= _TINY) & (v < np.inf) for v in ratios])
    odd = np.flatnonzero(~normal)
    if odd.size and type(eta) not in _POWER_FAMILY:
        at = odd[0] if pos is None else pos[odd[0]]
        x, a, b = (f.domain.labels[i] for i in _triples(f.domain.n, start + at))
        raise ValidationError(
            f"the ratio d({x},{a})/d({x},{b}) or its image is not a normal float: "
            "only a power modulus (power:, linear:, bilip:) is compared there, in logs")
    return odd


def _power_rows(eta: Modulus, tol: float, D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Which rows of D, R (:func:`_off_diagonal`) the scan of eta = C t**alpha
    in ``moduli._POWER_FAMILY`` reads, one bool per base point.

    The test separates per base point (Tukia and Vaisala): with
    g(a) = log rho(fx,fa) - alpha log d(x,a), pair (a, b) of row x holds
    iff g(a) - g(b) <= B = log C - log(1 - tol).  ``band`` bounds the float
    error of t, t**alpha, C t**alpha, (1 - tol) r and the logs: floats flag
    no pair below B - band and every pair above B + band in a regular row,
    whose ratios, image ratios and eta(t) stay a unit of log inside the
    normal floats.  Other rows are read.  A regular row with max g - min g
    <= B - band is certified.  In the rest, a flagged t has log t at least
    the row's bound min_a [log d(x,a) - max{log d(x,b) : g(b) <= g(a) - c}]
    at c = B - band.  The least bound at c = B + band is the log t of a
    flagged pair, so a row whose bound exceeds it by more than band cannot
    hold the least flagged t, the witness's, and is not read.
    """
    alpha, log_C = eta.alpha, float(eta.log_C)
    lost = -math.log1p(-tol) if tol < 1.0 else math.inf  # -log(1 - tol)
    B = log_C + lost
    ld, lr = np.log(D), np.log(R)
    g = lr - alpha * ld
    band = 64 * 2.0 ** -52 * (np.abs(lr).max() + (1 + alpha) * np.abs(ld).max() + abs(log_C)
                              + (lost if tol < 1.0 else 0.0) + alpha + 1)
    spread = ld.max(axis=1) - ld.min(axis=1)  # log of the row's largest t
    edge = -math.log(_TINY) - 1.0
    regular = (spread < edge) & (lr.max(axis=1) - lr.min(axis=1) < edge) & \
        (abs(log_C) + alpha * spread < edge)
    read = ~regular | (g.max(axis=1) - g.min(axis=1) > B - band)
    left = np.flatnonzero(read & regular)
    if left.size:
        order = np.argsort(g[left], axis=1)
        g, ld = np.take_along_axis(g[left], order, 1), np.take_along_axis(ld[left], order, 1)
        flagged = _least_log_t(g, ld, B + band).min()
        read[left[_least_log_t(g, ld, B - band) > flagged + band]] = False
    return read


def _least_log_t(g: np.ndarray, ld: np.ndarray, c: float) -> np.ndarray:
    """Per row of g, increasing, and ld: the least ld[a] - ld[b] over the
    pairs with g[b] <= g[a] - c, inf where none has.  The b of an a are a
    prefix of the row; one stable merge of g with g - c counts them, and a
    prefix maximum of ld gives their largest ld[b]."""
    m = g.shape[1]
    merged = np.argsort(np.concatenate([g, g - c], axis=1), axis=1, kind="stable")
    k = np.flatnonzero(merged >= m).reshape(-1, m) % (2 * m) - np.arange(m)  # how many b
    top = np.maximum.accumulate(ld, axis=1).ravel()[np.maximum(k - 1, 0) +
                                                    m * np.arange(len(g))[:, None]]
    return np.min(np.where(k > 0, ld - top, np.inf), axis=1)


def _records(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Positions of the strict records of the running maximum H of h over
    t: one for each distinct t at which H rises, in increasing t.  Each is
    the last position, in the given order, that attains the new H at its
    t."""
    order = np.argsort(t, kind="stable")
    t, h = t[order], h[order]
    runmax = np.maximum.accumulate(h)
    ends = np.flatnonzero(np.diff(t, append=np.inf) > 0)  # last position of each t
    rises = ends[np.diff(runmax[ends], prepend=-np.inf) > 0]
    carry = np.maximum.accumulate(np.where(h >= runmax, np.arange(len(h)), -1))
    return order[carry[rises]]


def empirical_modulus(f: PointMap) -> EmpiricalEnvelope:
    """The envelope of a map at its strict records, the ratios where H rises.

    Each block of :func:`_rows` is cut to its own records.  A record of
    all ratios is a record of its block, so the records of the blocks'
    records, taken in block order, are the envelope, witnesses included.
    Only those are mapped to their (x, a, b) triples.

    Raises :class:`ValidationError` when :func:`_collapse` finds a triple:
    no finite envelope exists.
    """
    collapse = _collapse(f)
    if collapse is not None:
        lab = [f.domain.labels[i] for i in collapse]
        raise ValidationError(
            f"rho(f{lab[0]}, f{lab[2]}) = 0 but rho(f{lab[0]}, f{lab[1]}) > 0: "
            "no finite control function exists"
        )
    parts = [(np.array([]), np.array([]), np.array([], dtype=int))]
    for start, d, rho in _rows(f):
        t, r = _ratios(d), _ratios(rho)
        k = _records(t, r)
        parts.append((t[k], r[k], start + k))
    ts, hs, pos = map(np.concatenate, zip(*parts))
    del parts  # free the per-block copies before the final sort
    k = _records(ts, hs)
    env = [ts[k], hs[k], _triples(f.domain.n, pos[k])]
    for v in env:
        v.setflags(write=False)
    return EmpiricalEnvelope(*env, f)


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
    the last triple in (x, a, b) order that realizes H at lo, the
    envelope's witness rule.  One scan of the rows settles the
    verdict; past the first violation it evaluates eta only where t <= lo.
    The witness is ranked by t and r, not by scan position, so this scan
    keeps its own rule instead of the first-in-order ``triangle._Scan``.

    For ``power:``, ``linear:`` and ``bilip:`` on n >= 3 points the scan
    reads only the rows of :func:`_power_rows`, with the report of the
    full scan, ``checked`` included: a holding check costs O(n**2), a
    failing one O(n**2 log n) plus the rows read.

    Where the domain or codomain distances span 2**1022 or more
    (:func:`spaces._wide`), a ratio t or r of :func:`_off_range` is decided
    in logs, log C + alpha log t >= log(1 - tol) + log r, each log a
    difference of logs of distances; the report shows t, r and eta(t) as
    they read in floats, so an overflowed ratio reads inf.

    A map that collapses one pair while another stays apart fails without
    a scan: the witness is the triple (x, a, b) of :func:`_collapse`, with
    t = d(x,a)/d(x,b), image ratio inf, eta_at_t = eta(t) and ``checked``
    0.

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
    lab = f.domain.labels
    collapse = _collapse(f)
    if collapse is not None:
        x, a, b = collapse
        t = float(f.domain.dist[x, a] / f.domain.dist[x, b])
        return QsReport(False, collapse, (lab[x], lab[a], lab[b]), t, np.inf,
                        float(np.asarray(eta.eval(t))), eta.describe(), tol, 0)
    wide = _wide(f.domain.dist) or _wide(f.codomain.dist)
    log_floor = math.log1p(-tol) if tol < 1.0 else -math.inf
    n = f.domain.n
    DR = _off_diagonal(f)
    checked = 0 if DR is None else n * (n - 1) ** 2
    if DR is not None and n >= 3 and type(eta) in _POWER_FAMILY:  # only rows that can fail
        read = _power_rows(eta, tol, *DR)
        blocks = _kept(_rows(f), read.tolist(), (n - 1) ** 2) if read.any() else ()
    else:
        blocks = _rows(f)
    lo = np.inf
    worst = None  # (r, eta(lo), x, a, b) of the kept violation at t = lo
    with np.errstate(all="ignore") if wide else nullcontext():
        for start, d, rho in blocks:
            t = _ratios(d)
            r = _ratios(rho)
            pos = None
            if worst is not None:  # only a ratio t <= lo can displace the kept violation
                pos = np.nonzero(t <= lo)[0]
                if not pos.size:
                    continue
                t, r = t[pos], r[pos]
            odd = _off_range(f, eta, start, pos, t, r) if wide else ()
            vals = np.asarray(eta.eval(t), dtype=float)
            ok = vals >= (1.0 - tol) * r  # a NaN eta(t) violates
            if len(odd):
                at = odd if pos is None else pos[odd]
                ok[odd] = eta.log_C + eta.alpha * _log_ratios(d, at) >= \
                    log_floor + _log_ratios(rho, at)
            bad = np.nonzero(~ok)[0]
            if len(bad) == 0:
                continue
            t_bad = t[bad]
            t_min = t_bad.min()
            at = bad[t_bad == t_min]
            k = at[np.nonzero(r[at] == r[at].max())[0][-1]]
            if worst is None or t_min < lo or r[k] >= worst[0]:
                j = start + (k if pos is None else pos[k])
                lo = t_min
                worst = (r[k], vals[k], *_triples(f.domain.n, j).tolist())
    if worst is None:
        return QsReport(True, None, None, None, None, None, eta.describe(), tol, checked)
    h, v, x, a, b = worst
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
    eta(1) >= 1.  ``min_product`` is the smallest product (a NaN first) and
    ``at_t`` the smallest ratio attaining it, the envelope knot where the
    minimum over knots lands.  Ties go to the smallest t, not the first
    position, so the first minimum of ``triangle._Scan`` does not fit.
    ``checked`` counts the realized ratios, n (n-1)**2.  Only domain ratios
    are read, so a map that collapses a pair gets a report too.

    For eta = C t**alpha in ``moduli._POWER_FAMILY`` the product is C**2 at
    every ratio, so nothing is scanned: ``min_product`` is C * C, at the
    least realized ratio, min over x of min_a d(x,a) / max_b d(x,b).  Any
    other modulus streams the blocks of :func:`_rows`; where the domain
    distances span 2**1022 or more, a ratio of :func:`_off_range` is an
    input error.  Pure report; tolerances are ``RATIO_PRODUCT_TOL`` and
    ``ETA_ONE_TOL``.
    """
    n = f.domain.n
    best = None  # (product with NaN as -inf, t, product) of the minimum
    if type(eta) in _POWER_FAMILY:  # C t**alpha C t**-alpha
        DR = _off_diagonal(f)
        if DR is not None:
            low = eta.C * eta.C
            best = (low, (DR[0].min(axis=1) / DR[0].max(axis=1)).min(), low)
    else:
        wide = _wide(f.domain.dist)
        with np.errstate(all="ignore") if wide else nullcontext():
            for start, d, _ in _rows(f):
                t = _ratios(d)
                prod = _ratio_products(eta, t)
                if wide:  # raises at a ratio off the normal floats
                    _off_range(f, eta, start, None, t)
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
        n * (n - 1) ** 2,
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
        raise PreconditionFailed(
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
    f verifying against eta (:class:`PreconditionFailed` otherwise), and
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
    upper_rhs = float(np.asarray(eta.eval(dA / phi1.diag_inverse(dB))))
    lower_lhs = 1.0 / float(np.asarray(eta.eval(dB / dA)))
    lower_rhs = dfA / phi2.diag_inverse(dfB)
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

    When eta is C t (``linear:C``, ``bilip:L`` with C = L**2, ``power:1``)
    the report also carries the derived bi-Lipschitz constant
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

    p1inv = phi1.diag_inverse(dX)
    p2inv = phi2.diag_inverse(dfX)
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

    derived_L = None
    if type(eta) in _POWER_FAMILY and eta.alpha == 1.0:
        derived_L = 2.0 * eta.C * max(dfX / dX, dX / dfX)

    holds = bool(np.all(up_slack >= -tol * rho) and np.all(low_slack >= -tol * lower))
    return PairBoundsReport(dX, dfX, float(up_slack[iu_up]), pair_up, float(low_slack[iu_low]),
                            pair_low, derived_L, minimal_bilipschitz_L(f), holds, tol)
