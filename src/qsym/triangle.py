"""Triangle functions and the checks built on them.

A triangle function Phi(u, v) generalizes the role the sum plays in the
triangle inequality: a space satisfies Phi when

    d(x, y) <= Phi(d(x, z), d(y, z))   for all points x != y and every z.

``ScaledAdditive(K)`` gives b-metrics with coefficient K, and its K = 1
member ``Additive`` gives metrics; ``MaxGauge`` gives ultrametrics, and
``CustomGauge`` wraps a user function after probing it for symmetry and
monotonicity on a fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotInvertible, ValidationError
from .moduli import _bisect, _vectorized
from .report import Report
from .spaces import _TINY, DEFAULT_TOL, SemimetricSpace, _scaled, _unscaled, _valid_tol

#: probe axis of custom gauges: both validation axes and the diagonal probe
GAUGE_PROBE_AXIS = np.geomspace(1e-6, 1e6, 64)


class TriangleFunction:
    """Base class; subclasses implement ``__call__`` on scalars or arrays."""

    name = "abstract"

    def __call__(self, u, v):
        raise NotImplementedError

    def diag(self, t):
        """The one-variable gauge phi(t) = Phi(t, t)."""
        return self(t, t)

    def diag_inverse(self, y: float) -> float:
        """Solve phi(t) = y for t >= 0, as a Python float.  Closed form for
        the built-in gauges; bisection with bracket doubling otherwise, to
        residual ``1e-12 * y``."""
        raise NotImplementedError

    @property
    def classical_coefficient(self) -> Optional[float]:
        """The K for which the classical two-sided distortion bound applies
        (K for scaled-additive gauges, 1/2 for the max gauge, None else)."""
        return None

    def describe(self) -> str:
        return self.name


class ScaledAdditive(TriangleFunction):
    """Phi(u, v) = K (u + v) with K >= 1: the b-metric inequality."""

    def __init__(self, K: float):
        K = float(K)
        if K < 1.0:
            raise ValueError(f"b-metric coefficient must be >= 1, got {K}")
        self.K = K
        self.name = f"bmetric:{K:g}"

    def __call__(self, u, v):
        s = np.asarray(u) + np.asarray(v)
        return s if self.K == 1.0 else self.K * s

    def diag_inverse(self, y):
        return float(y) / (2.0 * self.K)

    @property
    def classical_coefficient(self):
        return self.K


class Additive(ScaledAdditive):
    """Phi(u, v) = u + v: the ordinary triangle inequality."""

    def __init__(self):
        super().__init__(1.0)
        self.name = "additive"


class MaxGauge(TriangleFunction):
    """Phi(u, v) = max(u, v): the ultrametric inequality."""

    name = "max"

    def __call__(self, u, v):
        return np.maximum(u, v)

    def diag_inverse(self, y):
        return float(y)

    @property
    def classical_coefficient(self):
        # max(u, v) <= u + v <= 2 max(u, v), so the classical bound holds
        # with the halved coefficient.
        return 0.5


class CustomGauge(TriangleFunction):
    """A user-supplied gauge, validated on a fixed 64x64 log-spaced grid.

    The function must vanish at (0, 0), be symmetric, and be monotone
    (non-strictly) in each variable on the grid; violations raise
    :class:`ValidationError`.  A callable that does not map arrays
    elementwise is wrapped by ``moduli._vectorized``.  Calls evaluate
    fn(min(u, v), max(u, v)), so the gauge is symmetric bit for bit off
    the grid too, as the pair scans need; the grid probe sees the unsorted
    fn.
    """

    def __init__(self, fn: Callable, name: str = "custom"):
        self._fn = _vectorized(fn, arity=2)
        self.name = name
        self._validate()

    def __call__(self, u, v):
        return np.asarray(self._fn(np.minimum(u, v), np.maximum(u, v)), dtype=float)

    def _validate(self):
        z = float(self._fn(0.0, 0.0))
        if abs(z) > 1e-12:
            raise ValidationError(f"{self.name}: Phi(0,0) = {z:.3g}, expected 0")
        g = GAUGE_PROBE_AXIS
        vals = np.asarray(self._fn(g[:, None], g[None, :]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValidationError(f"{self.name}: non-finite value on the probe grid")
        asym = np.abs(vals - vals.T)
        if np.any(asym > 1e-9 * np.maximum(np.abs(vals), np.abs(vals.T))):
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise ValidationError(
                f"{self.name}: not symmetric at ({g[i]:.3g}, {g[j]:.3g})"
            )
        if np.any(np.diff(vals, axis=0) < -1e-12 * vals[:-1, :]) or np.any(
            np.diff(vals, axis=1) < -1e-12 * vals[:, :-1]
        ):
            raise ValidationError(f"{self.name}: not monotone on the probe grid")

    def diag_inverse(self, y):
        """Invert the diagonal by the modulus bisection, once it is seen to
        be strictly increasing on the probe grid."""
        if float(y) > 0:
            probe = np.asarray(self.diag(GAUGE_PROBE_AXIS), dtype=float)
            if np.any(np.diff(probe) <= 0):
                raise NotInvertible(
                    f"{self.name}: diagonal gauge is not strictly increasing on the probe grid"
                )
        return _bisect(self.diag, y, f"{self.name} diagonal")


@dataclass(frozen=True)
class TriangleReport(Report):
    """Outcome of a generalized triangle check.

    ``worst_triple`` is (x, z, y): the inequality read d(x,y) <= Phi(d(x,z),
    d(y,z)), so the middle entry is the via-point, and ``margin`` = rhs - lhs
    there.  It is the first minimum margin, unless that margin lies within
    its floor -tol * lhs while the check fails: then it is the first triple
    that violates, so a failing report always names a violation.
    """

    holds: bool
    worst_triple: Optional[tuple]
    lhs: float
    rhs: float
    margin: float
    gauge: str
    tol: float

    def worst_labels(self, space: SemimetricSpace):
        if self.worst_triple is None:
            return None
        return tuple(space.labels[i] for i in self.worst_triple)


#: (pair, z) entries per block of the pair scans: temporaries stay cached
_PAIR_BLOCK = 32768


#: the gauges with Phi(c u, c v) = c Phi(u, v) for c > 0 (exact classes)
_HOMOGENEOUS = (Additive, MaxGauge, ScaledAdditive)


def _pair_rows(n: int):
    """The pairs x < y in lexicographic order, in rectangles ``(xa, xb, lo,
    hi)`` of at most ``_PAIR_BLOCK`` (x, y, z) entries or one y-row: the
    base points xa <= x < xb against lo <= y < hi and every z, which a
    kernel reads as the broadcast views d[xa:xb, None], d[None, lo:hi] and
    d[xa:xb, lo:hi, None], with no gathers.

    A base point whose run of (n - 1 - x) n entries fills ``_PAIR_BLOCK``
    is one block, or several y-runs of at least one row.  Otherwise a block
    packs the next base points whose runs fit, against y in (xa, n): its
    rows y <= x, ``_dupes``, repeat a pair or are the diagonal y = x, and
    each kernel masks them.  Raveled, a block is in (x, y, z) order.
    """
    x = 0
    while x < n - 1:
        run = (n - 1 - x) * n
        if run >= _PAIR_BLOCK:
            step = max(1, _PAIR_BLOCK // n)
            for lo in range(x + 1, n, step):
                yield x, x + 1, lo, min(lo + step, n)
            x += 1
        else:
            m = min(n - 1 - x, _PAIR_BLOCK // run)
            yield x, x + m, x + 1, n
            x += m


def _dupes(xa, xb, lo, hi):
    """The rows y <= x of a block of :func:`_pair_rows`, as an (xb - xa,
    hi - lo) mask."""
    return np.arange(lo, hi) <= np.arange(xa, xb)[:, None]


def _pair_column(M, xa, xb, lo, hi):
    """M[xa:xb, lo:hi, None] for a block of :func:`_pair_rows`, where the
    masked rows of a packed block read M[x, hi - 1], a pair of that block,
    instead: so a kernel that divides by d(x, y) never divides by d(x, x)."""
    col = M[xa:xb, lo:hi, None]
    if xb - xa == 1:
        return col
    return np.where(_dupes(xa, xb, lo, hi)[..., None], M[xa:xb, hi - 1, None, None], col)


def _distinct(block, xa, xb, lo, hi):
    """Clear, in a boolean block of :func:`_pair_rows`, the entries with
    z = x or z = y and the masked rows y <= x."""
    if xb - xa == 1:
        block[0, :, xa] = False
        np.fill_diagonal(block[0, :, lo:], False)
        return
    block[_dupes(xa, xb, lo, hi)] = False
    i, j = np.arange(xb - xa), np.arange(hi - lo)
    block[i, :, xa + i] = False
    block[:, j, lo + j] = False


class _Scan:
    """The cross-block reduction of every exhaustive scan, in scan order.

    ``add`` takes a nonempty block's values, in scan order once raveled, a
    map from a raveled position to its witness and, optionally, a callable
    returning per-value floors that broadcast against the values and lie at
    or below ``floor`` (by default every value's floor is ``floor``).
    ``low`` and ``least`` are the first minimum and its witness, where a NaN
    is the minimum (the first NaN wins); ``violation`` is the witness of the
    first value that is NaN or below its floor; ``count`` is the number of
    values read.  np.argmin picks the first NaN, so a block can violate only
    if its pick is NaN or below ``floor``: only then, and before the first
    violation, are its floors formed.
    """

    def __init__(self, floor: float):
        self.floor = floor
        self.count = 0
        self.low = self.least = self.violation = None

    def add(self, values: np.ndarray, witness: Callable, floor=None):
        self.count += values.size
        k = int(np.argmin(values))
        v = float(values.flat[k])
        if self.low is None or v < self.low or (v != v and self.low == self.low):
            self.low, self.least = v, witness(k)
        if self.violation is None and not v >= self.floor:
            bad = ~(values >= (self.floor if floor is None else floor()))
            k = int(np.argmax(bad))
            if bad.flat[k]:
                self.violation = witness(k)


def check_triangle(
    space: SemimetricSpace, phi: TriangleFunction, tol: float = DEFAULT_TOL
) -> TriangleReport:
    """Check d(x, y) <= Phi(d(x, z), d(y, z)) over all triples.

    x and y range over distinct pairs; z ranges over *all* points,
    including x and y themselves.  The report carries the witness of
    :class:`TriangleReport` in (x, y, z) order; the check applies the rule
    of :func:`spaces._valid_tol` through :class:`_Scan`.  Phi and d are
    symmetric, so that triple has x < y and the scan reads each pair once.
    The homogeneous gauges read the distances of :func:`spaces._scaled`,
    and the report is scaled back by its rule.
    """
    n = space.n
    _valid_tol(tol)
    if n < 2:
        return TriangleReport(True, None, 0.0, 0.0, np.inf, phi.describe(), tol)
    d, s = _scaled(space.dist) if type(phi) in _HOMOGENEOUS else (space.dist, 0)

    scan = _Scan(0.0)  # every floor -tol d(x, y) is at most 0
    for xa, xb, lo, hi in _pair_rows(n):
        # margin[x - xa, y - lo, z] = Phi(d(x, z), d(y, z)) - d(x, y)
        margin = np.asarray(phi(d[xa:xb, None], d[None, lo:hi]), dtype=float)
        lhs = d[xa:xb, lo:hi, None]
        margin -= lhs
        if xb - xa > 1:
            margin[_dupes(xa, xb, lo, hi)] = np.inf
        rows = (hi - lo) * n
        scan.add(margin, lambda k: (xa + k // rows, k % n, lo + k % rows // n),
                 lambda: -tol * lhs)
        del margin  # one full-size block alive at a time: the heap reuses its memory

    x, z, y = scan.least
    if scan.violation is not None and scan.low >= -tol * d[x, y]:
        x, z, y = scan.violation
    lhs = float(d[x, y])
    rhs = float(np.asarray(phi(d[x, z], d[y, z])))
    lhs, rhs, margin = (float(_unscaled(v, s)) for v in (lhs, rhs, rhs - lhs))
    return TriangleReport(scan.violation is None, (x, z, y), lhs, rhs, margin,
                          phi.describe(), tol)


def minimal_bmetric_K(space: SemimetricSpace) -> float:
    """The smallest K with d(x, y) <= K (d(x, z) + d(z, y)) throughout.

    Computed as the maximum of d(x, y) / (d(x, z) + d(z, y)) over pairs
    x != y and every z (z = x or z = y contributes exactly 1, so the
    result is always >= 1 when n >= 3).  Returns 0 for n < 3 by
    convention.  The space is a metric iff the value is <= 1.  The
    quotients are read on the distances of :func:`spaces._scaled`.
    """
    n = space.n
    if n < 3:
        return 0.0
    d = _scaled(space.dist)[0]
    best = 0.0
    for xa, xb, lo, hi in _pair_rows(n):
        # y > x, so each denominator has a positive term: no 0/0, no t/0;
        # a masked row y <= x reads t/inf = 0
        den = d[xa:xb, None] + d[None, lo:hi]
        if xb - xa > 1:
            den[_dupes(xa, xb, lo, hi)] = np.inf
        m = float(np.max(np.divide(d[xa:xb, lo:hi, None], den, out=den)))
        if m > best:
            best = m
    return best


@dataclass(frozen=True)
class PtolemyReport(Report):
    """Outcome of the four-point (Ptolemy) check.

    ``worst_quadruple`` is ordered (x, y, z, t) so that the inequality read

        d(x, z) d(t, y) <= d(x, y) d(t, z) + d(x, t) d(y, z).

    It is picked like the witness of :class:`TriangleReport`, with
    lhs = d(x, z) d(t, y).  Every verdict is exhaustive: ``checked`` counts
    3 C(n, 4) inequalities, one per pairing of each 4-subset, and ``mode``
    is always "exhaustive".  lhs, rhs and margin are scaled back by
    :func:`spaces._unscaled`: a product beyond the float range reads inf,
    and one below it 0.0, so the margin of a failing report is negative or,
    where the true one underflows, -0.0.
    """

    holds: bool
    worst_quadruple: Optional[tuple]
    lhs: float
    rhs: float
    margin: float
    mode: str
    checked: int
    tol: float

    def worst_labels(self, space: SemimetricSpace):
        if self.worst_quadruple is None:
            return None
        return tuple(space.labels[i] for i in self.worst_quadruple)


#: the three orderings (a, b, c, d) of a sorted quadruple whose diagonals
#: (a, c), (b, d) run through the three pairings of 4 points into two pairs;
#: sides are consecutive
_QUAD_ORDERINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


#: quadruples per block of the Ptolemy scans, past which a block ends at its
#: next run boundary: temporaries stay cached, numpy calls stay few
_QUAD_BLOCK = 16384


def _quadruple_blocks(d: np.ndarray):
    """All quadruples i<j<k<l in lexicographic order, in blocks of whole runs.

    The quadruples with a given (i, j) form a run: the (k, l) pairs with
    k > j, a suffix of the pairs in lexicographic order.  A block holds
    consecutive whole runs, across base points i, up to the first run that
    brings it to ``_QUAD_BLOCK`` quadruples (or to the last quadruple), so
    no block is smaller than one run and memory stays O(n^2 + _QUAD_BLOCK).
    Yields ``(i, j, k, l, q)``: ``i``, ``j``, ``k`` and ``l`` are index
    arrays over the block, and ``q[a][b]`` is the array of distances
    between positions a and b of (i, j, k, l).
    """
    n = len(d)
    I, J = np.triu_indices(n, 1)  # the pairs, row-major: (i, j) and (k, l) alike
    after = np.cumsum(np.arange(n - 1, -1, -1))  # after[j]: first pair with k > j
    run = len(I) - after[J]  # the run of pair p: its (k, l) pairs with k > j
    end = np.cumsum(run)  # end[p]: quadruples through run p
    shift = after[J] - (end - run)  # along run p, (k, l) pair index = quadruple + shift
    dpair = d[I, J]
    flat = d.ravel()  # flat.take(a n + b) gathers d[a, b] faster than d[a, b]
    top, stop, p0 = 0, math.comb(n, 4), 0
    while top < stop:
        p1 = int(np.searchsorted(end, min(top + _QUAD_BLOCK, stop))) + 1
        runs = run[p0:p1]
        i, j = np.repeat(I[p0:p1], runs), np.repeat(J[p0:p1], runs)
        bottom, top = top, int(end[p1 - 1])
        pos = np.repeat(shift[p0:p1], runs)
        pos += np.arange(bottom, top)
        k, l, dkl = I.take(pos), J.take(pos), dpair.take(pos)
        dij = np.repeat(dpair[p0:p1], runs)
        ii, jj = i * n, j * n
        dik, dil = flat.take(ii + k), flat.take(ii + l)
        djk, djl = flat.take(jj + k), flat.take(jj + l)
        yield i, j, k, l, ((None, dij, dik, dil), (dij, None, djk, djl),
                           (dik, djk, None, dkl), (dil, djl, dkl, None))
        p0 = p1


def _own_scale(q, rows):
    """``(products, margins, exps)``: the three pairing products and margins
    of the quadruples ``rows`` of a block of :func:`_quadruple_blocks`, each
    on its own scale, so that row r is that of quadruple rows[r] times
    2**-exps[r].  That scale is the rule of :func:`spaces._scaled` for the
    largest geometric mean sqrt(d d') of a pairing, which cannot overflow:
    the largest product lies in [1/4, 1), a normal float."""
    six = np.stack([q[a][b][rows] for a, b in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))])
    root = np.sqrt(six)
    e = _scaled(np.max(root[0::2] * root[1::2], axis=0, keepdims=True), axis=0)[1][0]
    ab, ce, fg = np.ldexp(six[0::2], -e) * np.ldexp(six[1::2], -e)
    return (np.stack([ab, ce, fg], axis=1),
            np.stack([ce + fg - ab, ab + fg - ce, ab + ce - fg], axis=1), 2 * e)


def is_ptolemaic(space: SemimetricSpace, tol: float = DEFAULT_TOL) -> PtolemyReport:
    """Check every 4-subset against all three product pairings.

    Holds iff each product of "diagonal" distances is at most the sum of
    the other two products.  Exhaustive at a cost of 3 C(n, 4) inequalities,
    streamed by :func:`_quadruple_blocks` in blocks of whole (i, j) runs, so
    in O(n^2 + _QUAD_BLOCK) memory; the witness is the first minimum margin
    in (i, j, k, l, pairing) order, or the first violation when that one is
    within its floor, whatever the block boundaries.

    The products are formed on the distances of :func:`spaces._scaled`.
    Where the least of those, squared, is not a normal float, a product may
    underflow (or, past the clamp, overflow), so each quadruple whose
    products are not all normal is decided again by :func:`_own_scale`: a
    violation there is a violation, and its margin enters the scan scaled
    back to the space's scale.  The report reads the witness on its own
    scale.  Vacuously true for n < 4.
    """
    n = space.n
    _valid_tol(tol)
    if n < 4:
        return PtolemyReport(True, None, 0.0, 0.0, np.inf, "exhaustive", 0, tol)

    d, s = _scaled(space.dist)
    wide = float(np.min(d, where=d > 0, initial=np.inf)) ** 2 < _TINY
    scan = _Scan(0.0)  # every floor -tol lhs is at most 0
    # past the clamp of _scaled a product may overflow: _own_scale decides those
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, k, l, q in _quadruple_blocks(d):
            ab = q[0][1] * q[2][3]
            ce = q[0][2] * q[1][3]
            fg = q[0][3] * q[1][2]
            margins = np.stack([ce + fg - ab, ab + fg - ce, ab + ce - fg], axis=1)
            rows = ()
            if wide:  # the quadruples whose products are not all normal
                low = np.minimum(np.minimum(ab, ce), fg)
                high = np.maximum(np.maximum(ab, ce), fg)
                rows = np.flatnonzero(~((low >= _TINY) & (high < np.inf)))
            if len(rows):
                products, own, exps = _own_scale(q, rows)
                ok = own >= -tol * products
                # a violation stays below 0 on the space's scale, however far it underflows
                back = _unscaled(own, exps[:, None])
                margins[rows] = np.where(ok, back, np.minimum(back, np.nextafter(0.0, -1.0)))

            def floors():
                floor = -tol * np.stack([ab, ce, fg], axis=1)
                if len(rows):
                    floor[rows] = np.where(ok, -np.inf, 0.0)
                return floor

            scan.add(margins, lambda flat: (*(int(v[flat // 3]) for v in (i, j, k, l)),
                                            flat % 3), floors)

    def worst(w):  # lhs, margin and their exponent at a witness, on its own scale
        quad = w[:4]
        products, margins, exps = _own_scale([[d[[u], [v]] for v in quad] for u in quad], [0])
        return float(products[0, w[4]]), float(margins[0, w[4]]), 2 * s + int(exps[0])

    ii, jj, kk, ll, pairing = scan.least
    lhs, margin, e = worst(scan.least)
    if scan.violation is not None and margin >= -tol * lhs:
        ii, jj, kk, ll, pairing = scan.violation
        lhs, margin, e = worst(scan.violation)
    # arrange the worst quadruple as (x, y, z, t) with lhs = d(x,z) d(t,y)
    quad = ((ii, ll, jj, kk), (ii, ll, kk, jj), (ii, kk, ll, jj))[pairing]
    lhs, rhs, margin = (float(_unscaled(v, e)) for v in (lhs, lhs + margin, margin))
    return PtolemyReport(scan.violation is None, quad, lhs, rhs, margin,
                         "exhaustive", scan.count, tol)


def parse_triangle_function(text: str) -> TriangleFunction:
    """Parse the command-line gauge grammar: additive | bmetric:K | max."""
    text = text.strip()
    if text == "additive":
        return Additive()
    if text == "max":
        return MaxGauge()
    if text.startswith("bmetric:"):
        try:
            K = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad b-metric coefficient in {text!r}") from None
        return ScaledAdditive(K)
    raise ValueError(f"unknown triangle function spec {text!r}")
