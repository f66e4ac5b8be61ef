"""Triangle functions and the checks built on them.

A triangle function Phi(u, v) generalizes the role the sum plays in the
triangle inequality: a space satisfies Phi when

    d(x, y) <= Phi(d(x, z), d(y, z))   for all points x != y and every z.

``Additive`` gives metrics, ``ScaledAdditive(K)`` gives b-metrics with
coefficient K, ``MaxGauge`` gives ultrametrics, and ``CustomGauge`` wraps a
user function after probing it for symmetry and monotonicity on a fixed
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GaugeInvalid, NotInvertible
from .moduli import _bisect
from .report import Report
from .spaces import DEFAULT_TOL, SemimetricSpace, _valid_tol

#: probe grid used to validate custom gauges (both axes)
GAUGE_PROBE_AXIS = np.geomspace(1e-6, 1e6, 64)

#: probe grid used to test diagonal invertibility
DIAG_PROBE_AXIS = np.geomspace(1e-6, 1e6, 64)


class TriangleFunction:
    """Base class; subclasses implement ``__call__`` on scalars or arrays."""

    name = "abstract"

    def __call__(self, u, v):
        raise NotImplementedError

    def diag(self, t):
        """The one-variable gauge phi(t) = Phi(t, t)."""
        return self(t, t)

    def diag_inverse(self, y: float) -> float:
        """Solve phi(t) = y for t >= 0.  Closed form where available."""
        raise NotImplementedError

    @property
    def classical_coefficient(self) -> Optional[float]:
        """The K for which the classical two-sided distortion bound applies
        (K for scaled-additive gauges, 1/2 for the max gauge, None else)."""
        return None

    def describe(self) -> str:
        return self.name


class Additive(TriangleFunction):
    """Phi(u, v) = u + v: the ordinary triangle inequality."""

    name = "additive"

    def __call__(self, u, v):
        return np.asarray(u) + np.asarray(v)

    def diag_inverse(self, y):
        return y / 2.0

    @property
    def classical_coefficient(self):
        return 1.0


class ScaledAdditive(TriangleFunction):
    """Phi(u, v) = K (u + v) with K >= 1: the b-metric inequality."""

    def __init__(self, K: float):
        K = float(K)
        if K < 1.0:
            raise ValueError(f"b-metric coefficient must be >= 1, got {K}")
        self.K = K
        self.name = f"bmetric:{K:g}"

    def __call__(self, u, v):
        return self.K * (np.asarray(u) + np.asarray(v))

    def diag_inverse(self, y):
        return y / (2.0 * self.K)

    @property
    def classical_coefficient(self):
        return self.K


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

    def describe(self):
        return "max"


class CustomGauge(TriangleFunction):
    """A user-supplied gauge, validated on a fixed 64x64 log-spaced grid.

    The function must vanish at (0, 0), be symmetric, and be monotone
    (non-strictly) in each variable on the grid; violations raise
    :class:`GaugeInvalid`.  Pass ``vectorized=True`` if the callable
    already accepts numpy arrays.  Calls evaluate fn(min(u, v), max(u, v)),
    so the gauge is symmetric bit for bit off the grid too, as the pair
    scans need; the grid probe sees the unsorted fn.
    """

    def __init__(self, fn: Callable, name: str = "custom", vectorized: bool = False):
        self._fn = fn if vectorized else np.vectorize(fn, otypes=[float])
        self.name = name
        self._validate()

    def __call__(self, u, v):
        return np.asarray(self._fn(np.minimum(u, v), np.maximum(u, v)), dtype=float)

    def _validate(self):
        z = float(self._fn(0.0, 0.0))
        if abs(z) > 1e-12:
            raise GaugeInvalid(f"{self.name}: Phi(0,0) = {z:.3g}, expected 0")
        g = GAUGE_PROBE_AXIS
        vals = np.asarray(self._fn(g[:, None], g[None, :]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise GaugeInvalid(f"{self.name}: non-finite value on the probe grid")
        asym = np.abs(vals - vals.T)
        if np.any(asym > 1e-9 * np.maximum(np.abs(vals), np.abs(vals.T))):
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise GaugeInvalid(
                f"{self.name}: not symmetric at ({g[i]:.3g}, {g[j]:.3g})"
            )
        if np.any(np.diff(vals, axis=0) < -1e-12 * vals[:-1, :]) or np.any(
            np.diff(vals, axis=1) < -1e-12 * vals[:, :-1]
        ):
            raise GaugeInvalid(f"{self.name}: not monotone on the probe grid")

    def diag_inverse(self, y):
        return _bisect_diag(self, y)


def _bisect_diag(phi: TriangleFunction, y: float) -> float:
    """Invert phi.diag by the modulus bisection, once the diagonal is seen
    to be strictly increasing on the probe grid."""
    if float(y) > 0:
        probe = np.asarray(phi.diag(DIAG_PROBE_AXIS), dtype=float)
        if np.any(np.diff(probe) <= 0):
            raise NotInvertible(
                f"{phi.name}: diagonal gauge is not strictly increasing on the probe grid"
            )
    return _bisect(phi.diag, y, f"{phi.name} diagonal")


def invert_diag(phi: TriangleFunction, y: float) -> float:
    """Inverse of the diagonal gauge t -> Phi(t, t) at y >= 0.

    Closed forms for the built-in variants; bisection with bracket doubling
    otherwise, to residual ``1e-12 * y``.
    """
    return float(phi.diag_inverse(y))


@dataclass(frozen=True)
class TriangleReport(Report):
    """Outcome of a generalized triangle check.

    ``worst_triple`` is (x, z, y): the inequality read d(x,y) <= Phi(d(x,z),
    d(y,z)), so the middle entry is the via-point, and ``margin`` = rhs - lhs
    there.
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


def _pair_rows(n: int):
    """The pairs x < y in lexicographic order as ``(x, lo, hi)``: blocks of
    whole y-rows lo <= y < hi for one x, about ``_PAIR_BLOCK`` (pair, z)
    entries each, which a kernel reads as the slices d[x] and d[lo:hi]."""
    step = max(1, _PAIR_BLOCK // n)
    for x in range(n - 1):
        for lo in range(x + 1, n, step):
            yield x, lo, min(lo + step, n)


class _Scan:
    """The cross-block reduction of every exhaustive scan, in scan order.

    ``add`` takes a nonempty block's values, in scan order once raveled, a
    map from a raveled position to its witness and, optionally, per-value
    floors that broadcast against the values and lie at or below ``floor``
    (by default every value's floor is ``floor``).  ``low`` and ``least``
    are the first minimum and its witness, where a NaN is the minimum (the
    first NaN wins); ``violation`` is the witness of the first value that
    is NaN or below its floor; ``count`` is the number of values read.
    np.argmin picks the first NaN, so a block can violate only if its pick
    is NaN or below ``floor``.
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
            bad = ~(values >= (self.floor if floor is None else floor))
            k = int(np.argmax(bad))
            if bad.flat[k]:
                self.violation = witness(k)


def check_triangle(
    space: SemimetricSpace, phi: TriangleFunction, tol: float = DEFAULT_TOL
) -> TriangleReport:
    """Check d(x, y) <= Phi(d(x, z), d(y, z)) over all triples.

    x and y range over distinct pairs; z ranges over *all* points,
    including x and y themselves.  The report carries the first
    minimum-margin triple in (x, y, z) order; the check applies the rule
    of :func:`spaces._valid_tol` through :class:`_Scan`.  Phi and d are
    symmetric, so that triple has x < y and the scan reads each pair once.
    """
    n = space.n
    d = space.dist
    _valid_tol(tol)
    if n < 2:
        return TriangleReport(True, None, 0.0, 0.0, np.inf, phi.describe(), tol)

    scan = _Scan(0.0)  # every floor -tol d(x, y) is at most 0
    for x, lo, hi in _pair_rows(n):
        # margin[y - lo, z] = Phi(d(x, z), d(y, z)) - d(x, y)
        margin = np.asarray(phi(d[x][None, :], d[lo:hi]), dtype=float)
        lhs = d[x, lo:hi, None]
        margin -= lhs
        scan.add(margin, lambda k: (x, k % n, lo + k // n), -tol * lhs)

    x, z, y = scan.least
    lhs = float(d[x, y])
    rhs = float(np.asarray(phi(d[x, z], d[y, z])))
    return TriangleReport(scan.violation is None, scan.least, lhs, rhs, scan.low,
                          phi.describe(), tol)


def minimal_bmetric_K(space: SemimetricSpace) -> float:
    """The smallest K with d(x, y) <= K (d(x, z) + d(z, y)) throughout.

    Computed as the maximum of d(x, y) / (d(x, z) + d(z, y)) over pairs
    x != y and every z (z = x or z = y contributes exactly 1, so the
    result is always >= 1 when n >= 3).  Returns 0 for n < 3 by
    convention.  The space is a metric iff the value is <= 1.
    """
    n = space.n
    if n < 3:
        return 0.0
    d = space.dist
    best = 0.0
    for x, lo, hi in _pair_rows(n):
        # y > x, so each denominator has a positive term: no 0/0, no t/0
        m = float(np.max(d[x, lo:hi, None] / (d[x][None, :] + d[lo:hi])))
        if m > best:
            best = m
    return best


@dataclass(frozen=True)
class PtolemyReport(Report):
    """Outcome of the four-point (Ptolemy) check.

    ``worst_quadruple`` is ordered (x, y, z, t) so that the inequality read

        d(x, z) d(t, y) <= d(x, y) d(t, z) + d(x, t) d(y, z).

    Every verdict is exhaustive: ``checked`` counts 3 C(n, 4) inequalities,
    one per pairing of each 4-subset, and ``mode`` is always "exhaustive".
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


def _quadruple_blocks(d: np.ndarray):
    """All quadruples i<j<k<l in lexicographic order, in blocks of O(n^2).

    A block holds consecutive (i, j) runs of (k, l) pairs for one i, at
    least C(n, 2) quadruples unless i runs out, so memory stays O(n^2)
    while numpy calls stay few.  Yields ``(i, j, k, l, q)``: ``j``, ``k``
    and ``l`` are index arrays over the block, and ``q[a][b]`` is the
    array of distances between positions a and b of (i, j, k, l).
    """
    n = len(d)
    K, L = np.triu_indices(n, 1)  # row-major: the pairs with k > j are a suffix
    P = len(K)
    after = np.cumsum(np.arange(n - 1, 0, -1))  # after[j]: first pair with k > j
    dkl_all = d[K, L]
    flat = d.ravel()  # flat[j n + k] gathers d[j, k] faster than d[j, k] does
    for i in range(n - 3):
        row = d[i]
        js, size = [], 0
        for jj in range(i + 1, n - 2):
            js.append(jj)
            size += P - after[jj]
            if size < P and jj < n - 3:
                continue
            pos = np.concatenate([np.arange(after[j], P) for j in js])
            j = np.repeat(js, P - after[js])
            k, l = K[pos], L[pos]
            dij, dik, dil = row[j], row[k], row[l]
            jn = j * n
            djk, djl, dkl = flat[jn + k], flat[jn + l], dkl_all[pos]
            yield i, j, k, l, ((None, dij, dik, dil), (dij, None, djk, djl),
                               (dik, djk, None, dkl), (dil, djl, dkl, None))
            js, size = [], 0


def is_ptolemaic(space: SemimetricSpace, tol: float = DEFAULT_TOL) -> PtolemyReport:
    """Check every 4-subset against all three product pairings.

    Holds iff each product of "diagonal" distances is at most the sum of
    the other two products.  Exhaustive at a cost of 3 C(n, 4) inequalities,
    streamed in O(n^2) memory; the witness is the first minimum margin in
    (i, j, k, l, pairing) order.  The products are formed on the distances
    times 2**-e, e the binary exponent of the largest one, which is exact
    and cannot overflow; scaled back, a report field may read inf, never
    NaN.  Vacuously true for n < 4.
    """
    n = space.n
    _valid_tol(tol)
    if n < 4:
        return PtolemyReport(True, None, 0.0, 0.0, np.inf, "exhaustive", 0, tol)

    e = math.frexp(float(np.max(space.dist)))[1]
    scan = _Scan(0.0)  # every floor -tol lhs is at most 0
    for i, j, k, l, q in _quadruple_blocks(np.ldexp(space.dist, -e)):
        ab = q[0][1] * q[2][3]
        ce = q[0][2] * q[1][3]
        fg = q[0][3] * q[1][2]
        products = np.stack([ab, ce, fg], axis=1)
        margins = np.stack([ce + fg - ab, ab + fg - ce, ab + ce - fg], axis=1)

        def witness(flat):
            m, pairing = divmod(flat, 3)
            return (i, int(j[m]), int(k[m]), int(l[m]), pairing,
                    float(products[m, pairing]), float(margins[m, pairing]))

        scan.add(margins, witness, -tol * products)
    ii, jj, kk, ll, pairing, lhs, margin = scan.least
    # arrange the worst quadruple as (x, y, z, t) with lhs = d(x,z) d(t,y)
    quad = ((ii, ll, jj, kk), (ii, ll, kk, jj), (ii, kk, ll, jj))[pairing]
    with np.errstate(over="ignore"):
        lhs, rhs, margin = (float(np.ldexp(v, 2 * e)) for v in (lhs, lhs + margin, margin))
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
