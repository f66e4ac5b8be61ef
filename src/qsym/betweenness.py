"""Metric betweenness, its preservation, and line structure.

y lies between x and z when d(x,z) = d(x,y) + d(y,z), an equality within
tol (:func:`spaces._valid_tol`).  On top of the raw triple scan sit
the partition conditions that a control function must satisfy for its
maps to preserve betweenness, the two-generator modulus they produce,
pseudolinear quadruple detection, and Menger-style line embedding.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .moduli import CompositeModulus, Modulus, _inv_eta, _vectorized
from .report import Report
from .spaces import (DEFAULT_TOL, PointMap, SemimetricSpace, _equal, _scaled, _unscaled,
                     _valid_tol, _worst)
from .triangle import _QUAD_ORDERINGS, _distinct, _pair_rows

#: sample count for the generator monotonicity probe on [0, 1]
GENERATOR_GRID = 128

#: default partition sample count for the two equality conditions
PARTITION_SAMPLES = 512

#: array rows turned into Python tuples at a time
_ROWS_AT_A_TIME = 4096


class BetweennessTriple(NamedTuple):
    """y between x and z, with the realized equality slack."""

    x: int
    y: int
    z: int
    slack: float


def _between_columns(D: np.ndarray, tol: float):
    """The betweenness triples of D as int32 arrays x, y, z and a float64
    slack array, with x < z, in (x, z, y) order: each pair row (x, z)
    against every y, on the distances of :func:`spaces._scaled`, with the
    slacks scaled back.  Each block's hits are kept as arrays and joined
    at the end, one column at a time, so no Python object is made per
    triple and the peak is 28 bytes per triple."""
    _valid_tol(tol)
    D, s = _scaled(D)
    columns = tuple([np.empty(0, dtype)] for dtype in (np.int32,) * 3 + (float,))
    for xa, xb, lo, hi in _pair_rows(len(D)):
        direct = D[xa:xb, lo:hi, None]
        through = D[xa:xb, None] + D[None, lo:hi]  # d(x, y) + d(y, z)
        ok = _equal(direct, through, tol)
        _distinct(ok, xa, xb, lo, hi)  # y != x, z; z > x
        if not ok.any():
            continue
        x, z, y = np.nonzero(ok)
        slack = _unscaled(np.abs(direct[x, z, 0] - through[x, z, y]), s)
        hits = (x + xa).astype(np.int32), y.astype(np.int32), (z + lo).astype(np.int32), slack
        for parts, hit in zip(columns, hits):
            parts.append(hit)
    joined = []
    for parts in columns:  # each column's pieces go before the next is joined
        joined.append(np.concatenate(parts))
        parts.clear()
    return tuple(joined)


def _named_rows(cls, columns):
    """The named tuples ``cls`` of the rows of equal-length arrays, as Python
    numbers, converted :data:`_ROWS_AT_A_TIME` rows at a time."""
    for lo in range(0, len(columns[0]), _ROWS_AT_A_TIME):
        rows = zip(*(c[lo:lo + _ROWS_AT_A_TIME].tolist() for c in columns))
        # tuple.__new__ runs in C, the named tuple's generated __new__ in Python
        yield from map(tuple.__new__, repeat(cls), rows)


class BetweennessTriples(Sequence):
    """The betweenness triples of a space, read-only, in (x, z, y) order.

    The triples live in the int32 arrays ``x``, ``y``, ``z`` and the
    float64 array ``slack``, 20 bytes per triple; a
    :class:`BetweennessTriple` of Python ints and a float is made only when
    one is read.  Indexing takes an int, negative ones too, or a slice,
    which gives a view of the same kind.  Equal to another instance, or to
    a list or tuple, with the same triples in the same order.
    """

    __slots__ = ("x", "y", "z", "slack")

    def __init__(self, x, y, z, slack):
        for name, column in zip(self.__slots__, (x, y, z, slack)):
            column = np.asarray(column).view()
            column.flags.writeable = False
            setattr(self, name, column)

    def _columns(self):
        return self.x, self.y, self.z, self.slack

    def __len__(self) -> int:
        return len(self.slack)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BetweennessTriples(*(c[i] for c in self._columns()))
        i = operator.index(i)
        return BetweennessTriple(*(c[i].item() for c in self._columns()))

    def __iter__(self):
        return _named_rows(BetweennessTriple, self._columns())

    def __eq__(self, other):
        if isinstance(other, BetweennessTriples):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} triples>"


def betweenness_triples(
    space: SemimetricSpace, tol: float = DEFAULT_TOL
) -> BetweennessTriples:
    """All triples with y between x and z, canonicalized to x < z and
    sorted by (x, z, y), as a :class:`BetweennessTriples` of 20 bytes per
    triple: it holds arrays, not one object per triple."""
    return BetweennessTriples(*_between_columns(np.asarray(space.dist), tol))


class BetweennessViolation(NamedTuple):
    """A domain betweenness triple whose image equality breaks."""

    x: int
    y: int
    z: int
    domain_slack: float
    image_slack: float


@dataclass(frozen=True)
class BetweennessPreservationReport(Report):
    """Do domain betweenness triples stay degenerate in the image?"""

    holds: bool
    checked: int
    violations: tuple  # of BetweennessViolation
    tol: float


def preserves_betweenness(
    f: PointMap, tol: float = DEFAULT_TOL
) -> BetweennessPreservationReport:
    """Check that every domain betweenness triple maps to an image triple
    satisfying the same additive equality within tol; both sides read
    their distances through :func:`spaces._scaled`, and the image side
    is gathered from the domain's triple arrays."""
    xs, ys, zs, slacks = _between_columns(np.asarray(f.domain.dist), tol)
    R, s = _scaled(f.image_matrix())
    direct = R[xs, zs]
    through = R[xs, ys] + R[ys, zs]
    image = _unscaled(np.abs(direct - through), s)
    bad = ~_equal(direct, through, tol)
    violations = tuple(_named_rows(BetweennessViolation,
                                   [c[bad] for c in (xs, ys, zs, slacks, image)]))
    return BetweennessPreservationReport(not violations, len(xs), violations, tol)


class PartitionViolation(NamedTuple):
    """A partition sample t1 + t2 = 1 that no betweenness-preserving map
    could realize, with both sums."""

    t1: float
    t2: float
    sum: float
    reciprocal_sum: float


@dataclass(frozen=True)
class PartitionConditionsReport(Report):
    """The two equality conditions on partitions t1 + t2 = 1.

    Sufficiency: eta(t1) + eta(t2) = 1 and 1/eta(1/t1) + 1/eta(1/t2) = 1
    at every sample.  Necessity flags samples a betweenness-preserving
    map could never realize: reciprocal sum above 1 or direct sum below
    1.  The necessity scan runs on the whole sample grid, which is wider
    than what any single map realizes; it is labeled accordingly.
    """

    holds: bool
    sufficiency_holds: bool
    max_sum_defect: float
    max_reciprocal_defect: float
    necessity_violations: tuple  # of PartitionViolation
    samples: int
    necessity_scope: str
    tol: float


def check_l02_conditions(
    eta: Modulus,
    samples: Optional[Sequence[float]] = None,
    count: int = PARTITION_SAMPLES,
    tol: float = 1e-10,
) -> PartitionConditionsReport:
    """Evaluate the partition conditions at t1 = samples (t2 = 1 - t1).

    Each sum equals 1 within tol by the equality rule of
    :func:`spaces._valid_tol`; a reported maximum defect is taken over the
    failing samples, or over all samples when none fails.  Defaults to
    ``count`` interior samples i/(count+1).  Pass explicit samples to probe
    particular ratios.
    """
    _valid_tol(tol)
    if samples is None:
        t1 = np.arange(1, count + 1, dtype=float) / (count + 1)
    else:
        t1 = np.asarray(samples, dtype=float)
        if np.any(t1 <= 0) or np.any(t1 >= 1):
            raise ValueError("partition samples must lie strictly inside (0, 1)")
    t2 = 1.0 - t1

    direct = np.asarray(eta.eval(t1), dtype=float) + np.asarray(
        eta.eval(t2), dtype=float
    )
    recip = _inv_eta(eta, 1.0 / t1) + _inv_eta(eta, 1.0 / t2)
    sum_defect, sum_ok = np.abs(direct - 1.0), _equal(1.0, direct, tol)
    recip_defect, recip_ok = np.abs(recip - 1.0), _equal(1.0, recip, tol)
    sufficiency = bool(sum_ok.all() and recip_ok.all())

    flagged = (recip * (1.0 - tol) > 1.0) | (direct < 1.0 - tol)
    violations = tuple(
        PartitionViolation(float(t1[i]), float(t2[i]), float(direct[i]), float(recip[i]))
        for i in np.nonzero(flagged)[0])
    return PartitionConditionsReport(
        sufficiency and not violations, sufficiency, float(sum_defect[_worst(sum_defect, sum_ok)]),
        float(recip_defect[_worst(recip_defect, recip_ok)]), violations, len(t1),
        "grid-extrapolated", tol)


def power_generator(n: float) -> Callable:
    """The generator x -> x**n / 2 (monotone, 0 at 0, 1/2 at 1).  Its
    ``complement`` is x -> 1/2 - f(1 - x) = -expm1(n log1p(-x)) / 2, which
    keeps its digits where 1 - x rounds to 1."""
    if n <= 0:
        raise ValueError("exponent must be positive")

    def gen(x):
        return np.asarray(x, dtype=float) ** n / 2.0

    def complement(x):
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf, expm1(-inf) = -1
            return -np.expm1(n * np.log1p(-np.asarray(x, dtype=float))) / 2.0

    gen.label = f"x^{n:g}/2"
    gen.complement = complement
    return gen


def _check_generator(fn, which: str):
    v0 = float(np.asarray(fn(0.0)))
    if abs(v0) > 1e-12:
        raise ValidationError(f"{which}(0) = {v0:.6g}, expected 0")
    v1 = float(np.asarray(fn(1.0)))
    if abs(v1 - 0.5) > 1e-12:
        raise ValidationError(f"{which}(1) = {v1:.6g}, expected 1/2")
    grid = np.linspace(0.0, 1.0, GENERATOR_GRID)
    vals = np.asarray(_vectorized(fn)(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{which} is not finite on [0, 1]")
    diffs = np.diff(vals)
    if np.any(diffs <= 0):
        k = int(np.argmax(diffs <= 0))
        raise ValidationError(
            f"{which} is not strictly increasing near x = {grid[k]:.6g}"
        )


def eta_from_generators(f1: Callable, f2: Callable, label: str = "k8") -> Modulus:
    """Build the two-branch modulus from generators on [0, 1]:

        eta(t) = 1/2 + f1(t) - f1(1 - t)              for t in [0, 1],
        eta(t) = 1 / (1/2 + f2(1/t) - f2(1 - 1/t))    for t > 1.

    Generators must be strictly increasing with f(0) = 0 and f(1) = 1/2;
    both branches then agree at t = 1 with eta(1) = 1, and maps verified
    by such a modulus satisfy the partition equalities exactly.

    A generator without a ``complement`` attribute (a plain callable) loses
    digits below t = 2**-10, and above 2**10 on the f2 branch: with f1 the
    lambda x**2 / 2, eta(1e-10) reads 1.0000000827e-10 and eta(1e-20)
    reads 0.  :func:`power_generator` carries its complement and keeps them.
    """
    _check_generator(f1, "f1")
    _check_generator(f2, "f2")
    return CompositeModulus(f1, f2, label=label)


@dataclass(frozen=True)
class QuadrupleShape(Report):
    """Result of pattern-matching a 4-point space against side pattern
    (t, s, t, s) with both diagonals s + t."""

    ordering: Optional[tuple]
    s: Optional[float]
    t: Optional[float]

    @property
    def found(self) -> bool:
        return self.ordering is not None

    def to_dict(self):
        return {"found": self.found, **super().to_dict()}


def detect_pseudolinear(
    space: SemimetricSpace, tol: float = DEFAULT_TOL
) -> QuadrupleShape:
    """Match a 4-point space against the pseudolinear pattern.

    Tries the three diagonal pairings in a fixed order and returns the
    first ordering whose opposite sides agree pairwise and whose equal
    diagonals are the sum of adjacent sides, all within tol.
    """
    if space.n != 4:
        raise ValueError("pseudolinear detection needs exactly 4 points")
    _valid_tol(tol)
    D = np.asarray(space.dist)
    for a, b, c, d in _QUAD_ORDERINGS:
        t_pair = (D[a, b], D[c, d])
        s_pair = (D[b, c], D[d, a])
        diag = (D[a, c], D[b, d])
        t = (t_pair[0] + t_pair[1]) / 2.0
        s = (s_pair[0] + s_pair[1]) / 2.0
        if all(abs(u - v) <= tol * max(u, v)
               for u, v in (t_pair, s_pair, diag, (diag[0], s + t))):
            return QuadrupleShape((a, b, c, d), float(s), float(t))
    return QuadrupleShape(None, None, None)


def line_embed(
    space: SemimetricSpace, tol: float = DEFAULT_TOL
) -> Optional[np.ndarray]:
    """Isometric coordinates on the real line, or None.

    The lexicographically smallest diametrical pair (a, b) anchors at 0
    and d(a, b); every other point lands at +/- d(a, p) with the sign
    fixed by d(b, p); all pairs are then verified within tol * diameter.
    """
    _valid_tol(tol)
    n = space.n
    D = np.asarray(space.dist)
    coords = np.zeros(n)
    if n == 1:
        return coords
    diam = float(np.max(D))
    a, b = divmod(int(np.argmax(D == diam)), n)  # D is symmetric, so a < b
    coords[a] = 0.0
    coords[b] = D[a, b]
    slack = tol * diam
    for p in range(n):
        if p == a or p == b:
            continue
        xp = D[a, p]
        if abs(abs(coords[b] - xp) - D[b, p]) <= slack:
            coords[p] = xp
        elif abs((coords[b] + xp) - D[b, p]) <= slack:
            coords[p] = -xp
        else:
            return None
    gaps = np.abs(np.abs(coords[:, None] - coords[None, :]) - D)
    if np.max(gaps) > slack:
        return None
    return coords
