"""Metric betweenness, its preservation, and line structure.

y lies between x and z when d(x,z) = d(x,y) + d(y,z), an equality within
tol (:func:`spaces._valid_tol`).  On top of the raw triple scan sit
the partition conditions that a control function must satisfy for its
maps to preserve betweenness, the two-generator modulus they produce,
pseudolinear quadruple detection, and Menger-style line embedding.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    GeneratorEndpointViolation,
    GeneratorNotIncreasing,
    PreconditionFailed,
)
from .moduli import CompositeModulus, Modulus, _vectorized
from .quasisymmetry import image_subset
from .report import Report
from .spaces import DEFAULT_TOL, PointMap, SemimetricSpace, SubsetRef, _valid_tol
from .triangle import _QUAD_ORDERINGS, _pair_rows

#: sample count for the generator monotonicity probe on [0, 1]
GENERATOR_GRID = 128

#: default partition sample count for the two equality conditions
PARTITION_SAMPLES = 512


class BetweennessTriple(NamedTuple):
    """y between x and z, with the realized equality slack."""

    x: int
    y: int
    z: int
    slack: float


def _equal(direct: np.ndarray, through: np.ndarray, tol: float) -> np.ndarray:
    """direct = through within tol, as the two compares
    direct (1 - tol) <= through <= direct / (1 - tol)."""
    high = direct / (1.0 - tol) if tol < 1.0 else np.inf
    return (through >= direct * (1.0 - tol)) & (through <= high)


def _between_columns(D: np.ndarray, tol: float):
    """The betweenness triples of D as four lists x, y, z, slack, with
    x < z, in (x, z, y) order: each pair row (x, z) against every y."""
    _valid_tol(tol)
    xs, ys, zs, slacks = [], [], [], []
    for x, lo, hi in _pair_rows(len(D)):
        direct = D[x, lo:hi, None]
        through = D[x] + D[lo:hi]  # d(x, y) + d(y, z)
        ok = _equal(direct, through, tol)
        ok[:, x] = False
        np.fill_diagonal(ok[:, lo:hi], False)
        z, y = np.nonzero(ok)
        xs += [x] * len(z)
        ys += y.tolist()
        zs += (z + lo).tolist()
        slacks += np.abs(direct[z, 0] - through[z, y]).tolist()
    return xs, ys, zs, slacks


def betweenness_triples(
    space: SemimetricSpace, tol: float = DEFAULT_TOL
) -> list:
    """All triples with y between x and z, canonicalized to x < z and
    sorted by (x, z, y).  The cyclic garbage collector is paused while the
    list is built and switched back on afterwards only if it was on before."""
    columns = _between_columns(np.asarray(space.dist), tol)
    # the tuples hold no references back, so the cyclic collector that
    # their allocation would trigger over and over can find nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(BetweennessTriple, *columns))
    finally:
        if enabled:
            gc.enable()


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
    satisfying the same additive equality within tol."""
    xs, ys, zs, slacks = _between_columns(np.asarray(f.domain.dist), tol)
    R = f.image_matrix()
    direct = R[xs, zs]
    through = R[xs, ys] + R[ys, zs]
    image = np.abs(direct - through)
    bad = np.flatnonzero(~_equal(direct, through, tol)).tolist()
    violations = tuple(
        BetweennessViolation(xs[i], ys[i], zs[i], slacks[i], float(image[i])) for i in bad
    )
    return BetweennessPreservationReport(not bad, len(xs), violations, tol)


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

    Defaults to ``count`` interior samples i/(count+1).  Pass explicit
    samples to probe particular ratios.
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
    with np.errstate(over="ignore", divide="ignore"):
        recip = np.exp(-np.asarray(eta.log_eval(1.0 / t1), dtype=float)) + np.exp(
            -np.asarray(eta.log_eval(1.0 / t2), dtype=float)
        )
    sum_defect = np.abs(direct - 1.0)
    recip_defect = np.abs(recip - 1.0)
    sufficiency = bool(np.max(sum_defect) <= tol and np.max(recip_defect) <= tol)

    flagged = (recip * (1.0 - tol) > 1.0) | (direct < 1.0 - tol)
    violations = tuple(
        PartitionViolation(float(t1[i]), float(t2[i]), float(direct[i]), float(recip[i]))
        for i in np.nonzero(flagged)[0])
    return PartitionConditionsReport(
        sufficiency and not violations, sufficiency, float(np.max(sum_defect)),
        float(np.max(recip_defect)), violations, len(t1), "grid-extrapolated", tol)


def power_generator(n: float) -> Callable:
    """The generator x -> x**n / 2 (monotone, 0 at 0, 1/2 at 1)."""
    if n <= 0:
        raise ValueError("exponent must be positive")

    def gen(x):
        return np.asarray(x, dtype=float) ** n / 2.0

    gen.label = f"x^{n:g}/2"
    return gen


def _check_generator(fn, which: str):
    v0 = float(np.asarray(fn(0.0)))
    if abs(v0) > 1e-12:
        raise GeneratorEndpointViolation(f"{which}(0) = {v0:.6g}, expected 0")
    v1 = float(np.asarray(fn(1.0)))
    if abs(v1 - 0.5) > 1e-12:
        raise GeneratorEndpointViolation(f"{which}(1) = {v1:.6g}, expected 1/2")
    grid = np.linspace(0.0, 1.0, GENERATOR_GRID)
    vals = np.asarray(_vectorized(fn)(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise GeneratorNotIncreasing(f"{which} is not finite on [0, 1]")
    diffs = np.diff(vals)
    if np.any(diffs <= 0):
        k = int(np.argmax(diffs <= 0))
        raise GeneratorNotIncreasing(
            f"{which} is not strictly increasing near x = {grid[k]:.6g}"
        )


def eta_from_generators(f1: Callable, f2: Callable, label: str = "k8") -> Modulus:
    """Build the two-branch modulus from generators on [0, 1]:

        eta(t) = 1/2 + f1(t) - f1(1 - t)              for t in [0, 1],
        eta(t) = 1 / (1/2 + f2(1/t) - f2(1 - 1/t))    for t > 1.

    Generators must be strictly increasing with f(0) = 0 and f(1) = 1/2;
    both branches then agree at t = 1 with eta(1) = 1, and maps verified
    by such a modulus satisfy the partition equalities exactly.
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


@dataclass(frozen=True)
class ImageStructureReport(Report):
    """Line and quadruple structure of a subset versus its image."""

    holds: bool
    line_preserved: bool
    quadruple_preserved: bool
    domain_line: Optional[np.ndarray]
    image_line: Optional[np.ndarray]
    domain_quadruple: Optional[QuadrupleShape]
    image_quadruple: Optional[QuadrupleShape]
    tol: float


def betweenness_image_structure(
    f: PointMap, A: SubsetRef, tol: float = DEFAULT_TOL
) -> ImageStructureReport:
    """For a betweenness-preserving map, line-embeddable subsets must map
    to line-embeddable images and pseudolinear quadruples to pseudolinear
    quadruples; this report checks both directions of that claim on A."""
    pres = preserves_betweenness(f, tol)
    if not pres.holds:
        v = pres.violations[0]
        raise PreconditionFailed(
            f"betweenness preservation: triple ({v[0]}, {v[1]}, {v[2]}) breaks "
            f"with image slack {v[4]:.6g}"
        )
    if A.space is not f.domain:
        raise ValueError("subset must reference the domain of the map")
    dom_sub = f.domain.subspace(A.indices)
    img_sub = f.codomain.subspace(image_subset(f, A).indices)

    domain_line = line_embed(dom_sub, tol)
    image_line = line_embed(img_sub, tol)
    domain_quad = detect_pseudolinear(dom_sub, tol) if dom_sub.n == 4 else None
    image_quad = detect_pseudolinear(img_sub, tol) if img_sub.n == 4 else None

    line_ok = domain_line is None or image_line is not None
    quad_ok = (
        domain_quad is None
        or not domain_quad.found
        or (image_quad is not None and image_quad.found)
    )
    return ImageStructureReport(line_ok and quad_ok, line_ok, quad_ok, domain_line, image_line,
                                domain_quad, image_quad, tol)
