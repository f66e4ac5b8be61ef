"""Core data model: finite semimetric spaces, subsets, point maps.

A semimetric space here is a finite labeled point set with a symmetric
distance matrix that vanishes exactly on the diagonal and is strictly
positive off it.  Nothing more is assumed: the triangle inequality and its
relatives are properties to be *checked*, not prerequisites (see the
``triangle`` module).

All types are immutable; distance matrices are stored as read-only float64
arrays.  Use :func:`build_space` / :func:`build_map` instead of the raw
constructors, since only those enforce the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .moduli import _vectorized

DEFAULT_TOL = 1e-9
#: relative tolerance for bucketing distances into spectrum ranks
RANK_TOL = 1e-9


def _valid_tol(tol: float) -> float:
    """Return ``tol`` if it is finite and >= 0, else raise ValueError.

    Every check that takes a ``tol`` passes it through here, and applies
    this one rule, which no scaling d -> c d of the distances can flip:

    - ``lhs <= rhs`` holds within tol iff ``rhs - lhs >= -tol * lhs``;
    - an equality ``a = b`` holds iff both directions do, that is
      ``|a - b| <= tol * max(a, b)``;
    - a defect that should be zero is measured against the space's largest
      distance: the asymmetry, diagonal and sign tests of
      :func:`build_space`, and the residuals of ``line_embed``.

    A NaN side fails.  Reports keep the absolute margin ``rhs - lhs``, and
    their witness is its first minimum, unless that one is within its floor
    while a check fails: then it is the first violation.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


def _scaled(D: np.ndarray, axis=None):
    """(D 2**-s, s): the one float-range rule of every kernel that scales.

    Every property checked here is unchanged when all distances are
    multiplied by one constant, and multiplying by a power of two is exact
    while every entry stays a normal float, so a kernel may work on this
    copy and scale its report back with :func:`_unscaled`.  s is the binary
    exponent of the largest entry, which puts it in [1/2, 1): no sum of
    entries and no product of two can overflow.  s is clamped so that the
    least positive entry stays a normal float and, above that, so that the
    largest stays below 2**1021, where a sum of two entries, doubled, is
    finite.  The clamp acts only when the positive entries span more than
    2**1021; the largest scaled entry is then 1 or more.  With ``axis``,
    each slice along it gets its own s, an int array that broadcasts
    against D.  Returns D itself when s = 0.
    """
    D = np.asarray(D)
    keep = axis is not None
    top = np.max(D, axis=axis, keepdims=keep, initial=0.0)
    least = np.min(D, axis=axis, keepdims=keep, where=D > 0, initial=np.inf)
    e = np.frexp(top)[1]
    s = np.maximum(e - 1021, np.minimum(e, np.frexp(np.minimum(least, top))[1] + 1021))
    if not keep:
        s = int(s)
        if not s:
            return D, 0
    return np.ldexp(D, -s), s


#: the least normal float
_TINY = np.finfo(float).tiny


def _unscaled(v, s) -> np.ndarray:
    """v 2**s, the report side of :func:`_scaled`: a value beyond the float
    range reads +-inf, and a nonzero one below it reads +-0.0, its sign
    kept."""
    with np.errstate(over="ignore"):
        return np.ldexp(v, s)


def _wide(M: np.ndarray) -> bool:
    """Whether the positive entries of M span 2**1022 or more.  Otherwise
    the quotient of any two of them is a normal float."""
    top = float(np.max(M, initial=0.0))
    return top >= float(np.min(M, where=M > 0, initial=np.inf)) * 2.0 ** 1022


def _equal(direct, through, tol: float) -> np.ndarray:
    """direct = through within tol, as the two compares
    direct (1 - tol) <= through <= direct / (1 - tol)."""
    high = direct / (1.0 - tol) if tol < 1.0 else np.inf
    return (through >= direct * (1.0 - tol)) & (through <= high)


def _worst(defect: np.ndarray, ok: np.ndarray) -> int:
    """The first largest defect among the samples that fail, or among all
    samples when none fails; a NaN defect is the largest."""
    return int(np.argmax(defect if ok.all() else np.where(ok, -np.inf, defect)))


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SemimetricSpace:
    """A finite set of labeled points with pairwise distances.

    Attributes
    ----------
    labels : tuple of str
        Point names, pairwise distinct.
    dist : ndarray, shape (n, n)
        Read-only symmetric matrix; zero diagonal, positive off-diagonal.
    """

    labels: tuple
    dist: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def subspace(self, indices: Sequence[int]) -> "SemimetricSpace":
        """The induced space on ``indices`` (order kept, no revalidation)."""
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx)
        sub = self.dist[np.ix_(idx, idx)]
        return SemimetricSpace(labels, _frozen_array(sub))

    def __eq__(self, other):
        if not isinstance(other, SemimetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)

    def __repr__(self):
        return f"SemimetricSpace(n={self.n}, labels={list(self.labels[:4])}...)"


@dataclass(frozen=True)
class SubsetRef:
    """A reference to a nonempty subset of a space's points.

    Indices are stored sorted ascending and deduplicated.
    """

    space: SemimetricSpace
    indices: tuple

    def __post_init__(self):
        idx = sorted(set(int(i) for i in self.indices))
        if not idx:
            raise ValueError("empty subset")
        if idx[0] < 0 or idx[-1] >= self.space.n:
            raise ValueError(f"subset indices out of range 0..{self.space.n - 1}")
        object.__setattr__(self, "indices", tuple(idx))

    def issubset(self, other: "SubsetRef") -> bool:
        return self.space is other.space and set(self.indices) <= set(other.indices)

    @property
    def labels(self):
        return tuple(self.space.labels[i] for i in self.indices)


@dataclass(frozen=True, eq=False)
class PointMap:
    """A map between two spaces, stored as an index assignment array.

    ``assignment[i]`` is the codomain index of the image of domain point i.
    ``bijective`` records that bijectivity was requested and validated at
    build time; :meth:`is_bijection` computes the fact itself.
    """

    domain: SemimetricSpace
    codomain: SemimetricSpace
    assignment: np.ndarray
    bijective: bool = False

    def __post_init__(self):
        object.__setattr__(self, "assignment", _frozen_array(self.assignment, dtype=int))

    def image_index(self, i: int) -> int:
        return int(self.assignment[i])

    def image_dist(self, i: int, j: int) -> float:
        return float(self.codomain.dist[self.assignment[i], self.assignment[j]])

    def image_matrix(self) -> np.ndarray:
        """Pulled-back codomain distances: R[i, j] = rho(f(i), f(j))."""
        a = self.assignment
        return self.codomain.dist[np.ix_(a, a)]

    def is_bijection(self) -> bool:
        if self.domain.n != self.codomain.n:
            return False
        return len(set(self.assignment.tolist())) == self.codomain.n

    def inverse(self) -> "PointMap":
        if not self.is_bijection():
            raise ValidationError("cannot invert: assignment is not a bijection")
        inv = np.empty(self.codomain.n, dtype=int)
        inv[self.assignment] = np.arange(self.domain.n)
        return PointMap(self.codomain, self.domain, _frozen_array(inv, dtype=int), True)


# ----------------------------------------------------------------------
# construction and basic operations


def build_space(labels: Sequence[str], matrix, tol: float = DEFAULT_TOL) -> SemimetricSpace:
    """Validate a distance matrix and return an immutable space.

    Asymmetry up to ``tol`` (relative to the largest entry) is repaired by
    averaging the entries that differ from their transpose, so a symmetric
    matrix is stored as given; beyond it, :class:`ValidationError` is raised.
    Diagonal noise within the tolerance is snapped to exact zero.  Off-diagonal entries
    must be strictly positive: an exact zero, slightly negative or clearly
    negative value raises :class:`ValidationError`, each with its own
    message.
    """
    _valid_tol(tol)
    labels = tuple(str(l) for l in labels)
    if len(set(labels)) != len(labels):
        seen = set()
        dup = next(l for l in labels if l in seen or seen.add(l))
        raise ValidationError(f"label {dup!r} appears more than once")
    m = np.array(matrix, dtype=float)
    n = len(labels)
    if n == 0:
        raise ValidationError("a space needs at least one point")
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} labels")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")

    scale = max(float(np.max(np.abs(m))), 1e-300)
    half = np.abs(0.5 * m - 0.5 * m.T)  # on halves no difference can overflow
    k = int(np.argmax(half))
    asym = 2.0 * float(half.flat[k])
    del half  # a live n x n array slows the allocations below
    if asym > tol * scale:
        i, j = np.unravel_index(k, m.shape)
        raise ValidationError(
            f"d({labels[i]},{labels[j]}) != d({labels[j]},{labels[i]}) "
            f"(difference {asym:.3g} exceeds tol)"
        )
    if asym:  # halves first: no sum can overflow
        m = np.where(m == m.T, m, 0.5 * m + 0.5 * m.T)

    diag = np.diagonal(m)
    if np.any(np.abs(diag) > tol * scale):
        i = int(np.argmax(np.abs(diag)))
        if diag[i] < 0:
            raise ValidationError(f"negative diagonal entry at {labels[i]!r}: {diag[i]:.3g}")
        raise ValidationError(f"nonzero diagonal entry at {labels[i]!r}: {diag[i]:.3g}")
    np.fill_diagonal(m, 0.0)

    off = ~np.eye(n, dtype=bool)
    neg = off & (m < -tol * scale)
    if np.any(neg):
        i, j = np.argwhere(neg)[0]
        raise ValidationError(f"d({labels[i]},{labels[j]}) = {m[i, j]:.3g} < 0")
    bad = off & (m <= 0.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"distinct points {labels[i]!r}, {labels[j]!r} at distance <= 0")

    return SemimetricSpace(labels, _frozen_array(m))


def diameter(subset: SubsetRef) -> float:
    """Largest pairwise distance within the subset (0 for a singleton)."""
    idx = list(subset.indices)
    if len(idx) < 2:
        return 0.0
    return float(np.max(subset.space.dist[np.ix_(idx, idx)]))


def transform_distances(
    space: SemimetricSpace, scaler: Callable, tol: float = DEFAULT_TOL
) -> SemimetricSpace:
    """Apply ``scaler`` elementwise to every distance.

    The scaler must fix 0 and be strictly increasing.  On the space's
    spectrum its float values must fix 0 and never decrease; two distances
    may round to one value (:class:`ValidationError` otherwise).
    :func:`build_space` decides whether the result is a semimetric.
    """
    g = _vectorized(scaler)
    sp = np.unique(space.dist)  # the spectrum, 0 first
    scaled = np.asarray(g(sp), dtype=float)
    if not np.all(np.isfinite(scaled)):
        raise ValidationError("scaler produced non-finite values on the spectrum")
    if scaled[0] != 0.0:
        raise ValidationError(f"scaler(0) = {scaled[0]:.3g}, expected 0")
    if np.any(np.diff(scaled) < 0):
        k = int(np.argmax(np.diff(scaled) < 0))
        raise ValidationError(
            f"scaler not strictly increasing on the spectrum: "
            f"g({sp[k]:.6g}) = {scaled[k]:.6g}, g({sp[k + 1]:.6g}) = {scaled[k + 1]:.6g}"
        )
    new = np.asarray(g(space.dist.ravel()), dtype=float).reshape(space.dist.shape)
    return build_space(space.labels, new, tol=tol)


def transform_map(
    space: SemimetricSpace, scaler: Callable, tol: float = DEFAULT_TOL
) -> PointMap:
    """Identity-assignment map from a space onto its transformed copy."""
    codomain = transform_distances(space, scaler, tol=tol)
    return PointMap(space, codomain, _frozen_array(np.arange(space.n), dtype=int), True)


def snowflake(space: SemimetricSpace, alpha: float) -> SemimetricSpace:
    """The space with every distance raised to the power ``alpha > 0``."""
    if alpha <= 0:
        raise ValueError("snowflake exponent must be positive")
    return transform_distances(space, lambda d: d ** alpha)


def snowflake_map(space: SemimetricSpace, alpha: float) -> PointMap:
    if alpha <= 0:
        raise ValueError("snowflake exponent must be positive")
    return transform_map(space, lambda d: d ** alpha)


def build_map(
    domain: SemimetricSpace,
    codomain: SemimetricSpace,
    assignment,
    require_bijective: bool = False,
) -> PointMap:
    """Build a point map from a label-to-label assignment.

    ``assignment`` is a mapping or an iterable of (domain label, codomain
    label) pairs; every domain label must appear exactly once and every
    target must exist.  With ``require_bijective`` the assignment must be a
    bijection onto the codomain.  Each failure is a
    :class:`ValidationError`.
    """
    if isinstance(assignment, Mapping):
        pairs = list(assignment.items())
    else:
        pairs = [(a, b) for a, b in assignment]

    cod_index = {lab: i for i, lab in enumerate(codomain.labels)}
    dom_index = {lab: i for i, lab in enumerate(domain.labels)}
    seen = {}
    for src, dst in pairs:
        src, dst = str(src), str(dst)
        if src not in dom_index:
            raise ValidationError(f"{src!r} is not a point of the domain")
        if src in seen:
            raise ValidationError(f"domain point {src!r} assigned more than once")
        if dst not in cod_index:
            raise ValidationError(f"target {dst!r} is not a point of the codomain")
        seen[src] = cod_index[dst]
    missing = [lab for lab in domain.labels if lab not in seen]
    if missing:
        raise ValidationError(f"domain point {missing[0]!r} has no image")

    arr = np.array([seen[lab] for lab in domain.labels], dtype=int)
    bij = len(set(arr.tolist())) == codomain.n and domain.n == codomain.n
    if require_bijective and not bij:
        raise ValidationError("assignment is not a bijection onto the codomain")
    return PointMap(domain, codomain, _frozen_array(arr, dtype=int), bij)


def identity_map(space: SemimetricSpace) -> PointMap:
    return PointMap(space, space, _frozen_array(np.arange(space.n), dtype=int), True)
