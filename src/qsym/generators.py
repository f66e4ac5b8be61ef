"""Deterministic example-space generators.

Every generator is a pure function of its parameters and the seed: equal
inputs give bitwise-equal matrices.  ``generate`` is the tag-dispatched
front door used by the command line; the per-kind functions are the
library API.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .spaces import SemimetricSpace, build_space


def euclidean_space(n: int, dim: int, seed: int = 0) -> SemimetricSpace:
    """n uniform random points in the unit cube of R^dim, Euclidean distances."""
    if n < 1:
        raise ValidationError("euclidean: need n >= 1")
    if dim < 1:
        raise ValidationError("euclidean: need dim >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    m = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(m, 0.0)
    return build_space([f"p{i}" for i in range(n)], m)


def ultrametric_space(n: int, seed: int = 0) -> SemimetricSpace:
    """Random ultrametric from a merge tree with strictly increasing heights.

    Clusters are merged one pair at a time; the k-th merge happens at a
    height strictly above all earlier ones, and every cross-pair of the two
    merged clusters gets that height as its distance.  The result satisfies
    d(x, y) <= max(d(x, z), d(y, z)) for all triples.
    """
    if n < 1:
        raise ValidationError("ultrametric: need n >= 1")
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    heights = np.cumsum(rng.uniform(0.1, 1.0, size=max(n - 1, 0)))
    for h in heights:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        for a in clusters[i]:
            for b in clusters[j]:
                m[a, b] = m[b, a] = h
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return build_space([f"p{i}" for i in range(n)], m)


def random_semimetric_space(n: int, seed: int = 0) -> SemimetricSpace:
    """Independent uniform (0, 1] distances; no triangle-type property."""
    if n < 1:
        raise ValidationError("random_semimetric: need n >= 1")
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = 1.0 - rng.random(len(iu[0]))
    m = m + m.T
    return build_space([f"p{i}" for i in range(n)], m)


def pseudolinear_quadruple(s: float, t: float) -> SemimetricSpace:
    """Four points with side pattern t, s, t, s and both diagonals s + t.

    Every three-point subset embeds in the real line, but the quadruple as
    a whole does not.
    """
    if not (s > 0 and t > 0):
        raise ValidationError("pseudolinear: need s > 0 and t > 0")
    s, t = float(s), float(t)
    d = s + t
    m = [
        [0, t, d, s],
        [t, 0, s, d],
        [d, s, 0, t],
        [s, d, t, 0],
    ]
    return build_space(["x1", "x2", "x3", "x4"], m)


def wilson_space(n: int) -> SemimetricSpace:
    """n + 2 points -1, 0, 1, 1/2, ..., 1/n on the line, with the distances
    from -1 to each 1/k shortened to 1/k.  A classical semimetric; the
    triangle inequality first fails at n = 3 (d(-1, 0) = 1 while the route
    through 1/3 has length 2/3)."""
    if n < 1:
        raise ValidationError("wilson: need n >= 1")
    coords = [Fraction(-1), Fraction(0)] + [Fraction(1, k) for k in range(1, n + 1)]
    labels = ["-1", "0"] + ["1" if k == 1 else f"1/{k}" for k in range(1, n + 1)]
    size = n + 2
    m = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            if i == 0 and j >= 2:
                d = coords[j]  # d(-1, 1/k) = 1/k
            else:
                d = abs(coords[i] - coords[j])
            m[i, j] = m[j, i] = float(d)
    return build_space(labels, m)


def collinear_space(coordinates: Sequence[float]) -> SemimetricSpace:
    """Points on the real line at the given (distinct) coordinates."""
    coords = [float(c) for c in coordinates]
    if len(coords) < 1:
        raise ValidationError("collinear: need at least one coordinate")
    if len(set(coords)) != len(coords):
        raise ValidationError("collinear: coordinates must be distinct")
    arr = np.array(coords)
    m = np.abs(arr[:, None] - arr[None, :])
    # the short label unless it rounds the coordinate (and so may repeat)
    labels = [f"{c:g}" if float(f"{c:g}") == c else repr(c) for c in coords]
    return build_space(labels, m)


_KINDS = {
    "euclidean": (euclidean_space, ("n", "dim"), True),
    "ultrametric": (ultrametric_space, ("n",), True),
    "random_semimetric": (random_semimetric_space, ("n",), True),
    "pseudolinear": (pseudolinear_quadruple, ("s", "t"), False),
    "wilson": (wilson_space, ("n",), False),
    "collinear": (collinear_space, ("coordinates",), False),
}


def generate(kind: str, seed: int = 0, **params) -> SemimetricSpace:
    """Dispatch on a generator tag; see the per-kind functions for meaning.

    Unknown tags, missing parameters, and out-of-range values all raise
    :class:`ValidationError`.
    """
    if kind not in _KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}; known: {sorted(_KINDS)}")
    fn, names, seeded = _KINDS[kind]
    missing = [p for p in names if p not in params]
    if missing:
        raise ValidationError(f"{kind}: missing parameter {missing[0]!r}")
    extra = [p for p in params if p not in names]
    if extra:
        raise ValidationError(f"{kind}: unexpected parameter {extra[0]!r}")
    args = [params[p] for p in names]
    if seeded:
        return fn(*args, seed=seed)
    return fn(*args)
