"""Weak similarity search, its certificates, and the bridges back to
quasisymmetry moduli."""

import itertools
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    BiLipschitzModulus,
    ExpRatioModulus,
    PointMap,
    PowerModulus,
    ScalingFunction,
    TooLarge,
    ValidationError,
    WeakSimilarity,
    brute_force_weak_similarity,
    build_space,
    check_involution_identity,
    check_monotone_implications,
    collinear_space,
    eta_from_generators,
    find_weak_similarity,
    power_generator,
    qs_from_weaksim,
    random_semimetric_space,
    space_ranks,
    transform_distances,
    euclidean_space,
    verify_weak_similarity,
)
from qsym.spaces import RANK_TOL

from conftest import naive_monotone_implications, naive_space_ranks


def relabeled_transform(space, perm, scaler):
    """A space weakly similar to `space` by construction: permute the
    points and push every distance through a strictly increasing map."""
    p = np.asarray(perm, dtype=int)
    D = np.asarray(space.dist)[np.ix_(p, p)]
    M = np.vectorize(scaler, otypes=[float])(D)
    np.fill_diagonal(M, 0.0)
    return build_space(tuple(f"y{i}" for i in range(space.n)), M)


# ------------------------------------------------------------ rank space


def test_space_ranks_line(line4):
    reps, ranks = space_ranks(line4)
    np.testing.assert_allclose(reps, [0.0, 1.0, 2.0, 3.0, 5.0, 6.0])
    assert ranks[0, 0] == 0
    assert ranks[0, 1] == 1 and ranks[1, 2] == 2
    assert ranks[0, 2] == 3 and ranks[2, 3] == 3
    assert ranks[1, 3] == 4 and ranks[0, 3] == 5


def test_space_ranks_buckets_near_ties():
    eps = 1e-12
    sp = build_space(
        ("a", "b", "c"),
        [[0.0, 1.0, 1.0 + eps], [1.0, 0.0, 2.0], [1.0 + eps, 2.0, 0.0]],
    )
    reps, ranks = space_ranks(sp)
    assert len(reps) == 3
    assert ranks[0, 1] == ranks[0, 2] == 1
    assert ranks[1, 2] == 2


def test_space_ranks_compare_with_the_bucket_representative():
    # no gap between neighbours exceeds tol, yet 1 + 1.2e-9 is more than
    # tol above the bucket's first value, 1, so it starts a bucket
    sp = build_space(
        ("a", "b", "c"),
        [[0.0, 1.0, 1.0 + 0.6e-9], [1.0, 0.0, 1.0 + 1.2e-9], [1.0 + 0.6e-9, 1.0 + 1.2e-9, 0.0]],
    )
    reps, ranks = space_ranks(sp)
    assert reps.tolist() == [0.0, 1.0, 1.0 + 1.2e-9]
    assert ranks.tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]


@st.composite
def rank_cases(draw):
    """(space, tol): a 2-valued cubic-graph space, integer lattice points
    under the Euclidean metric, a chain of near ties within RANK_TOL at
    scale 1e-12, 1 or 1e12, or one or two points."""
    kind = draw(st.sampled_from(["cubic", "lattice", "near-ties", "tiny"]))
    if kind == "cubic":
        n = 2 * draw(st.integers(2, 7))
        A = cubic_graph(n, np.random.default_rng(draw(st.integers(0, 2**16))))
        X = graph_space(A, near=draw(st.sampled_from([0.5, 1.0, 3.0])), far=4.0)
    elif kind == "lattice":
        pts = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                            min_size=2, max_size=10, unique=True))
        P = np.array(pts, dtype=float)
        D = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
        X = build_space(tuple(f"p{i}" for i in range(len(P))), D)
    elif kind == "near-ties":
        n = draw(st.integers(2, 8))
        scale = draw(st.sampled_from([1e-12, 1.0, 1e12]))
        step = draw(st.sampled_from([0.3, 0.6, 0.9, 1.1, 2.0])) * RANK_TOL
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = scale * (1.0 + draw(st.integers(0, 6)) * step)
        X = build_space(tuple(f"p{i}" for i in range(n)), D)
    else:
        X = draw(st.sampled_from([build_space(("p",), [[0.0]]),
                                  build_space(("p", "q"), [[0.0, 2.5], [2.5, 0.0]])]))
    return X, draw(st.sampled_from([RANK_TOL, 1e-3, 0.0]))


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_space_ranks_match_the_bisect_oracle(case):
    X, tol = case
    reps, ranks = space_ranks(X, tol)
    want_reps, want_ranks = naive_space_ranks(X, tol)
    assert reps.tobytes() == want_reps.tobytes()
    assert ranks.dtype == np.intp
    assert np.array_equal(ranks, want_ranks)


# ------------------------------------------------------ scaling functions


def test_scaling_function_basics():
    phi = ScalingFunction([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert phi(1.0) == 1.0
    assert phi(2.0) == 4.0
    assert phi(2.0 + 1e-12) == 4.0
    assert phi.pairs() == [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]
    assert phi == ScalingFunction([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert phi != ScalingFunction([0.0, 1.0, 2.0], [0.0, 1.0, 5.0])
    with pytest.raises(ValueError):
        phi(1.5)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_scaling_function_is_scale_free(scale):
    phi = ScalingFunction([0.0, scale, 2.0 * scale], [0.0, 1.0, 4.0])
    assert phi(0.0) == 0.0
    assert phi(scale) == 1.0
    assert phi(2.0 * scale * (1.0 + 1e-12)) == 4.0
    for off_spectrum in (1.5 * scale, 1e-3 * scale):
        with pytest.raises(ValueError):
            phi(off_spectrum)


def test_scaling_function_validation():
    with pytest.raises(ValueError):
        ScalingFunction([0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ScalingFunction([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ScalingFunction([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


# --------------------------------------------------------- forced scaling


def test_forced_scaling_squared_line():
    from qsym import forced_scaling

    X = collinear_space([0.0, 1.0, 2.0, 3.0])
    Y = transform_distances(X, lambda d: d * d)
    phi = forced_scaling(X, Y)
    assert phi is not None
    assert phi.pairs() == [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]


def test_forced_scaling_multiplicity_obstruction():
    from qsym import forced_scaling

    X = build_space(("a", "b", "c"), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    Y = build_space(("u", "v", "w"), [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    # spectra have equal size but the edge colored 1 appears twice in X
    # and once in Y
    assert forced_scaling(X, Y) is None
    assert find_weak_similarity(X, Y) is None
    assert brute_force_weak_similarity(X, Y) is None


def test_forced_scaling_size_mismatches(line3):
    from qsym import forced_scaling

    eq = build_space(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert forced_scaling(line3, eq) is None
    assert forced_scaling(line3, collinear_space([0.0, 1.0])) is None


# ----------------------------------------------------- search and oracle


@pytest.mark.parametrize("seed", range(8))
def test_search_finds_relabeled_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    X = random_semimetric_space(n, seed=seed)
    perm = rng.permutation(n)
    Y = relabeled_transform(X, perm, lambda d: d**1.5)
    ws = find_weak_similarity(X, Y)
    assert ws is not None
    assert verify_weak_similarity(ws)
    oracle = brute_force_weak_similarity(X, Y)
    assert oracle is not None
    assert verify_weak_similarity(oracle)


@pytest.mark.parametrize("seed", range(8))
def test_search_agrees_with_oracle_on_unrelated_pairs(seed):
    X = random_semimetric_space(6, seed=seed)
    Y = random_semimetric_space(6, seed=seed + 1000)
    ws = find_weak_similarity(X, Y)
    oracle = brute_force_weak_similarity(X, Y)
    assert (ws is None) == (oracle is None)


def test_search_on_self_returns_identity_class():
    X = random_semimetric_space(5, seed=3)
    ws = find_weak_similarity(X, X)
    assert ws is not None and verify_weak_similarity(ws)
    assert ws.phi.pairs() == [(v, v) for v in ws.phi.domain_values.tolist()]


def test_brute_force_size_guard():
    X = random_semimetric_space(10, seed=0)
    with pytest.raises(TooLarge):
        brute_force_weak_similarity(X, X)


def test_verify_rejects_tampering():
    X = collinear_space([0.0, 1.0, 3.0])
    Y = transform_distances(X, lambda d: 2.0 * d)
    ws = find_weak_similarity(X, Y)
    assert verify_weak_similarity(ws)
    # wrong spectrum isomorphism
    bad_phi = ScalingFunction(ws.phi.domain_values, ws.phi.codomain_values * 2.0)
    assert not verify_weak_similarity(WeakSimilarity(ws.f, bad_phi))
    # wrong bijection: swapping the endpoints of an asymmetric line
    # breaks rank preservation
    swapped = PointMap(X, Y, (2, 1, 0), bijective=True)
    assert not verify_weak_similarity(WeakSimilarity(swapped, ws.phi))


@pytest.mark.parametrize("scale", [1e-12, 1.0])
def test_verify_rejects_a_tampered_spectrum_at_any_scale(scale):
    X = transform_distances(euclidean_space(6, 2, seed=1), lambda d: scale * d)
    ws = find_weak_similarity(X, transform_distances(X, np.sqrt))
    assert verify_weak_similarity(ws)
    tripled = ws.phi.domain_values * 3.0  # 0 stays 0
    bad_phi = ScalingFunction(tripled, ws.phi.codomain_values)
    assert not verify_weak_similarity(WeakSimilarity(ws.f, bad_phi))


# ------------------------------------- individualization and refinement


def cubic_graph(n, rng):
    """Adjacency matrix of a uniform random simple 3-regular graph."""
    while True:
        ends = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        A = np.zeros((n, n), dtype=int)
        np.add.at(A, (ends[:, 0], ends[:, 1]), 1)
        A = A + A.T
        if np.all(np.diag(A) == 0) and A.max() == 1:
            return A


def cycles(n, count):
    """Adjacency matrix of ``count`` disjoint cycles of n / count points."""
    m = n // count
    A = np.zeros((n, n), dtype=int)
    for c in range(count):
        for i in range(m):
            a, b = c * m + i, c * m + (i + 1) % m
            A[a, b] = A[b, a] = 1
    return A


def graph_space(A, near=1.0, far=2.0, prefix="p"):
    """The 2-valued space of a graph: edges at ``near``, non-edges ``far``."""
    D = np.where(A == 1, near, far).astype(float)
    np.fill_diagonal(D, 0.0)
    return build_space(tuple(f"{prefix}{i}" for i in range(len(A))), D)


def distinct_by_invariants(A, B):
    """Adjacency spectra or sorted triangle counts differ, which no pair of
    isomorphic graphs allows."""
    if not np.allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B), atol=1e-8):
        return True
    tri = lambda M: np.sort(np.diag(M @ M @ M))  # noqa: E731
    return not np.array_equal(tri(A), tri(B))


def first_rank_preserving_bijection(X, Y):
    """The first bijection in lexicographic order that carries every rank
    of X onto the same rank of Y, by a loop over ``itertools``."""
    rkX = naive_space_ranks(X)[1].tolist()
    rkY = naive_space_ranks(Y)[1].tolist()
    n = X.n
    for perm in itertools.permutations(range(n)):
        if all(rkY[perm[i]][perm[j]] == rkX[i][j] for i in range(n) for j in range(n)):
            return perm
    return None


def _oracle_cases():
    rng = np.random.default_rng(11)
    ring, two_squares, cubic = cycles(8, 1), cycles(8, 2), cubic_graph(8, rng)
    # the octahedron: K6 minus a perfect matching
    octahedron = 1 - np.eye(6, dtype=int) - np.fliplr(np.eye(6, dtype=int))

    def relabelled(A, near, far):
        p = rng.permutation(len(A))
        return graph_space(A[p][:, p], near, far)

    return {
        "ring": (graph_space(ring), relabelled(ring, 3.0, 7.0)),
        "cubic": (graph_space(cubic), relabelled(cubic, 0.5, 4.0)),
        "octahedron": (graph_space(octahedron), relabelled(octahedron, 2.0, 9.0)),
        "ring-vs-squares": (graph_space(ring), graph_space(two_squares)),
    }


@pytest.mark.parametrize("block", [7, 5040])
@pytest.mark.parametrize("case", ["ring", "cubic", "octahedron", "ring-vs-squares"])
def test_oracle_returns_the_lexicographically_first_bijection(monkeypatch, case, block):
    from qsym import weak_similarity

    X, Y = _oracle_cases()[case]
    monkeypatch.setattr(weak_similarity, "_ORACLE_BLOCK", block)
    expect = first_rank_preserving_bijection(X, Y)
    got = brute_force_weak_similarity(X, Y)
    assert (expect is None) == (case == "ring-vs-squares")
    if expect is None:
        assert got is None
    else:
        assert tuple(got.f.assignment.tolist()) == expect and verify_weak_similarity(got)


@pytest.mark.parametrize("n", [24, 48])
def test_search_rejects_distinct_cubic_pairs(n):
    # every vertex of a cubic graph has the same rank counts, so only
    # refinement after individualization tells these spaces apart
    rng = np.random.default_rng(n)
    for _ in range(3):
        A, B = cubic_graph(n, rng), cubic_graph(n, rng)
        assert distinct_by_invariants(A, B)
        start = time.perf_counter()
        assert find_weak_similarity(graph_space(A), graph_space(B, prefix="q")) is None
        assert time.perf_counter() - start < 5.0


def test_search_finds_relabeled_cubic_pairs():
    rng = np.random.default_rng(48)
    for _ in range(3):
        A = cubic_graph(48, rng)
        X = graph_space(A)
        Y = relabeled_transform(X, rng.permutation(48), lambda d: 3.0 if d > 1 else 0.5)
        start = time.perf_counter()
        ws = find_weak_similarity(X, Y)
        assert time.perf_counter() - start < 5.0
        assert ws is not None and verify_weak_similarity(ws)


def test_search_rejects_one_cycle_against_two():
    # C48 and 2 x C24 are both 2-regular: colour refinement alone cannot
    # split them, and individualizing a point exposes the diameters
    X = graph_space(cycles(48, 1))
    Y = graph_space(cycles(48, 2), prefix="q")
    assert find_weak_similarity(X, Y) is None


def test_search_is_iterative_on_a_large_snowflake():
    # 200 points with distinct distances: one refinement makes every class
    # a singleton, and no step of the search may recurse per point
    X = euclidean_space(200, 2, seed=4)
    Y = relabeled_transform(X, np.random.default_rng(4).permutation(200), np.sqrt)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        ws = find_weak_similarity(X, Y)
    finally:
        sys.setrecursionlimit(limit)
    assert ws is not None and verify_weak_similarity(ws)


@st.composite
def few_valued_pairs(draw):
    """(X, Y) on 3-7 points with distances from a 2- or 3-value set.
    Either space may be circulant (vertex-transitive); Y is a relabelled
    transform of X or drawn independently."""
    n = draw(st.integers(3, 7))
    values = [1.0, 2.0, 3.0][: draw(st.integers(2, 3))]

    def space(prefix):
        if draw(st.booleans()):
            steps = [draw(st.sampled_from(values)) for _ in range(n // 2)]
            D = np.array([[steps[min(abs(i - j), n - abs(i - j)) - 1] if i != j else 0.0
                           for j in range(n)] for i in range(n)])
        else:
            D = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    D[i, j] = D[j, i] = draw(st.sampled_from(values))
        return build_space(tuple(f"{prefix}{i}" for i in range(n)), D)

    X = space("x")
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        return X, relabeled_transform(X, perm, lambda d: d**2 + 1.0)
    return X, space("y")


@settings(max_examples=300, deadline=None)
@given(few_valued_pairs())
def test_search_agrees_with_oracle_on_few_valued_spaces(pair):
    X, Y = pair
    ws = find_weak_similarity(X, Y)
    oracle = brute_force_weak_similarity(X, Y)
    assert (ws is None) == (oracle is None)
    if ws is not None:
        assert verify_weak_similarity(ws)


# ------------------------------------------------- monotone implications


def test_monotone_implications_hold_for_weak_similarity():
    X = collinear_space([0.0, 1.0, 2.0, 3.0])
    Y = transform_distances(X, lambda d: d * d)
    ws = find_weak_similarity(X, Y)
    rep = check_monotone_implications(ws.f)
    assert rep.holds and rep.equality_holds and rep.order_holds
    assert rep.witness is None
    assert rep.checked_pairs == 6


def test_monotone_implications_equality_violation():
    X = build_space(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    Y = build_space(("u", "v", "w"), [[0, 1, 4], [1, 0, 3], [4, 3, 0]])
    f = PointMap(X, Y, (0, 1, 2), bijective=True)
    rep = check_monotone_implications(f)
    assert not rep.holds and not rep.equality_holds
    pair1, pair2, d1, d2, r1, r2 = rep.witness
    assert d1 == d2 == 1.0
    assert r1 != r2
    assert rep.to_dict()["witness"]["pair1"] == list(pair1)


def test_monotone_implications_order_violation():
    X = build_space(("a", "b", "c"), [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    Y = build_space(("u", "v", "w"), [[0, 5, 4], [5, 0, 6], [4, 6, 0]])
    f = PointMap(X, Y, (0, 1, 2), bijective=True)
    rep = check_monotone_implications(f)
    assert rep.equality_holds and not rep.order_holds and not rep.holds
    pair1, pair2, d1, d2, r1, r2 = rep.witness
    assert d1 < d2 and r1 > r2


@st.composite
def monotone_cases(draw):
    """A bijection out of a 2-7 point space X with 1-4 distance values:
    onto a relabelled increasing or decreasing transform of X, or onto an
    independent space; by the relabelling itself or by any bijection."""
    n = draw(st.integers(2, 7))
    values = [1.0, 2.0, 3.0, 5.0][: draw(st.integers(1, 4))]

    def space(prefix):
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = draw(st.sampled_from(values))
        return build_space(tuple(f"{prefix}{i}" for i in range(n)), D)

    X = space("x")
    perm = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["increasing", "decreasing", "independent"]))
    if kind == "independent":
        Y = space("y")
    else:
        Y = relabeled_transform(X, perm, (lambda d: d * d + 1.0) if kind == "increasing"
                                else (lambda d: 10.0 - d))
    relabelling = draw(st.booleans())
    sigma = np.argsort(perm) if relabelling else draw(st.permutations(range(n)))
    return kind if relabelling else "any", PointMap(X, Y, tuple(sigma), bijective=True)


@settings(max_examples=300, deadline=None)
@given(monotone_cases())
def test_monotone_implications_match_the_pair_loop(case):
    kind, f = case
    rep = check_monotone_implications(f)
    assert rep == naive_monotone_implications(f)
    if kind == "increasing":
        assert rep.holds
    if kind == "decreasing" and len(np.unique(f.domain.dist)) > 2:
        assert rep.equality_holds and not rep.order_holds


def test_monotone_implications_need_bijection():
    X = collinear_space([0.0, 1.0, 3.0])
    f = PointMap(X, X, (0, 0, 1))
    with pytest.raises(ValidationError,
                       match=r"^monotone implications are certified for bijections only$"):
        check_monotone_implications(f)


# ----------------------------------------------------- involution identity


def test_involution_identity_for_powers():
    for alpha in (0.5, 1.0, 2.0):
        rep = check_involution_identity(PowerModulus(alpha))
        assert rep.holds, alpha
        assert rep.max_defect <= 1e-12
        assert rep.points == 513
        assert rep.certification == "grid"


def test_involution_identity_exp_ratio():
    rep = check_involution_identity(ExpRatioModulus())
    assert rep.holds


def test_involution_identity_bilipschitz_fails():
    # eta(k) eta(1/k) = L^4 for the bilipschitz modulus
    rep = check_involution_identity(BiLipschitzModulus(2.0))
    assert not rep.holds
    assert rep.max_defect == pytest.approx(15.0, rel=1e-9)
    d = rep.to_dict()
    assert d["holds"] is False and d["points"] == 513


def test_involution_identity_generator_moduli():
    same = eta_from_generators(power_generator(2), power_generator(2))
    assert check_involution_identity(same).holds
    mixed = eta_from_generators(power_generator(2), power_generator(3))
    rep = check_involution_identity(mixed, grid=np.array([0.25, 4.0]))
    assert not rep.holds
    # eta(1/4) = 1/4 with f1 = x^2/2 while 1/eta(4) = 19/64 from f2
    assert rep.max_defect == pytest.approx(abs(0.25 * 64.0 / 19.0 - 1.0), rel=1e-12)
    assert rep.points == 2


# ------------------------------------------------------- qs continuation


def test_qs_from_weaksim_linear_continuation(line4):
    Y = transform_distances(line4, lambda d: 3.0 * d)
    ws = find_weak_similarity(line4, Y)
    eta = qs_from_weaksim(ws, lambda t: 3.0 * t)
    assert eta.eval(2.0) == pytest.approx(6.0)
    assert eta.eval(0.5) == pytest.approx(1.5)


def test_qs_from_weaksim_rejects_non_continuation(line4):
    Y = transform_distances(line4, lambda d: 3.0 * d)
    ws = find_weak_similarity(line4, Y)
    with pytest.raises(ValidationError, match=r"^phistar\(1\) = 1, but the realization needs 3$"):
        qs_from_weaksim(ws, lambda t: np.asarray(t) ** 2)


def test_qs_from_weaksim_rejects_supermultiplicative(line4):
    Y = transform_distances(line4, np.expm1)
    ws = find_weak_similarity(line4, Y)
    assert ws is not None
    # expm1 continues the realization but expm1(4) > expm1(2)^2
    with pytest.raises(ValidationError,
                       match=r"^phistar\(5\.83388\) = 340\.682 > 334\.085 = phistar\(1\.15832\) "
                             r"\* phistar\(5\.03649\)$"):
        qs_from_weaksim(ws, np.expm1)
