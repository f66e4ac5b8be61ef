"""The pair-row kernels (the generalized triangle check, the minimal
b-metric coefficient and betweenness) against the loop oracles on
tie-heavy spaces, at several block sizes, and the symmetry they rely on:
each kernel scans the pairs x < y only, which is exact when both the
distance matrix and the gauge are symmetric bit for bit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Additive,
    CustomGauge,
    MaxGauge,
    PowerModulus,
    ScaledAdditive,
    betweenness_triples,
    build_space,
    check_transfer_condition,
    check_triangle,
    collinear_space,
    euclidean_space,
    generate,
    minimal_bmetric_K,
    preserves_betweenness,
    random_semimetric_space,
    snowflake_map,
    transform_distances,
    ultrametric_space,
)
from qsym import triangle

from conftest import naive_betweenness, naive_minimal_K, naive_scan, naive_triangle_worst
from test_weak_similarity import cubic_graph, graph_space

GAUGES = (Additive(), MaxGauge(), ScaledAdditive(1.5),
          CustomGauge(lambda u, v: (u ** 2 + v ** 2) ** 0.5, name="l2"))


def lattice_space(k, metric):
    """The k x k integer grid under the l1 or the l2 distance."""
    p = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    D = np.abs(diff).sum(-1) if metric == "l1" else np.sqrt((diff ** 2).sum(-1))
    return build_space([f"g{i}" for i in range(k * k)], D)


def tie_heavy_spaces():
    """2-valued cubic-graph spaces, integer lattices, integer collinear
    spaces and ultrametrics: many triples share their minimum margin."""
    rng = np.random.default_rng(6)
    return [graph_space(cubic_graph(n, rng)) for n in (8, 12, 16)] + [
        lattice_space(3, "l1"), lattice_space(4, "l1"), lattice_space(4, "l2"),
        collinear_space(range(7)), collinear_space([0, 1, 2, 4, 5, 7, 8, 10, 11, 13]),
        ultrametric_space(9, seed=1), ultrametric_space(14, seed=2),
    ]


@pytest.mark.parametrize("X", tie_heavy_spaces())
def test_pair_kernels_match_the_loop_oracles_on_ties(X):
    # the scan over x < y must pick the oracle's first minimum over all
    # ordered pairs in (x, y, z) order
    for phi in GAUGES:
        rep = check_triangle(X, phi)
        margin, triple, lhs, rhs = naive_triangle_worst(X, phi)
        assert (rep.worst_triple, rep.lhs, rep.rhs, rep.margin) == (triple, lhs, rhs, margin)
    assert minimal_bmetric_K(X) == naive_minimal_K(X)
    in_scan_order = sorted(naive_betweenness(X), key=lambda t: (t[0], t[2], t[1]))
    assert [(t.x, t.y, t.z) for t in betweenness_triples(X)] == in_scan_order


@pytest.mark.parametrize("block", [1, 7, 40, 200, 500])
def test_pair_kernels_are_independent_of_the_block_size(monkeypatch, block):
    # at these sizes the default block packs the whole space; blocks of 200
    # and 500 cut a packed rectangle mid-space, and smaller ones split the
    # y-rows of one x: all must give the same reports
    spaces = tie_heavy_spaces() + [euclidean_space(13, 2, seed=3),
                                   random_semimetric_space(11, seed=4),
                                   euclidean_space(23, 2, seed=5),
                                   collinear_space([0.0]), collinear_space([0.0, 1.0]),
                                   collinear_space([0.0, 1.0, 3.0])]

    def run(X):
        return ([check_triangle(X, phi) for phi in GAUGES], minimal_bmetric_K(X),
                betweenness_triples(X), preserves_betweenness(snowflake_map(X, 0.5)))

    whole = [run(X) for X in spaces]
    monkeypatch.setattr(triangle, "_PAIR_BLOCK", block)
    assert [run(X) for X in spaces] == whole
    assert any(not rep.holds for rep in (w[3] for w in whole))


@pytest.mark.parametrize("block", [1, 7, 40, 200, 500, triangle._PAIR_BLOCK])
def test_pair_rows_cover_each_pair_once_in_order(monkeypatch, block):
    # the rows y > x of the blocks, read in order, are the pairs x < y in
    # lexicographic order, and a block holds at most one y-row or the block
    # size of (x, y, z) entries, whichever is larger
    monkeypatch.setattr(triangle, "_PAIR_BLOCK", block)
    for n in range(25):
        seen = []
        for xa, xb, lo, hi in triangle._pair_rows(n):
            assert (xb - xa) * (hi - lo) * n <= max(block, n)
            seen += [(x, y) for x in range(xa, xb) for y in range(lo, hi) if y > x]
        assert seen == [(x, y) for x in range(n) for y in range(x + 1, n)]


@pytest.mark.parametrize("kernel", [
    lambda X: check_triangle(X, Additive()),
    minimal_bmetric_K,
    lambda X: check_transfer_condition(Additive(), Additive(), PowerModulus(0.5), pairs=X),
    betweenness_triples,
    lambda X: preserves_betweenness(snowflake_map(X, 0.5)),
], ids=["check_triangle", "minimal_bmetric_K", "check_transfer_condition", "betweenness_triples",
        "preserves_betweenness"])
def test_the_pair_kernels_stream_in_quadratic_memory(kernel):
    # a block holds at most _PAIR_BLOCK (x, y, z) entries or one y-row, so
    # the peak is O(n^2 + _PAIR_BLOCK) floats, not O(n^3); the last base
    # points at n=300 are packed
    n = 300
    X = euclidean_space(n, 2, seed=1)
    tracemalloc.start()
    try:
        kernel(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * (n * n + triangle._PAIR_BLOCK)


def bit_symmetric(X):
    D = np.asarray(X.dist)
    return D.tobytes() == np.ascontiguousarray(D.T).tobytes()


def test_every_space_constructor_stores_a_bit_symmetric_matrix():
    rng = np.random.default_rng(0)
    M = rng.uniform(1.0, 2.0, (9, 9))
    M = M + M.T + rng.uniform(0.0, 1e-12, (9, 9))  # asymmetric within tol
    np.fill_diagonal(M, 0.0)
    assert not np.array_equal(M, M.T)
    X = build_space([f"p{i}" for i in range(9)], M)
    made = [X, X.subspace([5, 0, 7, 2]), transform_distances(X, np.sqrt)]
    made += [generate(kind, seed=3, **params) for kind, params in (
        ("euclidean", {"n": 9, "dim": 3}), ("ultrametric", {"n": 9}),
        ("random_semimetric", {"n": 9}), ("pseudolinear", {"s": 1.0, "t": 2.5}),
        ("wilson", {"n": 6}), ("collinear", {"coordinates": [0.3, 1.7, 2.2, 9.1]}))]
    for Y in made:
        assert bit_symmetric(Y)


def test_custom_gauge_is_symmetric_off_the_probe_grid():
    # the probe grid stops at 1e6, where this function is symmetric
    def fn(u, v):
        return u + v if max(u, v) <= 1e6 else u + 2.0 * v

    phi = CustomGauge(fn, name="lopsided")
    assert fn(1e7, 1.0) != fn(1.0, 1e7)
    assert phi(1e7, 1.0) == phi(1.0, 1e7) == fn(1.0, 1e7)
    u, v = np.random.default_rng(1).uniform(0.0, 2e6, (2, 50))
    assert np.asarray(phi(u, v)).tobytes() == np.asarray(phi(v, u)).tobytes()
    X = transform_distances(euclidean_space(7, 2, seed=2), lambda d: 1e7 * d)
    margin, triple, lhs, rhs = naive_triangle_worst(X, phi)
    rep = check_triangle(X, phi)
    assert (rep.worst_triple, rep.lhs, rep.rhs, rep.margin) == (triple, lhs, rhs, margin)


def test_a_nan_margin_fails_the_triangle_check():
    # d(a, b) = 10 > d(a, c) + d(c, b) = 2, and d, e lie 6e7 from a, b, c,
    # where the gauge is NaN: the NaN shares a block with the margin -8 of
    # (a, c, b) and used to hide it behind holds=True
    D = np.full((5, 5), 6e7)
    np.fill_diagonal(D, 0.0)
    D[0, 1] = D[1, 0] = 10.0
    D[0, 2] = D[2, 0] = D[1, 2] = D[2, 1] = D[3, 4] = D[4, 3] = 1.0
    X = build_space(list("abcde"), D)
    phi = CustomGauge(lambda u, v: u + v if min(u, v) <= 1e6 else float("nan"))
    # a point at distance 1 from all: its row of the scan has no NaN, and
    # the NaN of a later row must still win
    C = np.pad(D, (1, 0), constant_values=1.0)
    C[0, 0] = 0.0
    W = build_space(list("oabcde"), C)
    # NaN in every block used to raise TypeError
    Y = transform_distances(euclidean_space(5, 2, seed=1), lambda d: 1e8 * d)
    psi = CustomGauge(lambda u, v: u + v if max(u, v) <= 1e6 else float("nan"))
    for space, gauge in ((X, phi), (W, phi), (Y, psi)):
        rep = check_triangle(space, gauge)
        assert not rep.holds and np.isnan(rep.margin)
        # the first NaN in (x, y, z) order
        assert rep.worst_triple == naive_triangle_worst(space, gauge)[1]


#: floors of the scan property, and values that sit exactly on them, tie
#: with one another, or are NaN or infinite
SCAN_FLOORS = (-1e-9, 0.0, 1.0 - 1e-9, 1.0)
SCAN_VALUES = st.sampled_from(
    SCAN_FLOORS + (np.nan, np.inf, -np.inf, -0.0, -1.0, 0.5, 2.0)) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.lists(SCAN_VALUES, min_size=1, max_size=30), st.sampled_from(SCAN_FLOORS),
       st.data())
def test_scan_matches_the_loop_oracle_over_block_splits(values, floor, data):
    # the blocks of any split, read in order, reduce like one loop over
    # their concatenation: the same first minimum, first violation and count
    cut = data.draw(st.lists(st.booleans(), min_size=len(values) - 1,
                             max_size=len(values) - 1))
    ends = [i + 1 for i, c in enumerate(cut) if c] + [len(values)]
    scan = triangle._Scan(floor)
    start = 0
    for end in ends:
        scan.add(np.array(values[start:end]), lambda k, start=start: start + k)
        start = end
    low, violation, count = naive_scan(values, floor)
    assert (scan.least, scan.violation, scan.count) == (low, violation, count)
    assert repr(scan.low) == repr(float(values[low]))
