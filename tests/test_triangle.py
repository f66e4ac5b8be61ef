import itertools
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Additive,
    CustomGauge,
    MaxGauge,
    NotInvertible,
    PowerModulus,
    ScaledAdditive,
    ValidationError,
    build_space,
    check_triangle,
    collinear_space,
    euclidean_space,
    is_ptolemaic,
    minimal_bmetric_K,
    parse_triangle_function,
    ptolemy_transfer_check,
    random_semimetric_space,
    snowflake,
    snowflake_map,
    transform_distances,
    ultrametric_space,
)
from qsym import triangle

from conftest import (naive_minimal_K, naive_ptolemaic, naive_ptolemy_worst,
                      naive_triangle_margin, naive_triangle_worst)


def squared_line(coords):
    return transform_distances(collinear_space(coords), lambda d: d * d)


def test_gauge_evaluation():
    assert Additive()(1.0, 2.0) == 3.0
    assert ScaledAdditive(2.0)(1.0, 2.0) == 6.0
    assert MaxGauge()(1.0, 2.0) == 2.0
    u = np.array([1.0, 2.0])
    assert np.array_equal(np.asarray(Additive()(u, u)), np.array([2.0, 4.0]))


def test_gauge_describe():
    assert Additive().describe() == "additive"
    assert ScaledAdditive(2.0).describe() == "bmetric:2"
    assert MaxGauge().describe() == "max"


def test_check_triangle_metric_line(line4):
    rep = check_triangle(line4, Additive())
    assert rep.holds
    # the line is exactly geodesic: the worst margin is an equality
    assert rep.margin == 0.0


def test_check_triangle_witness_on_failure():
    X = squared_line([0.0, 1.0, 2.0])
    rep = check_triangle(X, Additive())
    assert not rep.holds
    x, z, y = rep.worst_triple
    d = np.asarray(X.dist)
    assert rep.lhs == d[x, y]
    assert rep.rhs == pytest.approx(d[x, z] + d[z, y])
    assert rep.margin == pytest.approx(-2.0)  # 4 vs 1 + 1
    assert rep.worst_labels(X) == ("0", "1", "2")


def test_check_triangle_scaled_gauge():
    X = squared_line([0.0, 1.0, 2.0])
    assert not check_triangle(X, ScaledAdditive(1.9)).holds
    assert check_triangle(X, ScaledAdditive(2.0)).holds


def test_minimal_bmetric_K_squared_line():
    assert minimal_bmetric_K(squared_line([0.0, 1.0, 2.0])) == 2.0
    assert minimal_bmetric_K(collinear_space([0.0, 1.0, 2.0])) == 1.0
    assert minimal_bmetric_K(collinear_space([0.0, 1.0])) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_triangle_margin_matches_naive(seed):
    X = random_semimetric_space(6, seed=seed)
    for phi in (Additive(), ScaledAdditive(1.7), MaxGauge()):
        rep = check_triangle(X, phi)
        want = naive_triangle_margin(X, phi)
        assert rep.margin == pytest.approx(want, abs=1e-12)
        assert rep.holds == (want >= -1e-9)


def two_groups(near_tight, violating, far):
    """A large near-tight group and a small violating one, ``far`` apart."""
    a, b = len(near_tight), len(violating)
    D = np.full((a + b, a + b), far)
    D[:a, :a], D[a:, a:] = near_tight, violating
    return build_space([chr(ord("a") + i) for i in range(a + b)], D)


def test_a_failing_triangle_report_names_a_violating_triple():
    # (a, c, b) has the least margin, -5, but its floor is -tol * 1e10 = -10;
    # (d, f, e) violates at margin -1
    X = two_groups([[0, 1e10, 5e9 - 2.5], [1e10, 0, 5e9 - 2.5], [5e9 - 2.5, 5e9 - 2.5, 0]],
                   [[0, 3, 1], [3, 0, 1], [1, 1, 0]], 1e12)
    rep = check_triangle(X, Additive())
    assert not rep.holds
    assert (rep.worst_labels(X), rep.lhs, rep.rhs, rep.margin) == (("d", "f", "e"), 3, 2, -1)
    assert naive_triangle_worst(X, Additive()) == (rep.margin, rep.worst_triple, 3, 2)
    # within the floor and nothing else violating, the least margin is the witness
    rep = check_triangle(X.subspace(range(3)), Additive())
    assert rep.holds and (rep.worst_triple, rep.margin) == ((0, 2, 1), -5)


def test_a_failing_ptolemy_report_names_a_violating_quadruple():
    # a square of side 1e10 with diagonals 1e-12 too long is within its
    # floor (margin about -4e8 against -tol * 2e20); the unit 4-cycle with
    # diagonals 2 violates at margin -2
    s, g = 1e10, 1e10 * np.sqrt(2.0) * (1 + 1e-12)
    X = two_groups([[0, s, g, s], [s, 0, s, g], [g, s, 0, s], [s, g, s, 0]],
                   [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], 1e12)
    rep = is_ptolemaic(X)
    assert not rep.holds
    assert (rep.worst_labels(X), rep.lhs, rep.rhs, rep.margin) == (("e", "h", "g", "f"), 4, 2, -2)
    assert repr(rep) == repr(naive_ptolemy_worst(X))
    square = is_ptolemaic(X.subspace(range(4)))
    assert square.holds and -1e9 < square.margin < -1e8


@pytest.mark.parametrize("seed", range(6))
def test_minimal_K_matches_naive(seed):
    X = random_semimetric_space(6, seed=seed)
    assert minimal_bmetric_K(X) == pytest.approx(naive_minimal_K(X), rel=1e-12)


def test_minimal_K_is_threshold():
    for seed in range(4):
        X = random_semimetric_space(5, seed=seed)
        K = minimal_bmetric_K(X)
        assert check_triangle(X, ScaledAdditive(K)).holds
        if K > 1.0:
            assert not check_triangle(X, ScaledAdditive(K * (1 - 1e-6))).holds


def test_custom_gauge_accepts_lp_combination():
    phi = CustomGauge(lambda u, v: (u ** 2 + v ** 2) ** 0.5, name="l2")
    assert phi(3.0, 4.0) == pytest.approx(5.0)
    # the half-snowflake of a metric satisfies the quadratic-mean gauge:
    # d(x,y) <= d(x,z) + d(z,y) squares into the very inequality checked
    X = euclidean_space(6, 2, seed=0)
    assert check_triangle(snowflake(X, 0.5), phi).holds


def test_custom_gauge_rejections():
    with pytest.raises(ValidationError, match=r"^custom: not symmetric at \(1e-06, 1e\+06\)$"):
        CustomGauge(lambda u, v: u - v)  # not symmetric
    with pytest.raises(ValidationError, match=r"^custom: Phi\(0,0\) = 1, expected 0$"):
        CustomGauge(lambda u, v: u + v + 1.0)  # nonzero at the origin
    with pytest.raises(ValidationError, match=r"^custom: not monotone on the probe grid$"):
        CustomGauge(lambda u, v: np.sin(u) + np.sin(v))  # not monotone


def test_invert_diag():
    # diag of additive is 2t, of bmetric:K is 2Kt, of max is t, of l2 is sqrt(2) t
    l2 = CustomGauge(lambda u, v: np.sqrt(u * u + v * v), name="l2")
    cases = [(Additive(), 4.5), (ScaledAdditive(2.0), 2.25), (MaxGauge(), 9.0),
             (l2, 9.0 / np.sqrt(2.0))]
    for phi, expected in cases:
        got = phi.diag_inverse(9.0)
        assert type(got) is float
        assert got == pytest.approx(expected, rel=1e-12, abs=0)
    # a valid gauge whose diagonal goes flat above 1 has no inverse
    capped = CustomGauge(lambda u, v: np.minimum(np.maximum(u, v), 1.0))
    with pytest.raises(NotInvertible, match=r"^custom: diagonal gauge is not strictly "
                                            r"increasing on the probe grid$"):
        capped.diag_inverse(0.5)


def test_is_ptolemaic_euclidean_and_square():
    assert is_ptolemaic(euclidean_space(8, 2, seed=2)).holds
    # the unit square attains Ptolemy equality on its diagonals
    sq = build_space(
        ["a", "b", "c", "d"],
        [
            [0, 1, np.sqrt(2), 1],
            [1, 0, 1, np.sqrt(2)],
            [np.sqrt(2), 1, 0, 1],
            [1, np.sqrt(2), 1, 0],
        ],
    )
    rep = is_ptolemaic(sq)
    assert rep.holds
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_is_ptolemaic_failure_witness():
    bad = build_space(
        ["a", "b", "c", "d"],
        [
            [0, 1, 10, 1],
            [1, 0, 1, 10],
            [10, 1, 0, 1],
            [1, 10, 1, 0],
        ],
    )
    rep = is_ptolemaic(bad)
    assert not rep.holds
    assert rep.lhs > rep.rhs
    assert rep.margin == pytest.approx(naive_ptolemaic(bad))
    assert len(rep.worst_labels(bad)) == 4


def test_is_ptolemaic_small_spaces_vacuous(line3):
    rep = is_ptolemaic(line3)
    assert rep.holds and rep.checked == 0


def ptolemy_sides(space, quadruple):
    """(d(x,z) d(t,y), d(x,y) d(t,z) + d(x,t) d(y,z)) at (x, y, z, t)."""
    d = np.asarray(space.dist)
    x, y, z, t = quadruple
    return d[x, z] * d[t, y], d[x, y] * d[t, z] + d[x, t] * d[y, z]


@pytest.mark.parametrize("seed", range(4))
def test_ptolemaic_margin_matches_naive(seed):
    X = euclidean_space(7, 2, seed=seed)
    rep = is_ptolemaic(X)
    assert rep.mode == "exhaustive"
    assert rep.margin == pytest.approx(naive_ptolemaic(X), rel=1e-9, abs=1e-12)
    # with every distance <= 1 the relative and absolute margins coincide,
    # so the worst margin is the loop oracle's to the bit
    R = random_semimetric_space(9, seed=seed)
    R = build_space(R.labels, np.asarray(R.dist) / np.max(R.dist))
    rep = is_ptolemaic(R)
    assert not rep.holds
    assert rep.margin == naive_ptolemaic(R)
    lhs, rhs = ptolemy_sides(R, rep.worst_quadruple)
    assert rep.lhs == lhs
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_is_ptolemaic_exhaustive_above_64_points():
    X = euclidean_space(65, 2, seed=4)
    rep = is_ptolemaic(X)
    assert rep.holds and rep.mode == "exhaustive"
    assert rep.checked == 3 * comb(65, 4)
    # one planted long distance breaks Ptolemy on quadruples through it
    D = np.array(X.dist)
    D[0, 1] = D[1, 0] = 3.0 * D.max()
    bad = build_space(X.labels, D)
    rep = is_ptolemaic(bad)
    assert not rep.holds and rep.mode == "exhaustive"
    assert rep.checked == 3 * comb(65, 4)
    assert all(type(v) is int for v in rep.worst_quadruple)
    assert {0, 1} <= set(rep.worst_quadruple)
    lhs, rhs = ptolemy_sides(bad, rep.worst_quadruple)
    assert rep.lhs == lhs
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


@st.composite
def ptolemy_test_spaces(draw):
    """4 to 8 points: integer points on a line (exact zero margins), two
    distance values 1 and 2, or random points with one planted long
    distance d(0, 1), which breaks Ptolemy on quadruples through it."""
    n = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["line", "two-valued", "planted"]))
    if kind == "line":
        return collinear_space(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n,
                                             unique=True)))
    if kind == "two-valued":
        D = np.zeros((n, n))
        D[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from([1.0, 2.0]),
                                                 min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2))
        return build_space([f"p{i}" for i in range(n)], D + D.T)
    D = np.array(euclidean_space(n, 2, seed=draw(st.integers(0, 999))).dist)
    D[0, 1] = D[1, 0] = draw(st.sampled_from([1.5, 3.0, 10.0])) * D.max()
    return build_space([f"p{i}" for i in range(n)], D)


@settings(max_examples=150, deadline=None)
@given(ptolemy_test_spaces(), st.sampled_from([0.0, 1e-9, 1e-3]))
def test_is_ptolemaic_matches_the_loop_oracle(X, tol):
    # every field, to the bit: the witness is the first minimum margin in
    # (i, j, k, l, pairing) order and the verdict reads each pairing's floor
    assert repr(is_ptolemaic(X, tol)) == repr(naive_ptolemy_worst(X, tol))


#: Ptolemy block sizes that split the quadruples within and across base points
QUAD_BLOCKS = (1, 7, 64)


@pytest.mark.parametrize("block", QUAD_BLOCKS)
def test_quadruple_blocks_are_whole_runs_of_the_4_subsets_in_order(monkeypatch, block):
    monkeypatch.setattr(triangle, "_QUAD_BLOCK", block)
    for n in range(4, 13):
        D = np.arange(n * n, dtype=float).reshape(n, n)
        D += D.T
        blocks = list(triangle._quadruple_blocks(D))
        quads = np.concatenate([np.stack(b[:4], axis=1) for b in blocks])
        assert quads.tolist() == [list(c) for c in itertools.combinations(range(n), 4)]
        for i, j, k, l, q in blocks:
            # a block opens an (i, j) run, with (k, l) = (j + 1, j + 2)
            assert (k[0], l[0]) == (j[0] + 1, j[0] + 2)
            points = (i, j, k, l)
            for a, b in itertools.permutations(range(4), 2):
                assert q[a][b].tobytes() == D[points[a], points[b]].tobytes()
        assert all(len(b[0]) >= block for b in blocks[:-1])


@pytest.mark.parametrize("block", QUAD_BLOCKS)
@settings(max_examples=50, deadline=None)
@given(ptolemy_test_spaces(), st.sampled_from([0.0, 1e-9, 1e-3]))
def test_is_ptolemaic_matches_the_loop_oracle_at_every_block_size(block, X, tol):
    with mock.patch.object(triangle, "_QUAD_BLOCK", block):
        assert repr(is_ptolemaic(X, tol)) == repr(naive_ptolemy_worst(X, tol))


@pytest.mark.parametrize("kernel", [
    is_ptolemaic,
    lambda X: ptolemy_transfer_check(snowflake_map(X, 0.5), PowerModulus(0.5),
                                     force_realized=True),
], ids=["is_ptolemaic", "ptolemy_transfer_check"])
def test_the_ptolemy_kernels_stream_in_quadratic_memory(kernel):
    # a block holds whole (i, j) runs, each at most C(n - 2, 2) quadruples,
    # so the peak is O(n^2 + _QUAD_BLOCK) floats, not O(n^4) nor a whole
    # base point's C(n - 1, 3) quadruples
    n = 120
    X = euclidean_space(n, 2, seed=1)
    tracemalloc.start()
    try:
        assert kernel(X).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * (n * n + triangle._QUAD_BLOCK)


def test_parse_triangle_function():
    assert isinstance(parse_triangle_function("additive"), Additive)
    assert isinstance(parse_triangle_function("max"), MaxGauge)
    phi = parse_triangle_function("bmetric:2.5")
    assert isinstance(phi, ScaledAdditive) and phi.K == 2.5
    with pytest.raises(ValueError):
        parse_triangle_function("bmetric:0.5")
    with pytest.raises(ValueError):
        parse_triangle_function("junk")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 7))
def test_ultrametric_is_one_half_bmetric_everywhere(seed, n):
    # max(u, v) <= (u + v) <= 2 max(u, v): ultrametrics are metrics, and
    # their minimal additive coefficient can reach down to 1/2 of nothing
    # below max; sanity across random instances
    X = ultrametric_space(n, seed=seed)
    assert check_triangle(X, MaxGauge()).holds
    assert check_triangle(X, Additive()).holds
    assert minimal_bmetric_K(X) <= 1.0 + 1e-12
