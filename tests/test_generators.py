import numpy as np
import pytest

from qsym import (
    Additive,
    MaxGauge,
    ValidationError,
    check_triangle,
    collinear_space,
    euclidean_space,
    generate,
    is_ptolemaic,
    minimal_bmetric_K,
    pseudolinear_quadruple,
    random_semimetric_space,
    ultrametric_space,
    wilson_space,
)

from conftest import naive_ptolemaic


def test_euclidean_is_deterministic_and_metric():
    X = euclidean_space(8, 2, seed=3)
    Y = euclidean_space(8, 2, seed=3)
    assert np.array_equal(np.asarray(X.dist), np.asarray(Y.dist))
    assert not np.array_equal(
        np.asarray(X.dist), np.asarray(euclidean_space(8, 2, seed=4).dist)
    )
    assert check_triangle(X, Additive()).holds


def test_euclidean_is_ptolemaic():
    X = euclidean_space(7, 2, seed=11)
    assert is_ptolemaic(X).holds
    assert naive_ptolemaic(X) >= -1e-9


def test_ultrametric_satisfies_max_gauge():
    for seed in range(5):
        X = ultrametric_space(7, seed=seed)
        assert check_triangle(X, MaxGauge()).holds


def test_random_semimetric_is_valid_but_usually_not_metric():
    X = random_semimetric_space(8, seed=0)
    d = np.asarray(X.dist)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    iu = np.triu_indices(8, k=1)
    assert np.all(d[iu] > 0)


def test_pseudolinear_quadruple_pattern():
    Q = pseudolinear_quadruple(1.0, 2.0)
    d = np.asarray(Q.dist)
    # opposite sides (t, s, t, s) around the cycle, both diagonals s + t
    assert d[0, 1] == 2.0 and d[2, 3] == 2.0
    assert d[1, 2] == 1.0 and d[3, 0] == 1.0
    assert d[0, 2] == 3.0 and d[1, 3] == 3.0
    with pytest.raises(ValidationError, match=r"^pseudolinear: need s > 0 and t > 0$"):
        pseudolinear_quadruple(0.0, 2.0)


def test_wilson_space_distances():
    W = wilson_space(2)
    assert W.n == 4
    assert W.labels == ("-1", "0", "1", "1/2")
    d = np.asarray(W.dist)
    lab = {v: i for i, v in enumerate(W.labels)}
    assert d[lab["-1"], lab["1"]] == 1.0
    assert d[lab["-1"], lab["1/2"]] == 0.5
    assert d[lab["0"], lab["1"]] == 1.0
    assert d[lab["-1"], lab["0"]] == 1.0


def test_wilson_triangle_failure_starts_at_three():
    # with 1/3 present, the route -1 -> 1/3 -> 0 has length 2/3 < d(-1, 0)
    assert check_triangle(wilson_space(2), Additive()).holds
    rep = check_triangle(wilson_space(3), Additive())
    assert not rep.holds
    assert minimal_bmetric_K(wilson_space(3)) == pytest.approx(1.5)


def test_collinear_space_distances():
    X = collinear_space([0.0, 1.0, 3.0])
    d = np.asarray(X.dist)
    assert d[0, 2] == 3.0 and d[1, 2] == 2.0
    with pytest.raises(ValidationError, match=r"^collinear: coordinates must be distinct$"):
        collinear_space([0.0, 0.0, 1.0])
    with pytest.raises(ValidationError, match=r"^collinear: need at least one coordinate$"):
        collinear_space([])


def test_collinear_labels_separate_coordinates_equal_to_six_digits():
    X = collinear_space([0.1234561, 0.1234562, 1.0])
    assert X.labels == ("0.1234561", "0.1234562", "1")
    assert collinear_space([0.0, 3.0, 1e7]).labels == ("0", "3", "1e+07")


def test_generate_dispatch():
    X = generate("euclidean", seed=5, n=4, dim=2)
    assert X.n == 4
    Y = generate("collinear", coordinates=[0, 1, 2])
    assert Y.n == 3
    with pytest.raises(ValidationError,
                       match=r"^unknown generator kind 'nope'; known: \['collinear', "
                             r"'euclidean', 'pseudolinear', 'random_semimetric', 'ultrametric', "
                             r"'wilson'\]$"):
        generate("nope")
    with pytest.raises(ValidationError, match=r"^euclidean: missing parameter 'dim'$"):
        generate("euclidean", n=4)  # dim missing
    with pytest.raises(ValidationError, match=r"^ultrametric: unexpected parameter 'dim'$"):
        generate("ultrametric", n=4, dim=2)  # dim unexpected


def test_generate_seed_flows_through():
    a = generate("ultrametric", seed=1, n=5)
    b = generate("ultrametric", seed=1, n=5)
    c = generate("ultrametric", seed=2, n=5)
    assert np.array_equal(np.asarray(a.dist), np.asarray(b.dist))
    assert not np.array_equal(np.asarray(a.dist), np.asarray(c.dist))
