import warnings

import numpy as np
import pytest

from qsym import (
    DEFAULT_TOL,
    PointMap,
    SubsetRef,
    ValidationError,
    build_map,
    build_space,
    collinear_space,
    diameter,
    identity_map,
    snowflake,
    snowflake_map,
    transform_distances,
    transform_map,
)


def test_build_space_basic():
    X = build_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert X.n == 3
    assert X.labels == ("a", "b", "c")
    d = np.asarray(X.dist)
    assert d[0, 2] == 2.0
    assert not d.flags.writeable


def test_build_space_repairs_small_asymmetry():
    m = [[0, 1.0], [1.0 + 1e-12, 0]]
    X = build_space(["a", "b"], m)
    d = np.asarray(X.dist)
    assert d[0, 1] == d[1, 0]


def test_build_space_keeps_a_symmetric_matrix_and_averages_without_overflow():
    # 0.5 (m + m.T) turned every entry above ~9e307 into inf
    D = np.array([[0, 1.5e308, 1e308], [1.5e308, 0, 1e308], [1e308, 1e308, 0]])
    assert np.array_equal(build_space("abc", D).dist, D)
    top = np.finfo(float).max
    m = [[0, top], [top * (1 - 1e-15), 0]]
    d = np.asarray(build_space(["a", "b"], m).dist)
    assert d[0, 1] == d[1, 0] == 0.5 * top + 0.5 * m[1][0]
    assert np.isfinite(d).all()


def test_build_space_tests_asymmetry_without_overflow():
    # m - m.T overflowed to inf for opposite signs near the float limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"d\(a,b\) != d\(b,a\) \(difference inf"):
            build_space("ab", [[0, 1.7e308], [-1.7e308, 0]])
        with pytest.raises(ValidationError, match=r"difference 1\.5e\+308"):
            build_space("ab", [[0, 1.7e308], [2e307, 0]])


def test_build_space_rejects_large_asymmetry():
    with pytest.raises(ValidationError,
                       match=r"^d\(a,b\) != d\(b,a\) \(difference 0\.5 exceeds tol\)$"):
        build_space(["a", "b"], [[0, 1.0], [1.5, 0]])


def test_build_space_snaps_diagonal_noise():
    X = build_space(["a", "b"], [[1e-13, 1.0], [1.0, 0]])
    assert np.asarray(X.dist)[0, 0] == 0.0


def test_build_space_rejects_big_diagonal():
    with pytest.raises(ValidationError, match=r"^nonzero diagonal entry at 'a': 0\.5$"):
        build_space(["a", "b"], [[0.5, 1.0], [1.0, 0]])


def test_build_space_rejects_zero_off_diagonal():
    with pytest.raises(ValidationError, match=r"^distinct points 'a', 'b' at distance <= 0$"):
        build_space(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def test_build_space_rejects_negative():
    with pytest.raises(ValidationError, match=r"^d\(a,b\) = -1 < 0$"):
        build_space(["a", "b"], [[0, -1.0], [-1.0, 0]])


def test_build_space_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match=r"^label 'a' appears more than once$"):
        build_space(["a", "a"], [[0, 1], [1, 0]])


def test_build_space_rejects_no_points():
    with pytest.raises(ValidationError, match="at least one point"):
        build_space([], np.zeros((0, 0)))


def test_diameter(line4):
    assert diameter(SubsetRef(line4, (0, 1, 2, 3))) == 6.0
    assert diameter(SubsetRef(line4, (1, 2))) == 2.0


def test_subset_ref_validation(line4):
    with pytest.raises(ValueError):
        SubsetRef(line4, ())
    with pytest.raises(ValueError):
        SubsetRef(line4, (0, 7))
    A = SubsetRef(line4, (2, 0))
    # indices are stored sorted and deduplicated
    assert A.indices == (0, 2)
    assert A.labels == ("0", "3")
    assert A.issubset(SubsetRef(line4, (0, 1, 2)))
    assert not SubsetRef(line4, (0, 3)).issubset(A)


def test_point_map_roundtrip(line3):
    Y = snowflake(line3, 0.5)
    f = build_map(line3, Y, {"0": "0", "1": "1", "3": "3"}, require_bijective=True)
    assert f.is_bijection()
    assert f.image_index(2) == 2
    assert f.image_dist(0, 2) == pytest.approx(np.sqrt(3.0))
    R = f.image_matrix()
    assert R.shape == (3, 3)
    g = f.inverse()
    assert list(g.assignment) == [0, 1, 2]


def test_point_map_accepts_plain_sequences(line3):
    f = PointMap(line3, line3, (2, 1, 0), bijective=True)
    assert f.assignment.dtype.kind == "i"
    assert f.is_bijection()
    assert list(f.inverse().assignment) == [2, 1, 0]


def test_build_map_validation(line3):
    Y = snowflake(line3, 0.5)
    with pytest.raises(ValidationError, match=r"^domain point '3' has no image$"):
        build_map(line3, Y, {"0": "0", "1": "1"})
    with pytest.raises(ValidationError, match=r"^target 'nope' is not a point of the codomain$"):
        build_map(line3, Y, {"0": "0", "1": "1", "3": "nope"})
    with pytest.raises(ValidationError, match=r"^assignment is not a bijection onto the codomain$"):
        build_map(line3, Y, {"0": "0", "1": "0", "3": "3"}, require_bijective=True)
    # non-bijective assignment is fine when not requested
    f = build_map(line3, Y, {"0": "0", "1": "0", "3": "3"})
    assert not f.is_bijection()


def test_transform_distances_scaler_checks(line3):
    Y = transform_distances(line3, lambda d: 2.0 * d)
    assert np.asarray(Y.dist)[0, 2] == 6.0
    with pytest.raises(ValidationError, match=r"^scaler\(0\) = 1, expected 0$"):
        transform_distances(line3, lambda d: d + 1.0)
    with pytest.raises(ValidationError,
                       match=r"^scaler not strictly increasing on the spectrum: g\(0\) = -0, "
                             r"g\(1\) = -1$"):
        transform_distances(line3, lambda d: -d)
    # collapses 1, 2 and 3: the float image may merge distances, and
    # build_space decides whether the result is a semimetric
    assert np.asarray(transform_distances(line3, lambda d: np.minimum(d, 1.0)).dist)[0, 2] == 1.0


def test_a_scaler_whose_float_values_merge_two_distances_is_accepted():
    # sqrt rounds 1 and 1 + 2**-52 to 1.0
    X = build_space("abc", [[0, 1, 1 + 2 ** -52], [1, 0, 2], [1 + 2 ** -52, 2, 0]])
    f = snowflake_map(X, 0.5)
    assert f.image_dist(0, 1) == f.image_dist(0, 2) == 1.0
    with pytest.raises(ValidationError, match=r"^scaler not strictly increasing on the "
                                              r"spectrum: g\(1\) = 1, g\(2\) = 0\.5$"):
        transform_distances(X, lambda d: np.where(d > 1.5, d / 4, d))
    # a merge into 0 leaves an off-diagonal zero, which build_space rejects
    with pytest.raises(ValidationError):
        transform_distances(X, lambda d: np.maximum(d - 1.0, 0.0))


def test_snowflake_values(line3):
    Y = snowflake(line3, 0.5)
    d = np.asarray(Y.dist)
    assert d[0, 1] == 1.0
    assert d[1, 2] == pytest.approx(np.sqrt(2.0))
    assert d[0, 2] == pytest.approx(np.sqrt(3.0))
    with pytest.raises(ValueError):
        snowflake(line3, 0.0)
    with pytest.raises(ValueError):
        snowflake_map(line3, -1.0)


def test_transform_map_is_identity_assignment(line3):
    f = transform_map(line3, lambda d: d ** 2)
    assert list(f.assignment) == [0, 1, 2]
    assert f.bijective
    assert f.image_dist(0, 2) == 9.0


def test_identity_map(line4):
    f = identity_map(line4)
    assert f.domain is f.codomain
    assert f.is_bijection()
    assert np.array_equal(f.image_matrix(), np.asarray(line4.dist))


def test_default_tol_value():
    assert DEFAULT_TOL == 1e-9
