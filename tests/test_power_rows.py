"""check_qs for the power moduli C t**alpha reads only the rows that can fail.

The twin of each modulus, the same function as a :class:`CallableModulus`,
goes through the float scan of every row, so the two reports must match
byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    BiLipschitzModulus,
    CallableModulus,
    LinearModulus,
    PowerModulus,
    build_map,
    build_space,
    check_qs,
    collinear_space,
    eta_ratio_report,
    euclidean_space,
    identity_map,
    snowflake_map,
)
from qsym import quasisymmetry

TOLS = [0.0, 1e-9]


def twin(eta):
    return CallableModulus(eta.eval, label=eta.describe())


def symmetric(M):
    M = np.triu(M, 1)
    return M + M.T


@st.composite
def maps(draw):
    """Random, snowflake, bi-Lipschitz, independent-bijection and quantized
    (tie-heavy) maps of 3 to 12 points."""
    n = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["random", "snowflake", "bilip", "bijection", "quantized"]))
    rng = np.random.default_rng(seed)
    X = euclidean_space(n, 2, seed=seed)
    D = np.asarray(X.dist)
    if kind == "random":
        R = symmetric(rng.uniform(0.1, 10.0, (n, n)))
    elif kind == "snowflake":
        R = D ** rng.uniform(0.2, 1.5)
    elif kind == "bilip":
        R = D * symmetric(np.exp(rng.uniform(-0.4, 0.4, (n, n))))
    elif kind == "bijection":
        R = np.asarray(euclidean_space(n, 2, seed=seed + 1).dist)
    else:
        X = build_space(X.labels, symmetric(rng.integers(1, 40, (n, n)).astype(float)))
        R = symmetric(rng.integers(1, 40, (n, n)).astype(float))
    Y = build_space([f"y{i}" for i in range(n)], R)
    return build_map(X, Y, {X.labels[i]: f"y{i}" for i in range(n)})


def largest_row_range(f, alpha):
    """max over x of max g - min g, g(a) = log rho(fx,fa) - alpha log d(x,a)."""
    D, R = quasisymmetry._off_diagonal(f)
    g = np.log(R) - alpha * np.log(D)
    return float(np.max(g.max(axis=1) - g.min(axis=1)))


@settings(max_examples=80, deadline=None)
@given(maps(), st.sampled_from(TOLS), st.integers(-4, 4))
def test_every_power_report_equals_its_twins(f, tol, ulps):
    # C = exp of the largest row range puts the worst row on the bound,
    # where floats decide; k ulps either side move it across
    on_bound = math.exp(largest_row_range(f, 1.0)) * (1.0 + ulps * 2.0 ** -52)
    moduli = [PowerModulus(0.5), PowerModulus(1.0), PowerModulus(2.0), LinearModulus(3.0),
              LinearModulus(0.5), BiLipschitzModulus(1.5), LinearModulus(on_bound),
              BiLipschitzModulus(max(1.0, math.sqrt(on_bound)))]
    for eta in moduli:
        assert repr(check_qs(f, eta, tol=tol)) == repr(check_qs(f, twin(eta), tol=tol))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 16), st.floats(0.2, 1.5), st.sampled_from(TOLS),
       st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0 - 1e-12]))
def test_a_snowflake_at_its_own_exponent_equals_its_twin(n, seed, alpha, tol, scale):
    # every row range is rounding noise around 0: at tol 0 every row is in the band
    f = snowflake_map(euclidean_space(n, 2, seed=seed), alpha)
    eta = PowerModulus(alpha * scale)
    assert repr(check_qs(f, eta, tol=tol)) == repr(check_qs(f, twin(eta), tol=tol))


@pytest.mark.parametrize("tol", TOLS)
def test_a_tie_in_t_across_rows_goes_to_the_later_row(tol):
    # t = 3/12 in row 0 and 2/8 in row 2 are one float with one image
    # ratio 1, so the later row holds the witness, though the two logs of t
    # differ by rounding
    X = build_space("0123", [[0, 12, 6, 3], [12, 0, 8, 10], [6, 8, 0, 2], [3, 10, 2, 0]])
    Y = build_space("0123", [[0, 10, 12, 10], [10, 0, 1, 11], [12, 1, 0, 1], [10, 11, 1, 0]])
    f = build_map(X, Y, {p: p for p in "0123"})
    eta = LinearModulus(0.5)
    rep = check_qs(f, eta, tol=tol)
    assert rep.witness_labels == ("2", "3", "1") and (rep.t, rep.image_ratio) == (0.25, 1.0)
    assert repr(rep) == repr(check_qs(f, twin(eta), tol=tol))


@pytest.mark.parametrize("tol", TOLS)
def test_a_row_where_eta_underflows_is_read(tol):
    # at x = 0, t = 1/5e7 and eta(t) = t**40 is subnormal, though
    # t**40 = 9.1e307 at the reciprocal ratio stays finite
    f = identity_map(collinear_space([0.0, 1.0, 5e7]))
    eta = PowerModulus(40.0)
    assert quasisymmetry._power_rows(eta, tol, *quasisymmetry._off_diagonal(f))[0]
    rep = check_qs(f, eta, tol=tol)
    assert not rep.holds and rep.witness_labels == ("0", "1", "5e+07")
    assert 0.0 < rep.eta_at_t < np.finfo(float).tiny
    assert repr(rep) == repr(check_qs(f, twin(eta), tol=tol))


def test_rows_off_the_normal_range_are_read():
    # every pair holds, but eta(t) = 1e300 t overflows at t = 1e10: the
    # scan reads rows 0 and 1, and warns as it does for the twin
    f = identity_map(collinear_space([0.0, 1.0, 1e10]))
    eta = LinearModulus(1e300)
    assert quasisymmetry._power_rows(eta, 1e-9, *quasisymmetry._off_diagonal(f)).tolist() == \
        [True, True, False]
    with pytest.warns(RuntimeWarning, match="overflow"):
        rep = check_qs(f, eta)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert rep.holds and repr(rep) == repr(check_qs(f, twin(eta)))
    # the ratios 1e400 of a wide line read inf: the scan decides them in logs
    wide = identity_map(collinear_space([0.0, 1e-200, 1e200]))
    DR = quasisymmetry._off_diagonal(wide)
    assert quasisymmetry._power_rows(PowerModulus(1.0), 1e-9, *DR).tolist() == [True, True, False]


@pytest.fixture
def ratio_rows(monkeypatch):
    """The rows of every array that ``_ratios`` forms."""
    rows = []
    ratios = quasisymmetry._ratios

    def counted(v):
        rows.append(len(v))
        return ratios(v)

    monkeypatch.setattr(quasisymmetry, "_ratios", counted)
    return rows


def test_a_holding_power_check_forms_no_ratio(ratio_rows):
    f = snowflake_map(euclidean_space(200, 2, seed=1), 0.5)
    rep = check_qs(f, PowerModulus(0.5))
    assert rep.holds and rep.checked == 200 * 199 ** 2
    assert ratio_rows == []


def test_a_power_ratio_report_forms_no_ratio(ratio_rows):
    f = snowflake_map(euclidean_space(200, 2, seed=1), 0.5)
    rep = eta_ratio_report(f, PowerModulus(0.5))
    assert rep.holds and rep.checked == 200 * 199 ** 2
    assert rep.min_product == 1.0
    assert ratio_rows == []


def test_a_failing_power_check_reads_a_few_rows(ratio_rows):
    f = snowflake_map(euclidean_space(200, 2, seed=1), 0.5)
    rep = check_qs(f, PowerModulus(0.25))
    assert not rep.holds and rep.checked == 200 * 199 ** 2
    # t and r of each row read
    assert 0 < sum(ratio_rows) // 2 <= 3
