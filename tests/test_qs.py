import gc
import tracemalloc
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Additive,
    BiLipschitzModulus,
    CallableModulus,
    EmpiricalModulus,
    ExpRatioModulus,
    LinearModulus,
    MaxGauge,
    PointMap,
    PowerModulus,
    PreconditionFailed,
    ScaledAdditive,
    SubsetRef,
    ValidationError,
    build_map,
    build_space,
    check_qs,
    collinear_space,
    empirical_modulus,
    eta_ratio_report,
    euclidean_space,
    fit_snowflake,
    identity_map,
    image_subset,
    inverse_modulus,
    minimal_bilipschitz_L,
    bounded_image_bounds,
    random_semimetric_space,
    snowflake,
    snowflake_map,
    transform_distances,
    transform_map,
    tv_bounds,
    ultrametric_space,
    verify_transfer_end_to_end,
)
from qsym import quasisymmetry
from qsym.moduli import _POWER_FAMILY, Modulus

from conftest import knot_qs_report, knot_ratio_report, naive_envelope
from test_float_range import WIDE_LINES


def exp_line_map():
    """The expalpha-style counterexample: e**d - 1 on the integer line 0..6."""
    X = collinear_space(list(range(7)))
    return transform_map(X, lambda d: np.expm1(d))


def test_envelope_of_half_snowflake(line3):
    f = snowflake_map(line3, 0.5)
    env = empirical_modulus(f)
    assert list(env.ts) == [1 / 3, 0.5, 2 / 3, 1.0, 1.5, 2.0, 3.0]
    assert np.allclose(env.hs, np.sqrt(env.ts))
    # every knot's witness reproduces the recorded value exactly
    D = np.asarray(f.domain.dist)
    R = f.image_matrix()
    for i in range(len(env)):
        x, a, b = env.witnesses[i]
        assert R[x, a] / R[x, b] == env.hs[i]
        assert D[x, a] / D[x, b] <= env.ts[i] * (1 + 1e-12)


def test_envelope_matches_naive_oracle():
    maps = [transform_map(random_semimetric_space(6, seed=seed), lambda d: d ** 0.7)
            for seed in range(5)]
    # the 6x6 integer lattice: many exactly tied and near-tied ratios
    P = np.array([(i, j) for i in range(6) for j in range(6)], dtype=float)
    grid = build_space([f"g{i}{j}" for i, j in P.astype(int)],
                       np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)))
    maps.append(snowflake_map(grid, 0.5))
    for f in maps:
        env = empirical_modulus(f)
        ts, hs, witnesses = naive_envelope(f, records=True)
        # one knot per ratio where the running maximum rises
        assert env.ts.tolist() == ts
        assert env.hs.tolist() == hs
        assert env.witnesses.tolist() == [list(w) for w in witnesses]
        # and the step function takes that maximum at every realized ratio
        eta = env.as_modulus()
        for t, h in zip(*naive_envelope(f)[:2]):
            assert eta(t) == pytest.approx(h, rel=1e-12)


def _noisy_map(n, seed):
    """A euclidean plane map whose image distances carry symmetric 5%
    multiplicative noise: far fewer records than distinct ratios."""
    X = euclidean_space(n, 2, seed=seed)
    noise = np.triu(np.random.default_rng(seed + 1).uniform(-0.05, 0.05, (n, n)), 1)
    Y = build_space(X.labels, np.asarray(X.dist) * (1.0 + noise + noise.T))
    return build_map(X, Y, {lab: lab for lab in X.labels})


def _lattice_6x6_map(seed):
    """A random bijection of the 6x6 integer lattice: many exact ties among
    the ratios and among the image ratios."""
    P = np.array([(i, j) for i in range(6) for j in range(6)], dtype=float)
    G = build_space([f"g{i}{j}" for i, j in P.astype(int)],
                    np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)))
    perm = np.random.default_rng(seed).permutation(36)
    return build_map(G, G, {G.labels[i]: G.labels[j] for i, j in enumerate(perm)})


ENVELOPE_MAPS = {
    "noisy": _noisy_map,
    "snowflake": lambda n, seed: snowflake_map(euclidean_space(n, 2, seed=seed), 0.5),
    "lattice": lambda n, seed: _lattice_6x6_map(seed),
    "constant": lambda n, seed: build_map(euclidean_space(n, 2, seed=seed), collinear_space([0.0]),
                                          {f"p{i}": "0" for i in range(n)}),
    "point": lambda n, seed: identity_map(euclidean_space(1, 2, seed=seed)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ENVELOPE_MAPS)), st.integers(2, 9), st.integers(0, 10_000))
def test_the_envelope_is_the_records_of_the_full_envelope(kind, n, seed):
    f = ENVELOPE_MAPS[kind](n, seed)
    env = empirical_modulus(f)
    ts, hs, witnesses = naive_envelope(f, records=True)
    assert env.ts.tobytes() == np.array(ts, dtype=float).tobytes()
    assert env.hs.tobytes() == np.array(hs, dtype=float).tobytes()
    assert env.witnesses.tobytes() == np.array(witnesses, dtype=int).reshape(-1, 3).tobytes()
    assert env.witnesses.dtype == np.dtype(int)
    full_ts, full_hs, _ = naive_envelope(f)
    if kind in ("constant", "point"):
        assert len(env) == 0 and not full_ts
        return
    full = EmpiricalModulus(full_ts, full_hs)
    assert env.as_modulus().eval(full.ts).tobytes() == full.eval(full.ts).tobytes()


def test_the_envelope_is_built_in_quadratic_memory():
    f = _noisy_map(120, seed=0)
    tracemalloc.start()
    try:
        env = empirical_modulus(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(env) < 120 * 119 ** 2 // 100
    assert peak < 16 * 2 ** 20


def test_envelope_exp_line_value():
    env = empirical_modulus(exp_line_map())
    eta = env.as_modulus()
    want = np.expm1(6.0) / np.expm1(3.0)  # the ratio behind t = 2
    assert eta(2.0) == pytest.approx(want, rel=1e-12)
    assert want > 21.0


def test_the_envelope_builds_its_step_function_once():
    env = empirical_modulus(snowflake_map(euclidean_space(12, 2, seed=2), 0.5))
    eta = env.as_modulus()
    assert env.as_modulus() is eta
    t = np.concatenate([env.ts, env.ts * 1.5, [0.0, 1e-9, 1e9]])
    fresh = EmpiricalModulus(env.ts, env.hs).eval(t)
    assert env.eval(t).tobytes() == eta.eval(t).tobytes() == fresh.tobytes()
    assert env.eval(2.0) == EmpiricalModulus(env.ts, env.hs).eval(2.0)


def test_envelope_empty_for_singleton():
    X = build_space(["p"], [[0.0]])
    env = empirical_modulus(identity_map(X))
    assert len(env) == 0
    assert check_qs(identity_map(X), PowerModulus(1.0)).holds


def test_unbounded_envelope_dichotomy(line3):
    Y = collinear_space([0.0, 1.0])
    f = build_map(line3, Y, {"0": "0", "1": "1", "3": "0"})
    eta = PowerModulus(1.0)
    rep = check_qs(f, eta)
    x, a, b = rep.witness
    assert f.image_dist(x, b) == 0.0
    assert f.image_dist(x, a) > 0.0
    # the first base point with a collapsed pair, its first collapsed and
    # first separated points; no ratio is scanned
    assert (rep.holds, rep.witness_labels, rep.checked) == (False, ("0", "1", "3"), 0)
    assert rep.t == line3.dist[x, a] / line3.dist[x, b] == rep.eta_at_t == 1.0 / 3.0
    assert rep.image_ratio == np.inf
    with pytest.raises(ValidationError,
                       match=r"^rho\(f0, f3\) = 0 but rho\(f0, f1\) > 0: "
                             r"no finite control function exists$"):
        empirical_modulus(f)
    # the reciprocal-ratio identity reads domain ratios only
    assert eta_ratio_report(f, eta) == eta_ratio_report(identity_map(line3), eta)


def test_check_qs_verdicts(line3):
    f = snowflake_map(line3, 0.5)
    assert check_qs(f, PowerModulus(0.5)).holds
    rep = check_qs(f, PowerModulus(0.45))
    assert not rep.holds
    assert rep.t is not None and rep.image_ratio > rep.eta_at_t
    # witness labels name actual domain points
    assert all(lab in line3.labels for lab in rep.witness_labels)


def test_a_nan_modulus_value_fails_check_qs():
    # p0 and p1 are 1e-7 apart, so ratios pass 1e6, where eta is NaN; the
    # grid check of CallableModulus stops at 1e6 and lets it through
    P = np.array([[0, 0], [1e-7, 0], [1, 0], [0, 1], [1, 1], [2, 0.5]])
    X = build_space([f"p{i}" for i in range(6)],
                    np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)))
    f = identity_map(X)
    eta = CallableModulus(lambda t: t if t <= 1e6 else float("nan"))
    rep = check_qs(f, eta)
    assert not rep.holds and rep.checked == 150
    # the smallest ratio past 1e6: d(p1, p2) / d(p1, p0) = (1 - 1e-7) / 1e-7
    assert rep.witness_labels == ("p1", "p2", "p0")
    assert rep.t == rep.image_ratio == X.dist[1, 2] / X.dist[1, 0]
    assert np.isnan(rep.eta_at_t)
    # the envelope knots flag the same one ...
    assert repr(knot_qs_report(f, eta, 1e-9)) == \
        repr(replace(rep, checked=len(naive_envelope(f)[0])))
    # ... and the ratio report agrees that no product is defined there
    assert np.isnan(eta_ratio_report(f, eta).min_product)


def test_check_qs_envelope_is_minimal(line4):
    from qsym import EmpiricalModulus

    f = snowflake_map(line4, 0.5)
    env = empirical_modulus(f)
    assert check_qs(f, env.as_modulus(), tol=0.0).holds
    # any step function strictly below H at some knot must fail there
    for i in range(len(env)):
        cap = env.hs[i] * (1 - 1e-6)
        shaved = EmpiricalModulus(env.ts, np.minimum(env.hs, cap))
        assert not check_qs(f, shaved, tol=1e-9).holds


def test_eta_ratio_report(line4):
    f = snowflake_map(line4, 0.5)
    rep = eta_ratio_report(f, PowerModulus(0.5))
    assert rep.holds and rep.product_ok and rep.eta_one_ok
    assert rep.min_product == pytest.approx(1.0)
    weak = eta_ratio_report(f, CallableModulus(lambda t: 0.5 * t, label="half"))
    assert not weak.holds
    assert not weak.eta_one_ok


def test_fit_snowflake_recovers_parameters(line4):
    f = transform_map(line4, lambda d: 2.0 * d ** 0.7)
    fit = fit_snowflake(f)
    assert fit is not None
    assert fit.scale == pytest.approx(2.0, rel=1e-9)
    assert fit.exponent == pytest.approx(0.7, rel=1e-9)
    assert not fit.similarity


def test_fit_snowflake_similarity_flag(line4):
    fit = fit_snowflake(transform_map(line4, lambda d: 3.0 * d))
    assert fit is not None and fit.similarity
    assert fit.scale == pytest.approx(3.0)


def test_fit_snowflake_rejects_non_snowflake():
    X = collinear_space([0.0, 1.0, 3.0])
    f = transform_map(X, lambda d: d + d ** 2)
    assert fit_snowflake(f) is None


def test_fit_soundness_via_check_qs():
    for seed in range(4):
        X = euclidean_space(6, 2, seed=seed)
        f = transform_map(X, lambda d: 1.7 * d ** 0.5)
        fit = fit_snowflake(f)
        assert fit is not None
        assert check_qs(f, PowerModulus(fit.exponent)).holds


def test_minimal_bilipschitz_L(line3):
    assert minimal_bilipschitz_L(identity_map(line3)) == 1.0
    assert minimal_bilipschitz_L(transform_map(line3, lambda d: 3.0 * d)) == pytest.approx(3.0)
    f = snowflake_map(line3, 0.5)
    assert minimal_bilipschitz_L(f) == pytest.approx(np.sqrt(3.0))
    Y = collinear_space([0.0, 1.0])
    g = build_map(line3, Y, {"0": "0", "1": "1", "3": "0"})
    assert minimal_bilipschitz_L(g) is None


def test_image_subset(line3):
    f = snowflake_map(line3, 0.5)
    A = SubsetRef(line3, (0, 2))
    fA = image_subset(f, A)
    assert fA.space is f.codomain
    assert fA.indices == (0, 2)


def test_tv_bounds_identity_line():
    X = collinear_space([0.0, 1.0, 2.0])
    f = identity_map(X)
    rep = tv_bounds(
        f,
        PowerModulus(1.0),
        SubsetRef(X, (0, 1)),
        SubsetRef(X, (0, 1, 2)),
        Additive(),
        Additive(),
    )
    assert rep.holds
    ratio = rep.diam_fa / rep.diam_fb
    assert ratio == pytest.approx(0.5)
    assert rep.classical is not None
    assert rep.classical.K1 == 1.0 and rep.classical.K2 == 1.0
    # the classical double inequality brackets the ratio by [1/4, 1]
    assert rep.classical.lower == pytest.approx(0.25)
    assert rep.classical.upper == pytest.approx(1.0)
    assert rep.classical.holds


def test_tv_bounds_bmetric_instance():
    X = transform_distances(collinear_space([0.0, 1.0, 2.0, 3.0]), lambda d: d * d)
    f = identity_map(X)
    rep = tv_bounds(
        f,
        PowerModulus(1.0),
        SubsetRef(X, (0, 1)),
        SubsetRef(X, (0, 1, 2, 3)),
        ScaledAdditive(2.0),
        ScaledAdditive(2.0),
    )
    assert rep.holds
    # diam A = 1, diam B = 9, phi1(t) = 4t, so the upper bound is
    # eta(1 / (9/4)) = 4/9 and the ratio itself is 1/9
    assert rep.upper_lhs == pytest.approx(1.0 / 9.0)
    assert rep.upper_rhs == pytest.approx(4.0 / 9.0)


def test_tv_bounds_ultrametric_corollary():
    from qsym import ultrametric_space

    X = ultrametric_space(6, seed=2)
    f = identity_map(X)
    rep = tv_bounds(
        f,
        PowerModulus(1.0),
        SubsetRef(X, (0, 1, 2)),
        SubsetRef(X, (0, 1, 2, 3, 4, 5)),
        MaxGauge(),
        MaxGauge(),
    )
    assert rep.holds
    assert rep.classical is not None
    assert rep.classical.K1 == 0.5 and rep.classical.K2 == 0.5
    assert rep.classical.holds


def test_tv_bounds_preconditions(line4):
    f = snowflake_map(line4, 0.5)
    A = SubsetRef(line4, (0, 1))
    B = SubsetRef(line4, (0, 1, 2, 3))
    with pytest.raises(PreconditionFailed,
                       match=r"^map does not verify against power:0\.3: at t = 1\.2 the image "
                             r"ratio 1\.09545 exceeds eta\(t\) = 1\.05622 \(witness \('6', '0', "
                             r"'1'\)\)$"):
        tv_bounds(f, PowerModulus(0.3), A, B, Additive(), Additive())
    with pytest.raises(ValueError):
        tv_bounds(f, PowerModulus(0.5), B, A, Additive(), Additive())  # not A <= B
    other = collinear_space([0.0, 1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        tv_bounds(
            f, PowerModulus(0.5), SubsetRef(other, (0, 1)), B, Additive(), Additive()
        )


def test_bounded_image_bounds_scaling(line3):
    f = transform_map(line3, lambda d: 3.0 * d)
    rep = bounded_image_bounds(f, LinearModulus(1.0), Additive(), Additive())
    assert rep.holds
    assert rep.derived_L == pytest.approx(6.0)  # 2 * 1 * max(3, 1/3)
    assert rep.minimal_L == pytest.approx(3.0)
    assert rep.minimal_L <= rep.derived_L


def test_bounded_image_bounds_snowflake(line3):
    f = snowflake_map(line3, 0.5)
    rep = bounded_image_bounds(f, PowerModulus(0.5), Additive(), Additive())
    assert rep.holds
    assert rep.derived_L is None  # only derived for linear moduli
    assert rep.worst_upper_slack >= -1e-9
    assert rep.worst_lower_slack >= -1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1 / 3, 0.5, 1.0]))
def test_envelope_of_snowflake_is_power_function(seed, alpha):
    X = euclidean_space(5, 2, seed=seed)
    env = empirical_modulus(snowflake_map(X, alpha))
    assert np.all(np.abs(env.hs - env.ts ** alpha) <= 1e-9 * np.maximum(1.0, env.hs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_ratio_product_never_below_one_for_verifying_eta(seed):
    X = euclidean_space(5, 2, seed=seed)
    f = snowflake_map(X, 0.5)
    rep = eta_ratio_report(f, PowerModulus(0.5))
    assert rep.min_product >= 1.0 - 1e-9


def _lattice_space(n, seed):
    """n distinct points of the 4x4 integer grid: euclidean distances with
    many exactly tied and near-tied realized ratios."""
    cells = np.random.default_rng(seed).choice(16, size=n, replace=False)
    P = np.stack([cells // 4, cells % 4], axis=1).astype(float)
    D = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1))
    return build_space([f"g{c}" for c in cells], D)


PARITY_SPACES = {
    "euclidean": lambda n, seed: euclidean_space(n, 2, seed=seed),
    "semimetric": lambda n, seed: random_semimetric_space(n, seed=seed),
    "ultrametric": lambda n, seed: ultrametric_space(n, seed=seed),
    "lattice": _lattice_space,
}


def _parity_map(kind, image, n, seed):
    X = PARITY_SPACES[kind](n, seed)
    if image == "snowflake":
        return snowflake_map(X, 0.5)
    if image == "inverse":
        return snowflake_map(X, 0.5).inverse()
    Y = PARITY_SPACES[image](n, seed + 1)
    perm = np.random.default_rng(seed).permutation(n)
    return build_map(X, Y, {X.labels[i]: Y.labels[j] for i, j in enumerate(perm)})


def _parity_moduli(f):
    root = CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
    env = empirical_modulus(f)
    return [
        PowerModulus(0.5), PowerModulus(0.45), PowerModulus(2.0), LinearModulus(1.0),
        BiLipschitzModulus(1.5), ExpRatioModulus(), root, inverse_modulus(root),
        env.as_modulus(), EmpiricalModulus(env.ts, env.hs * (1 - 1e-6)),
    ]


def _without_checked(rep):
    d = rep.to_dict()
    del d["checked"]
    return d


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(PARITY_SPACES)),
    st.sampled_from(sorted(PARITY_SPACES) + ["snowflake", "inverse"]),
    st.integers(3, 7),
    st.integers(0, 10_000),
    st.sampled_from([1e-9, 0.0]),
)
def test_streamed_verdicts_match_the_envelope_path(kind, image, n, seed, tol):
    f = _parity_map(kind, image, n, seed)
    for eta in _parity_moduli(f):
        rep = check_qs(f, eta, tol=tol)
        assert _without_checked(rep) == _without_checked(knot_qs_report(f, eta, tol))
        assert rep.checked == n * (n - 1) ** 2
        with np.errstate(all="ignore"):
            ratio = eta_ratio_report(f, eta)
            want = knot_ratio_report(f, eta)
        if type(eta) in _POWER_FAMILY:  # C**2 at the least ratio, not a scanned product
            _assert_power_ratio_report(f, eta, ratio)
        else:
            assert _without_checked(ratio) == _without_checked(want)
        assert ratio.checked == n * (n - 1) ** 2


#: power-family moduli whose C**2 lies on either side of 1 - RATIO_PRODUCT_TOL
POWER_MODULI = [
    PowerModulus(0.5), PowerModulus(0.45), PowerModulus(2.0), LinearModulus(1.0),
    LinearModulus(0.5), LinearModulus(1 - 1e-9), LinearModulus(1 + 1e-9),
    BiLipschitzModulus(1.5), BiLipschitzModulus(1 + 1e-9),
]


def _assert_power_ratio_report(f, eta, rep, wide=False):
    """eta(t) eta(1/t) = C**2 at every realized ratio of an injective map,
    read at the least knot of the loop envelope; off a wide space the
    verdict is that of the knot path's products."""
    n = f.domain.n
    with np.errstate(all="ignore"):
        ts = naive_envelope(f)[0]
        want = None if wide else knot_ratio_report(f, eta)
    assert rep.min_product == eta.C * eta.C
    assert rep.at_t == ts[0]
    assert rep.checked == n * (n - 1) ** 2
    if want is not None:
        assert (rep.holds, rep.product_ok, rep.eta_one_ok, rep.eta_one) == \
            (want.holds, want.product_ok, want.eta_one_ok, want.eta_one)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(PARITY_SPACES)),
    st.sampled_from(sorted(PARITY_SPACES) + ["snowflake", "inverse"]),
    st.integers(2, 7),
    st.integers(0, 10_000),
    st.sampled_from(POWER_MODULI),
)
def test_a_power_ratio_report_is_c_squared_at_the_least_ratio(kind, image, n, seed, eta):
    f = _parity_map(kind, image, n, seed)
    _assert_power_ratio_report(f, eta, eta_ratio_report(f, eta))
    # a constant map realizes no ratio: the empty report of the knot path
    point = build_space(["p"], [[0.0]])
    const = build_map(f.domain, point, {lab: "p" for lab in f.domain.labels})
    assert eta_ratio_report(const, eta) == knot_ratio_report(const, eta)


@settings(max_examples=40, deadline=None)
@given(WIDE_LINES, WIDE_LINES, st.sampled_from(POWER_MODULI))
def test_a_power_ratio_report_on_wide_lines_is_c_squared(X, Y, eta):
    if Y.n < X.n:
        X, Y = Y, X
    for f in (PointMap(X, Y, np.arange(X.n)), PointMap(X, Y, np.arange(X.n)[::-1])):
        rep = eta_ratio_report(f, eta)
        _assert_power_ratio_report(f, eta, rep, wide=True)
        assert rep.product_ok is (eta.C * eta.C >= 1 - quasisymmetry.RATIO_PRODUCT_TOL)


def test_first_violation_in_a_near_duplicate_chain():
    # realized ratios 2 (row p) and 2 (1 + 5e-13) (row q) are two knots
    # of the envelope; the smaller one fails first, with image ratio 4
    c = 1.0 / (1.0 + 5e-13)
    X = build_space(["p", "q", "s"], [[0.0, 2.0, 1.0], [2.0, 0.0, c], [1.0, c, 0.0]])
    Y = build_space(["p", "q", "s"], [[0.0, 5.6, 1.4], [5.6, 0.0, 1.0], [1.4, 1.0, 0.0]])
    f = build_map(X, Y, {lab: lab for lab in "pqs"})
    eta = LinearModulus(1.5)  # eta(2) = 3 < 4 = rho(p,q)/rho(p,s)
    rep = check_qs(f, eta)
    assert _without_checked(rep) == _without_checked(knot_qs_report(f, eta, 1e-9))
    assert rep.t == 2.0 < 2.0 / c
    assert rep.witness == (0, 1, 2) and rep.image_ratio == 4.0
    assert rep.checked == 12
    # a step modulus ties every product at 1: the smallest ratio c/2 is a
    # knot of its own, where the minimum over knots lands
    step = EmpiricalModulus([0.25], [1.0])
    ratio = eta_ratio_report(f, step)
    assert _without_checked(ratio) == _without_checked(knot_ratio_report(f, step))
    assert ratio.at_t == c / 2 and ratio.min_product == 1.0


def test_a_violation_next_to_a_near_duplicate_ratio_fails():
    # row p realizes t = 2 with r = 3 (1 + 2.5e-13) > eta(2) = 3; row q's
    # t = 2 (1 + 5e-13) lies within relative 1e-12 of it but passes, so a
    # knot at the larger ratio alone would certify the map
    c = 1.0 / (1.0 + 5e-13)
    e = 3.0 * (1.0 + 2.5e-13)
    X = build_space(["p", "q", "s"], [[0.0, 2.0, 1.0], [2.0, 0.0, c], [1.0, c, 0.0]])
    Y = build_space(["p", "q", "s"], [[0.0, e, 1.0], [e, 0.0, 1.2], [1.0, 1.2, 0.0]])
    f = build_map(X, Y, {lab: lab for lab in "pqs"})
    rep = check_qs(f, LinearModulus(1.5), tol=0.0)
    assert not rep.holds
    assert rep.witness_labels == ("p", "q", "s")
    assert rep.t == 2.0 and rep.eta_at_t == 3.0
    assert rep.image_ratio == e


@pytest.mark.parametrize("block", [1, quasisymmetry._ROW_BLOCK])
def test_a_failing_scan_calls_eta_only_on_ratios_it_needs(monkeypatch, block):
    # past the first violation a block is evaluated only at its ratios
    # t <= lo; a block with none must not call eta at all, as np.vectorize
    # without otypes rejects an empty array
    monkeypatch.setattr(quasisymmetry, "_ROW_BLOCK", block)
    eta = CallableModulus(np.vectorize(lambda s: 0.5 * s ** 0.5), label="vec")
    f = snowflake_map(euclidean_space(40, 2, seed=1), 0.5)
    rep = check_qs(f, eta)
    assert not rep.holds and rep.checked == 40 * 39 ** 2
    assert _without_checked(rep) == _without_checked(knot_qs_report(f, eta, 1e-9))


def test_an_inverse_map_with_tiny_preimages_gets_a_report():
    # two points 1e-14 apart: the inverse map realizes ratios past 1e7,
    # where eta'(t) = 4 t**2 asks 2 sqrt(s) for preimages below 1e-14
    eta = CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
    f = snowflake_map(collinear_space([0.0, 1e-14, 1.0, 2.0]), 0.5)
    rep = check_qs(f.inverse(), inverse_modulus(eta))
    assert rep.holds and rep.checked == 36


def _row_block_cases():
    """(map, moduli) pairs built afresh, since check_qs keeps its reports
    per map and modulus object.  The default blocks hold several rows of
    these maps (the 23-point one takes 16 and then 7), so 1 and 10**9
    split and merge rows."""
    root = CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
    small = snowflake_map(euclidean_space(12, 2, seed=2), 0.5)
    wide = snowflake_map(euclidean_space(23, 2, seed=3), 0.5)
    line = collinear_space([0.0, 1.0, 2.0, 3.0])
    point = collinear_space([0.0])
    constant = build_map(line, point, {lab: "0" for lab in line.labels})
    X, Y = random_semimetric_space(17, seed=6), random_semimetric_space(17, seed=7)
    perm = np.random.default_rng(8).permutation(17)
    random_bijection = build_map(X, Y, zip(X.labels, np.array(Y.labels)[perm]))
    return [
        # the smallest flagged ratio 1/3 is realized at x = 0 and x = 3
        (identity_map(line), [LinearModulus(0.5), LinearModulus(1.0)]),
        (small, [root, PowerModulus(0.25), PowerModulus(0.5)]),
        (small.inverse(), [inverse_modulus(root),
                           inverse_modulus(CallableModulus(np.sqrt, label="sqrt")),
                           inverse_modulus(CallableModulus(lambda t: 0.5 * np.sqrt(t)))]),
        (wide, [PowerModulus(0.5), LinearModulus(2.0), ExpRatioModulus()]),
        (random_bijection, [PowerModulus(1.0), BiLipschitzModulus(40.0)]),
        (constant, [PowerModulus(1.0)]),
    ]


def _row_block_results():
    out = []
    for f, moduli in _row_block_cases():
        env = empirical_modulus(f)
        out.append((env.ts.tobytes(), env.hs.tobytes(), env.witnesses.tobytes(),
                    env.witnesses.dtype))
        for eta in moduli:
            out.append((check_qs(f, eta), check_qs(f, eta, tol=0), eta_ratio_report(f, eta)))
    return out


@pytest.mark.parametrize("block", [1, 10**9])
def test_qs_scans_are_independent_of_the_row_block(monkeypatch, block):
    whole = _row_block_results()
    tie = whole[1][0]
    assert not tie.holds and tie.t == 1 / 3 and tie.witness == (3, 2, 0)
    assert sum(not rep[0].holds for rep in whole[1:] if len(rep) == 3) >= 5
    assert whole[-2] == (b"", b"", b"", np.dtype(int))
    assert whole[-1][0].holds and whole[-1][0].checked == 0
    monkeypatch.setattr(quasisymmetry, "_ROW_BLOCK", block)
    assert _row_block_results() == whole


def test_check_qs_runs_in_quadratic_memory():
    f = snowflake_map(euclidean_space(300, 2), 0.6)
    for eta, holds in ((PowerModulus(0.6), True), (PowerModulus(0.3), False)):
        tracemalloc.start()
        try:
            rep = check_qs(f, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds is holds
        assert rep.checked == 300 * 299 ** 2
        assert peak < 50 * 2 ** 20


# ------------------------------------------------- remembered verdicts


@pytest.fixture
def row_walks(monkeypatch):
    """How many times the realized ratios are walked, via ``_rows``."""
    walks = []
    rows = quasisymmetry._rows

    def counted(f):
        walks.append(f)
        return rows(f)

    monkeypatch.setattr(quasisymmetry, "_rows", counted)
    return walks


@pytest.fixture
def verdict_scans(monkeypatch):
    """How many verdicts ``check_qs`` computes, via ``_scan_qs``: a holding
    power verdict walks no rows."""
    scans = []
    scan = quasisymmetry._scan_qs

    def counted(f, eta, tol):
        scans.append(f)
        return scan(f, eta, tol)

    monkeypatch.setattr(quasisymmetry, "_scan_qs", counted)
    return scans


def test_one_scan_per_verdict(line4, verdict_scans, row_walks):
    f = snowflake_map(line4, 0.5)
    eta = PowerModulus(0.5)
    A = SubsetRef(line4, (0, 1))
    B = SubsetRef(line4, (0, 1, 2, 3))
    rep = check_qs(f, eta)
    assert rep.holds and len(verdict_scans) == 1
    assert tv_bounds(f, eta, A, B, Additive(), Additive()).holds
    assert bounded_image_bounds(f, eta, Additive(), Additive()).holds
    end = verify_transfer_end_to_end(f, Additive(), Additive(), eta)
    assert len(verdict_scans) == 1
    assert end.qs is rep
    # a failing verdict is one scan too
    assert not check_qs(f, PowerModulus(0.25)).holds
    assert len(verdict_scans) == 2
    # a power-family ratio report walks no rows, any other modulus one
    walks = len(row_walks)
    assert eta_ratio_report(f, eta).holds
    assert not eta_ratio_report(f, LinearModulus(0.5)).holds
    assert len(row_walks) == walks
    assert eta_ratio_report(f, CallableModulus(np.sqrt, label="root")).holds
    assert len(row_walks) == walks + 1


def test_verdicts_are_kept_per_modulus_object(line4, verdict_scans):
    f = snowflake_map(line4, 0.5)
    first, second = PowerModulus(0.5), PowerModulus(0.5)
    rep = check_qs(f, first)
    again = check_qs(f, second)
    assert len(verdict_scans) == 2
    assert again == rep and again is not rep
    assert check_qs(f, first) is rep and check_qs(f, second) is again
    assert check_qs(snowflake_map(line4, 0.5), first) is not rep
    assert len(verdict_scans) == 3


def test_verdicts_are_kept_per_tol(row_walks):
    # rho(a, b) / rho(a, c) = 1 + 5e-10 at the realized ratio 1, where eta(1) = 1
    X = build_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    e = 1.0 + 5e-10
    Y = build_space(["a", "b", "c"], [[0, e, 1], [e, 0, 1], [1, 1, 0]])
    f = build_map(X, Y, {lab: lab for lab in "abc"})
    eta = LinearModulus(1.0)
    strict = check_qs(f, eta, tol=0)
    loose = check_qs(f, eta, tol=1e-9)
    assert not strict.holds and strict.witness_labels == ("b", "a", "c")
    assert strict.image_ratio == e and strict.tol == 0
    assert loose.holds and loose.tol == 1e-9
    assert check_qs(f, eta, tol=0) is strict and check_qs(f, eta, tol=1e-9) is loose
    # the report echoes tol as given: 0.0 is kept apart from 0
    assert repr(check_qs(f, eta, tol=0.0).tol) == "0.0"
    assert repr(check_qs(f, eta, tol=-0.0).tol) == "-0.0"


def test_remembered_verdicts_keep_nothing_alive(line4):
    f = snowflake_map(line4, 0.5)
    eta, kept = PowerModulus(0.5), PowerModulus(0.5)
    check_qs(f, eta)
    rep = check_qs(f, kept)
    f_ref, eta_ref = weakref.ref(f), weakref.ref(eta)
    del eta
    gc.collect()
    assert eta_ref() is None and check_qs(f, kept) is rep
    del f
    gc.collect()
    assert f_ref() is None and rep.holds


def test_failing_verdicts_are_remembered(line4, row_walks):
    f = snowflake_map(line4, 0.5)
    small = PowerModulus(0.3)
    assert not check_qs(f, small).holds
    walks = len(row_walks)
    A = SubsetRef(line4, (0, 1))
    B = SubsetRef(line4, (0, 1, 2, 3))
    with pytest.raises(PreconditionFailed) as err:
        tv_bounds(f, small, A, B, Additive(), Additive())
    assert str(err.value) == (
        "map does not verify against power:0.3: at t = 1.2 the image ratio 1.09545 "
        "exceeds eta(t) = 1.05622 (witness ('6', '0', '1'))"
    )
    assert len(row_walks) == walks


class _Root(Modulus):
    def eval(self, t):
        return self.scale * np.sqrt(np.asarray(t, dtype=float))

    def describe(self):
        return f"sqrt:{self.scale:g}"


@dataclass
class _UnhashableRoot(_Root):
    scale: float = 1.0


@dataclass(frozen=True)
class _ValueHashedRoot(_Root):
    scale: float = 1.0


@pytest.mark.parametrize("root", [_UnhashableRoot, _ValueHashedRoot])
def test_a_modulus_with_value_equality_is_scanned_every_time(line4, row_walks, root):
    f = snowflake_map(line4, 0.5)
    eta = root()
    rep = check_qs(f, eta)
    again = check_qs(f, eta)
    assert check_qs(f, root()) == rep
    assert len(row_walks) == 3
    power = check_qs(f, PowerModulus(0.5))
    assert replace(rep, modulus=power.modulus) == power
    assert again == rep and not check_qs(f, root(0.5)).holds
