import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Additive,
    CallableModulus,
    BiLipschitzModulus,
    CustomGauge,
    ExpRatioModulus,
    LinearModulus,
    MaxGauge,
    PowerModulus,
    PreconditionFailed,
    ScaledAdditive,
    build_map,
    build_space,
    check_qs,
    check_transfer_condition,
    collinear_space,
    euclidean_space,
    identity_map,
    minimal_transfer_K2,
    ptolemy_transfer_check,
    random_semimetric_space,
    snowflake,
    snowflake_map,
    transform_distances,
    transform_map,
    ultrametric_space,
    ValidationError,
    verify_transfer_end_to_end,
)

from qsym import transfer, triangle
from qsym.cli import main
from qsym.fileio import save_space
from conftest import naive_ptolemy_transfer, naive_transfer_scan, power_table


def minimal_K2_oracle(K1, eta, m=20_001):
    """Boundary minimization by brute scan: on 1/t1 + 1/t2 = 1/K1 the
    needed K2 is sup of 1 / (1/eta(t1) + 1/eta(t2))."""
    u = np.linspace(0.0, 1.0 / K1, m + 2)[1:-1]
    t1 = 1.0 / u
    t2 = 1.0 / (1.0 / K1 - u)
    s = 1.0 / np.asarray(eta.eval(t1)) + 1.0 / np.asarray(eta.eval(t2))
    return max(1.0, float(np.max(1.0 / s)))


def test_grid_transfer_identity_modulus():
    rep = check_transfer_condition(Additive(), Additive(), PowerModulus(1.0))
    assert rep.holds
    assert rep.mode == "grid"
    # the binding premise pair sits at t1 = t2 = 2, where the conclusion
    # side is exactly 1
    t1, t2, lhs1, lhs2 = rep.worst
    assert (t1, t2) == (2.0, 2.0)
    assert lhs2 == pytest.approx(1.0)


def test_grid_transfer_violation_witness():
    rep = check_transfer_condition(Additive(), Additive(), PowerModulus(2.0))
    assert not rep.holds
    t1, t2, lhs1, lhs2 = rep.worst
    assert lhs1 >= 1.0 - 1e-9  # premise held
    assert lhs2 < 1.0 - 1e-9  # conclusion failed
    # K2 = 2 repairs the very same implication
    assert check_transfer_condition(Additive(), ScaledAdditive(2.0), PowerModulus(2.0)).holds


def test_grid_transfer_max_to_max():
    # the ultrametric criterion: any modulus with eta(1) = 1 transfers
    # the max gauge to itself
    for eta in (PowerModulus(1.0), PowerModulus(2.0), PowerModulus(0.5)):
        assert check_transfer_condition(MaxGauge(), MaxGauge(), eta).holds


def test_grid_transfer_respects_span_and_points():
    rep = check_transfer_condition(
        Additive(), Additive(), PowerModulus(1.0), grid_points=32, grid_span=(0.1, 10.0)
    )
    assert rep.holds
    # 32 grid values plus the 5 dyadic anchors bound the pair count
    assert rep.checked_pairs <= 37 * 37


def test_realized_transfer_on_map(line4=None):
    X = euclidean_space(7, 2, seed=1)
    f = snowflake_map(X, 0.5)
    rep = check_transfer_condition(
        Additive(), ScaledAdditive(2.0), PowerModulus(0.5), pairs=f
    )
    assert rep.holds
    assert rep.mode == "realized"
    assert rep.checked_pairs > 0


def test_realized_transfer_accepts_space():
    X = collinear_space([0.0, 1.0, 3.0])
    rep = check_transfer_condition(
        Additive(), ScaledAdditive(2.0), PowerModulus(0.5), pairs=X
    )
    assert rep.holds and rep.mode == "realized"


def late_violation_space(n=17):
    """Three points 100 apart from every other point, then a planar
    cluster: base points 0, 1 and 2 see every t1 = 1, so under power:2
    the first violation of the transfer scan has x >= 3."""
    D = np.full((n, n), 100.0)
    D[3:, 3:] = euclidean_space(n - 3, 2, seed=8).dist
    np.fill_diagonal(D, 0.0)
    return build_space([f"p{i}" for i in range(n)], D)


@pytest.mark.parametrize("block", [1, 7, 40, 200, 500])
def test_realized_transfer_is_independent_of_the_block_size(monkeypatch, block):
    # at these sizes the default block packs the whole space; blocks of 200
    # and 500 cut a packed rectangle mid-space, and smaller ones split the
    # y-rows of one base point: all must give the same count, first
    # violation and tightest pair
    cases = [
        (Additive(), Additive(), PowerModulus(0.5), euclidean_space(23, 2, seed=3)),
        (Additive(), Additive(), PowerModulus(2.0), euclidean_space(23, 2, seed=3)),
        (ScaledAdditive(2.0), ScaledAdditive(1.5), PowerModulus(0.7),
         random_semimetric_space(19, seed=4)),
        (MaxGauge(), MaxGauge(), PowerModulus(0.5), ultrametric_space(17, seed=5)),
        (Additive(), Additive(), PowerModulus(0.5), collinear_space([0.0, 1.0])),
        (Additive(), Additive(), PowerModulus(2.0), late_violation_space()),
        (Additive(), Additive(), CallableModulus(lambda t: t * t), late_violation_space(13)),
        (Additive(), Additive(), PowerModulus(2.0), collinear_space([0.0])),
        (Additive(), Additive(), PowerModulus(2.0), collinear_space([0.0, 1.0, 2.0])),
    ]
    whole = [check_transfer_condition(*c[:3], pairs=c[3]) for c in cases]
    monkeypatch.setattr(triangle, "_PAIR_BLOCK", block)
    for c, expect in zip(cases, whole):
        assert check_transfer_condition(*c[:3], pairs=c[3]) == expect
    assert not whole[1].holds and whole[0].holds
    assert whole[4].checked_pairs == 0 and whole[4].worst is None
    assert whole[7].checked_pairs == 0 and whole[7].worst is None
    # the midpoint 1 of 0 and 2: t1 = t2 = 2, a violation at x = 0
    assert not whole[8].holds and whole[8].worst[:2] == (2.0, 2.0)


@pytest.mark.parametrize("eta", [PowerModulus(2.0), CallableModulus(lambda t: t * t)])
def test_a_violation_past_the_first_base_point_of_a_packed_block(eta):
    # the default block packs all 17 base points; the scan must stop after
    # the violating one, so the count drops the later base points' premises
    X = late_violation_space()
    assert [rows[:2] for rows in triangle._pair_rows(X.n)] == [(0, 16)]
    rep = check_transfer_condition(Additive(), Additive(), eta, pairs=X)
    oracle = naive_transfer_scan(Additive(), Additive(), eta, X)
    assert not rep.holds
    assert (rep.checked_pairs, rep.worst) == (oracle.checked_pairs, oracle.worst)
    assert rep.worst[0] != 1.0  # so x >= 3


#: validated on its probe grid, which stops at 1e6, and NaN past it
NAN_PAST_1E6 = CustomGauge(lambda u, v: u + v if max(u, v) <= 1e6 else float("nan"),
                           name="nan-past-1e6")
TRANSFER_GAUGES = [(Additive(), Additive()), (Additive(), ScaledAdditive(2.0)),
                   (MaxGauge(), MaxGauge()), (ScaledAdditive(1.5), Additive()),
                   (Additive(), MaxGauge()), (Additive(), NAN_PAST_1E6)]
TRANSFER_MODULI = [PowerModulus(0.5), PowerModulus(1.0), PowerModulus(2.0),
                   BiLipschitzModulus(1.5)]


@st.composite
def tie_heavy_spaces(draw):
    """3 to 9 points at distances 1, 2 or 3, so many ratio pairs tie;
    optionally two points 1e-7 apart, whose ratios pass 1e6."""
    n = draw(st.integers(3, 9))
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                             min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    if draw(st.booleans()):
        D[0, 1] = 1e-7
    return build_space([f"p{i}" for i in range(n)], D + D.T)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_spaces(), st.sampled_from(TRANSFER_GAUGES), st.sampled_from(TRANSFER_MODULI))
def test_realized_transfer_matches_the_loop_oracle(X, gauges, eta):
    # the scan over x < y must give the report of the scan over all
    # ordered triples: its first violation, the tightest pair and the
    # premise count up to the violating row
    # (reprs, as a NaN witness never compares equal to itself)
    phi1, phi2 = gauges
    assert repr(check_transfer_condition(phi1, phi2, eta, pairs=X)) == \
        repr(naive_transfer_scan(phi1, phi2, eta, X))


#: the moduli C t**alpha, which the realized scans read off the table P = d**alpha
TABLE_MODULI = [PowerModulus(0.5), PowerModulus(2.0), LinearModulus(0.7),
                BiLipschitzModulus(1.5)]
RANDOM_SPACES = st.one_of(
    st.builds(random_semimetric_space, st.integers(3, 9), seed=st.integers(0, 999)),
    st.builds(euclidean_space, st.integers(3, 9), st.just(2), seed=st.integers(0, 999)),
)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_spaces() | RANDOM_SPACES, st.sampled_from(TRANSFER_GAUGES),
       st.sampled_from(TABLE_MODULI))
def test_the_table_path_reports_the_log_paths_conclusion(X, gauges, eta):
    # the same C t**alpha behind a CallableModulus takes the log path
    phi1, phi2 = gauges
    table = check_transfer_condition(phi1, phi2, eta, pairs=X)
    log = check_transfer_condition(phi1, phi2, CallableModulus(eta.eval), pairs=X)
    assert transfer._power_table(eta, np.asarray(X.dist)) is not None
    assert (table.worst is None) == (log.worst is None)
    if table.worst is None:
        return
    a, b = table.worst[3], log.worst[3]
    assert (np.isnan(a) and np.isnan(b)) or \
        abs(a - b) <= 8 * np.finfo(float).eps * max(abs(a), abs(b))
    if not abs(a - (1.0 - table.tol)) <= 1e-12:
        assert table.holds == log.holds


#: (built-in gauge, the same sum behind a CustomGauge, which is read divided)
SUM_GAUGES = [(Additive(), CustomGauge(lambda u, v: u + v, name="sum")),
              (ScaledAdditive(1.5), CustomGauge(lambda u, v: 1.5 * (u + v), name="1.5sum"))]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_spaces() | RANDOM_SPACES, st.sampled_from(SUM_GAUGES),
       st.sampled_from(["phi1", "phi2", "both"]), st.sampled_from(TABLE_MODULI))
def test_the_undivided_sides_report_the_divided_ones(X, gauges, swap, eta):
    # the built-in gauge is compared undivided on the table; the same sum
    # as a CustomGauge is divided first, so the two differ by rounding only
    builtin, custom = gauges
    phi1 = custom if swap in ("phi1", "both") else builtin
    phi2 = custom if swap in ("phi2", "both") else builtin
    undivided = check_transfer_condition(builtin, builtin, eta, pairs=X)
    divided = check_transfer_condition(phi1, phi2, eta, pairs=X)
    assert (undivided.worst is None) == (divided.worst is None)
    if undivided.worst is None:
        return
    a, b = undivided.worst[3], divided.worst[3]
    assert abs(a - b) <= 8 * np.finfo(float).eps * max(abs(a), abs(b))
    if not abs(a - (1.0 - undivided.tol)) <= 1e-12:
        assert undivided.holds == divided.holds


@pytest.mark.parametrize("gauges", TRANSFER_GAUGES[:5])
@pytest.mark.parametrize("eta", TRANSFER_MODULI + [LinearModulus(0.7),
                                                   CallableModulus(np.sqrt, label="root")])
def test_distances_up_to_1_5e308_give_the_report_of_their_scaled_copy(gauges, eta):
    # the premise is compared on D 2**-e, so no gauge side overflows
    X = build_space(["a", "b", "c", "d", "e"], np.ldexp(np.asarray(
        euclidean_space(5, 2, seed=7).dist), 1000))
    D = np.array(X.dist)
    D[0, 1] = D[1, 0] = 1.5e308
    D[2, 3] = D[3, 2] = 1e308
    X = build_space(X.labels, D)
    Y = build_space(X.labels, np.ldexp(D, -1000))
    assert np.array_equal(X.dist, D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_transfer_condition(*gauges, eta, pairs=X)
        assert repr(rep) == repr(check_transfer_condition(*gauges, eta, pairs=Y))
    assert repr(rep) == repr(naive_transfer_scan(*gauges, eta, X))


#: Ptolemaic domains with exact ties (integer lines) and without
PTOLEMAIC_SPACES = st.one_of(
    st.lists(st.integers(0, 30), min_size=4, max_size=7, unique=True).map(collinear_space),
    st.builds(euclidean_space, st.integers(4, 7), st.just(2), seed=st.integers(0, 999)),
)
#: (image exponent, modulus verifying the map onto the image snowflake)
PTOLEMY_CASES = [(0.5, PowerModulus(0.5)), (2.0, PowerModulus(2.0)),
                 (1.0, LinearModulus(1.5)), (1.0, BiLipschitzModulus(1.2)),
                 (0.5, CallableModulus(np.sqrt, label="root")),
                 (2.0, CallableModulus(np.square, label="square"))]


@settings(max_examples=120, deadline=None)
@given(PTOLEMAIC_SPACES, st.sampled_from(PTOLEMY_CASES))
def test_realized_ptolemy_transfer_matches_the_loop_oracle(X, case):
    # verdict, conclusion value, quadruple, ratios and count of the scans
    # over the 4-subsets, one per ordering; power 2 images fail the
    # implication, so first violations are compared too
    alpha, eta = case
    f = snowflake_map(X, alpha)
    rep = ptolemy_transfer_check(f, eta, force_realized=True)
    D = np.asarray(X.dist)
    assert (transfer._power_table(eta, D, squared=True) is None) == \
        (power_table(eta, D, squared=True) is None)
    assert repr((rep.implication_holds, rep.worst_value, rep.worst_quadruple,
                 rep.worst_ratios, rep.checked)) == repr(naive_ptolemy_transfer(f, eta))


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 40), min_size=4, max_size=10, unique=True).map(collinear_space),
    st.builds(euclidean_space, st.integers(4, 10), st.just(2), seed=st.integers(0, 999)),
), st.sampled_from(PTOLEMY_CASES))
def test_realized_ptolemy_transfer_matches_the_loop_oracle_at_every_block_size(block, X,
                                                                              case):
    # up to 10 points, so blocks of 64 quadruples split too
    alpha, eta = case
    f = snowflake_map(X, alpha)
    with mock.patch.object(triangle, "_QUAD_BLOCK", block):
        rep = ptolemy_transfer_check(f, eta, force_realized=True)
    assert repr((rep.implication_holds, rep.worst_value, rep.worst_quadruple,
                 rep.worst_ratios, rep.checked)) == repr(naive_ptolemy_transfer(f, eta))


@pytest.mark.parametrize("tiny", [1e-200, 1e-160])
def test_the_table_falls_back_to_the_log_path_off_the_normal_floats(monkeypatch, tiny):
    # distances over tiny..1: at alpha = 2 the table's tiny**2 / 4 underflows
    # to 0 or to a subnormal, and the four-ratio products of the linear
    # table do too
    D = np.ones((4, 4)) - np.eye(4)
    D[0, 1] = D[1, 0] = tiny
    X = build_space(["a", "b", "c", "d"], D)
    gauges = (Additive(), ScaledAdditive(2.0))
    assert transfer._power_table(PowerModulus(2.0), D) is None
    assert transfer._power_table(LinearModulus(1.0), D, squared=True) is None
    assert transfer._power_table(LinearModulus(1.0), D) is not None
    assert transfer._power_table(PowerModulus(2.0), np.sqrt(D)) is not None
    rep = check_transfer_condition(*gauges, PowerModulus(2.0), pairs=X)
    ptolemy = ptolemy_transfer_check(identity_map(X), LinearModulus(1.0))
    assert repr(rep) == repr(naive_transfer_scan(*gauges, PowerModulus(2.0), X))
    monkeypatch.setattr(transfer, "_power_table", lambda *args, **kwargs: None)
    assert repr(rep) == repr(check_transfer_condition(*gauges, PowerModulus(2.0), pairs=X))
    assert repr(ptolemy) == repr(ptolemy_transfer_check(identity_map(X), LinearModulus(1.0)))
    assert ptolemy.mode == "realized" and ptolemy.checked == 3


def test_a_nan_conclusion_violates_the_transfer_condition():
    # two points 1e-7 apart give 1/t near 1e7, where the gauge is NaN;
    # such a conclusion used to pass as holds=True with a NaN worst pair
    P = np.array([[0, 0], [1e-7, 0], [1, 0], [0, 1], [1, 1], [2, 0.5]])
    X = build_space([f"p{i}" for i in range(6)],
                    np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)))
    rep = check_transfer_condition(Additive(), NAN_PAST_1E6, PowerModulus(1.0), pairs=X)
    assert not rep.holds and np.isnan(rep.worst[3])
    assert repr(rep) == repr(naive_transfer_scan(Additive(), NAN_PAST_1E6,
                                                 PowerModulus(1.0), X))
    grid = check_transfer_condition(Additive(), NAN_PAST_1E6, PowerModulus(1.0),
                                    grid_span=(1e-7, 1e4))
    assert not grid.holds and np.isnan(grid.worst[3])


def test_minimal_transfer_K2_known_values():
    assert minimal_transfer_K2(1.0, PowerModulus(2.0)) == pytest.approx(2.0, abs=1e-6)
    assert minimal_transfer_K2(1.0, PowerModulus(1.0)) == pytest.approx(1.0, abs=1e-12)
    # concave moduli cannot force K2 above 1
    assert minimal_transfer_K2(1.0, PowerModulus(0.5)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("K1", [0.5, float("nan")])
def test_minimal_transfer_K2_rejects_a_K1_below_1_or_nan(K1):
    with pytest.raises(ValueError, match="K1 must be >= 1"):
        minimal_transfer_K2(K1, PowerModulus(2.0))


def test_minimal_transfer_K2_bilip_closed_form():
    # eta(t) = L**2 t makes the boundary sum constant: K2 = K1 L**2
    assert minimal_transfer_K2(1.5, BiLipschitzModulus(2.0)) == pytest.approx(6.0, rel=1e-9)
    assert minimal_transfer_K2(1.0, BiLipschitzModulus(3.0)) == pytest.approx(9.0, rel=1e-9)


@pytest.mark.parametrize("K1,alpha", [(1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (1.5, 1.2)])
def test_minimal_transfer_K2_matches_oracle(K1, alpha):
    eta = PowerModulus(alpha)
    got = minimal_transfer_K2(K1, eta)
    want = minimal_K2_oracle(K1, eta)
    assert got == pytest.approx(want, rel=1e-6)
    assert got >= want - 1e-9  # refinement only ever sharpens upward


def test_minimal_transfer_K2_finds_an_off_grid_maximum():
    # eta(t) = t^2 + 3 sqrt(t) peaks off the boundary grid (u K1 ~ 0.1687),
    # where the grid alone reads about 1.2e-8 low
    eta = CallableModulus(lambda t: t ** 2 + 3.0 * np.sqrt(t), label="t2+3sqrt")
    got = minimal_transfer_K2(1.0, eta)
    assert got == pytest.approx(minimal_K2_oracle(1.0, eta, m=2_000_001), rel=1e-10)
    assert got >= minimal_K2_oracle(1.0, eta) - 1e-12


def test_minimal_transfer_K2_monotone_in_K1():
    eta = PowerModulus(2.0)
    vals = [minimal_transfer_K2(k, eta) for k in (1.0, 1.5, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_minimal_transfer_K2_resulting_gauge_transfers():
    # the computed K2 actually closes the grid implication, and shrinking
    # it noticeably reopens it
    eta = PowerModulus(2.0)
    K2 = minimal_transfer_K2(1.0, eta)
    assert check_transfer_condition(Additive(), ScaledAdditive(K2 * (1 + 1e-9)), eta).holds
    assert not check_transfer_condition(
        Additive(), ScaledAdditive(K2 * 0.9), eta
    ).holds


def test_end_to_end_snowflake():
    X = euclidean_space(8, 2, seed=3)
    f = snowflake_map(X, 0.5)
    rep = verify_transfer_end_to_end(f, Additive(), ScaledAdditive(2.0), PowerModulus(0.5))
    assert rep.holds and rep.consistent
    assert rep.domain_triangle.holds and rep.qs.holds
    assert rep.transfer.holds and rep.image_triangle.holds


def test_end_to_end_ultrametric_relabeled():
    X = ultrametric_space(7, seed=4)
    Y = transform_distances(X, lambda d: d)  # fresh copy, same distances
    perm = {lab: Y.labels[(i + 1) % X.n] for i, lab in enumerate(X.labels)}
    f = build_map(X, Y, perm, require_bijective=True)
    # relabeling is generally not rank-preserving, so use the identity
    # assignment for the transfer statement instead
    g = build_map(X, Y, dict(zip(X.labels, Y.labels)), require_bijective=True)
    rep = verify_transfer_end_to_end(g, MaxGauge(), MaxGauge(), PowerModulus(1.0))
    assert rep.holds and rep.consistent


def test_end_to_end_preconditions(line3):
    Y = snowflake(line3, 0.5)
    notbij = build_map(line3, Y, {"0": "0", "1": "0", "3": "3"})
    with pytest.raises(PreconditionFailed, match="bijection"):
        verify_transfer_end_to_end(notbij, Additive(), Additive(), PowerModulus(0.5))

    Xbad = transform_distances(collinear_space([0, 1, 2]), lambda d: d * d)
    fbad = identity_map(Xbad)
    with pytest.raises(PreconditionFailed, match="domain triangle"):
        verify_transfer_end_to_end(fbad, Additive(), Additive(), PowerModulus(1.0))

    f = snowflake_map(line3, 0.5)
    with pytest.raises(PreconditionFailed, match="quasisymmetry"):
        verify_transfer_end_to_end(f, Additive(), Additive(), PowerModulus(0.3))


def test_ptolemy_transfer_analytic_branch():
    X = euclidean_space(6, 2, seed=5)
    f = snowflake_map(X, 0.5)
    rep = ptolemy_transfer_check(f, PowerModulus(0.5))
    assert rep.holds
    assert rep.mode == "analytic"
    assert rep.checked == 0
    assert rep.image.holds


def test_ptolemy_transfer_realized_branch():
    X = euclidean_space(6, 2, seed=5)
    f = snowflake_map(X, 0.5)
    rep = ptolemy_transfer_check(f, PowerModulus(0.5), force_realized=True)
    assert rep.holds and rep.mode == "realized"
    assert rep.checked > 0
    assert rep.worst_value is not None and rep.worst_value >= 1.0 - 1e-9
    # a non-power modulus takes the realized path automatically
    eta = CallableModulus(lambda t: np.sqrt(t), label="root")
    rep2 = ptolemy_transfer_check(f, eta)
    assert rep2.mode == "realized" and rep2.holds


def test_ptolemy_transfer_preconditions():
    bad = np.array(
        [
            [0, 1, 10, 1],
            [1, 0, 1, 10],
            [10, 1, 0, 1],
            [1, 10, 1, 0],
        ],
        dtype=float,
    )
    from qsym import build_space

    X = build_space(["a", "b", "c", "d"], bad)
    # the failing quadruple is named by its labels
    with pytest.raises(PreconditionFailed,
                       match=r"Ptolemy: fails at quadruple \('a', 'd', 'c', 'b'\)$"):
        ptolemy_transfer_check(identity_map(X), PowerModulus(1.0))

    E = euclidean_space(5, 2, seed=0)
    f = snowflake_map(E, 0.5)
    with pytest.raises(PreconditionFailed, match="quasisymmetry"):
        ptolemy_transfer_check(f, PowerModulus(0.4))


def test_a_nan_conclusion_violates_the_ptolemy_transfer():
    def planar(*points):
        P = np.array(points)
        return build_space([f"p{i}" for i in range(len(P))],
                           np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1)))

    # the ratios of two points 1e-7 apart reach 1e7, where eta is NaN, so
    # eta does not verify the map and the precondition stops the check
    X = planar([0, 0], [1e-7, 0], [1, 0], [0, 1], [1, 1], [2, 0.5])
    eta = CallableModulus(lambda t: np.where(t <= 1e6, t, np.nan), label="nan-past-1e6")
    with pytest.raises(PreconditionFailed, match="quasisymmetry"):
        ptolemy_transfer_check(identity_map(X), eta)
    # eta is 0 below the probe grid and inf above it; r <= eta(t) within a
    # relative tol admits eta(t) = 0 < r only at tol = 1, so at tol 1 eta
    # verifies the map; three points 1e-7 apart put t1 = 1e-7 and t2 = 1e7
    # in one product, whose 0 * inf conclusion is NaN
    X = planar([0, 0], [1e-7, 0], [0, 1e-7], [1, 0], [1, 1], [2, 0.5])
    eta = CallableModulus(lambda t: np.where(t < 1e-6, 0.0, np.where(t <= 1e6, t, np.inf)),
                          label="0-t-inf")
    assert not check_qs(identity_map(X), eta, tol=1e-6).holds
    assert check_qs(identity_map(X), eta, tol=1.0).holds
    rep = ptolemy_transfer_check(identity_map(X), eta, tol=1.0)
    assert rep.mode == "realized" and rep.image.holds
    assert not rep.holds and not rep.implication_holds
    assert np.isnan(rep.worst_value)


def test_ptolemy_transfer_small_spaces(line3):
    f = snowflake_map(line3, 0.5)
    rep = ptolemy_transfer_check(f, PowerModulus(0.5), force_realized=True)
    assert rep.holds and rep.checked == 0  # no quadruples to check


@settings(max_examples=20, deadline=None)
@given(st.floats(1.0, 4.0), st.floats(1.0, 3.0))
def test_transfer_K2_monotone_property(K1, alpha):
    eta = PowerModulus(alpha)
    a = minimal_transfer_K2(K1, eta, grid_points=301)
    b = minimal_transfer_K2(K1 * 1.5, eta, grid_points=301)
    assert b >= a - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_transfer_holds_implies_image_triangle(seed):
    # on instances passing the premise scan, the image verdict is implied;
    # this is the consistency field of the end-to-end report
    X = euclidean_space(6, 2, seed=seed)
    f = snowflake_map(X, 0.5)
    rep = verify_transfer_end_to_end(f, Additive(), ScaledAdditive(2.0), PowerModulus(0.5))
    assert rep.consistent


#: a line whose distances span 1e-300..1e10: the ratio 1e310 reads inf
WIDE_LINE = [0.0, 1e-300, 1.0, 1e10]


@pytest.mark.parametrize("eta", [PowerModulus(0.5), PowerModulus(2.0)])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_the_realized_transfer_on_a_wide_line_reads_its_ratios_in_logs(eta, tol):
    # the homogeneous premise is read undivided, and 1/eta(1e310) = 1e-155
    # (alpha 0.5) from logs; the oracle's 1e310 reads inf, and its 1/eta 0,
    # which is lost beside the other ratio's 1/eta in every premise pair
    X = collinear_space(WIDE_LINE)
    for phi2 in (Additive(), ScaledAdditive(2.0), MaxGauge()):
        rep = check_transfer_condition(Additive(), phi2, eta, pairs=X, tol=tol)
        assert rep.checked_pairs > 0
        with np.errstate(over="ignore"):
            assert repr(rep) == repr(naive_transfer_scan(Additive(), phi2, eta, X, tol=tol))


def test_the_wide_line_is_an_input_error_for_other_moduli_and_custom_gauges(tmp_path):
    X = collinear_space(WIDE_LINE)
    with pytest.raises(ValidationError, match=r"^a ratio of d\(0,1e-300\), d\(0,1e\+10\) and "
                                              r"d\(1e-300,1e\+10\) is not a normal float: only a "
                                              r"power modulus"):
        check_transfer_condition(Additive(), Additive(), ExpRatioModulus(), pairs=X)
    with pytest.raises(ValidationError, match=r"not a normal float: only a homogeneous gauge"):
        check_transfer_condition(CustomGauge(lambda u, v: u + v), Additive(), PowerModulus(0.5),
                                 pairs=X)
    save_space(X, tmp_path / "line.json")
    (tmp_path / "id.json").write_text(json.dumps({"assignment": {p: p for p in X.labels}}))
    assert main(["transfer", "--eta", "expratio", f"--domain={tmp_path / 'line.json'}",
                 f"--codomain={tmp_path / 'line.json'}", f"--map={tmp_path / 'id.json'}"]) == 2
