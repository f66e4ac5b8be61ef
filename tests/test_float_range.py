"""Verdicts at the edge of the float range: one scaling rule,
``spaces._scaled``, and no HOLDS that rests on a quantity that overflowed
or underflowed."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Additive,
    BiLipschitzModulus,
    CallableModulus,
    LinearModulus,
    MaxGauge,
    PointMap,
    PowerModulus,
    ScaledAdditive,
    ValidationError,
    build_space,
    check_qs,
    check_transfer_condition,
    check_triangle,
    collinear_space,
    eta_ratio_report,
    identity_map,
    is_ptolemaic,
    save_space,
)
from qsym import transfer
from qsym.cli import main
from qsym.triangle import minimal_bmetric_K

from conftest import naive_qs_in_logs, naive_transfer_scan, power_table
from test_tolerance import TIE_HEAVY

TOLS = [0.0, 1e-9]


def four_cycle(side, diagonal, far=None):
    """The 4-cycle a, b, c, d with the given sides and diagonals, and, when
    ``far`` is given, a fifth point e at that distance from each."""
    s, g = side, diagonal
    D = [[0, s, g, s], [s, 0, s, g], [g, s, 0, s], [s, g, s, 0]]
    if far is None:
        return build_space("abcd", D)
    return build_space("abcde", [row + [far] for row in D] + [[far] * 4 + [0]])


def violates_ptolemy(space, quad, tol):
    """Whether the witness (x, y, z, t) breaks the rule of
    ``spaces._valid_tol``, rhs - lhs >= -tol lhs with lhs = d(x,z) d(t,y),
    in exact rationals."""
    d = [[Fraction(v) for v in row] for row in np.asarray(space.dist).tolist()]
    x, y, z, t = quad
    lhs = d[x][z] * d[t][y]
    rhs = d[x][y] * d[t][z] + d[x][t] * d[y][z]
    return rhs - lhs < -Fraction(tol) * lhs


@pytest.mark.parametrize("tol", TOLS)
def test_a_product_underflow_no_longer_hides_a_ptolemy_violation(tol):
    # the products of the 4-cycle, 4e-340 against 2e-340, underflowed to 0
    # on the scale of the unit distances: a false HOLDS with margin 0
    X = four_cycle(1e-170, 2e-170, far=1.0)
    rep = is_ptolemaic(X, tol=tol)
    assert not rep.holds
    assert rep.worst_labels(X) == ("a", "d", "c", "b")
    assert violates_ptolemy(X, rep.worst_quadruple, tol)
    # the true margin -2e-340 underflows once scaled back: it keeps its sign
    assert rep.margin == 0.0 and np.signbit(rep.margin)
    assert rep.worst_quadruple == is_ptolemaic(four_cycle(1.0, 2.0), tol=tol).worst_quadruple


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("side", [1e-170, 1e-150])
def test_the_four_cycle_alone_fails_with_a_negative_margin(tol, side):
    rep = is_ptolemaic(four_cycle(side, 2 * side), tol=tol)
    assert not rep.holds and np.signbit(rep.margin)
    assert rep.worst_quadruple == (0, 3, 2, 1)


def test_the_ptolemy_cli_fails_on_the_wide_four_cycle(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    save_space(four_cycle(1e-170, 2e-170, far=1.0), path)
    assert main(["check", str(path), "--class", "ptolemaic"]) == 1
    assert capsys.readouterr().out.startswith("FAILS")


@pytest.fixture
def wide_line(tmp_path):
    """The identity of the line {0, 1e-200, 1e200} and its three files: the
    ratio 1e400 reads inf in both spaces."""
    line = collinear_space([0.0, 1e-200, 1e200])
    save_space(line, tmp_path / "line.json")
    (tmp_path / "id.json").write_text(json.dumps(
        {"assignment": {p: p for p in line.labels}}))
    return identity_map(line), [f"--{flag}={tmp_path / name}" for flag, name in
                                (("domain", "line.json"), ("codomain", "line.json"),
                                 ("map", "id.json"))]


@pytest.mark.parametrize("tol", TOLS)
def test_an_overflowed_ratio_is_compared_in_logs(wide_line, tol):
    # eta(1e400) = 1e360 lies below the image ratio 1e400, though both
    # read inf, and inf >= inf read a false HOLDS
    f, _ = wide_line
    rep = check_qs(f, PowerModulus(0.9), tol=tol)
    assert not rep.holds
    assert rep.witness_labels == ("1e-200", "1e+200", "0")
    assert (rep.t, rep.image_ratio, rep.eta_at_t) == (np.inf, np.inf, np.inf)
    assert repr(rep) == repr(naive_qs_in_logs(f, PowerModulus(0.9), tol))
    for eta in (PowerModulus(1.0), LinearModulus(2.0), BiLipschitzModulus(1.0)):
        assert check_qs(f, eta, tol=tol).holds
    assert not check_qs(f, LinearModulus(0.5), tol=tol).holds


def test_the_ratio_identity_holds_on_the_wide_line(wide_line):
    # eta(t) eta(1/t) = 1 exactly; 0 * inf read NaN at t = 0
    f, _ = wide_line
    rep = eta_ratio_report(f, PowerModulus(0.9))
    assert rep.holds and (rep.min_product, rep.at_t) == (1.0, 0.0)
    assert eta_ratio_report(f, LinearModulus(2.0)).min_product == 4.0


def test_other_moduli_off_the_normal_ratios_are_an_input_error(wide_line):
    f, argv = wide_line
    root = CallableModulus(lambda t: t ** 0.9, label="root")
    with pytest.raises(ValidationError, match=r"d\(0,1e-200\)/d\(0,1e\+200\)"):
        check_qs(f, root)
    with pytest.raises(ValidationError, match=r"d\(0,1e-200\)/d\(0,1e\+200\)"):
        eta_ratio_report(f, root)
    assert main(["qs-check", *argv, "--eta", "expratio"]) == 2


def test_the_wide_line_still_fails_at_the_cli(wide_line, capsys):
    _, argv = wide_line
    assert main(["qs-check", *argv, "--eta", "power:0.9"]) == 1
    assert capsys.readouterr().out.startswith("FAILS")
    assert main(["qs-check", *argv, "--eta", "power:1"]) == 0


def test_the_line_within_the_normal_ratios_fails_as_before():
    rep = check_qs(identity_map(collinear_space([0.0, 1e-100, 1e100])), PowerModulus(0.9))
    assert not rep.holds and rep.t == pytest.approx(1e200)


@pytest.mark.parametrize("tol", TOLS)
def test_a_subnormal_triangle_beside_a_unit_pair_is_read_exactly(tol):
    # centring on the largest distance alone rounds (5, 3, 1) 2**-1074 to
    # (2, 2, 0) 2**-1074: the clamp keeps the least distance a normal float
    D = np.ones((5, 5)) - np.eye(5)
    D[:3, :3] = np.ldexp([[0, 5, 3], [5, 0, 1], [3, 1, 0]], -1074)
    X = build_space("abcde", D)
    rep = check_triangle(X, Additive(), tol=tol)
    assert not rep.holds and rep.worst_labels(X) == ("a", "c", "b")
    assert (rep.lhs, rep.rhs) == (np.ldexp(5, -1074), np.ldexp(4, -1074))
    assert minimal_bmetric_K(X) == 1.25


def beside_a_unit_group(G, k):
    """G scaled below 2**-k, and three points at distance 1 from each other
    and from every point of G."""
    m = G.n
    D = np.ones((m + 3, m + 3)) - np.eye(m + 3)
    D[:m, :m] = np.ldexp(np.asarray(G.dist), -k - np.frexp(np.max(G.dist))[1])
    return build_space([f"g{i}" for i in range(m)] + ["u0", "u1", "u2"], D)


@settings(max_examples=40, deadline=None)
@given(TIE_HEAVY, st.integers(1, 1000), st.sampled_from(TOLS))
def test_a_small_group_beside_a_unit_group_keeps_its_verdicts(G, k, tol):
    # a triple or quadruple with a unit point holds, but for the quadruples
    # with one unit point, which hold iff G is a metric; so each verdict on
    # the whole space is the small group's own.  Products of four small
    # distances underflowed from k ~ 540 on
    X = beside_a_unit_group(G, k)
    for phi in (Additive(), ScaledAdditive(2.0), MaxGauge()):
        assert check_triangle(X, phi, tol=tol).holds == check_triangle(G, phi, tol=tol).holds
    rep = is_ptolemaic(X, tol=tol)
    own = is_ptolemaic(G, tol=tol).holds and check_triangle(G, Additive(), tol=tol).holds
    assert rep.holds == own
    if not rep.holds:
        assert violates_ptolemy(X, rep.worst_quadruple, tol)


def test_the_table_takes_the_log_path_where_the_clamp_acts():
    # distances over 2**-1000..2**22 span more than 2**1021: the clamped S
    # reaches 1, where P = S**alpha can overflow
    X = collinear_space([0.0, 2.0 ** -1000, 1.0, 2.0 ** 22])
    D = np.asarray(X.dist)
    for eta in (PowerModulus(0.5), PowerModulus(2.0), LinearModulus(1.5)):
        assert transfer._power_table(eta, D) is None
        assert power_table(eta, D) is None
        rep = check_transfer_condition(Additive(), ScaledAdditive(2.0), eta, pairs=X)
        assert repr(rep) == repr(naive_transfer_scan(Additive(), ScaledAdditive(2.0), eta, X))


#: lines whose distances span 2**-600..2**600 or more: ratios read 0 and inf
WIDE_LINES = st.lists(
    st.builds(np.ldexp, st.integers(1, 2 ** 20), st.integers(-620, 600)),
    min_size=0, max_size=4, unique=True,
).map(lambda xs: collinear_space(sorted({0.0, 2.0 ** -600, 2.0 ** 600, *xs})))


@settings(max_examples=60, deadline=None)
@given(WIDE_LINES, WIDE_LINES, st.sampled_from(TOLS),
       st.sampled_from([PowerModulus(0.5), PowerModulus(0.9), PowerModulus(1.0),
                        PowerModulus(2.0), LinearModulus(3.0), BiLipschitzModulus(1.5)]))
def test_check_qs_on_wide_lines_matches_the_log_oracle(X, Y, tol, eta):
    # the increasing and the decreasing map of X onto the first points of Y
    if Y.n < X.n:
        X, Y = Y, X
    for f in (PointMap(X, Y, np.arange(X.n)), PointMap(X, Y, np.arange(X.n)[::-1])):
        assert repr(check_qs(f, eta, tol=tol)) == repr(naive_qs_in_logs(f, eta, tol))
