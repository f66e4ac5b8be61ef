import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    BiLipschitzModulus,
    CallableModulus,
    EmpiricalModulus,
    ExpRatioModulus,
    LinearModulus,
    NotInvertible,
    PowerModulus,
    ValidationError,
    inverse_modulus,
    invert_modulus,
    parse_modulus,
    random_semimetric_space,
)
from qsym.moduli import MONOTONE_GRID, NumericInverseModulus

from conftest import scalar_bisect

POSITIVE_T = st.floats(1e-3, 1e3)


def test_power_modulus_basics():
    eta = PowerModulus(0.5)
    assert eta(4.0) == 2.0
    assert eta.eval(np.array([1.0, 9.0]))[1] == 3.0
    assert eta.log_eval(np.e ** 2) == pytest.approx(1.0)
    assert eta.describe() == "power:0.5"
    with pytest.raises(ValueError):
        PowerModulus(0.0)


def test_linear_and_bilip():
    assert LinearModulus(3.0)(2.0) == 6.0
    assert BiLipschitzModulus(2.0)(3.0) == 12.0  # L**2 t
    with pytest.raises(ValueError):
        LinearModulus(-1.0)
    with pytest.raises(ValueError):
        BiLipschitzModulus(0.5)


def test_exp_ratio_values():
    eta = ExpRatioModulus()
    assert eta(1.0) == pytest.approx(1.0)
    want = np.expm1(2.0) / np.expm1(0.5)
    assert eta(2.0) == pytest.approx(want)
    # the involution identity is exact in log form
    assert eta.log_eval(7.0) + eta.log_eval(1.0 / 7.0) == pytest.approx(0.0, abs=1e-12)


def test_exp_ratio_log_path_survives_overflow():
    eta = ExpRatioModulus()
    big = eta.log_eval(np.array([1e3, 1e4]))
    assert np.all(np.isfinite(big))
    # log eta(t) ~ t - log(e^{1/t} - 1) ~ t + log t for large t
    assert big[0] == pytest.approx(1e3 + np.log(1e3), rel=1e-6)


def test_callable_modulus_validation():
    eta = CallableModulus(lambda t: t ** 2, label="sq")
    assert eta(3.0) == 9.0
    with pytest.raises(ValidationError,
                       match=r"^custom: modulus not strictly increasing near t = 1e-06$"):
        CallableModulus(np.cos)
    with pytest.raises(ValidationError, match=r"^custom: eta\(0\) = 1, expected 0$"):
        CallableModulus(lambda t: t + 1.0)  # eta(0) != 0


def test_empirical_modulus_step_semantics():
    eta = EmpiricalModulus([1.0, 2.0, 4.0], [0.5, 1.5, 3.0])
    assert eta(0.5) == 0.0  # below the first knot
    assert eta(1.0) == 0.5
    assert eta(1.999) == 0.5
    assert eta(2.0) == 1.5
    assert eta(3.0) == 1.5
    assert eta(100.0) == 3.0
    # snapping: values a hair below a knot land on the knot's step
    assert eta(2.0 * (1 - 1e-12)) == 1.5


def test_empirical_modulus_validation():
    with pytest.raises(ValueError):
        EmpiricalModulus([], [])
    with pytest.raises(ValueError):
        EmpiricalModulus([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        EmpiricalModulus([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        EmpiricalModulus([-1.0, 2.0], [1.0, 2.0])


def test_invert_modulus_bisection():
    assert invert_modulus(PowerModulus(2.0), 9.0) == pytest.approx(3.0)
    assert invert_modulus(LinearModulus(4.0), 2.0) == pytest.approx(0.5)
    assert invert_modulus(PowerModulus(1.0), 0.0) == 0.0
    with pytest.raises(NotInvertible):
        invert_modulus(PowerModulus(1.0), -1.0)
    # a bounded callable never reaches 10
    capped = CallableModulus(lambda t: t / (1.0 + t), label="capped")
    with pytest.raises(NotInvertible, match=r"^capped never reaches 10 \(bracket past 2\^64\)$"):
        invert_modulus(capped, 10.0)


def test_inverse_modulus_closed_forms():
    inv = inverse_modulus(PowerModulus(0.5))
    assert isinstance(inv, PowerModulus) and inv.alpha == 2.0
    inv = inverse_modulus(LinearModulus(3.0))
    assert isinstance(inv, LinearModulus) and inv.C == 3.0
    inv = inverse_modulus(BiLipschitzModulus(2.0))
    assert isinstance(inv, BiLipschitzModulus) and inv.L == 2.0
    with pytest.raises(NotInvertible):
        inverse_modulus(EmpiricalModulus([1.0], [1.0]))


def test_inverse_modulus_numeric_fallback():
    inv = inverse_modulus(ExpRatioModulus())
    assert isinstance(inv, NumericInverseModulus)
    # eta'(t) = 1/eta^{-1}(1/t); check against a brute solve at t = 2
    s = invert_modulus(ExpRatioModulus(), 0.5)
    assert inv(2.0) == pytest.approx(1.0 / s, rel=1e-9)


@pytest.mark.parametrize(
    "base",
    [CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5"), ExpRatioModulus()],
    ids=["2sqrt", "expratio"],
)
def test_numeric_inverse_matches_scalar_bisections(base):
    # one bisection over an array of targets gives, bit for bit, the value
    # of a separate scalar bisection per target
    rng = np.random.default_rng(5)
    X = random_semimetric_space(12, seed=5)
    D = np.asarray(X.dist)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (D[:, :, None] / D[:, None, :]).ravel()
    t = np.concatenate([
        ratios[np.isfinite(ratios) & (ratios > 0)],
        np.exp(rng.uniform(-6.0, 6.0, 200)), [1.0, 2.0, 0.5],
    ])
    expect = np.array([1.0 / scalar_bisect(base.eval, 1.0 / u) for u in np.unique(t)])
    got = NumericInverseModulus(base).eval(np.unique(t))
    assert np.array_equal(got, expect)
    shaped = NumericInverseModulus(base).eval(t[:300].reshape(20, 15))
    assert np.array_equal(shaped.ravel(), NumericInverseModulus(base).eval(t[:300]))
    for u in t[:50]:
        assert invert_modulus(base, 1.0 / u) == scalar_bisect(base.eval, 1.0 / u)


def test_numeric_inverse_converges_on_small_preimages():
    # eta = 2 sqrt(t) has eta'(t) = 4 t**2; from t = 1e6 on the preimage is
    # below 2.5e-13, so the bracket narrows past 1e-17 before an absolute
    # residual of 1e-12 is met, and the residual turns relative to 1/t
    base = CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
    inv = inverse_modulus(base)
    assert inv.eval(1e6) == pytest.approx(4e12, rel=1e-5)
    for t in (1e6, 1e7, 1e8, 1e9, 1e13, 1e40):
        assert inv.eval(t) == pytest.approx(4.0 * t * t, rel=1e-10)
        assert inv.eval(t) == 1.0 / scalar_bisect(base.eval, 1.0 / t)
    # 2**-400 is still far above the preimage 2.5e-201: the steps run out
    with pytest.raises(NotInvertible, match="stalled"):
        inv.eval(1e100)
    assert scalar_bisect(base.eval, 1e-100) is None


def test_array_bisection_names_the_first_failing_target():
    # the distinct arguments run in ascending order, as one bisection each
    # would: t = 0.05 asks for the unreachable 20 before t = 0.1 asks for 10
    capped = CallableModulus(lambda t: t / (1.0 + t), label="capped")
    with pytest.raises(NotInvertible, match=r"^capped never reaches 20 \(bracket past 2\^64\)$"):
        NumericInverseModulus(capped).eval(np.array([0.05, 0.1, 4.0]))
    with pytest.raises(NotInvertible, match="^cannot invert power:1 at negative value -1.0$"):
        invert_modulus(PowerModulus(1.0), -1.0)


@settings(max_examples=60, deadline=None)
@given(POSITIVE_T, st.floats(0.2, 5.0))
def test_inverse_identity_for_powers(t, alpha):
    # taking the inverse modulus twice returns the original pointwise
    eta = PowerModulus(alpha)
    double = inverse_modulus(inverse_modulus(eta))
    assert double(t) == pytest.approx(eta(t), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(2e-3, 500.0))
def test_exp_ratio_agrees_with_log_path(t):
    # stay below the overflow knee (~709) so the direct quotient is finite
    eta = ExpRatioModulus()
    direct = eta(t)
    stable = np.exp(eta.log_eval(t))
    assert stable == pytest.approx(direct, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0))
def test_closed_forms_increase(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-9:
        return
    for eta in (PowerModulus(0.7), LinearModulus(2.0), ExpRatioModulus()):
        assert eta(hi) > eta(lo)


def test_every_modulus_kind_evaluates_a_square_array_elementwise():
    root = CallableModulus(lambda t: 2.0 * np.sqrt(t), label="2t^0.5")
    kinds = [
        PowerModulus(0.5), LinearModulus(3.0), BiLipschitzModulus(2.0), ExpRatioModulus(),
        parse_modulus("k8:2,3"), root, EmpiricalModulus([0.1, 1.0, 5.0], [0.5, 1.5, 3.0]), inverse_modulus(root),
    ]
    # repeated arguments and 0 included
    t = np.concatenate([[0.0, 1.0, 1.0, 20.0], np.geomspace(0.05, 20.0, 12)])
    for eta in kinds:
        flat = np.asarray(eta.eval(t), dtype=float)
        square = eta.eval(t.reshape(4, 4))
        assert np.shape(square) == (4, 4), eta.describe()
        assert np.array_equal(square, flat.reshape(4, 4)), eta.describe()


def test_parse_modulus_grammar():
    assert isinstance(parse_modulus("power:0.5"), PowerModulus)
    assert isinstance(parse_modulus("linear:3"), LinearModulus)
    assert isinstance(parse_modulus("bilip:2"), BiLipschitzModulus)
    assert isinstance(parse_modulus("expratio"), ExpRatioModulus)
    eta = parse_modulus("k8:3,3")
    assert eta.describe() == "k8:3,3"
    assert eta(0.25) == pytest.approx(19.0 / 64.0, abs=1e-15)
    for bad in ("", "power", "power:0", "k8:3", "nope:1"):
        with pytest.raises(ValueError):
            parse_modulus(bad)


def test_parse_modulus_empirical_file(tmp_path):
    p = tmp_path / "env.txt"
    p.write_text("1.0 0.5\n2.0 1.5\n")
    eta = parse_modulus(f"empirical:{p}")
    assert isinstance(eta, EmpiricalModulus)
    assert eta(2.5) == 1.5


def test_monotone_grid_shape():
    assert MONOTONE_GRID[0] == pytest.approx(1e-6)
    assert MONOTONE_GRID[-1] == pytest.approx(1e6)
    assert len(MONOTONE_GRID) == 1024
