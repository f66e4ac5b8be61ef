"""The two closed-form families: eta(t) = C t**alpha and Phi = K (u + v).

Each family is one class (``PowerModulus``, ``ScaledAdditive``) whose
members are subclasses; these tests pin every member to its closed form and
check that each caller reads the family the same way.
"""

import dataclasses

import numpy as np
import pytest

from qsym import (
    Additive,
    BiLipschitzModulus,
    LinearModulus,
    PowerModulus,
    ScaledAdditive,
    bounded_image_bounds,
    check_transfer_condition,
    check_triangle,
    euclidean_space,
    inverse_modulus,
    parse_modulus,
    random_semimetric_space,
    snowflake,
    transform_map,
)
from qsym import transfer
from qsym.moduli import NumericInverseModulus, _POWER_FAMILY

from conftest import power_table

T = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 37), [2.5, np.inf]])


def closed_form(spec):
    """(eval, log_eval, C, alpha) of a spec, written out independently."""
    head, arg = spec.split(":")
    a = float(arg)
    if head == "power":
        return (lambda t: t ** a, lambda t: a * np.log(t), 1.0, a)
    if head == "linear":
        return (lambda t: a * t, lambda t: np.log(a) + np.log(t), a, 1.0)
    return (lambda t: a ** 2 * t, lambda t: 2.0 * np.log(a) + np.log(t), a ** 2, 1.0)


SPECS = ["power:0.3", "power:0.5", "power:1", "power:2", "power:3.7", "linear:0.25",
         "linear:1", "linear:2.5", "bilip:1", "bilip:1.3", "bilip:2"]


@pytest.mark.parametrize("spec", SPECS)
def test_every_power_family_member_is_its_closed_form(spec):
    eta = parse_modulus(spec)
    ev, log_ev, C, alpha = closed_form(spec)
    assert isinstance(eta, PowerModulus) and type(eta) in _POWER_FAMILY
    assert (eta.C, eta.alpha, eta.name, eta.describe()) == (C, alpha, spec, spec)
    with np.errstate(divide="ignore"):
        for t in (T, T[3], 2.5, 0.0):
            got, want = eta.eval(t), ev(np.asarray(t, dtype=float))
            assert np.ndim(got) == np.ndim(t)
            assert np.array_equal(got, want, equal_nan=True)
            got, want = eta.log_eval(t), log_ev(np.asarray(t, dtype=float))
            assert np.ndim(got) == np.ndim(t)
            assert np.array_equal(got, want, equal_nan=True)
    # the closed-form inverse: alpha = 1 is its own, t**alpha gives t**(1/alpha)
    inv = inverse_modulus(eta)
    if alpha == 1.0:
        assert inv is eta
    else:
        assert type(inv) is PowerModulus and inv.alpha == 1.0 / alpha
        assert inv.name == f"power:{1.0 / alpha:g}"
    # the transfer table reads C and alpha off every member
    D = np.asarray(euclidean_space(9, 2, seed=3).dist)
    got, want = transfer._power_table(eta, D), power_table(eta, D)
    assert got[1] == want[1] == C
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])


def test_a_user_subclass_of_the_power_family_takes_the_generic_paths():
    class Doubled(PowerModulus):
        def eval(self, t):
            return 2.0 * super().eval(t)

        def log_eval(self, t):
            return np.log(2.0) + super().log_eval(t)

    eta = Doubled(2.0)
    assert type(eta) not in _POWER_FAMILY
    X = random_semimetric_space(8, seed=1)
    assert transfer._power_table(eta, np.asarray(X.dist)) is None
    assert isinstance(inverse_modulus(eta), NumericInverseModulus)
    # the log path reads the override: 2 t**2, not the table's t**2
    t1, t2, _, lhs2 = check_transfer_condition(Additive(), ScaledAdditive(2.0), eta,
                                               pairs=X).worst
    assert lhs2 == pytest.approx(2.0 * (1.0 / (2.0 * t1 ** 2) + 1.0 / (2.0 * t2 ** 2)),
                                 rel=1e-12)


@pytest.mark.parametrize("space", [euclidean_space(13, 2, seed=4),
                                   snowflake(euclidean_space(40, 3, seed=5), 2.0),
                                   random_semimetric_space(11, seed=6)])
def test_additive_is_the_unit_scaled_additive(space):
    add, unit = Additive(), ScaledAdditive(1.0)
    assert isinstance(add, ScaledAdditive)
    assert (add.K, add.classical_coefficient, add.diag_inverse(3.0)) == \
        (unit.K, unit.classical_coefficient, unit.diag_inverse(3.0))
    assert (add.describe(), unit.describe()) == ("additive", "bmetric:1")
    for tol in (0.0, 1e-9):
        a = check_triangle(space, add, tol=tol)
        b = check_triangle(space, unit, tol=tol)
        assert a.gauge == "additive" and b.gauge == "bmetric:1"
        assert repr(dataclasses.replace(a, gauge="")) == repr(dataclasses.replace(b, gauge=""))


def test_power_one_derives_the_bilipschitz_constant_of_linear_one():
    f = transform_map(euclidean_space(10, 2, seed=7), lambda d: 3.0 * d)
    power = bounded_image_bounds(f, PowerModulus(1.0), Additive(), Additive())
    linear = bounded_image_bounds(f, LinearModulus(1.0), Additive(), Additive())
    bilip = bounded_image_bounds(f, BiLipschitzModulus(1.0), Additive(), Additive())
    assert power.derived_L is not None
    assert repr(power) == repr(linear) == repr(bilip)
    assert bounded_image_bounds(f, LinearModulus(2.0), Additive(), Additive()).derived_L \
        == 2.0 * power.derived_L
