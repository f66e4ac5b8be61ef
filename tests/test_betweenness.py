"""Betweenness triples, partition conditions, generator moduli, and
line/quadruple structure."""

import tracemalloc

import numpy as np
import pytest

from qsym import (
    BetweennessTriple,
    BetweennessTriples,
    PowerModulus,
    ValidationError,
    betweenness_triples,
    build_space,
    check_l02_conditions,
    collinear_space,
    detect_pseudolinear,
    eta_from_generators,
    line_embed,
    parse_modulus,
    power_generator,
    preserves_betweenness,
    pseudolinear_quadruple,
    random_semimetric_space,
    snowflake_map,
    transform_map,
    ultrametric_space,
)

from qsym import triangle

from conftest import naive_betweenness, subspace


# ---------------------------------------------------------------- triples


def test_collinear_triples(line4):
    triples = betweenness_triples(line4)
    assert [(t.x, t.y, t.z) for t in triples] == [
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    ]
    assert all(t.slack == 0.0 for t in triples)


def test_equilateral_has_no_triples():
    eq = build_space(("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert betweenness_triples(eq) == []
    assert line_embed(eq) is None


def test_pseudolinear_triples_and_detection():
    q = pseudolinear_quadruple(1.0, 2.0)
    triples = betweenness_triples(q)
    # both diagonals split additively through both off-diagonal points
    assert [(t.x, t.y, t.z) for t in triples] == [
        (0, 1, 2),
        (0, 3, 2),
        (1, 0, 3),
        (1, 2, 3),
    ]
    assert line_embed(q) is None

    shape = detect_pseudolinear(q)
    assert shape.found
    assert shape.ordering == (0, 1, 2, 3)
    assert shape.s == 1.0 and shape.t == 2.0

    # but every 3-point subspace sits on a line
    for drop in range(4):
        keep = [i for i in range(4) if i != drop]
        assert line_embed(subspace(q, keep)) is not None


def test_triples_small_spaces():
    assert betweenness_triples(collinear_space([0.0, 1.0])) == []


@pytest.mark.parametrize("seed", range(6))
def test_triples_match_naive_on_random_spaces(seed):
    # generic random semimetrics typically carry no exact equalities,
    # ultrametrics and collinear sets carry plenty; agree on all of them
    for sp in (
        random_semimetric_space(7, seed=seed),
        ultrametric_space(6, seed=seed),
        collinear_space(np.sort(np.random.default_rng(seed).uniform(0, 5, 5))),
    ):
        mine = sorted((t.x, t.y, t.z) for t in betweenness_triples(sp))
        assert mine == naive_betweenness(sp)


def oracle_triples(space):
    """The loop oracle's triples as named tuples of Python numbers, in
    (x, z, y) order, each with its slack |d(x,z) - (d(x,y) + d(y,z))|."""
    d = np.asarray(space.dist).tolist()
    return [BetweennessTriple(x, y, z, abs(d[x][z] - (d[x][y] + d[y][z])))
            for x, y, z in sorted(naive_betweenness(space), key=lambda t: (t[0], t[2], t[1]))]


@pytest.mark.parametrize("space", [
    collinear_space(range(9)),
    collinear_space([0.0, 0.5, 1.75, 3.0, 7.25]),
    pseudolinear_quadruple(1.0, 2.0),
    ultrametric_space(8, seed=3),
    random_semimetric_space(8, seed=1),
], ids=["line9", "line5", "pseudolinear", "ultrametric", "random"])
def test_the_triples_behave_as_a_list_of_named_tuples(space):
    triples, expect = betweenness_triples(space), oracle_triples(space)
    assert isinstance(triples, BetweennessTriples)
    assert triples == expect and expect == triples and triples == tuple(expect)
    assert list(triples) == expect and len(triples) == len(expect)
    assert bool(triples) == bool(expect)
    assert triples == betweenness_triples(space) and not triples != betweenness_triples(space)
    for t in triples:
        assert type(t) is BetweennessTriple
        assert [type(v) for v in t] == [int, int, int, float]
    if expect:
        assert triples[0] == expect[0] and triples[-1] == expect[-1]
        assert triples[len(expect) // 2] == expect[len(expect) // 2]
        assert [type(v) for v in triples[-1]] == [int, int, int, float]
        assert triples[1:] == expect[1:] and triples[::-2] == expect[::-2]
        assert triples.index(expect[-1]) == len(expect) - 1 and expect[0] in triples
        assert triples != expect[:-1]
        assert triples != expect[:-1] + [expect[-1]._replace(slack=0.5)]
    with pytest.raises(IndexError):
        triples[len(expect)]
    with pytest.raises(IndexError):
        triples[-len(expect) - 1]
    with pytest.raises(TypeError):
        triples[0.0]


def test_no_triples_equal_the_empty_list():
    for space in (collinear_space([0.0]), collinear_space([0.0, 1.0]),
                  build_space("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])):
        triples = betweenness_triples(space)
        assert triples == [] and [] == triples and triples == ()
        assert not triples and len(triples) == 0 and list(triples) == []


def test_the_triples_are_read_only():
    triples = betweenness_triples(collinear_space(range(5)))
    with pytest.raises(ValueError):
        triples.slack[0] = 1.0
    with pytest.raises(TypeError):
        triples[0] = triples[1]


def test_the_triples_cost_at_most_48_bytes_each():
    # 20 bytes a triple in four arrays, up to 28 while the blocks' pieces
    # are joined, beside one block of scan temporaries and the scaled copy
    n = 150
    X = collinear_space(range(n))
    tracemalloc.start()
    try:
        triples = betweenness_triples(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(triples) == n * (n - 1) * (n - 2) // 6
    assert peak <= 48 * len(triples) + 8 * 8 * (n * n + triangle._PAIR_BLOCK)


# ----------------------------------------------------------- preservation


def test_scaling_preserves_betweenness(line4):
    f = transform_map(line4, lambda d: 3.0 * d)
    rep = preserves_betweenness(f)
    assert rep.holds
    assert rep.checked == 4
    assert rep.violations == ()


def test_snowflake_breaks_betweenness(line4):
    # strict concavity of t^(1/2) turns every additive equality strict
    f = snowflake_map(line4, 0.5)
    rep = preserves_betweenness(f)
    assert not rep.holds
    assert rep.checked == 4
    assert len(rep.violations) == 4
    x, y, z, dom_slack, img_slack = rep.violations[0]
    assert (x, y, z) == (0, 1, 2)
    assert dom_slack == 0.0
    # sqrt(1) + sqrt(2) - sqrt(3)
    assert img_slack == pytest.approx(1.0 + np.sqrt(2.0) - np.sqrt(3.0))
    d = rep.to_dict()
    assert d["holds"] is False and len(d["violations"]) == 4


# ---------------------------------------------------- partition conditions


def test_partition_conditions_identity():
    rep = check_l02_conditions(PowerModulus(1.0))
    assert rep.holds and rep.sufficiency_holds
    assert rep.max_sum_defect <= 1e-12
    assert rep.max_reciprocal_defect <= 1e-12
    assert rep.necessity_violations == ()
    assert rep.samples == 512
    assert rep.necessity_scope == "grid-extrapolated"


def test_partition_conditions_generator_modulus():
    eta = eta_from_generators(power_generator(3), power_generator(3))
    rep = check_l02_conditions(eta)
    assert rep.holds
    assert rep.max_sum_defect <= 1e-12
    assert rep.max_reciprocal_defect <= 1e-12


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (5, 1), (3, 5)])
def test_partition_conditions_mixed_generators(n, m):
    eta = eta_from_generators(power_generator(n), power_generator(m))
    rep = check_l02_conditions(eta)
    assert rep.holds, (n, m)


def test_partition_conditions_root_violation():
    # the square root fails both equalities at the midpoint: each side
    # evaluates to sqrt(2)
    rep = check_l02_conditions(PowerModulus(0.5), samples=[0.5])
    assert not rep.holds
    assert not rep.sufficiency_holds
    assert rep.necessity_violations == (
        (0.5, 0.5, 1.4142135623730951, 1.4142135623730951),
    )
    assert rep.samples == 1
    d = rep.to_dict()
    assert d["necessity_violations"][0]["t1"] == 0.5


def test_partition_samples_must_be_interior():
    with pytest.raises(ValueError):
        check_l02_conditions(PowerModulus(1.0), samples=[0.5, 1.0])
    with pytest.raises(ValueError):
        check_l02_conditions(PowerModulus(1.0), samples=[0.0])


# ------------------------------------------------------------- generators


def test_power_generator_shape():
    g = power_generator(3)
    assert g(0.0) == 0.0
    assert g(1.0) == 0.5
    assert g(0.5) == 0.5**3 / 2.0
    assert g.label == "x^3/2"
    with pytest.raises(ValueError):
        power_generator(0)


def test_generator_modulus_values():
    eta = eta_from_generators(power_generator(3), power_generator(3))
    assert eta.eval(0.25) == pytest.approx(19.0 / 64.0, abs=1e-15)
    assert eta.eval(0.75) == pytest.approx(45.0 / 64.0, abs=1e-15)
    assert eta.eval(0.25) + eta.eval(0.75) == pytest.approx(1.0, abs=1e-15)
    assert eta.eval(4.0) == pytest.approx(64.0 / 19.0, abs=1e-12)
    assert eta.eval(1.0) == pytest.approx(1.0)


def test_the_power_generator_complement_does_not_cancel():
    g = power_generator(3)
    x = np.array([0.0, 1e-300, 1e-20, 0.25, 1.0])
    # 1/2 - f(1 - x) = (1 - (1 - x)**3) / 2, 0.5 at x = 1 with no warning
    assert g.complement(x).tolist() == pytest.approx([0.0, 1.5e-300, 1.5e-20, 37 / 128, 0.5],
                                                     rel=1e-15)


def test_the_k8_modulus_keeps_its_digits_at_small_ratios():
    # below 1, k8:2,3 is t**2/2 + (1 - (1 - t)**2)/2 = t
    eta = parse_modulus("k8:2,3")
    assert eta.eval(1e-20) == pytest.approx(1e-20, rel=1e-12)
    assert eta.eval(0.25) == 0.25
    t = np.geomspace(1e-300, 1e300, 6001)
    values = eta.eval(t)
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) > 0)


def test_generator_endpoint_rejection():
    with pytest.raises(ValidationError, match=r"^f1\(1\) = 1, expected 1/2$"):
        eta_from_generators(lambda x: x, power_generator(1))
    with pytest.raises(ValidationError, match=r"^f2\(0\) = 0\.1, expected 0$"):
        eta_from_generators(power_generator(1), lambda x: x / 2.0 + 0.1)


def test_generator_monotonicity_rejection():
    wavy = lambda x: (x + 0.3 * np.sin(2.0 * np.pi * np.asarray(x))) / 2.0
    assert abs(wavy(0.0)) < 1e-15 and abs(wavy(1.0) - 0.5) < 1e-12
    with pytest.raises(ValidationError,
                       match=r"^f1 is not strictly increasing near x = 0\.338583$"):
        eta_from_generators(wavy, power_generator(1))


# ------------------------------------------------- quadruples and lines


def test_detect_pseudolinear_needs_four_points(line3):
    with pytest.raises(ValueError):
        detect_pseudolinear(line3)


def test_unit_square_is_not_pseudolinear():
    r2 = np.sqrt(2.0)
    sq = build_space(
        ("p", "q", "r", "s"),
        [
            [0, 1, r2, 1],
            [1, 0, 1, r2],
            [r2, 1, 0, 1],
            [1, r2, 1, 0],
        ],
    )
    shape = detect_pseudolinear(sq)
    assert not shape.found
    assert shape.to_dict() == {"found": False, "ordering": None, "s": None, "t": None}


def test_line_embed_recovers_coordinates(line4):
    coords = line_embed(line4)
    assert coords is not None
    np.testing.assert_allclose(coords, [0.0, 1.0, 3.0, 6.0], atol=0)


def test_line_embed_shifts_to_anchor():
    sp = collinear_space([-2.0, 0.0, 1.0, 5.0])
    coords = line_embed(sp)
    np.testing.assert_allclose(coords, [0.0, 2.0, 3.0, 7.0], atol=0)


def test_line_embed_singleton():
    one = build_space(("o",), [[0.0]])
    np.testing.assert_allclose(line_embed(one), [0.0])
