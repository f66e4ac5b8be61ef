"""The one tolerance rule: every check's verdict and witness survive a
scaling d -> c d of all distances, the cases that used to flip with the
units, and the validation of ``tol`` at every library entry point."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsym
from qsym import (
    Additive,
    CallableModulus,
    MaxGauge,
    PointMap,
    PowerModulus,
    ScaledAdditive,
    SubsetRef,
    betweenness_image_structure,
    betweenness_triples,
    bounded_image_bounds,
    brute_force_weak_similarity,
    build_space,
    check_involution_identity,
    check_l02_conditions,
    check_monotone_implications,
    check_qs,
    check_transfer_condition,
    check_triangle,
    collinear_space,
    compose_weak_similarities,
    detect_pseudolinear,
    euclidean_space,
    find_weak_similarity,
    fit_snowflake,
    forced_scaling,
    identity_map,
    inverse_modulus,
    is_ptolemaic,
    line_embed,
    load_space,
    preserves_betweenness,
    ptolemy_transfer_check,
    qs_from_weaksim,
    save_space,
    snowflake_map,
    space_ranks,
    transform_distances,
    transform_map,
    tv_bounds,
    ultrametric_space,
    verify_transfer_end_to_end,
    verify_weak_similarity,
)
from qsym import triangle
from qsym.fileio import load_space_document

from conftest import naive_scan
from test_pair_kernels import lattice_space


def scaled(space, c):
    return transform_distances(space, lambda d: c * d)


def scaled_map(f, c):
    return PointMap(scaled(f.domain, c), scaled(f.codomain, c), f.assignment, f.bijective)


#: small spaces with many exact ties
TIE_HEAVY = st.one_of(
    st.lists(st.integers(0, 30), min_size=3, max_size=8, unique=True).map(collinear_space),
    st.sampled_from([lattice_space(2, "l1"), lattice_space(3, "l1"), lattice_space(3, "l2")]),
    st.builds(ultrametric_space, st.integers(3, 8), seed=st.integers(0, 99)),
    st.builds(euclidean_space, st.integers(3, 8), st.just(2), seed=st.integers(0, 99)),
)


def same_up_to_scale(a, b, power, c):
    """Reports a (of the space) and b (of the space times c) agree: equal
    fields, and numeric fields b = c**power a wherever that is finite."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_up_to_scale(u, v, power, c) for u, v in zip(a, b))
    if isinstance(a, np.ndarray):
        return same_up_to_scale(tuple(a.tolist()), tuple(b.tolist()), power, c)
    if isinstance(a, float):
        with np.errstate(over="ignore"):
            expect = np.ldexp(a, power * int(np.log2(c)))
        return b == expect if np.isfinite(expect) else not np.isnan(b)
    return a == b


def fields(report):
    """The report's fields but the tol it echoes."""
    return tuple(getattr(report, k) for k in report.__dataclass_fields__ if k != "tol")


@settings(max_examples=40, deadline=None)
@given(TIE_HEAVY, st.sampled_from([2.0 ** -30, 2.0 ** 30]))
def test_every_verdict_and_witness_is_scale_free(X, c):
    Xc = scaled(X, c)
    for phi in (Additive(), ScaledAdditive(2.0), MaxGauge()):
        rep, rep_c = check_triangle(X, phi), check_triangle(Xc, phi)
        assert same_up_to_scale(fields(rep), fields(rep_c), 1, c)
    assert same_up_to_scale(tuple(betweenness_triples(X)), tuple(betweenness_triples(Xc)), 1, c)
    line, line_c = line_embed(X), line_embed(Xc)
    assert (line is None) == (line_c is None)
    assert line is None or same_up_to_scale(line, line_c, 1, c)
    for f in (identity_map(X), snowflake_map(X, 0.5)):
        f_c = scaled_map(f, c)
        rep, rep_c = preserves_betweenness(f), preserves_betweenness(f_c)
        assert same_up_to_scale(fields(rep), fields(rep_c), 1, c)
        for eta in (PowerModulus(0.5), PowerModulus(0.4), PowerModulus(1.0)):
            # ratios are scale-free, so every field is equal
            assert fields(check_qs(f, eta)) == fields(check_qs(f_c, eta))


@settings(max_examples=40, deadline=None)
@given(TIE_HEAVY, st.sampled_from([2.0 ** -30, 2.0 ** 30, 2.0 ** 520]))
def test_the_ptolemy_verdict_and_witness_are_scale_free(X, c):
    rep = is_ptolemaic(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep_c = is_ptolemaic(scaled(X, c))
    assert same_up_to_scale(fields(rep), fields(rep_c), 2, c)


def test_exactly_collinear_spaces_stay_metric_at_any_scale():
    # the sum of two float distances rounds at the scale of the distances,
    # far above an absolute 1e-9 once they reach 1e9
    rng = np.random.default_rng(0)
    rejected = 0
    for _ in range(200):
        X = collinear_space(rng.random(8).tolist())
        rejected += not check_triangle(scaled(X, 1e9), Additive()).holds
    assert rejected == 0


def test_the_squared_line_is_not_a_metric_at_any_scale():
    X = transform_distances(collinear_space([0.0, 1.0, 2.0, 3.0]), lambda d: d * d)
    for c in (1.0, 1e-18):
        rep = check_triangle(scaled(X, c), Additive())
        assert not rep.holds and rep.margin < 0


def test_ptolemy_products_cannot_overflow():
    X = scaled(euclidean_space(6, 2, seed=1), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = is_ptolemaic(X)
    assert rep.holds and not np.isnan([rep.lhs, rep.rhs, rep.margin]).any()
    assert rep.worst_quadruple == is_ptolemaic(euclidean_space(6, 2, seed=1)).worst_quadruple


def test_the_inverse_of_a_snowflake_holds_at_large_ratios():
    # the ratio 1e-10 becomes 1e5 under the square root, where the inverse
    # modulus is 1e10: an absolute residual of the bisection, or an absolute
    # slack on eta, used to fail it (r = 9999999999.0, eta' = 9999999172.6)
    f = snowflake_map(collinear_space([0.0, 1e-10, 1.0, 3.0]), 0.5).inverse()
    assert check_qs(f, inverse_modulus(CallableModulus(np.sqrt))).holds


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats() | st.sampled_from([np.nan, -0.0, 0.0]),
                          st.floats(max_value=0.0) | st.just(-0.0)), min_size=1, max_size=30),
       st.data())
def test_scan_with_per_value_floors_matches_the_loop_oracle(pairs, data):
    # per-value floors at or below the scan's floor 0, as -tol lhs is
    values, floors = (list(v) for v in zip(*pairs))
    cut = data.draw(st.lists(st.booleans(), min_size=len(values) - 1,
                             max_size=len(values) - 1))
    ends = [i + 1 for i, c in enumerate(cut) if c] + [len(values)]
    scan = triangle._Scan(0.0)
    start = 0
    for end in ends:
        scan.add(np.array(values[start:end]), lambda k, start=start: start + k,
                 np.array(floors[start:end]))
        start = end
    low, violation, count = naive_scan(values, floors)
    assert (scan.least, scan.violation, scan.count) == (low, violation, count)


X4 = collinear_space([0.0, 1.0, 3.0, 6.0])
ID4 = identity_map(X4)
ETA1 = PowerModulus(1.0)
WS = find_weak_similarity(X4, X4)

#: every public function that takes ``tol``, called with valid arguments
TOL_TAKERS = {
    "build_space": lambda tol, path: build_space(["a", "b"], [[0, 1], [1, 0]], tol=tol),
    "transform_distances": lambda tol, path: transform_distances(X4, np.sqrt, tol=tol),
    "transform_map": lambda tol, path: transform_map(X4, np.sqrt, tol=tol),
    "load_space": lambda tol, path: load_space(path, tol),
    "load_space_document": lambda tol, path: load_space_document(path, tol),
    "check_triangle": lambda tol, path: check_triangle(X4, Additive(), tol),
    "is_ptolemaic": lambda tol, path: is_ptolemaic(X4, tol),
    "check_qs": lambda tol, path: check_qs(ID4, ETA1, tol),
    "fit_snowflake": lambda tol, path: fit_snowflake(ID4, tol),
    "tv_bounds": lambda tol, path: tv_bounds(ID4, ETA1, SubsetRef(X4, (0, 1)),
                                             SubsetRef(X4, (0, 1, 2)), Additive(),
                                             Additive(), tol),
    "bounded_image_bounds": lambda tol, path: bounded_image_bounds(ID4, ETA1, Additive(),
                                                                   Additive(), tol),
    "check_transfer_condition": lambda tol, path: check_transfer_condition(
        Additive(), Additive(), ETA1, pairs=ID4, tol=tol),
    "verify_transfer_end_to_end": lambda tol, path: verify_transfer_end_to_end(
        ID4, Additive(), Additive(), ETA1, tol),
    "ptolemy_transfer_check": lambda tol, path: ptolemy_transfer_check(ID4, ETA1, tol),
    "betweenness_triples": lambda tol, path: betweenness_triples(X4, tol),
    "preserves_betweenness": lambda tol, path: preserves_betweenness(ID4, tol),
    "check_l02_conditions": lambda tol, path: check_l02_conditions(ETA1, tol=tol),
    "detect_pseudolinear": lambda tol, path: detect_pseudolinear(X4, tol),
    "line_embed": lambda tol, path: line_embed(X4, tol),
    "betweenness_image_structure": lambda tol, path: betweenness_image_structure(
        ID4, SubsetRef(X4, (0, 1, 2)), tol),
    "space_ranks": lambda tol, path: space_ranks(X4, tol),
    "forced_scaling": lambda tol, path: forced_scaling(X4, X4, tol),
    "verify_weak_similarity": lambda tol, path: verify_weak_similarity(WS, tol),
    "find_weak_similarity": lambda tol, path: find_weak_similarity(X4, X4, tol),
    "brute_force_weak_similarity": lambda tol, path: brute_force_weak_similarity(X4, X4, tol),
    "check_monotone_implications": lambda tol, path: check_monotone_implications(ID4, tol),
    "check_involution_identity": lambda tol, path: check_involution_identity(ETA1, tol=tol),
    "qs_from_weaksim": lambda tol, path: qs_from_weaksim(WS, lambda t: t, tol),
    "compose_weak_similarities": lambda tol, path: compose_weak_similarities(WS, WS, tol),
    "ScalingFunction.__call__": lambda tol, path: WS.phi(1.0, tol),
}


def test_the_tol_table_covers_every_public_tol_parameter():
    names = {"load_space_document"}
    for name in qsym.__all__:
        obj = getattr(qsym, name)
        if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
            names.add(name)
        elif inspect.isclass(obj):  # a report's generated __init__ only echoes tol
            names.update(f"{name}.{m}" for m, fn in vars(obj).items() if m != "__init__"
                         and inspect.isfunction(fn) and "tol" in inspect.signature(fn).parameters)
    assert names == set(TOL_TAKERS)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tol") / "X4.json"
    save_space(X4, path)
    return path


@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_every_tol_must_be_finite_and_nonnegative(name, space_file):
    call = TOL_TAKERS[name]
    for bad in (np.nan, np.inf, -1e-9):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            call(bad, space_file)
    call(0, space_file)
