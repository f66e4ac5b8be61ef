"""Round trips and parse diagnostics for the flat-file formats."""

import json

import numpy as np
import pytest

from qsym import (
    ParseError,
    ValidationError,
    build_map,
    build_space,
    empirical_modulus,
    load_envelope_points,
    load_space,
    save_envelope,
    save_space,
    snowflake_map,
)
from qsym.fileio import load_map_document, load_space_document, sha256_file


@pytest.fixture
def irrational_space():
    # awkward floats so that round trips actually exercise repr fidelity
    r2, r3 = np.sqrt(2.0), np.sqrt(3.0)
    return build_space(
        ("p", "q", "r"),
        [[0.0, r2, 0.1 + 0.2], [r2, 0.0, r3], [0.1 + 0.2, r3, 0.0]],
    )


# ------------------------------------------------------------ space files


def test_space_json_roundtrip(tmp_path, irrational_space):
    path = tmp_path / "sp.json"
    save_space(irrational_space, path, name="probe")
    back, name = load_space_document(path)
    assert name == "probe"
    assert back.labels == irrational_space.labels
    assert np.array_equal(np.asarray(back.dist), np.asarray(irrational_space.dist))


def test_space_csv_roundtrip(tmp_path, irrational_space):
    path = tmp_path / "sp.csv"
    save_space(irrational_space, path)
    back, name = load_space_document(path)
    assert name == ""
    assert back.labels == irrational_space.labels
    assert np.array_equal(np.asarray(back.dist), np.asarray(irrational_space.dist))


def test_space_json_defaults_name_empty(tmp_path, line3):
    path = tmp_path / "sp.json"
    save_space(line3, path)
    _, name = load_space_document(path)
    assert name == ""
    assert load_space(path).labels == line3.labels


def test_space_json_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ["a", "b"]}')
    with pytest.raises(ParseError, match='missing "matrix"'):
        load_space(path)
    path.write_text('{"matrix": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError, match='missing "points"'):
        load_space(path)


def test_space_json_shape_and_type_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ["a", "b"], "matrix": [[0, 1]]}')
    with pytest.raises(ParseError, match="2 rows"):
        load_space(path)
    path.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [1]]}')
    with pytest.raises(ParseError, match="row 1 must have 2 entries"):
        load_space(path)
    path.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [1, "x"]]}')
    with pytest.raises(ParseError, match="non-numeric"):
        load_space(path)
    path.write_text('{"points": ["a", 2], "matrix": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError, match="list of strings"):
        load_space(path)


@pytest.mark.parametrize("entry", ["true", '"1.0"'])
def test_space_json_rejects_bool_and_string_entries(tmp_path, entry):
    # a JSON bool loads as a Python int subclass and a numeric string
    # converts to float cleanly; neither is a number of the format
    path = tmp_path / "bad.json"
    path.write_text(
        '{"points": ["a", "b", "c"], '
        f'"matrix": [[0, 1, 1], [1, 0, 1], [1, {entry}, 0]]}}'
    )
    with pytest.raises(ParseError) as err:
        load_space(path)
    assert str(err.value) == f"{path}: matrix row 2 contains a non-numeric entry"


def test_space_json_syntax_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ["a"],\n "matrix": [[0],]}')
    with pytest.raises(ParseError) as err:
        load_space(path)
    assert err.value.line == 2
    assert str(path) in str(err.value)


def test_space_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ParseError, match="expected 2 matrix rows"):
        load_space(path)
    path.write_text("a,b\n0,1\n1\n")
    with pytest.raises(ParseError, match="expected 2 entries") as err:
        load_space(path)
    assert err.value.line == 3
    path.write_text("a,b\n0,one\n1,0\n")
    with pytest.raises(ParseError, match="bad number 'one'") as err:
        load_space(path)
    assert err.value.line == 2
    path.write_text("")
    with pytest.raises(ParseError, match="empty CSV"):
        load_space(path)


def test_space_axioms_pass_through(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [2, 0]]}')
    with pytest.raises(ValidationError,
                       match=r"^d\(a,b\) != d\(b,a\) \(difference 1 exceeds tol\)$"):
        load_space(path)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read file"):
        load_space(tmp_path / "nope.json")
    with pytest.raises(ParseError, match="cannot read file"):
        load_envelope_points(tmp_path / "nope.txt")


# -------------------------------------------------------------- map files


def test_map_roundtrip(tmp_path, line4):
    f = snowflake_map(line4, 0.5)
    path = tmp_path / "map.json"
    labels = {a: b for a, b in zip(f.domain.labels, f.codomain.labels)}
    path.write_text(json.dumps({"domain": "X", "codomain": "Y", "assignment": labels}))
    dom, cod, assignment = load_map_document(path)
    assert (dom, cod, assignment) == ("X", "Y", labels)
    back = build_map(f.domain, f.codomain, assignment, require_bijective=True)
    assert np.array_equal(back.assignment, f.assignment)
    assert back.is_bijection()


def test_map_document_reorders_by_domain(tmp_path, line3):
    path = tmp_path / "map.json"
    doc = {"assignment": {"3": "0", "0": "3", "1": "1"}}
    path.write_text(json.dumps(doc))
    f = build_map(line3, line3, load_map_document(path)[2])
    assert tuple(int(v) for v in f.assignment) == (2, 1, 0)


def test_map_requires_assignment_object(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"domain": "X"}')
    with pytest.raises(ParseError, match='missing "assignment"'):
        load_map_document(path)
    path.write_text('{"assignment": {"a": 3}}')
    with pytest.raises(ParseError, match="label strings"):
        load_map_document(path)


def test_map_target_and_coverage_errors(tmp_path, line3):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"assignment": {"0": "0", "1": "9", "3": "3"}}))
    with pytest.raises(ValidationError, match=r"^target '9' is not a point of the codomain$"):
        build_map(line3, line3, load_map_document(path)[2])

    path.write_text(json.dumps({"assignment": {"0": "0", "1": "1"}}))
    with pytest.raises(ValidationError, match=r"^domain point '3' has no image$"):
        build_map(line3, line3, load_map_document(path)[2])


def test_map_bijectivity_flag(tmp_path, line3):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"assignment": {"0": "0", "1": "0", "3": "3"}}))
    _, _, assignment = load_map_document(path)
    assert not build_map(line3, line3, assignment).is_bijection()
    with pytest.raises(ValidationError, match=r"^assignment is not a bijection onto the codomain$"):
        build_map(line3, line3, assignment, require_bijective=True)


# --------------------------------------------------------- envelope files


def test_envelope_roundtrip(tmp_path, line4):
    env = empirical_modulus(snowflake_map(line4, 0.5))
    path = tmp_path / "env.txt"
    save_envelope(env, path)
    ts, hs = load_envelope_points(path)
    assert np.array_equal(ts, env.ts)
    assert np.array_equal(hs, env.hs)


def test_envelope_accepts_blank_lines(tmp_path):
    path = tmp_path / "env.txt"
    path.write_text("0.5 0.25\n\n1.0 1.0\n")
    ts, hs = load_envelope_points(path)
    np.testing.assert_allclose(ts, [0.5, 1.0])
    np.testing.assert_allclose(hs, [0.25, 1.0])


def test_envelope_parse_errors(tmp_path):
    path = tmp_path / "env.txt"
    path.write_text("0.5 0.25 7\n")
    with pytest.raises(ParseError, match="two numbers") as err:
        load_envelope_points(path)
    assert err.value.line == 1
    path.write_text("0.5 0.25\n1.0 x\n")
    with pytest.raises(ParseError, match="bad number") as err:
        load_envelope_points(path)
    assert err.value.line == 2
    path.write_text("\n")
    with pytest.raises(ParseError, match="no points"):
        load_envelope_points(path)


# ----------------------------------------------------------------- hashes


def test_sha256_is_content_determined(tmp_path, line4):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_space(line4, a, name="same")
    save_space(line4, b, name="same")
    assert sha256_file(a) == sha256_file(b)
    save_space(line4, b, name="different")
    assert sha256_file(a) != sha256_file(b)
    assert len(sha256_file(a)) == 64
